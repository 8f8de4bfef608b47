"""Tests for job interdependence (tag hooks) and outer-leaflet patches."""

import numpy as np
import pytest

from repro.core.jobs import JobTracker, JobTypeConfig
from repro.core.patches import Patch, PatchCreator
from repro.sched.adapter import FluxAdapter
from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobState
from repro.sched.resources import summit_like
from repro.sims.continuum import ContinuumConfig, ContinuumSim
from repro.util.clock import EventLoop


def make_trackers():
    loop = EventLoop()
    flux = FluxInstance(summit_like(2), loop)
    adapter = FluxAdapter(flux)
    setup = JobTracker(
        JobTypeConfig(name="createsim", ncores=24,
                      duration_sampler=lambda rng: 100.0),
        adapter,
    )
    sim = JobTracker(
        JobTypeConfig(name="cg-sim", ncores=3, ngpus=1,
                      duration_sampler=lambda rng: 200.0),
        adapter,
    )
    return loop, flux, setup, sim


class TestJobChaining:
    def test_dependent_launches_after_prerequisite(self):
        loop, flux, setup, sim = make_trackers()
        setup.launch("patch-7")
        setup.when_done("patch-7", lambda rec: sim.launch("sim-7"))
        loop.run_until(50.0)
        assert sim.nactive() == 0  # prerequisite still running
        loop.run_until(500.0)
        assert sim.completed == 1
        assert sim.take("sim-7") == (JobState.COMPLETED, None)

    def test_chain_of_three_stages(self):
        # createsim -> cg-sim -> (analysis epilogue hook)
        loop, flux, setup, sim = make_trackers()
        order = []
        setup.launch("p")
        setup.when_done("p", lambda rec: (order.append("setup"), sim.launch("s")))
        sim.when_done("s", lambda rec: order.append("sim"))
        loop.run_until(1_000.0)
        assert order == ["setup", "sim"]

    def test_hooks_fire_once(self):
        loop, flux, setup, _ = make_trackers()
        hits = []
        setup.launch("x")
        setup.when_done("x", hits.append)
        loop.run_until(1_000.0)
        setup.launch("x")  # a second job with the same tag
        loop.run_until(2_000.0)
        assert len(hits) == 1

    def test_hook_not_fired_on_failure(self):
        loop, flux, setup, sim = make_trackers()
        launched = []
        setup_cfg = JobTypeConfig(name="createsim", ncores=24, max_retries=0,
                                  duration_sampler=lambda rng: 1e9)
        tracker = JobTracker(setup_cfg, FluxAdapter(flux))
        tracker.launch("doomed")
        tracker.when_done("doomed", lambda rec: launched.append(rec))
        loop.run_until(10.0)
        node = next(iter(flux.queue.running.values())).allocation.node_ids()[0]
        flux.fail_node(node)
        loop.run_until(100.0)
        assert launched == []
        assert tracker.abandoned == ["doomed"]

    def test_multiple_hooks_same_tag(self):
        loop, flux, setup, _ = make_trackers()
        hits = []
        setup.launch("t")
        setup.when_done("t", lambda r: hits.append(1))
        setup.when_done("t", lambda r: hits.append(2))
        loop.run_until(1_000.0)
        assert hits == [1, 2]


class TestOuterLeafletPatches:
    @pytest.fixture
    def snapshot(self):
        sim = ContinuumSim(ContinuumConfig(grid=32, n_inner=2, n_outer=3,
                                           n_proteins=2, dt=0.05, seed=0))
        sim.step(5)
        return sim.snapshot()

    def test_default_has_no_outer(self, snapshot):
        patch = PatchCreator(patch_grid=9).create(snapshot)[0]
        assert patch.outer is None
        assert patch.flat().shape == (2 * 81,)

    def test_include_outer_extends_encoding(self, snapshot):
        patch = PatchCreator(patch_grid=9, include_outer=True).create(snapshot)[0]
        assert patch.outer is not None
        assert patch.outer.shape == (3, 9, 9)
        assert patch.flat().shape == ((2 + 3) * 81,)

    def test_outer_roundtrips_through_bytes(self, snapshot):
        patch = PatchCreator(patch_grid=9, include_outer=True).create(snapshot)[0]
        back = Patch.from_bytes(patch.to_bytes())
        np.testing.assert_array_equal(back.outer, patch.outer)

    def test_inner_only_roundtrip_stays_none(self, snapshot):
        patch = PatchCreator(patch_grid=9).create(snapshot)[0]
        back = Patch.from_bytes(patch.to_bytes())
        assert back.outer is None
