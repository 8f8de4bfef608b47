"""Tests for history persistence and exact replay."""

import numpy as np
import pytest

from repro.core.replay import (
    ReplayMismatch,
    ScheduleTimeline,
    load_history,
    save_history,
    verify_selector_replay,
)
from repro.datastore import open_store
from repro.sampling.binned import BinnedSampler, BinSpec
from repro.sampling.fps import FarthestPointSampler
from repro.sampling.points import Point
from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobSpec
from repro.sched.resources import summit_like
from repro.util.clock import EventLoop


def P(pid, *coords):
    return Point(id=pid, coords=np.array(coords, dtype=float))


class TestHistoryStore:
    def test_save_load_roundtrip(self):
        store = open_store("kv://1")
        rows = [{"time": 1.0, "selected": ["a"], "candidates": 3, "detail": ""}]
        save_history(store, "hist/patch", rows)
        assert load_history(store, "hist/patch") == rows


class TestSelectorReplay:
    def _run_original(self):
        sampler = FarthestPointSampler(dim=1)
        additions = []
        pts = [P("a", 0.0), P("b", 10.0), P("c", 4.0), P("d", 9.0)]
        for i, p in enumerate(pts[:3]):
            sampler.add(p)
            additions.append((0, p))
        sampler.select(2, now=1.0)
        sampler.add(pts[3])
        additions.append((1, pts[3]))
        sampler.select(1, now=2.0)
        return sampler, additions

    def test_exact_replay_passes(self):
        sampler, additions = self._run_original()
        mismatch = verify_selector_replay(
            lambda: FarthestPointSampler(dim=1), additions, sampler.history_rows()
        )
        assert mismatch is None

    def test_divergent_history_detected(self):
        sampler, additions = self._run_original()
        rows = sampler.history_rows()
        rows[0]["selected"] = ["c", "a"]  # tampered history
        mismatch = verify_selector_replay(
            lambda: FarthestPointSampler(dim=1), additions, rows
        )
        assert isinstance(mismatch, ReplayMismatch)
        assert mismatch.event_index == 0

    def test_binned_sampler_replay_with_same_seed(self):
        def factory():
            return BinnedSampler([BinSpec(0, 1, 4)], rng=np.random.default_rng(5))

        original = factory()
        additions = []
        rng = np.random.default_rng(0)
        for i in range(20):
            p = P(f"p{i}", float(rng.random()))
            original.add(p)
            additions.append((0, p))
        original.select(3, now=1.0)
        original.select(2, now=2.0)
        assert verify_selector_replay(factory, additions, original.history_rows()) is None

    def test_binned_replay_with_wrong_seed_diverges(self):
        original = BinnedSampler([BinSpec(0, 1, 4)], rng=np.random.default_rng(5))
        additions = []
        rng = np.random.default_rng(0)
        for i in range(50):
            p = P(f"p{i}", float(rng.random()))
            original.add(p)
            additions.append((0, p))
        original.select(10, now=1.0)
        mismatch = verify_selector_replay(
            lambda: BinnedSampler([BinSpec(0, 1, 4)], rng=np.random.default_rng(99)),
            additions,
            original.history_rows(),
        )
        assert mismatch is not None


class TestScheduleTimeline:
    @pytest.fixture
    def flux_history(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        for i in range(8):  # 6 run at once, 2 wait
            flux.submit(JobSpec(name="cg-sim", ncores=3, ngpus=1, duration=100.0))
        loop.run_until(400.0)
        return flux

    def test_counts_by_state(self, flux_history):
        tl = ScheduleTimeline(flux_history.history_rows())
        assert tl.counts_by_state() == {"completed": 8}

    def test_wait_and_run_times(self, flux_history):
        tl = ScheduleTimeline(flux_history.history_rows())
        waits = tl.wait_times()
        runs = tl.run_times()
        assert waits.size == 8
        assert np.all(runs == pytest.approx(100.0))
        assert waits.max() > waits.min()  # the last two jobs waited

    def test_running_series(self, flux_history):
        tl = ScheduleTimeline(flux_history.history_rows())
        series = tl.running_series([50.0, 150.0, 350.0])
        assert series[0] == 6  # machine full
        assert series[1] == 2  # the stragglers
        assert series[2] == 0

    def test_gpu_series_matches_live_observation(self, flux_history):
        tl = ScheduleTimeline(flux_history.history_rows())
        # "Live" observation reconstructed from the scheduler state:
        times = [50.0, 150.0, 350.0]
        observed = [6, 2, 0]
        assert tl.replay_matches_profile(times, observed)

    def test_per_name_filter(self, flux_history):
        tl = ScheduleTimeline(flux_history.history_rows())
        assert tl.running_series([50.0], name="cg-sim")[0] == 6
        assert tl.running_series([50.0], name="aa-sim")[0] == 0
