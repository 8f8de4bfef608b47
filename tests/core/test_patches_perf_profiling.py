"""Tests for the Patch Creator, performance models, and profiler."""

import numpy as np
import pytest

from repro.core.patches import Patch, PatchCreator
from repro.core.perfmodel import PerformanceModel
from repro.core.profiling import OccupancyProfiler
from repro.datastore import open_store
from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobSpec
from repro.sched.resources import summit_like
from repro.sims.continuum import ContinuumConfig, ContinuumSim
from repro.util.clock import EventLoop


@pytest.fixture
def snapshot():
    sim = ContinuumSim(ContinuumConfig(grid=32, n_inner=2, n_outer=2,
                                       n_proteins=4, dt=0.05, seed=0))
    sim.step(5)
    return sim.snapshot()


class TestPatchCreator:
    def test_one_patch_per_protein(self, snapshot):
        pc = PatchCreator(patch_grid=9)
        patches = pc.create(snapshot)
        assert len(patches) == 4
        assert pc.patches_created == 4
        assert pc.snapshots_processed == 1

    def test_patch_shape_and_state(self, snapshot):
        pc = PatchCreator(patch_grid=9)
        patch = pc.create(snapshot)[0]
        assert patch.densities.shape == (2, 9, 9)
        assert patch.grid == 9
        assert patch.protein_state in (0, 1)
        assert patch.flat().shape == (2 * 81,)

    def test_ids_unique_across_snapshots(self, snapshot):
        pc = PatchCreator(patch_grid=9)
        a = pc.create(snapshot)
        b = pc.create(snapshot)
        ids = {p.patch_id for p in a + b}
        assert len(ids) == 8

    def test_patch_centered_on_protein(self):
        # A density spike at the protein should appear near the patch center.
        sim = ContinuumSim(ContinuumConfig(grid=32, n_inner=1, n_outer=1,
                                           n_proteins=1, dt=0.05, seed=1))
        pos = sim.proteins.positions[0]
        dx = sim.config.box / sim.config.grid
        ci, cj = int(pos[0] / dx), int(pos[1] / dx)
        sim.inner[0][ci, cj] = 100.0
        # patch_nm wide enough that the 9 samples land on distinct cells
        # of the coarse test grid (production grids are 2400^2, where the
        # default 30 nm resolves to ~72 cells).
        patch = PatchCreator(patch_grid=9, patch_nm=300.0).create(sim.snapshot())[0]
        peak = np.unravel_index(np.argmax(patch.densities[0]), (9, 9))
        assert abs(peak[0] - 4) <= 1 and abs(peak[1] - 4) <= 1

    def test_store_persistence(self, snapshot):
        store = open_store("kv://2")
        pc = PatchCreator(patch_grid=9, store=store)
        patches = pc.create(snapshot)
        keys = store.keys("patches/")
        assert len(keys) == len(patches)
        back = Patch.from_bytes(store.read(keys[0]))
        assert back.grid == 9

    def test_bytes_roundtrip(self, snapshot):
        patch = PatchCreator(patch_grid=9).create(snapshot)[0]
        back = Patch.from_bytes(patch.to_bytes())
        assert back.patch_id == patch.patch_id
        np.testing.assert_array_equal(back.densities, patch.densities)
        assert back.protein_state == patch.protein_state

    def test_validation(self):
        with pytest.raises(ValueError):
            PatchCreator(patch_grid=2)
        with pytest.raises(ValueError):
            PatchCreator(patch_nm=0)


class TestPerformanceModel:
    def test_reference_rates(self):
        assert PerformanceModel.continuum_rate(3600) == pytest.approx(0.96)
        assert PerformanceModel.cg_rate(140_000) == pytest.approx(1.04)
        assert PerformanceModel.aa_rate(1_575_000) == pytest.approx(13.98)

    def test_continuum_scales_down_with_cores(self):
        full = PerformanceModel.continuum_rate(3600)
        half = PerformanceModel.continuum_rate(2400)
        assert half < full
        # and does not scale past the reference allocation
        assert PerformanceModel.continuum_rate(7200) == pytest.approx(full)

    def test_rates_fall_with_system_size(self):
        assert PerformanceModel.cg_rate(150_000) < PerformanceModel.cg_rate(130_000)
        assert PerformanceModel.aa_rate(1.6e6) < PerformanceModel.aa_rate(1.5e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceModel.continuum_rate(0)
        with pytest.raises(ValueError):
            PerformanceModel.cg_rate(0)
        with pytest.raises(ValueError):
            PerformanceModel.aa_rate(-5)

    def test_cg_samples_cluster_around_reference(self):
        pm = PerformanceModel(rng=np.random.default_rng(0))
        samples = [pm.sample_cg() for _ in range(300)]
        rates = np.array([s.rate for s in samples])
        sizes = np.array([s.system_size for s in samples])
        assert abs(rates.mean() - 1.04) < 0.05
        assert abs(sizes.mean() - 140_000) < 500

    def test_mpi_bug_slows_cg(self):
        pm1 = PerformanceModel(rng=np.random.default_rng(1), slow_tail_prob=0)
        pm2 = PerformanceModel(rng=np.random.default_rng(1), slow_tail_prob=0)
        ok = np.mean([pm1.sample_cg(mpi_bug=False).rate for _ in range(100)])
        bug = np.mean([pm2.sample_cg(mpi_bug=True).rate for _ in range(100)])
        assert bug == pytest.approx(0.8 * ok, rel=0.01)

    def test_slow_tail_exists(self):
        pm = PerformanceModel(rng=np.random.default_rng(2), slow_tail_prob=0.2)
        rates = np.array([pm.sample_aa().rate for _ in range(500)])
        expected = 13.98
        assert np.sum(rates < 0.85 * expected) > 30  # a visible slow tail

    def test_samples_are_seed_reproducible(self):
        a = PerformanceModel(rng=np.random.default_rng(3)).sample_cg()
        b = PerformanceModel(rng=np.random.default_rng(3)).sample_cg()
        assert a == b


class TestOccupancyProfiler:
    def _loaded_flux(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(2), loop)
        for _ in range(12):  # exactly fills 12 GPUs
            flux.submit(JobSpec(name="cg-sim", ncores=3, ngpus=1, duration=10_000.0))
        return loop, flux

    def test_poll_reads_occupancy(self):
        loop, flux = self._loaded_flux()
        loop.run_until(60.0)
        prof = OccupancyProfiler(flux)
        ev = prof.poll()
        assert ev.gpu_occupancy == 1.0
        assert 0 < ev.cpu_occupancy < 1.0
        assert ev.running == {"cg-sim": 12}

    def test_scheduled_polling(self):
        loop, flux = self._loaded_flux()
        prof = OccupancyProfiler(flux, interval=100.0)
        prof.start(until=1000.0)
        loop.run_until(1000.0)
        assert len(prof.events) == 10

    def test_headline_stats(self):
        loop, flux = self._loaded_flux()
        prof = OccupancyProfiler(flux, interval=100.0)
        prof.start(until=500.0)
        loop.run_until(500.0)
        head = prof.headline()
        assert head["gpu_fraction_at_98"] > 0.5
        assert 0 <= head["cpu_median"] <= 1

    def test_headline_requires_events(self):
        loop, flux = self._loaded_flux()
        with pytest.raises(ValueError):
            OccupancyProfiler(flux).headline()

    def test_invalid_interval(self):
        loop, flux = self._loaded_flux()
        with pytest.raises(ValueError):
            OccupancyProfiler(flux, interval=0)
