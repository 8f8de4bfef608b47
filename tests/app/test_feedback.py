"""Tests for the two application feedback managers."""

import numpy as np
import pytest

from repro.app.feedback import AAToCGFeedback, CGToContinuumFeedback, rdf_to_coupling
from repro.datastore import open_store
from repro.sims.cg.analysis import RDFResult
from repro.sims.cg.forcefield import martini_like
from repro.sims.cg.engine import CGConfig, CGSim
from repro.sims.continuum.ddft import ContinuumConfig, ContinuumSim

CONT_CFG = ContinuumConfig(grid=16, n_inner=2, n_outer=2, n_proteins=2, dt=0.25, seed=0)


def make_rdf(sim_id, g_values, nbins=10, rmax=3.0):
    edges = np.linspace(0, rmax, nbins + 1)
    g = np.asarray(g_values, dtype=float)
    return RDFResult(sim_id=sim_id, time=1.0, edges=edges, g=g)


class TestRdfToCoupling:
    def test_uniform_rdf_gives_zero(self):
        edges = np.linspace(0, 3, 11)
        g = np.ones((2, 10))
        np.testing.assert_allclose(rdf_to_coupling(edges, g), 0.0)

    def test_enrichment_gives_positive(self):
        edges = np.linspace(0, 3, 11)
        g = np.ones((1, 10))
        g[0, :3] = 3.0  # enriched near the protein
        assert rdf_to_coupling(edges, g)[0] > 0

    def test_depletion_gives_negative(self):
        edges = np.linspace(0, 3, 11)
        g = np.ones((1, 10))
        g[0, :3] = 0.1
        assert rdf_to_coupling(edges, g)[0] < 0

    def test_near_field_weighted_more(self):
        edges = np.linspace(0, 3, 11)
        near = np.ones((1, 10)); near[0, 0] = 2.0
        far = np.ones((1, 10)); far[0, -1] = 2.0
        assert rdf_to_coupling(edges, near)[0] > rdf_to_coupling(edges, far)[0]


class TestCGToContinuum:
    def _manager(self, store=None):
        store = store or open_store("kv://2")
        cont = ContinuumSim(CONT_CFG)
        return CGToContinuumFeedback(store, cont), store, cont

    def test_iteration_updates_continuum(self):
        mgr, store, cont = self._manager()
        g = np.ones((2, 10)); g[0, :3] = 4.0; g[1, :3] = 0.1
        store.write("rdf/live/f1", make_rdf("cg1", g).to_bytes())
        v0 = cont.coupling_version
        rep = mgr.run_iteration(now=5.0)
        assert rep.n_items == 1
        assert cont.coupling_version == v0 + 1
        # Enriched type pulled up, depleted type pushed down.
        assert cont.g_inner[0, 0] > cont.g_inner[1, 0]

    def test_aggregates_many_frames(self):
        mgr, store, cont = self._manager()
        for i in range(20):
            g = np.ones((2, 10)); g[0, :3] = 2.0
            store.write(f"rdf/live/f{i:02d}", make_rdf(f"cg{i}", g).to_bytes())
        rep = mgr.run_iteration()
        assert rep.n_items == 20
        assert store.keys("rdf/live/") == []
        assert len(store.keys("rdf/done/")) == 20

    def test_empty_iteration_no_update(self):
        mgr, _, cont = self._manager()
        mgr.run_iteration()
        assert cont.coupling_version == 0

    def test_blend_bounds(self):
        store = open_store("kv://1")
        cont = ContinuumSim(CONT_CFG)
        with pytest.raises(ValueError):
            CGToContinuumFeedback(store, cont, blend=0.0)

    def test_blend_moves_partially(self):
        store = open_store("kv://1")
        cont = ContinuumSim(CONT_CFG)
        mgr = CGToContinuumFeedback(store, cont, blend=0.5)
        before = cont.g_inner.copy()
        g = np.ones((2, 10)); g[:, :3] = 5.0
        store.write("rdf/live/f", make_rdf("x", g).to_bytes())
        mgr.run_iteration()
        target = rdf_to_coupling(np.linspace(0, 3, 11), g)
        expected = 0.5 * before[0, 0] + 0.5 * target[0]
        assert cont.g_inner[0, 0] == pytest.approx(expected)


class TestAAToCG:
    def _manager(self, processor=None, sims=()):
        store = open_store("kv://2")
        ff = martini_like(2)
        mgr = AAToCGFeedback(store, ff, sims=sims, external_processor=processor)
        return mgr, store, ff

    def test_consensus_refines_forcefield(self):
        mgr, store, ff = self._manager()
        for i, pattern in enumerate(["HHCC", "HHCC", "HECC"]):
            store.write(f"ss/live/f{i}", pattern.encode())
        v0 = ff.version
        rep = mgr.run_iteration()
        assert rep.n_items == 3
        assert ff.version == v0 + 1
        assert ff.ss_pattern == "HHCC"

    def test_external_processor_called_per_frame(self):
        calls = []

        def processor(p):
            calls.append(p)
            return p

        mgr, store, _ = self._manager(processor=processor)
        for i in range(5):
            store.write(f"ss/live/f{i}", b"HHHH")
        mgr.run_iteration()
        assert len(calls) == 5

    def test_running_sims_get_refreshed(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=10, seed=0))
        store = open_store("kv://1")
        mgr = AAToCGFeedback(store, sim.ff, sims=[sim])
        store.write("ss/live/f0", b"CCCCC")
        k_before = sim._bond_k.copy()
        mgr.run_iteration()
        assert not np.array_equal(k_before, sim._bond_k)

    def test_mixed_lengths_vote_within_majority_group(self):
        mgr, store, ff = self._manager()
        store.write("ss/live/a", b"HHH")
        store.write("ss/live/b", b"HHH")
        store.write("ss/live/c", b"EEEEE")
        mgr.run_iteration()
        assert ff.ss_pattern == "HHH"

    def test_tagging_moves_frames(self):
        mgr, store, _ = self._manager()
        store.write("ss/live/f0", b"HH")
        mgr.run_iteration()
        assert store.keys("ss/live/") == []
        assert store.read("ss/done/f0") == b"HH"

    def test_pool_size_validation(self):
        with pytest.raises(ValueError):
            AAToCGFeedback(open_store("kv://1"), martini_like(2), pool_size=0)

    def test_pooled_processing_matches_serial(self):
        serial_mgr, s1, ff1 = self._manager()
        pooled = AAToCGFeedback(open_store("kv://2"), martini_like(2), pool_size=8)
        patterns = ["HHCC", "HHCC", "HHEE", "CCCC", "HHCC"]
        for i, p in enumerate(patterns):
            s1.write(f"ss/live/f{i}", p.encode())
            pooled.store.write(f"ss/live/f{i}", p.encode())
        serial_mgr.run_iteration()
        pooled.run_iteration()
        assert serial_mgr.forcefield.ss_pattern == pooled.forcefield.ss_pattern
