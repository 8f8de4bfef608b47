"""Tests for the tiered (RAM-disk + durable) store."""

import numpy as np
import pytest

from repro.datastore import FSStore, KeyNotFound, open_store
from repro.datastore.tiered import TieredStore


@pytest.fixture
def store(tmp_path):
    s = TieredStore(
        fast=open_store("kv://2"),
        backing=FSStore(str(tmp_path / "gpfs")),
        persist_prefixes=("ckpt/", "aa-input/"),
    )
    yield s
    s.close()


class TestWriteThrough:
    def test_scratch_data_stays_in_fast_tier(self, store):
        store.write("traj/frame-1", b"big trajectory chunk")
        assert store.fast_keys() == ["traj/frame-1"]
        assert store.backing_keys() == []
        assert not store.durable("traj/frame-1")

    def test_persistent_data_written_through(self, store):
        store.write("ckpt/sim-1", b"checkpoint")
        assert "ckpt/sim-1" in store.fast_keys()
        assert "ckpt/sim-1" in store.backing_keys()
        assert store.durable("ckpt/sim-1")

    def test_multiple_prefixes(self, store):
        store.write("aa-input/s1", b"0.5 GB backed up to GPFS")
        assert store.durable("aa-input/s1")


class TestReadPath:
    def test_reads_prefer_fast_tier(self, store):
        store.write("ckpt/a", b"v-fast")
        # Corrupt the backing copy; the fast tier must win.
        store.backing.write("ckpt/a", b"v-backing")
        assert store.read("ckpt/a") == b"v-fast"

    def test_fallback_to_backing_after_fast_loss(self, store):
        store.write("ckpt/a", b"payload")
        store.fast.delete("ckpt/a")  # RAM disk lost (node reboot)
        assert store.read("ckpt/a") == b"payload"

    def test_promotion_on_read(self, store):
        store.write("ckpt/a", b"payload")
        store.fast.delete("ckpt/a")
        store.read("ckpt/a")
        assert "ckpt/a" in store.fast_keys()

    def test_no_promotion_when_disabled(self, tmp_path):
        s = TieredStore(open_store("kv://1"), FSStore(str(tmp_path / "b")),
                        persist_prefixes=("ckpt/",), promote_on_read=False)
        s.write("ckpt/a", b"x")
        s.fast.delete("ckpt/a")
        s.read("ckpt/a")
        assert s.fast_keys() == []

    def test_missing_everywhere_raises(self, store):
        with pytest.raises(KeyNotFound):
            store.read("nope")


class TestEviction:
    def test_evict_frees_fast_tier(self, store):
        for i in range(5):
            store.write(f"traj/f{i}", b"x")
        store.write("ckpt/a", b"keep")
        evicted = store.evict("traj/")
        assert evicted == 5
        assert store.fast_keys("traj/") == []

    def test_persistent_survives_full_eviction(self, store):
        store.write("ckpt/a", b"precious")
        store.write("traj/f", b"scratch")
        store.evict()
        assert store.read("ckpt/a") == b"precious"  # from backing
        with pytest.raises(KeyNotFound):
            store.read("traj/f")  # scratch is gone, by design


class TestDataStoreSemantics:
    def test_keys_merge_both_tiers(self, store):
        store.write("ckpt/a", b"x")
        store.fast.delete("ckpt/a")  # only in backing now
        store.write("traj/b", b"y")  # only in fast
        assert store.keys() == ["ckpt/a", "traj/b"]

    def test_delete_clears_both_tiers(self, store):
        store.write("ckpt/a", b"x")
        store.delete("ckpt/a")
        assert store.keys() == []
        with pytest.raises(KeyNotFound):
            store.delete("ckpt/a")

    def test_move_respects_persistence_of_destination(self, store):
        store.write("traj/f", b"selected frame")
        store.move("traj/f", "aa-input/f")  # promotion to a durable class
        assert store.durable("aa-input/f")
        assert store.keys("traj/") == []

    def test_npz_roundtrip(self, store):
        store.write_npz("ckpt/arr", {"x": np.arange(5)})
        back = store.read_npz("ckpt/arr")
        np.testing.assert_array_equal(back["x"], np.arange(5))

    def test_feedback_manager_over_tiered_store(self, store):
        from repro.app.feedback import CGToContinuumFeedback
        from repro.sims.cg.analysis import RDFResult
        from repro.sims.continuum.ddft import ContinuumConfig, ContinuumSim

        cont = ContinuumSim(ContinuumConfig(grid=16, n_inner=2, n_outer=2,
                                            n_proteins=2, dt=0.25, seed=0))
        edges = np.linspace(0, 3, 11)
        g = np.ones((2, 10)); g[0, :3] = 2.0
        for i in range(5):
            store.write(f"rdf/live/f{i}", RDFResult(f"c{i}", 1.0, edges, g).to_bytes())
        mgr = CGToContinuumFeedback(store, cont)
        rep = mgr.run_iteration()
        assert rep.n_items == 5
        assert store.keys("rdf/live/") == []
