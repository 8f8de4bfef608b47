"""Tests for parallel frame fetching in the feedback collect phase."""

import numpy as np
import pytest

from repro.app.feedback import CGToContinuumFeedback
from repro.core.feedback import FeedbackManager, StoreFeedbackMixin
from repro.datastore import FSStore, open_store
from repro.sims.cg.analysis import RDFResult
from repro.sims.continuum.ddft import ContinuumConfig, ContinuumSim


class Collector(StoreFeedbackMixin, FeedbackManager):
    def __init__(self, store, workers):
        FeedbackManager.__init__(self)
        StoreFeedbackMixin.__init__(self, store, "x/live/", "x/done/",
                                    fetch_workers=workers)

    def process(self, items):
        return len(items)

    def report(self, result):
        pass


class TestParallelCollect:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_collect_returns_all_items(self, tmp_path, workers):
        store = FSStore(str(tmp_path))
        for i in range(20):
            store.write(f"x/live/f{i:02d}", str(i).encode())
        mgr = Collector(store, workers)
        items = mgr.collect()
        assert len(items) == 20
        assert dict(items)["x/live/f07"] == b"7"

    def test_parallel_and_serial_agree(self, tmp_path):
        store = FSStore(str(tmp_path))
        for i in range(15):
            store.write(f"x/live/f{i:02d}", bytes([i]))
        serial = sorted(Collector(store, 1).collect())
        parallel = sorted(Collector(store, 8).collect())
        assert serial == parallel

    def test_iteration_identical_results(self, tmp_path):
        """The CG->continuum aggregate is invariant to the fetch mode."""
        def run(workers):
            store = FSStore(str(tmp_path / f"w{workers}"))
            edges = np.linspace(0, 3, 11)
            g = np.ones((2, 10)); g[0, :3] = 2.5
            for i in range(30):
                store.write(f"rdf/live/f{i:02d}",
                            RDFResult(f"c{i}", 1.0, edges, g).to_bytes())
            cont = ContinuumSim(ContinuumConfig(grid=16, n_inner=2, n_outer=2,
                                                n_proteins=2, dt=0.25, seed=0))
            CGToContinuumFeedback(store, cont, fetch_workers=workers).run_iteration()
            return cont.g_inner

        np.testing.assert_array_equal(run(1), run(6))

    def test_single_item_skips_pool(self):
        store = open_store("kv://1")
        store.write("x/live/only", b"1")
        assert Collector(store, 8).collect() == [("x/live/only", b"1")]

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            Collector(open_store("kv://1"), 0)
