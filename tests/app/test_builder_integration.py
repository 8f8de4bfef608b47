"""Integration tests: the full three-scale application end to end."""

import threading

import numpy as np
import pytest

from repro.app.builder import build_application
from repro.core.wm import WorkflowConfig


@pytest.fixture(scope="module")
def app_after_rounds(tmp_path_factory):
    """Build once, run three rounds — shared by the assertions below."""
    app = build_application(
        store_url="kv://4",
        workflow=WorkflowConfig(beads_per_type=8, cg_chunks_per_job=2,
                                cg_steps_per_chunk=10, aa_chunks_per_job=1,
                                aa_steps_per_chunk=10, seed=0),
        seed=0,
    )
    app.run(nrounds=3)
    return app


class TestEndToEnd:
    def test_all_three_scales_ran(self, app_after_rounds):
        c = app_after_rounds.wm.counters
        assert c["snapshots"] == 3
        assert c["cg_finished"] > 0
        assert c["aa_finished"] > 0

    def test_forward_coupling_chain(self, app_after_rounds):
        c = app_after_rounds.wm.counters
        # continuum -> patches -> selection -> CG -> frames -> selection -> AA
        assert c["patches"] >= c["patches_selected"] > 0
        assert c["frames_seen"] >= c["frames_selected"] > 0

    def test_cg_to_continuum_feedback_applied(self, app_after_rounds):
        # RDFs flowed back: continuum couplings were updated in situ.
        assert app_after_rounds.macro.coupling_version > 0
        assert len(app_after_rounds.cg2cont.reports) > 0

    def test_aa_to_cg_feedback_applied(self, app_after_rounds):
        assert app_after_rounds.forcefield.version > 0
        assert len(app_after_rounds.aa2cg.reports) > 0

    def test_processed_data_tagged_out_of_live_namespaces(self, app_after_rounds):
        store = app_after_rounds.store
        assert len(store.keys("rdf/done/")) > 0
        assert len(store.keys("ss/done/")) > 0

    def test_patches_persisted(self, app_after_rounds):
        assert len(app_after_rounds.store.keys("patches/")) > 0


class TestBackendSwap:
    @pytest.mark.parametrize("scheme", ["kv://2", "fs", "taridx"])
    def test_same_pipeline_any_backend(self, scheme, tmp_path):
        url = scheme if scheme.startswith("kv") else f"{scheme}://{tmp_path}/store"
        app = build_application(
            store_url=url,
            workflow=WorkflowConfig(beads_per_type=6, cg_chunks_per_job=1,
                                    cg_steps_per_chunk=5, aa_chunks_per_job=1,
                                    aa_steps_per_chunk=5, seed=0),
            seed=0,
        )
        counters = app.run(nrounds=2)
        assert counters["cg_finished"] > 0
        app.store.close()


class TestEncoderPretraining:
    def test_pretrained_encoder_builds_and_runs(self):
        app = build_application(
            pretrain_encoder=True,
            workflow=WorkflowConfig(beads_per_type=6, cg_chunks_per_job=1,
                                    cg_steps_per_chunk=5, seed=1),
            seed=1,
        )
        counters = app.run(nrounds=1)
        assert counters["patches"] > 0

    def test_encoder_maps_patches_to_9d(self):
        app = build_application(seed=2)
        app.wm.task1_process_macro()
        pts = app.wm.patch_selector.queues["ras"].points() + \
            app.wm.patch_selector.queues["ras-raf"].points()
        assert all(p.dim == 9 for p in pts)


class TestClose:
    def test_close_stops_the_default_pool(self):
        # With no adapter given, the WM builds and owns its pool, so
        # close() must leave no worker thread behind.
        before = set(threading.enumerate())
        app = build_application(store_url="kv://2", seed=1)
        app.wm.run(1)
        assert set(threading.enumerate()) - before, "no pool thread started?"
        app.wm.close()
        assert [t.name for t in set(threading.enumerate()) - before] == []
