"""Tests for the Workflow Manager driving real (tiny) simulations."""

import numpy as np
import pytest

from repro.app import build_application
from repro.core.patches import PatchCreator
from repro.core import wm as wm_module
from repro.core.wm import WorkflowConfig, WorkflowManager
from repro.datastore import open_store
from repro.datastore.netkv import key_slot
from repro.ml.encoder import PatchEncoder
from repro.sched.shares import FairShareAdapter
from repro.sims.cg.forcefield import martini_like
from repro.sims.continuum import ContinuumConfig, ContinuumSim


def make_wm(store=None, adapter=None, **cfg_kwargs):
    macro = ContinuumSim(ContinuumConfig(grid=16, n_inner=2, n_outer=2,
                                         n_proteins=3, dt=0.25, seed=0))
    store = store if store is not None else open_store("kv://2")
    encoder = PatchEncoder(input_dim=2 * 81, latent_dim=9, hidden=(16,),
                           rng=np.random.default_rng(0))
    ff = martini_like(n_lipid_types=2, seed=0)
    config = WorkflowConfig(beads_per_type=10, cg_chunks_per_job=2,
                            cg_steps_per_chunk=10, aa_chunks_per_job=1,
                            aa_steps_per_chunk=10, seed=0, **cfg_kwargs)
    wm = WorkflowManager(
        macro=macro,
        encoder=encoder,
        forcefield=ff,
        store=store,
        adapter=(adapter if adapter is not None
                 else FairShareAdapter(max_workers=1).view("test")),
        config=config,
        patch_creator=PatchCreator(patch_grid=9, store=store),
    )
    return wm, store


class TestTask1:
    def test_processes_macro_into_candidates(self):
        wm, _ = make_wm()
        n = wm.task1_process_macro(advance_us=1.0)
        assert n == 3  # one patch per protein
        assert wm.counters["snapshots"] == 1
        assert wm.counters["patches"] == 3
        assert wm.patch_selector.ncandidates() == 3

    def test_patches_routed_by_protein_state(self):
        wm, _ = make_wm()
        wm.task1_process_macro()
        sizes = wm.patch_selector.queue_sizes()
        assert sum(sizes.values()) == 3
        assert set(sizes) == {"ras", "ras-raf"}

    def test_patches_persisted(self):
        wm, store = make_wm()
        wm.task1_process_macro()
        assert len(store.keys("patches/")) == 3


class TestFeedbackKeys:
    def test_live_keys_share_a_slot_with_their_done_names(self):
        # Live feedback keys carry a hash tag, so tagging one (moving it
        # to its done name) stays within one slot: a native rename.
        wm, store = make_wm()
        wm.run(nrounds=3)
        keys = store.keys("rdf/") + store.keys("ss/")
        assert {k.split("/")[0] for k in keys} == {"rdf", "ss"}
        for key in keys:
            live = key.replace("/done/", "/live/", 1)
            done = live.replace("/live/", "/done/", 1)
            assert live.endswith("}") and "/{" in live
            assert key_slot(live) == key_slot(done)


class TestFullRounds:
    def test_one_round_runs_the_whole_pipeline(self):
        wm, store = make_wm()
        wm.round(advance_us=1.0)
        c = wm.counters
        assert c["patches_selected"] > 0
        assert c["cg_spawned"] > 0
        assert c["cg_finished"] > 0
        assert c["frames_seen"] > 0
        # RDFs streamed into the live namespace by CG analysis jobs.
        assert len(store.keys("rdf/live/")) > 0

    def test_aa_scale_reached_within_rounds(self):
        wm, store = make_wm()
        wm.run(nrounds=3)
        c = wm.counters
        assert c["frames_selected"] > 0
        assert c["aa_spawned"] > 0
        assert c["aa_finished"] > 0
        assert len(store.keys("ss/live/")) > 0

    def test_counters_monotone_across_rounds(self):
        wm, _ = make_wm()
        first = dict(wm.round())
        second = dict(wm.round())
        for key in first:
            assert second[key] >= first[key]

    def test_buffers_respect_targets(self):
        wm, _ = make_wm(cg_ready_target=1, max_cg_sims=1)
        wm.round()
        assert len(wm.cg_ready) <= 1

    def test_trackers_have_four_job_types(self):
        wm, _ = make_wm()
        assert set(wm.trackers) == {"createsim", "cg-sim", "backmap", "aa-sim"}

    def test_selector_histories_populate(self):
        wm, _ = make_wm()
        wm.run(nrounds=2)
        assert len(wm.patch_selector.history) > 0


class TestCheckpoint:
    def test_checkpoint_restore_roundtrip(self):
        wm, store = make_wm()
        wm.run(nrounds=2)
        wm.checkpoint()
        counters = dict(wm.counters)
        rounds = wm.rounds

        wm2, _ = make_wm(store=store)
        payload = wm2.restore()
        assert wm2.rounds == rounds
        assert wm2.counters == counters
        assert payload["macro_time_us"] > 0

    def test_checkpoint_restores_selector_state(self):
        wm, store = make_wm()
        wm.run(nrounds=2)
        wm.checkpoint()
        candidates_before = wm.patch_selector.ncandidates()
        selected_before = wm.patch_selector.nselected()

        wm2, _ = make_wm(store=store)
        wm2.restore()
        assert wm2.patch_selector.ncandidates() == candidates_before
        assert wm2.patch_selector.nselected() == selected_before
        assert wm2.frame_selector.ncandidates() == wm.frame_selector.ncandidates()

    def test_checkpoint_records_feedback_versions(self):
        wm, store = make_wm()
        wm.round()
        wm.checkpoint()
        payload = store.read_json("wm/checkpoint")
        assert "coupling_version" in payload
        assert "ss_pattern" in payload


class TestLaunchSeeds:
    """Seeds are drawn on the WM thread when a job is launched, and job
    outputs are applied in launch order, so each job's seed is fixed by
    launch order, not by which worker runs first."""

    @staticmethod
    def seeds_by_id(monkeypatch, max_workers):
        seeds = {}

        def recording(fn, id_of):
            def record(*args, **kwargs):
                seeds[id_of(*args, **kwargs)] = kwargs["seed"]
                return fn(*args, **kwargs)
            return record

        pool = FairShareAdapter(max_workers=max_workers)
        with monkeypatch.context() as patch:
            patch.setattr(wm_module, "createsim", recording(
                wm_module.createsim, lambda *a, **k: k["patch_id"]))
            patch.setattr(wm_module, "backmap", recording(
                wm_module.backmap, lambda *a, **k: k["frame_id"]))
            try:
                wm, _ = make_wm(adapter=pool.view("test"), cg_ready_target=4,
                                max_cg_sims=4)
                for name in ("_run_cg_sim", "_run_aa_sim"):
                    run = recording(getattr(wm, name), lambda system, sim_id, **k: sim_id)
                    setattr(wm, name, lambda system, sim_id, seed, run=run: run(
                        system, sim_id, seed=seed))
                wm.task1_process_macro(advance_us=1.0)
                wm.task1_process_macro(advance_us=1.0)
                for launch in (wm._fill_cg_buffer, wm._spawn_cg_sims,
                               wm._fill_aa_buffer, wm._spawn_aa_sims):
                    assert launch() > 0
                    wm.adapter.wait_all(timeout=60)
                    wm._apply_settled()
            finally:
                pool.shutdown()
        return seeds

    def test_same_seed_per_job_for_one_or_two_workers(self, monkeypatch):
        serial = self.seeds_by_id(monkeypatch, max_workers=1)
        assert self.seeds_by_id(monkeypatch, max_workers=2) == serial
        assert len(serial) == len(set(serial.values()))
        assert [key[:2] for key in sorted(serial)] == ["aa", "cg", "cg", "cg", "cg", "cg",
                                                       "s0", "s0", "s0", "s0"]


class TestSameSeedSameRun:
    """Job outputs are applied at the barrier in launch order, so a run
    is fixed by its seed, not by the pool's size."""

    @staticmethod
    def outputs(max_workers):
        pool = FairShareAdapter(max_workers=max_workers)
        try:
            app = build_application(
                store_url="kv://2", grid=12, adapter=pool.view("test"), seed=3,
                workflow=WorkflowConfig(beads_per_type=6, cg_chunks_per_job=2,
                                        cg_steps_per_chunk=8, aa_chunks_per_job=1,
                                        aa_steps_per_chunk=8, seed=3))
            counters = app.run(nrounds=3)
            return {
                "counters": counters,
                "ss_pattern": app.forcefield.ss_pattern,
                "coupling_version": app.macro.coupling_version,
                "couplings": app.macro.g_inner.tobytes() + app.macro.g_outer.tobytes(),
                "frames": app.wm.frame_selector.history_rows(),
                "patches": app.wm.patch_selector.history_rows(),
            }
        finally:
            pool.shutdown()

    def test_one_and_four_workers_agree(self):
        serial = self.outputs(max_workers=1)
        assert self.outputs(max_workers=4) == serial
        assert serial["counters"]["aa_finished"] > 0

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_fill_cg_buffer_launches_up_to_the_target(self, max_workers):
        # Job bodies run ungated; one that finishes inside the launch
        # loop must not end it early (its output is not applied yet).
        pool = FairShareAdapter(max_workers=max_workers)
        try:
            wm, _ = make_wm(adapter=pool.view("test"), cg_ready_target=4)
            wm.task1_process_macro()
            wm.task1_process_macro()
            assert wm._fill_cg_buffer() == 4 - len(wm.cg_ready)
            wm.adapter.wait_all(timeout=60)
            assert wm._fill_cg_buffer() == 0  # settled, not yet applied
            wm._apply_settled()
            assert len(wm.cg_ready) == 4
        finally:
            pool.shutdown()


class TestRetriedJobs:
    """A failed job is re-run with its body up to ``max_retries``; the WM
    applies the final output, or nothing once the tag is abandoned."""

    @staticmethod
    def fill(monkeypatch, failures):
        calls = {}
        real = wm_module.createsim

        def flaky(*args, **kwargs):
            n = calls[kwargs["patch_id"]] = calls.get(kwargs["patch_id"], 0) + 1
            if n <= failures:
                raise RuntimeError("node lost")
            return real(*args, **kwargs)

        monkeypatch.setattr(wm_module, "createsim", flaky)
        wm, _ = make_wm(cg_ready_target=2)
        try:
            wm.task1_process_macro()
            assert wm._fill_cg_buffer() == 2
            wm.adapter.wait_all(timeout=60)
            wm._apply_settled()
        finally:
            wm.close()
        return wm, calls

    def test_final_output_of_a_retried_job_is_applied(self, monkeypatch):
        wm, calls = self.fill(monkeypatch, failures=1)
        assert sorted(calls.values()) == [2, 2]
        assert sorted(s.source_patch for s in wm.cg_ready) == sorted(calls)

    def test_abandoned_job_applies_nothing(self, monkeypatch):
        wm, calls = self.fill(monkeypatch, failures=3)  # max_retries is 2
        assert sorted(calls.values()) == [3, 3]
        assert wm.cg_ready == []
        assert sorted(wm.trackers["createsim"].abandoned) == sorted(calls)
        assert wm._unapplied("createsim") == 0
