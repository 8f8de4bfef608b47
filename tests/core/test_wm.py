"""Tests for the Workflow Manager driving real (tiny) simulations."""

import numpy as np
import pytest

from repro.core.patches import PatchCreator
from repro.core.wm import WorkflowConfig, WorkflowManager
from repro.datastore import open_store
from repro.datastore.netkv import key_slot
from repro.ml.encoder import PatchEncoder
from repro.sched.adapter import ThreadAdapter
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
        adapter=adapter if adapter is not None else ThreadAdapter(max_workers=1),
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
