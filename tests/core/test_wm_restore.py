"""Regression tests: WM restore side tables and counter thread safety.

Two coordination-layer bugs used to live here:

- ``checkpoint()`` saved the selectors (with their queued candidate
  ids) but not the ``_patch_by_id`` / ``_frame_by_id`` /
  ``_frame_systems`` side tables those ids resolve against, so the
  first selection after ``restore()`` raised KeyError in the round
  driver.
- job bodies run in adapter worker threads and incremented
  ``wm.counters`` without synchronization against the round driver's
  own updates, so counts could be lost under contention.
"""

import threading

import numpy as np

from repro.core.patches import PatchCreator
from repro.core.wm import WorkflowConfig, WorkflowManager
from repro.datastore import open_store
from repro.ml.encoder import PatchEncoder
from repro.sched.adapter import ThreadAdapter
from repro.sched.jobspec import JobSpec
from repro.sims.cg.forcefield import martini_like
from repro.sims.continuum import ContinuumConfig, ContinuumSim


def make_wm(store=None, max_workers=1, **cfg_kwargs):
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
        adapter=ThreadAdapter(max_workers=max_workers),
        config=config,
        patch_creator=PatchCreator(patch_grid=9, store=store),
    )
    return wm, store


class TestRestoreSideTables:
    def test_restored_wm_selects_pending_candidates_without_crashing(self):
        wm, store = make_wm()
        wm.run(nrounds=2)
        # The regression needs queued candidates at checkpoint time —
        # ids the restored WM will have to resolve into jobs.
        assert wm.patch_selector.ncandidates() > 0
        assert wm.frame_selector.ncandidates() > 0
        wm.checkpoint()
        before = wm.counters_snapshot()

        wm2, _ = make_wm(store=store)
        wm2.restore()
        assert set(wm2._patch_by_id) >= wm2.patch_selector.candidate_ids()
        assert set(wm2._frame_systems) >= wm2.frame_selector.candidate_ids()
        # Used to KeyError in _fill_cg_buffer / _fill_aa_buffer.
        wm2.run(nrounds=2)
        after = wm2.counters_snapshot()
        assert after["patches_selected"] > before["patches_selected"]
        assert after["frames_selected"] >= before["frames_selected"]

    def test_restore_prunes_candidates_without_side_table_entries(self):
        wm, store = make_wm()
        wm.run(nrounds=2)
        assert wm.patch_selector.ncandidates() > 0
        wm.checkpoint()
        # Simulate a checkpoint written before side tables existed.
        store.delete_many(store.keys("wm/checkpoint/patch-table/"))
        store.delete_many(store.keys("wm/checkpoint/frame-table/"))
        store.delete("wm/checkpoint/frame-candidates")

        wm2, _ = make_wm(store=store)
        wm2.restore()
        assert wm2.patch_selector.ncandidates() == 0
        assert wm2.frame_selector.ncandidates() == 0
        assert wm2._frame_by_id == {}
        wm2.run(nrounds=1)  # pipeline keeps working from scratch

    def test_checkpoint_drops_stale_side_table_entries(self):
        wm, store = make_wm()
        wm.run(nrounds=1)
        wm.checkpoint()
        wm.run(nrounds=1)  # selects some of the checkpointed candidates
        wm.checkpoint()
        live = {k.rsplit("/", 1)[1]
                for k in store.keys("wm/checkpoint/patch-table/")}
        assert live == set(wm._patch_by_id)

    def test_wait_false_run_then_checkpoint_strands_nothing(self):
        # Production mode: jobs overlap rounds. A checkpoint taken right
        # after run(wait=False) used to snapshot while setup jobs were
        # still in flight, stranding their patches (popped from the
        # selector, present in no side table) and dropping the prepared
        # ready buffers on restore. A ready target above the sim-slot
        # count guarantees the buffer is non-empty at quiesce regardless
        # of worker timing (with target == slots the sims can legally
        # drain it, which made this test flaky).
        wm, store = make_wm(max_workers=2, cg_ready_target=4, max_cg_sims=1)
        wm.run(nrounds=2, wait=False)
        wm.checkpoint()
        # checkpoint() quiesced: nothing is in flight afterwards.
        assert all(t.nactive() == 0 for t in wm.trackers.values())
        after = wm.counters_snapshot()
        assert len(wm.cg_ready) + len(wm.aa_ready) > 0

        wm2, _ = make_wm(store=store)
        wm2.restore()
        assert wm2.counters_snapshot() == after
        # The prepared systems survived the restart instead of being
        # silently re-simulated (or lost) by the restored WM.
        assert len(wm2.cg_ready) == len(wm.cg_ready)
        assert len(wm2.aa_ready) == len(wm.aa_ready)
        wm2.run(nrounds=1)
        assert wm2.counters_snapshot()["cg_spawned"] >= after["cg_spawned"]

    def test_counters_roundtrip_through_checkpoint(self):
        wm, store = make_wm()
        wm.run(nrounds=2)
        wm.checkpoint()
        wm2, _ = make_wm(store=store)
        wm2.restore()
        assert wm2.counters_snapshot() == wm.counters_snapshot()


class TestRestoreResumesPatchIds:
    def test_patch_ids_minted_after_restore_never_repeat(self):
        # Patch ids number snapshots. A restored WM used to restart the
        # numbering at 0 and re-mint ids that selected and queued
        # patches already carry; a later restore then pruned the live
        # candidate whose side-table entry the duplicate replaced.
        wm, store = make_wm()
        wm.run(nrounds=2)
        wm.checkpoint()
        before = {k[len("patches/"):] for k in store.keys("patches/")}
        assert before

        wm2, _ = make_wm(store=store)
        wm2.restore()
        minted = []
        create = wm2.patch_creator.create

        def recording(snapshot):
            patches = create(snapshot)
            minted.extend(p.patch_id for p in patches)
            return patches

        wm2.patch_creator.create = recording
        wm2.run(nrounds=2)
        assert minted
        assert not set(minted) & before


class TestCounterThreadSafety:
    def test_every_pipeline_mutation_holds_the_counters_lock(self):
        wm, _ = make_wm(max_workers=4)

        class GuardedDict(dict):
            def __init__(self, data, lock):
                super().__init__(data)
                self.lock = lock
                self.violations = 0

            def __setitem__(self, key, value):
                if not self.lock.locked():
                    self.violations += 1
                super().__setitem__(key, value)

        wm.counters = GuardedDict(wm.counters, wm._counters_lock)
        wm.run(nrounds=2)  # job bodies bump counters from worker threads
        assert wm.counters["cg_finished"] > 0
        assert wm.counters.violations == 0

    def test_concurrent_bumps_via_thread_adapter_lose_nothing(self):
        wm, _ = make_wm()
        adapter = ThreadAdapter(max_workers=8)
        njobs, per_job = 8, 5000
        barrier = threading.Barrier(njobs)

        def body():
            barrier.wait()  # maximize interleaving
            for _ in range(per_job):
                wm._bump("cg_finished")

        for _ in range(njobs):
            adapter.submit(JobSpec(name="bump", ncores=1), fn=body)
        adapter.wait_all()
        adapter.shutdown()
        assert wm.counters_snapshot()["cg_finished"] == njobs * per_job
