"""Regression tests: WM restore side tables.

``checkpoint()`` used to save the selectors (with their queued candidate
ids) but not the ``_patch_by_id`` / ``_frame_by_id`` / ``_frame_systems``
side tables those ids resolve against, so the first selection after
``restore()`` raised KeyError in the round driver.
"""

import numpy as np

from repro.chaos.harness import ChaosAdapter
from repro.core.patches import PatchCreator
from repro.core.wm import WorkflowConfig, WorkflowManager
from repro.datastore import open_store
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

    def test_stalled_run_then_checkpoint_strands_nothing(self):
        # A stalled pool leaves jobs in flight across rounds. A
        # checkpoint taken then used to snapshot while setup jobs were
        # still in flight, stranding their patches (popped from the
        # selector, present in no side table) and dropping the prepared
        # ready buffers on restore.
        adapter = ChaosAdapter()
        adapter.stalled = True
        wm, store = make_wm(adapter=adapter, cg_ready_target=4, max_cg_sims=1)
        wm.run(nrounds=2)
        assert adapter.pending() > 0
        wm.checkpoint()
        # checkpoint() quiesced: nothing is in flight afterwards.
        assert adapter.pending() == 0
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
