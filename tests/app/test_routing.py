"""Tests for patch-queue routing (two- and five-queue layouts)."""

import numpy as np
import pytest

from repro.app.routing import FIVE_QUEUES, TWO_QUEUES, five_queue_router, state_router
from repro.core.patches import Patch, PatchCreator
from repro.sims.continuum import ContinuumConfig, ContinuumSim


def make_patch(state=0, neighbors=0):
    return Patch(
        patch_id="p", time_us=0.0, center=np.zeros(2),
        densities=np.ones((1, 3, 3)), protein_state=state, box_nm=30.0,
        n_neighbors=neighbors,
    )


class TestRouters:
    def test_state_router(self):
        assert state_router(make_patch(state=0)) == "ras"
        assert state_router(make_patch(state=1)) == "ras-raf"
        assert set(TWO_QUEUES) == {"ras", "ras-raf"}

    @pytest.mark.parametrize("state,neighbors,expected", [
        (0, 0, "ras-isolated"),
        (0, 1, "ras-paired"),
        (0, 2, "ras-crowded"),
        (0, 5, "ras-crowded"),
        (1, 0, "ras-raf-isolated"),
        (1, 3, "ras-raf-crowded"),
    ])
    def test_five_queue_router(self, state, neighbors, expected):
        assert five_queue_router(make_patch(state, neighbors)) == expected

    def test_router_outputs_are_declared_queues(self):
        for state in (0, 1):
            for n in range(6):
                assert five_queue_router(make_patch(state, n)) in FIVE_QUEUES


class TestNeighborCounting:
    def test_isolated_proteins_have_zero_neighbors(self):
        sim = ContinuumSim(ContinuumConfig(grid=32, n_inner=1, n_outer=1,
                                           n_proteins=2, dt=0.05, seed=0))
        # Pin the two proteins far apart.
        sim.proteins.positions[:] = [[0.1, 0.1], [0.7, 0.7]]
        patches = PatchCreator(patch_grid=9).create(sim.snapshot())
        assert [p.n_neighbors for p in patches] == [0, 0]

    def test_adjacent_proteins_count_each_other(self):
        sim = ContinuumSim(ContinuumConfig(grid=32, n_inner=1, n_outer=1,
                                           n_proteins=3, dt=0.05, seed=0))
        sim.proteins.positions[:] = [[0.5, 0.5], [0.52, 0.5], [0.9, 0.9]]
        patches = PatchCreator(patch_grid=9, patch_nm=30.0).create(sim.snapshot())
        # 0.02 µm = 20 nm <= 30 nm patch extent: the first two see each other.
        assert patches[0].n_neighbors == 1
        assert patches[1].n_neighbors == 1
        assert patches[2].n_neighbors == 0

    def test_periodic_neighbor_counting(self):
        sim = ContinuumSim(ContinuumConfig(grid=32, n_inner=1, n_outer=1,
                                           n_proteins=2, dt=0.05, seed=0))
        sim.proteins.positions[:] = [[0.005, 0.5], [0.995, 0.5]]  # across the seam
        patches = PatchCreator(patch_grid=9).create(sim.snapshot())
        assert patches[0].n_neighbors == 1

    def test_patch_bytes_roundtrip_keeps_neighbors(self):
        p = make_patch(state=1, neighbors=3)
        back = Patch.from_bytes(p.to_bytes())
        assert back.n_neighbors == 3


class TestFiveQueueWorkflow:
    def test_wm_runs_with_five_queues(self):
        from repro.core.wm import WorkflowConfig, WorkflowManager
        from repro.datastore import open_store
        from repro.ml.encoder import PatchEncoder

        from repro.sims.cg.forcefield import martini_like

        macro = ContinuumSim(ContinuumConfig(grid=16, n_inner=2, n_outer=2,
                                             n_proteins=6, dt=0.25, seed=1))
        wm = WorkflowManager(
            macro=macro,
            encoder=PatchEncoder(input_dim=2 * 81, latent_dim=9, hidden=(16,),
                                 rng=np.random.default_rng(0)),
            forcefield=martini_like(2),
            store=open_store("kv://2"),
            config=WorkflowConfig(beads_per_type=6, cg_chunks_per_job=1,
                                  cg_steps_per_chunk=5, seed=1),
            patch_creator=PatchCreator(patch_grid=9),
            patch_queues=FIVE_QUEUES,
            queue_router=five_queue_router,
        )
        wm.task1_process_macro()
        sizes = wm.patch_selector.queue_sizes()
        assert set(sizes) == set(FIVE_QUEUES)
        assert sum(sizes.values()) == 6

    def test_router_without_queues_rejected(self):
        from repro.core.wm import WorkflowManager
        from repro.datastore import open_store
        from repro.ml.encoder import PatchEncoder
        from repro.sims.cg.forcefield import martini_like

        macro = ContinuumSim(ContinuumConfig(grid=16, n_inner=2, n_outer=2,
                                             n_proteins=2, dt=0.25, seed=0))
        with pytest.raises(ValueError, match="patch_queues"):
            WorkflowManager(
                macro=macro,
                encoder=PatchEncoder(input_dim=2 * 81, hidden=(8,)),
                forcefield=martini_like(2),
                store=open_store("kv://1"),
                queue_router=five_queue_router,
            )
