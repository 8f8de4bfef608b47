"""Assemble the complete three-scale RAS-RAF application.

One call to :func:`build_application` wires every piece the paper's
Figure 2 shows: the continuum simulation, the ML patch encoder, the
shared CG force field, a data store (any backend, one URL), the
Workflow Manager with its four job trackers, and both feedback loops.
This is the function the examples and integration tests drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.app.feedback import AAToCGFeedback, CGToContinuumFeedback
from repro.core.patches import PatchCreator
from repro.core.wm import WorkflowConfig, WorkflowManager
from repro.datastore import open_store
from repro.datastore.base import DataStore
from repro.ml.encoder import PatchEncoder, train_metric_encoder
from repro.sched.adapter import SchedulerAdapter
from repro.sims.cg.forcefield import CGForceField, martini_like
from repro.sims.continuum.ddft import ContinuumConfig, ContinuumSim

__all__ = ["Application", "build_application"]


@dataclass
class Application:
    """A fully wired three-scale workflow, ready to run rounds."""

    wm: WorkflowManager
    macro: ContinuumSim
    encoder: PatchEncoder
    forcefield: CGForceField
    store: DataStore
    cg2cont: CGToContinuumFeedback
    aa2cg: AAToCGFeedback

    def run(self, nrounds: int, advance_us: float = 1.0) -> dict:
        """Run coordination rounds; returns the WM counters."""
        return self.wm.run(nrounds, advance_us=advance_us)


def build_application(
    store_url: str = "kv://4",
    grid: int = 16,
    n_lipid_types: int = 2,
    n_proteins: int = 3,
    patch_grid: int = 9,
    pretrain_encoder: bool = False,
    workflow: Optional[WorkflowConfig] = None,
    adapter: Optional[SchedulerAdapter] = None,
    seed: int = 0,
    store: Optional[DataStore] = None,
) -> Application:
    """Build the laptop-scale three-scale application.

    Parameters mirror the deployment knobs a user actually turns: store
    backend (one URL — §4.2's configuration switch), continuum size,
    lipid complexity, and whether to metric-train the patch encoder on
    an initial batch of patches before the campaign starts.

    ``store`` accepts an already-open :class:`DataStore` instead of a
    URL — the control plane passes each campaign a per-tenant
    :class:`~repro.datastore.namespaced.NamespacedStore` view over one
    shared backend this way. When given, ``store_url`` is ignored.
    """
    rng = np.random.default_rng(seed)
    macro = ContinuumSim(
        ContinuumConfig(
            grid=grid,
            n_inner=n_lipid_types,
            n_outer=n_lipid_types,
            n_proteins=n_proteins,
            dt=0.25 if grid <= 24 else 0.05,
            seed=seed,
        )
    )
    store = store if store is not None else open_store(store_url)
    encoder = PatchEncoder(
        input_dim=n_lipid_types * patch_grid**2,
        latent_dim=9,
        hidden=(64, 32),
        rng=np.random.default_rng(seed + 1),
    )
    forcefield = martini_like(n_lipid_types=n_lipid_types, seed=seed)
    patch_creator = PatchCreator(patch_grid=patch_grid, store=store)

    if pretrain_encoder:
        # Metric-train on an initial crop of patches from a short
        # continuum burn-in (self-supervised; no labels exist).
        burn = ContinuumSim(macro.config)
        flats = []
        for _ in range(4):
            burn.step(max(1, int(1.0 / burn.config.dt)))
            flats.extend(p.flat() for p in PatchCreator(patch_grid=patch_grid).create(burn.snapshot()))
        train_metric_encoder(encoder, np.stack(flats), epochs=60,
                             rng=np.random.default_rng(seed + 2))

    cg2cont = CGToContinuumFeedback(store, macro)
    aa2cg = AAToCGFeedback(store, forcefield)
    wm = WorkflowManager(
        macro=macro,
        encoder=encoder,
        forcefield=forcefield,
        store=store,
        adapter=adapter,
        config=workflow or WorkflowConfig(beads_per_type=10, seed=seed),
        patch_creator=patch_creator,
        feedback_managers=[cg2cont, aa2cg],
    )
    return Application(
        wm=wm,
        macro=macro,
        encoder=encoder,
        forcefield=forcefield,
        store=store,
        cg2cont=cg2cont,
        aa2cg=aa2cg,
    )
