"""The CG Langevin engine (our ddcMD).

Brownian (overdamped Langevin) dynamics of Martini-like beads in a
periodic 2-D membrane plane::

    x += mobility * F(x) * dt + sqrt(2 * D * dt) * xi

Non-bonded forces come from the force field's soft-core pair potential
over a periodic Verlet neighbour list kept across steps, its pairs in
sorted (i < j) order so that the summation order does not depend on
how they were found; protein beads are chained by harmonic bonds whose
stiffness tracks the secondary-structure pattern — the parameter AA→CG
feedback refines mid-campaign via :meth:`CGSim.apply_feedback`. Pairs
and bonds share one fused force pass (:mod:`repro.sims.pairwise`); the
tests keep the separate passes, with a fresh tree, brute-force or
linked-cell pair search per step, as oracles (``tests/sims/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sims.cg.forcefield import CGForceField
from repro.sims.cg.forcefield import martini_like
from repro.sims.pairwise import NeighbourList, bond_table

__all__ = ["CGConfig", "CGSim"]


@dataclass(frozen=True)
class CGConfig:
    """Size and numerics of one CG simulation."""

    box: float = 12.0
    """Periodic box side (reduced units ~ nm; paper patches are 30 nm)."""

    n_lipids: int = 300
    """Lipid beads (the paper's systems average ~140k particles; tests
    use hundreds — the workflow does not care)."""

    dt: float = 1e-4
    """Time step (reduced time units; one unit ≈ 1 ns of CG time)."""

    temperature: float = 1.0
    mobility: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.box <= 0 or self.dt <= 0 or self.n_lipids < 1:
            raise ValueError("box, dt positive and n_lipids >= 1 required")


class CGSim:
    """One coarse-grained simulation instance.

    Positions/types may come from :func:`repro.sims.mapping.createsim`
    (the production path) or be synthesized by :meth:`random_system`.
    """

    def __init__(
        self,
        positions: np.ndarray,
        type_ids: np.ndarray,
        forcefield: CGForceField,
        config: Optional[CGConfig] = None,
        bonds: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config or CGConfig()
        self.ff = forcefield
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if positions.shape[1] != 2:
            raise ValueError("positions must be (n, 2)")
        self.positions = positions % self.config.box
        self.type_ids = np.asarray(type_ids, dtype=np.int64)
        if self.type_ids.shape != (positions.shape[0],):
            raise ValueError("type_ids must match positions")
        # bonds: (m, 3) rows of (i, j, rest_length); stiffness per row set
        # from the force field's SS pattern (cycled if shorter).
        self.bonds = (
            np.empty((0, 3)) if bonds is None else np.asarray(bonds, dtype=np.float64)
        )
        self.rng = np.random.default_rng(self.config.seed)
        self.time = 0.0
        self.step_count = 0
        self._refresh_bond_stiffness()
        self._refresh_bond_tables()

    def _refresh_bond_tables(self) -> None:
        """Cache the bond ends and start a neighbour list over them, which
        excludes bonded pairs from non-bonded interactions (standard MD
        exclusions; bonds alone set their geometry)."""
        self._bond_ends, self._bond_r0 = bond_table(self.bonds)
        self.nlist = NeighbourList(self._bond_ends, exclude_bonded=True)
        self._pairs_build = 0  # nlist build the pair tables below are for

    # --- construction helpers ------------------------------------------------

    @classmethod
    def random_system(
        cls,
        forcefield: Optional[CGForceField] = None,
        config: Optional[CGConfig] = None,
        n_protein_beads: int = 6,
    ) -> "CGSim":
        """A lipid bath plus one RAS-RAF protein chain in the middle."""
        ff = forcefield or martini_like()
        cfg = config or CGConfig()
        rng = np.random.default_rng(cfg.seed)
        lipid_names = ff.lipid_type_names()
        lipid_pos = rng.random((cfg.n_lipids, 2)) * cfg.box
        lipid_types = rng.integers(0, len(lipid_names), size=cfg.n_lipids)
        # Protein chain: half RAS beads, half RAF, spaced at ~0.5 units.
        prot_pos = np.empty((n_protein_beads, 2))
        center = np.array([cfg.box / 2, cfg.box / 2])
        for k in range(n_protein_beads):
            prot_pos[k] = center + np.array([0.45 * k, 0.0])
        ras_id = ff.index_of("RAS")
        raf_id = ff.index_of("RAF")
        half = n_protein_beads // 2
        prot_types = np.array([ras_id] * half + [raf_id] * (n_protein_beads - half))
        positions = np.vstack([lipid_pos, prot_pos])
        type_ids = np.concatenate([lipid_types, prot_types])
        # Chain bonds between consecutive protein beads.
        first = cfg.n_lipids
        bonds = np.array(
            [[first + k, first + k + 1, 0.45] for k in range(n_protein_beads - 1)]
        )
        return cls(positions, type_ids, ff, cfg, bonds=bonds)

    # --- feedback interface ------------------------------------------------------

    def apply_feedback(self, ss_pattern: str) -> None:
        """AA→CG feedback: refine bonded parameters from a new SS string."""
        self.ff.update_secondary_structure(ss_pattern)
        self._refresh_bond_stiffness()

    def _refresh_bond_stiffness(self) -> None:
        nb = self.bonds.shape[0]
        if nb == 0:
            self._bond_k = np.empty(0)
            return
        per_segment = self.ff.bond_stiffness()
        if per_segment.size == 0:
            self._bond_k = np.full(nb, 10.0)
        else:
            self._bond_k = per_segment[np.arange(nb) % per_segment.size].astype(float)

    # --- forces ----------------------------------------------------------------

    def _min_image(self, d: np.ndarray) -> np.ndarray:
        box = self.config.box
        return d - box * np.rint(d / box)

    def forces(self) -> Tuple[np.ndarray, float]:
        """Total forces (n, 2) and potential energy."""
        return self._forces(with_energy=True)

    def _pair_tables(self, nl: NeighbourList) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Type ids and well depths ``eps[ti, tj]`` of the list's pair
        rows, gathered once per build."""
        if self._pairs_build != nl.builds:
            ti, tj = self.type_ids[nl.ii], self.type_ids[nl.jj]
            self._pair_ti, self._pair_tj, self._pair_eps = ti, tj, self.ff.eps[ti, tj]
            self._pairs_build = nl.builds
        return self._pair_ti, self._pair_tj, self._pair_eps

    def _forces(self, with_energy: bool) -> Tuple[np.ndarray, Optional[float]]:
        box, rc = self.config.box, self.ff.cutoff
        nl = self.nlist.update(self.positions, box, rc)
        d, r = nl.separations(self.positions, box)
        ti, tj, e_att = self._pair_tables(nl)
        rp = r[:nl.npair]
        stretch = r[nl.npair:] - self._bond_r0
        k = self._bond_k
        # The pair force is exactly +0.0 for candidates beyond the cutoff.
        fmag = np.concatenate([self.ff.pair_force_eps(rp, e_att), -k * stretch])
        F = nl.scatter((fmag / r)[:, None] * d)
        if not with_energy:
            return F, None
        inside = rp < rc
        energy = 0.0
        if inside.any():
            energy += float(self.ff.pair_energy(rp[inside], ti[inside], tj[inside]).sum())
        if stretch.size:
            energy += float(np.sum(0.5 * k * stretch**2))
        return F, energy

    # --- integration -----------------------------------------------------------

    def step(self, nsteps: int = 1) -> None:
        """``nsteps`` Langevin steps. At zero temperature the noise would
        be exactly ±0.0, so no noise is drawn (createsim's relaxation)."""
        c = self.config
        sigma = np.sqrt(2.0 * c.mobility * c.temperature * c.dt)
        for _ in range(nsteps):
            F, _ = self._forces(with_energy=False)
            moved = self.positions + c.mobility * F * c.dt
            if c.temperature != 0.0:
                moved += self.rng.standard_normal(self.positions.shape) * sigma
            self.positions = moved % c.box
            self.time += c.dt
            self.step_count += 1

    # --- views used by analysis ----------------------------------------------

    def protein_mask(self) -> np.ndarray:
        prot_ids = [self.ff.index_of(nm) for nm in self.ff.protein_type_names()]
        return np.isin(self.type_ids, prot_ids)

    # --- checkpointing (§4.4: all simulations checkpoint themselves) -----------

    def state_dict(self) -> Dict:
        return {
            "positions": self.positions.copy(),
            "type_ids": self.type_ids.copy(),
            "bonds": self.bonds.copy(),
            "time": self.time,
            "step_count": self.step_count,
            "rng_state": self.rng.bit_generator.state,
            "ss_pattern": self.ff.ss_pattern,
        }

    def load_state_dict(self, state: Dict) -> None:
        if state["positions"].shape != self.positions.shape:
            raise ValueError("checkpoint shape mismatch")
        self.positions = state["positions"].copy()
        self.type_ids = state["type_ids"].copy()
        self.bonds = state["bonds"].copy()
        self.time = float(state["time"])
        self.step_count = int(state["step_count"])
        self.rng.bit_generator.state = state["rng_state"]
        self.ff.update_secondary_structure(state["ss_pattern"])
        self._refresh_bond_stiffness()
        self._refresh_bond_tables()
