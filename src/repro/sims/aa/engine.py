"""The all-atom Langevin engine (our AMBER).

Runs the atomistic systems produced by backmapping: many more, lighter
particles, stiffer bonds, a smaller time step. Interactions are a
purely repulsive soft core (excluded volume) plus harmonic bonds — the
refinement signal the workflow consumes is geometric (the backbone
secondary structure), not energetic, so the force field stays minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sims.pairwise import NeighbourList, bond_table

__all__ = ["AAConfig", "AASim"]


@dataclass(frozen=True)
class AAConfig:
    """Numerics for one AA simulation."""

    box: float = 12.0
    dt: float = 2e-5
    """Time step; ~5x smaller than CG, as atomistic bonds are stiff."""

    temperature: float = 1.0
    mobility: float = 0.5
    repulsion: float = 50.0
    cutoff: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.box <= 0 or self.dt <= 0 or self.cutoff <= 0:
            raise ValueError("box, dt, cutoff must be positive")


class AASim:
    """One atomistic simulation over a backmapped system.

    Parameters
    ----------
    positions:
        (n, 2) atom positions.
    bonds:
        (m, 3) rows of (i, j, rest_length); stiffness is uniform
        (``bond_k``) — atomistic bonds don't carry the SS dependence,
        they *produce* it.
    backbone:
        Indices of backbone atoms in chain order (used by the
        secondary-structure analysis).
    restrained:
        Optional (n,) bool mask of position-restrained atoms (the
        backmapping protocol runs "position-restrained MD").
    """

    def __init__(
        self,
        positions: np.ndarray,
        bonds: np.ndarray,
        backbone: np.ndarray,
        config: Optional[AAConfig] = None,
        bond_k: float = 200.0,
        restrained: Optional[np.ndarray] = None,
        restraint_k: float = 100.0,
    ) -> None:
        self.config = config or AAConfig()
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if positions.shape[1] != 2:
            raise ValueError("positions must be (n, 2)")
        self.positions = positions % self.config.box
        self.bonds = np.asarray(bonds, dtype=np.float64).reshape(-1, 3)
        self.backbone = np.asarray(backbone, dtype=np.int64)
        self.bond_k = float(bond_k)
        self.restrained = (
            np.zeros(positions.shape[0], dtype=bool) if restrained is None else restrained
        )
        self.restraint_k = float(restraint_k)
        self._restraint_anchor = self.positions.copy()
        self._bond_ends, self._bond_r0 = bond_table(self.bonds)
        self.nlist = NeighbourList(self._bond_ends, exclude_bonded=False)
        self.rng = np.random.default_rng(self.config.seed)
        self.time = 0.0
        self.step_count = 0

    @property
    def natoms(self) -> int:
        return self.positions.shape[0]

    def _min_image(self, d: np.ndarray) -> np.ndarray:
        box = self.config.box
        return d - box * np.rint(d / box)

    def forces(self) -> Tuple[np.ndarray, float]:
        return self._forces(with_energy=True)

    def _forces(self, with_energy: bool) -> Tuple[np.ndarray, Optional[float]]:
        c = self.config
        nl = self.nlist.update(self.positions, c.box, c.cutoff)
        d, r = nl.separations(self.positions, c.box)
        # Excluded volume: soft quadratic repulsion below cutoff; the
        # clamp makes candidates beyond it add exactly 0.0.
        x = np.maximum(1.0 - r[:nl.npair] / c.cutoff, 0.0)
        stretch = r[nl.npair:] - self._bond_r0
        fmag = np.concatenate([2.0 * c.repulsion * x / c.cutoff, -self.bond_k * stretch])
        F = nl.scatter((fmag / r)[:, None] * d)
        # Position restraints.
        any_restrained = self.restrained.any()
        if any_restrained:
            dr = self._min_image(self.positions - self._restraint_anchor)
            F -= self.restraint_k * dr * self.restrained[:, None]
        if not with_energy:
            return F, None
        inside = r[:nl.npair] < c.cutoff
        energy = 0.0
        if inside.any():
            energy += float(np.sum(c.repulsion * x[inside] ** 2))
        if stretch.size:
            energy += float(np.sum(0.5 * self.bond_k * stretch**2))
        if any_restrained:
            energy += float(
                np.sum(0.5 * self.restraint_k * np.einsum("ij,ij->i", dr, dr)[self.restrained])
            )
        return F, energy

    def minimize(self, nsteps: int = 50, step_size: float = 1e-4) -> float:
        """Steepest-descent energy minimization; returns the energy at the
        start of the last step."""
        energy = None
        for k in range(nsteps):
            F, energy = self._forces(with_energy=k == nsteps - 1)
            self.positions = (self.positions + step_size * F) % self.config.box
        return np.inf if energy is None else energy

    def step(self, nsteps: int = 1) -> None:
        c = self.config
        sigma = np.sqrt(2.0 * c.mobility * c.temperature * c.dt)
        for _ in range(nsteps):
            F, _ = self._forces(with_energy=False)
            noise = self.rng.standard_normal(self.positions.shape) * sigma
            self.positions = (self.positions + c.mobility * F * c.dt + noise) % c.box
            self.time += c.dt
            self.step_count += 1

    def release_restraints(self) -> None:
        """End of the restrained-MD phase: free production dynamics."""
        self.restrained = np.zeros(self.natoms, dtype=bool)

    def state_dict(self) -> Dict:
        return {
            "positions": self.positions.copy(),
            "time": self.time,
            "step_count": self.step_count,
            "rng_state": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: Dict) -> None:
        if state["positions"].shape != self.positions.shape:
            raise ValueError("checkpoint shape mismatch")
        self.positions = state["positions"].copy()
        self.time = float(state["time"])
        self.step_count = int(state["step_count"])
        self.rng.bit_generator.state = state["rng_state"]
