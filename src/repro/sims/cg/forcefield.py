"""A Martini-flavoured coarse-grained force field.

Bead types carry pairwise interaction strengths (a symmetric epsilon
matrix over a soft-core pair potential) and protein beads carry bonded
parameters whose stiffness depends on the protein's secondary
structure — the knob that AA→CG feedback turns: "The force field
parameters of the CG protein model depend on the secondary structure,
and, therefore, the parameters are progressively refined" (§4.1 (7)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BeadType", "CGForceField"]

# Per-secondary-structure backbone bond stiffness (helix rigid, coil soft),
# in reduced units. These are the parameters feedback refines.
SS_BOND_STIFFNESS: Dict[str, float] = {"H": 50.0, "E": 30.0, "C": 10.0}


@dataclass(frozen=True)
class BeadType:
    """One CG bead species."""

    name: str
    charge: float = 0.0
    is_protein: bool = False


class CGForceField:
    """Pair + bond parameters over a set of bead types.

    The pair potential is a soft repulsive core with a type-dependent
    attractive well::

        U(r) = eps_rep * (1 - r/rc)^2  - eps[i, j] * (1 - r/rc)^4   (r < rc)

    — cheap, cutoff-smooth at ``rc`` (both terms and their derivatives
    vanish there), and expressive enough to give distinct protein-lipid
    RDFs per lipid type, which is all the feedback loop consumes.
    """

    def __init__(
        self,
        types: Sequence[BeadType],
        eps: Optional[np.ndarray] = None,
        cutoff: float = 1.2,
        eps_rep: float = 25.0,
        ss_pattern: str = "",
    ) -> None:
        if not types:
            raise ValueError("need at least one bead type")
        self.types = list(types)
        self.type_index = {t.name: i for i, t in enumerate(self.types)}
        if len(self.type_index) != len(self.types):
            raise ValueError("duplicate bead type names")
        n = len(self.types)
        if eps is None:
            eps = np.ones((n, n))
        eps = np.asarray(eps, dtype=np.float64)
        if eps.shape != (n, n):
            raise ValueError(f"eps must be ({n},{n})")
        if not np.allclose(eps, eps.T):
            raise ValueError("eps must be symmetric")
        self.eps = eps
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff = float(cutoff)
        self.eps_rep = float(eps_rep)
        # Secondary-structure assignment of the protein backbone; bond k
        # per backbone segment derives from it.
        self.ss_pattern = ss_pattern
        self.version = 0

    # --- feedback interface -----------------------------------------------

    def update_secondary_structure(self, ss_pattern: str) -> None:
        """Refine protein bonded parameters from an AA-derived SS string."""
        bad = set(ss_pattern) - set(SS_BOND_STIFFNESS)
        if bad:
            raise ValueError(f"unknown secondary-structure codes: {sorted(bad)}")
        self.ss_pattern = ss_pattern
        self.version += 1

    def bond_stiffness(self) -> np.ndarray:
        """Backbone bond constants, one per SS segment (len(ss_pattern),)."""
        return np.array([SS_BOND_STIFFNESS[c] for c in self.ss_pattern])

    # --- pair forces (vectorized over pair lists) ---------------------------

    def pair_energy_force(
        self, r: np.ndarray, type_i: np.ndarray, type_j: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """U(r) and -dU/dr for arrays of pair distances and type ids.

        Pairs beyond the cutoff contribute exactly zero.
        """
        return self.pair_energy(r, type_i, type_j), self.pair_force(r, type_i, type_j)

    def pair_energy(self, r: np.ndarray, type_i: np.ndarray, type_j: np.ndarray) -> np.ndarray:
        x = self._reduced(r)
        return self.eps_rep * x**2 - self.eps[type_i, type_j] * x**4

    def pair_force(self, r: np.ndarray, type_i: np.ndarray, type_j: np.ndarray) -> np.ndarray:
        """-dU/dr = (2*eps_rep*x - 4*e_att*x^3) / rc (the integrator
        needs only this)."""
        return self.pair_force_eps(r, self.eps[type_i, type_j])

    def pair_force_eps(self, r: np.ndarray, e_att: np.ndarray) -> np.ndarray:
        """:meth:`pair_force` given the pairs' well depths ``eps[ti, tj]``
        (the engine caches them per neighbour-list build). A pair at or
        beyond the cutoff has ``x = +0.0`` and so a force of exactly
        +0.0, with no mask."""
        x = self._reduced(r)
        return (2.0 * self.eps_rep * x - 4.0 * e_att * x**3) / self.cutoff

    def _reduced(self, r: np.ndarray) -> np.ndarray:
        """x = max(1 - r/rc, 0): ``1 - r/rc`` inside the cutoff, +0.0 at
        or beyond it."""
        return np.maximum(1.0 - np.asarray(r, dtype=np.float64) / self.cutoff, 0.0)

    def index_of(self, name: str) -> int:
        return self.type_index[name]

    def lipid_type_names(self) -> List[str]:
        return [t.name for t in self.types if not t.is_protein]

    def protein_type_names(self) -> List[str]:
        return [t.name for t in self.types if t.is_protein]


def martini_like(n_lipid_types: int = 4, seed: int = 0) -> CGForceField:
    """A ready-made force field: n lipid species + RAS and RAF beads."""
    rng = np.random.default_rng(seed)
    types = [BeadType(f"L{i}") for i in range(n_lipid_types)]
    types += [BeadType("RAS", is_protein=True), BeadType("RAF", is_protein=True)]
    n = len(types)
    base = rng.uniform(0.5, 2.0, size=(n, n))
    eps = (base + base.T) / 2
    return CGForceField(types, eps=eps, ss_pattern="HHHHCC")
