"""The fused force pass shared by the CG and AA engines.

Both engines sum pair forces over a periodic neighbour list and bond
forces over a fixed bond table. At laptop scale (tens of particles) the
cost is numpy call overhead, not arithmetic, so each force evaluation
does one distance pass over the pair rows followed by the bond rows,
and one scatter: an ``np.bincount`` per component over the row targets
``concat(ii, jj, bi, bj)``.

``bincount`` adds every row in input order starting from +0.0, the
order of four successive ``np.add.at`` calls, so the forces are
bitwise identical to the separate passes
(``tests/sims/oracles.py`` keeps those as the reference).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["bond_table", "scatter", "separations"]


def bond_table(bonds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(2, m) integer ends and (m,) rest lengths of (m, 3) bond rows."""
    bonds = bonds.reshape(-1, 3)
    ends = np.ascontiguousarray(bonds[:, :2].T, dtype=np.int64)
    return ends, np.ascontiguousarray(bonds[:, 2])


def separations(
    positions: np.ndarray, ii: np.ndarray, jj: np.ndarray, bond_ends: np.ndarray, box: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum-image separation vectors and distances of the pair rows
    followed by the bond rows (floored at 1e-9 so overlapping particles
    get a huge but finite force)."""
    left = np.concatenate([ii, bond_ends[0]])
    right = np.concatenate([jj, bond_ends[1]])
    d = positions.take(left, axis=0) - positions.take(right, axis=0)
    d = d - box * np.rint(d / box)  # = np.round, without its wrapper
    r = np.maximum(np.sqrt(np.einsum("ij,ij->i", d, d)), 1e-9)
    return d, r


def scatter(
    n: int, ii: np.ndarray, jj: np.ndarray, bond_ends: np.ndarray, fvec: np.ndarray
) -> np.ndarray:
    """Forces (n, 2) from pair rows ``fvec[:len(ii)]`` (+ on ii, - on jj)
    followed by bond rows (+ on bond_ends[0], - on bond_ends[1])."""
    npair = ii.size
    targets = np.concatenate([ii, jj, bond_ends.ravel()])
    fp, fb = fvec[:npair], fvec[npair:]
    weights = np.concatenate([fp, -fp, fb, -fb])
    F = np.empty((n, 2))
    F[:, 0] = np.bincount(targets, weights[:, 0], minlength=n)
    F[:, 1] = np.bincount(targets, weights[:, 1], minlength=n)
    return F
