"""The Verlet neighbour list and fused force pass shared by the CG and
AA engines.

Both engines sum pair forces over a periodic neighbour list and bond
forces over a fixed bond table. At laptop scale (tens of particles) the
cost is numpy call overhead, not arithmetic, so each sim keeps one
:class:`NeighbourList` across steps:

- its candidate pairs lie within ``cutoff * (1 + SKIN)``. A periodic
  ``cKDTree`` finds them and they are sorted lexicographically (i < j),
  so the summation order is a property of the pair *set*: any search
  method gives the same bits. Bonded pairs are excluded here, once per
  build, when the engine asks for it;
- the row tables are built with the list: gather indices of the pair
  rows followed by the bond rows, and the ``np.bincount`` scatter bins.
  A row's target ``t`` in ``concat(ii, jj, bi, bj)`` becomes the two
  interleaved bins ``2t`` (x) and ``2t + 1`` (y), so one ``bincount``
  over the row-major weights fills both columns;
- it rebuilds when some particle's minimum-image displacement since the
  build exceeds ``SKIN * cutoff / 2`` (no pair can then have crossed
  from beyond the candidate radius to inside the cutoff), or when the
  particle count, box or cutoff change. A sim whose bonds change starts
  a new list.

Each force evaluation does one distance pass over every candidate row
and one scatter. A candidate beyond the cutoff gets a force of exactly
±0.0 from the engine's clamped pair force (``x = max(1 - r/rc, 0)``),
and ``bincount`` adds each bin's rows in input order starting from
+0.0, where ``x + ±0.0 == x``. So the
forces are bitwise identical to separate passes over the inside-cutoff
pairs alone, in sorted order, with one ``np.add.at`` per block
(``tests/sims/oracles.py`` keeps those, with a fresh search per step,
as the reference).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["SKIN", "NeighbourList", "bond_table"]

SKIN = 0.2
"""Candidate radius beyond the cutoff, as a fraction of the cutoff."""


def bond_table(bonds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(2, m) integer ends and (m,) rest lengths of (m, 3) bond rows."""
    bonds = bonds.reshape(-1, 3)
    ends = np.ascontiguousarray(bonds[:, :2].T, dtype=np.int64)
    return ends, np.ascontiguousarray(bonds[:, 2])


class NeighbourList:
    """One sim's sorted Verlet list and the row tables built from it.

    The bonds are fixed for the list's life: a sim whose bonds change
    starts a new list. ``update`` is called once per force evaluation;
    ``builds / calls`` is the fraction of evaluations that paid for a
    tree search.
    """

    def __init__(self, bond_ends: np.ndarray, exclude_bonded: bool) -> None:
        self.bond_ends = bond_ends
        self.exclude_bonded = exclude_bonded
        self.calls = 0
        self.builds = 0
        self._key: Optional[Tuple[int, float, float]] = None

    def update(self, positions: np.ndarray, box: float, cutoff: float) -> "NeighbourList":
        """Rebuild if stale for ``positions``; returns ``self``."""
        self.calls += 1
        if (positions.shape[0], box, cutoff) != self._key or self._drifted(positions, box):
            self._build(positions, box, cutoff)
        return self

    def _drifted(self, positions: np.ndarray, box: float) -> bool:
        d = positions - self._origin
        d -= box * np.rint(d / box)
        return np.einsum("ij,ij->i", d, d).max(initial=0.0) > self._max_drift2

    def _build(self, positions: np.ndarray, box: float, cutoff: float) -> None:
        n = positions.shape[0]
        pairs = cKDTree(positions, boxsize=box).query_pairs(
            cutoff * (1.0 + SKIN), output_type="ndarray")
        keys = np.sort(pairs[:, 0] * n + pairs[:, 1])  # query_pairs gives i < j
        bi, bj = self.bond_ends
        if self.exclude_bonded and bi.size:
            keys = keys[~np.isin(keys, np.minimum(bi, bj) * n + np.maximum(bi, bj))]
        ii, jj = np.divmod(keys, n)
        self.ii, self.jj, self.npair, self.n = ii, jj, ii.size, n
        self.left = np.concatenate([ii, bi])
        self.right = np.concatenate([jj, bj])
        targets = np.concatenate([ii, jj, bi, bj])
        self.bins = np.stack([2 * targets, 2 * targets + 1], axis=1).ravel()
        self._origin = positions.copy()
        self._max_drift2 = (SKIN * cutoff / 2.0) ** 2
        self._key = (n, box, cutoff)
        self.builds += 1

    def separations(self, positions: np.ndarray, box: float) -> Tuple[np.ndarray, np.ndarray]:
        """Minimum-image separation vectors and distances of the pair rows
        followed by the bond rows (floored at 1e-9 so overlapping
        particles get a huge but finite force)."""
        d = positions.take(self.left, axis=0) - positions.take(self.right, axis=0)
        d = d - box * np.rint(d / box)  # = np.round, without its wrapper
        r = np.maximum(np.sqrt(np.einsum("ij,ij->i", d, d)), 1e-9)
        return d, r

    def scatter(self, fvec: np.ndarray) -> np.ndarray:
        """Forces (n, 2) from pair rows ``fvec[:npair]`` (+ on ii, - on jj)
        followed by bond rows (+ on the first end, - on the second)."""
        fp, fb = fvec[:self.npair], fvec[self.npair:]
        weights = np.concatenate([fp, -fp, fb, -fb]).ravel()
        # With no rows bincount returns int64 zeros: keep the forces float64.
        F = np.bincount(self.bins, weights, minlength=2 * self.n).astype(np.float64, copy=False)
        return F.reshape(self.n, 2)
