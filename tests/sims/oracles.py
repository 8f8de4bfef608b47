"""Reference force passes, neighbour searches and the continuum step
kept as test oracles.

The engines keep a Verlet neighbour list across steps and compute
forces in one fused pass (one distance pass over every candidate row,
one scatter). The functions below are the straightforward definitions
that pass must match byte for byte: a fresh pair search on every call,
its pairs in the canonical order (sorted, i < j) and cut at the
engine's own minimum-image ``r < rc``; separate pair and bond passes
over those pairs alone, one ``np.add.at`` scatter per block; the
energy always summed. The tree, brute-force and linked-cell searches
give the same canonical pairs, so any of them can drive the oracle.

The continuum engine steps all layers of a leaflet as one array and
differences through precomputed shift indices; ``continuum_step`` is
the per-layer ``np.roll`` finite-difference step it must match bit for
bit.
"""

from typing import Callable, Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.sims.aa.engine import AASim
from repro.sims.cg.engine import CGSim
from repro.sims.continuum.ddft import ContinuumSim

Pairs = Tuple[np.ndarray, np.ndarray]


def min_image(d: np.ndarray, box: float) -> np.ndarray:
    return d - box * np.round(d / box)


# --- neighbour searches ------------------------------------------------------


def pairs_tree(positions: np.ndarray, box: float, rc: float) -> Pairs:
    tree = cKDTree(positions, boxsize=box)
    pairs = tree.query_pairs(rc, output_type="ndarray")
    return (pairs[:, 0], pairs[:, 1]) if pairs.size else (np.empty(0, int), np.empty(0, int))


def pairs_brute(positions: np.ndarray, box: float, rc: float) -> Pairs:
    """Every unordered pair within ``rc`` under minimum image, O(n²)."""
    n = positions.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    d = min_image(positions[ii] - positions[jj], box)
    r2 = np.einsum("ij,ij->i", d, d)
    keep = r2 < rc * rc
    return ii[keep], jj[keep]


def pairs_cells(positions: np.ndarray, box: float, rc: float) -> Pairs:
    """Linked-cell pair search: O(n) candidates at fixed density.

    The box splits into cells no smaller than the cutoff; each cell
    interacts only with itself and a half stencil of neighbours (so
    every pair is generated exactly once). Falls back to brute force
    when the box holds fewer than 3x3 cells, where the periodic
    stencil would alias.
    """
    ncell = int(box // rc)
    if ncell < 3:
        return pairs_brute(positions, box, rc)
    cell_size = box / ncell
    cxy = np.floor(positions / cell_size).astype(np.int64) % ncell
    cell_id = cxy[:, 0] * ncell + cxy[:, 1]
    order = np.argsort(cell_id, kind="stable")
    sorted_ids = cell_id[order]
    bins = np.arange(ncell * ncell + 1)
    starts = np.searchsorted(sorted_ids, bins[:-1])
    ends = np.searchsorted(sorted_ids, bins[1:])
    # Half stencil: self + E, N, NE, NW — each unordered cell pair once.
    stencil = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))
    out_i, out_j = [], []
    for cx in range(ncell):
        base = cx * ncell
        for cy in range(ncell):
            c = base + cy
            a = order[starts[c]: ends[c]]
            if a.size == 0:
                continue
            for ox, oy in stencil:
                if ox == 0 and oy == 0:
                    if a.size < 2:
                        continue
                    ti, tj = np.triu_indices(a.size, k=1)
                    pi, pj = a[ti], a[tj]
                else:
                    nc = ((cx + ox) % ncell) * ncell + (cy + oy) % ncell
                    b = order[starts[nc]: ends[nc]]
                    if b.size == 0:
                        continue
                    pi = np.repeat(a, b.size)
                    pj = np.tile(b, a.size)
                d = min_image(positions[pi] - positions[pj], box)
                keep = np.einsum("ij,ij->i", d, d) < rc * rc
                if keep.any():
                    out_i.append(pi[keep])
                    out_j.append(pj[keep])
    if not out_i:
        return np.empty(0, int), np.empty(0, int)
    return np.concatenate(out_i), np.concatenate(out_j)


SEARCHES = {"tree": pairs_tree, "brute": pairs_brute, "cells": pairs_cells}

PAD = 1.0 + 1e-9
"""Search radius over the cutoff, so that a search's own distance
rounding cannot drop a pair the engine's distance puts inside."""


def neighbours(positions: np.ndarray, box: float, rc: float, search: str = "tree") -> Pairs:
    """Every pair whose minimum-image distance, computed as the engines
    compute it, is < ``rc``: sorted rows with i < j."""
    n = positions.shape[0]
    ii, jj = SEARCHES[search](positions, box, rc * PAD)
    ii, jj = np.divmod(np.unique(np.minimum(ii, jj) * n + np.maximum(ii, jj)), n)
    d = min_image(positions[ii] - positions[jj], box)
    r = np.maximum(np.sqrt(np.einsum("ij,ij->i", d, d)), 1e-9)
    keep = r < rc
    return ii[keep], jj[keep]


def cg_pairs(sim: CGSim, search: str = "tree") -> Pairs:
    """``neighbours`` of a CG sim without its bonded pairs."""
    n = sim.positions.shape[0]
    ii, jj = neighbours(sim.positions, sim.config.box, sim.ff.cutoff, search)
    if sim.bonds.shape[0] and ii.size:
        bi = sim.bonds[:, 0].astype(np.int64)
        bj = sim.bonds[:, 1].astype(np.int64)
        excluded = np.unique(np.minimum(bi, bj) * n + np.maximum(bi, bj))
        keep = ~np.isin(ii * n + jj, excluded)
        ii, jj = ii[keep], jj[keep]
    return ii, jj


# --- reference force passes --------------------------------------------------


def cg_forces(sim: CGSim, search: str = "tree") -> Tuple[np.ndarray, float]:
    """``CGSim.forces`` as separate pair and bond passes."""
    box = sim.config.box
    pos = sim.positions
    F = np.zeros_like(pos)
    energy = 0.0
    ii, jj = cg_pairs(sim, search)
    if ii.size:
        d = min_image(pos[ii] - pos[jj], box)
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        r = np.maximum(r, 1e-9)
        U, Fmag = sim.ff.pair_energy_force(r, sim.type_ids[ii], sim.type_ids[jj])
        fvec = (Fmag / r)[:, None] * d
        np.add.at(F, ii, fvec)
        np.add.at(F, jj, -fvec)
        energy += float(U.sum())
    if sim.bonds.shape[0]:
        bi = sim.bonds[:, 0].astype(int)
        bj = sim.bonds[:, 1].astype(int)
        r0 = sim.bonds[:, 2]
        d = min_image(pos[bi] - pos[bj], box)
        r = np.maximum(np.sqrt(np.einsum("ij,ij->i", d, d)), 1e-9)
        k = sim._bond_k
        energy += float(np.sum(0.5 * k * (r - r0) ** 2))
        fmag = -k * (r - r0)
        fvec = (fmag / r)[:, None] * d
        np.add.at(F, bi, fvec)
        np.add.at(F, bj, -fvec)
    return F, energy


def aa_forces(sim: AASim) -> Tuple[np.ndarray, float]:
    """``AASim.forces`` as separate pair, bond and restraint passes."""
    c = sim.config
    pos = sim.positions
    F = np.zeros_like(pos)
    energy = 0.0
    ii, jj = neighbours(pos, c.box, c.cutoff)
    if ii.size:
        d = min_image(pos[ii] - pos[jj], c.box)
        r = np.maximum(np.sqrt(np.einsum("ij,ij->i", d, d)), 1e-9)
        x = 1.0 - r / c.cutoff
        energy += float(np.sum(c.repulsion * x**2))
        fmag = 2.0 * c.repulsion * x / c.cutoff
        fvec = (fmag / r)[:, None] * d
        np.add.at(F, ii, fvec)
        np.add.at(F, jj, -fvec)
    if sim.bonds.shape[0]:
        bi = sim.bonds[:, 0].astype(int)
        bj = sim.bonds[:, 1].astype(int)
        r0 = sim.bonds[:, 2]
        d = min_image(pos[bi] - pos[bj], c.box)
        r = np.maximum(np.sqrt(np.einsum("ij,ij->i", d, d)), 1e-9)
        energy += float(np.sum(0.5 * sim.bond_k * (r - r0) ** 2))
        fmag = -sim.bond_k * (r - r0)
        fvec = (fmag / r)[:, None] * d
        np.add.at(F, bi, fvec)
        np.add.at(F, bj, -fvec)
    if sim.restrained.any():
        d = min_image(pos - sim._restraint_anchor, c.box)
        mask = sim.restrained[:, None]
        F -= sim.restraint_k * d * mask
        energy += float(
            np.sum(0.5 * sim.restraint_k * np.einsum("ij,ij->i", d, d)[sim.restrained])
        )
    return F, energy


def forces_of(sim) -> Callable[[], Tuple[np.ndarray, float]]:
    return (lambda: cg_forces(sim)) if isinstance(sim, CGSim) else (lambda: aa_forces(sim))


# --- reference integrators ---------------------------------------------------


def step(sim, nsteps: int = 1, forces: Optional[Callable] = None) -> None:
    """``sim.step`` driven by a reference force pass (default: the
    oracle matching the sim's type)."""
    forces = forces or forces_of(sim)
    c = sim.config
    sigma = np.sqrt(2.0 * c.mobility * c.temperature * c.dt)
    for _ in range(nsteps):
        F, _ = forces()
        noise = sim.rng.standard_normal(sim.positions.shape) * sigma
        sim.positions = (sim.positions + c.mobility * F * c.dt + noise) % c.box
        sim.time += c.dt
        sim.step_count += 1


def minimize(sim: AASim, nsteps: int = 50, step_size: float = 1e-4) -> float:
    """``AASim.minimize`` with the energy summed on every iteration."""
    energy = np.inf
    for _ in range(nsteps):
        F, energy = aa_forces(sim)
        sim.positions = (sim.positions + step_size * F) % sim.config.box
    return energy


# --- continuum ---------------------------------------------------------------


def grad(field2d: np.ndarray, dx: float) -> tuple:
    """Central-difference gradient on a periodic grid."""
    gx = (np.roll(field2d, -1, axis=0) - np.roll(field2d, 1, axis=0)) / (2 * dx)
    gy = (np.roll(field2d, -1, axis=1) - np.roll(field2d, 1, axis=1)) / (2 * dx)
    return gx, gy


def div(fx: np.ndarray, fy: np.ndarray, dx: float) -> np.ndarray:
    """Central-difference divergence on a periodic grid."""
    return (np.roll(fx, -1, axis=0) - np.roll(fx, 1, axis=0)) / (2 * dx) + (
        np.roll(fy, -1, axis=1) - np.roll(fy, 1, axis=1)
    ) / (2 * dx)


def init_fields(rng: np.random.Generator, ntypes: int, grid: int) -> np.ndarray:
    """``ContinuumSim._init_fields`` with ``np.roll``."""
    fields = 1.0 + 0.1 * rng.standard_normal((ntypes, grid, grid))
    for _ in range(4):
        fields = 0.5 * fields + 0.125 * (
            np.roll(fields, 1, axis=1)
            + np.roll(fields, -1, axis=1)
            + np.roll(fields, 1, axis=2)
            + np.roll(fields, -1, axis=2)
        )
    return np.clip(fields, 0.05, None)


def step_fields_fd(sim: ContinuumSim, fields: np.ndarray, g: np.ndarray, kernels) -> None:
    """``ContinuumSim._step_fields_fd`` one layer at a time."""
    c = sim.config
    for l in range(fields.shape[0]):
        rho = fields[l]
        V = -(g[l, 0] * kernels[0] + g[l, 1] * kernels[1])
        gVx, gVy = grad(V, sim.dx)
        gRx, gRy = grad(rho, sim.dx)
        fx = -c.diffusion * (gRx + rho * gVx)
        fy = -c.diffusion * (gRy + rho * gVy)
        rho -= c.dt * div(fx, fy, sim.dx)
        np.clip(rho, 0.0, None, out=rho)


def step_proteins(sim: ContinuumSim, kernels) -> None:
    """``ContinuumSim._step_proteins`` over the whole-grid gradient."""
    c = sim.config
    n = len(sim.proteins)
    gx, gy = grad(kernels[0] + kernels[1], sim.dx)
    cells = np.floor(sim.proteins.positions / sim.dx).astype(int) % c.grid
    drift = -np.stack([gx[cells[:, 0], cells[:, 1]], gy[cells[:, 0], cells[:, 1]]], axis=1)
    noise = sim.rng.standard_normal((n, 2)) * np.sqrt(2 * c.protein_diffusion * c.dt)
    sim.proteins.displace(drift * c.protein_diffusion * c.dt + noise)


def continuum_step(sim: ContinuumSim, nsteps: int = 1) -> None:
    """``ContinuumSim.step`` (FD solver) driven by the per-layer passes."""
    c = sim.config
    for _ in range(nsteps):
        kernels = sim._protein_kernel()
        step_fields_fd(sim, sim.inner, sim.g_inner, kernels)
        step_fields_fd(sim, sim.outer, sim.g_outer, kernels)
        step_proteins(sim, kernels)
        sim.proteins.step_states(c.dt, sim.rng)
        sim.time_us += c.dt
