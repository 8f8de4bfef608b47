"""The DDFT continuum solver (our GridSim2D).

Dynamics follow dynamic density functional theory (Marconi & Tarazona
1999): each lipid density field evolves by the conservative gradient
flow

    drho_l/dt = div( D_l * (grad rho_l + rho_l * grad V_l) )

where ``V_l`` is the external potential each protein imprints on lipid
type ``l`` through a Gaussian coupling kernel. The coupling strengths
``g[l, s]`` (per lipid type and protein state) are *live parameters*:
the CG→continuum feedback loop updates them from aggregated RDFs, and
the solver "reads and updates these parameters on the fly" (§4.1 (7)).

Numerics: divergence-form central differences on a periodic grid (mass
is conserved to floating-point error), explicit Euler with a stability-
checked time step. Proteins do overdamped Langevin motion in the
membrane plane with state-dependent diffusion, plus Poisson
binding/unbinding.

The FD step advances all lipid layers of a leaflet as one
``(L, grid, grid)`` array, and a periodic difference is
``f.take(up, axis) - f.take(dn, axis)`` over shift indices built once
per grid (no ``np.roll``). Every operation is elementwise and in the
per-layer step's order, with no sum reassociated, so the fields are bit
for bit those of a per-layer ``np.roll`` step (kept as the test oracle
in ``tests/sims/oracles.py``).

The paper's production grid is 2400×2400 over 1 µm × 1 µm with 8 inner
and 6 outer lipid types; all of that is configuration here, with small
defaults so tests run in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sims.continuum.proteins import ProteinState, ProteinTable
from repro.sims.continuum.snapshot import Snapshot

__all__ = ["ContinuumConfig", "ContinuumSim"]


@dataclass(frozen=True)
class ContinuumConfig:
    """Physical and numerical parameters of the macro model."""

    grid: int = 64
    """Grid points per side (paper: 2400)."""

    box: float = 1.0
    """Box side length in µm (paper: 1 µm)."""

    n_inner: int = 8
    """Lipid types in the inner leaflet (paper: 8)."""

    n_outer: int = 6
    """Lipid types in the outer leaflet (paper: 6)."""

    n_proteins: int = 20
    """Protein particles (RAS / RAS-RAF)."""

    diffusion: float = 1e-3
    """Lipid diffusion constant, µm²/µs."""

    protein_diffusion: float = 5e-4
    """Protein in-plane diffusion constant, µm²/µs."""

    coupling_radius: float = 0.03
    """Gaussian kernel radius of the protein-lipid coupling, µm (≈30 nm)."""

    dt: float = 0.05
    """Time step in µs; checked against the diffusion stability limit."""

    io_interval_us: float = 1.0
    """Snapshot interval in simulated µs (paper: 1 µs)."""

    solver: str = "fd"
    """'fd' (explicit finite differences, positivity-clipped) or
    'spectral' (semi-implicit Fourier diffusion — exact for the linear
    term, so stable far beyond the FD time-step limit)."""

    seed: int = 0

    def __post_init__(self) -> None:
        if self.grid < 8:
            raise ValueError("grid must be >= 8")
        if self.box <= 0 or self.diffusion <= 0 or self.dt <= 0:
            raise ValueError("box, diffusion, dt must be positive")
        if self.solver not in ("fd", "spectral"):
            raise ValueError("solver must be 'fd' or 'spectral'")
        if self.solver == "fd":
            dx = self.box / self.grid
            limit = dx * dx / (4.0 * self.diffusion)
            if self.dt > limit:
                raise ValueError(
                    f"dt={self.dt} exceeds diffusion stability limit {limit:.4g} "
                    f"(grid={self.grid}, box={self.box}, D={self.diffusion})"
                )


def _shifts(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Periodic neighbour indices ``(up, dn)`` of an ``n``-point axis:
    ``f.take(up, axis)`` is ``np.roll(f, -1, axis)`` and
    ``f.take(dn, axis)`` is ``np.roll(f, 1, axis)``."""
    i = np.arange(n)
    return (i + 1) % n, (i - 1) % n


class ContinuumSim:
    """The macro-scale simulation.

    Feedback hook: :meth:`update_couplings` swaps in new protein-lipid
    coupling strengths mid-run — the backward-coupling path of MuMMI.
    """

    def __init__(self, config: Optional[ContinuumConfig] = None) -> None:
        self.config = config or ContinuumConfig()
        c = self.config
        self.rng = np.random.default_rng(c.seed)
        self.dx = c.box / c.grid
        self._two_dx = 2 * self.dx
        self._up, self._dn = _shifts(c.grid)
        self.time_us = 0.0
        # Density fields start near 1 with smooth random structure.
        self.inner = self._init_fields(c.n_inner)
        self.outer = self._init_fields(c.n_outer)
        self.proteins = ProteinTable.random(c.n_proteins, c.box, self.rng)
        # Coupling strengths g[lipid_type, protein_state]; positive pulls
        # lipid toward the protein. Updated in situ by feedback.
        self.g_inner = self.rng.normal(0.0, 0.5, size=(c.n_inner, 2))
        self.g_outer = self.rng.normal(0.0, 0.5, size=(c.n_outer, 2))
        self.coupling_version = 0
        self._mesh = np.stack(
            np.meshgrid(
                np.arange(c.grid) * self.dx, np.arange(c.grid) * self.dx, indexing="ij"
            ),
            axis=-1,
        )
        # Spectral-solver machinery (built lazily only when used).
        self._k = None  # (kx, ky, k2, diffusion_propagator)

    def _spectral_setup(self):
        if self._k is None:
            c = self.config
            k1d = 2.0 * np.pi * np.fft.fftfreq(c.grid, d=self.dx)
            kx = k1d[:, None]
            ky = k1d[None, :]
            k2 = kx**2 + ky**2
            propagator = np.exp(-c.diffusion * k2 * c.dt)
            self._k = (1j * kx, 1j * ky, k2, propagator)
        return self._k

    def _init_fields(self, ntypes: int) -> np.ndarray:
        c = self.config
        up, dn = self._up, self._dn
        fields = 1.0 + 0.1 * self.rng.standard_normal((ntypes, c.grid, c.grid))
        # Smooth the noise so the initial state is physical (long-wavelength).
        for _ in range(4):
            fields = 0.5 * fields + 0.125 * (
                fields.take(dn, 1) + fields.take(up, 1) + fields.take(dn, 2) + fields.take(up, 2)
            )
        return np.clip(fields, 0.05, None)

    # --- feedback interface -----------------------------------------------

    def update_couplings(self, g_inner: np.ndarray, g_outer: np.ndarray) -> None:
        """In situ parameter update (the CG→continuum feedback target)."""
        g_inner = np.asarray(g_inner, dtype=np.float64)
        g_outer = np.asarray(g_outer, dtype=np.float64)
        if g_inner.shape != self.g_inner.shape or g_outer.shape != self.g_outer.shape:
            raise ValueError("coupling table shape mismatch")
        self.g_inner = g_inner
        self.g_outer = g_outer
        self.coupling_version += 1

    # --- dynamics ----------------------------------------------------------

    def _protein_kernel(self) -> Dict[int, np.ndarray]:
        """Summed Gaussian kernel per protein state, shape (grid, grid).

        Computed with periodic minimum-image displacements so proteins
        near the boundary imprint correctly.
        """
        c = self.config
        out = {int(s): np.zeros((c.grid, c.grid)) for s in (0, 1)}
        for pos, state in zip(self.proteins.positions, self.proteins.states):
            d = self._mesh - pos
            d -= c.box * np.rint(d / c.box)  # minimum image
            r2 = np.einsum("ijk,ijk->ij", d, d)
            out[int(state)] += np.exp(-r2 / (2 * c.coupling_radius**2))
        return out

    def step(self, nsteps: int = 1) -> None:
        """Advance the fields and proteins by ``nsteps`` time steps."""
        c = self.config
        for _ in range(nsteps):
            kernels = self._protein_kernel()
            self._step_fields(self.inner, self.g_inner, kernels)
            self._step_fields(self.outer, self.g_outer, kernels)
            self._step_proteins(kernels)
            self.proteins.step_states(c.dt, self.rng)
            self.time_us += c.dt

    def _step_fields(
        self, fields: np.ndarray, g: np.ndarray, kernels: Dict[int, np.ndarray]
    ) -> None:
        if self.config.solver == "spectral":
            self._step_fields_spectral(fields, g, kernels)
        else:
            self._step_fields_fd(fields, g, kernels)

    def _step_fields_spectral(
        self, fields: np.ndarray, g: np.ndarray, kernels: Dict[int, np.ndarray]
    ) -> None:
        """Semi-implicit spectral step.

        Diffusion is integrated exactly in Fourier space (integrating
        factor ``exp(-D k^2 dt)``); the protein-drift term is explicit
        with spectral derivatives. The k=0 mode of a spectral divergence
        is exactly zero, so mass is conserved to round-off without any
        clipping.
        """
        c = self.config
        ikx, iky, _k2, propagator = self._spectral_setup()
        for l in range(fields.shape[0]):
            rho = fields[l]
            V = -(g[l, 0] * kernels[0] + g[l, 1] * kernels[1])
            V_hat = np.fft.fft2(V)
            gVx = np.real(np.fft.ifft2(ikx * V_hat))
            gVy = np.real(np.fft.ifft2(iky * V_hat))
            flux_x_hat = np.fft.fft2(rho * gVx)
            flux_y_hat = np.fft.fft2(rho * gVy)
            drift_hat = c.diffusion * (ikx * flux_x_hat + iky * flux_y_hat)
            rho_hat = np.fft.fft2(rho)
            rho_hat = (rho_hat + c.dt * drift_hat) * propagator
            fields[l] = np.real(np.fft.ifft2(rho_hat))

    def _diff(self, f: np.ndarray, axis: int) -> np.ndarray:
        """Periodic central difference of ``f`` along ``axis``."""
        return (f.take(self._up, axis) - f.take(self._dn, axis)) / self._two_dx

    def _step_fields_fd(
        self, fields: np.ndarray, g: np.ndarray, kernels: Dict[int, np.ndarray]
    ) -> None:
        """One explicit Euler step of every layer of a leaflet at once:
        ``fields`` is (L, grid, grid) and ``g`` is (L, 2)."""
        c, diff = self.config, self._diff
        # V_l = -sum_s g[l,s] * K_s : positive g attracts lipid l.
        V = -(g[:, 0, None, None] * kernels[0] + g[:, 1, None, None] * kernels[1])
        fx = -c.diffusion * (diff(fields, 1) + fields * diff(V, 1))
        fy = -c.diffusion * (diff(fields, 2) + fields * diff(V, 2))
        fields -= c.dt * (diff(fx, 1) + diff(fy, 2))
        np.clip(fields, 0.0, None, out=fields)

    def _step_proteins(self, kernels: Dict[int, np.ndarray]) -> None:
        """Overdamped Langevin: drift down crowding gradients + noise."""
        c = self.config
        n = len(self.proteins)
        up, dn = self._up, self._dn
        # Repulsive drift away from other proteins' kernels (crowding),
        # differenced at the proteins' own cells only.
        total = kernels[0] + kernels[1]
        i, j = (np.floor(self.proteins.positions / self.dx).astype(int) % c.grid).T
        gx = (total[up[i], j] - total[dn[i], j]) / self._two_dx
        gy = (total[i, up[j]] - total[i, dn[j]]) / self._two_dx
        drift = -np.stack([gx, gy], axis=1)
        noise = self.rng.standard_normal((n, 2)) * np.sqrt(2 * c.protein_diffusion * c.dt)
        self.proteins.displace(drift * c.protein_diffusion * c.dt + noise)

    # --- I/O -----------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        return Snapshot(
            time_us=self.time_us,
            inner=self.inner.copy(),
            outer=self.outer.copy(),
            protein_positions=self.proteins.positions.copy(),
            protein_states=self.proteins.states.copy(),
            box=self.config.box,
        )

    def run_with_snapshots(self, total_us: float) -> List[Snapshot]:
        """Run ``total_us`` of simulated time, emitting snapshots at the
        configured I/O interval (including the initial state)."""
        c = self.config
        steps_per_io = max(1, int(round(c.io_interval_us / c.dt)))
        nios = int(round(total_us / c.io_interval_us))
        out = [self.snapshot()]
        for _ in range(nios):
            self.step(steps_per_io)
            out.append(self.snapshot())
        return out

    def total_mass(self) -> float:
        return float(self.inner.sum() + self.outer.sum())
