"""Continuum snapshots: the unit of macro-scale output.

GridSim2D "delivers a new snapshot every 90 seconds" of walltime at a
1 µs I/O interval (§4.1). A :class:`Snapshot` bundles the density
fields and the protein table at one simulated time and round-trips
through any :class:`~repro.datastore.base.DataStore` as one array payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.datastore import serial
from repro.sims.continuum.proteins import ProteinTable

__all__ = ["Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One continuum frame: time (µs), densities, proteins."""

    time_us: float
    inner: np.ndarray  # (n_inner_types, N, N) lipid densities, inner leaflet
    outer: np.ndarray  # (n_outer_types, N, N) lipid densities, outer leaflet
    protein_positions: np.ndarray  # (n, 2) in µm
    protein_states: np.ndarray  # (n,)
    box: float  # µm

    @property
    def grid_size(self) -> int:
        return int(self.inner.shape[-1])

    def total_mass(self) -> float:
        """Total lipid mass (conserved by the DDFT dynamics)."""
        return float(self.inner.sum() + self.outer.sum())

    def to_bytes(self) -> bytes:
        return serial.arrays_to_bytes(
            {
                "time_us": np.array([self.time_us]),
                "inner": self.inner,
                "outer": self.outer,
                "protein_positions": self.protein_positions,
                "protein_states": self.protein_states,
                "box": np.array([self.box]),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        arrays = serial.bytes_to_arrays(data)
        return cls(
            time_us=float(arrays["time_us"][0]),
            inner=arrays["inner"],
            outer=arrays["outer"],
            protein_positions=arrays["protein_positions"],
            protein_states=arrays["protein_states"],
            box=float(arrays["box"][0]),
        )

    def proteins(self) -> ProteinTable:
        return ProteinTable(self.protein_positions, self.protein_states, self.box)
