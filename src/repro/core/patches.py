"""Task 1: process coarse-scale data for consumption (the Patch Creator).

§4.4: "The data generated by the continuum simulation spans 1 µm × 1 µm
and must be parsed to generate 30 nm × 30 nm patches of interest
(regions around RAS and RAF proteins). The WM coordinates the Patch
Creator, which reads each snapshot, creates patches, and outputs them
for consumption by the rest of the framework." Production numbers: ~14 s
per snapshot, ~70 KB per patch in "a standard Numpy format", patches
sampled on a 37×37 grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.datastore import serial
from repro.datastore.base import DataStore
from repro.sims.continuum.snapshot import Snapshot

__all__ = ["Patch", "PatchCreator"]


@dataclass(frozen=True)
class Patch:
    """A 30 nm-scale cutout around one protein."""

    patch_id: str
    time_us: float
    center: np.ndarray  # (2,) µm, the protein's position
    densities: np.ndarray  # (n_types, m, m) inner-leaflet cutouts
    protein_state: int
    box_nm: float  # physical patch extent
    n_neighbors: int = 0
    """Other proteins within the patch extent — the protein-configuration
    signal the Patch Selector's multiple queues are keyed on."""

    outer: Optional[np.ndarray] = None
    """Optional outer-leaflet cutouts (the paper's membranes carry 8
    inner + 6 outer lipid types; RAS anchors to the inner leaflet, so
    the inner fields are the default encoder input)."""

    @property
    def grid(self) -> int:
        return int(self.densities.shape[-1])

    def flat(self) -> np.ndarray:
        """Flattened field vector, the ML encoder's input.

        Includes the outer-leaflet fields when present, so both-leaflet
        patches encode both-leaflet structure.
        """
        inner = self.densities.ravel()
        if self.outer is None:
            return inner.astype(np.float64)
        return np.concatenate([inner, self.outer.ravel()]).astype(np.float64)

    def to_bytes(self) -> bytes:
        payload = {
            "time_us": np.array([self.time_us]),
            "center": self.center,
            "densities": self.densities,
            "protein_state": np.array([self.protein_state]),
            "box_nm": np.array([self.box_nm]),
            "n_neighbors": np.array([self.n_neighbors]),
            "patch_id": np.frombuffer(self.patch_id.encode(), dtype=np.uint8),
        }
        if self.outer is not None:
            payload["outer"] = self.outer
        return serial.arrays_to_bytes(payload)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Patch":
        arrays = serial.bytes_to_arrays(data)
        return cls(
            patch_id=arrays["patch_id"].tobytes().decode(),
            time_us=float(arrays["time_us"][0]),
            center=arrays["center"],
            densities=arrays["densities"],
            protein_state=int(arrays["protein_state"][0]),
            box_nm=float(arrays["box_nm"][0]),
            n_neighbors=int(arrays["n_neighbors"][0]) if "n_neighbors" in arrays else 0,
            outer=arrays.get("outer"),
        )


class PatchCreator:
    """Cuts per-protein patches out of continuum snapshots.

    Parameters
    ----------
    patch_grid:
        Samples per side of the cutout (paper: 37).
    patch_nm:
        Physical extent in nm (paper: 30 nm).
    store:
        Optional DataStore; when given, each snapshot's patches are
        persisted under ``patches/<id>`` with one ``write_many``.
    """

    def __init__(
        self,
        patch_grid: int = 37,
        patch_nm: float = 30.0,
        store: Optional[DataStore] = None,
        include_outer: bool = False,
    ) -> None:
        if patch_grid < 3:
            raise ValueError("patch_grid must be >= 3")
        if patch_nm <= 0:
            raise ValueError("patch_nm must be positive")
        self.patch_grid = patch_grid
        self.patch_nm = patch_nm
        self.store = store
        self.include_outer = include_outer
        self.snapshots_processed = 0
        self.patches_created = 0

    def create(self, snapshot: Snapshot) -> List[Patch]:
        """One patch per protein in the snapshot, periodically wrapped."""
        m = self.patch_grid
        grid = snapshot.grid_size
        box_um = snapshot.box
        dx = box_um / grid
        half_extent_um = (self.patch_nm * 1e-3) / 2.0
        # Offsets (in grid cells) covering the patch extent, resampled to
        # exactly m points per side.
        offs_um = np.linspace(-half_extent_um, half_extent_um, m)
        offs_cells = np.round(offs_um / dx).astype(int)
        # Minimum-image pairwise protein distances -> neighbor counts.
        pos_all = snapshot.protein_positions
        d = pos_all[:, None, :] - pos_all[None, :, :]
        d -= box_um * np.round(d / box_um)
        dist = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        np.fill_diagonal(dist, np.inf)
        neighbor_counts = np.sum(dist <= self.patch_nm * 1e-3, axis=1)
        patches = []
        snap_idx = self.snapshots_processed
        for p, (pos, state) in enumerate(
            zip(snapshot.protein_positions, snapshot.protein_states)
        ):
            ci, cj = int(pos[0] / dx), int(pos[1] / dx)
            rows = (ci + offs_cells) % grid
            cols = (cj + offs_cells) % grid
            cut = snapshot.inner[:, rows[:, None], cols[None, :]]
            outer_cut = (
                snapshot.outer[:, rows[:, None], cols[None, :]].astype(np.float64)
                if self.include_outer
                else None
            )
            patches.append(
                Patch(
                    patch_id=f"s{snap_idx:06d}_p{p:04d}",
                    time_us=snapshot.time_us,
                    center=pos.copy(),
                    densities=cut.astype(np.float64),
                    protein_state=int(state),
                    box_nm=self.patch_nm,
                    n_neighbors=int(neighbor_counts[p]),
                    outer=outer_cut,
                )
            )
        if self.store is not None and patches:
            self.store.write_many({f"patches/{p.patch_id}": p.to_bytes()
                                   for p in patches})
        self.snapshots_processed += 1
        self.patches_created += len(patches)
        return patches
