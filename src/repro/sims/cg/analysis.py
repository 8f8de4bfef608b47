"""Online CG analysis: protein-lipid RDFs and frame candidates.

§4.1 (3): "Custom, Python-based analysis is executed simultaneously on
the same computational node ... the corresponding analysis is allocated
3 CPU cores." The analysis produces two streams the coordination layer
consumes:

- **RDFs** per lipid type (the CG→continuum feedback payload);
- **frame candidates**: "identifying information (~850 B) that is
  minimal and sufficient for the downstream tasks", here the id plus
  the 3-D configurational encoding of the RAS-RAF complex that the
  binned Frame Selector buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.datastore import serial
from repro.sims.cg.engine import CGSim

__all__ = ["RDFResult", "FrameCandidate", "CGAnalysis"]


@dataclass(frozen=True)
class RDFResult:
    """Protein-lipid radial distribution functions at one frame."""

    sim_id: str
    time: float
    edges: np.ndarray  # (nbins+1,)
    g: np.ndarray  # (n_lipid_types, nbins)

    def to_bytes(self) -> bytes:
        return serial.arrays_to_bytes(
            {
                "time": np.array([self.time]),
                "edges": self.edges,
                "g": self.g,
                "sim_id": np.frombuffer(self.sim_id.encode(), dtype=np.uint8),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RDFResult":
        arrays = serial.bytes_to_arrays(data)
        return cls(
            sim_id=arrays["sim_id"].tobytes().decode(),
            time=float(arrays["time"][0]),
            edges=arrays["edges"],
            g=arrays["g"],
        )


@dataclass(frozen=True)
class FrameCandidate:
    """Identifying information for one CG frame (≈850 B in the paper)."""

    frame_id: str
    sim_id: str
    time: float
    encoding: np.ndarray  # (3,) configurational coding of the complex

    def to_json(self) -> dict:
        return {
            "frame_id": self.frame_id,
            "sim_id": self.sim_id,
            "time": self.time,
            "encoding": [float(x) for x in self.encoding],
        }

    @classmethod
    def from_json(cls, row: dict) -> "FrameCandidate":
        return cls(
            frame_id=row["frame_id"],
            sim_id=row["sim_id"],
            time=float(row["time"]),
            encoding=np.asarray(row["encoding"], dtype=float),
        )


class CGAnalysis:
    """Per-simulation analysis module run alongside the engine."""

    def __init__(
        self,
        sim: CGSim,
        sim_id: str,
        rdf_rmax: Optional[float] = None,
        rdf_bins: int = 24,
    ) -> None:
        self.sim = sim
        self.sim_id = sim_id
        self.rdf_rmax = rdf_rmax if rdf_rmax is not None else sim.ff.cutoff * 3.0
        self.rdf_bins = rdf_bins
        self.frames_analyzed = 0

    # --- RDFs -------------------------------------------------------------

    def compute_rdf(self) -> RDFResult:
        """g(r) between the protein centroid and each lipid type.

        Normalized by shell area and bulk density so a featureless
        system gives g ≈ 1 at large r (2-D normalization).
        """
        sim = self.sim
        box = sim.config.box
        prot = sim.protein_mask()
        centroid = sim.positions[prot].mean(axis=0)
        lipid_names = sim.ff.lipid_type_names()
        edges = np.linspace(0.0, self.rdf_rmax, self.rdf_bins + 1)
        areas = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
        g = np.zeros((len(lipid_names), self.rdf_bins))
        d = sim._min_image(sim.positions - centroid)
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        for k, name in enumerate(lipid_names):
            sel = r[sim.type_ids == sim.ff.index_of(name)]
            if sel.size == 0:
                continue
            counts, _ = np.histogram(sel, bins=edges)
            density = sel.size / box**2
            g[k] = counts / (areas * density)
        return RDFResult(sim_id=self.sim_id, time=sim.time, edges=edges, g=g)

    # --- frame encoding ---------------------------------------------------------

    def encode_frame(self) -> np.ndarray:
        """The 3-D configurational coding of the RAS-RAF complex.

        Three disparate quantities (hence no meaningful L2 metric,
        which is why the Frame Selector bins instead):

        0. RAS–RAF centroid separation,
        1. complex orientation angle in [0, pi),
        2. complex radius of gyration.
        """
        sim = self.sim
        prot = np.nonzero(sim.protein_mask())[0]
        if prot.size < 2:
            raise ValueError("frame encoding needs at least two protein beads")
        pos = sim.positions[prot]
        # Unwrap the complex around its first bead (it is bonded and compact).
        rel = sim._min_image(pos - pos[0])
        ras_id = sim.ff.index_of("RAS")
        is_ras = sim.type_ids[prot] == ras_id
        if is_ras.any() and (~is_ras).any():
            sep = float(np.linalg.norm(rel[is_ras].mean(0) - rel[~is_ras].mean(0)))
        else:
            sep = 0.0
        centered = rel - rel.mean(axis=0)
        cov = centered.T @ centered / prot.size
        evals, evecs = np.linalg.eigh(cov)
        principal = evecs[:, -1]
        angle = float(np.arctan2(principal[1], principal[0]) % np.pi)
        rg = float(np.sqrt(np.trace(cov)))
        return np.array([sep, angle, rg])

    def frame_candidate(self) -> FrameCandidate:
        cand = FrameCandidate(
            frame_id=f"{self.sim_id}/f{self.frames_analyzed:06d}",
            sim_id=self.sim_id,
            time=self.sim.time,
            encoding=self.encode_frame(),
        )
        self.frames_analyzed += 1
        return cand

    # --- combined step (what the co-scheduled analysis job does) ------------

    def analyze(self) -> Dict:
        """One analysis pass: RDF + frame candidate for the current state."""
        return {"rdf": self.compute_rdf(), "candidate": self.frame_candidate()}
