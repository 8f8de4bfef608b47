"""Particle-system containers passed between the mapping tools and engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.datastore import serial

__all__ = ["CGSystem", "AASystem"]


@dataclass(frozen=True)
class CGSystem:
    """A ready-to-run CG system (output of createsim)."""

    positions: np.ndarray  # (n, 2)
    type_ids: np.ndarray  # (n,)
    bonds: np.ndarray  # (m, 3) of (i, j, rest_length)
    box: float
    source_patch: str = ""  # patch id this system was cut from

    @property
    def nparticles(self) -> int:
        return self.positions.shape[0]

    def to_bytes(self) -> bytes:
        return serial.arrays_to_bytes(
            {
                "positions": self.positions,
                "type_ids": self.type_ids,
                "bonds": self.bonds,
                "box": np.array([self.box]),
                "source_patch": np.frombuffer(self.source_patch.encode(), dtype=np.uint8),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CGSystem":
        arrays = serial.bytes_to_arrays(data)
        return cls(
            positions=arrays["positions"],
            type_ids=arrays["type_ids"],
            bonds=arrays["bonds"],
            box=float(arrays["box"][0]),
            source_patch=arrays["source_patch"].tobytes().decode(),
        )


@dataclass(frozen=True)
class AASystem:
    """A ready-to-run AA system (output of backmapping)."""

    positions: np.ndarray  # (n, 2)
    bonds: np.ndarray  # (m, 3)
    backbone: np.ndarray  # chain-ordered backbone atom indices
    box: float
    source_frame: str = ""  # CG frame id this system was backmapped from

    @property
    def natoms(self) -> int:
        return self.positions.shape[0]

    def to_bytes(self) -> bytes:
        return serial.arrays_to_bytes(
            {
                "positions": self.positions,
                "bonds": self.bonds,
                "backbone": self.backbone,
                "box": np.array([self.box]),
                "source_frame": np.frombuffer(self.source_frame.encode(), dtype=np.uint8),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "AASystem":
        arrays = serial.bytes_to_arrays(data)
        return cls(
            positions=arrays["positions"],
            bonds=arrays["bonds"],
            backbone=arrays["backbone"],
            box=float(arrays["box"][0]),
            source_frame=arrays["source_frame"].tobytes().decode(),
        )
