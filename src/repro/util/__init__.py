"""Shared utilities: virtual time, discrete events, RNG, armoring, stats.

Everything in :mod:`repro` that touches time, randomness, or fallible
I/O goes through this package so that campaign-scale runs are both fast
(virtual time) and deterministic (seeded RNG streams).
"""

from repro.util.clock import VirtualClock, EventLoop, Event
from repro.util.rng import RngStream, spawn_rngs
from repro.util.armor import armored_call, ArmorError, RetryPolicy
from repro.util.locks import SharedState
from repro.util.stats import Summary, summarize, Histogram, percentile_of
from repro.util import units

__all__ = [
    "VirtualClock",
    "EventLoop",
    "Event",
    "RngStream",
    "spawn_rngs",
    "armored_call",
    "ArmorError",
    "RetryPolicy",
    "SharedState",
    "Summary",
    "summarize",
    "Histogram",
    "percentile_of",
    "units",
]
