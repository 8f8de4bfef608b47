"""The guard over Workflow Manager state.

Section 4.4 ("Parallelism and Locking"): the four WM tasks share objects
such as the Patch Selector. Here one thread, the one driving the rounds,
writes that state; :class:`SharedState` is the blocking lock it holds
while writing, so readers on other threads see whole updates, and it
counts how often a thread had to wait.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["SharedState", "LockStats"]


class LockStats:
    """Counters for lock contention, used by workflow profiling.

    Both fields are cumulative counts: ``acquisitions`` — lock
    acquisitions; ``contentions`` — acquisitions that had to wait
    because another thread held the lock.
    """

    __slots__ = ("acquisitions", "contentions")

    def __init__(self) -> None:
        self.acquisitions = 0
        self.contentions = 0

    def as_dict(self) -> dict:
        return {
            "acquisitions": self.acquisitions,
            "contentions": self.contentions,
        }


class SharedState:
    """An object wrapper serializing access through an RLock.

    >>> counter = SharedState({"n": 0})
    >>> with counter.locked() as d:
    ...     d["n"] += 1
    """

    def __init__(self, obj: Any) -> None:
        self._obj = obj
        self._lock = threading.RLock()
        self.stats = LockStats()

    @contextmanager
    def locked(self) -> Iterator[Any]:
        """Blocking acquisition; yields the wrapped object."""
        acquired_immediately = self._lock.acquire(blocking=False)
        if not acquired_immediately:
            self.stats.contentions += 1
            self._lock.acquire()
        try:
            self.stats.acquisitions += 1
            yield self._obj
        finally:
            self._lock.release()
