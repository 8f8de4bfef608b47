"""Datastore-suite fixtures: every NetKV client a test opens is closed.

A client channel or cluster runs its own event-loop thread
(``netkv-chan:<port>`` / ``netkv-cluster``) until ``close()``. The
autouse fixture below fails a test that leaves one of those threads
alive once its function-scoped fixtures have torn down.
"""

from __future__ import annotations

import threading
import time

import pytest

_CLIENT_LOOP_PREFIXES = ("netkv-chan:", "netkv-cluster")
_GRACE_SECONDS = 1.0


def _client_loops():
    return {t for t in threading.enumerate()
            if t.name.startswith(_CLIENT_LOOP_PREFIXES)}


@pytest.fixture(autouse=True)
def no_leaked_client_loops():
    before = _client_loops()
    yield
    deadline = time.monotonic() + _GRACE_SECONDS
    leaked = _client_loops() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.01)
        leaked = {t for t in leaked if t.is_alive()}
    if leaked:
        pytest.fail("test left NetKV client loop threads running "
                    f"(close every client it opens): "
                    f"{sorted(t.name for t in leaked)}")
