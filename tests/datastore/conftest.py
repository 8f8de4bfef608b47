"""Datastore-suite fixtures: every NetKV client a test opens is closed.

A client channel holds its connections as sockets of this process until
``close()``. The autouse fixture below fails a test that leaves a socket
open once its function-scoped fixtures (the servers they start
included) have torn down, by comparing the socket descriptors under
``/proc/self/fd`` before and after the test.
"""

from __future__ import annotations

import os
import time

import pytest

_FD_DIR = "/proc/self/fd"
_GRACE_SECONDS = 1.0


def _open_sockets():
    """``(fd, "socket:[inode]")`` of every socket this process holds."""
    found = set()
    for fd in os.listdir(_FD_DIR):
        try:
            target = os.readlink(os.path.join(_FD_DIR, fd))
        except OSError:  # closed while we looked
            continue
        if target.startswith("socket:"):
            found.add((fd, target))
    return found


@pytest.fixture(autouse=True)
def no_leaked_client_sockets():
    if not os.path.isdir(_FD_DIR):
        yield
        return
    before = _open_sockets()
    yield
    deadline = time.monotonic() + _GRACE_SECONDS
    leaked = _open_sockets() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.01)
        leaked = _open_sockets() - before
    if leaked:
        pytest.fail("test left sockets open (close every client and "
                    f"server it opens): {sorted(t for _, t in leaked)}")
