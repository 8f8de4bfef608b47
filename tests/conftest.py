"""Shared test configuration: a per-test watchdog alarm.

The transport suite deliberately exercises dead sockets, half-closed
connections, and injected network faults. If one of those tests ever
regresses into a real hang it must fail fast, not wedge the whole
tier-1 run. ``pytest-timeout`` is not available in the container, so
this is the equivalent: a SIGALRM-based alarm around each test's call
phase (fixtures — including the slow session-scoped ones — are not
under the alarm).

Override per test with ``@pytest.mark.timeout(seconds)``. The markers
that gate heavy suites (``REPRO_SKIP_*``) live in the repo-root
``conftest.py``, shared with ``benchmarks/``.
"""

from __future__ import annotations

import signal
import threading

import pytest

DEFAULT_TIMEOUT_SECONDS = 120.0

_ALARM_USABLE = (
    hasattr(signal, "SIGALRM")
    and threading.current_thread() is threading.main_thread()
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if its call phase exceeds the "
        f"watchdog (default {DEFAULT_TIMEOUT_SECONDS:.0f}s)",
    )
    config.addinivalue_line(
        "markers",
        "chaos: randomized chaos campaign; campaign count scales with "
        "REPRO_CHAOS_CAMPAIGNS (default 5; see CHAOS.md for nightly settings)",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not _ALARM_USABLE:
        return (yield)
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if (marker and marker.args) else DEFAULT_TIMEOUT_SECONDS

    def on_alarm(signum, frame):  # raises in the main thread, interrupting
        pytest.fail(               # even a blocking socket recv()
            f"watchdog: test exceeded {seconds:.0f}s "
            f"(likely a hung socket or deadlock)", pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
