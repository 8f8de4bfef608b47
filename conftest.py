"""Pytest plugin shared by ``tests/`` and ``benchmarks/``: the markers
that gate heavy suites, and the ``REPRO_SKIP_*`` switches behind them.

Pytest loads a root ``conftest.py`` for every test under the repo, so
both suites get these markers from this one place. Setting one of the
variables below to a non-empty value skips every test or bench that
carries its marker.
"""

from __future__ import annotations

import os

import pytest

# (environment variable, marker, what a marked test or bench does)
GATES = [
    ("REPRO_SKIP_MULTI_SERVER", "multi_server",
     "spins up several live NetKV servers at once"),
    ("REPRO_SKIP_SERVICE", "service",
     "runs a live control-plane daemon and drives it over HTTP"),
    ("REPRO_SKIP_ASYNC", "async_transport",
     "targets the asyncio NetKV transport specifically (event-loop "
     "server, coalescing channel)"),
    ("REPRO_SKIP_PERSIST", "persist",
     "exercises durable shards (WAL fsync, crash recovery, snapshots, "
     "migration)"),
    ("REPRO_SKIP_MATCHER_SCALE", "matcher_scale",
     "builds 10k-40k-node resource graphs for the partitioned-matcher "
     "sweeps"),
]


def pytest_configure(config):
    for env, marker, what in GATES:
        config.addinivalue_line(
            "markers",
            f"{marker}: {what}; set {env}=1 to skip on constrained runners")


def pytest_collection_modifyitems(config, items):
    for env, marker, _ in GATES:
        if not os.environ.get(env):
            continue
        skip = pytest.mark.skip(reason=f"{env} is set")
        for item in items:
            if item.get_closest_marker(marker):
                item.add_marker(skip)
