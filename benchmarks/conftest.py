"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures and both
prints the series and appends it to ``benchmarks/results/<name>.txt``
so the numbers survive pytest's output capture. EXPERIMENTS.md records
the paper-vs-measured comparison for each. The ``REPRO_SKIP_*`` gates
and their markers come from the repo-root ``conftest.py``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
from typing import Any, Dict, Iterable, Iterator, List, Tuple

import pytest

from repro.core.campaign import CampaignConfig, CampaignSimulator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def provenance(key: str) -> Dict[str, Any]:
    """Commit, src digest, python and nproc, from perfbench's ``stamp()``
    (``perfbench/`` is a script directory, so ``common`` loads by path)."""
    path = os.path.join(REPO_ROOT, "perfbench", "common.py")
    spec = importlib.util.spec_from_file_location("perfbench_common", path)
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    full = common.stamp(key, seed=0, trace=False)
    return {field: full[field] for field in ("commit", "src_digest", "python", "nproc")}


def report(name: str, lines: Iterable[str]) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    print(f"\n[{name}]\n{text}")
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def record_json(filename: str, key: str, payload: Dict[str, Any]) -> None:
    """Merge one benchmark's machine-readable results into a repo-root
    JSON ledger (e.g. ``BENCH_sampler.json``) under ``key``.

    Merge-on-write so independent benchmarks (run in any order, or one
    at a time) never clobber each other's sections. Each entry is
    stamped with its :func:`provenance` under ``"provenance"``.
    """
    path = os.path.join(REPO_ROOT, filename)
    data: Dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, OSError):
            data = {}
    data[key] = {**payload, "provenance": provenance(key)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def shard_child(nshards: int) -> Iterator[List[Tuple[str, int]]]:
    """``nshards`` in-memory NetKV shards served by a child process
    (``python -m repro netkv --serve N``, as perfbench's ``ShardChild``
    runs them); yields their addresses. Clients timed against them
    measure the wire, not GIL hand-offs with a shard loop thread in
    their own process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "netkv", "--serve", str(nshards)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        match = re.search(r"netkv://(\S+)", line)
        if match is None:
            raise RuntimeError(f"shard child did not start: {line!r}")
        yield [(host, int(port)) for host, port in
               (a.rsplit(":", 1) for a in match.group(1).split(","))]
    finally:
        proc.send_signal(signal.SIGINT)  # the CLI's clean shutdown
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
        proc.stderr.close()


@pytest.fixture(scope="session")
def campaign_result():
    """The full paper-ledger campaign, simulated once per bench session.

    Takes about a minute of wall time for 600,600 virtual node-hours;
    Table 1 and Figs. 3-5 all read from this one run.
    """
    sim = CampaignSimulator(CampaignConfig(seed=2021))
    return sim.run()
