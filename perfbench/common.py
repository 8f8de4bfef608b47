"""Helpers shared by the perfbench workloads.

Everything here is benchmark plumbing: percentiles, peak-RSS, the
result stamp, a scratch directory inside the checkout, and the durable
3-shard NetKV child process that two workloads share.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_tmp")
SETUPS = 5  # set-ups per run; setup_s is their median


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def _spin(objs: List[object], order: List[int]) -> int:
    """The host-speed probe: fixed interpreter work over a heap larger
    than the CPU caches, as the workloads' own work is."""
    table: Dict[int, object] = {}
    acc = 0
    for j, i in enumerate(order):
        obj = objs[i]
        table[j & 4095] = obj
        acc ^= id(obj)
    return acc


class HostSpeed:
    """How fast the host runs this process right now.

    On a shared host the same interpreter work takes up to twice as long
    from one second to the next, and program wall time follows. A probe
    of fixed work (``_spin``) is timed at quiet moments between units of
    measured work, or from a ``SIGALRM`` timer in the main thread while a
    single-threaded workload runs; a unit's *slowdown* is the median
    probe time around it divided by ``PROBE_REF_S``. Times are reported
    divided by it, rates multiplied by it: as they would read on a host
    where the probe takes ``PROBE_REF_S``. ``paused_s`` is the time spent
    probing; timers subtract it from what they measure.
    """

    PROBE_REF_S = 0.025  # the probe on this benchmark's reference host

    def __init__(self) -> None:
        rng = random.Random(1)
        self._objs = [object() for _ in range(400_000)]
        self._order = [rng.randrange(len(self._objs)) for _ in range(60_000)]
        self.samples: List[tuple] = []  # (start, seconds)
        self.paused_s = 0.0
        self._period = 0.0
        self._previous = None

    def probe(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            _spin(self._objs, self._order)
            t1 = time.perf_counter()
            self.samples.append((t0, t1 - t0))
            self.paused_s += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probe()
        self.paused_s += time.perf_counter() - t0 - self.samples[-1][1]

    def start_timer(self, period: float = 0.25) -> None:
        """Probe every ``period`` seconds from the main thread until
        :meth:`stop_timer`."""
        self._period = period
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop_timer(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe time around ``[t0, t1]`` over ``PROBE_REF_S``."""
        margin = max(self._period, 0.5)
        near = [dt for t, dt in self.samples if t0 - margin <= t <= t1 + margin]
        if not near:
            near = [dt for _t, dt in self.samples]
        return median(near) / self.PROBE_REF_S


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Largest peak RSS among waited-for child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


_SCRATCH: List[str] = []
_CHILDREN: List["ShardChild"] = []  # started and not yet stopped


def scratch_dir(tag: str) -> str:
    """A fresh directory under the checkout's ``.perfbench_tmp``."""
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK)
    _SCRATCH.append(path)
    return path


def cleanup_scratch() -> None:
    """Stop any shard child still running, then remove this process's
    scratch directories (and WORK once empty)."""
    while _CHILDREN:
        _CHILDREN.pop().stop()
    while _SCRATCH:
        shutil.rmtree(_SCRATCH.pop(), ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass  # another run still uses it


def _src_digest() -> str:
    """Content hash of ``src/`` (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def stamp(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """Provenance recorded with every result."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class ShardChild:
    """Three durable NetKV shards (fsync on) in one child process.

    Runs ``shardproc.py``, which serves exactly what
    ``repro netkv --serve 3 --persist DIR`` serves. Stopping sends
    SIGINT (the CLI's clean-shutdown path) and waits for the exit; the
    child then writes its stats (peak RSS, WAL timings when traced).
    """

    def __init__(self, trace: bool = False) -> None:
        self.dir = scratch_dir("shards")
        self.stats_path = os.path.join(self.dir, "stats.json")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-u", os.path.join(HERE, "shardproc.py"),
             "--dir", os.path.join(self.dir, "data"),
             "--stats", self.stats_path, "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        _CHILDREN.append(self)
        self.url = self._await_url()

    def _await_url(self) -> str:
        line = self.proc.stdout.readline()
        match = re.search(r"(netkv://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"shard child did not start: {line!r} "
                               f"{self.proc.stderr.read()[-2000:]!r}")
        return match.group(1)

    def stop(self) -> Dict[str, object]:
        if self in _CHILDREN:
            _CHILDREN.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.proc.stderr.close()
        try:
            with open(self.stats_path, encoding="utf-8") as fh:
                stats = json.load(fh)
        except (OSError, ValueError):
            stats = {}
        shutil.rmtree(self.dir, ignore_errors=True)
        return stats


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, note: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, cond: bool, note: str) -> bool:
        """An output check is one operation; a false one fails it."""
        if cond:
            self.ok()
        else:
            self.fail(note)
        return cond
