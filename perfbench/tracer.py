"""Wrapper-based tracing for the traced run (``--trace 1``).

The program's own ``repro.trace`` spans stay off. Instead the workloads
install wrappers, from these benchmark files, around the public calls
into each layer. A wrapper records the call's duration and, per thread,
its *self* time: the duration minus the part covered by wrapped calls
nested inside it on the same thread. Optionally it also logs
``(start, end, layer, name, tenant)`` intervals so a multi-threaded
workload can attribute a timeline across threads
(:func:`attribute_timeline`).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float, str, str, Optional[str]]

_INHERITED = object()  # marks an attribute the owner did not define itself


class Recorder:
    """Installs wrappers and accumulates per-call and per-layer time."""

    def __init__(self, log_intervals: bool = False) -> None:
        self.log_intervals = log_intervals
        self.durations: Dict[str, array] = {}
        self.intervals: List[Interval] = []
        self._tls = threading.local()
        self._thread_self: List[Tuple[int, Dict[str, float]]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.main_ident = threading.get_ident()

    # --- recording ---------------------------------------------------------

    def series(self, name: str) -> array:
        """Duration samples (seconds) recorded under ``name``."""
        if name not in self.durations:
            self.durations[name] = array("d")
        return self.durations[name]

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._tls.self_time = defaultdict(float)
            self._thread_self.append((threading.get_ident(),
                                      self._tls.self_time))
        return stack

    def call(self, fn: Callable, args: tuple, kwargs: dict, name: str,
             layer: str, tenant: Optional[str] = None):
        """Run ``fn`` as one wrapped call of ``name`` in ``layer``."""
        if getattr(self._tls, "paused", False):
            return fn(*args, **kwargs)
        stack = self._stack()
        if tenant is None and stack:
            tenant = stack[-1][3]
        frame = [time.perf_counter(), 0.0, layer, tenant]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - frame[0]
            if stack:
                stack[-1][1] += dur
            self._tls.self_time[layer] += dur - frame[1]
            self.series(name).append(dur)
            if self.log_intervals:
                self.intervals.append((frame[0], t1, layer, name, tenant))

    def note(self, t0: float, t1: float, layer: str, name: str,
             tenant: Optional[str]) -> None:
        """Record a waiting interval that is not a call (e.g. queue wait)."""
        self.series(name).append(t1 - t0)
        if self.log_intervals:
            self.intervals.append((t0, t1, layer, name, tenant))

    @contextlib.contextmanager
    def paused(self):
        """Leave this thread's calls unrecorded (the benchmark's own checks)."""
        self._tls.paused = True
        try:
            yield
        finally:
            self._tls.paused = False

    # --- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str,
             tenant_of: Optional[Callable[[tuple, dict], Optional[str]]] = None
             ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        wrapper recording each call as ``name`` in ``layer``."""
        original = getattr(owner, attr)
        self.series(name)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tenant = tenant_of(args, kwargs) if tenant_of is not None else None
            return recorder.call(original, args, kwargs, name, layer, tenant)

        self.patch(owner, attr, wrapper)

    def wrap_many(self, specs: Iterable[Sequence]) -> None:
        for spec in specs:
            self.wrap(*spec)

    def patch(self, owner, attr: str, replacement) -> None:
        """Install a hand-written wrapper (restored by :meth:`uninstall`)."""
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def self_time(self, main_only: bool = False) -> Dict[str, float]:
        """Per-layer self time (s), over every thread or the main one."""
        out: Dict[str, float] = defaultdict(float)
        for ident, per_layer in list(self._thread_self):
            if main_only and ident != self.main_ident:
                continue
            for layer, seconds in list(per_layer.items()):
                out[layer] += seconds
        return dict(out)

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def p50_us(self, name: str) -> float:
        values = sorted(self.durations.get(name, ()))
        return values[len(values) // 2] * 1e6 if values else 0.0


def union(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping intervals."""
    merged: List[List[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def length(intervals: Iterable[Tuple[float, float]]) -> float:
    return sum(b - a for a, b in intervals)


def subtract(base: List[Tuple[float, float]],
             cut: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """``base`` minus ``cut`` (both already merged and sorted)."""
    out = []
    j = 0
    for a, b in base:
        while j < len(cut) and cut[j][1] <= a:
            j += 1
        k = j
        start = a
        while k < len(cut) and cut[k][0] < b:
            if cut[k][0] > start:
                out.append((start, cut[k][0]))
            start = max(start, cut[k][1])
            k += 1
        if start < b:
            out.append((start, b))
    return out


def attribute_timeline(window: Tuple[float, float],
                       intervals: Iterable[Tuple[float, float, str]],
                       priority: Sequence[str]) -> Dict[str, float]:
    """Split ``window`` among layers active in it, across threads.

    At every instant the time goes to the active layer that comes first
    in ``priority`` (innermost layers first), so the shares sum to the
    window; instants with no active layer go to ``"unattributed"``.
    """
    rank = {layer: i for i, layer in enumerate(priority)}
    lo, hi = window
    events = []
    for a, b, layer in intervals:
        a, b = max(a, lo), min(b, hi)
        if b > a and layer in rank:
            events.append((a, 1, rank[layer]))
            events.append((b, -1, rank[layer]))
    events.sort()
    active = [0] * len(priority)
    out: Dict[str, float] = defaultdict(float)
    t = lo
    for when, delta, r in events:
        if when > t:
            top = next((i for i, n in enumerate(active) if n), None)
            out[priority[top] if top is not None else "unattributed"] += when - t
            t = when
        active[r] += delta
    if hi > t:
        out["unattributed"] += hi - t
    return dict(out)


def render_table(title: str, wall_s: float, rows: Dict[str, float],
                 counts: Dict[str, str], overhead: float) -> str:
    """One per-layer budget table; shares sum to ``wall_s``."""
    lines = [f"== {title}: per-layer self time (wall {wall_s:.3f} s) ==",
             f"  {'layer':<34s} {'self s':>10s} {'share':>7s}  notes"]
    for layer, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        if layer == "unattributed":
            continue
        share = seconds / wall_s if wall_s else 0.0
        lines.append(f"  {layer:<34s} {seconds:>10.3f} {share:>7.1%}  "
                     f"{counts.get(layer, '')}")
    rest = rows.get("unattributed", 0.0)
    lines.append(f"  {'unattributed remainder':<34s} {rest:>10.3f} "
                 f"{(rest / wall_s if wall_s else 0.0):>7.1%}")
    lines.append(f"  {'tracing overhead (traced/untraced)':<34s} "
                 f"{overhead:>10.3f}x")
    return "\n".join(lines)
