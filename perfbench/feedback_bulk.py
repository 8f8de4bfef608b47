"""Workload ``feedback_bulk``: the Fig. 7 feedback path on a durable store.

The store is three durable NetKV shards (fsync on) in a child process,
opened with ``?replication=2``. Each iteration, 64 simulated CG
analyses write 1,000 ``RDFResult`` frames (2 lipid types x 24 bins), one
``store.write`` each, as ``WorkflowManager._run_cg_sim`` does; then one
``CGToContinuumFeedback.run_iteration`` collects them (key scan plus
pipelined MGET), processes them, and tags them (one ``move`` per key).
No WM, service or scheduler code runs.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Dict, List, Tuple

import numpy as np

from metrics import self_fracs
from common import (SETUPS, HostSpeed, ShardChild, Tally, children_rss_mb, median, pct,
                    self_rss_mb)
from storelayers import (store_counts, store_metrics, transport_snapshot,
                         wrap_store_layers)
from tracer import Recorder, render_table

ANALYSES = 64
FRAMES = 1000
WARMUP_FRAMES = 64
LIVE, DONE = "rdf/live/", "rdf/done/"


def make_frames(seed: int) -> List[Tuple[str, bytes]]:
    """1,000 seeded RDF frames: (suffix, payload) from 64 analyses."""
    from repro.sims.cg.analysis import RDFResult

    rng = np.random.default_rng([seed, 7])
    edges = np.linspace(0.0, 3.0, 25)
    frames = []
    for k in range(FRAMES):
        sim_id = f"cg{k % ANALYSES:05d}"
        chunk = k // ANALYSES
        g = rng.gamma(4.0, 0.25, size=(2, 24))
        rdf = RDFResult(sim_id=sim_id, time=float(chunk), edges=edges, g=g)
        frames.append((f"{sim_id}-{chunk:03d}", rdf.to_bytes()))
    return frames


class Loop:
    """One shard child, one store client, one continuum and its manager."""

    def __init__(self, seed: int, trace: bool, host: HostSpeed) -> None:
        from repro.app.feedback import CGToContinuumFeedback
        from repro.datastore.base import open_store
        from repro.sims.continuum.ddft import ContinuumConfig, ContinuumSim

        self.shards = ShardChild(trace=trace)
        self.store = open_store(self.shards.url + "?replication=2")
        self.continuum = ContinuumSim(ContinuumConfig(
            grid=12, n_inner=2, n_outer=2, n_proteins=3, dt=0.25, seed=seed))
        self.manager = CGToContinuumFeedback(self.store, self.continuum)
        self.iterations = 0
        self.host = host
        self.rec = None  # set while traced: checks are left out of the trace

    def iterate(self, frames, tally: Tally) -> dict:
        """Write the frames, run one feedback iteration, check the outcome.

        Times exclude host-speed probing (see ``HostSpeed``)."""
        from repro.datastore.base import StoreError

        host = self.host
        write_ms: List[float] = []
        it = self.iterations
        self.iterations += 1
        version = self.continuum.coupling_version
        gc.collect()  # every iteration starts from the same heap state
        paused = host.paused_s
        t0 = time.perf_counter()
        written = 0
        for suffix, payload in frames:
            key = f"{LIVE}i{it:05d}-{suffix}"
            p0 = host.paused_s
            w0 = time.perf_counter()
            try:
                self.store.write(key, payload)
            except StoreError as exc:
                tally.fail(f"write {key}: {exc}")
                continue
            write_ms.append((time.perf_counter() - w0 - (host.paused_s - p0)) * 1e3)
            written += 1
        tally.ok(written)
        report = self.manager.run_iteration(now=float(it))
        t1 = time.perf_counter()
        wall = t1 - t0 - (host.paused_s - paused)
        slowdown = host.slowdown(t0, t1)
        with self.rec.paused() if self.rec else contextlib.nullcontext():
            self._check(it, frames, written, version, report, tally)
        return {"wall": wall, "slowdown": slowdown, "frames": written,
                "report": report, "write_ms": write_ms}

    def _check(self, it, frames, written, version, report, tally) -> None:
        tally.check(not report.error, f"iteration {it}: {report.error}")
        tally.check(report.n_items == written,
                    f"iteration {it}: collected {report.n_items} of {written}")
        tally.check(self.continuum.coupling_version == version + 1,
                    f"iteration {it}: coupling version {version} -> "
                    f"{self.continuum.coupling_version}")
        tally.check(not self.store.keys(LIVE), f"iteration {it}: live not empty")
        done = self.store.keys(DONE)
        tally.check(len(done) == written,
                    f"iteration {it}: done holds {len(done)} of {written}")
        sample = {f"{DONE}i{it:05d}-{s}": p for s, p in frames[::97]}
        got = self.store.read_present(list(sample))
        tally.check(got == sample, f"iteration {it}: tagged payloads differ")
        # Keep live data bounded: the next iteration starts from empty.
        self.store.delete_many(done)

    def close(self) -> Dict[str, object]:
        self.store.close()
        return self.shards.stop()


def _setup(seed: int, trace: bool, tally: Tally, warm,
           host: HostSpeed) -> Tuple[float, Loop]:
    """Set-up seconds at the reference host speed, and the ready loop."""
    host.probe(3)
    t0 = time.perf_counter()
    loop = Loop(seed, trace, host)
    loop.iterate(warm, tally)
    return (time.perf_counter() - t0) / host.slowdown(t0, t0), loop


def run(seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    host = HostSpeed()
    frames = make_frames(seed)
    warm = frames[:WARMUP_FRAMES]
    setups = []
    for _ in range(SETUPS - 1):
        took, loop = _setup(seed, trace, tally, warm, host)
        setups.append(took)
        loop.close()
    took, loop = _setup(seed, trace, tally, warm, host)
    setups.append(took)

    iters: List[dict] = []
    baseline: List[dict] = []
    rec = None
    try:
        t_start = time.perf_counter()
        if trace:
            # Untraced iterations first: the tracing-overhead reference.
            while len(baseline) < 2 or time.perf_counter() - t_start < seconds / 3:
                baseline.append(loop.iterate(frames, tally))
            rec = loop.rec = Recorder()
            wrap_store_layers(rec)
            _wrap_feedback(rec)
            before = transport_snapshot(loop.store)
        else:
            host.start_timer()
        while len(iters) < 3 or time.perf_counter() - t_start < seconds:
            iters.append(loop.iterate(frames, tally))
    finally:
        host.stop_timer()
        if rec is not None:
            rec.uninstall()
        after = transport_snapshot(loop.store)
        child = loop.close()

    walls = [i["wall"] for i in iters]
    out = {"tally": tally, "setup_s": median(setups),
           "peak_rss_mb": self_rss_mb() + children_rss_mb()}
    if not trace:
        # Every iteration writes and feeds back the identical frames. Each
        # iteration's times are scaled by the host slowdown probed during
        # it; report medians over iterations and over all writes.
        walls_ref = [i["wall"] / i["slowdown"] for i in iters]
        write_ms = [ms / i["slowdown"] for i in iters for ms in i["write_ms"]]
        p50s = [pct(i["write_ms"], 0.50) for i in iters]
        p90s = [pct(i["write_ms"], 0.90) for i in iters]
        out["metrics"] = {
            "throughput_per_s": (median([i["frames"] / w
                                         for i, w in zip(iters, walls_ref)]), "1/s"),
            "latency_ms_p90": (pct(write_ms, 0.90), "ms"),
            "makespan_s": (median(walls_ref), "s"),
        }
        m = out["metrics"]
        out["lines"] = [
            f"fb_frames_per_s     {m['throughput_per_s'][0]:.1f} 1/s "
            f"(median of {len(iters)} iterations x {FRAMES} frames)",
            f"fb_write_ms         p50 {pct(write_ms, 0.50):.4f} "
            f"p90 {m['latency_ms_p90'][0]:.4f} ms ({len(write_ms)} writes)",
            "iteration walls s   " + " ".join(f"{w:.4f}" for w in walls),
            "iteration tag s     " + " ".join(f"{i['report'].tag_seconds:.4f}"
                                              for i in iters),
            "iteration write s   " + " ".join(f"{sum(i['write_ms']) / 1e3:.4f}"
                                              for i in iters),
            "iteration write p50 " + " ".join(f"{v:.4f}" for v in p50s),
            "iteration write p90 " + " ".join(f"{v:.4f}" for v in p90s),
            "host slowdown       " + " ".join(f"{i['slowdown']:.3f}" for i in iters),
        ]
        return out

    n = len(iters)
    wall = sum(walls)
    rows = rec.self_time(main_only=True)
    rows["unattributed"] = max(0.0, wall - sum(rows.values()))
    reports = [i["report"] for i in iters]
    per_layer = store_metrics(rec, rows, before, after, child, units=n,
                              child_units=len(baseline) + n + WARMUP_FRAMES / FRAMES)
    per_layer.update(self_fracs(rows, wall))
    per_layer.update({
        "feedback.collect_ms": (median([r.collect_seconds for r in reports]) * 1e3, "ms"),
        "feedback.process_ms": (median([r.process_seconds for r in reports]) * 1e3, "ms"),
        "feedback.tag_ms": (median([r.tag_seconds for r in reports]) * 1e3, "ms"),
        "feedback.items_per_iter": (median([r.n_items for r in reports]), "count"),
    })
    overhead = median(walls) / median([b["wall"] for b in baseline])
    per_layer["trace.unattributed_frac"] = (rows["unattributed"] / wall, "ratio")
    per_layer["trace.overhead_x"] = (overhead, "ratio")
    counts = store_counts(rec)
    counts["feedback"] = f"{n} iterations, {rec.count('feedback.tag')} tag calls"
    out["lines"] = [render_table(f"feedback_bulk ({n} traced iterations)",
                                 wall, rows, counts, overhead)]
    out["per_layer"] = per_layer
    return out


def _wrap_feedback(rec: Recorder) -> None:
    from repro.app.feedback import CGToContinuumFeedback
    from repro.core.feedback import FeedbackManager, StoreFeedbackMixin

    rec.wrap_many([
        (FeedbackManager, "run_iteration", "feedback.run_iteration", "feedback"),
        (StoreFeedbackMixin, "collect", "feedback.collect", "feedback"),
        (StoreFeedbackMixin, "tag", "feedback.tag", "feedback"),
        (CGToContinuumFeedback, "process", "feedback.process", "feedback"),
        (CGToContinuumFeedback, "report", "feedback.report", "feedback"),
    ])
