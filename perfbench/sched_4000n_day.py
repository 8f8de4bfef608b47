"""Workload ``sched_4000n_day``: Table 1's 4000-node x 24 h allocation.

``CampaignSimulator`` with the paper's ``CampaignConfig`` defaults
(FIRST_MATCH matcher, async queue) over one 4000-node, 24-hour run in
virtual time. No store, service or WM code runs: the queue, matcher,
resource graph and event loop are nearly all of the wall time.

Each measured repeat simulates the same seeded day again; the outputs
must repeat exactly and match the recorded reference for known seeds.
"""

from __future__ import annotations

import gc
import statistics
import time
from array import array
from typing import Dict, List

from common import SETUPS, HostSpeed, Tally, median, pct, self_rss_mb
from metrics import self_fracs
from tracer import Recorder, render_table

NODES, HOURS = 4000, 24

#: seed -> (job starts, CG sims, AA sims, mean GPU occupancy %) of the
#: 4000-node x 24 h day, as the program computed them when this
#: benchmark was written. Other seeds are checked for repeatability only.
REFERENCE: Dict[int, tuple] = {
    1: (24687, 19052, 5280, 91.10089699074074),
    2: (24672, 19044, 5280, 91.12566550925926),
    3: (24675, 19043, 5280, 91.09351851851852),
    4: (24677, 19045, 5280, 91.15512152777777),
    5: (24676, 19043, 5280, 91.09693287037037),
    6: (24685, 19050, 5280, 91.13712384259259),
    7: (24678, 19045, 5280, 91.0878761574074),
    8: (24676, 19045, 5280, 91.28237847222222),
    9: (24677, 19047, 5280, 91.16475694444445),
    10: (24686, 19050, 5280, 91.14884259259259),
}


def _config(seed: int, hours: float = HOURS):
    from repro.core.campaign import CampaignConfig, RunSpec

    return CampaignConfig(ledger=(RunSpec(NODES, hours, 1),), seed=seed)


class _FluxCapture:
    """Keeps the FluxInstance each simulated run builds, for the checks."""

    def __init__(self) -> None:
        from repro.sched.flux import FluxInstance

        self.cls = FluxInstance
        self.original = FluxInstance.__dict__["__init__"]
        self.last = None
        capture = self

        def init(inst, *args, **kwargs):
            capture.original(inst, *args, **kwargs)
            capture.last = inst

        FluxInstance.__init__ = init

    def close(self) -> None:
        self.cls.__init__ = self.original


def _time_cycles(series: array, host: HostSpeed):
    """Untraced cycle timer: wall time, less host-speed probing, of each
    QueueManager.cycle that started at least one job (the cycles where
    matching happens)."""
    from repro.sched.queue import QueueManager

    original = QueueManager.__dict__["cycle"]

    def cycle(self, now, budget):
        paused = host.paused_s
        t0 = time.perf_counter()
        report = original(self, now, budget)
        if report.started:
            series.append(time.perf_counter() - t0 - (host.paused_s - paused))
        return report

    QueueManager.cycle = cycle
    return lambda: setattr(QueueManager, "cycle", original)


def _one_day(seed: int, capture: _FluxCapture, cycles: array,
             host: HostSpeed) -> dict:
    from repro.core.campaign import CampaignSimulator

    sim = CampaignSimulator(_config(seed))
    del cycles[:]
    gc.collect()  # every day starts from the same heap state
    paused = host.paused_s
    t0 = time.perf_counter()
    result = sim.run()
    t1 = time.perf_counter()
    wall = t1 - t0 - (host.paused_s - paused)
    flux = capture.last
    graph = flux.graph
    gpu = [e.gpu_occupancy for e in result.profile_events]
    running = [r.allocation for r in flux.queue.running.values()
               if r.allocation is not None]
    return {
        "wall": wall,
        "slowdown": host.slowdown(t0, t1),
        "cycle_ms": [c * 1e3 for c in cycles],
        "starts": len(flux.start_log),
        "cg_sims": int(result.counters["cg_sims"]),
        "aa_sims": int(result.counters["aa_sims"]),
        "gpu_pct": 100.0 * statistics.fmean(gpu) if gpu else 0.0,
        # Capacity conservation: what the graph reports in use is exactly
        # what the running allocations hold, and used + free is the total.
        "capacity_ok": (
            graph.used_cores == sum(a.ncores for a in running)
            and graph.used_gpus == sum(a.ngpus for a in running)
            and graph.used_cores + graph.free_cores == graph.total_cores
            and graph.used_gpus + graph.free_gpus == graph.total_gpus),
        "match_stats": flux.matcher.stats,
        "npartitions": graph.npartitions,
    }


def _setup_once(seed: int, host: HostSpeed) -> float:
    """Simulator + graph construction and a 1 h warm-up day, in seconds
    at the reference host speed."""
    from repro.core.campaign import CampaignSimulator
    from repro.sched.resources import summit_like

    host.probe(3)
    t0 = time.perf_counter()
    CampaignSimulator(_config(seed))
    summit_like(NODES)
    CampaignSimulator(_config(seed, hours=1)).run()
    return (time.perf_counter() - t0) / host.slowdown(t0, t0)


def _outputs(day: dict) -> tuple:
    return (day["starts"], day["cg_sims"], day["aa_sims"], day["gpu_pct"])


def _check(day: dict, first: dict, seed: int, tally: Tally) -> None:
    key = _outputs(day)
    ref = REFERENCE.get(seed)
    if ref is not None:
        tally.check(key == ref, f"seed {seed}: outputs {key} != reference {ref}")
    base = _outputs(first)
    tally.check(key == base, f"repeat differs: {key} != {base}")
    tally.check(day["capacity_ok"],
                "used capacity != running allocations, or used + free != total")
    tally.check(day["starts"] > 0 and 0.0 < day["gpu_pct"] <= 100.0,
                f"implausible day: {key}")


def _wrap_layers(rec: Recorder) -> None:
    from repro.core.campaign import CampaignSimulator
    from repro.core.profiling import OccupancyProfiler
    from repro.sched.flux import FluxInstance
    from repro.sched.matcher import Matcher
    from repro.sched.queue import QueueManager
    from repro.sched.resources import ResourceGraph
    from repro.util.clock import EventLoop

    rec.wrap_many([
        (CampaignSimulator, "run", "campaign.run", "core.campaign"),
        (EventLoop, "run_until", "clock.run_until", "util.clock"),
        (FluxInstance, "submit", "flux.submit", "sched.flux"),
        (QueueManager, "cycle", "queue.cycle", "sched.queue"),
        (QueueManager, "finish", "queue.finish", "sched.queue"),
        (Matcher, "match", "matcher.match", "sched.matcher"),
        (Matcher, "release", "matcher.release", "sched.matcher"),
        (ResourceGraph, "claim", "resources.claim", "sched.resources"),
        (ResourceGraph, "release", "resources.release", "sched.resources"),
        (ResourceGraph, "feasible_ids", "resources.feasible_ids",
         "sched.resources"),
        (OccupancyProfiler, "poll", "profiling.poll", "core.profiling"),
    ])
    # Event callbacks are closures and bound privates; attribute them by
    # the label they are scheduled under.
    by_label = {"wm-poll": ("campaign.scan", "core.campaign"),
                "node-fail": ("campaign.scan", "core.campaign"),
                "flux-cycle": ("flux.cycle", "sched.flux"),
                "job-done": ("flux.complete", "sched.flux"),
                "profile": ("profiling.tick", "core.profiling")}
    for name, _layer in by_label.values():
        rec.series(name)
    original = EventLoop.__dict__["schedule_at"]

    def schedule_at(loop, t, callback, *args, label=""):
        name, layer = by_label.get(label, ("clock.callback", "util.clock"))

        def timed(*cb_args):
            return rec.call(callback, cb_args, {}, name, layer)

        return original(loop, t, timed, *args, label=label)

    rec.patch(EventLoop, "schedule_at", schedule_at)


def run(seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    host = HostSpeed()
    setups = [_setup_once(seed, host) for _ in range(SETUPS)]
    capture = _FluxCapture()
    cycles = array("d")
    days: List[dict] = []
    rec = None
    untimer = None
    try:
        t_start = time.perf_counter()
        baseline = None
        if trace:
            # One untraced day first: the tracing-overhead reference.
            baseline = _one_day(seed, capture, cycles, host)
            _check(baseline, baseline, seed, tally)
            rec = Recorder()
            _wrap_layers(rec)
        else:
            untimer = _time_cycles(cycles, host)
            host.start_timer()
        while len(days) < 2 or time.perf_counter() - t_start < seconds:
            day = _one_day(seed, capture, cycles, host)
            days.append(day)
            _check(day, baseline or days[0], seed, tally)
    finally:
        host.stop_timer()
        if untimer is not None:
            untimer()
        if rec is not None:
            rec.uninstall()
        capture.close()

    walls = [d["wall"] for d in days]
    out = {"tally": tally, "setup_s": median(setups), "peak_rss_mb": self_rss_mb(),
           "lines": []}
    if not trace:
        # Every repeat simulates the identical day. Each day's times are
        # scaled by the host slowdown probed during it; report medians.
        walls_ref = [d["wall"] / d["slowdown"] for d in days]
        cycle_ms = [ms / d["slowdown"] for d in days for ms in d["cycle_ms"]]
        starts = days[0]["starts"]
        out["metrics"] = {
            "throughput_per_s": (median([starts / w for w in walls_ref]), "1/s"),
            "latency_ms_p90": (pct(cycle_ms, 0.90), "ms"),
            "makespan_s": (median(walls_ref), "s"),
        }
        m = out["metrics"]
        out["lines"] = [
            f"sched_starts_per_s  {m['throughput_per_s'][0]:.1f} 1/s "
            f"(median of {len(days)} days, {starts} starts/day)",
            f"sched_cycle_ms      p50 {pct(cycle_ms, 0.50):.4f} "
            f"p90 {m['latency_ms_p90'][0]:.4f} ms "
            f"({len(cycle_ms)} matching cycles)",
            f"gpu_occupancy_pct   {days[0]['gpu_pct']:.4f} %",
            f"day outputs         {_outputs(days[0])!r} (starts, CG sims, AA sims, GPU %)",
            "day walls s         " + " ".join(f"{w:.4f}" for w in walls),
            "host slowdown       " + " ".join(f"{d['slowdown']:.3f}" for d in days),
        ]
        return out

    ndays = len(days)
    wall = sum(walls)
    rows = rec.self_time(main_only=True)
    rows["unattributed"] = max(0.0, wall - sum(rows.values()))
    stats = days[-1]["match_stats"]
    attempts = stats.matched + stats.failed
    per_layer = {
        "sched.cycle_ms": (rec.total("queue.cycle") * 1e3 / max(rec.count("queue.cycle"), 1), "ms"),
        "sched.cycles": (rec.count("queue.cycle") / ndays, "count"),
        "sched.match_us": (rec.total("matcher.match") * 1e6 / max(rec.count("matcher.match"), 1), "us"),
        "sched.match_calls": (rec.count("matcher.match") / ndays, "count"),
        "sched.visits_per_match": (stats.visits_per_call(), "count"),
        "sched.partition_skip_frac": (
            stats.partitions_skipped / (attempts * days[-1]["npartitions"])
            if attempts else 0.0, "ratio"),
        "sched.submit_us": (rec.total("flux.submit") * 1e6 / max(rec.count("flux.submit"), 1), "us"),
        "sched.release_us": (rec.total("matcher.release") * 1e6 / max(rec.count("matcher.release"), 1), "us"),
        "clock.loop_self_ms": (rows.get("util.clock", 0.0) * 1e3 / ndays, "ms"),
        "profiling.poll_ms": (rows.get("core.profiling", 0.0) * 1e3 / ndays, "ms"),
        "campaign.scan_self_ms": (rows.get("core.campaign", 0.0) * 1e3 / ndays, "ms"),
        "sched.gpu_occupancy_pct": (days[-1]["gpu_pct"], "%"),
    }
    counts = {
        "sched.queue": f"{rec.count('queue.cycle') // ndays} cycles/day",
        "sched.matcher": f"{rec.count('matcher.match') // ndays} matches/day, "
                         f"{stats.visits_per_call():.1f} visits/match",
        "sched.flux": f"{rec.count('flux.submit') // ndays} submits/day",
        "sched.resources": f"{rec.count('resources.claim') // ndays} claims/day",
        "core.profiling": f"{rec.count('profiling.poll') // ndays} polls/day",
        "core.campaign": f"{rec.count('campaign.scan') // ndays} scans/day",
    }
    overhead = median(walls) / baseline["wall"]
    per_layer.update(self_fracs(rows, wall))
    per_layer["trace.unattributed_frac"] = (rows["unattributed"] / wall, "ratio")
    per_layer["trace.overhead_x"] = (overhead, "ratio")
    out["lines"] = [render_table(f"sched_4000n_day ({ndays} traced days)",
                                 wall, rows, counts, overhead)]
    out["per_layer"] = per_layer
    return out
