"""Workload ``serve_campaign``: campaigns through ``repro serve`` over HTTP.

The daemon (``ControlPlaneServer`` with ``ServiceConfig(pool_workers=2)``,
its own span tracing off) runs in this process; its store is three
durable NetKV shards (fsync on) in a child process, opened with
``?replication=2``. One client thread runs the loop in epochs: it
submits one campaign for tenant ``a`` and one for tenant ``b``, each 10
rounds at the registry's laptop-scale workflow defaults, and when both
are DONE it checks them, deletes them (purging their keys, so live data
stays bounded), probes the host speed while the daemon is idle (see
``HostSpeed``) and starts the next epoch.

The same thread probes each in-flight campaign's status on a fixed
20 ms tick per campaign (the two campaigns' probes interleave every
10 ms). This is an open loop: each probe is timed from when it was due,
and how late the generator ran is reported.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Dict, List, Optional

import numpy as np

from metrics import self_fracs
from common import (SETUPS, HostSpeed, ShardChild, Tally, children_rss_mb, median, pct,
                    self_rss_mb)
from storelayers import (store_counts, store_metrics, transport_snapshot,
                         wrap_store_layers)
from tracer import Recorder, attribute_timeline, length, render_table, subtract, union

TENANTS = ("a", "b")
ROUNDS = 10
SLOT_S = 0.010  # one probe every 10 ms, alternating tenants
EPOCH_TIMEOUT_S = 60.0  # a pair of campaigns that takes longer has failed
JOB_COUNTERS = ("patches_selected", "cg_finished", "frames_selected", "aa_finished")
JOBS_PER_CAMPAIGN = 58  # createsim + CG + backmap + AA jobs of a 10-round campaign
JOBS_SLACK = 3  # thread-order variation allowed around JOBS_PER_CAMPAIGN
JOB_NAMES = ("job.createsim", "job.cg-sim", "job.backmap", "job.aa-sim")
PRIORITY = ("aio", "netkv", "datastore", "sampling", "feedback", "sims",
            "builder", "sched.shares", "wm", "service")


def tenant_seeds(seed: int) -> Dict[str, int]:
    rng = np.random.default_rng([seed, 17])
    return {t: int(s) for t, s in zip(TENANTS, rng.integers(0, 2**31, len(TENANTS)))}


class Daemon:
    """Shard child + in-process control plane + one HTTP client."""

    def __init__(self, trace: bool) -> None:
        from repro.service import ControlPlaneServer, ServiceClient, ServiceConfig

        self.shards = ShardChild(trace=trace)
        self.server = ControlPlaneServer(
            store_url=self.shards.url + "?replication=2",
            config=ServiceConfig(pool_workers=2), trace_capacity=0).start()
        self.client = ServiceClient(*self.server.address)
        deadline = time.monotonic() + 30
        while not self.client.ready():
            if time.monotonic() > deadline:
                raise RuntimeError("control plane never became ready")
            time.sleep(0.01)

    @property
    def registry(self):
        return self.server.registry

    def close(self) -> Dict[str, object]:
        self.server.stop()
        return self.shards.stop()


class Campaigns:
    """The epochs of campaigns plus the open-loop status prober."""

    def __init__(self, daemon: Daemon, seeds: Dict[str, int], tally: Tally,
                 host: HostSpeed) -> None:
        self.d = daemon
        self.seeds = seeds
        self.tally = tally
        self.host = host
        self.reference: Dict[str, dict] = {}
        self.off_reference: List[dict] = []  # counter deltas from the reference
        self.done: List[dict] = []
        self.epochs: List[dict] = []
        self.rtt_ms: List[float] = []
        self.late_ms: List[float] = []
        self.lock_waits = 0
        self.feedback_reports: list = []
        self.clock_offset = time.time() - time.perf_counter()
        self.rec: Optional[Recorder] = None  # checks are left out of the trace
        self.submitted = 0

    def _submit(self, tenant: str, rounds: int = ROUNDS) -> Optional[dict]:
        from repro.service import ServiceError

        t0 = time.perf_counter()
        try:
            snap = self.d.client.submit(tenant, rounds=rounds, seed=self.seeds[tenant],
                                        name=f"{tenant}-bench")
        except ServiceError as exc:
            self.tally.fail(f"submit {tenant}: {exc}")
            return None
        self.tally.ok()
        self.submitted += rounds / ROUNDS
        return {"id": snap["id"], "tenant": tenant, "post_t0": t0}

    def warm_up(self) -> None:
        """One untimed 1-round campaign (part of setup)."""
        c = self._submit(TENANTS[0], rounds=1)
        if c is None:
            return
        snap = self.d.client.wait(c["id"], timeout=60, poll=0.01)
        self.tally.check(snap["state"] == "done", f"warm-up ended {snap['state']}")
        self.d.client.delete(c["id"])

    def drive(self, seconds: float) -> float:
        """Run epochs until ``seconds`` have passed; returns the wall time."""
        t_start = time.perf_counter()
        self.host.probe(3)
        while True:
            self._epoch()
            if time.perf_counter() - t_start >= seconds:
                return time.perf_counter() - t_start

    def _epoch(self) -> None:
        """One campaign per tenant, probed until both settle, then checked."""
        from repro.service import ServiceError

        gc.collect()  # every epoch starts from the same heap state
        t0 = time.perf_counter()
        inflight: Dict[str, dict] = {}
        for tenant in TENANTS:
            c = self._submit(tenant)
            if c is not None:
                inflight[tenant] = c
        probes: List[float] = []
        settled = []
        slot = 0
        while inflight:
            tenant = TENANTS[slot % len(TENANTS)]
            due = t0 + slot * SLOT_S
            slot += 1
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            self.late_ms.append((now - due) * 1e3)
            if now - t0 > EPOCH_TIMEOUT_S:
                for c in inflight.values():
                    self.tally.fail(f"campaign {c['id']} unsettled after "
                                    f"{EPOCH_TIMEOUT_S:.0f} s")
                break
            c = inflight.get(tenant)
            if c is None:
                continue
            try:
                snap = self.d.client.status(c["id"])
            except ServiceError as exc:
                self.tally.fail(f"status {c['id']}: {exc}")
                continue
            t_end = time.perf_counter()
            self.tally.ok()
            probes.append((t_end - due) * 1e3)
            self.rtt_ms.append((t_end - now) * 1e3)
            if snap["state"] not in ("pending", "running", "paused"):
                del inflight[tenant]
                settled.append((c, snap))
        with self.rec.paused() if self.rec else contextlib.nullcontext():
            for c, snap in settled:
                self._finish(c, snap)
            self.host.probe(3)  # the daemon is idle now
        mine = [c for c, _snap in settled if "jobs" in c]
        if not mine:
            return
        t1 = max(c["finished"] for c in mine)
        self.epochs.append({
            "jobs": sum(c["jobs"] for c in mine),
            "wall": t1 - min(c["post_t0"] for c in mine),
            "slowdown": self.host.slowdown(t0, t1),
            "campaign_s": [c["makespan"] for c in mine],
            "status_ms": probes,
        })

    def _finish(self, c: dict, snap: dict) -> None:
        """Output checks on a settled campaign, then delete it."""
        from repro.service import ServiceError

        cid, tenant = c["id"], c["tenant"]
        self.tally.check(snap["state"] == "done",
                         f"campaign {cid} ended {snap['state']}: {snap['error']}")
        self.tally.check(snap["rounds_done"] == snap["rounds_target"] == ROUNDS,
                         f"campaign {cid}: {snap['rounds_done']} of "
                         f"{snap['rounds_target']} rounds done")
        counters = snap["counters"]
        self.tally.check(counters["cg_finished"] == counters["cg_spawned"]
                         and counters["aa_finished"] == counters["aa_spawned"],
                         f"campaign {cid}: spawned sims left unfinished: {counters}")
        jobs = sum(counters[k] for k in JOB_COUNTERS)
        self.tally.check(abs(jobs - JOBS_PER_CAMPAIGN) <= JOBS_SLACK,
                         f"campaign {cid}: {jobs} jobs, expected "
                         f"{JOBS_PER_CAMPAIGN} +- {JOBS_SLACK}")
        # Job bodies finish in thread order, so a campaign's launch
        # decisions, and with them its counters, may differ by a job
        # from its tenant's first campaign with the same seed; such
        # campaigns are counted and reported, not failed.
        ref = self.reference.setdefault(tenant, counters)
        if counters != ref:
            self.off_reference.append(
                {k: (ref.get(k), v) for k, v in counters.items() if ref.get(k) != v})
        handle = self.d.registry.get(cid)
        wm = handle.app.wm
        self.tally.check(_conserved(wm), f"campaign {cid}: WM patch/frame "
                                         "conservation violated")
        self.lock_waits += wm.lock_stats().get("contentions", 0)
        self.feedback_reports.extend(handle.app.cg2cont.reports)
        self._check_namespaces(cid)
        c.update(jobs=jobs,
                 makespan=snap["finished_at"] - snap["submitted_at"],
                 finished=snap["finished_at"] - self.clock_offset)
        self.done.append(c)
        try:
            self.d.client.delete(cid)
            self.tally.ok()
        except ServiceError as exc:
            self.tally.fail(f"delete {cid}: {exc}")

    def _check_namespaces(self, cid: str) -> None:
        """Every key on the shared store sits under its campaign's prefix."""
        tenants = {h["id"]: h["tenant"] for h in self.d.registry.list()}
        keys = self.d.registry.store.keys("")
        stray = [k for k in keys
                 if not (k.startswith("tenants/")
                         and tenants.get(k.split("/")[2]) == k.split("/")[1])]
        self.tally.check(not stray, f"after {cid}: {len(stray)} key(s) outside "
                                    f"their campaign prefix, e.g. {stray[:2]}")
        self.tally.check(any(k.startswith(f"tenants/") and k.split("/")[2] == cid
                             for k in keys), f"campaign {cid} left no keys")


def _conserved(wm) -> bool:
    c = wm.counters_snapshot()
    patches = (c["patches_selected"] + wm.patch_selector.ncandidates()
               + wm.patch_selector.dropped() + wm.patch_selector.duplicates()
               + c["patches_pruned"])
    frames = (c["frames_selected"] + wm.frame_selector.ncandidates()
              + wm.frame_selector.duplicates + c["frames_pruned"])
    return c["patches"] == patches and c["frames_seen"] == frames


def _setup(seeds, trace: bool, tally: Tally, host: HostSpeed):
    """Set-up seconds at the reference host speed, and the ready loop."""
    host.probe(3)
    t0 = time.perf_counter()
    daemon = Daemon(trace)
    loop = Campaigns(daemon, seeds, tally, host)
    loop.warm_up()
    return (time.perf_counter() - t0) / host.slowdown(t0, t0), daemon, loop


def run(seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    host = HostSpeed()
    seeds = tenant_seeds(seed)
    setups = []
    for _ in range(SETUPS - 1):
        took, daemon, _loop = _setup(seeds, trace, tally, host)
        setups.append(took)
        daemon.close()
    took, daemon, loop = _setup(seeds, trace, tally, host)
    setups.append(took)

    rec = None
    try:
        if trace:
            loop.drive(seconds / 3)  # untraced: the tracing-overhead reference
            baseline = [c["makespan"] for c in loop.done]
            loop.done.clear()
            loop.feedback_reports.clear()
            loop.lock_waits = 0
            rec = loop.rec = Recorder(log_intervals=True)
            _wrap_layers(rec)
            before = transport_snapshot(daemon.registry.store)
            t0 = time.perf_counter()
            wall = loop.drive(seconds * 2 / 3)
        else:
            wall = loop.drive(seconds)
    finally:
        if rec is not None:
            rec.uninstall()
        after = transport_snapshot(daemon.registry.store)
        child = daemon.close()

    done = loop.done
    out = {"tally": tally, "setup_s": median(setups),
           "peak_rss_mb": self_rss_mb() + children_rss_mb()}
    jobs = sum(c["jobs"] for c in done)
    makespans = [c["makespan"] for c in done]
    if not trace:
        # Every epoch reruns the identical pair of campaigns. Each epoch's
        # times are scaled by the host slowdown probed around it; report
        # medians over epochs, campaigns and status probes.
        epochs = loop.epochs
        status_ms = [ms / e["slowdown"] for e in epochs for ms in e["status_ms"]]
        out["metrics"] = {
            "throughput_per_s": (median([e["jobs"] / e["wall"] * e["slowdown"]
                                         for e in epochs]), "1/s"),
            "latency_ms_p90": (pct(status_ms, 0.90), "ms"),
            "makespan_s": (median([x / e["slowdown"] for e in epochs
                                   for x in e["campaign_s"]]), "s"),
        }
        m = out["metrics"]
        raw_ms = [ms for e in epochs for ms in e["status_ms"]]
        out["lines"] = [
            f"jobs_per_s          {m['throughput_per_s'][0]:.2f} 1/s median of "
            f"{len(epochs)} epochs ({jobs} jobs in {len(done)} campaigns, "
            f"{jobs / wall:.2f} 1/s unscaled over {wall:.2f} s)",
            f"campaign_s_p50      {m['makespan_s'][0]:.4f} s "
            f"(unscaled {median(makespans):.4f} s)",
            f"status_ms           p50 {pct(status_ms, 0.50):.4f} "
            f"p90 {m['latency_ms_p90'][0]:.4f} ms over {len(status_ms)} probes "
            f"(unscaled p50 {pct(raw_ms, 0.5):.4f} p90 {pct(raw_ms, 0.9):.4f})",
            f"generator lateness  p50 {pct(loop.late_ms, 0.5):.3f} "
            f"p90 {pct(loop.late_ms, 0.9):.3f} max {max(loop.late_ms):.3f} ms",
            "epoch jobs/s        " + " ".join(f"{e['jobs'] / e['wall']:.2f}"
                                              for e in epochs),
            "host slowdown       " + " ".join(f"{e['slowdown']:.3f}" for e in epochs),
            "campaign walls s    " + " ".join(f"{x:.3f}" for x in makespans),
            "jobs per campaign   " + " ".join(
                f"{t}={sum(loop.reference[t][k] for k in JOB_COUNTERS)}"
                for t in TENANTS if t in loop.reference),
            f"off reference       {len(loop.off_reference)} campaign(s) "
            f"(first, this): {loop.off_reference[:3]}",
        ]
        return out
    out.update(_traced_report(rec, loop, done, wall, t0, baseline,
                              before, after, child))
    return out


def _wrap_layers(rec: Recorder) -> None:
    import repro.app.builder as builder
    import repro.core.wm as wm_module
    from repro.app.feedback import AAToCGFeedback, CGToContinuumFeedback
    from repro.core.feedback import FeedbackManager, StoreFeedbackMixin
    from repro.core.wm import WorkflowManager
    from repro.sampling.binned import BinnedSampler
    from repro.sampling.fps import FarthestPointSampler
    from repro.sched.shares import FairShareAdapter
    from repro.service import ServiceClient
    from repro.service.registry import CampaignHandle, CampaignRegistry
    from repro.sims.aa.engine import AASim
    from repro.sims.cg.engine import CGSim

    def wm_tenant(args, kwargs):
        return args[0].adapter.tenant

    rec.wrap_many([
        (ServiceClient, "submit", "service.submit", "service",
         lambda a, k: a[1]),
        (CampaignRegistry, "get", "service.registry_get", "service.handler"),
        (CampaignHandle, "snapshot", "service.snapshot", "service.handler"),
        (builder, "build_application", "builder.build", "builder",
         lambda a, k: k["adapter"].tenant),
        (WorkflowManager, "round", "wm.round", "wm", wm_tenant),
        (WorkflowManager, "task1_process_macro", "wm.task1", "wm", wm_tenant),
        (WorkflowManager, "task3_manage_jobs", "wm.task3", "wm", wm_tenant),
        (WorkflowManager, "task4_feedback", "wm.task4", "wm", wm_tenant),
        (wm_module, "createsim", "sims.createsim", "sims"),
        (wm_module, "backmap", "sims.backmap", "sims"),
        (CGSim, "step", "sims.cg_step", "sims"),
        (AASim, "step", "sims.aa_step", "sims"),
        (FarthestPointSampler, "select", "sampling.fps_select", "sampling"),
        (FarthestPointSampler, "add_batch", "sampling.fps_add_batch", "sampling"),
        (BinnedSampler, "select", "sampling.binned_select", "sampling"),
        (BinnedSampler, "add", "sampling.binned_add", "sampling"),
        (FeedbackManager, "run_iteration", "feedback.run_iteration", "feedback"),
        (StoreFeedbackMixin, "collect", "feedback.collect", "feedback"),
        (StoreFeedbackMixin, "tag", "feedback.tag", "feedback"),
        (CGToContinuumFeedback, "process", "feedback.process", "feedback"),
        (CGToContinuumFeedback, "report", "feedback.report", "feedback"),
        (AAToCGFeedback, "process", "feedback.process", "feedback"),
        (AAToCGFeedback, "report", "feedback.report", "feedback"),
    ])
    wrap_store_layers(rec)

    # Fair-share pool: time from submit_for to body start is queue wait;
    # the body itself runs as a job of the submitting tenant.
    original = FairShareAdapter.__dict__["submit_for"]
    for name in JOB_NAMES + ("job.wm-offload", "shares.queue_wait"):
        rec.series(name)

    def submit_for(pool, tenant, spec, fn=None, on_complete=None):
        if fn is None:
            return original(pool, tenant, spec, fn, on_complete)
        t_submit = time.perf_counter()
        layer = "wm" if spec.name == "wm-offload" else "sims"

        def body():
            rec.note(t_submit, time.perf_counter(), "sched.shares",
                     "shares.queue_wait", tenant)
            return rec.call(fn, (), {}, f"job.{spec.name}", layer, tenant)

        return original(pool, tenant, spec, body, on_complete)

    rec.patch(FairShareAdapter, "submit_for", submit_for)


def _traced_report(rec: Recorder, loop: Campaigns, done: List[dict], wall: float,
                   t0: float, baseline: List[float], before, after, child) -> dict:
    by_tenant: Dict[str, list] = {t: [] for t in TENANTS}
    for a, b, layer, name, tenant in rec.intervals:
        if tenant in by_tenant:
            by_tenant[tenant].append((a, b, layer, name))
    rows: Dict[str, float] = {}
    campaign_s = 0.0
    coord_s = 0.0
    for c in done:
        window = (c["post_t0"], c["finished"])
        campaign_s += window[1] - window[0]
        mine = by_tenant[c["tenant"]]
        for layer, seconds in attribute_timeline(
                window, [(a, b, layer) for a, b, layer, _ in mine], PRIORITY).items():
            rows[layer] = rows.get(layer, 0.0) + seconds
        clip = [(max(a, window[0]), min(b, window[1])) for a, b, _l, n in mine]
        rounds = union([(a, b) for (a, b), (_a, _b, _l, n) in zip(clip, mine)
                        if n == "wm.round" and b > a])
        bodies = union([(a, b) for (a, b), (_a, _b, _l, n) in zip(clip, mine)
                        if n in JOB_NAMES and b > a])
        coord_s += length(subtract(rounds, bodies))

    jobs = sum(c["jobs"] for c in done)
    nrounds = max(rec.count("wm.round"), 1)
    round_ms = sorted(x * 1e3 for x in rec.series("wm.round"))
    task_s = {n: rec.total(f"wm.{n}") for n in ("task1", "task3", "task4")}
    status_n = max(len(loop.rtt_ms), 1)
    handler_ms = (rec.total("service.registry_get") + rec.total("service.snapshot")) \
        * 1e3 / status_n
    reports = loop.feedback_reports
    self_time = rec.self_time()
    busy = sum(rec.total(n) for n in JOB_NAMES + ("job.wm-offload",))
    per_layer = {
        "service.submit_ms": (rec.total("service.submit") * 1e3
                              / max(rec.count("service.submit"), 1), "ms"),
        "service.status_handler_ms": (handler_ms, "ms"),
        "service.http_ms": (median(loop.rtt_ms) - handler_ms, "ms"),
        "builder.build_ms": (rec.total("builder.build") * 1e3
                             / max(rec.count("builder.build"), 1), "ms"),
        "wm.round_ms_p50": (pct(round_ms, 0.5), "ms"),
        "wm.round_ms_p90": (pct(round_ms, 0.9), "ms"),
        "wm.task1_ms": (task_s["task1"] * 1e3 / nrounds, "ms"),
        "wm.task3_ms": (task_s["task3"] * 1e3 / nrounds, "ms"),
        "wm.task4_ms": (task_s["task4"] * 1e3 / nrounds, "ms"),
        "wm.barrier_ms": ((rec.total("wm.round") - sum(task_s.values())) * 1e3
                          / nrounds, "ms"),
        "wm.jobs_per_round": (jobs / nrounds, "count"),
        "wm.coord_ms_per_job": (coord_s * 1e3 / max(jobs, 1), "ms"),
        "wm.selector_lock_waits": (loop.lock_waits / max(len(done), 1), "count"),
        "sims.createsim_ms": (_mean_ms(rec, "sims.createsim"), "ms"),
        "sims.cg_step_ms": (_mean_ms(rec, "sims.cg_step"), "ms"),
        "sims.backmap_ms": (_mean_ms(rec, "sims.backmap"), "ms"),
        "sims.aa_step_ms": (_mean_ms(rec, "sims.aa_step"), "ms"),
        "shares.queue_wait_ms_p50": (pct(rec.series("shares.queue_wait"), 0.5) * 1e3, "ms"),
        "shares.queue_wait_ms_p90": (pct(rec.series("shares.queue_wait"), 0.9) * 1e3, "ms"),
        "shares.pool_busy_frac": (busy / (2 * wall), "ratio"),
    }
    for kind in ("fps_select", "fps_add_batch", "binned_select", "binned_add"):
        per_layer[f"sampling.{kind}_us"] = (
            rec.total(f"sampling.{kind}") * 1e6 / max(rec.count(f"sampling.{kind}"), 1), "us")
        per_layer[f"sampling.{kind}_calls"] = (
            rec.count(f"sampling.{kind}") / max(len(done), 1), "count")
    if reports:
        per_layer.update({
            "feedback.collect_ms": (median([r.collect_seconds for r in reports]) * 1e3, "ms"),
            "feedback.process_ms": (median([r.process_seconds for r in reports]) * 1e3, "ms"),
            "feedback.tag_ms": (median([r.tag_seconds for r in reports]) * 1e3, "ms"),
            "feedback.items_per_iter": (median([r.n_items for r in reports]), "count"),
        })
    per_layer.update(store_metrics(rec, self_time, before, after, child,
                                   units=max(len(done), 1),
                                   child_units=loop.submitted))
    overhead = median([c["makespan"] for c in done]) / median(baseline)
    rows["unattributed"] = rows.get("unattributed", 0.0)
    per_layer.update(self_fracs(rows, campaign_s))
    per_layer["trace.unattributed_frac"] = (rows["unattributed"] / campaign_s, "ratio")
    per_layer["trace.overhead_x"] = (overhead, "ratio")
    counts = store_counts(rec)
    counts.update({
        "wm": f"{nrounds} rounds, {jobs} jobs, "
              f"coordination {coord_s * 1e3 / max(jobs, 1):.2f} ms/job",
        "sims": f"{sum(rec.count(n) for n in JOB_NAMES)} job bodies",
        "sched.shares": f"{rec.count('shares.queue_wait')} queued jobs",
        "sampling": f"{sum(rec.count(n) for n in rec.durations if n.startswith('sampling.'))} calls",
        "builder": f"{rec.count('builder.build')} builds",
        "service": f"{rec.count('service.submit')} submits (client POST)",
    })
    title = (f"serve_campaign ({len(done)} traced campaigns; wall = "
             f"campaign-seconds, POST to DONE)")
    return {"lines": [render_table(title, campaign_s, rows, counts, overhead)],
            "per_layer": per_layer}


def _mean_ms(rec: Recorder, name: str) -> float:
    return rec.total(name) * 1e3 / max(rec.count(name), 1)
