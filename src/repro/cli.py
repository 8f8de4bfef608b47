"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run
    Run the three-scale workflow for N rounds (optionally from a
    TOML/JSON config file) and print the WM counters.
campaign
    Simulate an allocation campaign (the paper ledger, a config-file
    ledger, or a small demo) and print Table-1-style output.
persistent
    Run a persistent campaign against the elastic allocation broker.
emulate
    Compare matcher policies on the paper's emulated job mix.
trace
    Replay an exported span trace (JSONL) into a per-stage latency
    breakdown, span events, and the critical path.
serve
    Run the campaign control plane: a long-running HTTP daemon that
    multiplexes submitted campaigns from many tenants onto one shared
    worker pool and one shared store (see OPERATIONS.md).
netkv
    Serve networked KV shards, or probe a ``netkv://`` cluster and
    print per-replica health.
chaos
    Run seeded chaos campaigns against the full coordination stack on
    virtual time, checking system invariants after every round; fuzz
    random fault schedules and shrink any failure to a minimal replay
    file, or re-execute a saved replay.
info
    Print the package version and subsystem inventory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MuMMI reproduction: generalizable multiscale workflow coordination",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the three-scale workflow")
    p_run.add_argument("--config", help="TOML/JSON config file")
    p_run.add_argument("--rounds", type=int, default=3)
    p_run.add_argument("--store", default="kv://4", help="store URL (fs://, taridx://, kv://)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--trace", metavar="FILE",
                       help="enable span tracing and export the trace as JSONL")

    p_camp = sub.add_parser("campaign", help="simulate an allocation campaign")
    p_camp.add_argument("--config", help="TOML/JSON config file with a [campaign] section")
    p_camp.add_argument("--small", action="store_true", help="scaled-down demo ledger")
    p_camp.add_argument("--seed", type=int, default=2021)

    p_pers = sub.add_parser("persistent", help="persistent campaign over elastic allocations")
    p_pers.add_argument("--node-hours", type=float, default=1000.0)
    p_pers.add_argument("--seed", type=int, default=0)

    p_emu = sub.add_parser("emulate", help="matcher-policy emulation (the 670x study)")
    p_emu.add_argument("--scale", type=float, default=0.1,
                       help="fraction of the 4000-node/24k-job mix")

    p_trace = sub.add_parser("trace", help="analyze an exported span trace")
    p_trace.add_argument("file", help="JSONL trace (from `run --trace` or export_jsonl)")
    p_trace.add_argument("--occupancy", metavar="PREFIX",
                         help="also print a binned concurrency series for spans "
                              "with this name prefix (e.g. wm.cg_sim)")
    p_trace.add_argument("--bins", type=int, default=20,
                         help="number of time bins for --occupancy")

    p_serve = sub.add_parser(
        "serve", help="run the campaign control-plane daemon (OPERATIONS.md)")
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="bind port (0 picks a free port)")
    p_serve.add_argument("--store", default="kv://2",
                         help="shared store URL (kv://, netkv://, fs://, taridx://)")
    p_serve.add_argument("--pool-workers", type=int, default=4,
                         help="worker slots in the shared fair-share job pool")
    p_serve.add_argument("--max-campaigns-per-tenant", type=int, default=4)
    p_serve.add_argument("--max-campaigns", type=int, default=16,
                         help="active-campaign cap across all tenants")
    p_serve.add_argument("--default-rounds", type=int, default=4,
                         help="rounds when a submission omits 'rounds'")
    p_serve.add_argument("--share", action="append", default=[],
                         metavar="TENANT=WEIGHT",
                         help="fair-share weight for a tenant (repeatable)")
    p_serve.add_argument("--trace-capacity", type=int, default=65536,
                         help="daemon trace ring-buffer size (0 disables tracing)")

    p_netkv = sub.add_parser("netkv", help="networked KV cluster utilities")
    group = p_netkv.add_mutually_exclusive_group(required=True)
    group.add_argument("--serve", type=int, metavar="N",
                       help="start N shard servers and block until interrupted")
    group.add_argument("--health", metavar="URL",
                       help="probe a netkv:// cluster URL and print "
                            "per-replica health (exit 1 if any shard is down)")
    group.add_argument("--snapshot", metavar="URL",
                       help="ask every shard of a netkv:// cluster to write "
                            "a snapshot and compact its WAL (shards must "
                            "have been served with --persist)")
    group.add_argument("--migrate", metavar="URL",
                       help="move hash slots between shards of a live "
                            "netkv:// cluster (requires --slots and --to)")
    p_netkv.add_argument("--host", default="127.0.0.1",
                         help="bind address for --serve")
    p_netkv.add_argument("--max-conns", type=int, default=None,
                         help="per-shard concurrent-connection cap for "
                              "--serve (default: unlimited; see "
                              "OPERATIONS.md on fd budgeting)")
    p_netkv.add_argument("--persist", metavar="DIR", default=None,
                         help="durable shard state for --serve: one "
                              "WAL+snapshot subdirectory per shard under "
                              "DIR; a restart replays every acked write")
    p_netkv.add_argument("--no-fsync", action="store_true",
                         help="with --persist: skip the fsync batch on ack "
                              "(faster; drops the power-failure guarantee)")
    p_netkv.add_argument("--slots", metavar="A-B", default=None,
                         help="hash-slot range for --migrate, e.g. 0-4095 "
                              "(a single slot is just 'N')")
    p_netkv.add_argument("--to", dest="to_shard", type=int, default=None,
                         help="destination shard index for --migrate")

    p_chaos = sub.add_parser("chaos", help="seeded chaos campaigns with invariant checks")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--rounds", type=int, default=10,
                         help="WM rounds per campaign")
    p_chaos.add_argument("--campaigns", type=int, default=5,
                         help="number of random campaigns to fuzz")
    p_chaos.add_argument("--shards", type=int, default=4,
                         help="ChaosStore shard count")
    p_chaos.add_argument("--replication", type=int, default=2,
                         help="replicas per key")
    p_chaos.add_argument("--max-events", type=int, default=8,
                         help="max fault events per sampled schedule")
    p_chaos.add_argument("--replay", metavar="FILE",
                         help="re-run one saved reproducer instead of fuzzing")
    p_chaos.add_argument("--save-failing", metavar="FILE",
                         help="write the shrunk reproducer of the first failure here")
    p_chaos.add_argument("--report", metavar="FILE",
                         help="write the JSON invariant report(s) here")
    p_chaos.add_argument("--trace", metavar="FILE",
                         help="export the last campaign's span trace as JSONL")

    sub.add_parser("info", help="package and subsystem inventory")
    return parser


def _cmd_run(args) -> int:
    from repro import trace
    from repro.app.builder import build_application
    from repro.core.config import application_kwargs, load_config_file

    if args.config:
        kwargs = application_kwargs(load_config_file(args.config))
    else:
        kwargs = {"store_url": args.store, "seed": args.seed}
    tracer = trace.enable() if args.trace else None
    try:
        app = build_application(**kwargs)
        counters = app.run(nrounds=args.rounds)
    finally:
        if tracer is not None:
            nspans = tracer.export_jsonl(args.trace)
            trace.disable()
    print(f"ran {args.rounds} rounds:")
    for key, value in counters.items():
        print(f"  {key:22s} {value}")
    print(f"  continuum couplings updated {app.macro.coupling_version}x; "
          f"CG force field refined {app.forcefield.version}x")
    if tracer is not None:
        print(f"  wrote {nspans} spans to {args.trace} (analyze: repro trace {args.trace})")
    return 0


def _cmd_campaign(args) -> int:
    from repro.core.campaign import CampaignConfig, CampaignSimulator, RunSpec
    from repro.core.config import campaign_config, load_config_file

    if args.config:
        config = campaign_config(load_config_file(args.config))
    elif args.small:
        config = CampaignConfig(
            ledger=(RunSpec(50, 4, 2), RunSpec(100, 6, 1)), seed=args.seed
        )
    else:
        config = CampaignConfig(seed=args.seed)
    result = CampaignSimulator(config).run()
    print(f"{'#nodes':>8} {'wall':>6} {'#runs':>6} {'node-hours':>12}")
    for row in result.table1:
        print(f"{row['nnodes']:>8} {row['walltime_hours']:>5}h "
              f"{row['runs']:>6} {row['node_hours']:>12,.0f}")
    gpu = np.array([e.gpu_occupancy for e in result.profile_events])
    print(f"total: {result.total_node_hours():,.0f} node hours, "
          f"{result.counters['cg_sims']:,} CG sims, "
          f"{result.counters['aa_sims']:,} AA sims, "
          f"median GPU occupancy {np.median(gpu):.1%}")
    return 0


def _cmd_persistent(args) -> int:
    from repro.core.campaign import CampaignConfig
    from repro.core.persistent import AllocationBroker, PersistentCampaign

    broker = AllocationBroker(rng=np.random.default_rng(args.seed))
    campaign = PersistentCampaign(
        broker, node_hour_budget=args.node_hours,
        config=CampaignConfig(ledger=(), seed=args.seed),
    )
    result = campaign.run()
    print(f"{'cluster':>8} {'#nodes':>8} {'wall':>7} {'node-hours':>12}")
    for row in result.table1:
        print(f"{row['cluster']:>8} {row['nnodes']:>8} "
              f"{row['walltime_hours']:>6.1f}h {row['node_hours']:>12,.0f}")
    print(f"budget {args.node_hours:,.0f} node-hours met across "
          f"{result.counters['clusters_used']} clusters; "
          f"{result.counters['cg_sims']:,} CG sims persisted across allocations")
    return 0


def _cmd_emulate(args) -> int:
    from repro.sched.emulator import compare_policies

    results = compare_policies(scale=args.scale)
    low = results["low-id-first"]
    fast = results["first-match"]
    print(f"emulated machine: {low.nnodes} nodes, {low.njobs:,} jobs")
    for r in (low, fast):
        print(f"  {r.policy:>14s}: {r.vertices_visited:>14,} vertices, "
              f"{r.wall_seconds*1e3:8.1f} ms")
    print(f"traversal reduction: "
          f"{low.vertices_visited / fast.vertices_visited:,.0f}x "
          "(paper: 670x at full scale)")
    return 0


def _cmd_trace(args) -> int:
    from repro import trace

    rows = trace.load_trace(args.file)
    print(trace.render_breakdown(rows))
    if args.occupancy:
        series = trace.concurrency_series(rows, prefix=args.occupancy, nbins=args.bins)
        if not series:
            print(f"no spans match prefix {args.occupancy!r}")
        else:
            peak = max(p["active"] for p in series) or 1.0
            print(f"occupancy for {args.occupancy!r} ({args.bins} bins):")
            for p in series:
                bar = "#" * int(round(40 * p["active"] / peak))
                print(f"  {p['t0']:>12.4f}s {int(p['active']):>4d} {bar}")
    return 0


def _cmd_serve(args) -> int:
    import threading

    from repro.service import ControlPlaneServer, ServiceConfig

    shares = {}
    for spec in args.share:
        tenant, sep, weight = spec.partition("=")
        if not sep:
            print(f"--share needs TENANT=WEIGHT, got {spec!r}", file=sys.stderr)
            return 2
        try:
            shares[tenant] = float(weight)
        except ValueError:
            print(f"--share weight must be a number, got {weight!r}",
                  file=sys.stderr)
            return 2
    config = ServiceConfig(
        max_campaigns_per_tenant=args.max_campaigns_per_tenant,
        max_campaigns_total=args.max_campaigns,
        default_rounds=args.default_rounds,
        pool_workers=args.pool_workers,
        shares=shares,
    )
    server = ControlPlaneServer(store_url=args.store, host=args.host,
                                port=args.port, config=config,
                                trace_capacity=args.trace_capacity)
    server.start()
    print(f"control plane listening on {server.url}")
    print(f"store {args.store}, pool {config.pool_workers} worker(s), "
          f"quota {config.max_campaigns_per_tenant}/tenant "
          f"({config.max_campaigns_total} total)")
    print("press Ctrl-C to drain and stop")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print("control plane stopped")
    return 0


def _parse_slot_range(spec: str):
    """'A-B' (inclusive) or a single 'N' as a range of hash slots."""
    lo, sep, hi = spec.partition("-")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"bad slot range {spec!r}; expected A-B or N") from None
    if b < a:
        raise ValueError(f"bad slot range {spec!r}: end before start")
    return range(a, b + 1)


def _cmd_netkv(args) -> int:
    if args.serve is not None:
        import os
        import threading

        from repro.datastore.netkv import NetKVServer
        from repro.datastore.wal import DurabilityConfig

        if args.serve < 1:
            print("--serve needs at least one shard", file=sys.stderr)
            return 2
        if args.max_conns is not None and args.max_conns < 1:
            print("--max-conns must be >= 1", file=sys.stderr)
            return 2
        durability = DurabilityConfig(fsync=not args.no_fsync)
        servers = [
            NetKVServer(
                host=args.host,
                max_connections=args.max_conns,
                persist_dir=(os.path.join(args.persist, f"shard{i}")
                             if args.persist else None),
                durability=durability,
            ).start()
            for i in range(args.serve)
        ]
        url = "netkv://" + ",".join(f"{h}:{p}" for h, p in
                                    (s.address for s in servers))
        cap = "unlimited" if args.max_conns is None else str(args.max_conns)
        print(f"serving {args.serve} shard(s): {url} "
              f"(max {cap} connections/shard)")
        if args.persist:
            recovered = sum(len(s.wal.recovered) for s in servers)
            print(f"durable state under {args.persist} "
                  f"({recovered} key(s) recovered)")
        print("press Ctrl-C to stop")
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            # stop() awaits in-flight serve tasks and joins the loop
            # thread, so acked writes are fully applied before the
            # process exits (see OPERATIONS.md).
            for s in servers:
                s.stop()
            print(f"stopped {len(servers)} shard(s)")
        return 0

    from repro.datastore.base import StoreError, open_store

    if args.snapshot is not None:
        try:
            store = open_store(args.snapshot)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            infos = store.snapshot_all()
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            store.close()
        for i, info in enumerate(infos):
            print(f"  shard {i}: {info.get('keys', '?')} key(s), "
                  f"wal {info.get('wal_bytes', 0)} B, "
                  f"{info.get('snapshots', 0)} snapshot(s)")
        print(f"snapshotted {len(infos)} shard(s)")
        return 0

    if args.migrate is not None:
        if args.slots is None or args.to_shard is None:
            print("--migrate requires --slots and --to", file=sys.stderr)
            return 2
        if "replication=" not in args.migrate:
            # Migration computes its copy and cleanup windows from the
            # replication factor; running with a silently defaulted
            # replication=1 against a replicated keyspace prunes live
            # replica copies. Make the operator state it.
            print("--migrate requires an explicit ?replication=N on the "
                  "URL (use the same value the cluster's writers use)",
                  file=sys.stderr)
            return 2
        try:
            slots = _parse_slot_range(args.slots)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            store = open_store(args.migrate)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            result = store.migrate_slots(slots, args.to_shard)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            store.close()
        print(f"moved {result['slots']} slot(s) "
              f"({result['keys_moved']} key(s)) to shard {args.to_shard}; "
              f"routing epoch {result['epoch']}")
        return 0

    try:
        store = open_store(args.health)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # Touch every shard so health reflects live probes, not optimism.
        try:
            store.keys("")
        except StoreError:
            pass
        health = store.replica_health()
    finally:
        store.close()
    print(f"replication {health['replication']}, "
          f"{health['up']}/{health['nshards']} shard(s) up, "
          f"{health['pending_repairs']} repair(s) pending")
    for shard in health["shards"]:
        print(f"  {shard['address']:>21s}  {'up' if shard['up'] else 'DOWN'}")
    return 0 if health["up"] == health["nshards"] else 1


def _cmd_chaos(args) -> int:
    import json

    from repro.chaos import (CampaignFuzzer, ChaosCampaign, load_replay,
                             save_replay)

    def show(report, label: str) -> None:
        status = "ok" if report.ok else "FAIL"
        print(f"  {label:>12s}: {status:4s} "
              f"rounds={report.rounds} spans={report.nspans} "
              f"faults={report.chaos.get('faults_applied', 0)} "
              f"violations={len(report.violations)}")
        for v in report.violations:
            print(f"      [{v.invariant}] round {v.round}: {v.detail}")

    if args.replay:
        schedule, config = load_replay(args.replay)
        campaign = ChaosCampaign(schedule, config)
        report = campaign.run()
        print(f"replay {args.replay}: {len(schedule)} fault event(s), "
              f"seed {config.seed}, {config.rounds} rounds")
        show(report, "replay")
        if args.trace:
            nspans = campaign.export_trace(args.trace)
            print(f"  wrote {nspans} spans to {args.trace}")
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.dumps())
                fh.write("\n")
            print(f"  wrote report to {args.report}")
        return 0 if report.ok else 1

    last_campaign = []

    def factory(schedule, config):
        campaign = ChaosCampaign(schedule, config)
        last_campaign[:] = [campaign]
        return campaign

    fuzzer = CampaignFuzzer(
        seed=args.seed, rounds=args.rounds, nshards=args.shards,
        replication=args.replication, max_events=args.max_events,
        campaign_factory=factory,
    )
    print(f"fuzzing {args.campaigns} campaign(s): seed {args.seed}, "
          f"{args.rounds} rounds, {args.shards} shards "
          f"(replication {args.replication})")
    result = fuzzer.run(args.campaigns)
    for i, report in enumerate(result.reports):
        show(report, f"campaign {i}")
    if args.trace and last_campaign:
        nspans = last_campaign[0].export_trace(args.trace)
        print(f"  wrote {nspans} spans to {args.trace}")
    if args.report:
        payload = [report.to_json() for report in result.reports]
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {len(payload)} report(s) to {args.report}")
    if result.ok:
        print(f"all {args.campaigns} campaign(s) green")
        return 0
    failure = result.failures[0]
    print(f"{len(result.failures)} failing campaign(s); first shrunk from "
          f"{len(failure.schedule)} to {len(failure.shrunk)} event(s) "
          f"in {failure.shrink_runs} extra run(s)")
    if args.save_failing:
        save_replay(args.save_failing, failure.shrunk, fuzzer._config())
        print(f"  wrote reproducer to {args.save_failing} "
              f"(re-run: repro chaos --replay {args.save_failing})")
    return 1


def _cmd_info(args) -> int:
    print(f"repro {__version__} — MuMMI (SC '21) reproduction")
    inventory = [
        ("datastore", "fs / taridx / kv / networked-kv backends"),
        ("sched", "Flux-like scheduler, Maestro-like adapters, emulator"),
        ("sampling", "farthest-point + binned samplers, ANN indexes"),
        ("ml", "NumPy MLP, triplet metric learning, 9-D patch encoder"),
        ("sims", "continuum DDFT / CG Martini-like / AA engines + mappings"),
        ("core", "Workflow Manager, feedback, campaign + persistent campaigns"),
        ("chaos", "seeded fault schedules, invariant suite, campaign fuzzer"),
        ("service", "multi-tenant control plane: HTTP API, fair shares"),
        ("app", "RAS-RAF application wiring"),
    ]
    for name, desc in inventory:
        print(f"  repro.{name:<10s} {desc}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "persistent": _cmd_persistent,
    "emulate": _cmd_emulate,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "netkv": _cmd_netkv,
    "chaos": _cmd_chaos,
    "info": _cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
