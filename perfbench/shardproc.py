"""Child process: three durable NetKV shards, as ``repro netkv --serve``.

Usage::

    PYTHONPATH=src python3 -u perfbench/shardproc.py --dir DIR --stats FILE [--trace 1]

Serves through the CLI's own ``netkv --serve 3 --persist DIR`` path
(fsync on) and blocks until SIGINT. On exit it writes ``FILE``: its peak
RSS and, with ``--trace 1``, the WAL group-commit timings gathered by
wrapping ``ShardWAL.commit`` and ``ShardWAL.append_*``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import threading
import time


def _install_wal_wrappers(stats: dict) -> None:
    from repro.datastore.wal import ShardWAL

    lock = threading.Lock()
    wals = stats.setdefault("_wals", [])
    waits = stats.setdefault("commit_wait_us", [])
    commit = ShardWAL.commit

    async def timed_commit(self, target=None):
        t0 = time.perf_counter()
        try:
            await commit(self, target)
        finally:
            with lock:
                waits.append((time.perf_counter() - t0) * 1e6)

    ShardWAL.commit = timed_commit
    for name in ("append_set", "append_delete", "append_rename", "append_flush"):
        original = getattr(ShardWAL, name)

        def timed(self, *args, _original=original, _name=name):
            t0 = time.perf_counter()
            try:
                return _original(self, *args)
            finally:
                dt = (time.perf_counter() - t0) * 1e6
                with lock:
                    if self not in wals:
                        wals.append(self)
                    stats["append_calls"] = stats.get("append_calls", 0) + 1
                    stats["append_us"] = stats.get("append_us", 0.0) + dt

        setattr(ShardWAL, name, timed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    from repro.cli import main as repro_main

    stats: dict = {}
    if args.trace:
        _install_wal_wrappers(stats)
    try:
        return repro_main(["netkv", "--serve", "3", "--persist", args.dir])
    finally:
        out = {"peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if args.trace:
            waits = stats.get("commit_wait_us", [])
            wals = stats.get("_wals", [])
            batches = sum(w.fsync_batches for w in wals)
            appends = sum(w.appends for w in wals)
            out.update({
                "commit_calls": len(waits),
                "commit_wait_us_p50": statistics.median(waits) if waits else 0.0,
                "append_us": (stats.get("append_us", 0.0)
                              / max(stats.get("append_calls", 0), 1)),
                "fsync_batches": batches,
                "records_per_fsync": appends / batches if batches else 0.0,
            })
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


if __name__ == "__main__":
    raise SystemExit(main())
