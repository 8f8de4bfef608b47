"""Fig. 7: KV-cluster query performance for CG→continuum feedback.

Paper: a 20-node Redis cluster served the feedback loop at ~10,000 key
retrievals/s, ~10,000 deletions/s, and ~2,000 value reads/s; the figure
plots time vs number of CG frames for the three operation types, all
scaling linearly. We measure the same three operations on the
production ``NetKVCluster`` over 20 in-process shards (``kv://20``)
across the same frame-count sweep.
"""

import time

import numpy as np
from conftest import report

from repro.datastore import open_store

FRAME_COUNTS = [5_000, 10_000, 20_000, 40_000, 70_000]
PAYLOAD = b"x" * 850  # one CG frame's identifying info (~850 B)


def _populate(cluster, n):
    for i in range(n):
        cluster.set(f"rdf/live/frame-{i:07d}", PAYLOAD)


def _sweep():
    rows = []
    for n in FRAME_COUNTS:
        cluster = open_store("kv://20").cluster
        _populate(cluster, n)
        t0 = time.perf_counter()
        keys = cluster.keys("rdf/live/")
        t_keys = time.perf_counter() - t0
        t0 = time.perf_counter()
        for k in keys:
            cluster.get(k)
        t_values = time.perf_counter() - t0
        t0 = time.perf_counter()
        for k in keys:
            cluster.delete(k)
        t_delete = time.perf_counter() - t0
        rows.append((n, t_keys, t_values, t_delete))
        cluster.close()
    return rows


def test_fig7_feedback_query_sweep(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = [f"{'frames':>8} {'keys(s)':>9} {'values(s)':>10} {'delete(s)':>10}"]
    for n, tk, tv, td in rows:
        lines.append(f"{n:>8,} {tk:>9.3f} {tv:>10.3f} {td:>10.3f}")
    biggest = rows[-1]
    lines += [
        "",
        f"at {biggest[0]:,} frames: "
        f"{biggest[0]/max(biggest[1],1e-9):,.0f} key-scans-worth/s, "
        f"{biggest[0]/biggest[2]:,.0f} reads/s, "
        f"{biggest[0]/biggest[3]:,.0f} deletes/s",
        "(paper at 4000-node scale: ~10k key/delete ops/s, ~2k reads/s)",
    ]
    report("fig7_kv_feedback", lines)

    ns = np.array([r[0] for r in rows], dtype=float)
    for col in (1, 2, 3):
        ts = np.array([r[col] for r in rows])
        # Linear scaling: time per frame roughly constant across the sweep
        # (within 4x — the figure's aberrant points were worse).
        per_frame = ts / ns
        assert per_frame.max() / per_frame.min() < 4.0
        # And more frames never take less total time.
        assert ts[-1] > ts[0]


def test_fig7_keys_spread_over_cluster(benchmark):
    """The campaign mapped clients randomly over 20 Redis nodes; slot
    routing must spread the frame keys evenly for the throughput above."""

    def build():
        cluster = open_store("kv://20").cluster
        _populate(cluster, 20_000)
        sizes = cluster._gather([(i, "len", ()) for i in range(20)])
        cluster.close()
        return min(sizes), max(sizes)

    lo, hi = benchmark(build)
    report("fig7_balance", [f"keys per shard across 20 shards: min={lo}, max={hi}"])
    assert lo > 0
    assert hi / lo < 1.5  # even spread, no hot shard
