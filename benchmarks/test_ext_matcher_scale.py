"""Extension bench: the matcher's watermark scans vs flat walks, 4k to 40k nodes.

§5.2's first-match policy fixed the "too many choices" traversal on a
*vacant* machine, but the paper's campaign also runs the machine nearly
full — and there a greedy walk that visits node by node degrades to
O(nodes) per call, because the rotating cursor is usually far from the
few free nodes. The graph keeps per-partition free-resource watermarks,
so the matcher's scans dismiss whole partitions with one summary check
each. The flat walks survive as the test oracle
``tests.sched.oracles.FlatMatcher`` and give the comparison columns.

This sweep probes a nearly-full machine (all but 8 nodes claimed) at
4k/10k/20k/40k nodes for every (policy × matcher) variant and records
per-call wall time, visit counts, and partition skips to
``BENCH_matcher.json``. Two guards make it a regression test:

- first-match per-call wall time at 40k stays within 3× of 4k (the
  flat oracle is ~10× — it scans 10× the nodes);
- the visit-count ratio is deterministic: the matcher stays flat-ish
  across a 10× machine-size jump while the flat oracle grows ~linearly
  (``tests/sched/test_matcher_scale_guard.py`` pins this in tier-1).
"""

import pytest
from conftest import record_json, report

from repro.sched.emulator import make_nearly_full_graph, run_matcher_scale_probe
from repro.sched.matcher import Matcher, MatchPolicy
from tests.sched.oracles import FlatMatcher

NODE_COUNTS = [4000, 10_000, 20_000, 40_000]
HOLES = 8
PROBES = 200
REPEATS = 3  # best-of, to shrug off scheduler noise on shared runners

VARIANTS = [
    (MatchPolicy.LOW_ID_FIRST, FlatMatcher),
    (MatchPolicy.LOW_ID_FIRST, Matcher),
    (MatchPolicy.FIRST_MATCH, FlatMatcher),
    (MatchPolicy.FIRST_MATCH, Matcher),
]


def variant_key(policy, matcher_cls):
    return policy.value + ("/flat-oracle" if matcher_cls is FlatMatcher else "")


@pytest.mark.matcher_scale
def test_matcher_scale_sweep(benchmark):
    def sweep():
        results = {}
        for nnodes in NODE_COUNTS:
            # One shared backdrop per size: every probe run restores the
            # graph exactly, so all variants see identical occupancy.
            graph = make_nearly_full_graph(nnodes, holes=HOLES)
            for policy, matcher_cls in VARIANTS:
                best = None
                for _ in range(REPEATS):
                    res = run_matcher_scale_probe(matcher_cls(graph, policy), probes=PROBES)
                    if best is None or res.mean_call_seconds < best.mean_call_seconds:
                        best = res
                results[(nnodes, policy, matcher_cls)] = best
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"{'nodes':>7} {'variant':>26} {'us/call':>9} "
             f"{'visits/call':>12} {'part.skips':>11}"]
    payload = {"holes": HOLES, "probes": PROBES, "repeats": REPEATS, "sweep": {}}
    for nnodes in NODE_COUNTS:
        row = {}
        for policy, matcher_cls in VARIANTS:
            r = results[(nnodes, policy, matcher_cls)]
            lines.append(
                f"{nnodes:>7,} {variant_key(policy, matcher_cls):>26} "
                f"{r.mean_call_seconds * 1e6:>9.1f} {r.visits_per_call:>12.0f} "
                f"{r.partitions_skipped:>11,}"
            )
            row[variant_key(policy, matcher_cls)] = {
                "mean_call_us": r.mean_call_seconds * 1e6,
                "visits_per_call": r.visits_per_call,
                "partitions_skipped": r.partitions_skipped,
            }
        payload["sweep"][str(nnodes)] = row

    fm_small = results[(NODE_COUNTS[0], MatchPolicy.FIRST_MATCH, Matcher)]
    fm_large = results[(NODE_COUNTS[-1], MatchPolicy.FIRST_MATCH, Matcher)]
    fm_flat_small = results[(NODE_COUNTS[0], MatchPolicy.FIRST_MATCH, FlatMatcher)]
    fm_flat_large = results[(NODE_COUNTS[-1], MatchPolicy.FIRST_MATCH, FlatMatcher)]
    wall_ratio = fm_large.mean_call_seconds / fm_small.mean_call_seconds
    wall_ratio_flat = fm_flat_large.mean_call_seconds / fm_flat_small.mean_call_seconds
    visit_ratio = fm_large.visits_per_call / fm_small.visits_per_call
    visit_ratio_flat = fm_flat_large.visits_per_call / fm_flat_small.visits_per_call
    payload["guard"] = {
        "node_span": [NODE_COUNTS[0], NODE_COUNTS[-1]],
        "first_match_wall_ratio": wall_ratio,
        "first_match_wall_ratio_flat_oracle": wall_ratio_flat,
        "first_match_visit_ratio": visit_ratio,
        "first_match_visit_ratio_flat_oracle": visit_ratio_flat,
        "wall_ratio_bound": 3.0,
    }
    lines.append(
        f"first-match {NODE_COUNTS[0]//1000}k->{NODE_COUNTS[-1]//1000}k: "
        f"wall x{wall_ratio:.2f} vs x{wall_ratio_flat:.2f} flat oracle; "
        f"visits x{visit_ratio:.2f} vs x{visit_ratio_flat:.2f} "
        f"(machine grew x{NODE_COUNTS[-1]/NODE_COUNTS[0]:.0f})"
    )
    report("ext_matcher_scale", lines)
    record_json("BENCH_matcher.json", "matcher_scale_sweep", payload)

    # Regression guard: first-match per-call wall time must stay within
    # 3x across the 10x machine-size jump.
    assert wall_ratio <= 3.0, (
        f"first-match degraded {wall_ratio:.2f}x from "
        f"{NODE_COUNTS[0]} to {NODE_COUNTS[-1]} nodes (bound: 3x)"
    )
    # Deterministic sublinearity: visit counts, unlike wall time, have
    # no noise. The flat oracle's per-call visits grow ~linearly with
    # the machine (10x nodes -> ~10x visits); the matcher's must stay
    # essentially flat.
    assert visit_ratio_flat > 5.0
    assert visit_ratio < 2.0
    assert visit_ratio < 0.3 * visit_ratio_flat
    # The watermark index is doing the work: at 40k the matcher's scan
    # skipped partitions wholesale.
    assert fm_large.partitions_skipped > 0


@pytest.mark.matcher_scale
def test_exhaustive_policy_also_benefits(benchmark):
    """Low-id-first gains too: only hole-bearing partitions are examined."""
    nnodes = NODE_COUNTS[-1]

    def probe():
        graph = make_nearly_full_graph(nnodes, holes=HOLES)
        one = run_matcher_scale_probe(
            Matcher(graph, MatchPolicy.LOW_ID_FIRST), probes=50)
        flat = run_matcher_scale_probe(
            FlatMatcher(graph, MatchPolicy.LOW_ID_FIRST), probes=50)
        return one, flat

    one, flat = benchmark.pedantic(probe, rounds=1, iterations=1)
    report("ext_matcher_scale_lowid", [
        f"{nnodes:,} nodes, low-id-first: "
        f"{one.visits_per_call:,.0f} visits/call vs "
        f"flat oracle {flat.visits_per_call:,.0f}",
    ])
    # Flat exhaustive charges every node every call; the matcher only
    # the hole-bearing partitions plus one per skipped partition.
    assert one.visits_per_call < flat.visits_per_call / 10
