"""Deterministic matcher scale guard: visit counts from 4k to 40k nodes.

Visit counts, unlike wall time, carry no noise, so the sublinearity
that ``benchmarks/test_ext_matcher_scale.py`` times is pinned here with
a few probes on the same nearly-full backdrop (all but 8 nodes claimed
whole-node). A broken watermark index fails these checks; the wall-time
guard stays in the bench.
"""

import pytest

from repro.sched.emulator import make_nearly_full_graph, run_matcher_scale_probe
from repro.sched.matcher import Matcher, MatchPolicy
from tests.sched.oracles import FlatMatcher

SMALL, LARGE = 4000, 40_000
PROBES = 8


@pytest.fixture(scope="module")
def backdrops():
    return {n: make_nearly_full_graph(n, holes=8) for n in (SMALL, LARGE)}


def probe(matcher_cls, graph, policy):
    return run_matcher_scale_probe(matcher_cls(graph, policy), probes=PROBES)


def test_first_match_visits_stay_flat_across_10x_nodes(backdrops):
    one = [probe(Matcher, backdrops[n], MatchPolicy.FIRST_MATCH) for n in (SMALL, LARGE)]
    flat = [probe(FlatMatcher, backdrops[n], MatchPolicy.FIRST_MATCH) for n in (SMALL, LARGE)]
    ratio = one[1].visits_per_call / one[0].visits_per_call
    flat_ratio = flat[1].visits_per_call / flat[0].visits_per_call
    # The flat walk grows with the machine; the watermark walk must not.
    assert flat_ratio > 5.0
    assert ratio < 2.0
    assert ratio < 0.3 * flat_ratio
    assert one[1].partitions_skipped > 0


def test_low_id_visits_a_tenth_of_flat(backdrops):
    one = probe(Matcher, backdrops[LARGE], MatchPolicy.LOW_ID_FIRST)
    flat = probe(FlatMatcher, backdrops[LARGE], MatchPolicy.LOW_ID_FIRST)
    # Flat exhaustive charges every node every call; the watermark
    # charge covers only the hole-bearing partitions plus one vertex per
    # skipped partition.
    assert one.visits_per_call < flat.visits_per_call / 10
    assert one.partitions_skipped > 0
