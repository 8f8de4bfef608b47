"""Property-based matcher tests: seeded random graphs + request streams.

No hypothesis in the container, so this is the poor-man's equivalent:
``numpy`` Generators seeded per case drive both the resource-graph
shapes and the job streams, and every property is checked over dozens
of sampled scenarios. Failures print the offending seed so a case can
be replayed exactly.

Properties:

- *capacity*: across any mix of matches and releases, under any
  policy, no node ever has more cores/GPUs claimed than it owns, and no
  resource is double-claimed (the graph raises if a claim conflicts).
- *conservation*: releasing everything returns the graph to fully free
  — checked from 2-node graphs up to 40k-node graphs under churn.
- *cursor*: the first-match round-robin cursor advances only when a
  request fully places (the PR 4 invariant) and always stays a valid
  node index.
- *agreement*: both paper policies succeed or fail together on a fresh
  graph (they differ in cost and choice, never in feasibility) for
  single-node requests.
- *oracle equivalence*: the matcher, whose scans skip partitions by
  watermark, is behaviorally identical to the flat-scan oracle
  (``tests/sched/oracles.FlatMatcher``) — same allocations, same
  cursor, same success/failure — under every policy, on mirrored call
  streams. Only the traversal cost may differ, and then only downward
  (watermark skips never add node visits).
- *gang/preemption*: ensembles place all-or-nothing and preemption is
  all-or-nothing too; neither can leak or double-claim resources, and
  a failed attempt leaves graph and cursor untouched.
- *incremental index*: the partition watermarks and vacancy counts that
  claim/release keep by moving nodes between histogram buckets equal a
  recompute from scratch after every single operation, and claim and
  release never recompute a partition.
"""

import numpy as np
import pytest

from repro.sched.jobspec import JobSpec
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.resources import ResourceError, ResourceGraph, summit_like
from tests.sched.oracles import FlatMatcher

SEEDS = range(12)


def random_graph(rng):
    # Cores split across 2 sockets, so per-node core counts are even.
    # Tiny partition sizes force multi-partition graphs so the
    # watermark-skip machinery is always in play.
    return ResourceGraph(
        nnodes=int(rng.integers(2, 20)),
        cores_per_node=2 * int(rng.integers(1, 17)),
        gpus_per_node=int(rng.integers(0, 5)),
        partition_size=int(rng.integers(1, 8)),
    )


def clone_graph(graph):
    """A fresh graph with the same shape (for mirrored-stream oracles)."""
    return ResourceGraph(
        nnodes=len(graph.nodes),
        cores_per_node=graph.cores_per_node,
        gpus_per_node=graph.gpus_per_node,
        partition_size=graph.partition_size,
    )


def assert_partition_summaries_consistent(graph):
    """Partition watermarks/vacancy must equal a recompute from scratch."""
    for p in range(graph.npartitions):
        lo, hi = graph._partition_bounds(p)
        drained = graph._drained_mask[lo:hi]
        fc = np.where(drained, -1, graph._fc[lo:hi])
        fg = np.where(drained, -1, graph._fg[lo:hi])
        assert graph._part_max_fc[p] == fc.max(), f"stale core watermark in partition {p}"
        assert graph._part_max_fg[p] == fg.max(), f"stale gpu watermark in partition {p}"
        nvacant = np.count_nonzero(
            (fc == graph.cores_per_node) & (fg == graph.gpus_per_node))
        assert graph._part_nvacant[p] == nvacant, f"stale vacancy count in partition {p}"


def random_spec(rng, graph, tight=False):
    """A request that is sometimes satisfiable, sometimes not."""
    stretch = 2 if tight else 1
    ncores = int(rng.integers(1, stretch * graph.cores_per_node + 1))
    ngpus = int(rng.integers(0, graph.gpus_per_node + 2)) if graph.gpus_per_node else 0
    return JobSpec(
        name=f"job-{int(rng.integers(1e6))}",
        ncores=ncores,
        ngpus=ngpus,
        nnodes=int(rng.integers(1, 4)),
        exclusive=bool(rng.random() < 0.1),
    )


def assert_within_capacity(graph, live_allocs):
    claimed_cores = {}
    claimed_gpus = {}
    for alloc in live_allocs:
        for node_id, cores, gpus in alloc.items:
            for c in cores:
                assert (node_id, c) not in claimed_cores, \
                    f"core {c} on node {node_id} double-claimed"
                claimed_cores[(node_id, c)] = True
            for g in gpus:
                assert (node_id, g) not in claimed_gpus
                claimed_gpus[(node_id, g)] = True
            node = graph.nodes[node_id]
            in_use_here = sum(1 for (n, _) in claimed_cores if n == node_id)
            assert in_use_here <= node.ncores
            gpus_here = sum(1 for (n, _) in claimed_gpus if n == node_id)
            assert gpus_here <= node.ngpus


@pytest.mark.parametrize("policy", list(MatchPolicy))
@pytest.mark.parametrize("seed", SEEDS)
def test_no_placement_exceeds_node_capacity(policy, seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=policy)
    live = []
    for _ in range(60):
        if live and rng.random() < 0.35:
            matcher.release(live.pop(int(rng.integers(len(live)))))
            continue
        alloc = matcher.match(random_spec(rng, graph, tight=True))
        if alloc is not None:
            live.append(alloc)
        assert_within_capacity(graph, live)
    for alloc in live:
        matcher.release(alloc)
    # Conservation: everything released → graph fully free again.
    assert sum(len(n.free_core_ids()) for n in graph.nodes) == \
        len(graph.nodes) * graph.cores_per_node
    assert sum(len(n.free_gpu_ids()) for n in graph.nodes) == \
        len(graph.nodes) * graph.gpus_per_node


@pytest.mark.parametrize("seed", SEEDS)
def test_rr_cursor_advances_only_on_full_placement(seed):
    rng = np.random.default_rng(100 + seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=MatchPolicy.FIRST_MATCH)
    for _ in range(80):
        before = matcher._rr_cursor
        alloc = matcher.match(random_spec(rng, graph, tight=True))
        after = matcher._rr_cursor
        assert 0 <= after < len(graph.nodes)
        if alloc is None:
            # The PR 4 invariant: a failed (or partially feasible) match
            # must not rotate the cursor past the few feasible nodes.
            assert after == before, f"cursor moved on failed match (seed {seed})"
        if alloc is not None and rng.random() < 0.5:
            matcher.release(alloc)


@pytest.mark.parametrize("seed", SEEDS)
def test_policies_agree_on_single_node_feasibility(seed):
    rng = np.random.default_rng(200 + seed)
    nnodes = int(rng.integers(2, 12))
    cores = 2 * int(rng.integers(1, 9))
    gpus = int(rng.integers(0, 3))
    for _ in range(40):
        spec_rng = np.random.default_rng(int(rng.integers(2**31)))
        graph_a = ResourceGraph(nnodes, cores, gpus)
        graph_b = ResourceGraph(nnodes, cores, gpus)
        spec = random_spec(spec_rng, graph_a, tight=True)
        if spec.nnodes > 1 or spec.exclusive:
            continue
        a = Matcher(graph_a, policy=MatchPolicy.LOW_ID_FIRST).match(spec)
        b = Matcher(graph_b, policy=MatchPolicy.FIRST_MATCH).match(spec)
        assert (a is None) == (b is None), \
            f"policies disagree on feasibility (seed {seed}, spec {spec})"


@pytest.mark.parametrize("seed", range(6))
def test_first_match_visits_no_more_than_exhaustive(seed):
    rng = np.random.default_rng(300 + seed)
    graph_a = ResourceGraph(16, 8, 2)
    graph_b = ResourceGraph(16, 8, 2)
    low = Matcher(graph_a, policy=MatchPolicy.LOW_ID_FIRST)
    fast = Matcher(graph_b, policy=MatchPolicy.FIRST_MATCH)
    for _ in range(50):
        spec = random_spec(rng, graph_a)
        spec_b = JobSpec(name=spec.name, ncores=spec.ncores, ngpus=spec.ngpus,
                         nnodes=spec.nnodes, exclusive=spec.exclusive)
        low.match(spec)
        fast.match(spec_b)
    assert fast.stats.vertices_visited <= low.stats.vertices_visited


# --- watermark-vs-flat oracle equivalence -----------------------------------


@pytest.mark.parametrize("policy", list(MatchPolicy))
@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_matches_flat_oracle(policy, seed):
    """The matcher is observationally identical to the flat-scan oracle
    on a mirrored call stream: same success/failure, same node and
    resource ids in every allocation, same rotating cursor afterwards —
    and never more node visits (watermark skips only remove work)."""
    rng = np.random.default_rng(400 + seed)
    graph_p = random_graph(rng)
    graph_f = clone_graph(graph_p)
    part = Matcher(graph_p, policy=policy)
    flat = FlatMatcher(graph_f, policy=policy)
    live = []  # (matcher alloc, oracle alloc) pairs
    for step in range(80):
        if live and rng.random() < 0.3:
            ap, af = live.pop(int(rng.integers(len(live))))
            part.release(ap)
            flat.release(af)
            continue
        spec = random_spec(rng, graph_p, tight=True)
        before_p = part.stats.vertices_visited
        before_f = flat.stats.vertices_visited
        ap = part.match(spec)
        af = flat.match(spec)
        assert (ap is None) == (af is None), \
            f"feasibility diverged (seed {seed}, step {step}, spec {spec})"
        if ap is not None:
            assert ap.items == af.items, \
                f"placement diverged (seed {seed}, step {step}, spec {spec})"
            live.append((ap, af))
        assert part._rr_cursor == flat._rr_cursor, \
            f"cursor diverged (seed {seed}, step {step})"
        assert (part.stats.vertices_visited - before_p) <= \
            (flat.stats.vertices_visited - before_f), \
            f"watermark scan cost more than flat (seed {seed}, step {step})"
    assert_partition_summaries_consistent(graph_p)
    for ap, af in live:
        part.release(ap)
        flat.release(af)
    assert np.array_equal(graph_p._fc, graph_f._fc)
    assert np.array_equal(graph_p._fg, graph_f._fg)


# --- capacity conservation under churn at scale -----------------------------


def _churn_and_check(nnodes, seed, ops):
    graph = ResourceGraph(nnodes, cores_per_node=8, gpus_per_node=2,
                          partition_size=256)
    rng = np.random.default_rng(seed)
    matcher = Matcher(graph, policy=MatchPolicy.FIRST_MATCH)
    live = []
    for _ in range(ops):
        if live and rng.random() < 0.4:
            matcher.release(live.pop(int(rng.integers(len(live)))))
            continue
        spec = JobSpec(
            name="churn",
            ncores=int(rng.integers(1, 9)),
            ngpus=int(rng.integers(0, 3)),
            nnodes=int(rng.integers(1, 4)),
            exclusive=bool(rng.random() < 0.2),
        )
        alloc = matcher.match(spec)
        if alloc is not None:
            live.append(alloc)
    assert_partition_summaries_consistent(graph)
    for alloc in live:
        matcher.release(alloc)
    assert int(graph._fc.sum()) == graph.total_cores
    assert int(graph._fg.sum()) == graph.total_gpus
    assert graph.free_cores == graph.total_cores
    assert graph.free_gpus == graph.total_gpus
    assert_partition_summaries_consistent(graph)


@pytest.mark.parametrize("seed", range(4))
def test_capacity_conserved_under_churn_1k(seed):
    _churn_and_check(1000, 500 + seed, ops=120)


@pytest.mark.matcher_scale
@pytest.mark.parametrize("seed", range(2))
def test_capacity_conserved_under_churn_10k(seed):
    _churn_and_check(10_000, 600 + seed, ops=120)


@pytest.mark.matcher_scale
@pytest.mark.parametrize("seed", range(2))
def test_capacity_conserved_under_churn_40k(seed):
    _churn_and_check(40_000, 700 + seed, ops=120)


# --- incremental partition index ------------------------------------------


def _index_stream_op(rng, graph, matcher, live):
    """Apply one random graph operation; ``live`` holds (priority, alloc)."""
    op = rng.choice(["match", "match", "release", "release", "drain",
                     "undrain", "preempt", "gang"])
    if op == "match":
        alloc = matcher.match(random_spec(rng, graph, tight=True))
        if alloc is not None:
            live.append((int(rng.integers(0, 3)), alloc))
    elif op == "release" and live:
        matcher.release(live.pop(int(rng.integers(len(live))))[1])
    elif op == "drain":
        graph.drain(int(rng.integers(len(graph.nodes))))
    elif op == "undrain" and graph.drained_nodes():
        drained = graph.drained_nodes()
        graph.undrain(drained[int(rng.integers(len(drained)))])
    elif op == "preempt":
        spec = random_spec(rng, graph)
        spec = JobSpec(name=spec.name, ncores=spec.ncores, ngpus=spec.ngpus,
                       nnodes=spec.nnodes, priority=int(rng.integers(0, 4)))
        victims = [(prio, i, alloc) for i, (prio, alloc) in enumerate(live)]
        result = matcher.preempt(spec, victims)
        if result is not None:
            placement, evicted = result
            gone = set(evicted)
            live[:] = [v for i, v in enumerate(live) if i not in gone]
            live.append((spec.priority, placement))
    elif op == "gang":
        gang = [JobSpec(name=f"g{j}", ncores=int(rng.integers(1, graph.cores_per_node + 1)),
                        ngpus=int(rng.integers(0, graph.gpus_per_node + 1)), gang_id="ens")
                for j in range(int(rng.integers(1, 4)))]
        for alloc in matcher.match_gang(gang) or ():
            live.append((0, alloc))


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_index_exact_after_every_op(seed):
    """Random streams of match, release, drain, undrain, preempt and
    gang placement on 1-7-node partitions: the incrementally kept
    summaries equal a recompute after *every* op, including releases of
    allocations on drained nodes that are undrained later."""
    rng = np.random.default_rng(1100 + seed)
    graph = random_graph(rng)
    policy = [MatchPolicy.FIRST_MATCH, MatchPolicy.LOW_ID_FIRST, MatchPolicy.GANG][seed % 3]
    matcher = Matcher(graph, policy=policy)
    live = []
    for _ in range(150):
        _index_stream_op(rng, graph, matcher, live)
        assert_partition_summaries_consistent(graph)
    for _, alloc in live:
        matcher.release(alloc)
        assert_partition_summaries_consistent(graph)
    for node_id in graph.drained_nodes():
        graph.undrain(node_id)
    assert graph.free_cores == graph.total_cores
    assert all(n == graph.cores_per_node for n in graph._part_max_fc)
    assert_partition_summaries_consistent(graph)


def test_release_on_drained_node_then_undrain():
    graph = ResourceGraph(6, cores_per_node=4, gpus_per_node=2, partition_size=3)
    alloc = graph.claim([(1, [0, 1, 2, 3], [0, 1])])
    others = graph.claim([(0, [0, 1, 2, 3], [0, 1]), (2, [0, 1, 2, 3], [0, 1])])
    graph.drain(1)
    assert graph._part_max_fc[0] == 0
    graph.release(alloc)  # frees a drained node: the watermark must not rise
    assert_partition_summaries_consistent(graph)
    assert graph._part_max_fc[0] == 0 and graph._part_nvacant[0] == 0
    graph.undrain(1)
    assert_partition_summaries_consistent(graph)
    assert graph._part_max_fc[0] == 4 and graph._part_nvacant[0] == 1
    graph.release(others)
    assert_partition_summaries_consistent(graph)
    assert graph._part_nvacant[0] == 3


def test_claim_naming_one_node_twice():
    """Disjoint cores of one node in two placement items move the node
    through two buckets; a conflicting repeat rolls back cleanly."""
    graph = ResourceGraph(4, cores_per_node=4, gpus_per_node=2, partition_size=2)
    alloc = graph.claim([(1, [0], [0]), (1, [1, 2], [])])
    assert graph.nodes[1].free_cores == 1
    assert_partition_summaries_consistent(graph)
    assert graph._part_nvacant[0] == 1
    with pytest.raises(ResourceError):
        graph.claim([(0, [3], []), (0, [3], [])])
    assert graph.nodes[0].free_cores == 4
    assert_partition_summaries_consistent(graph)
    graph.release(alloc)
    assert_partition_summaries_consistent(graph)
    assert list(graph._part_nvacant) == [2, 2]


@pytest.mark.matcher_scale
def test_claim_release_never_recompute_a_partition(monkeypatch):
    """Structural guard: the claim/release upkeep moves touched nodes
    between buckets and never falls back to a whole-partition pass."""
    graph = summit_like(40_000)
    rng = np.random.default_rng(1200)

    def no_refresh(self, p):
        raise AssertionError(f"partition {p} recomputed outside drain/undrain")

    monkeypatch.setattr(ResourceGraph, "_refresh_partition", no_refresh)
    matcher = Matcher(graph, policy=MatchPolicy.FIRST_MATCH)
    held = []
    for _ in range(500):
        alloc = matcher.match(JobSpec(name="probe", ncores=int(rng.integers(1, 45)),
                                      ngpus=int(rng.integers(0, 7)),
                                      nnodes=int(rng.integers(1, 3))))
        if rng.random() < 0.5:
            held.append(alloc)  # keep some occupancy so watermarks move
        else:
            matcher.release(alloc)
    for alloc in held:
        matcher.release(alloc)
    monkeypatch.undo()
    assert_partition_summaries_consistent(graph)


# --- low-id charge from the partition summaries ----------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_low_id_charge_walks_admitting_partitions(seed):
    """Per call, low-id charges every node of each partition whose
    summary admits the request, one vertex per other partition, and the
    rest of each feasible node's subtree — a short last partition
    charges only the nodes it has."""
    rng = np.random.default_rng(1300 + seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=MatchPolicy.LOW_ID_FIRST)
    live = []
    for step in range(60):
        if live and rng.random() < 0.3:
            matcher.release(live.pop(int(rng.integers(len(live)))))
            continue
        if rng.random() < 0.1:
            graph.drain(int(rng.integers(len(graph.nodes))))
        spec = random_spec(rng, graph, tight=True)
        expected = 0
        skipped = 0
        oversize = spec.exclusive and (spec.ncores > graph.cores_per_node
                                       or spec.ngpus > graph.gpus_per_node)
        for p in range(graph.npartitions):
            if oversize:
                break
            lo, hi = graph._partition_bounds(p)
            if graph.partition_feasible(p, spec.ncores, spec.ngpus, spec.exclusive):
                expected += hi - lo
            else:
                expected += 1
                skipped += 1
        feasible = graph.feasible_ids(spec.ncores, spec.ngpus, spec.exclusive)
        expected += len(feasible) * (graph.node_subtree_size - 1)
        visits_before = matcher.stats.vertices_visited
        skipped_before = matcher.stats.partitions_skipped
        alloc = matcher.match(spec)
        if alloc is not None:
            expected += alloc.ncores + alloc.ngpus  # claim enumeration
            live.append(alloc)
        assert matcher.stats.vertices_visited - visits_before == expected, \
            f"low-id charge off (seed {seed}, step {step}, spec {spec})"
        assert matcher.stats.partitions_skipped - skipped_before == skipped


# --- first-match visit-count upper bound with skips -------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_first_match_visit_bound(seed):
    """Per call, the first-match charge (nodes scanned plus one per
    skipped partition) never exceeds the graph size plus its partition
    count, and across a stream it never exceeds the flat oracle's total."""
    rng = np.random.default_rng(800 + seed)
    graph = random_graph(rng)
    graph_flat = clone_graph(graph)
    part = Matcher(graph, policy=MatchPolicy.FIRST_MATCH)
    flat = FlatMatcher(graph_flat, policy=MatchPolicy.FIRST_MATCH)
    n = len(graph.nodes)
    for _ in range(60):
        spec = random_spec(rng, graph, tight=True)
        before = part.stats.vertices_visited
        ap = part.match(spec)
        af = flat.match(spec)
        scan_charge = part.stats.vertices_visited - before
        if ap is not None:
            # Subtract the claim-enumeration charge to isolate the scan.
            scan_charge -= ap.ncores + ap.ngpus
        assert scan_charge <= n + graph.npartitions, \
            f"scan charged {scan_charge} on a {n}-node graph (seed {seed})"
        if ap is not None:
            part.release(ap)
        if af is not None:
            flat.release(af)
    assert part.stats.vertices_visited <= flat.stats.vertices_visited
    assert part.stats.partitions_skipped >= 0


# --- gang all-or-nothing ----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_gang_is_all_or_nothing(seed):
    """A failed gang leaves the graph and cursor exactly as they were; a
    placed gang holds exactly its members' resources and releases back
    to the pre-gang state."""
    rng = np.random.default_rng(900 + seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=MatchPolicy.GANG)
    # Pre-load some background occupancy so gangs sometimes fail.
    background = []
    for _ in range(int(rng.integers(0, 6))):
        alloc = matcher.match(random_spec(rng, graph))
        if alloc is not None:
            background.append(alloc)
    for _ in range(15):
        size = int(rng.integers(1, 5))
        gang = [
            JobSpec(name=f"g{j}", ncores=int(rng.integers(1, graph.cores_per_node + 1)),
                    ngpus=int(rng.integers(0, graph.gpus_per_node + 1)),
                    gang_id="ens")
            for j in range(size)
        ]
        fc_before = graph._fc.copy()
        fg_before = graph._fg.copy()
        cursor_before = matcher._rr_cursor
        allocs = matcher.match_gang(gang)
        if allocs is None:
            assert np.array_equal(graph._fc, fc_before), \
                f"failed gang leaked cores (seed {seed})"
            assert np.array_equal(graph._fg, fg_before), \
                f"failed gang leaked gpus (seed {seed})"
            assert matcher._rr_cursor == cursor_before, \
                f"failed gang moved the cursor (seed {seed})"
        else:
            assert len(allocs) == len(gang)
            for held in allocs:
                matcher.release(held)
            assert np.array_equal(graph._fc, fc_before)
            assert np.array_equal(graph._fg, fg_before)
        assert_partition_summaries_consistent(graph)
    for alloc in background:
        matcher.release(alloc)
    assert int(graph._fc.sum()) == graph.total_cores


# --- preemption no-resource-leak --------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_preempt_never_leaks_resources(seed):
    """Preemption evicts only strictly-lower-priority victims, and both
    outcomes are leak-free: failure restores the graph bit-for-bit,
    success holds exactly the new allocation plus the survivors."""
    rng = np.random.default_rng(1000 + seed)
    graph = random_graph(rng)
    matcher = Matcher(graph, policy=MatchPolicy.FIRST_MATCH)
    running = {}  # key -> (priority, alloc)
    key = 0
    # Fill the machine with low/medium-priority work.
    for _ in range(40):
        prio = int(rng.integers(0, 3))
        alloc = matcher.match(JobSpec(
            name=f"bg{key}", ncores=int(rng.integers(1, graph.cores_per_node + 1)),
            ngpus=int(rng.integers(0, graph.gpus_per_node + 1)), priority=prio))
        if alloc is not None:
            running[key] = (prio, alloc)
            key += 1
    for _ in range(10):
        spec = JobSpec(
            name="urgent", ncores=int(rng.integers(1, graph.cores_per_node + 1)),
            ngpus=int(rng.integers(0, graph.gpus_per_node + 1)),
            priority=int(rng.integers(0, 5)))
        victims = [(prio, k, alloc) for k, (prio, alloc) in running.items()]
        fc_before = graph._fc.copy()
        fg_before = graph._fg.copy()
        result = matcher.preempt(spec, victims)
        if result is None:
            assert np.array_equal(graph._fc, fc_before), \
                f"failed preempt leaked cores (seed {seed})"
            assert np.array_equal(graph._fg, fg_before), \
                f"failed preempt leaked gpus (seed {seed})"
        else:
            placement, evicted_keys = result
            for k in evicted_keys:
                assert running[k][0] < spec.priority, \
                    f"evicted an equal/higher-priority job (seed {seed})"
                del running[k]
            running[key] = (spec.priority, placement)
            key += 1
        # Accounting: free + held == total, with no double claims.
        held = [alloc for _, alloc in running.values()]
        assert_within_capacity(graph, held)
        held_cores = sum(a.ncores for a in held)
        held_gpus = sum(a.ngpus for a in held)
        assert int(graph._fc.sum()) == graph.total_cores - held_cores
        assert int(graph._fg.sum()) == graph.total_gpus - held_gpus
        assert_partition_summaries_consistent(graph)
    for _, alloc in running.values():
        matcher.release(alloc)
    assert int(graph._fc.sum()) == graph.total_cores
    assert int(graph._fg.sum()) == graph.total_gpus
