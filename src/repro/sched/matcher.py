"""The resource matcher (R) and its policies.

§5.2: "R essentially traverses the resource graph in its entirety for
each job, particularly in the beginning when there are many vacant
resources, creating 'too many choices'. We solved this problem by
introducing a first-match policy that assigns the first matching
resource set to a job greedily." The two paper policies implement
exactly that trade-off, and :class:`MatchStats` counts the vertices each
one touches so benchmarks can report the speed-up both as visit counts
and as wall time.

Beyond the paper's pair, two richer placement policies ride on the
greedy scan (PAPERS.md: "Three Practical Workflow Schedulers",
"Co-scheduling Ensembles of In Situ Workflows"):

- :attr:`MatchPolicy.BACKFILL` — greedy matching plus window-bounded
  placement of later jobs past a blocked queue head (the queue manager
  interprets this policy by enabling its ``backfill_window``).
- :attr:`MatchPolicy.GANG` — all-or-nothing co-placement of a named
  ensemble of specs via :meth:`Matcher.match_gang`, with reservation and
  rollback on partial failure.

Each policy has one node scan, and both consult the graph's
per-partition free-resource watermarks: a partition whose watermark
cannot satisfy the request costs one summary check
(:attr:`MatchStats.partitions_skipped`), never its members. The flat
walks that ignore the watermarks live on as test oracles
(``tests/sched/oracles.py``), which the property suite and the scale
bench compare against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro import trace
from repro.sched.jobspec import JobSpec
from repro.sched.resources import Allocation, Node, ResourceGraph

__all__ = ["MatchPolicy", "MatchStats", "Matcher"]


class MatchPolicy(enum.Enum):
    """How R picks among feasible placements."""

    LOW_ID_FIRST = "low-id-first"
    """Exhaustive: enumerate every feasible node (ranking the whole
    subtree of each), then take the lowest resource ids — the policy the
    campaign ran with, whose full-graph traversal became the 4000-node
    bottleneck."""

    FIRST_MATCH = "first-match"
    """Greedy: take the first feasible node(s), scanning from a rotating
    start position; stops as soon as the request is satisfied — the fix
    that yielded the paper's 670× matcher speed-up."""

    BACKFILL = "backfill"
    """Greedy first-match scanning, plus the queue manager lets up to
    ``backfill_window`` later jobs start past a blocked head (the head
    keeps its queue position)."""

    GANG = "gang"
    """Greedy first-match scanning, plus ensembles of specs sharing a
    ``gang_id`` place all-or-nothing (reservation + rollback)."""


@dataclass
class MatchStats:
    """Traversal-cost accounting across match calls."""

    calls: int = 0
    matched: int = 0
    failed: int = 0
    vertices_visited: int = 0
    partitions_skipped: int = 0
    """Partitions dismissed by a watermark check alone (each also charges
    one visited vertex — the summary node)."""
    gang_calls: int = 0
    gang_matched: int = 0
    gang_rollbacks: int = 0
    preempt_calls: int = 0
    preempt_evictions: int = 0

    def visits_per_call(self) -> float:
        return self.vertices_visited / self.calls if self.calls else 0.0


class Matcher:
    """Maps a :class:`JobSpec` to an :class:`Allocation` on a graph.

    The matcher does not claim resources itself; :meth:`match` returns a
    placement proposal and the caller (the queue manager) claims it.
    That split mirrors Flux's Q/R separation and lets the queue model
    synchronous vs asynchronous communication between the two.
    """

    def __init__(self, graph: ResourceGraph,
                 policy: MatchPolicy = MatchPolicy.LOW_ID_FIRST) -> None:
        self.graph = graph
        self.policy = policy
        self.stats = MatchStats()
        self._rr_cursor = 0  # first-match rotating start

    # --- public API ------------------------------------------------------

    def match(self, spec: JobSpec) -> Optional[Allocation]:
        """Propose a placement, or None if the job cannot run now.

        This is the scheduler's hot loop (§5.2's 670× result is about
        exactly this call), so tracing is guarded on
        :func:`repro.trace.enabled` — the disabled cost is one global
        check, held under 5% of the match cost by
        ``benchmarks/test_ext_trace_overhead.py``.
        """
        if not trace.enabled():
            return self._match(spec)
        visited_before = self.stats.vertices_visited
        skipped_before = self.stats.partitions_skipped
        with trace.span("schedule.match") as sp:
            alloc = self._match(spec)
            sp.set(job=spec.name, policy=self.policy.value,
                   matched=alloc is not None,
                   vertices=self.stats.vertices_visited - visited_before,
                   partitions_skipped=self.stats.partitions_skipped - skipped_before)
        return alloc

    def match_gang(self, specs: Sequence[JobSpec]) -> Optional[List[Allocation]]:
        """All-or-nothing co-placement of an ensemble of specs.

        Members are placed (and claimed) one at a time — the running
        prefix is the *reservation*. If any member cannot place, every
        reserved allocation is released and the rotating cursor is
        restored, so a failed gang leaves the graph and the matcher
        state untouched (rollback). Returns one allocation per spec, in
        order, or None.
        """
        self.stats.gang_calls += 1
        if not specs:
            return []
        if not trace.enabled():
            return self._match_gang(specs)
        with trace.span("schedule.gang") as sp:
            allocs = self._match_gang(specs)
            sp.set(size=len(specs), placed=allocs is not None)
        return allocs

    def _match_gang(self, specs: Sequence[JobSpec]) -> Optional[List[Allocation]]:
        cursor_before = self._rr_cursor
        reserved: List[Allocation] = []
        for spec in specs:
            alloc = self._match(spec)
            if alloc is None:
                for held in reversed(reserved):
                    self.graph.release(held)
                self._rr_cursor = cursor_before
                self.stats.gang_rollbacks += 1
                return None
            reserved.append(alloc)
        self.stats.gang_matched += 1
        return reserved

    def preempt(
        self,
        spec: JobSpec,
        victims: Sequence[Tuple[int, Any, Allocation]],
    ) -> Optional[Tuple[Allocation, List[Any]]]:
        """Evict lowest-priority allocations until ``spec`` fits.

        ``victims`` is ``(priority, key, allocation)`` for every running
        job the caller is willing to sacrifice; only victims with
        priority *strictly below* ``spec.priority`` are eligible, and
        they are released lowest-priority-first (ties in the given
        order) until a match succeeds. On success returns the new
        allocation plus the keys of the evicted victims — the queue
        requeues those jobs. If evicting every eligible victim still
        does not make room, every released allocation is re-claimed and
        the cursor restored: preemption is all-or-nothing too.
        """
        self.stats.preempt_calls += 1
        eligible = sorted(
            (v for v in victims if v[0] < spec.priority), key=lambda v: v[0]
        )
        cursor_before = self._rr_cursor
        evicted: List[Tuple[Any, Allocation]] = []
        for _prio, key, alloc in eligible:
            self.graph.release(alloc)
            evicted.append((key, alloc))
            placement = self._match(spec)
            if placement is not None:
                self.stats.preempt_evictions += len(evicted)
                return placement, [k for k, _ in evicted]
        for _key, alloc in reversed(evicted):
            self.graph.claim(alloc.items)
        self._rr_cursor = cursor_before
        return None

    def _match(self, spec: JobSpec) -> Optional[Allocation]:
        self.stats.calls += 1
        if spec.exclusive:
            placement = self._match_exclusive(spec)
        else:
            placement = self._match_shared(spec)
        if placement is None:
            self.stats.failed += 1
            return None
        self.stats.matched += 1
        return self.graph.claim(placement)

    def release(self, alloc: Allocation) -> None:
        self.graph.release(alloc)

    # --- policy internals ----------------------------------------------------

    def _pick_cost(self, node: Node, ncores: int, ngpus: int) -> None:
        """Claiming enumerates only the chosen resources."""
        self.stats.vertices_visited += ncores + ngpus

    def _candidate_nodes(self, spec: JobSpec) -> List[Node]:
        """Feasible nodes under the current policy's traversal rule.

        Feasibility is computed from the graph's free counts, but the
        visit counter charges exactly what the equivalent graph walk
        would: the exhaustive policy inspects every node vertex of each
        partition its watermark admits and ranks the full subtree of
        every feasible node ("too many choices"); the greedy policies
        inspect node vertices only up to their last hit. A
        watermark-skipped partition charges one vertex (the summary
        check), never its members.
        """
        graph = self.graph
        stats = self.stats
        if self.policy is MatchPolicy.LOW_ID_FIRST:
            ids = graph.feasible_ids(spec.ncores, spec.ngpus, spec.exclusive)
            examined, skipped = graph.watermark_admits(spec.ncores, spec.ngpus, spec.exclusive)
            # Examine, then rank the subtree of every feasible node.
            stats.vertices_visited += (examined + skipped
                                       + len(ids) * (graph.node_subtree_size - 1))
            stats.partitions_skipped += skipped
            return [graph.nodes[i] for i in ids]
        ids, scanned, skipped = graph.first_feasible(
            self._rr_cursor, spec.nnodes, spec.ncores, spec.ngpus, spec.exclusive
        )
        stats.vertices_visited += scanned + skipped
        stats.partitions_skipped += skipped
        if len(ids) >= spec.nnodes:
            # Advance only when the request can actually place. A partial
            # multi-node hit must not rotate the cursor, or a string of
            # failed attempts walks it past the few feasible nodes and
            # the next feasible job starts scanning from the wrong spot.
            self._rr_cursor = (ids[-1] + 1) % len(graph.nodes)
        return [graph.nodes[i] for i in ids]

    def _match_shared(self, spec: JobSpec) -> Optional[List[Tuple[int, List[int], List[int]]]]:
        candidates = self._candidate_nodes(spec)
        if len(candidates) < spec.nnodes:
            return None
        placement = []
        for node in candidates[: spec.nnodes]:
            cores, gpus = node.pick(spec.ncores, spec.ngpus)
            self._pick_cost(node, len(cores), len(gpus))
            placement.append((node.node_id, cores, gpus))
        return placement

    def _match_exclusive(self, spec: JobSpec) -> Optional[List[Tuple[int, List[int], List[int]]]]:
        candidates = self._candidate_nodes(spec)
        if len(candidates) < spec.nnodes:
            return None
        placement = []
        for node in candidates[: spec.nnodes]:
            cores = node.free_core_ids()
            gpus = node.free_gpu_ids()
            # Exclusive means "the whole node", but the node must still
            # cover the per-node request — a feasibility mask computed
            # for shared mode (or an undersized node) would otherwise
            # hand the job fewer cores/GPUs than it asked for.
            if len(cores) < spec.ncores or len(gpus) < spec.ngpus:
                return None
            self._pick_cost(node, len(cores), len(gpus))
            placement.append((node.node_id, cores, gpus))
        return placement
