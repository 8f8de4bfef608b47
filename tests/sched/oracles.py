"""Whole-machine walks kept as test oracles.

The scheduler answers these questions incrementally; the walks below
are the straightforward definitions the incremental answers must match.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.sched.jobspec import JobSpec
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.queue import QueueManager
from repro.sched.resources import Node, ResourceGraph


def recount_running(queue: QueueManager) -> Dict[str, int]:
    """Running-job counts per job type, by walking ``queue.running``."""
    out: Dict[str, int] = {}
    for record in queue.running.values():
        out[record.spec.name] = out.get(record.spec.name, 0) + 1
    return out


def assert_running_counts(queue: QueueManager) -> None:
    counts = queue.running_by_name()
    assert counts == recount_running(queue)
    assert all(counts.values()), f"zero-count entry in {counts}"


def pick_walk(node: Node, ncores: int, ngpus: int) -> Tuple[List[int], List[int]]:
    """``Node.pick`` as a filter over every free core of the node."""
    gpu_ids = node.free_gpu_ids()[:ngpus]
    core_ids: List[int] = []
    if gpu_ids:
        want_socket = node.socket_of_gpu(gpu_ids[0])
        same = [c for c in node.free_core_ids() if node.socket_of_core(c) == want_socket]
        core_ids = same[:ncores]
    if len(core_ids) < ncores:
        chosen = set(core_ids)
        for c in node.free_core_ids():
            if len(core_ids) >= ncores:
                break
            if c not in chosen:
                core_ids.append(c)
                chosen.add(c)
    return core_ids, gpu_ids


def aggregates_walk(graph: ResourceGraph) -> Dict[str, int]:
    """Graph aggregates summed over the Node objects."""
    return {
        "free_cores": sum(n.free_cores for n in graph.nodes if not n.drained),
        "free_gpus": sum(n.free_gpus for n in graph.nodes if not n.drained),
        "used_cores": graph.total_cores - sum(n.free_cores for n in graph.nodes),
        "used_gpus": graph.total_gpus - sum(n.free_gpus for n in graph.nodes),
    }


def first_feasible_flat(
    graph: ResourceGraph,
    start: int,
    need: int,
    ncores: int,
    ngpus: int,
    exclusive: bool = False,
    chunk: int = 64,
) -> Tuple[List[int], int]:
    """``ResourceGraph.first_feasible`` without the partition index.

    Scans the flat free-count arrays circularly from ``start`` in
    chunks and returns ``(node ids, nodes scanned)``, counting positions
    up to the last hit.
    """
    n = len(graph.nodes)
    if exclusive and (ncores > graph.cores_per_node or ngpus > graph.gpus_per_node):
        return [], 0
    found: List[int] = []
    scanned = 0
    pos = start % n
    while scanned < n and len(found) < need:
        width = min(chunk, n - scanned)
        idx = (pos + np.arange(width)) % n
        if exclusive:
            ok = (graph._fc[idx] == graph.cores_per_node) & (
                graph._fg[idx] == graph.gpus_per_node
            )
        else:
            ok = (graph._fc[idx] >= ncores) & (graph._fg[idx] >= ngpus)
        ok &= ~graph._drained_mask[idx]
        for h in idx[ok]:
            found.append(int(h))
            if len(found) >= need:
                offset = int(np.nonzero(idx == h)[0][0]) + 1
                return found, scanned + offset
        scanned += width
        pos = (pos + width) % n
    return found, scanned


class FlatMatcher(Matcher):
    """A :class:`Matcher` whose scans ignore the partition watermarks.

    Low-id charges every node vertex on every call; first-match walks
    the flat arrays node by node. Placements and cursors must equal the
    production matcher's on any call stream, and the production charge
    must never exceed this one.
    """

    def _candidate_nodes(self, spec: JobSpec) -> List[Node]:
        graph = self.graph
        if self.policy is MatchPolicy.LOW_ID_FIRST:
            ids = graph.feasible_ids(spec.ncores, spec.ngpus, spec.exclusive)
            self.stats.vertices_visited += (len(graph.nodes)
                                            + len(ids) * (graph.node_subtree_size - 1))
            return [graph.nodes[i] for i in ids]
        ids, scanned = first_feasible_flat(
            graph, self._rr_cursor, spec.nnodes, spec.ncores, spec.ngpus, spec.exclusive
        )
        self.stats.vertices_visited += scanned
        if len(ids) >= spec.nnodes:
            self._rr_cursor = (ids[-1] + 1) % len(graph.nodes)
        return [graph.nodes[i] for i in ids]
