"""Whole-machine walks kept as test oracles.

The scheduler answers these questions incrementally; the walks below
are the straightforward definitions the incremental answers must match.
"""

from typing import Dict, List, Tuple

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
