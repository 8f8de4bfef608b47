"""Matcher-policy emulation at (scaled) Summit size — the 670× result.

§5.2: "Under Flux's emulated environment with a resource graph
configuration similar to 4000 Summit nodes and the same job mix (24,000
jobs with 1 GPU and 3 CPU cores each, and 1 job with 150 nodes, each
with 24 cores), we measured a 670× improvement in the performance."

:func:`run_policy_emulation` replays that exact job mix against both
matcher policies and reports traversal visits and wall time. ``scale``
shrinks nodes and jobs proportionally so the emulation also runs inside
unit tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from repro.sched.jobspec import JobSpec
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.resources import ResourceGraph, summit_like

__all__ = ["EmulationResult", "paper_job_mix", "run_policy_emulation",
           "compare_policies", "ScaleProbeResult", "make_nearly_full_graph",
           "run_matcher_scale_probe"]


@dataclass(frozen=True)
class EmulationResult:
    """Outcome of one policy run over the full job mix."""

    policy: str
    nnodes: int
    njobs: int
    matched: int
    vertices_visited: int
    wall_seconds: float

    def visits_per_job(self) -> float:
        return self.vertices_visited / self.njobs if self.njobs else 0.0


def paper_job_mix(scale: float = 1.0) -> List[JobSpec]:
    """The §5.2 mix: one 150-node×24-core job, then 24,000 1-GPU jobs.

    ``scale`` multiplies both the GPU-job count and the continuum job's
    node count (so the mix still fills the scaled machine).
    """
    n_gpu_jobs = max(1, int(24_000 * scale))
    continuum_nodes = max(1, int(150 * scale))
    mix: List[JobSpec] = [
        JobSpec(name="continuum", nnodes=continuum_nodes, ncores=24, ngpus=0)
    ]
    mix.extend(
        JobSpec(name="gpu-sim", ncores=3, ngpus=1, tag=f"sim{i:05d}")
        for i in range(n_gpu_jobs)
    )
    return mix


def run_policy_emulation(policy: MatchPolicy, scale: float = 1.0) -> EmulationResult:
    """Match the full job mix under one policy on a scaled Summit graph."""
    nnodes = max(2, int(4000 * scale))
    graph = summit_like(nnodes)
    matcher = Matcher(graph, policy)
    mix = paper_job_mix(scale)
    t0 = time.perf_counter()
    matched = 0
    for spec in mix:
        if matcher.match(spec) is not None:
            matched += 1
    wall = time.perf_counter() - t0
    return EmulationResult(
        policy=policy.value,
        nnodes=nnodes,
        njobs=len(mix),
        matched=matched,
        vertices_visited=matcher.stats.vertices_visited,
        wall_seconds=wall,
    )


def compare_policies(scale: float = 1.0) -> Dict[str, EmulationResult]:
    """Run both policies on identical mixes; returns results by policy name."""
    return {
        policy.value: run_policy_emulation(policy, scale)
        for policy in (MatchPolicy.LOW_ID_FIRST, MatchPolicy.FIRST_MATCH)
    }


@dataclass(frozen=True)
class ScaleProbeResult:
    """Per-call matcher cost on a nearly-full machine of ``nnodes``.

    This is the regime where a greedy scan that walks node by node
    degrades to O(nodes): the rotating cursor is usually far from the
    few free nodes, so every call walks most of the machine. The
    watermark scan dismisses full partitions with one summary check
    each, which is what keeps the cost sublinear in machine size.
    """

    nnodes: int
    policy: str
    probes: int
    mean_call_seconds: float
    visits_per_call: float
    partitions_skipped: int


def make_nearly_full_graph(nnodes: int, holes: int = 8) -> ResourceGraph:
    """A Summit-shaped graph with all but ``holes`` evenly spaced nodes
    claimed whole-node — the probe scenario's fixed backdrop."""
    graph = summit_like(nnodes)
    hole_ids = {int(i * nnodes / holes) for i in range(holes)}
    all_cores = list(range(graph.cores_per_node))
    all_gpus = list(range(graph.gpus_per_node))
    graph.claim([(nid, all_cores, all_gpus)
                 for nid in range(nnodes) if nid not in hole_ids])
    return graph


def run_matcher_scale_probe(matcher: Matcher, probes: int = 200) -> ScaleProbeResult:
    """Measure per-call match cost of ``matcher`` on its graph.

    Each probe matches one GPU job and releases it again. On a graph
    from :func:`make_nearly_full_graph` the job can only land in a
    hole, and the probe leaves the graph exactly as found, so one
    backdrop serves every matcher being compared.
    """
    spec = JobSpec(name="probe", ncores=3, ngpus=1)
    t0 = time.perf_counter()
    for _ in range(probes):
        alloc = matcher.match(spec)
        assert alloc is not None, "probe job must fit in a hole"
        matcher.release(alloc)
    wall = time.perf_counter() - t0
    return ScaleProbeResult(
        nnodes=len(matcher.graph),
        policy=matcher.policy.value,
        probes=probes,
        mean_call_seconds=wall / probes,
        visits_per_call=matcher.stats.visits_per_call(),
        partitions_skipped=matcher.stats.partitions_skipped,
    )
