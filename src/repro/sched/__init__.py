"""Flux-like scheduler substrate (paper §4.3, §5.2).

The paper schedules 24,000 simultaneous jobs by instantiating Flux — a
hierarchical resource manager — inside a batch allocation. This package
rebuilds that stack:

- :mod:`~repro.sched.resources` — the hierarchical resource graph
  (cluster → node → socket/core + GPU), Summit- and Lassen-shaped
  presets, and explicit allocations.
- :mod:`~repro.sched.jobspec` — job specifications (cores, GPUs, whole
  nodes, affinity) and job lifecycle records.
- :mod:`~repro.sched.matcher` — the resource matcher (R) with the two
  policies the paper compares: exhaustive ``low-id-first`` and greedy
  ``first-match`` (the 670× fix).
- :mod:`~repro.sched.queue` — the queue manager (Q): FCFS without
  backfilling, with synchronous or asynchronous Q↔R communication (the
  Fig. 6 chunking bottleneck).
- :mod:`~repro.sched.flux` — the scheduler facade tying Q, R and the
  event loop together, with node-failure drain support.
- :mod:`~repro.sched.adapter` — the Maestro-like scheduler-agnostic
  submission API.
- :mod:`~repro.sched.shares` — weighted fair sharing (stride
  scheduling) of one worker pool across the control plane's tenants.
- :mod:`~repro.sched.bundling` — the predecessor's bundled-job strategy,
  kept as the ablation baseline.
- :mod:`~repro.sched.emulator` — the harness reproducing the matcher
  policy comparison at emulated 4000-node scale.
"""

from repro.sched.resources import Allocation, Node, ResourceGraph, summit_like, lassen_like
from repro.sched.jobspec import JobSpec, JobState, JobRecord
from repro.sched.matcher import Matcher, MatchPolicy, MatchStats
from repro.sched.queue import QueueManager, QueueMode
from repro.sched.flux import FluxInstance
from repro.sched.adapter import SchedulerAdapter, FluxAdapter
from repro.sched.shares import FairShareAdapter, StrideScheduler, TenantAdapter
from repro.sched.bundling import bundle_gpu_jobs, BundleExpander

__all__ = [
    "Allocation",
    "Node",
    "ResourceGraph",
    "summit_like",
    "lassen_like",
    "JobSpec",
    "JobState",
    "JobRecord",
    "Matcher",
    "MatchPolicy",
    "MatchStats",
    "QueueManager",
    "QueueMode",
    "FluxInstance",
    "SchedulerAdapter",
    "FluxAdapter",
    "FairShareAdapter",
    "StrideScheduler",
    "TenantAdapter",
    "bundle_gpu_jobs",
    "BundleExpander",
]
