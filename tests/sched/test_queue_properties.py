"""Property-based tests for queue-manager ordering invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobSpec, JobState
from repro.sched.matcher import MatchPolicy
from repro.sched.resources import summit_like
from repro.util.clock import EventLoop
from tests.sched.oracles import assert_running_counts

job_strategy = st.tuples(
    st.integers(1, 6),      # ncores
    st.integers(0, 2),      # ngpus
    st.floats(10.0, 500.0),  # duration
)


@settings(max_examples=25, deadline=None)
@given(jobs=st.lists(job_strategy, min_size=1, max_size=30))
def test_property_fcfs_start_order_follows_submission(jobs):
    """Without backfilling, same-feasibility jobs start in submit order:
    job i never starts strictly after job j>i when both eventually run
    and i was runnable whenever j was (single-node GPU jobs are
    interchangeable here, so start times must be non-decreasing in
    submission order among identical requests)."""
    loop = EventLoop()
    flux = FluxInstance(summit_like(2), loop, policy=MatchPolicy.FIRST_MATCH)
    records = [
        flux.submit(JobSpec(name="j", ncores=c, ngpus=g, duration=d))
        for c, g, d in jobs
    ]
    loop.run_until(100_000.0)
    # Everything eventually completes (requests always fit one node).
    assert all(r.state is JobState.COMPLETED for r in records)
    # Identical requests start in submission order.
    by_shape = {}
    for r in records:
        by_shape.setdefault((r.spec.ncores, r.spec.ngpus), []).append(r.start_time)
    for starts in by_shape.values():
        assert starts == sorted(starts)


@settings(max_examples=20, deadline=None)
@given(
    njobs=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
def test_property_no_resource_leaks(njobs, seed):
    """After every job completes, the graph is exactly as free as new."""
    rng = np.random.default_rng(seed)
    loop = EventLoop()
    flux = FluxInstance(summit_like(2), loop)
    for _ in range(njobs):
        flux.submit(JobSpec(name="x", ncores=int(rng.integers(1, 5)),
                            ngpus=int(rng.integers(0, 3)),
                            duration=float(rng.uniform(10, 300))))
    loop.run_until(1_000_000.0)
    assert flux.graph.used_cores == 0
    assert flux.graph.used_gpus == 0
    counts = flux.counts()
    assert counts["completed"] == njobs


def check_after(queue, calls, *names):
    """Re-check the running counters after every call to ``names``."""
    for name in names:
        original = getattr(queue, name)

        def checked(*args, _original=original, _name=name, **kwargs):
            out = _original(*args, **kwargs)
            assert_running_counts(queue)
            calls[_name] = calls.get(_name, 0) + 1
            return out

        setattr(queue, name, checked)


@pytest.mark.parametrize("seed", range(4))
def test_running_counts_match_recount_under_churn(seed):
    """Backfill, preemption, cancel of running and pending jobs and node
    failures all keep the per-type running counts equal to a recount."""
    rng = np.random.default_rng(seed)
    loop = EventLoop()
    flux = FluxInstance(summit_like(4, partition_size=2), loop,
                        policy=MatchPolicy.BACKFILL, preemption=True)
    calls = {}
    check_after(flux.queue, calls, "cycle", "finish")
    shapes = {"cg": (3, 1), "aa": (3, 1), "setup": (24, 0), "wide": (40, 4)}
    cancelled = {JobState.PENDING: 0, JobState.RUNNING: 0}
    failed = 0
    for _ in range(400):
        action = rng.random()
        if action < 0.55:
            name = str(rng.choice(list(shapes)))
            ncores, ngpus = shapes[name]
            flux.submit(JobSpec(name=name, ncores=ncores, ngpus=ngpus,
                                duration=float(rng.uniform(5, 120)),
                                priority=int(rng.integers(0, 3))))
        elif action < 0.7:
            live = [r for r in flux.jobs.values() if not r.state.is_terminal]
            if live:
                victim = live[int(rng.integers(len(live)))]
                cancelled[victim.state] += 1
                flux.cancel(victim.job_id)
        elif action < 0.73:
            node_id = int(rng.integers(len(flux.graph)))
            failed += len(flux.fail_node(node_id))
            flux.graph.undrain(node_id)
        else:
            loop.run_until(loop.now + float(rng.uniform(1, 30)))
        assert_running_counts(flux.queue)
    loop.run_until(loop.now + 1_000.0)
    assert flux.queue.running_by_name() == {}
    # The stream reached every path that mutates the running set.
    assert flux.queue.backfilled and flux.queue.preempted
    assert cancelled[JobState.PENDING] and cancelled[JobState.RUNNING]
    assert failed and calls["cycle"] and calls["finish"]
