"""The metric catalogue: names and units, as BENCHMARK.json lists them.

Every run reports every metric of its kind. End-to-end metrics are
generic so that each workload has a non-zero value for each; what they
mean per workload:

==================  =================  ====================  ====================
metric              serve_campaign     sched_4000n_day       feedback_bulk
==================  =================  ====================  ====================
throughput_per_s    jobs_per_s         sched_starts_per_s    fb_frames_per_s
latency_ms_p90      status_ms_p90      sched_cycle_ms p90    fb_write_ms_p90
makespan_s          campaign_s_p50     wall s per 24 h day   wall s per iteration
==================  =================  ====================  ====================

The p50 latencies are printed but not reported: on a shared host the
median of sub-millisecond scheduler cycles moved by up to a fifth from
run to run. ``feedback_bulk`` runs from ``run.py`` but is not in
BENCHMARK.json: its iteration time moved by a fifth from run to run
even when scaled to host speed (see ``common.HostSpeed``).

End-to-end times and rates, ``setup_s`` included, are medians scaled to
the reference host speed (``common.HostSpeed``): each unit of work is
divided by the slowdown a fixed CPU probe measured around it.

Per-layer metrics come from the traced run. A layer's metrics are zero
on a workload that bypasses it. Counts are per unit of work: per
campaign (serve_campaign), per simulated day (sched_4000n_day) or per
iteration (feedback_bulk). ``self_frac.<layer>`` is the layer's share of
the attributed wall time (campaign-seconds for serve_campaign).
"""

END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("latency_ms_p90", "ms"),
    ("makespan_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Layers of the self-time tables, innermost first.
LAYERS = ("aio", "netkv", "datastore", "sampling", "feedback", "sims",
          "builder", "sched.shares", "wm", "service",
          "sched.resources", "sched.matcher", "sched.queue", "sched.flux",
          "core.profiling", "util.clock", "core.campaign")

STORE_OPS = ("write", "read", "move", "keys", "read_present", "write_many",
             "delete_many")
WIRE_OPS = ("get", "set", "rename", "keys", "mget", "mset")

PER_LAYER = (
    [("trace.unattributed_frac", "ratio"), ("trace.overhead_x", "ratio")]
    + [(f"self_frac.{layer}", "ratio") for layer in LAYERS]
    + [
        ("service.submit_ms", "ms"),
        ("service.status_handler_ms", "ms"),
        ("service.http_ms", "ms"),
        ("builder.build_ms", "ms"),
        ("wm.round_ms_p50", "ms"),
        ("wm.round_ms_p90", "ms"),
        ("wm.task1_ms", "ms"),
        ("wm.task3_ms", "ms"),
        ("wm.task4_ms", "ms"),
        ("wm.barrier_ms", "ms"),
        ("wm.jobs_per_round", "count"),
        ("wm.coord_ms_per_job", "ms"),
        ("wm.selector_lock_waits", "count"),
        ("sims.createsim_ms", "ms"),
        ("sims.cg_step_ms", "ms"),
        ("sims.backmap_ms", "ms"),
        ("sims.aa_step_ms", "ms"),
    ]
    + [(f"sampling.{kind}_{what}", unit)
       for kind in ("fps_select", "fps_add_batch", "binned_select", "binned_add")
       for what, unit in (("us", "us"), ("calls", "count"))]
    + [
        ("shares.queue_wait_ms_p50", "ms"),
        ("shares.queue_wait_ms_p90", "ms"),
        ("shares.pool_busy_frac", "ratio"),
        ("feedback.collect_ms", "ms"),
        ("feedback.process_ms", "ms"),
        ("feedback.tag_ms", "ms"),
        ("feedback.items_per_iter", "count"),
    ]
    + [(f"store.{op}_{what}", unit) for op in STORE_OPS
       for what, unit in (("calls", "count"), ("us_p50", "us"))]
    + [(f"netkv.{op}_us_p50", "us") for op in WIRE_OPS]
    + [
        ("netkv.facade_us", "us"),
        ("netkv.fanout", "ratio"),
        ("netkv.retries", "count"),
        ("netkv.failovers", "count"),
        ("netkv.coalesced_keys_per_request", "ratio"),
    ]
    + [(f"aio.{op}_us_p50", "us") for op in WIRE_OPS]
    + [
        ("wal.commit_wait_us_p50", "us"),
        ("wal.append_us", "us"),
        ("wal.fsync_batches", "count"),
        ("wal.records_per_fsync", "ratio"),
        ("sched.cycle_ms", "ms"),
        ("sched.cycles", "count"),
        ("sched.match_us", "us"),
        ("sched.match_calls", "count"),
        ("sched.visits_per_match", "count"),
        ("sched.partition_skip_frac", "ratio"),
        ("sched.submit_us", "us"),
        ("sched.release_us", "us"),
        ("sched.gpu_occupancy_pct", "%"),
        ("clock.loop_self_ms", "ms"),
        ("profiling.poll_ms", "ms"),
        ("campaign.scan_self_ms", "ms"),
    ]
)


def self_fracs(rows: dict, wall: float) -> dict:
    """``self_frac.<layer>`` metrics from a self-time table."""
    return {f"self_frac.{layer}": (rows.get(layer, 0.0) / wall if wall else 0.0,
                                   "ratio") for layer in LAYERS}
