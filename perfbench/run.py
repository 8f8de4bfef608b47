"""End-to-end benchmark of the coordination stack: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_campaign --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

``serve_campaign``
    epochs of two tenants' 10-round campaigns through the HTTP
    control plane over a durable 3-shard NetKV child process.
``sched_4000n_day``
    the campaign simulator's 4000-node x 24 h allocation, virtual time.
``feedback_bulk``
    Fig. 7's CG->continuum feedback loop on the durable 3-shard store.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics, scaled to a reference host speed by a CPU probe run
between or beside the measured work (``common.HostSpeed``), so that a
shared host's drifting speed does not read as a change in the program;
with ``--trace 1`` it carries the per-layer metrics
and the per-layer self-time table is printed above it. The process exits
1 when an output check fails and 2 when the program under test is
missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC, cleanup_scratch, stamp  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("serve_campaign", "sched_4000n_day", "feedback_bulk")


def _result(out: dict, trace: bool) -> dict:
    tally = out["tally"]
    if trace:
        values = {name: (0.0, unit) for name, unit in PER_LAYER}
        values.update(out["per_layer"])
        wanted = PER_LAYER
    else:
        values = dict(out["metrics"])
        values["setup_s"] = (out["setup_s"], "s")
        values["peak_rss_mb"] = (out["peak_rss_mb"], "MB")
        wanted = END_TO_END
    metrics = {}
    for name, unit in wanted:
        value, got_unit = values[name]
        if got_unit != unit:
            raise RuntimeError(f"metric {name}: unit {got_unit} != {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
    return {"correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # One CPU for this process, its threads and its shard child: the host
    # probe then times the CPU the workload runs on, and a request and its
    # reply need no wake-up of a second, idle virtual CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    print("stamp " + json.dumps(stamp(args.workload, args.seed, trace)), flush=True)
    workload = importlib.import_module(args.workload)
    try:
        out = workload.run(args.seed, args.seconds, trace)
    finally:
        cleanup_scratch()
    result = _result(out, trace)
    for line in out["lines"]:
        print(line)
    tally = out["tally"]
    for note in tally.notes:
        print(f"FAILED: {note}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for name, row in result["metrics"].items():
        print(f"  {name:<32s} {row['value']:>14.6g} {row['unit']}")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
