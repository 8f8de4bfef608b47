"""Tracing of the datastore stack, shared by the two store workloads.

Layers, outermost first: the ``datastore`` facade (``NamespacedStore``
and ``NetKVStore``), the ``netkv`` cluster (``NetKVCluster``: routing,
replication, failover), and the ``aio`` client channel
(``AsyncClientChannel``: the wire round trip, including time in the
shard). The ``wal`` layer lives in the shard child and is measured
there (``shardproc.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from metrics import STORE_OPS, WIRE_OPS
from tracer import Recorder

_EXTRA_CLUSTER = ("delete", "mdelete")
_EXTRA_CHANNEL = ("delete", "mdelete", "msetnx")


def wrap_store_layers(rec: Recorder) -> None:
    from repro.datastore.aio import AsyncClientChannel
    from repro.datastore.namespaced import NamespacedStore
    from repro.datastore.netkv import NetKVCluster, NetKVStore

    for op in STORE_OPS + ("delete",):
        rec.wrap(NetKVStore, op, f"store.{op}", "datastore")
    for op in STORE_OPS + ("delete", "read_many", "exists"):
        rec.wrap(NamespacedStore, op, f"namespaced.{op}", "datastore")
    for op in WIRE_OPS + _EXTRA_CLUSTER:
        rec.wrap(NetKVCluster, op, f"netkv.{op}", "netkv")
    for op in WIRE_OPS + _EXTRA_CHANNEL:
        rec.wrap(AsyncClientChannel, op, f"aio.{op}", "aio")


def transport_snapshot(store) -> Dict[str, int]:
    s = store.transport_stats
    return {"retries": s.retries, "failovers": s.failovers,
            "exhausted": s.exhausted, "requests": s.requests,
            "coalesced_requests": s.coalesced_requests,
            "coalesced_keys": s.coalesced_keys}


def store_metrics(rec: Recorder, self_time: Dict[str, float],
                  before: Dict[str, int], after: Dict[str, int],
                  child: Dict[str, float], units: float,
                  child_units: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the facade, cluster, channel and WAL layers.

    Counts are per unit of work: ``units`` traced units for the client
    side, ``child_units`` over the shard child's whole life.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for op in STORE_OPS:
        out[f"store.{op}_calls"] = (rec.count(f"store.{op}") / units, "count")
        out[f"store.{op}_us_p50"] = (rec.p50_us(f"store.{op}"), "us")
    for op in WIRE_OPS:
        out[f"netkv.{op}_us_p50"] = (rec.p50_us(f"netkv.{op}"), "us")
    for op in WIRE_OPS:
        out[f"aio.{op}_us_p50"] = (rec.p50_us(f"aio.{op}"), "us")
    store_calls = sum(rec.count(f"store.{op}") for op in STORE_OPS + ("delete",))
    cluster_calls = sum(rec.count(f"netkv.{op}")
                        for op in WIRE_OPS + _EXTRA_CLUSTER)
    channel_calls = sum(rec.count(f"aio.{op}")
                        for op in WIRE_OPS + _EXTRA_CHANNEL)
    # The facade tax: time in the store facades outside the cluster,
    # per store call.
    out["netkv.facade_us"] = (
        self_time.get("datastore", 0.0) * 1e6 / store_calls
        if store_calls else 0.0, "us")
    out["netkv.fanout"] = (channel_calls / cluster_calls
                           if cluster_calls else 0.0, "ratio")
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    out["netkv.retries"] = (delta.get("retries", 0) / units, "count")
    out["netkv.failovers"] = (delta.get("failovers", 0) / units, "count")
    out["netkv.coalesced_keys_per_request"] = (
        delta["coalesced_keys"] / delta["requests"]
        if delta.get("requests") else 0.0, "ratio")
    out["wal.commit_wait_us_p50"] = (float(child.get("commit_wait_us_p50", 0.0)), "us")
    out["wal.append_us"] = (float(child.get("append_us", 0.0)), "us")
    out["wal.fsync_batches"] = (child.get("fsync_batches", 0) / child_units, "count")
    out["wal.records_per_fsync"] = (float(child.get("records_per_fsync", 0.0)), "ratio")
    return out


def store_counts(rec: Recorder) -> Dict[str, str]:
    """Table notes for the store layers."""
    calls = {layer: sum(rec.count(f"{prefix}.{op}") for op in ops)
             for layer, prefix, ops in (
                 ("datastore", "store", STORE_OPS + ("delete",)),
                 ("netkv", "netkv", WIRE_OPS + _EXTRA_CLUSTER),
                 ("aio", "aio", WIRE_OPS + _EXTRA_CHANNEL))}
    return {layer: f"{n} calls" for layer, n in calls.items()}
