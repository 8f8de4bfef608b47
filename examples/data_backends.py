#!/usr/bin/env python
"""Data-management tour: one payload, three backends, plus pytaridx tricks.

Shows §4.2 in action: the single-URL backend switch, taridx's inode
reduction and crash recovery, and the namespace-move tagging that keeps
feedback cost proportional to ongoing work.

Run:  python examples/data_backends.py
"""

import os
import tempfile
import time

import numpy as np

from repro.datastore import IndexedTar, TaridxStore, open_store, recover_index


def backend_switch(tmp: str) -> None:
    print("--- the single configuration switch ---")
    payload = {"rdf": np.random.default_rng(0).random((6, 24))}
    for url in (f"fs://{tmp}/fs", f"taridx://{tmp}/tar", "kv://4"):
        with open_store(url) as store:
            store.write_arrays("rdf/live/frame-0001", payload)
            back = store.read_arrays("rdf/live/frame-0001")
            ok = np.array_equal(back["rdf"], payload["rdf"])
            print(f"  {url:<28s} roundtrip {'OK' if ok else 'FAILED'}")


def inode_reduction(tmp: str) -> None:
    print("\n--- taridx: many logical files, few inodes ---")
    store = TaridxStore(os.path.join(tmp, "archive"), max_entries=50_000)
    n = 20_000
    t0 = time.perf_counter()
    for i in range(n):
        store.write(f"analysis/frame-{i:06d}", b"x" * 850)  # ~850 B, like CG frames
    dt = time.perf_counter() - t0
    print(f"  wrote {n:,} logical files in {dt:.2f}s ({n/dt:,.0f} files/s)")
    print(f"  physical inodes on disk: {store.nfiles()} "
          f"(reduction {store.inode_reduction():,.0f}x; paper saw ~9000x)")
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for i in rng.integers(0, n, size=2000):
        store.read(f"analysis/frame-{i:06d}")
    dt = time.perf_counter() - t0
    print(f"  random reads: {2000/dt:,.0f} files/s (paper: ~575 files/s on GPFS)")
    store.close()


def crash_recovery(tmp: str) -> None:
    print("\n--- taridx: crash tolerance ---")
    path = os.path.join(tmp, "crash.tar")
    with IndexedTar(path) as arc:
        arc.append("ckpt", b"possibly-truncated-by-crash")
        arc.append("ckpt", b"reinserted-after-restart")
    os.remove(path + ".idx")  # lose the sidecar entirely
    entries = recover_index(path)
    with IndexedTar(path) as arc:
        print(f"  sidecar lost -> rebuilt {len(entries)} entries from the tar; "
              f"read back: {arc.read('ckpt').decode()!r} (last write wins)")


def namespace_tagging() -> None:
    print("\n--- namespace-move tagging (feedback bookkeeping) ---")
    store = open_store("kv://2")
    for i in range(5):
        store.write(f"rdf/live/f{i}", b"data")
    print(f"  live frames before iteration: {len(store.keys('rdf/live/'))}")
    for key in store.keys("rdf/live/"):
        store.move(key, key.replace("live", "done"))
    print(f"  after tagging: live={len(store.keys('rdf/live/'))}, "
          f"done={len(store.keys('rdf/done/'))} — next iteration scans only new work")


def tiered_storage(tmp: str) -> None:
    print("\n--- tiered storage (RAM disk + shared filesystem) ---")
    from repro.datastore import FSStore
    from repro.datastore.tiered import TieredStore

    store = TieredStore(
        fast=open_store("kv://2"),
        backing=FSStore(os.path.join(tmp, "gpfs")),
        persist_prefixes=("ckpt/",),
    )
    store.write("traj/frame-0001", b"bulk trajectory data")  # RAM disk only
    store.write("ckpt/sim-0001", b"checkpoint")  # written through
    print(f"  scratch durable? {store.durable('traj/frame-0001')}   "
          f"checkpoint durable? {store.durable('ckpt/sim-0001')}")
    store.evict()  # node reboots: the RAM disk is gone
    print(f"  after eviction: checkpoint still readable -> "
          f"{store.read('ckpt/sim-0001').decode()!r}")
    store.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        backend_switch(tmp)
        inode_reduction(tmp)
        crash_recovery(tmp)
        namespace_tagging()
        tiered_storage(tmp)
