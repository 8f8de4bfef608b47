"""Ablation S6 (§4.2): one payload, any backend, one configuration switch.

Paper: "save a Numpy archive into a byte stream that can be redirected
effortlessly to a file, an archive, or a database — all with a single
configuration switch." This bench measures the write/read cost of the
same NumPy payloads through each backend and verifies bit-identical
roundtrips.
"""

import time

import numpy as np
import pytest
from conftest import report

from repro.datastore import open_store

N_PAYLOADS = 500
ARRAYS = {"rdf": np.random.default_rng(0).random((6, 24)),
          "meta": np.arange(16)}


def _url(scheme, tmp_path):
    return scheme if scheme.startswith("kv") else f"{scheme}://{tmp_path}/{scheme}"


def test_backend_swap_roundtrip_and_cost(benchmark, tmp_path):
    def run_all():
        times = {}
        for scheme in ("kv://8", "fs", "taridx"):
            store = open_store(_url(scheme, tmp_path))
            t0 = time.perf_counter()
            for i in range(N_PAYLOADS):
                store.write_arrays(f"patches/p{i:05d}", ARRAYS)
            t_write = time.perf_counter() - t0
            t0 = time.perf_counter()
            for i in range(N_PAYLOADS):
                back = store.read_arrays(f"patches/p{i:05d}")
                assert np.array_equal(back["rdf"], ARRAYS["rdf"])
            t_read = time.perf_counter() - t0
            times[scheme] = (t_write, t_read)
            store.close()
        return times

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [f"{N_PAYLOADS} NumPy-archive payloads per backend:"]
    for scheme, (tw, tr) in times.items():
        lines.append(f"  {scheme:<10s} write {N_PAYLOADS/tw:>9,.0f}/s   "
                     f"read {N_PAYLOADS/tr:>9,.0f}/s")
    report("backend_swap", lines)
    # The in-memory backend is the fastest writer — the ordering that
    # justified moving feedback off the filesystem.
    kv_write = times["kv://8"][0]
    assert kv_write <= min(tw for tw, _ in times.values()) * 1.001


@pytest.mark.parametrize("scheme", ["kv://2", "fs", "taridx"])
def test_backend_namespace_semantics_identical(benchmark, tmp_path, scheme):
    """The feedback-tagging semantics (scan, move, rescan) behave the
    same on every backend."""
    store = open_store(_url(scheme, tmp_path / "ns"))

    def tag_cycle():
        for i in range(50):
            store.write(f"live/f{i:03d}", b"x")
        live = store.keys("live/")
        for k in live:
            store.move(k, "done/" + k.split("/", 1)[1])
        return len(live), len(store.keys("live/")), len(store.keys("done/"))

    before, after, done = benchmark.pedantic(tag_cycle, rounds=1, iterations=1)
    assert (before, after, done) == (50, 0, 50)
    store.close()
