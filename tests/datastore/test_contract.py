"""Backend-agnostic contract tests.

Every backend must satisfy the same DataStore semantics — that is what
makes the "single configuration switch" of §4.2 safe. These tests run
identically against all three backends via the parametrized fixture.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datastore import (FSStore, KeyNotFound, StoreError, TaridxStore,
                             open_store)

BACKENDS = ["fs", "taridx", "kv"]


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    if request.param == "fs":
        s = FSStore(str(tmp_path / "fs"))
    elif request.param == "taridx":
        s = TaridxStore(str(tmp_path / "tar"))
    else:
        s = open_store("kv://3")
    yield s
    s.close()


class TestReadWrite:
    def test_roundtrip(self, store):
        store.write("a/b", b"hello")
        assert store.read("a/b") == b"hello"

    def test_overwrite_wins(self, store):
        store.write("k", b"v1")
        store.write("k", b"v2")
        assert store.read("k") == b"v2"

    def test_empty_payload(self, store):
        store.write("empty", b"")
        assert store.read("empty") == b""

    def test_binary_payload(self, store):
        blob = bytes(range(256)) * 10
        store.write("bin", blob)
        assert store.read("bin") == blob

    def test_missing_key_raises(self, store):
        with pytest.raises(KeyNotFound):
            store.read("nope")

    def test_exists(self, store):
        assert not store.exists("k")
        store.write("k", b"x")
        assert store.exists("k")

    def test_read_many(self, store):
        store.write("a", b"1")
        store.write("b", b"2")
        assert store.read_many(["a", "b"]) == {"a": b"1", "b": b"2"}


class TestDelete:
    def test_delete_removes(self, store):
        store.write("k", b"x")
        store.delete("k")
        assert not store.exists("k")

    def test_delete_missing_raises(self, store):
        with pytest.raises(KeyNotFound):
            store.delete("nope")

    def test_delete_many_counts(self, store):
        store.write("a", b"1")
        store.write("b", b"2")
        assert store.delete_many(["a", "b", "c"]) == 2

    def test_write_after_delete(self, store):
        store.write("k", b"v1")
        store.delete("k")
        store.write("k", b"v2")
        assert store.read("k") == b"v2"


class TestKeysAndNamespaces:
    def test_keys_sorted(self, store):
        for k in ("z", "a", "m"):
            store.write(k, b"x")
        assert store.keys() == ["a", "m", "z"]

    def test_prefix_filter(self, store):
        store.write("rdf/f1", b"x")
        store.write("rdf/f2", b"x")
        store.write("other/f3", b"x")
        assert store.keys("rdf/") == ["rdf/f1", "rdf/f2"]

    def test_empty_store_has_no_keys(self, store):
        assert store.keys() == []

    def test_move_retags_namespace(self, store):
        # The feedback "tagging" operation: move out of the live namespace.
        store.write("rdf/new/f1", b"payload")
        store.move("rdf/new/f1", "rdf/done/f1")
        assert store.keys("rdf/new/") == []
        assert store.read("rdf/done/f1") == b"payload"

    def test_move_missing_raises(self, store):
        with pytest.raises(KeyNotFound):
            store.move("nope", "dst")

    def test_move_overwrites_destination(self, store):
        store.write("src", b"new")
        store.write("dst", b"old")
        store.move("src", "dst")
        assert store.read("dst") == b"new"
        assert not store.exists("src")


class TestKeyValidation:
    @pytest.mark.parametrize(
        "bad", ["", "/abs", "trail/", "a//b", "a/../b", ".", "a/./b"]
    )
    def test_bad_keys_rejected(self, store, bad):
        with pytest.raises(StoreError):
            store.write(bad, b"x")


class TestTypedPayloads:
    def test_npz_roundtrip(self, store):
        arrays = {"x": np.arange(10), "y": np.eye(3)}
        store.write_npz("arr", arrays)
        back = store.read_npz("arr")
        np.testing.assert_array_equal(back["x"], arrays["x"])
        np.testing.assert_array_equal(back["y"], arrays["y"])

    def test_json_roundtrip(self, store):
        obj = {"frames": [1, 2, 3], "tag": "cg", "nested": {"a": 1.5}}
        store.write_json("meta", obj)
        assert store.read_json("meta") == obj


@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "delete", "move"]),
            st.sampled_from(["k1", "k2", "k3", "ns/k4"]),
            st.binary(max_size=64),
        ),
        max_size=30,
    )
)
def test_property_backends_agree(tmp_path_factory, ops):
    """All three backends produce identical visible state for any op sequence."""
    tmp = tmp_path_factory.mktemp("prop")
    stores = {
        "fs": FSStore(str(tmp / "fs")),
        "tar": TaridxStore(str(tmp / "tar")),
        "kv": open_store("kv://2"),
    }
    model = {}
    dst_cycle = ["k1", "k2", "k3", "ns/k4"]
    for i, (op, key, payload) in enumerate(ops):
        if op == "write":
            model[key] = payload
            for s in stores.values():
                s.write(key, payload)
        elif op == "delete":
            expect_err = key not in model
            model.pop(key, None)
            for s in stores.values():
                if expect_err:
                    with pytest.raises(KeyNotFound):
                        s.delete(key)
                else:
                    s.delete(key)
        else:  # move
            dst = dst_cycle[i % len(dst_cycle)]
            if dst == key:
                continue
            expect_err = key not in model
            if not expect_err:
                model[dst] = model.pop(key)
            for s in stores.values():
                if expect_err:
                    with pytest.raises(KeyNotFound):
                        s.move(key, dst)
                else:
                    s.move(key, dst)
    for name, s in stores.items():
        assert s.keys() == sorted(model), name
        for k, v in model.items():
            assert s.read(k) == v, name
        s.close()


# ---------------------------------------------------------------------------
# Seeded op-sequence fuzz (chaos-style: replayable from a seed, no
# hypothesis). Covers the batched ops the hypothesis property above
# does not, and extends the backend set to the tiered and networked
# stores — the full "single configuration switch" matrix.
# ---------------------------------------------------------------------------

FUZZ_KEYS = ["k1", "k2", "k3", "ns/k4", "ns/deep/k5", "other/k6"]
FUZZ_OPS = ("write", "write_many", "read", "read_many", "delete",
            "delete_many", "move", "keys", "exists")


def fuzz_ops(seed, nops=120):
    """A deterministic op sequence: (op, keys, payloads) tuples."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(nops):
        op = FUZZ_OPS[int(rng.integers(len(FUZZ_OPS)))]
        nkeys = int(rng.integers(1, 4))
        keys = [FUZZ_KEYS[int(rng.integers(len(FUZZ_KEYS)))] for _ in range(nkeys)]
        payloads = [bytes(rng.integers(0, 256, size=int(rng.integers(0, 48)),
                                       dtype=np.uint8).tolist())
                    for _ in range(nkeys)]
        ops.append((op, keys, payloads))
    return ops


def apply_op(store, model, op, keys, payloads):
    """Apply one op to a live store and the in-memory model, diffing results."""
    if op == "write":
        store.write(keys[0], payloads[0])
        model[keys[0]] = payloads[0]
    elif op == "write_many":
        items = dict(zip(keys, payloads))
        store.write_many(items)
        model.update(items)
    elif op == "read":
        if keys[0] in model:
            assert store.read(keys[0]) == model[keys[0]]
        else:
            with pytest.raises(KeyNotFound):
                store.read(keys[0])
    elif op == "read_many":
        present = [k for k in keys if k in model]
        if len(present) == len(keys):
            got = store.read_many(keys)
            assert got == {k: model[k] for k in keys}
        else:
            assert store.read_present(keys) == {k: model[k] for k in present}
    elif op == "delete":
        if keys[0] in model:
            store.delete(keys[0])
            del model[keys[0]]
        else:
            with pytest.raises(KeyNotFound):
                store.delete(keys[0])
    elif op == "delete_many":
        n = store.delete_many(keys)
        assert n == len({k for k in keys if k in model})
        for k in keys:
            model.pop(k, None)
    elif op == "move":
        src, dst = keys[0], FUZZ_KEYS[hash(keys[0]) % len(FUZZ_KEYS)]
        if src == dst:
            return
        if src in model:
            store.move(src, dst)
            model[dst] = model.pop(src)
        else:
            with pytest.raises(KeyNotFound):
                store.move(src, dst)
    elif op == "keys":
        prefix = ["", "ns/", "other/", "nope/"][len(keys) % 4]
        assert store.keys(prefix) == sorted(
            k for k in model if k.startswith(prefix))
    elif op == "exists":
        assert store.exists(keys[0]) == (keys[0] in model)


def run_fuzz(store, seed):
    model = {}
    for step, (op, keys, payloads) in enumerate(fuzz_ops(seed)):
        try:
            apply_op(store, model, op, keys, payloads)
        except AssertionError as exc:
            raise AssertionError(
                f"seed {seed} step {step} op {op} keys {keys}: {exc}") from exc
    assert store.keys() == sorted(model)
    assert store.read_many(sorted(model)) == model


class TestSeededOpSequenceFuzz:
    @pytest.mark.parametrize("seed", range(5))
    def test_local_backends_match_model(self, tmp_path, seed):
        stores = {
            "fs": FSStore(str(tmp_path / "fs")),
            "taridx": TaridxStore(str(tmp_path / "tar")),
            "kv": open_store("kv://3"),
        }
        for name, s in stores.items():
            try:
                run_fuzz(s, seed)
            finally:
                s.close()

    @pytest.mark.parametrize("seed", range(5))
    def test_tiered_store_matches_model(self, tmp_path, seed):
        from repro.datastore import TieredStore

        s = TieredStore(fast=open_store("kv://2"),
                        backing=FSStore(str(tmp_path / "backing")),
                        persist_prefixes=("ns/",))
        try:
            run_fuzz(s, seed)
        finally:
            s.close()

    @pytest.mark.multi_server
    @pytest.mark.parametrize("seed", range(2))
    def test_netkv_cluster_matches_model(self, seed):
        from repro.datastore import (NetKVCluster, NetKVServer, NetKVStore,
                                     TransportConfig)

        servers = [NetKVServer().start() for _ in range(3)]
        cluster = NetKVCluster(
            [srv.address for srv in servers],
            config=TransportConfig(op_timeout=0.5, connect_timeout=0.5,
                                   retries=1, backoff_base=0.01,
                                   backoff_max=0.05),
            replication=2,
        )
        store = NetKVStore(cluster)
        try:
            run_fuzz(store, seed)
        finally:
            store.close()
            for srv in servers:
                srv.stop()
