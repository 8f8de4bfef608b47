"""Model-based property test: the tiered store behaves like one store."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datastore import FSStore, KeyNotFound, open_store
from repro.datastore.tiered import TieredStore

KEYS = ["ckpt/a", "ckpt/b", "traj/x", "traj/y"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "delete", "move", "evict", "read"]),
            st.sampled_from(KEYS),
            st.binary(min_size=1, max_size=32),
        ),
        max_size=40,
    )
)
def test_property_tiered_matches_dict_model(tmp_path_factory, ops):
    tmp = tmp_path_factory.mktemp("tiered")
    store = TieredStore(
        fast=open_store("kv://2"),
        backing=FSStore(str(tmp / "backing")),
        persist_prefixes=("ckpt/",),
    )
    model = {}
    for i, (op, key, payload) in enumerate(ops):
        if op == "write":
            store.write(key, payload)
            model[key] = payload
        elif op == "delete":
            if key in model:
                store.delete(key)
                del model[key]
            else:
                with pytest.raises(KeyNotFound):
                    store.delete(key)
        elif op == "move":
            dst = KEYS[(KEYS.index(key) + 1) % len(KEYS)]
            if key in model:
                store.move(key, dst)
                model[dst] = model.pop(key)
            else:
                with pytest.raises(KeyNotFound):
                    store.move(key, dst)
        elif op == "evict":
            store.evict("traj/")  # scratch namespace only
            # scratch keys become unreadable; persistent keys survive.
            for k in list(model):
                if k.startswith("traj/"):
                    del model[k]
        elif op == "read":
            if key in model:
                assert store.read(key) == model[key]
            else:
                with pytest.raises(KeyNotFound):
                    store.read(key)
    assert store.keys() == sorted(model)
    for key, value in model.items():
        assert store.read(key) == value
    store.close()
