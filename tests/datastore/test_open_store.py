"""The single configuration switch: open_store URL routing."""

import pytest

from repro.datastore import FSStore, KVStore, StoreError, TaridxStore, open_store


class TestOpenStore:
    def test_fs_scheme(self, tmp_path):
        s = open_store(f"fs://{tmp_path}/data")
        assert isinstance(s, FSStore)
        s.close()

    def test_taridx_scheme(self, tmp_path):
        s = open_store(f"taridx://{tmp_path}/arch")
        assert isinstance(s, TaridxStore)
        s.close()

    def test_kv_scheme_default_servers(self):
        s = open_store("kv://")
        assert isinstance(s, KVStore)
        assert len(s.cluster.servers) == 1

    def test_kv_scheme_with_count(self):
        s = open_store("kv://20")
        assert len(s.cluster.servers) == 20

    def test_netkv_scheme(self):
        from repro.datastore import NetKVServer, NetKVStore

        servers = [NetKVServer().start() for _ in range(2)]
        try:
            url = "netkv://" + ",".join(f"{h}:{p}" for h, p in
                                        (s.address for s in servers))
            store = open_store(url)
            assert isinstance(store, NetKVStore)
            assert len(store.cluster._channels) == 2
            store.write("a", b"x")
            assert store.read("a") == b"x"
            store.close()
        finally:
            for s in servers:
                s.stop()

    def test_netkv_scheme_rejects_bad_addresses(self):
        with pytest.raises(StoreError):
            open_store("netkv://")
        with pytest.raises(StoreError):
            open_store("netkv://localhost")  # no port
        with pytest.raises(StoreError):
            open_store("netkv://host:notaport")

    def test_unknown_scheme(self):
        with pytest.raises(StoreError):
            open_store("s3://bucket")

    def test_missing_separator(self):
        with pytest.raises(StoreError):
            open_store("/just/a/path")

    def test_kwargs_forwarded(self, tmp_path):
        s = open_store(f"taridx://{tmp_path}/a", max_entries=5)
        assert s.max_entries == 5
        s.close()

    def test_same_payload_all_backends(self, tmp_path):
        """The paper's pitch: one payload, any backend, one-line switch."""
        payload = b"numpy archive bytes"
        urls = [f"fs://{tmp_path}/fs", f"taridx://{tmp_path}/tar", "kv://3"]
        for url in urls:
            with open_store(url) as s:
                s.write("patch/000001", payload)
                assert s.read("patch/000001") == payload
