"""Taridx-specific behaviour: tar compatibility, recovery, rotation."""

import os
import tarfile

import pytest

from repro.datastore.base import KeyNotFound, StoreError
from repro.datastore.taridx import IndexedTar, TaridxStore, recover_index


class TestIndexedTar:
    def test_append_read_roundtrip(self, tmp_path):
        with IndexedTar(str(tmp_path / "a.tar")) as arc:
            arc.append("k1", b"hello")
            assert arc.read("k1") == b"hello"

    def test_last_write_wins(self, tmp_path):
        with IndexedTar(str(tmp_path / "a.tar")) as arc:
            arc.append("k", b"v1")
            arc.append("k", b"v2")
            assert arc.read("k") == b"v2"
            assert len(arc) == 1

    def test_archive_is_standard_tar(self, tmp_path):
        path = str(tmp_path / "a.tar")
        with IndexedTar(path) as arc:
            arc.append("dir/file.npy", b"payload-bytes")
        with tarfile.open(path) as tar:
            member = tar.getmember("dir/file.npy")
            assert tar.extractfile(member).read() == b"payload-bytes"

    def test_reopen_loads_index(self, tmp_path):
        path = str(tmp_path / "a.tar")
        with IndexedTar(path) as arc:
            arc.append("k1", b"v1")
            arc.append("k2", b"v2")
        with IndexedTar(path) as arc:
            assert arc.keys() == ["k1", "k2"]
            assert arc.read("k2") == b"v2"

    def test_tombstone_hides_key(self, tmp_path):
        with IndexedTar(str(tmp_path / "a.tar")) as arc:
            arc.append("k", b"v")
            arc.tombstone("k")
            assert "k" not in arc
            with pytest.raises(KeyNotFound):
                arc.read("k")

    def test_tombstone_survives_reopen(self, tmp_path):
        path = str(tmp_path / "a.tar")
        with IndexedTar(path) as arc:
            arc.append("k", b"v")
            arc.tombstone("k")
        with IndexedTar(path) as arc:
            assert "k" not in arc

    def test_alias_moves_without_copying_data(self, tmp_path):
        path = str(tmp_path / "a.tar")
        with IndexedTar(path) as arc:
            arc.append("old", b"payload")
            size_before = arc.nbytes()
            arc.alias("old", "new")
            assert arc.nbytes() == size_before  # index-only operation
            assert arc.read("new") == b"payload"
            assert "old" not in arc

    def test_missing_key_errors(self, tmp_path):
        with IndexedTar(str(tmp_path / "a.tar")) as arc:
            with pytest.raises(KeyNotFound):
                arc.read("nope")
            with pytest.raises(KeyNotFound):
                arc.tombstone("nope")
            with pytest.raises(KeyNotFound):
                arc.alias("nope", "x")

    def test_rejects_non_tar_path(self, tmp_path):
        with pytest.raises(StoreError):
            IndexedTar(str(tmp_path / "a.bin"))


class TestConcurrentAccess:
    def test_parallel_appends_and_reads_stay_intact(self, tmp_path):
        """The WM's thread pool appends while feedback reads; the
        shared seek+read handle must never hand back another key's
        bytes (this raced before the archive grew its lock)."""
        import threading

        arc = IndexedTar(str(tmp_path / "conc.tar"))
        for i in range(50):
            arc.append(f"seed/{i}", (f"seed-{i}" * 20).encode())
        errors = []

        def writer(wid):
            try:
                for i in range(100):
                    arc.append(f"w{wid}/{i}", (f"{wid}:{i}" * 20).encode())
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def reader():
            try:
                for i in range(300):
                    expected = (f"seed-{i % 50}" * 20).encode()
                    assert arc.read(f"seed/{i % 50}") == expected
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(w,)) for w in range(2)]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for wid in range(2):
            for i in range(100):
                assert arc.read(f"w{wid}/{i}") == (f"{wid}:{i}" * 20).encode()
        arc.close()

    def test_alias_to_invalid_dst_keeps_src(self, tmp_path):
        # Popping src before validating dst used to lose the entry.
        with IndexedTar(str(tmp_path / "a.tar")) as arc:
            arc.append("k", b"v")
            with pytest.raises(StoreError):
                arc.alias("k", "bad//dst")
            assert arc.read("k") == b"v"


class TestCrashRecovery:
    def test_recover_index_rebuilds_from_tar(self, tmp_path):
        path = str(tmp_path / "a.tar")
        with IndexedTar(path) as arc:
            arc.append("k1", b"v1")
            arc.append("k2", b"v2")
            arc.append("k1", b"v1-final")  # reinsert: last wins
        entries = recover_index(path)
        assert set(entries) == {"k1", "k2"}

    def test_lost_sidecar_is_rebuilt_on_open(self, tmp_path):
        path = str(tmp_path / "a.tar")
        with IndexedTar(path) as arc:
            arc.append("k1", b"v1")
            arc.append("k1", b"v2")
        os.remove(path + ".idx")
        with IndexedTar(path) as arc:
            assert arc.read("k1") == b"v2"

    def test_truncated_index_tail_is_ignored(self, tmp_path):
        path = str(tmp_path / "a.tar")
        with IndexedTar(path) as arc:
            arc.append("k1", b"v1")
            arc.append("k2", b"v2")
        # Simulate a crash mid-index-write: garbage partial line at the end.
        with open(path + ".idx", "a", encoding="utf-8") as fh:
            fh.write('{"k": "k3", "o": 12')
        with IndexedTar(path) as arc:
            assert arc.keys() == ["k1", "k2"]

    def test_reinsert_after_crash_is_correct_value(self, tmp_path):
        # §4.4: "in the event of a failure during a write, the same key
        # gets reinserted and is taken to be the correct value."
        path = str(tmp_path / "a.tar")
        with IndexedTar(path) as arc:
            arc.append("k", b"possibly-corrupt")
            arc.append("k", b"reinserted-good")
            assert arc.read("k") == b"reinserted-good"


class TestRotation:
    def test_rotates_after_max_entries(self, tmp_path):
        store = TaridxStore(str(tmp_path), max_entries=10)
        for i in range(35):
            store.write(f"k{i:03d}", b"x")
        assert store.narchives() == 4
        assert store.nentries() == 35
        store.close()

    def test_reads_span_archives(self, tmp_path):
        store = TaridxStore(str(tmp_path), max_entries=5)
        for i in range(12):
            store.write(f"k{i:02d}", str(i).encode())
        for i in range(12):
            assert store.read(f"k{i:02d}") == str(i).encode()
        store.close()

    def test_overwrite_across_archives_tombstones_old(self, tmp_path):
        store = TaridxStore(str(tmp_path), max_entries=2)
        store.write("a", b"v1")
        store.write("b", b"x")
        store.write("c", b"y")  # rotates
        store.write("a", b"v2")  # lands in archive 2, tombstones archive 1's copy
        assert store.read("a") == b"v2"
        assert store.keys() == ["a", "b", "c"]
        store.close()

    def test_store_reopen_restores_ownership(self, tmp_path):
        store = TaridxStore(str(tmp_path), max_entries=3)
        for i in range(7):
            store.write(f"k{i}", str(i).encode())
        store.delete("k3")
        store.close()
        store2 = TaridxStore(str(tmp_path), max_entries=3)
        assert store2.nentries() == 6
        assert store2.read("k5") == b"5"
        assert not store2.exists("k3")
        store2.close()

    def test_inode_reduction_grows_with_entries(self, tmp_path):
        store = TaridxStore(str(tmp_path), max_entries=1000)
        for i in range(200):
            store.write(f"k{i:04d}", b"data")
        # 200 logical files in 1 tar + 1 idx = 100x reduction.
        assert store.inode_reduction() == pytest.approx(100.0)
        store.close()

    def test_invalid_max_entries(self, tmp_path):
        with pytest.raises(ValueError):
            TaridxStore(str(tmp_path), max_entries=0)
