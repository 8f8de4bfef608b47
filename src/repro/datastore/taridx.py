"""pytaridx re-implementation: append-only indexed tar archives.

The paper (§4.2, §5.2) manages over a billion logical files inside
~115k tar archives — a ~9000× inode reduction — while retaining random
access through a sidecar index. This module provides the same design:

- Archives are **standard tar files**, readable by any tar tool.
- Writes are **append-only**: a crash mid-write can only truncate the
  tail; on restart "the same key gets reinserted and is taken to be the
  correct value" — read resolution is last-write-wins.
- A **sidecar index** (JSON lines) maps keys to (data offset, size), so
  reads seek directly into the archive without parsing tar headers.
- The index is **reconstructible** from the tar alone
  (:func:`recover_index`), so losing the sidecar loses nothing.
- Deletes and moves are pure **index operations** (tombstones and
  aliases); member data is immutable, exactly as the paper describes.

:class:`TaridxStore` layers the :class:`~repro.datastore.base.DataStore`
API over a directory of rotating archives.
"""

from __future__ import annotations

import io
import json
import os
import tarfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.datastore.base import DataStore, KeyNotFound, StoreError, validate_key

__all__ = ["IndexedTar", "TaridxStore", "recover_index"]

_BLOCK = 512  # tar block size


class IndexedTar:
    """One append-only tar archive plus its sidecar JSON-lines index.

    Index records are one of::

        {"k": key, "o": data_offset, "s": size}    # live entry (append)
        {"k": key, "del": 1}                       # tombstone
        {"k": new, "alias": 1, "o": ..., "s": ...} # move target

    The in-memory view is the fold of the records in order; later
    records win.
    """

    def __init__(self, path: str, mode: str = "a") -> None:
        if not path.endswith(".tar"):
            raise StoreError(f"archive path must end with .tar: {path!r}")
        self.path = path
        self.index_path = path + ".idx"
        # The WM's thread pool runs job bodies concurrently, so the
        # shared reader/writer handles need seek+read / offset+append
        # atomicity — an unguarded seek is a corrupted payload.
        self._lock = threading.RLock()
        self._entries: Dict[str, Tuple[int, int]] = {}  # key -> (offset, size)
        self._writer: Optional[tarfile.TarFile] = None
        self._reader: Optional[io.BufferedReader] = None
        self._index_fh = None
        self._readonly = mode == "r"
        if os.path.exists(self.index_path):
            self._load_index()
        elif os.path.exists(self.path):
            # Sidecar lost: rebuild from the tar itself.
            self._entries = recover_index(self.path)
            self._persist_full_index()
        if not self._readonly:
            self._open_writer()

    # --- index management ---------------------------------------------------

    def _load_index(self) -> None:
        with open(self.index_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    break  # truncated tail from a crash; ignore the rest
                key = rec["k"]
                if rec.get("del"):
                    self._entries.pop(key, None)
                else:
                    self._entries[key] = (int(rec["o"]), int(rec["s"]))

    def _persist_full_index(self) -> None:
        with open(self.index_path, "w", encoding="utf-8") as fh:
            for key, (off, size) in self._entries.items():
                fh.write(json.dumps({"k": key, "o": off, "s": size}) + "\n")

    def _append_index(self, rec: dict) -> None:
        if self._index_fh is None:
            self._index_fh = open(self.index_path, "a", encoding="utf-8")
        self._index_fh.write(json.dumps(rec) + "\n")
        self._index_fh.flush()

    # --- tar management -------------------------------------------------------

    def _open_writer(self) -> None:
        if self._writer is None:
            self._writer = tarfile.open(self.path, "a", format=tarfile.GNU_FORMAT)

    def _open_reader(self) -> io.BufferedReader:
        # The writer buffers; flush its stream so the reader sees appends.
        if self._writer is not None:
            self._writer.fileobj.flush()
        if self._reader is None:
            self._reader = open(self.path, "rb")
        return self._reader

    # --- public API ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def append(self, key: str, data: bytes) -> None:
        """Append ``data`` under ``key``. Re-appending a key supersedes it."""
        if self._readonly:
            raise StoreError(f"archive {self.path!r} opened read-only")
        validate_key(key)
        with self._lock:
            self._open_writer()
            info = tarfile.TarInfo(name=key)
            info.size = len(data)
            info.mtime = int(time.time())
            header_offset = self._writer.offset
            self._writer.addfile(info, io.BytesIO(data))
            data_offset = header_offset + _BLOCK
            self._entries[key] = (data_offset, len(data))
            self._append_index({"k": key, "o": data_offset, "s": len(data)})

    def read(self, key: str) -> bytes:
        """Random-access read of the latest version of ``key``."""
        with self._lock:
            if key not in self._entries:
                raise KeyNotFound(key)
            offset, size = self._entries[key]
            fh = self._open_reader()
            fh.seek(offset)
            data = fh.read(size)
        if len(data) != size:
            raise StoreError(f"short read for {key!r}: archive truncated?")
        return data

    def tombstone(self, key: str) -> None:
        """Logically remove ``key`` (data remains in the tar)."""
        with self._lock:
            if key not in self._entries:
                raise KeyNotFound(key)
            del self._entries[key]
            self._append_index({"k": key, "del": 1})

    def alias(self, src: str, dst: str) -> None:
        """Index-only move: ``dst`` points at ``src``'s data; ``src`` dies."""
        validate_key(dst)
        with self._lock:
            if src not in self._entries:
                raise KeyNotFound(src)
            offset, size = self._entries.pop(src)
            self._entries[dst] = (offset, size)
            self._append_index({"k": src, "del": 1})
            self._append_index({"k": dst, "alias": 1, "o": offset, "s": size})

    def nbytes(self) -> int:
        """Current size of the tar file on disk."""
        if self._writer is not None:
            self._writer.fileobj.flush()
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0

    def live_bytes(self) -> int:
        """Payload bytes still reachable through the index."""
        return sum(size for _off, size in self._entries.values())

    def dead_payload(self) -> int:
        """Payload bytes held by superseded or tombstoned members.

        Computed by scanning the tar's member headers (cheap relative
        to compaction itself, which is when this matters).
        """
        if not os.path.exists(self.path):
            return 0
        if self._writer is not None:
            self._writer.fileobj.flush()
        if os.path.getsize(self.path) == 0:
            return 0
        with tarfile.open(self.path, "r") as tar:
            total = sum(member.size for member in tar)
        return total - self.live_bytes()

    def compact(self) -> int:
        """Rewrite the archive with only live entries; returns bytes freed.

        Superseded versions, tombstoned keys, and alias leftovers are
        dropped. The rewrite is crash-safe: the new tar is built beside
        the old one and swapped in with atomic renames; a crash leaves
        either the old consistent pair or the new one.
        """
        size_before = self.nbytes()
        live = sorted(self._entries.items(), key=lambda kv: kv[1][0])
        reader = self._open_reader()
        tmp_path = self.path + ".compact"
        # bufsize=512 keeps the end-of-archive record at two blocks
        # instead of tarfile's default 10 KiB record padding.
        with tarfile.open(tmp_path, "w", format=tarfile.GNU_FORMAT,
                          bufsize=512) as out:
            new_entries: Dict[str, Tuple[int, int]] = {}
            for key, (offset, size) in live:
                reader.seek(offset)
                data = reader.read(size)
                info = tarfile.TarInfo(name=key)
                info.size = size
                info.mtime = int(time.time())
                header_offset = out.offset
                out.addfile(info, io.BytesIO(data))
                new_entries[key] = (header_offset + _BLOCK, size)
        self.close()
        os.replace(tmp_path, self.path)
        self._entries = new_entries
        self._persist_full_index()
        if not self._readonly:
            self._open_writer()
        return size_before - self.nbytes()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._index_fh is not None:
            self._index_fh.close()
            self._index_fh = None

    def __enter__(self) -> "IndexedTar":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def recover_index(tar_path: str) -> Dict[str, Tuple[int, int]]:
    """Rebuild a key -> (data offset, size) map by scanning a tar file.

    Later members win, matching the crash-recovery semantics of
    :meth:`IndexedTar.append`. Note this cannot recover tombstones or
    aliases (they live only in the sidecar); after recovery every
    appended member is live again, which is the conservative choice.
    """
    entries: Dict[str, Tuple[int, int]] = {}
    with tarfile.open(tar_path, "r") as tar:
        for member in tar:
            entries[member.name] = (member.offset_data, member.size)
    return entries


class TaridxStore(DataStore):
    """DataStore over a directory of rotating indexed tar archives.

    A new archive starts once the current one reaches ``max_entries``
    members or ``max_bytes`` of payload, mirroring how the campaign's
    114,552 archives were rolled. Reads consult a global key map and go
    straight to the owning archive.
    """

    _ARCHIVE_FMT = "archive-{:05d}.tar"

    def __init__(
        self,
        root: str,
        max_entries: int = 100_000,
        max_bytes: int = 1 << 31,  # 2 GiB
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._archives: List[IndexedTar] = []
        self._owner: Dict[str, int] = {}  # key -> archive index
        self._load_existing()
        if not self._archives:
            self._rotate()

    # --- internals ----------------------------------------------------------

    def _load_existing(self) -> None:
        names = sorted(
            n for n in os.listdir(self.root) if n.startswith("archive-") and n.endswith(".tar")
        )
        for name in names:
            arc = IndexedTar(os.path.join(self.root, name))
            idx = len(self._archives)
            self._archives.append(arc)
            for key in arc.keys():
                self._owner[key] = idx

    def _rotate(self) -> None:
        path = os.path.join(self.root, self._ARCHIVE_FMT.format(len(self._archives)))
        self._archives.append(IndexedTar(path))

    def _current(self) -> IndexedTar:
        arc = self._archives[-1]
        if len(arc) >= self.max_entries or arc.nbytes() >= self.max_bytes:
            self._rotate()
            arc = self._archives[-1]
        return arc

    # --- DataStore API ---------------------------------------------------------

    def write(self, key: str, data: bytes) -> None:
        validate_key(key)
        old = self._owner.get(key)
        arc = self._current()  # always the last archive
        arc_idx = len(self._archives) - 1
        arc.append(key, data)
        # Supersede any older copy living in a previous archive.
        if old is not None and old != arc_idx and key in self._archives[old]:
            self._archives[old].tombstone(key)
        self._owner[key] = arc_idx

    def read(self, key: str) -> bytes:
        idx = self._owner.get(key)
        if idx is None:
            raise KeyNotFound(key)
        return self._archives[idx].read(key)

    def delete(self, key: str) -> None:
        idx = self._owner.pop(key, None)
        if idx is None:
            raise KeyNotFound(key)
        self._archives[idx].tombstone(key)

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._owner if k.startswith(prefix))

    def move(self, src: str, dst: str) -> None:
        idx = self._owner.get(src)
        if idx is None:
            raise KeyNotFound(src)
        arc = self._archives[idx]
        # dst may shadow a live key elsewhere; drop that one first.
        old_dst = self._owner.get(dst)
        if old_dst is not None and old_dst != idx:
            self._archives[old_dst].tombstone(dst)
        arc.alias(src, dst)
        del self._owner[src]
        self._owner[dst] = idx

    def close(self) -> None:
        for arc in self._archives:
            arc.close()

    # --- introspection ----------------------------------------------------

    def narchives(self) -> int:
        return len(self._archives)

    def nfiles(self) -> int:
        """Physical files on disk (tars + sidecars) — the inode count."""
        return len(os.listdir(self.root))

    def nentries(self) -> int:
        """Logical files stored (live keys)."""
        return len(self._owner)

    def inode_reduction(self) -> float:
        """Logical-to-physical file ratio (the paper reports ~9000×)."""
        physical = self.nfiles()
        return self.nentries() / physical if physical else 0.0

    def wasted_bytes(self) -> int:
        """Dead payload (superseded/tombstoned) across all archives."""
        return sum(arc.dead_payload() for arc in self._archives)

    def compact(self) -> int:
        """Compact every archive in place; returns total bytes freed.

        Key ownership is unaffected: compaction changes offsets within
        each archive but never moves keys between archives.
        """
        return sum(arc.compact() for arc in self._archives)
