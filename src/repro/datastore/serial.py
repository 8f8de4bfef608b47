"""Byte-stream serialization of standard payloads.

The data interface moves opaque bytes; these helpers give every backend
the same array and JSON encodings so that a payload written through one
backend can be read back through another.

An array payload is a dict of named NumPy arrays in one raw layout::

    b"RPA" + version byte | <I header length | JSON header | buffers

The header is ``[[name, dtype.str, shape], ...]`` in dict order, padded
with spaces to a multiple of 8 bytes; each buffer is the array's
little-endian C-order bytes, starting at the next multiple of 8 from the
payload start, so decoded views are aligned. Decoding returns read-only
``np.frombuffer`` views of the payload, not copies. Payloads written as
``.npz`` archives by older builds still decode, through ``np.load``.
"""

from __future__ import annotations

import functools
import io
import json
import math
import struct
from typing import Any, Dict, Mapping, Tuple

import numpy as np

__all__ = ["arrays_to_bytes", "bytes_to_arrays", "json_to_bytes",
           "bytes_to_json"]

_MAGIC = b"RPA\x01"  # three magic bytes and the layout version
_ZIP_MAGIC = b"PK"  # an .npz archive (the legacy array payload)
_ALIGN = 8

# Parsed layouts are cached by header bytes: a campaign's payloads share
# a few shapes, so decode parses each header once. Bounded, because a
# long-running daemon may see many shapes over its life.
_LAYOUT_CACHE_MAX = 256


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def arrays_to_bytes(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Encode a dict of arrays in the raw layout; object and structured
    dtypes are refused (``ValueError``)."""
    fields = []
    buffers = []
    for name, value in arrays.items():
        a = np.asarray(value)
        if a.dtype.hasobject or a.dtype.fields is not None:
            raise ValueError(
                f"array {name!r}: dtype {a.dtype} has no raw layout")
        a = a.astype(a.dtype.newbyteorder("<"), order="C", copy=False)
        fields.append([name, a.dtype.str, a.shape])
        buffers.append(a.tobytes())
    header = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    header += b" " * (_aligned(8 + len(header)) - 8 - len(header))
    parts = [_MAGIC, struct.pack("<I", len(header)), header]
    offset = 8 + len(header)
    for buf in buffers:
        pad = _aligned(offset) - offset
        if pad:
            parts.append(b"\0" * pad)
        parts.append(buf)
        offset += pad + len(buf)
    return b"".join(parts)


@functools.lru_cache(maxsize=_LAYOUT_CACHE_MAX)
def _layout(header: bytes
            ) -> Tuple[Tuple[Tuple[str, np.dtype, tuple, int, int], ...], int]:
    """``((name, dtype, shape, offset, count), ...)`` and the payload
    length, for a payload with this header."""
    fields = []
    offset = 8 + len(header)
    try:
        for name, descr, shape in json.loads(header):
            dtype = np.dtype(descr)
            shape = tuple(int(n) for n in shape)
            if dtype.hasobject or min(shape, default=0) < 0:
                raise ValueError(f"array {name!r}: bad dtype or shape")
            count = math.prod(shape)
            offset = _aligned(offset)
            fields.append((name, dtype, shape, offset, count))
            offset += count * dtype.itemsize
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed array payload header: {exc}") from None
    return tuple(fields), offset


def bytes_to_arrays(data: bytes) -> Dict[str, np.ndarray]:
    """Decode an array payload into read-only arrays; a payload whose
    length does not match its header raises ``ValueError``."""
    if not isinstance(data, bytes):
        data = bytes(data)  # views of a private copy stay read-only
    if data[:4] == _MAGIC:
        if len(data) < 8:
            raise ValueError("array payload shorter than its fixed header")
        (hlen,) = struct.unpack_from("<I", data, 4)
        header = data[8:8 + hlen]
        if len(header) != hlen:
            raise ValueError("array payload shorter than its header")
        fields, end = _layout(header)
        if len(data) != end:
            raise ValueError(
                f"array payload is {len(data)} bytes; its header says {end}")
        out = {}
        for name, dtype, shape, offset, count in fields:
            if count and dtype.itemsize:
                a = np.frombuffer(data, dtype, count, offset).reshape(shape)
            else:
                a = np.empty(shape, dtype)
                a.flags.writeable = False
            out[name] = a
        return out
    if data[:2] == _ZIP_MAGIC:
        # Written as .npz by an older build (WAL dirs, fs/taridx files,
        # campaign checkpoints).
        with np.load(io.BytesIO(data)) as npz:
            return {name: npz[name] for name in npz.files}
    raise ValueError("not an array payload")


def json_to_bytes(obj: Any) -> bytes:
    """Encode a JSON-serializable object as UTF-8 bytes (stable key order)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def bytes_to_json(data: bytes) -> Any:
    """Decode UTF-8 JSON bytes."""
    return json.loads(data.decode("utf-8"))
