"""The raw array codec: round trips, framing checks, the legacy read."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.datastore import serial

DTYPES = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(endianness="?"),
    hnp.unsigned_integer_dtypes(endianness="?"),
    hnp.floating_dtypes(endianness="?", sizes=(32, 64)),
    hnp.complex_number_dtypes(endianness="?"),
    hnp.unicode_string_dtypes(endianness="?", min_len=1, max_len=4),
)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


def _layout(a, order):
    if order == "fortran":
        return np.asfortranarray(a)
    if order == "strided" and a.ndim:
        return np.repeat(a, 2, axis=-1)[..., ::2]
    return a


def _encode_one(a):
    return serial.arrays_to_bytes({"a": a})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(arrays=st.lists(hnp.arrays(DTYPES, SHAPES), min_size=1, max_size=3),
       order=st.sampled_from(["c", "fortran", "strided"]))
def test_round_trip_keeps_dtype_shape_and_bits(arrays, order):
    given_arrays = {f"x{i}": _layout(a, order) for i, a in enumerate(arrays)}
    back = serial.bytes_to_arrays(serial.arrays_to_bytes(given_arrays))
    assert list(back) == list(given_arrays)
    for name, a in given_arrays.items():
        want = a.astype(a.dtype.newbyteorder("<"))
        got = back[name]
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_views_are_aligned_and_read_only():
    payload = serial.arrays_to_bytes({
        "id": np.frombuffer(b"cg001", dtype=np.uint8),
        "t": np.array([1.5]), "g": np.ones((2, 12))})
    for source in (payload, bytearray(payload), memoryview(payload)):
        back = serial.bytes_to_arrays(source)
        for a in back.values():
            assert a.flags.aligned and not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


@pytest.mark.parametrize("cut", [1, 7, 20])
def test_truncated_payload_raises(cut):
    payload = _encode_one(np.arange(10.0))
    with pytest.raises(ValueError):
        serial.bytes_to_arrays(payload[:-cut])


def test_over_long_payload_raises():
    payload = _encode_one(np.arange(10.0))
    with pytest.raises(ValueError):
        serial.bytes_to_arrays(payload + b"\0")


@pytest.mark.parametrize("junk", [b"", b"RPA\x01", b"RPA\x01\x05\0\0\0[[",
                                  b"not an array"])
def test_malformed_payload_raises(junk):
    with pytest.raises(ValueError):
        serial.bytes_to_arrays(junk)


@pytest.mark.parametrize("bad", [
    np.array([None, 1], dtype=object),
    np.zeros(2, dtype=[("a", "<i4"), ("b", "<f8")]),
])
def test_object_and_structured_arrays_are_refused(bad):
    with pytest.raises(ValueError):
        _encode_one(bad)


def test_npz_payloads_still_decode():
    arrays = {"g": np.ones((2, 3)), "ids": np.arange(4, dtype=">i2"),
              "name": np.array(["ab", "c"])}
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    back = serial.bytes_to_arrays(buf.getvalue())
    assert sorted(back) == sorted(arrays)
    for name, a in arrays.items():
        np.testing.assert_array_equal(back[name], a)
        assert back[name].dtype == a.dtype
    empty = io.BytesIO()
    np.savez(empty)
    assert serial.bytes_to_arrays(empty.getvalue()) == {}


def test_layout_cache_stays_bounded():
    for n in range(10_000):
        serial.bytes_to_arrays(_encode_one(np.zeros(n, dtype=np.uint8)))
    assert serial._layout.cache_info().currsize <= serial._LAYOUT_CACHE_MAX


def test_payload_written_as_npz_by_an_older_build_still_loads():
    from repro.sims.cg.analysis import RDFResult

    edges, g = np.linspace(0, 3, 13), np.ones((2, 12))
    old = io.BytesIO()
    np.savez(old, time=np.array([7.0]), edges=edges, g=g,
             sim_id=np.frombuffer(b"cg001", dtype=np.uint8))
    rdf = RDFResult.from_bytes(old.getvalue())
    assert (rdf.sim_id, rdf.time) == ("cg001", 7.0)
    np.testing.assert_array_equal(rdf.edges, edges)
    np.testing.assert_array_equal(rdf.g, g)
    again = RDFResult.from_bytes(rdf.to_bytes())
    assert again.sim_id == "cg001" and again.g.tobytes() == g.tobytes()
