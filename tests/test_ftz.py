"""FTZ tensor file format: byte layout and round-trips."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusevit import ftz
from fusevit.errors import FtzError


def test_round_trip_f32(tmp_path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "a.ftz"
    ftz.write(path, arr)
    back = ftz.read(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_round_trip_f64(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3, 4))
    path = tmp_path / "b.ftz"
    ftz.write(path, arr)
    back = ftz.read(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


@pytest.mark.parametrize("stored, target", [(np.float32, np.float64),
                                            (np.float64, np.float32),
                                            (np.float32, np.float32)])
def test_read_casts_to_the_given_dtype(stored, target, tmp_path):
    arr = np.random.default_rng(1).standard_normal((2, 3)).astype(stored)
    path = tmp_path / "c.ftz"
    ftz.write(path, arr)
    back = ftz.read(path, target)
    assert back.dtype == target and back.flags.writeable
    assert back.tobytes() == arr.astype(target).tobytes()


@pytest.mark.parametrize("big", [1e300, -1e39])
def test_cast_that_overflows_f32_names_the_file(big, tmp_path):
    path = tmp_path / "big.ftz"
    ftz.write(path, np.array([1.0, big]))
    assert ftz.read(path)[1] == big
    with pytest.raises(FtzError) as info:
        ftz.read(path, np.float32)
    assert str(info.value) == f"{path}: payload overflows f32"


def test_exact_byte_layout():
    arr = np.array([1.0, 2.0], dtype=np.float32)
    blob = ftz.dumps(arr)
    assert blob[:8] == b"FFVTTNSR"
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + hlen].decode("utf-8"))
    assert header == {"dtype": "f32", "shape": [2]}
    payload = blob[12 + hlen:]
    assert payload == struct.pack("<ff", 1.0, 2.0)


def test_scalar_tensor_round_trip():
    arr = np.array(3.5, dtype=np.float64)
    back = ftz.loads(ftz.dumps(arr))
    assert back.shape == ()
    assert float(back) == 3.5


def test_bad_magic_rejected():
    with pytest.raises(FtzError, match="magic"):
        ftz.loads(b"NOTMAGIC" + b"\x00" * 16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected(bad, dtype):
    # built by hand: the writer refuses such an array
    name = "f32" if dtype is np.float32 else "f64"
    header = json.dumps({"dtype": name, "shape": [2]}).encode()
    payload = np.array([1.0, bad], dtype=np.dtype(dtype).newbyteorder("<")).tobytes()
    with pytest.raises(FtzError, match="non-finite"):
        ftz.loads(ftz_blob(header, payload))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writer_refuses_what_the_reader_refuses(bad, dtype, tmp_path):
    arr = np.array([[1.0, bad]], dtype=dtype)
    with pytest.raises(FtzError, match="^payload holds non-finite values$"):
        ftz.dumps(arr)
    with pytest.raises(FtzError, match="non-finite"):
        ftz.write(tmp_path / "bad.ftz", arr)
    assert not (tmp_path / "bad.ftz").exists()


def test_writer_error_names_the_file(tmp_path):
    path = tmp_path / "bad.ftz"
    with pytest.raises(FtzError) as info:
        ftz.write(path, np.array([np.inf], dtype=np.float32))
    assert str(info.value) == f"{path}: payload holds non-finite values"


def test_truncated_payload_rejected():
    blob = ftz.dumps(np.zeros(4, dtype=np.float32))
    with pytest.raises(FtzError):
        ftz.loads(blob[:-2])


def test_unsupported_dtype_rejected():
    with pytest.raises(FtzError, match="f32/f64"):
        ftz.dumps(np.zeros(3, dtype=np.int32))


def test_serialization_is_deterministic():
    arr = np.linspace(0, 1, 7, dtype=np.float32).reshape(7, 1)
    assert ftz.dumps(arr) == ftz.dumps(arr.copy())


@pytest.mark.parametrize("header", [
    b'{"dtype":"f32","shape":5}',
    b'["f32",[2]]',
    b'{"dtype":"f32","shape":["a"]}',
    b'{"dtype":"f32","shape":[2.5]}',
    b'{"dtype":["f32"],"shape":[2]}',
    b'{"dtype":{"f32":1},"shape":[2]}',
    b'{"dtype":"f32","shape":[2]\xff}',
    b'{"dtype":"f64"}',  # no shape, with a scalar's 8 payload bytes
    pytest.param(b"[" * 100_000, id="nested-100k-deep"),
])
def test_malformed_header_rejected(header):
    blob = b"FFVTTNSR" + struct.pack("<I", len(header)) + header + b"\x00" * 8
    with pytest.raises(FtzError):
        ftz.loads(blob)


def ftz_blob(header: bytes, payload: bytes = b"") -> bytes:
    return ftz.MAGIC + struct.pack("<I", len(header)) + header + payload


@pytest.mark.parametrize("shape, payload", [
    ([2**32, 2**32], b""),
    ([0, 2**70], b""),
    ([0, 2**62], b""),
    ([1] * 70, b"\x00" * 4),
], ids=["count-wraps-to-0", "axis-over-intp", "bytes-over-intp", "70-axes"])
def test_shape_numpy_cannot_hold_rejected(shape, payload):
    header = json.dumps({"dtype": "f32", "shape": shape}).encode()
    with pytest.raises(FtzError):
        ftz.loads(ftz_blob(header, payload))


VALID = ftz.dumps(np.arange(6, dtype=np.float32).reshape(2, 3))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["dtype", "shape", "x"]), inner,
                                     max_size=3)),
    max_leaves=10)


@settings(max_examples=300, deadline=1000)
@given(st.binary(max_size=80))
def test_arbitrary_bytes_raise_only_ftz_error(data):
    for blob in (data, ftz.MAGIC + data):
        try:
            ftz.loads(blob)
        except FtzError:
            pass


@settings(max_examples=300, deadline=1000)
@given(edits=st.lists(st.tuples(st.integers(0, len(VALID) - 1), st.integers(0, 255)),
                      max_size=4),
       cut=st.integers(0, len(VALID)), tail=st.binary(max_size=8))
def test_mutated_file_raises_only_ftz_error(edits, cut, tail):
    blob = bytearray(VALID)
    for pos, byte in edits:
        blob[pos] = byte
    try:
        ftz.loads(bytes(blob[:cut]) + tail)
    except FtzError:
        pass


@settings(max_examples=300, deadline=1000)
@given(dtype=st.sampled_from(["f32", "f64"]) | json_values,
       shape=st.lists(st.integers(-1, 2**70) | st.sampled_from([0, 1, 2]), max_size=70)
       | json_values,
       payload=st.binary(max_size=32))
def test_fuzzed_header_raises_only_ftz_error(dtype, shape, payload):
    header = json.dumps({"dtype": dtype, "shape": shape}).encode()
    try:
        arr = ftz.loads(ftz_blob(header, payload))
    except FtzError:
        return
    assert arr.nbytes == len(payload)
