"""FTZ tensor file format: byte layout and round-trips."""

import json
import struct

import numpy as np
import pytest

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
])
def test_malformed_header_rejected(header):
    blob = b"FFVTTNSR" + struct.pack("<I", len(header)) + header + b"\x00" * 8
    with pytest.raises(FtzError):
        ftz.loads(blob)
