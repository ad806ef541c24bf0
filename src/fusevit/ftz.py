"""FTZ tensor files: 8-byte magic, length-prefixed JSON header, raw scalars.

Layout, byte for byte:

* magic ``b"FFVTTNSR"``
* header length as unsigned 32-bit little-endian
* UTF-8 JSON header ``{"dtype": "f32"|"f64", "shape": [...]}``
* payload: row-major scalars, little-endian, f32 or f64 per the header

Used for weights, dataset images, and attention dumps. Dataset and
checkpoint directories list their FTZ files in a ``manifest.json``, read by
``read_manifest``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, FtzError

MAGIC = b"FFVTTNSR"

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def dumps(array: np.ndarray) -> bytes:
    """Serialize one array to FTZ bytes."""
    arr = np.asarray(array)
    if arr.dtype not in _NAMES:
        raise FtzError(f"FTZ stores f32/f64 tensors only, got dtype {arr.dtype}")
    header = json.dumps(
        {"dtype": _NAMES[arr.dtype], "shape": list(arr.shape)},
        separators=(",", ":"),
    ).encode("utf-8")
    payload = np.ascontiguousarray(arr).astype(_DTYPES[_NAMES[arr.dtype]], copy=False)
    return MAGIC + struct.pack("<I", len(header)) + header + payload.tobytes(order="C")


def loads(blob: bytes) -> np.ndarray:
    """Parse FTZ bytes back into a numpy array."""
    if len(blob) < len(MAGIC) + 4:
        raise FtzError("truncated FTZ data")
    if blob[: len(MAGIC)] != MAGIC:
        raise FtzError(f"bad FTZ magic {blob[:len(MAGIC)]!r}")
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    hstart = len(MAGIC) + 4
    if len(blob) < hstart + hlen:
        raise FtzError("truncated FTZ header")
    try:
        header = json.loads(blob[hstart:hstart + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FtzError(f"unreadable FTZ header: {exc}") from exc
    if not isinstance(header, dict):
        raise FtzError(f"FTZ header must be a JSON object, got {header!r}")
    dtype_name = header.get("dtype")
    if dtype_name not in _DTYPES:
        raise FtzError(f"unknown FTZ dtype {dtype_name!r}")
    shape = header.get("shape", [])
    if not isinstance(shape, list) or not all(
            type(s) is int and s >= 0 for s in shape):
        raise FtzError(f"FTZ shape must be a list of non-negative ints, got {shape!r}")
    shape = tuple(shape)
    dtype = _DTYPES[dtype_name]
    count = int(np.prod(shape)) if shape else 1
    payload = blob[hstart + hlen:]
    if len(payload) != count * dtype.itemsize:
        raise FtzError(
            f"payload holds {len(payload)} bytes, expected {count * dtype.itemsize}")
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    # native byte order, writable copy
    return arr.astype(dtype.newbyteorder("="), copy=True)


def write(path, array: np.ndarray) -> None:
    Path(path).write_bytes(dumps(array))


def read(path) -> np.ndarray:
    return loads(Path(path).read_bytes())


def read_manifest(path, what: str) -> dict:
    """The JSON object in the ``manifest.json`` of a dataset or checkpoint."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no {what} manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"{what} manifest {path} is not a JSON object")
    return manifest


def build_from(cls, values, what: str):
    """Instantiate dataclass ``cls`` from a manifest entry naming exactly its fields."""
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a JSON object, got {values!r}")
    names = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(values) - names), sorted(names - set(values))
    if unknown or missing:
        raise ConfigError(f"{what} has unknown keys {unknown}, missing keys {missing}")
    return cls(**values)
