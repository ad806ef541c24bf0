"""FTZ tensor files: 8-byte magic, length-prefixed JSON header, raw scalars.

Layout, byte for byte:

* magic ``b"FFVTTNSR"``
* header length as unsigned 32-bit little-endian
* UTF-8 JSON header ``{"dtype": "f32"|"f64", "shape": [...]}``
* payload: row-major finite scalars, little-endian, f32 or f64 per the header

Used for weights, dataset images, and attention dumps. Dataset and
checkpoint directories list their FTZ files in a ``manifest.json``, read by
``read_manifest``; ``build_from`` turns its ``spec`` or ``config`` entry into
a dataclass after ``check_types`` has checked every value's type.
"""

from __future__ import annotations

import json
import math
import struct
import typing
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
    header = json_object(blob[hstart:hstart + hlen], "FTZ header", FtzError)
    dtype_name = header.get("dtype")
    if type(dtype_name) is not str or dtype_name not in _DTYPES:
        raise FtzError(f"unknown FTZ dtype {dtype_name!r}")
    shape = header.get("shape", [])
    if not isinstance(shape, list) or not all(
            type(s) is int and s >= 0 for s in shape):
        raise FtzError(f"FTZ shape must be a list of non-negative ints, got {shape!r}")
    dtype = _DTYPES[dtype_name]
    count = math.prod(shape)  # exact, where np.prod would wrap around
    payload = blob[hstart + hlen:]
    if len(payload) != count * dtype.itemsize:
        raise FtzError(
            f"payload holds {len(payload)} bytes, expected {count * dtype.itemsize}")
    try:
        arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    except ValueError as exc:  # more axes, or a longer axis, than numpy allows
        raise FtzError(f"FTZ shape {shape} is not a numpy array shape: {exc}") from exc
    if not np.isfinite(arr).all():
        raise FtzError("payload holds non-finite values")
    # native byte order, writable copy
    return arr.astype(dtype.newbyteorder("="), copy=True)


def write(path, array: np.ndarray) -> None:
    Path(path).write_bytes(dumps(array))


def read(path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise FtzError(f"no FTZ file at {path}")
    try:
        return loads(path.read_bytes())
    except FtzError as exc:
        raise FtzError(f"{path}: {exc}") from exc


def json_object(raw: bytes, what: str, error=ConfigError) -> dict:
    """The JSON object that UTF-8 ``raw`` holds; anything else, however
    malformed or deeply nested, raises ``error`` naming ``what``."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{what} is not a JSON object")
    return value


def read_manifest(path, what: str) -> dict:
    """The JSON object in the ``manifest.json`` of a dataset or checkpoint."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no {what} manifest at {path}")
    return json_object(path.read_bytes(), f"{what} manifest {path}")


def build_from(cls, values, what: str):
    """Instantiate dataclass ``cls`` from a manifest entry naming exactly its fields."""
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a JSON object, got {values!r}")
    names = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(values) - names), sorted(names - set(values))
    if unknown or missing:
        raise ConfigError(f"{what} has unknown keys {unknown}, missing keys {missing}")
    check_types(cls, values, what)
    return cls(**values)


def field_types(cls) -> dict[str, tuple[type, bool]]:
    """Each field's type T of dataclass ``cls``, and whether it is ``T | None``."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        out[f.name] = (next(t for t in kinds if t is not type(None)), type(None) in kinds)
    return out


def check_types(cls, values: dict, what: str) -> None:
    """ConfigError unless every value fits its field of ``cls``: a bool is not
    an int, an int is fine for a float, and None only for ``T | None``."""
    for name, (kind, optional) in field_types(cls).items():
        if name not in values:
            continue
        value = values[name]
        if value is None:
            ok = optional
        else:
            ok = type(value) in ((int, float) if kind is float else (kind,))
        if not ok:
            expected = kind.__name__ + (" or null" if optional else "")
            raise ConfigError(f"{what} {name} must be {expected}, got {value!r}")
