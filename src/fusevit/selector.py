"""Rank and pick the most informative non-class tokens per layer.

Two rankings over an (N+1)x(N+1) attention score matrix whose row/column 0
belong to the class token, or over a stack ``(..., N+1, N+1)`` of them:

* ``saws`` — single attention weights: sort the class-token row.
* ``maws`` — mutual attention weights: product of the row-softmax score
  (token as seen by the class token) and the column-softmax score (class
  token as seen by the token itself).

Both softmax denominators run over all N+1 entries, index 0 included; the
class token itself is never a selection candidate. Ties break toward the
lower index. ``REGISTRY`` maps every selector name, including the ``none``
ablation control, to its function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class SelectionResult:
    """Top-k token indices of one layer, best first, with their weights.

    For one image these are lists of Python ints and floats; for a stack of
    images they are ``(..., k)`` arrays, one row per image.
    """

    layer_index: int
    indices: list[int] | np.ndarray
    weights: list[float] | np.ndarray


def _as_scores(a) -> np.ndarray:
    arr = np.asarray(getattr(a, "data", a), dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ShapeError(f"attention scores must be square, got shape {arr.shape}")
    return arr


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _check_k(k: int, n: int) -> int:
    k = int(k)
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} outside [1, {n}] candidate tokens")
    return k


def _result(layer_index: int, indices: np.ndarray, weights: np.ndarray) -> SelectionResult:
    if indices.ndim == 1:
        return SelectionResult(layer_index, indices.tolist(), weights.tolist())
    return SelectionResult(layer_index, indices, weights)


def _top_k(ranking: np.ndarray, weights: np.ndarray, k: int,
           layer_index: int) -> SelectionResult:
    # candidates are 1..N; descending ranking, ties toward the lower index
    chosen = np.argsort(-ranking[..., 1:], axis=-1, kind="stable")[..., :k] + 1
    return _result(layer_index, chosen, np.take_along_axis(weights, chosen, axis=-1))


def saws(scores, k: int, layer_index: int = 0) -> SelectionResult:
    """Top-k tokens by the class-token row of the score matrix."""
    a = _as_scores(scores)
    k = _check_k(k, a.shape[-1] - 1)
    row = a[..., 0, :]
    return _top_k(row, _softmax(row), k, layer_index)


def maws(scores, k: int, layer_index: int = 0) -> SelectionResult:
    """Top-k tokens by mutual attention weight.

    For token i the weight is softmax(row 0)[i] * softmax(column 0)[i]:
    high only when the class token attends to i *and* i attends back to the
    class token.
    """
    a = _as_scores(scores)
    k = _check_k(k, a.shape[-1] - 1)
    mutual = _softmax(a[..., 0, :]) * _softmax(a[..., :, 0])
    return _top_k(mutual, mutual, k, layer_index)


def first_k(scores, k: int, layer_index: int = 0) -> SelectionResult:
    """Ablation control: the first k token indices with unit weights, no ranking."""
    a = _as_scores(scores)
    k = _check_k(k, a.shape[-1] - 1)
    indices = np.broadcast_to(np.arange(1, k + 1), (*a.shape[:-2], k)).copy()
    return _result(layer_index, indices, np.ones(indices.shape))


# selector name -> function; the order is the arm order of ``compare``
REGISTRY = {"none": first_k, "saws": saws, "maws": maws}


def select_per_layer(trace, k: int, kind: str) -> list[SelectionResult]:
    """Apply one selector independently to every recorded layer."""
    kind = str(kind).lower()
    if kind not in REGISTRY:
        raise ConfigError(f"selector kind must be one of {tuple(REGISTRY)}, got {kind!r}")
    select = REGISTRY[kind]
    return [select(record.scores, k, record.layer_index) for record in trace.attention]


# ---- trace export ----------------------------------------------------------


def selection_trace_lines(selections: Sequence[SelectionResult], kind: str) -> list[str]:
    """JSON-lines export, one record per layer."""
    lines = []
    for sel in selections:
        lines.append(json.dumps({
            "layer": sel.layer_index,
            "kind": kind.upper(),
            "indices": list(sel.indices),
            "weights": [float(w) for w in sel.weights],
        }))
    return lines
