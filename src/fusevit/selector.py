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

    Both are numpy arrays: ``(k,)`` for one image, ``(..., k)`` for a stack,
    one row per image. A selection's layer is its position in the list that
    holds it (layer 1 first).
    """

    indices: np.ndarray
    weights: np.ndarray


def _checked(scores, k: int) -> tuple[np.ndarray, int]:
    a = np.asarray(getattr(scores, "data", scores), dtype=np.float64)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"attention scores must be square, got shape {a.shape}")
    k, n = int(k), a.shape[-1] - 1
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} outside [1, {n}] candidate tokens")
    return a, k


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with max-subtraction; scores are detached, so no tape."""
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _top_k(ranking: np.ndarray, weights: np.ndarray, k: int) -> SelectionResult:
    # candidates are 1..N; descending ranking, ties toward the lower index
    chosen = np.argsort(-ranking[..., 1:], axis=-1, kind="stable")[..., :k] + 1
    return SelectionResult(chosen, np.take_along_axis(weights, chosen, axis=-1))


def saws(scores, k: int) -> SelectionResult:
    """Top-k tokens by the class-token row of the score matrix."""
    a, k = _checked(scores, k)
    row = a[..., 0, :]
    return _top_k(row, _softmax(row), k)


def maws(scores, k: int) -> SelectionResult:
    """Top-k tokens by mutual attention weight.

    For token i the weight is softmax(row 0)[i] * softmax(column 0)[i]:
    high only when the class token attends to i *and* i attends back to the
    class token.
    """
    a, k = _checked(scores, k)
    mutual = _softmax(a[..., 0, :]) * _softmax(a[..., :, 0])
    return _top_k(mutual, mutual, k)


def first_k(scores, k: int) -> SelectionResult:
    """Ablation control: every token ties, so tokens 1..k, with unit weights."""
    a, k = _checked(scores, k)
    return _top_k(np.zeros(a.shape[:-1]), np.ones(a.shape[:-1]), k)


# selector name -> function; the order is the arm order of ``compare``
REGISTRY = {"none": first_k, "saws": saws, "maws": maws}


def select_per_layer(trace, k: int, kind: str) -> list[SelectionResult]:
    """Apply one selector to every recorded layer; item ``i`` is layer ``i + 1``'s."""
    if not isinstance(kind, str) or kind not in REGISTRY:
        raise ConfigError(f"selector kind must be one of {tuple(REGISTRY)}, got {kind!r}")
    select = REGISTRY[kind]
    return [select(record.scores, k) for record in trace.attention]


# ---- trace export ----------------------------------------------------------


def selection_trace_lines(selections: Sequence[SelectionResult], kind: str) -> list[str]:
    """JSON-lines export, one record per layer, numbered from 1."""
    return [json.dumps({"layer": layer, "kind": kind.upper(),
                        "indices": sel.indices.tolist(), "weights": sel.weights.tolist()})
            for layer, sel in enumerate(selections, start=1)]
