"""Rank and pick the most informative non-class tokens per layer.

Two rankings over an (N+1)x(N+1) attention score matrix whose row/column 0
belong to the class token:

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
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class SelectionResult:
    """Top-k token indices of one layer, best first, with their weights."""

    layer_index: int
    indices: list[int]
    weights: list[float]


def _as_matrix(a) -> np.ndarray:
    arr = np.asarray(getattr(a, "data", a), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"attention scores must be square, got shape {arr.shape}")
    return arr


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def _check_k(k: int, n: int) -> int:
    k = int(k)
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} outside [1, {n}] candidate tokens")
    return k


def _rank(scores_by_index: np.ndarray, k: int) -> list[int]:
    # candidates are 1..N; descending score, ties toward the lower index
    order = sorted(range(1, scores_by_index.shape[0]),
                   key=lambda i: (-scores_by_index[i], i))
    return order[:k]


def saws(scores, k: int, layer_index: int = 0) -> SelectionResult:
    """Top-k tokens by the class-token row of the score matrix."""
    a = _as_matrix(scores)
    k = _check_k(k, a.shape[0] - 1)
    row = a[0]
    chosen = _rank(row, k)
    probs = _softmax(row)
    return SelectionResult(layer_index, chosen, [float(probs[i]) for i in chosen])


def maws(scores, k: int, layer_index: int = 0) -> SelectionResult:
    """Top-k tokens by mutual attention weight.

    For token i the weight is softmax(row 0)[i] * softmax(column 0)[i]:
    high only when the class token attends to i *and* i attends back to the
    class token.
    """
    a = _as_matrix(scores)
    k = _check_k(k, a.shape[0] - 1)
    row_probs = _softmax(a[0])
    col_probs = _softmax(a[:, 0])
    mutual = row_probs * col_probs
    chosen = _rank(mutual, k)
    return SelectionResult(layer_index, chosen, [float(mutual[i]) for i in chosen])


def first_k(scores, k: int, layer_index: int = 0) -> SelectionResult:
    """Ablation control: the first k token indices with unit weights, no ranking."""
    k = _check_k(k, _as_matrix(scores).shape[0] - 1)
    return SelectionResult(layer_index, list(range(1, k + 1)), [1.0] * k)


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


def write_selection_trace(path, selections: Sequence[SelectionResult], kind: str) -> None:
    Path(path).write_text("\n".join(selection_trace_lines(selections, kind)) + "\n")
