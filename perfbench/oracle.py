"""Correctness oracles the benchmark applies to the program's outputs.

They are written against the public result types only (``ForwardResult``,
``TrainLog`` text, ``CheckResult``) and re-derive what they check with
plain numpy, so a refactor of the program cannot change the reference.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def maws_topk(scores, k: int) -> list[int]:
    """Reference MAWS ranking of one (N+1)x(N+1) pre-softmax score matrix.

    Weight of token i is softmax(row 0)[i] * softmax(column 0)[i], both
    softmaxes over all N+1 entries; candidates are 1..N, best first, ties
    to the lower index.
    """
    a = np.asarray(scores, dtype=np.float64)
    mutual = _softmax(a[0]) * _softmax(a[:, 0])
    candidates = np.arange(1, a.shape[0])
    # lexsort's last key is the primary one
    order = np.lexsort((candidates, -mutual[1:]))
    return candidates[order[:k]].tolist()


def forward_problems(result, layers: int, k: int) -> list[str]:
    """Everything wrong with one MAWS ``ForwardResult``; empty when correct."""
    problems = []
    if not np.all(np.isfinite(np.asarray(result.logits.data))):
        problems.append("non-finite logits")
    records = result.trace.attention
    if len(records) != layers - 1 or len(result.selections) != layers - 1:
        problems.append(f"{len(records)} attention records and "
                        f"{len(result.selections)} selections for {layers} layers")
    for record, sel in zip(records, result.selections):
        want = maws_topk(record.scores.data, k)
        if list(sel.indices) != want:
            problems.append(f"layer {record.layer_index} selected "
                            f"{list(sel.indices)}, reference MAWS gives {want}")
    rows = result.fused.tokens.shape[0]
    if rows != 1 + (layers - 1) * k:
        problems.append(f"fused sequence has {rows} rows, "
                        f"expected 1 + ({layers}-1)*{k} = {1 + (layers - 1) * k}")
    return problems


def log_digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode("utf-8")).hexdigest()


def log_problems(csv_text: str, expected_digest: str | None) -> list[str]:
    """Non-finite losses in a training log, or a digest other than expected."""
    problems = []
    for line in csv_text.splitlines()[1:]:
        loss = float(line.split(",")[2])
        if not math.isfinite(loss):
            problems.append(f"non-finite loss in log row {line!r}")
            break
    if expected_digest is not None and log_digest(csv_text) != expected_digest:
        problems.append("train_log.csv differs from an earlier run with the same "
                        "code and seed")
    return problems
