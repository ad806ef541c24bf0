"""Finite-difference verification of every backward rule, 64-bit mode.

Two tiers: per-op checks against ``finite_diff_check`` (tolerance 1e-5) and
an end-to-end check of a tiny fused-forward model where every parameter
coordinate is perturbed with selection indices held fixed (tolerance 1e-3,
since hundreds of chained ops accumulate truncation error).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import ModelConfig
from .errors import ConfigError
from .model import FuseVitModel
from .tensor import Tape, Tensor, finite_diff_check

OP_TOL = 1e-5
END_TO_END_TOL = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def op_checks(seed: int = 0) -> list[CheckResult]:
    """One finite-difference probe per differentiable op and input slot."""
    rng = _rng(seed)
    w_cache: dict[tuple[int, ...], Tensor] = {}

    def weight(shape) -> Tensor:
        # fixed random weighting so constant-sum outputs still exercise grads
        if shape not in w_cache:
            w_cache[shape] = _t(rng, *shape)
        return w_cache[shape]

    a6x4 = _t(rng, 6, 4)
    b4x5 = _t(rng, 4, 5)
    gamma = _t(rng, 4)
    beta = _t(rng, 4)
    logits = _t(rng, 7)
    a4x2x3 = T.reshape(a6x4, (4, 2, 3))

    probes: list[tuple[str, object, Tensor]] = [
        ("matmul.a", lambda x: T.sum_all(T.matmul(x, b4x5)), a6x4),
        ("matmul.b", lambda x: T.sum_all(T.matmul(a6x4, x)), b4x5),
        ("add.same", lambda x: T.sum_all(T.mul(T.add(x, a6x4), weight((6, 4)))), _t(rng, 6, 4)),
        ("add.bias", lambda x: T.sum_all(T.mul(T.add(a6x4, x), weight((6, 4)))), _t(rng, 4)),
    ]
    # the two discarded draws were the inputs of the removed ``sub`` and ``shift``
    # probes; drawing them keeps every later probe's input, and its error, as before
    rng.standard_normal((6, 4))
    probes += [
        ("mul", lambda x: T.sum_all(T.mul(T.mul(x, a6x4), weight((6, 4)))), _t(rng, 6, 4)),
        ("scale", lambda x: T.sum_all(T.mul(T.scale(x, -2.5), weight((6, 4)))), _t(rng, 6, 4)),
    ]
    rng.standard_normal((6, 4))
    probes += [
        ("transpose", lambda x: T.sum_all(T.mul(T.transpose(x), weight((4, 6)))), _t(rng, 6, 4)),
        ("reshape", lambda x: T.sum_all(T.mul(T.reshape(x, (8, 3)), weight((8, 3)))), _t(rng, 6, 4)),
        ("concat_rows", lambda x: T.sum_all(T.mul(T.concat_rows([x, a6x4]), weight((12, 4)))), _t(rng, 6, 4)),
        # like the two column-op probes these replaced, each draws a 24-value
        # input and their weights draw 60 values in all, so every later probe
        # keeps its input, its weight and its error
        ("matmul.batched", lambda x: T.sum_all(T.mul(T.matmul(x, a4x2x3), weight((4, 3, 3)))),
         _t(rng, 4, 3, 2)),
        ("transpose.axes", lambda x: T.sum_all(T.mul(T.transpose(x, (1, 2, 0)), weight((3, 4, 2)))),
         _t(rng, 2, 3, 4)),
        ("gather_rows", lambda x: T.sum_all(T.mul(T.gather_rows(x, [0, 2, 2, 5]), weight((4, 4)))), _t(rng, 6, 4)),
        ("softmax.vec", lambda x: T.sum_all(T.mul(T.softmax(x), weight((7,)))), _t(rng, 7)),
        ("softmax.rows", lambda x: T.sum_all(T.mul(T.softmax(x), weight((5, 5)))), _t(rng, 5, 5)),
        ("layer_norm.x", lambda x: T.sum_all(T.mul(T.layer_norm(x, gamma, beta), weight((6, 4)))), _t(rng, 6, 4)),
        ("layer_norm.gamma", lambda x: T.sum_all(T.mul(T.layer_norm(a6x4, x, beta), weight((6, 4)))), _t(rng, 4)),
        ("layer_norm.beta", lambda x: T.sum_all(T.mul(T.layer_norm(a6x4, gamma, x), weight((6, 4)))), _t(rng, 4)),
        ("gelu", lambda x: T.sum_all(T.mul(T.gelu(x), weight((6, 4)))), _t(rng, 6, 4)),
        ("sum_all", lambda x: T.sum_all(x), _t(rng, 6, 4)),
        ("cross_entropy", lambda x: T.cross_entropy(x, 3), logits),
        ("softmax_cross_entropy", lambda x: T.cross_entropy(T.mul(x, weight((7,))), 2), _t(rng, 7)),
    ]

    results = _run_probes(probes)
    # the batch-axis probes draw their inputs only now, after every weight the
    # probes above drew while running, so each of those keeps its error
    a2x6x4 = _t(rng, 2, 6, 4)
    probes = [
        ("matmul.shared.a", lambda x: T.sum_all(T.mul(T.matmul(x, b4x5), weight((2, 6, 5)))),
         _t(rng, 2, 6, 4)),
        ("matmul.shared.b", lambda x: T.sum_all(T.mul(T.matmul(a2x6x4, x), weight((2, 6, 5)))),
         _t(rng, 4, 5)),
        ("add.suffix", lambda x: T.sum_all(T.mul(T.add(a2x6x4, x), weight((2, 6, 4)))),
         _t(rng, 6, 4)),
        ("concat_rows.stack",
         lambda x: T.sum_all(T.mul(T.concat_rows([x, a2x6x4]), weight((2, 12, 4)))),
         _t(rng, 2, 6, 4)),
        ("gather_rows.stack",
         lambda x: T.sum_all(T.mul(T.gather_rows(x, [[0, 2, 2], [5, 1, 0]]), weight((2, 3, 4)))),
         _t(rng, 2, 6, 4)),
        ("cross_entropy.batched", lambda x: T.sum_all(T.cross_entropy(x, np.array([3, 0]))),
         _t(rng, 2, 7)),
    ]
    return results + _run_probes(probes)


def _run_probes(probes) -> list[CheckResult]:
    results = []
    for name, fn, x in probes:
        start = time.perf_counter()
        err = finite_diff_check(fn, x, h=1e-5)
        results.append(CheckResult(name, err, OP_TOL, time.perf_counter() - start))
    return results


def toy_config(selector: str = "maws") -> ModelConfig:
    """Smallest fused model worth checking: 4 patches, 2 layers, 2 heads."""
    return ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                       embed_dim=8, layers=2, heads=2, mlp_dim=16, k=2,
                       selector=selector, num_classes=3, seed=7)


def end_to_end_check(seed: int = 0, h: float = 3e-5) -> list[CheckResult]:
    """Perturb every parameter coordinate of the toy model, indices frozen."""
    cfg = toy_config()
    rng = _rng(seed)
    model = FuseVitModel.build(cfg, dtype=np.float64)
    image = Tensor(rng.uniform(0.0, 1.0, size=(cfg.image_h, cfg.image_w, cfg.channels)),
                   dtype=np.float64)
    label = 1

    frozen = model.forward(image).selections

    def loss_value() -> float:
        result = model.forward(image, frozen_selections=frozen)
        return float(T.cross_entropy(result.logits, label).data)

    model.zero_grad()
    with Tape() as tape:
        result = model.forward(image, frozen_selections=frozen)
        loss = T.cross_entropy(result.logits, label)
        tape.backward(loss)

    results = []
    for name, param in model.named_parameters():
        start = time.perf_counter()
        analytic = param.grad.ravel() if param.grad is not None else np.zeros(param.data.size)
        worst = T._central_difference(loss_value, param.data.ravel(), analytic, h)
        results.append(CheckResult(f"end_to_end.{name}", worst, END_TO_END_TOL,
                                   time.perf_counter() - start))
    return results


def run_suite(seed: int = 0) -> list[CheckResult]:
    return op_checks(seed) + end_to_end_check(seed)


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name:<32} max_rel_err={r.max_rel_err:.3e} "
                     f"tol={r.tolerance:.0e} ({r.seconds:.2f}s)")
    failures = sum(not r.passed for r in results)
    total = sum(r.seconds for r in results)
    lines.append(f"{len(results) - failures}/{len(results)} checks passed "
                 f"in {total:.1f}s")
    return "\n".join(lines)
