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
END_TO_END_H = 3e-5  # central-difference step of the end-to-end check


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
    """One finite-difference probe per differentiable op and input slot.

    Each probe draws its input ``x``, then a weight ``w`` shaped like the op's
    output, and checks ``sum_all(mul(op(x), w))``; the random weighting makes
    constant-sum outputs still exercise their gradients.
    """
    rng = _rng(seed)
    a6x4, b4x5, a2x6x4 = _t(rng, 6, 4), _t(rng, 4, 5), _t(rng, 2, 6, 4)
    gamma, beta = _t(rng, 4), _t(rng, 4)
    a4x2x3 = T.reshape(a6x4, (4, 2, 3))

    # (name, op of x, shape of x); each lambda looks its op up in ``T`` when
    # called, so a replaced op is what gets checked
    probes = [
        ("matmul.a", lambda x: T.matmul(x, b4x5), (6, 4)),
        ("matmul.b", lambda x: T.matmul(a6x4, x), (4, 5)),
        ("add.same", lambda x: T.add(x, a6x4), (6, 4)),
        ("add.bias", lambda x: T.add(a6x4, x), (4,)),
        ("mul", lambda x: T.mul(x, a6x4), (6, 4)),
        ("scale", lambda x: T.scale(x, -2.5), (6, 4)),
        ("transpose", lambda x: T.transpose(x), (6, 4)),
        ("reshape", lambda x: T.reshape(x, (8, 3)), (6, 4)),
        ("concat_rows", lambda x: T.concat_rows([x, a6x4]), (6, 4)),
        ("matmul.batched", lambda x: T.matmul(x, a4x2x3), (4, 3, 2)),
        ("transpose.axes", lambda x: T.transpose(x, (1, 2, 0)), (2, 3, 4)),
        ("gather_rows", lambda x: T.gather_rows(x, [0, 2, 2, 5]), (6, 4)),
        ("softmax.vec", lambda x: T.softmax(x), (7,)),
        ("softmax.rows", lambda x: T.softmax(x), (5, 5)),
        ("layer_norm.x", lambda x: T.layer_norm(x, gamma, beta), (6, 4)),
        ("layer_norm.gamma", lambda x: T.layer_norm(a6x4, x, beta), (4,)),
        ("layer_norm.beta", lambda x: T.layer_norm(a6x4, gamma, x), (4,)),
        ("gelu", lambda x: T.gelu(x), (6, 4)),
        ("sum_all", lambda x: T.sum_all(x), (6, 4)),
        ("cross_entropy", lambda x: T.cross_entropy(x, 3), (7,)),
        ("softmax_cross_entropy", lambda x: T.cross_entropy(T.softmax(x), 2), (7,)),
        ("matmul.shared.a", lambda x: T.matmul(x, b4x5), (2, 6, 4)),
        ("matmul.shared.b", lambda x: T.matmul(a2x6x4, x), (4, 5)),
        ("add.suffix", lambda x: T.add(a2x6x4, x), (6, 4)),
        ("concat_rows.stack", lambda x: T.concat_rows([x, a2x6x4]), (2, 6, 4)),
        ("gather_rows.stack", lambda x: T.gather_rows(x, [[0, 2, 2], [5, 1, 0]]), (2, 6, 4)),
        ("cross_entropy.batched", lambda x: T.cross_entropy(x, np.array([3, 0])), (2, 7)),
    ]
    results = []
    for name, op, shape in probes:
        x = _t(rng, *shape)
        w = _t(rng, *op(x).shape)
        start = time.perf_counter()
        err = finite_diff_check(lambda v: T.sum_all(T.mul(op(v), w)), x, h=1e-5)
        results.append(CheckResult(name, err, OP_TOL, time.perf_counter() - start))
    return results


def toy_config(selector: str = "maws") -> ModelConfig:
    """Smallest fused model worth checking: 4 patches, 2 layers, 2 heads."""
    return ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                       embed_dim=8, layers=2, heads=2, mlp_dim=16, k=2,
                       selector=selector, num_classes=3, seed=7)


def end_to_end_check(seed: int = 0) -> list[CheckResult]:
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
        worst = T._central_difference(loss_value, param.data.ravel(), analytic,
                                      END_TO_END_H)
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
