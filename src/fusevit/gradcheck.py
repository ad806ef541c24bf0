"""Finite-difference verification of every backward rule, 64-bit mode.

Two tiers: per-op checks against ``finite_diff_check`` (tolerance 1e-5) and
an end-to-end check of a tiny fused-forward model where every parameter
coordinate is perturbed with selection indices held fixed (tolerance 1e-3,
since hundreds of chained ops accumulate truncation error).

Both share one central-difference loop, which judges errors against the
gradient's scale and hands an evaluator chunks of +h/-h copies: each op
probe evaluates its copies as one call of its op on their stack. The
end-to-end check evaluates each chunk, vectors included, as one stacked
forward; for a parameter of layer L or the head, whose copies leave the
fused tokens unchanged, as one stacked call of layer L and the head over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .encoder import ModelConfig
from .errors import ConfigError, OracleError, ShapeError
from .model import FuseVitModel
from .selector import SelectionResult
from .tensor import Tape, Tensor

OP_TOL = 1e-5
END_TO_END_TOL = 1e-3
SCALE_FLOOR = 1e-2  # least error denominator, as a fraction of the largest |analytic| coordinate
END_TO_END_H = 3e-5  # central-difference step of the end-to-end check
FD_CHUNK = 64  # coordinates per batch of copies; whole-parameter stacks cost memory and time


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
                      values: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Worst relative error between the tape gradient of f and central differences.

    ``f`` must map one tensor to a scalar tensor and be deterministic: its value
    untaped and its value on the tape must have the same bits.
    Each coordinate's error is measured as in ``_central_difference``.
    ``values``, if given, evaluates a stack of ±h copies of ``x`` as
    ``_central_difference`` hands it over, and must give ``f``'s value for
    each copy; by default ``f`` runs on one copy at a time.
    """
    if not h > 0:
        raise ConfigError(f"finite difference step must be positive, got {h}")

    def eval_value(arr: np.ndarray) -> float:
        out = f(Tensor._wrap(arr))
        if out.shape != ():
            raise ShapeError(f"finite_diff_check needs a scalar function, got {out.shape}")
        return float(out.data)

    base = x.data.copy()
    value = eval_value(base.copy())
    leaf = Tensor(base.copy(), requires_grad=True, dtype=base.dtype)
    with Tape() as tape:
        out = f(leaf)
        tape.backward(out)
    if float(out.data) != value:
        raise OracleError("function under test is not deterministic")
    analytic = leaf.grad.ravel() if leaf.grad is not None else np.zeros(base.size)
    # copies[i, ...] is an array even for a 0-d input, where copies[i] is a numpy scalar
    values = values or (lambda copies: [eval_value(copies[i, ...]) for i in range(len(copies))])
    return _central_difference(values, base, analytic, h)


def _central_difference(values: Callable[[np.ndarray], np.ndarray | list[float]],
                        base: np.ndarray, analytic: np.ndarray, h: float) -> float:
    """Worst relative error of the flat gradient ``analytic`` against central
    differences of ``values`` around ``base``.

    For each chunk of at most ``FD_CHUNK`` coordinates, ``values`` gets a
    ``(2m, *base.shape)`` stack of copies of ``base``, copy 2j moved by +h
    and copy 2j+1 by -h at the chunk's coordinate j, and returns their 2m
    values, or an OracleError is raised; ``base`` itself is never written.
    Coordinate i's error is |a_i - n_i| / max(|a_i|, |n_i|, floor), with
    floor = max(1e-8, SCALE_FLOOR * max|analytic|) over the whole input:
    central differences carry rounding (~eps·|f|/h) and truncation (~h²)
    error on the function's scale, so a coordinate far below the largest
    is judged against that scale. A NaN makes the result NaN.
    """
    flat = base.ravel()
    floor = np.maximum(1e-8, SCALE_FLOOR * np.abs(analytic).max(initial=0.0))
    worst = 0.0
    for start in range(0, flat.size, FD_CHUNK):
        idx = np.arange(start, min(start + FD_CHUNK, flat.size))
        j = idx - start
        copies = np.repeat(base[None], 2 * idx.size, axis=0)
        moved = copies.reshape(len(copies), -1)
        moved[2 * j, idx] = flat[idx] + h
        moved[2 * j + 1, idx] = flat[idx] - h
        v = np.asarray(values(copies), dtype=np.float64).ravel()
        if v.size != len(copies):
            raise OracleError(f"evaluator returned {v.size} values for {len(copies)} copies")
        numeric = (v[0::2] - v[1::2]) / (2.0 * h)
        a = analytic[idx]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), floor)
        # np.maximum keeps a NaN, where Python's max(0.0, nan) drops it
        worst = np.maximum(worst, (np.abs(a - numeric) / denom).max())
    return float(worst)


def op_checks(seed: int = 0) -> list[CheckResult]:
    """One finite-difference probe per differentiable op and input slot.

    The fixed inputs the probes share draw first. Then each probe, in table
    order, draws its input ``x`` and a weight ``w`` shaped like the op's
    output, and checks ``sum_all(mul(op(x), w))``; the random weighting makes
    constant-sum outputs still exercise their gradients. Each op is written
    once, as ``op(x, lift)``, for one ``x`` and for a stack of its copies.
    """
    rng = _rng(seed)
    a6x4, b4x5, a2x6x4 = _t(rng, 6, 4), _t(rng, 4, 5), _t(rng, 2, 6, 4)
    gamma, beta = _t(rng, 4), _t(rng, 4)
    a4x2x3 = T.reshape(a6x4, (4, 2, 3))
    a3x4, att = _t(rng, 3, 4), [_t(rng, 4, 4) for _ in range(4)]  # 2 heads, dh=2: scale != 1
    # S=2, D=2 and a hidden width of 3 make every feedforward slot's shape distinct
    a2x2, ff = _t(rng, 2, 2), [_t(rng, 2, 3), _t(rng, 3), _t(rng, 3, 2), _t(rng, 2)]

    # (name, op of x and lift, shape of x[, lead]); each lambda looks its op up
    # in ``T`` when called, so a replaced op is what gets checked
    probes = [
        ("matmul.a", lambda x, lift: T.matmul(x, b4x5), (6, 4)),
        ("matmul.b", lambda x, lift: T.matmul(lift(a6x4), x), (4, 5)),
        ("add.same", lambda x, lift: T.add(x, a6x4), (6, 4)),
        ("add.bias", lambda x, lift: T.add(lift(a6x4), x), (4,), (1,)),
        ("mul", lambda x, lift: T.mul(x, lift(a6x4)), (6, 4)),
        ("scale", lambda x, lift: T.scale(x, -2.5), (6, 4)),
        ("reshape", lambda x, lift: T.reshape(x, x.shape[:-2] + (8, 3)), (6, 4)),
        ("concat_rows", lambda x, lift: T.concat_rows([x, lift(a6x4)]), (6, 4)),
        ("matmul.batched", lambda x, lift: T.matmul(x, lift(a4x2x3)), (4, 3, 2)),
        ("gather_rows", lambda x, lift: T.gather_rows(x, lift([0, 2, 2, 5])), (6, 4)),
        ("layer_norm.x", lambda x, lift: T.layer_norm(x, gamma, beta), (6, 4)),
        ("layer_norm.gamma", lambda x, lift: T.layer_norm(lift(a6x4), x, beta), (4,), (1,)),
        ("layer_norm.beta", lambda x, lift: T.layer_norm(lift(a6x4), gamma, x), (4,), (1,)),
        ("sum_all", lambda x, lift: T.sum_all(x), (6, 4), None),  # no per-copy form
        ("cross_entropy", lambda x, lift: T.cross_entropy(x, lift(3)), (7,)),
        ("matmul.shared.a", lambda x, lift: T.matmul(x, b4x5), (2, 6, 4)),
        ("matmul.shared.b", lambda x, lift: T.matmul(lift(a2x6x4), x), (4, 5), (2,)),
        ("add.suffix", lambda x, lift: T.add(lift(a2x6x4), x), (6, 4), (1,)),
        ("concat_rows.stack", lambda x, lift: T.concat_rows([x, lift(a2x6x4)]), (2, 6, 4)),
        ("gather_rows.stack",
         lambda x, lift: T.gather_rows(x, lift([[0, 2, 2], [5, 1, 0]])), (2, 6, 4)),
        ("cross_entropy.batched", lambda x, lift: T.cross_entropy(x, lift([3, 0])), (2, 7)),
        ("add.rows", lambda x, lift: T.add(lift(a2x6x4), x), (2, 1, 4)),
        ("layer_norm.gamma.rows", lambda x, lift: T.layer_norm(lift(a2x6x4), x, beta), (2, 1, 4)),
        ("layer_norm.beta.rows", lambda x, lift: T.layer_norm(lift(a2x6x4), gamma, x), (2, 1, 4)),
        ("attention.x", lambda x, lift: T.attention(x, att, 2)[0], (3, 4)),
        ("attention.wq", lambda x, lift: T.attention(lift(a3x4), [x, *att[1:]], 2)[0], (4, 4)),
        ("attention.wk",
         lambda x, lift: T.attention(lift(a3x4), [att[0], x, *att[2:]], 2)[0], (4, 4)),
        ("attention.wv",
         lambda x, lift: T.attention(lift(a3x4), [*att[:2], x, att[3]], 2)[0], (4, 4)),
        ("attention.wo", lambda x, lift: T.attention(lift(a3x4), [*att[:3], x], 2)[0], (4, 4)),
        ("feedforward.x", lambda x, lift: T.feedforward(x, ff), (2, 2)),
        ("feedforward.w1", lambda x, lift: T.feedforward(lift(a2x2), [x, *ff[1:]]), (2, 3)),
        ("feedforward.b1",
         lambda x, lift: T.feedforward(lift(a2x2), [ff[0], x, *ff[2:]]), (3,), (1,)),
        ("feedforward.w2",
         lambda x, lift: T.feedforward(lift(a2x2), [*ff[:2], x, ff[3]]), (3, 2)),
        ("feedforward.b2", lambda x, lift: T.feedforward(lift(a2x2), [*ff[:3], x]), (2,), (1,)),
        # one query row against six, as layer L runs: x's partial mixes the query row's
        # with the k/v rows'. wq reaches the loss through one softmax row per head, which
        # unit-scale rows often saturate, leaving a gradient below the central
        # difference's rounding; at half scale they do not
        ("attention.cls.x", lambda x, lift: T.attention(x, att, 2, queries=1)[0], (6, 4)),
        ("attention.cls.wq", lambda x, lift: T.attention(
            T.scale(lift(a6x4), 0.5), [x, *att[1:]], 2, queries=1)[0], (4, 4)),
    ]
    return [_probe(rng, *p) for p in probes]


def _probe(rng: np.random.Generator, name: str, op: Callable[..., Tensor],
           shape: tuple[int, ...], lead: tuple[int, ...] | None = ()) -> CheckResult:
    """One probe of ``op_checks``: draw ``x``, then ``w``, and check ``op``.

    ``op(x, lift)`` with ``lift`` the identity gives the determinism check and
    the tape gradient. The ±h copies go through one call on their stack, each
    broadcast onto ``(*lead, *shape)`` (``(1,)`` makes a bias's copies rows),
    with ``lift`` putting fixed tensors and index or label arrays onto the
    copies' axis. Copy i's value ``(y_i * w).sum()`` has the bits of
    ``sum_all(mul(y_i, w))``. ``lead=None`` runs one copy at a time.
    """
    x = _t(rng, *shape)
    w = _t(rng, *op(x, lambda v: v).shape)

    def values(copies: np.ndarray) -> np.ndarray:
        n = len(copies)

        def lift(v):
            return (Tensor._wrap(lift(v.data)) if isinstance(v, Tensor)
                    else np.broadcast_to(v, (n, *np.shape(v))))

        xs = np.broadcast_to(copies.reshape(n, *[1] * len(lead), *shape), (n, *lead, *shape))
        y = op(Tensor._wrap(xs), lift).data
        return (y.reshape(n, -1) * w.data.ravel()).sum(axis=1)

    err = finite_diff_check(lambda v: T.sum_all(T.mul(op(v, lambda u: u), w)), x,
                            values=None if lead is None else values)
    return CheckResult(name, err, OP_TOL)


def toy_config() -> ModelConfig:
    """Smallest fused model worth checking: 4 patches, 2 layers, 2 heads."""
    return ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                       embed_dim=8, layers=2, heads=2, mlp_dim=16, k=2,
                       selector="maws", num_classes=3, seed=7)


def end_to_end_check(seed: int = 0) -> list[CheckResult]:
    """Perturb every parameter coordinate of the toy model, indices frozen.

    Each chunk of a parameter's ±h copies is one stacked forward, except for
    layer L and the head: their copies run ``model._final`` over the taped
    forward's fused tokens, repeated once per copy.
    """
    cfg = toy_config()
    rng = _rng(seed)
    model = FuseVitModel.build(cfg, dtype=np.float64)
    image = Tensor(rng.uniform(0.0, 1.0, size=(cfg.image_h, cfg.image_w, cfg.channels)),
                   dtype=np.float64)
    label = 1

    # the one taped forward runs the selector and gives the fused tokens; every
    # copy reuses its selections, and no parameter of layer L or the head moves
    # the tokens layer L reads
    with Tape() as tape:
        taped = model.forward(image)
        tape.backward(T.cross_entropy(taped.logits, label))
    fused = taped.fused.tokens.data[None]
    late = {id(p) for p in (*model.layers[-1].values(), *model.head.values())}

    def losses(param: Tensor, copies: np.ndarray) -> np.ndarray:
        """The loss with each of ``copies`` in place of ``param.data``, as one
        stacked call. A matrix's copies are a stack of matrices; a vector's
        are ``(n, 1, d)`` rows, which broadcast over each slice's tokens."""
        n = len(copies)
        saved = param.data
        param.data = copies.reshape(n, -1, param.shape[-1])
        try:
            if id(param) in late:
                logits = model._final(Tensor._wrap(np.repeat(fused, n, axis=0)))
            else:
                images = Tensor._wrap(np.repeat(image.data[None], n, axis=0))
                stacked = [SelectionResult(np.broadcast_to(s.indices, (n, *s.indices.shape)),
                                           np.broadcast_to(s.weights, (n, *s.weights.shape)))
                           for s in taped.selections]
                logits = model.forward(images, frozen_selections=stacked).logits
            return T.cross_entropy(logits, np.full(n, label)).data
        finally:
            param.data = saved

    results = []
    for name, param in model.named_parameters():
        worst = _central_difference(lambda copies: losses(param, copies), param.data,
                                    param.grad.ravel(), END_TO_END_H)
        results.append(CheckResult(f"end_to_end.{name}", worst, END_TO_END_TOL))
    return results


def run_suite(seed: int = 0) -> list[CheckResult]:
    return op_checks(seed) + end_to_end_check(seed)


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name:<32} max_rel_err={r.max_rel_err:.3e} "
                     f"tol={r.tolerance:.0e}")
    failures = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    return "\n".join(lines)
