"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 for training, float64 for verification)
stored row-major. Operations executed inside a ``with Tape():`` block are
recorded together with a backward rule; ``backward(loss)`` replays the tape
in reverse and accumulates gradients into ``Tensor.grad`` buffers.

Gradients add across fan-out and across repeated backward calls on fresh
tapes; callers zero them between optimizer steps. A tape can be replayed
exactly once.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError, OracleError, ShapeError, TapeError, ConfigError

_FLOAT_DTYPES = (np.float32, np.float64)
_default_dtype = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class precision:
    """Context manager switching the default storage dtype.

    ``with precision("f64"): ...`` puts all tensors created without an
    explicit dtype into 64-bit mode, which the gradient oracles rely on.
    """

    _names = {"f32": np.float32, "f64": np.float64}

    def __init__(self, dtype):
        if isinstance(dtype, str):
            if dtype not in self._names:
                raise ConfigError(f"unknown precision {dtype!r}, expected 'f32' or 'f64'")
            dtype = self._names[dtype]
        dtype = np.dtype(dtype).type
        if dtype not in _FLOAT_DTYPES:
            raise ConfigError(f"unsupported dtype {dtype}")
        self._dtype = dtype
        self._saved = None

    def __enter__(self):
        global _default_dtype
        self._saved = _default_dtype
        _default_dtype = self._dtype
        return self

    def __exit__(self, *exc):
        global _default_dtype
        _default_dtype = self._saved
        return False


class Tensor:
    """A dense multi-dimensional array of real scalars.

    ``requires_grad`` marks leaves whose gradient should be populated by
    ``backward``; intermediate results inherit it through recorded ops.
    Stored scalars must be finite; constructing a tensor from non-finite
    data raises :class:`NumericError`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else _default_dtype)
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(_default_dtype)
        arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # internal fast path for op outputs; skips the finite check
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        t._tape = None
        return t

    # ---- inspection -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def assert_finite(self, context: str = "tensor") -> "Tensor":
        if not np.isfinite(self.data).all():
            raise NumericError(f"non-finite values in {context}")
        return self

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class _Record:
    __slots__ = ("output", "inputs", "backward")

    def __init__(self, output, inputs, backward):
        self.output = output
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of one forward pass.

    Operations append in execution order, so inputs always precede their
    consumers; ``backward`` walks the list in reverse exactly once.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        top = _TAPE_STACK.pop()
        assert top is self, "tape stack corrupted"
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate grad buffers of every requires_grad tensor on this tape."""
        if self._consumed:
            raise TapeError("tape already replayed; run a new forward pass first")
        if loss.shape != ():
            raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise TapeError("loss was not produced under this tape")
        self._consumed = True
        # zero-init buffers so tensors that never receive flow end up with 0
        for rec in self._records:
            for t in (*rec.inputs, rec.output):
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)
        loss.grad = loss.grad + np.ones((), dtype=loss.data.dtype)
        for rec in reversed(self._records):
            out_grad = rec.output.grad
            if out_grad is None:
                continue
            partials = rec.backward(out_grad)
            for t, p in zip(rec.inputs, partials):
                if p is not None and t.requires_grad:
                    t.grad += p


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _finish(out: Tensor, inputs: tuple[Tensor, ...], backward_rule) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape._records.append(_Record(out, inputs, backward_rule))
    return out


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss to all leaves."""
    if loss._tape is None:
        raise TapeError("loss was not produced under an active tape")
    loss._tape.backward(loss)


# ---- primitive operations ------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = Tensor._wrap(a.data @ b.data)

    def rule(g):
        return g @ b.data.T, a.data.T @ g

    return _finish(out, (a, b), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also broadcasts a 1-D bias over the last axis."""
    if a.shape == b.shape:
        out = Tensor._wrap(a.data + b.data)

        def rule(g):
            return g, g

    elif b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        out = Tensor._wrap(a.data + b.data)

        def rule(g):
            axes = tuple(range(g.ndim - 1))
            return g, g.sum(axis=axes) if axes else g

    else:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}")
    return _finish(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out = Tensor._wrap(a.data * b.data)

    def rule(g):
        return g * b.data, g * a.data

    return _finish(out, (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor._wrap(a.data * c)

    def rule(g):
        return (g * c,)

    return _finish(out, (a,), rule)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got shape {a.shape}")
    out = Tensor._wrap(np.ascontiguousarray(a.data.T))

    def rule(g):
        return (g.T,)

    return _finish(out, (a,), rule)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    out = Tensor._wrap(a.data.reshape(shape))

    def rule(g):
        return (g.reshape(a.shape),)

    return _finish(out, (a,), rule)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-2 tensors along axis 0."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat_rows of zero tensors")
    cols = parts[0].shape[-1]
    for p in parts:
        if p.ndim != 2 or p.shape[1] != cols:
            raise ShapeError(f"concat_rows column mismatch: {[p.shape for p in parts]}")
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def rule(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _finish(out, parts, rule)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-2 tensors along axis 1 (e.g. merging attention heads)."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat_cols of zero tensors")
    rows = parts[0].shape[0]
    for p in parts:
        if p.ndim != 2 or p.shape[0] != rows:
            raise ShapeError(f"concat_cols row mismatch: {[p.shape for p in parts]}")
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def rule(g):
        return tuple(np.ascontiguousarray(g[:, offsets[i]:offsets[i + 1]])
                     for i in range(len(parts)))

    return _finish(out, parts, rule)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"slice_cols needs a matrix, got shape {a.shape}")
    if not (0 <= start < stop <= a.shape[1]):
        raise ShapeError(f"column slice [{start}:{stop}] out of range for {a.shape}")
    out = Tensor._wrap(np.ascontiguousarray(a.data[:, start:stop]))

    def rule(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return _finish(out, (a,), rule)


def gather_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    """Copy the given rows (duplicates allowed) into a new matrix."""
    if a.ndim != 2:
        raise ShapeError(f"gather_rows needs a matrix, got shape {a.shape}")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"row indices {indices} out of range for {a.shape}")
    out = Tensor._wrap(a.data[idx])

    def rule(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _finish(out, (a,), rule)


def softmax(v: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, computed with max-subtraction."""
    if v.size == 0 or v.shape[-1] == 0:
        raise ShapeError("softmax of an empty tensor")
    x = v.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor._wrap(y)

    def rule(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _finish(out, (v,), rule)


def layer_norm(v: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize each vector along the last axis, then apply gamma/beta."""
    d = v.shape[-1] if v.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm over an empty last axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match D={d}")
    if not eps > 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    x = v.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor._wrap(xhat * gamma.data + beta.data)

    def rule(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead) if lead else g * xhat
        dbeta = g.sum(axis=lead) if lead else g
        dxhat = g * gamma.data
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return _finish(out, (v, gamma, beta), rule)


def gelu(v: Tensor) -> Tensor:
    """Exact-CDF GELU: x * Phi(x) with the Gaussian CDF, no tanh shortcut."""
    x = v.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = Tensor._wrap((x * cdf).astype(x.dtype, copy=False))

    def rule(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (cdf + x * pdf).astype(x.dtype, copy=False),)

    return _finish(out, (v,), rule)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor._wrap(a.data.sum(dtype=a.data.dtype).reshape(()))

    def rule(g):
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),)

    return _finish(out, (a,), rule)


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log-softmax of the true class; scalar loss."""
    if logits.ndim != 1:
        raise ShapeError(f"cross_entropy expects a logit vector, got shape {logits.shape}")
    n = logits.shape[0]
    label = int(label)
    if not 0 <= label < n:
        raise IndexError(f"label {label} out of range for {n} classes")
    x = logits.data
    m = x.max()
    e = np.exp(x - m)
    z = e.sum()
    probs = e / z
    loss = (np.log(z) + m - x[label]).reshape(()).astype(x.dtype)
    out = Tensor._wrap(loss)

    def rule(g):
        d = probs.copy()
        d[label] -= 1.0
        return (g * d.astype(x.dtype, copy=False),)

    return _finish(out, (logits,), rule)


# ---- gradient oracle -------------------------------------------------------


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Worst relative error between the tape gradient of f and central differences.

    ``f`` must map one tensor to a scalar tensor and be deterministic; this is
    verified by evaluating it twice and requiring bit-identical results.
    Relative error per coordinate uses max(|analytic|, |numeric|, 1e-8) as the
    denominator.
    """
    if not h > 0:
        raise ConfigError(f"finite difference step must be positive, got {h}")

    def eval_value(arr: np.ndarray) -> float:
        out = f(Tensor._wrap(arr))
        if out.shape != ():
            raise ShapeError(f"finite_diff_check needs a scalar function, got {out.shape}")
        return float(out.data)

    base = x.data.copy()
    v1 = eval_value(base.copy())
    v2 = eval_value(base.copy())
    if v1 != v2:
        raise OracleError("function under test is not deterministic")

    leaf = Tensor(base.copy(), requires_grad=True, dtype=base.dtype)
    with Tape() as tape:
        out = f(leaf)
        tape.backward(out)
    analytic = leaf.grad.ravel() if leaf.grad is not None else np.zeros(base.size)
    return _central_difference(lambda: eval_value(base), base.ravel(), analytic, h)


def _central_difference(value: Callable[[], float], flat: np.ndarray,
                        analytic: np.ndarray, h: float) -> float:
    """Worst relative error of ``analytic`` against central differences.

    ``flat`` is a flat view of the input that ``value`` reads; each coordinate
    is moved by +h and -h in place, then restored.
    """
    worst = 0.0
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        fp = value()
        flat[i] = saved - h
        fm = value()
        flat[i] = saved
        numeric = (fp - fm) / (2.0 * h)
        a = float(analytic[i])
        denom = max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, abs(a - numeric) / denom)
    return worst
