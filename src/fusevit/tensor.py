"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 for training, float64 for verification)
stored row-major. Operations executed inside a ``with Tape():`` block are
recorded together with a backward rule; ``Tape.backward(loss)`` replays the
tape in reverse and accumulates gradients into ``Tensor.grad`` buffers.

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

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LN_EPS = 1e-6  # added to every layer_norm variance


class Tensor:
    """A dense multi-dimensional array of real scalars.

    ``requires_grad`` marks leaves whose gradient should be populated by
    ``backward``; intermediate results inherit it through recorded ops.
    Stored scalars must be finite; constructing a tensor from non-finite
    data raises :class:`NumericError`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        # order="C" stores the data C-contiguous and, unlike ascontiguousarray,
        # keeps a 0-d input 0-d
        arr = np.asarray(data, dtype=dtype if dtype is not None else np.float32, order="C")
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
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
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class Tape:
    """Ordered record of one forward pass.

    Operations append ``(output, inputs, rule)`` in execution order, so
    inputs always precede their consumers; ``backward`` walks the list in
    reverse exactly once.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
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
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for output, inputs, rule in reversed(self._records):
            out_grad = output.grad
            if out_grad is None:
                continue
            partials = rule(out_grad)
            for t, p in zip(inputs, partials):
                if p is None or not t.requires_grad:
                    continue
                if t.grad is None:
                    # the first partial becomes the buffer; a rule may hand back
                    # its incoming gradient or a view of it, which must not be
                    # shared with another tensor's buffer
                    t.grad = p.copy() if p is out_grad or p.base is not None else p
                else:
                    t.grad += p
        # tensors that never received flow end up with 0
        for output, inputs, _ in self._records:
            for t in (*inputs, output):
                if t.grad is None and t.requires_grad:
                    t.grad = np.zeros_like(t.data)


_TAPE_STACK: list[Tape] = []


def _finish(out: Tensor, inputs: tuple[Tensor, ...], backward_rule) -> Tensor:
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        tape = _TAPE_STACK[-1]
        out.requires_grad = True
        out._tape = tape
        tape._records.append((out, inputs, backward_rule))
    return out


# ---- primitive operations ------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, of two stacks with equal leading axes,
    or of a stack ``(..., S, D)`` and one matrix ``(D, E)`` shared by every slice."""
    ad, bd = a.data, b.data
    if (ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]
            or bd.ndim > 2 and (ad.ndim != bd.ndim or ad.shape[:-2] != bd.shape[:-2])):
        raise ShapeError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    out = Tensor._wrap(ad @ bd)

    if bd.ndim == 2:
        def rule(g):
            # the shared matrix collects the products of every slice
            return (g @ bd.T,
                    ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
    else:
        def rule(g):
            return g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g

    return _finish(out, (a, b), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also have a suffix of ``a``'s shape (a bias
    vector, or a position table over a stack) and is broadcast over the rest."""
    ad, bd = a.data, b.data
    lead = ad.ndim - bd.ndim
    if lead < 0 or ad.shape[lead:] != bd.shape:
        raise ShapeError(f"add shape mismatch: {ad.shape} + {bd.shape}")
    out = Tensor._wrap(ad + bd)
    axes = tuple(range(lead))

    def rule(g):
        # a sum over every axis gives a numpy scalar; the gradient stays an array
        return g, np.asarray(g.sum(axis=axes))

    return _finish(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
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


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes; by default reverse them (the matrix transpose)."""
    ndim = a.data.ndim
    axes = tuple(reversed(range(ndim))) if axes is None else tuple(axes)
    if sorted(axes) != list(range(ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation for {a.shape}")
    out = Tensor._wrap(np.ascontiguousarray(a.data.transpose(axes)))

    def rule(g):
        return (g.transpose(np.argsort(axes)),)

    return _finish(out, (a,), rule)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    in_shape = a.data.shape
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"cannot reshape {in_shape} to {shape}")
    out = Tensor._wrap(a.data.reshape(shape))

    def rule(g):
        return (g.reshape(in_shape),)

    return _finish(out, (a,), rule)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along axis -2; every other axis must match."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat_rows of zero tensors")
    first = parts[0].data.shape
    for p in parts:
        shape = p.data.shape
        if len(shape) < 2 or len(shape) != len(first) or shape[:-2] != first[:-2] \
                or shape[-1] != first[-1]:
            raise ShapeError(f"concat_rows shape mismatch: {[p.shape for p in parts]}")
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=-2))
    offsets = np.cumsum([0] + [p.data.shape[-2] for p in parts])

    def rule(g):
        return tuple(g[..., offsets[i]:offsets[i + 1], :] for i in range(len(parts)))

    return _finish(out, parts, rule)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Copy the given rows (duplicates allowed) into a new tensor.

    For a matrix ``indices`` is a sequence of row numbers; for a stack
    ``(..., S, D)`` it is an integer array ``(..., R)`` holding each slice's
    own rows.
    """
    ad = a.data
    idx = np.asarray(indices, dtype=np.intp)
    if ad.ndim < 2 or idx.ndim != ad.ndim - 1 or idx.shape[:-1] != ad.shape[:-2]:
        raise ShapeError(f"gather_rows of indices shaped {idx.shape} from shape {ad.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= ad.shape[-2]):
        raise ShapeError(f"row indices {indices} out of range for {ad.shape}")
    # index tuple: one broadcast index per leading axis, then the rows
    key = (*np.indices(idx.shape, sparse=True)[:-1], idx) if idx.ndim > 1 else idx
    out = Tensor._wrap(ad[key])

    def rule(g):
        full = np.zeros_like(ad)
        np.add.at(full, key, g)
        return (full,)

    return _finish(out, (a,), rule)


def softmax(v: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, computed with max-subtraction."""
    x = v.data
    if x.size == 0 or x.shape[-1] == 0:
        raise ShapeError("softmax of an empty tensor")
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor._wrap(y)

    def rule(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _finish(out, (v,), rule)


def layer_norm(v: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each vector along the last axis, then apply gamma/beta."""
    d = v.data.shape[-1] if v.data.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm over an empty last axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match D={d}")
    x = v.data
    # np.add.reduce / d is what ndarray.mean computes, without its dispatch cost
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = Tensor._wrap(xhat * gamma.data + beta.data)

    def rule(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        dx = inv * (dxhat
                    - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
                    - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d))
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


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Negative log-softmax of the true class, over the last axis.

    ``logits`` is ``(..., C)`` and ``label`` an integer (array) of shape
    ``(...)``; the result has that shape too, so one logit vector and an int
    label give a scalar loss. A label outside ``[0, C)`` is a ConfigError.
    """
    x = logits.data
    labels = np.asarray(label)
    if x.ndim < 1 or labels.shape != x.shape[:-1]:
        raise ShapeError(f"cross_entropy of logits shaped {x.shape} "
                         f"with labels shaped {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ConfigError(f"labels must be integers, got {labels.dtype}")
    n = x.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise ConfigError(f"label {label} out of range for {n} classes")
    pick = labels[..., None]
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    probs = e / z
    loss = (np.log(z) + m - np.take_along_axis(x, pick, axis=-1))[..., 0].astype(x.dtype)
    out = Tensor._wrap(loss)

    def rule(g):
        d = probs - (np.arange(n) == pick)
        return (g[..., None] * d.astype(x.dtype, copy=False),)

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
