"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 for training, float64 for verification)
stored row-major. Operations executed inside a ``with Tape():`` block are
recorded together with a backward rule; ``Tape.backward(loss)`` replays the
tape in reverse, accumulates gradients into the ``Tensor.grad`` buffers of
the leaves, and frees each record, with the forward buffers its rule held,
as soon as the rule has run.

Gradients add across fan-out and across repeated backward calls on fresh
tapes; callers zero them between optimizer steps. A tape can be replayed
exactly once.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError, TapeError, ConfigError

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

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        arr = np.asarray(data)
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            # a narrowing cast that overflows leaves inf for the finite check below;
            # order="C", unlike ascontiguousarray, keeps a 0-d input 0-d
            with np.errstate(over="ignore"):
                arr = np.asarray(arr, dtype=dtype, order="C")
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if not np.isfinite(arr).all():
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # internal fast path for op outputs; skips the finite check
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
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
        self._replayed = 0  # records freed by backward, still counted by len()

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        top = _TAPE_STACK.pop()
        assert top is self, "tape stack corrupted"
        return False

    def __len__(self) -> int:
        """The number of ops recorded, also after ``backward`` has freed them."""
        return self._replayed + len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Add the loss's gradient into the ``.grad`` of every requires_grad leaf
        on this tape; a leaf the loss does not reach keeps its ``.grad``.

        Each record, with the forward buffers its rule held, is dropped as soon
        as the rule has run, and each intermediate's ``.grad`` is set to None
        once its rule has read it, so memory falls as the replay goes.
        """
        if self._replayed:
            raise TapeError("tape already replayed; run a new forward pass first")
        if loss.shape != ():
            raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        # the loss is normally the last record, so scan from the end
        if not any(out is loss for out, _, _ in reversed(self._records)):
            raise TapeError("loss was not produced under this tape")
        records, self._records = self._records, []
        self._replayed = len(records)
        loss.grad = np.ones((), dtype=loss.data.dtype)
        while records:
            output, inputs, rule = records.pop()
            out_grad, output.grad = output.grad, None
            if out_grad is None:
                continue
            for t, p in zip(inputs, rule(out_grad)):
                if not t.requires_grad:
                    continue
                if t.grad is None:
                    # the first partial becomes the buffer; a rule may hand back
                    # its incoming gradient or a view of it, which must not be
                    # shared with another tensor's buffer
                    t.grad = p.copy() if p is out_grad or p.base is not None else p
                else:
                    t.grad += p
            del p  # the last partial would otherwise live through the next rule


_TAPE_STACK: list[Tape] = []


def _finish(out: Tensor, inputs: tuple[Tensor, ...], backward_rule) -> Tensor:
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE_STACK[-1]._records.append((out, inputs, backward_rule))
    return out


# ---- primitive operations ------------------------------------------------


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """``(dA, dB)`` of ``a @ b`` for its gradient ``g``; a shared matrix ``b`` sums all slices."""
    if b.ndim == 2:
        return g @ b.T, a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return g @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ g


def _product_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of ``a @ b`` for the forms ``matmul`` takes; a ShapeError for any other."""
    if (len(a) < 2 or len(b) < 2 or a[-1] != b[-2]
            or len(b) > 2 and (len(a) != len(b) or a[:-2] != b[:-2])):
        raise ShapeError(f"matmul shape mismatch: {a} x {b}")
    return a[:-1] + b[-1:]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, of two stacks with equal leading axes,
    or of a stack ``(..., S, D)`` and one matrix ``(D, E)`` shared by every slice."""
    ad, bd = a.data, b.data
    _product_shape(ad.shape, bd.shape)
    return _finish(Tensor._wrap(ad @ bd), (a, b), lambda g: _matmul_grads(ad, bd, g))


def _fits(shape: tuple[int, ...], onto: tuple[int, ...]) -> bool:
    """Whether ``shape`` broadcasts onto ``onto`` by numpy's rule without growing it."""
    return len(shape) <= len(onto) and all(n in (1, m) for n, m in zip(shape[::-1], onto[::-1]))


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes along which an array of ``shape`` was broadcast."""
    lead = g.ndim - len(shape)
    axes = (*range(lead), *(lead + i for i, n in enumerate(shape) if n == 1))
    # a full sum is a numpy scalar: keep an array, and a fresh one, not a view
    out = np.asarray(g.sum(axis=axes))
    return out if out.shape == shape else out.reshape(shape)


def _check_add(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    # the suffix form is what the model passes, so it is tested first
    if a[len(a) - len(b):] != b and not _fits(b, a):
        raise ShapeError(f"add shape mismatch: {a} + {b}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may broadcast onto ``a`` by numpy's rule if ``a``'s
    shape does not grow: a bias, a position table or a stack of ``(..., 1, D)`` rows."""
    ad, bd = a.data, b.data
    _check_add(ad.shape, bd.shape)
    out = Tensor._wrap(ad + bd)

    def rule(g):
        return g, _sum_to(g, bd.shape)

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
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":  # a cast would truncate floats, bools
        raise ShapeError(f"gather_rows indices must be integers, got {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
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


def attention(x: Tensor, weights: Sequence[Tensor], heads: int, queries: int | None = None):
    """Multi-head self-attention of ``x``, ``(S, D)`` or a stack ``(..., S, D)``, as one
    record; ``weights`` are ``(wq, wk, wv, wo)``, each ``(D, D)`` or a stack with ``x``'s
    leading axes. Only the first ``queries`` rows (default: all S) issue queries, against
    keys and values from every row, as in CaiT's class attention. Returns their attended
    values times ``wo``, ``(..., queries, D)``, and the head-averaged scaled pre-softmax
    scores ``(..., queries, S)``, detached. The heads are an axis: q and v split into
    ``(..., heads, rows, dh)`` stacks, k into ``(..., heads, dh, S)``. The softmax runs in
    place; the rule's bits equal those of the same chain of separate ops."""
    xd, ws = x.data, tuple(w.data for w in weights)
    sq = xd.shape[-1:] * 2
    if xd.ndim < 2 or len(ws) != 4 or any(w.shape not in (sq, xd.shape[:-2] + sq) for w in ws):
        raise ShapeError(f"attention of {xd.shape} with weights {[w.shape for w in ws]}")
    (*lead, s, d), (wq, wk, wv, wo) = xd.shape, ws
    if heads < 1 or d % heads:
        raise ShapeError(f"width {d} not divisible by {heads} heads")
    r = s if queries is None else int(queries)
    if not 1 <= r <= s:
        raise ShapeError(f"attention of {r} query rows from {s} rows")
    dh, c = d // heads, 1.0 / math.sqrt(d // heads)

    def split(a, keys=False):  # (..., n, D) to (..., heads, n, dh), or kᵀ's (..., heads, dh, n)
        a = a.reshape(*a.shape[:-1], heads, dh).swapaxes(-3, -2)
        return np.ascontiguousarray(a.swapaxes(-2, -1) if keys else a)

    def join(a, keys=False):  # and back, copied: BLAS rounds a strided view differently
        a = np.ascontiguousarray((a.swapaxes(-2, -1) if keys else a).swapaxes(-3, -2))
        return a.reshape(*a.shape[:-2], d)

    xq = xd if r == s else np.ascontiguousarray(xd[..., :r, :])
    q, k_t, v = split(xq @ wq), split(xd @ wk, keys=True), split(xd @ wv)
    p = q @ k_t
    p *= c
    scores = Tensor._wrap(p.sum(axis=-3) / heads)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    merged = join(p @ v)

    def rule(g):
        dmerged, dwo = _matmul_grads(merged, wo, g)
        dp, dv = _matmul_grads(p, v, split(dmerged))
        dp -= (dp * p).sum(axis=-1, keepdims=True)  # softmax's rule, then scale's, in place
        dp *= p
        dp *= c
        dq, dk_t = _matmul_grads(q, k_t, dp)
        # x's partials add in the order a tape of separate ops replays them: v, k, q;
        # q's reaches only the rows that issued queries
        dxv, dwv = _matmul_grads(xd, wv, join(dv))
        dxk, dwk = _matmul_grads(xd, wk, join(dk_t, keys=True))
        dxq, dwq = _matmul_grads(xq, wq, join(dq))
        dx = dxv + dxk
        dx[..., :r, :] += dxq
        return dx, dwq, dwk, dwv, dwo

    return _finish(Tensor._wrap(merged @ wo), (x, *weights), rule), scores


def layer_norm(v: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each vector along the last axis, then apply gamma/beta: ``(D,)``
    or any shape that broadcasts onto the input as ``add``'s ``b`` does."""
    x = v.data
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm over an empty last axis")
    # the (D,) form is what the model passes, so it is tested first
    if (gamma.shape != (d,) and not _fits(gamma.shape, x.shape)
            or beta.shape != (d,) and not _fits(beta.shape, x.shape)):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match D={d}")
    # work in place keeps a buffer's dtype, where numpy would widen a mixed chain of ops
    if not x.dtype == gamma.data.dtype == beta.data.dtype:
        raise ShapeError(f"layer_norm takes one dtype, got "
                         f"{[str(t.dtype) for t in (v, gamma, beta)]}")
    # np.add.reduce / d is what ndarray.mean computes, without its dispatch cost
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    xhat = xc * xc  # xc * xc, then xhat; xc's buffer takes the output
    var = np.add.reduce(xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    np.multiply(xc, inv, out=xhat)
    out = np.multiply(xhat, gamma.data, out=xc)
    out += beta.data

    def rule(g):
        s = g * xhat  # one scratch buffer: g * xhat, dxhat * xhat, then xhat * m2
        dgamma, dbeta = _sum_to(s, gamma.shape), _sum_to(g, beta.shape)
        dx = g * gamma.data  # dxhat, made dx in place
        m1 = np.add.reduce(dx, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(np.multiply(dx, xhat, out=s), axis=-1, keepdims=True) / d
        dx -= m1
        dx -= np.multiply(xhat, m2, out=s)
        dx *= inv
        return dx, dgamma, dbeta

    return _finish(Tensor._wrap(out), (v, gamma, beta), rule)


def feedforward(x: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """The MLP ``gelu(x @ w1 + b1) @ w2 + b2`` as one record, with the exact-CDF GELU
    ``h * Phi(h)`` (no tanh shortcut); ``weights`` are ``(w1, b1, w2, b2)``, each in a
    form ``matmul``'s or ``add``'s ``b`` takes. The bias adds and the CDF run in place;
    the record holds ``h`` and the CDF, and its rule's bits equal those of the same
    chain of separate ops."""
    xd = x.data
    if len(weights) != 4:
        raise ShapeError(f"feedforward takes 4 weights, got {len(weights)}")
    w1, b1, w2, b2 = (w.data for w in weights)
    if not xd.dtype == w1.dtype == b1.dtype == w2.dtype == b2.dtype:  # as in layer_norm
        raise ShapeError(f"feedforward takes one dtype, got "
                         f"{[str(t.dtype) for t in (x, *weights)]}")
    _check_add(hidden := _product_shape(xd.shape, w1.shape), b1.shape)
    _check_add(_product_shape(hidden, w2.shape), b2.shape)
    h = xd @ w1
    h += b1
    cdf = h * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = (h * cdf) @ w2
    out += b2

    def rule(g):
        da, dw2 = _matmul_grads(h * cdf, w2, g)  # h * cdf is exact: the GELU's value again
        slope = h * -0.5  # the GELU's slope cdf + h * pdf, in the unfused op's order
        slope *= h
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        slope *= h
        slope += cdf
        da *= slope  # now h's gradient
        dx, dw1 = _matmul_grads(xd, w1, da)
        return dx, dw1, _sum_to(da, b1.shape), dw2, _sum_to(g, b2.shape)

    return _finish(Tensor._wrap(out), (x, *weights), rule)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor._wrap(a.data.sum(dtype=a.data.dtype).reshape(()))

    def rule(g):
        return (np.broadcast_to(g, a.shape),)

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
        return (g[..., None] * d,)

    return _finish(out, (logits,), rule)
