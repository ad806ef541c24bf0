"""Tensor engine: op semantics, backward rules, and the FD oracle."""

import inspect
import re
import weakref

import numpy as np
import pytest
from scipy.special import erf

import _reference as ref
from _reference import t64
from fusevit import encoder, model, train
from fusevit import tensor as T
from fusevit.encoder import ModelConfig
from fusevit.errors import ConfigError, NumericError, OracleError, ShapeError, TapeError
from fusevit.gradcheck import finite_diff_check, op_checks
from fusevit.model import FuseVitModel
from fusevit.tensor import (
    Tape,
    Tensor,
    add,
    attention,
    concat_rows,
    cross_entropy,
    feedforward,
    gather_rows,
    layer_norm,
    matmul,
    mul,
    reshape,
    sum_all,
)


class TestTensorBasics:
    def test_row_major_storage(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.data.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_transposed_input_is_stored_row_major(self):
        t = Tensor(np.arange(6.0).reshape(2, 3).T)
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.data.ravel().tolist() == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]

    def test_scalar_input_stays_0d(self):
        assert Tensor(3.0).shape == ()
        assert Tensor(np.float64(2.5), dtype=np.float64).shape == ()

    def test_default_dtype_is_f32(self):
        assert Tensor([1.0]).dtype == np.float32

    def test_non_finite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_grad_matches_shape_after_backward(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(mul(x, x)))
        assert x.grad.shape == x.shape


class TestMatmul:
    def test_identity(self):
        eye = t64(np.eye(2))
        m = t64([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(eye, m).data, m.data)

    def test_hand_expansion(self):
        # brute-force triple loop oracle
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.array_equal(expected, [[19.0, 22.0], [43.0, 50.0]])
        assert np.array_equal(matmul(t64(a), t64(b)).data, expected)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        b = t64(rng.standard_normal((3, 3)))
        err = finite_diff_check(lambda x: sum_all(matmul(x, b)),
                                t64(rng.standard_normal((3, 3))))
        assert err < 1e-5

    def test_stack_equals_each_matrix_product(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((3, 4, 5))
        out = matmul(t64(a), t64(b)).data
        assert out.shape == (3, 2, 5)
        for i in range(3):
            assert np.array_equal(out[i], matmul(t64(a[i]), t64(b[i])).data)

    def test_stack_times_shared_matrix_equals_each_slice_product(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 3, 2, 4))
        b = rng.standard_normal((4, 5))
        out = matmul(t64(a), t64(b)).data
        assert out.shape == (2, 3, 2, 5)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], a[i, j] @ b)

    def test_shared_matrix_gradient_sums_over_slices(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 2, 4))
        b = t64(rng.standard_normal((4, 5)), requires_grad=True)
        w = rng.standard_normal((3, 2, 5))
        with Tape() as tape:
            tape.backward(sum_all(mul(matmul(t64(a), b), t64(w))))
        expected = sum(a[i].T @ w[i] for i in range(3))
        assert np.allclose(b.grad, expected, atol=1e-12)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (5, 6)),        # a shared matrix must match the inner width
        ((2, 3, 4), (3, 4, 5)),     # leading axes must be equal
        ((4,), (4, 5)),             # vectors are not matrices
    ])
    def test_stack_shape_mismatch_rejected(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            matmul(t64(np.zeros(a_shape)), t64(np.zeros(b_shape)))


def _attention_inputs(seed, lead=(), weight_lead=(), s=5, d=8):
    """``x`` shaped ``(*lead, s, d)`` and ``[wq, wk, wv, wo]``, each ``(*weight_lead, d, d)``."""
    rng = np.random.default_rng(seed)
    x = t64(rng.standard_normal((*lead, s, d)))
    return x, [t64(rng.standard_normal((*weight_lead, d, d)) / np.sqrt(d)) for _ in range(4)]


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_output_and_scores_match_reference(self, heads):
        x, ws = _attention_inputs(20)
        out, scores = attention(x, ws, heads)
        expected_out, expected_scores = ref.attention(x.data, *(w.data for w in ws), heads)
        assert np.allclose(out.data, expected_out, rtol=1e-12, atol=1e-12)
        assert np.allclose(scores.data, expected_scores, rtol=1e-12, atol=1e-12)

    def test_stack_equals_each_image(self):
        for queries, rows in ((None, 5), (1, 1)):  # every row's queries, and layer L's one
            x, ws = _attention_inputs(21, lead=(3,))
            w = t64(np.random.default_rng(22).standard_normal((3, rows, 8)))
            x.requires_grad = True
            with Tape() as tape:
                out, scores = attention(x, ws, 2, queries)
                tape.backward(sum_all(mul(out, w)))
            for i in range(3):
                xi = t64(x.data[i], requires_grad=True)
                with Tape() as tape:
                    out_i, scores_i = attention(xi, ws, 2, queries)
                    tape.backward(sum_all(mul(out_i, t64(w.data[i]))))
                assert np.array_equal(out.data[i], out_i.data)
                assert np.array_equal(scores.data[i], scores_i.data)
                assert np.array_equal(x.grad[i], xi.grad)

    @pytest.mark.parametrize("slot", range(5), ids=["x", "wq", "wk", "wv", "wo"])
    def test_stacked_weights_gradient_matches_finite_differences(self, slot):
        # the end-to-end gradcheck's forwards pass one weight as an (n, D, D) stack
        x, ws = _attention_inputs(23, lead=(2,), weight_lead=(2,), s=3, d=4)
        args = [x, *ws]
        w = t64(np.random.default_rng(24).standard_normal(x.shape))

        def loss(t):
            a = args[:slot] + [t] + args[slot + 1:]
            return sum_all(mul(attention(a[0], a[1:], 2)[0], w))

        assert finite_diff_check(loss, args[slot]) < 1e-5

    def test_one_tape_record(self):
        x, ws = _attention_inputs(25)
        x.requires_grad = True
        with Tape() as tape:
            _, scores = attention(x, ws, 2)
        assert len(tape) == 1
        assert not scores.requires_grad

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["image", "stack"])
    def test_one_query_equals_the_full_form_on_row_zero(self, lead):
        # layer L's form, and r = 2 query rows: only rows :r of the full form's
        # output reach the loss, so every partial, x's included, is the r-query form's
        x, ws = _attention_inputs(26, lead=lead)
        for r in (1, 2):
            w = t64(np.random.default_rng(27).standard_normal((*lead, r, 8)))
            rows = np.broadcast_to(np.arange(r), (*lead, r))
            runs = []
            for queries in (None, r):
                leaves = [t64(a.data, requires_grad=True) for a in (x, *ws)]
                with Tape() as tape:
                    out, scores = attention(leaves[0], leaves[1:], 2, queries=queries)
                    tape.backward(sum_all(mul(gather_rows(out, rows), w)
                                          if queries is None else mul(out, w)))
                    assert len(tape) == (4 if queries is None else 3)
                runs.append((out.data[..., :r, :], scores.data[..., :r, :],
                             [leaf.grad for leaf in leaves]))
            (full, full_scores, full_grads), (part, part_scores, part_grads) = runs
            assert part.shape == (*lead, r, 8) and part_scores.shape == (*lead, r, 5)
            assert np.allclose(part, full, rtol=0, atol=1e-12)
            assert np.allclose(part_scores, full_scores, rtol=0, atol=1e-12)
            for name, a, b in zip(("x", "wq", "wk", "wv", "wo"), part_grads, full_grads):
                assert np.allclose(a, b, rtol=0, atol=1e-12), (r, name)


def _recording_ops() -> set[str]:
    """The public functions of ``fusevit.tensor`` that record through ``_finish``."""
    return {name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and fn.__module__ == T.__name__
            and not name.startswith("_") and "_finish" in fn.__code__.co_names}


def test_every_recording_op_has_a_named_probe():
    recording = _recording_ops()
    probed = {r.name.split(".")[0] for r in op_checks()}
    assert "attention" in recording and "matmul" in recording
    assert sorted(recording - probed) == []


def test_every_recording_op_is_called_by_the_model():
    # the tape keeps only what the model differentiates; mul is exempt, as the
    # weight in every probe's loss sum_all(mul(op(x), w))
    source = "".join(inspect.getsource(m) for m in (encoder, model, train))
    uncalled = {op for op in _recording_ops() if not re.search(rf"\b{op}\(", source)}
    assert sorted(uncalled - {"mul"}) == []


def _value_and_grads(op, inputs, seed):
    """``op``'s value and the gradients of ``inputs`` for a random output gradient
    ``g``, which ``sum_all(mul(out, g))`` hands the op exactly; also ``g``."""
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    with Tape() as tape:
        out = op(*inputs)
        g = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
        tape.backward(sum_all(mul(out, Tensor(g, dtype=out.dtype))))
    return out.data, [t.grad for t in inputs], g


class TestLayerNorm:
    def test_constant_vector_collapses_to_zero(self):
        gamma, beta = t64(np.ones(4)), t64(np.zeros(4))
        out = layer_norm(t64([3.0, 3.0, 3.0, 3.0]), gamma, beta)
        assert np.allclose(out.data, 0.0)

    def test_already_normalized_pair(self):
        gamma, beta = t64(np.ones(2)), t64(np.zeros(2))
        out = layer_norm(t64([1.0, -1.0]), gamma, beta)
        # mean 0, var 1 already; eps only nudges the denominator
        assert np.allclose(out.data, [1.0, -1.0], atol=1e-5)

    def test_affine_input_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8)
        gamma, beta = t64(rng.standard_normal(8)), t64(rng.standard_normal(8))
        a = layer_norm(t64(v), gamma, beta).data
        b = layer_norm(t64(2.5 * v + 7.0), gamma, beta).data
        assert np.allclose(a, b, atol=1e-5)

    def test_pre_affine_moments(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((5, 16)) * 3.0
        out = layer_norm(t64(v), t64(np.ones(16)), t64(np.zeros(16))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_empty_width_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(t64(np.zeros((2, 0))), t64(np.zeros(0)), t64(np.zeros(0)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape, affine_shape", [
        ((16,), (16,)), ((5, 16), (16,)), ((3, 4, 16), (16,)), ((3, 4, 16), (3, 1, 16))],
        ids=["vector", "matrix", "stack", "rows"])
    def test_value_and_gradients_equal_the_unfused_formulas_bitwise(self, dtype, x_shape,
                                                                    affine_shape):
        rng = np.random.default_rng(7)
        inputs = [Tensor(rng.standard_normal(s) * 3.0 + 1.0, dtype=dtype)
                  for s in (x_shape, affine_shape, affine_shape)]
        before = [t.data.copy() for t in inputs]
        out, grads, g = _value_and_grads(layer_norm, inputs, 8)
        assert all(t.data.tobytes() == b.tobytes() for t, b in zip(inputs, before))
        # the formulas as separate temporaries, each a fresh array
        x, gamma, beta = before
        d = x.shape[-1]
        mu = np.add.reduce(x, axis=-1, keepdims=True) / d
        xc = x - mu
        inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + T.LN_EPS)
        xhat = xc * inv
        dxhat = g * gamma
        dx = inv * (dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
                    - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d))
        lead = tuple(range(x.ndim - len(affine_shape)))
        rows = lead + tuple(i for i, n in enumerate(affine_shape, len(lead)) if n == 1)
        expected = [xhat * gamma + beta, dx, (g * xhat).sum(axis=rows).reshape(affine_shape),
                    g.sum(axis=rows).reshape(affine_shape)]
        for got, want in zip([out, *grads], expected):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("wrt", [0, 1, 2], ids=["x", "gamma", "beta"])
    def test_one_vector_gradient_matches_finite_differences(self, wrt):
        # a 1-D input has no leading axes for dgamma and dbeta to sum over
        rng = np.random.default_rng(6)
        args = [t64(rng.standard_normal(5)) for _ in range(3)]
        w = t64(rng.standard_normal(5))

        def f(t):
            return sum_all(mul(layer_norm(*args[:wrt], t, *args[wrt + 1:]), w))

        assert finite_diff_check(f, args[wrt]) < 1e-6


def _gelu(x):
    """The GELU alone: ``feedforward`` through identity weights and zero biases,
    whose products and sums are exact."""
    d = x.shape[-1]
    eye, zeros = Tensor(np.eye(d), dtype=x.dtype), Tensor(np.zeros(d), dtype=x.dtype)
    return feedforward(x, [eye, zeros, eye, zeros])


class TestGelu:
    def test_zero(self):
        assert _gelu(t64([[0.0]])).data[0, 0] == 0.0

    def test_asymptote(self):
        assert abs(_gelu(t64([[10.0]])).data[0, 0] - 10.0) < 1e-6

    def test_at_one(self):
        # 1 * Phi(1), frozen from a 50-digit erf evaluation
        assert abs(_gelu(t64([[1.0]])).data[0, 0] - 0.8413447460685429) < 1e-12


def _unfused_feedforward(x, w1, b1, w2, b2, g):
    """The value and the five partials of ``gelu(x @ w1 + b1) @ w2 + b2`` for the
    gradient ``g``, as a tape of separate matmul, add and gelu ops computes them."""
    h = x @ w1 + b1
    cdf = 0.5 * (1.0 + erf(h * T._INV_SQRT2))
    a = h * cdf
    lead = tuple(range(g.ndim - 1))
    da = g @ w2.T
    dh = da * (cdf + h * (np.exp(-0.5 * h * h) * T._INV_SQRT_2PI))
    return (a @ w2 + b2, dh @ w1.T, x.reshape(-1, x.shape[-1]).T @ dh.reshape(-1, dh.shape[-1]),
            dh.sum(axis=lead), a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]),
            g.sum(axis=lead))


class TestFeedforward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
    def test_value_and_gradients_equal_the_unfused_chain_bitwise(self, dtype, lead):
        rng = np.random.default_rng(30)
        shapes = [(*lead, 5, 6), (6, 8), (8,), (8, 6), (6,)]
        inputs = [Tensor(rng.standard_normal(s), dtype=dtype) for s in shapes]
        out, grads, g = _value_and_grads(lambda x, *ws: feedforward(x, ws), inputs, 31)
        expected = _unfused_feedforward(*(t.data for t in inputs), g)
        for got, want in zip([out, *grads], expected):
            assert got.dtype == dtype and want.dtype == dtype
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slot", range(5), ids=["x", "w1", "b1", "w2", "b2"])
    def test_stacked_weights_gradient_matches_finite_differences(self, slot):
        # the end-to-end gradcheck's forwards pass (n, D, M) weights and (n, 1, M) biases
        rng = np.random.default_rng(32)
        args = [t64(rng.standard_normal(s)) for s in
                [(2, 3, 4), (2, 4, 5), (2, 1, 5), (2, 5, 4), (2, 1, 4)]]
        w = t64(rng.standard_normal((2, 3, 4)))

        def loss(t):
            a = args[:slot] + [t] + args[slot + 1:]
            return sum_all(mul(feedforward(a[0], a[1:]), w))

        assert finite_diff_check(loss, args[slot]) < 1e-5

    def test_one_tape_record_and_inputs_untouched(self):
        rng = np.random.default_rng(33)
        inputs = [t64(rng.standard_normal(s)) for s in [(4, 3), (3, 5), (5,), (5, 3), (3,)]]
        before = [t.data.copy() for t in inputs]
        inputs[0].requires_grad = True
        with Tape() as tape:
            out = feedforward(inputs[0], inputs[1:])
            assert len(tape) == 1
            tape.backward(sum_all(out))
        assert all(np.array_equal(t.data, b) for t, b in zip(inputs, before))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(t64(np.zeros(4)), 0)
        assert abs(float(loss.data) - 1.3862943611198906) < 1e-12

    def test_saturated_correct_class(self):
        loss = cross_entropy(t64([100.0, 0.0, 0.0]), 0)
        assert float(loss.data) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ConfigError):
            cross_entropy(t64([0.0, 0.0]), 2)
        with pytest.raises(ConfigError):
            cross_entropy(t64([0.0, 0.0]), -1)
        with pytest.raises(ConfigError):
            cross_entropy(t64(np.zeros((3, 2))), np.array([0, 2, 1]))

    def test_batched_losses_equal_per_row_losses(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((2, 3, 5))
        labels = rng.integers(0, 5, (2, 3))
        out = cross_entropy(t64(logits), labels).data
        assert out.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert out[i, j] == cross_entropy(t64(logits[i, j]), labels[i, j]).data

    @pytest.mark.parametrize("logits_shape, labels", [
        ((3, 5), [0, 1]),           # one label per row
        ((5,), [0]),                # a vector takes a scalar label
        ((3, 5), [0.0, 1.0, 2.0]),  # labels are integers
    ])
    def test_label_shape_and_type_checked(self, logits_shape, labels):
        with pytest.raises((ShapeError, ConfigError)):
            cross_entropy(t64(np.zeros(logits_shape)), np.array(labels))

    def test_gradient_matches_finite_differences(self):
        err = finite_diff_check(lambda x: cross_entropy(x, 1), t64([1.0, 2.0, 3.0]))
        assert err < 1e-5

    def test_backward_is_softmax_minus_onehot(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(cross_entropy(x, 1))
        probs = ref.softmax([1.0, 2.0, 3.0])
        expected = probs.copy()
        expected[1] -= 1.0
        assert np.allclose(x.grad, expected, atol=1e-12)


class TestBackward:
    def test_square(self):
        x = t64(np.full((), 3.0), requires_grad=True)
        with Tape() as tape:
            y = mul(reshape(x, (1,)), reshape(x, (1,)))
            tape.backward(sum_all(y))
        assert np.allclose(x.grad, 6.0)

    def test_fanout_accumulates(self):
        x = t64([2.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(add(x, x)))
        assert np.allclose(x.grad, 2.0)

    def test_shared_partials_do_not_alias_buffers(self):
        # add hands both inputs its incoming gradient; the buffers made from it
        # must stay separate when one of them later receives more
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            s = add(a, b)
            tape.backward(sum_all(mul(add(s, a), t64([1.0, 10.0]))))
        assert np.array_equal(a.grad, [2.0, 20.0])
        assert np.array_equal(b.grad, [1.0, 10.0])
        assert s.grad is None  # an intermediate's gradient is freed once its rule has run

    @pytest.mark.parametrize("a_shape", [(2, 3), ()])
    def test_0d_addend_gradient_is_a_0d_array(self, a_shape):
        a = t64(np.ones(a_shape), requires_grad=True)
        b = t64(np.full((), 2.0), requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(add(a, b)))
        assert type(b.grad) is np.ndarray and b.grad.shape == ()
        assert b.grad == np.ones(a_shape).size

    def test_unreached_leaf_keeps_its_grad(self):
        x = t64([1.0], requires_grad=True)
        y = t64([1.0], requires_grad=True)
        with Tape() as tape:
            sum_all(mul(y, y))  # on tape, but not reachable from the loss
            loss = sum_all(mul(x, x))
            tape.backward(loss)
        assert y.grad is None
        # a gradient from an earlier backward stays, bit for bit
        with Tape() as tape:
            tape.backward(sum_all(mul(y, t64([0.1]))))
        held = y.grad.copy()
        with Tape() as tape:
            sum_all(mul(y, y))
            tape.backward(sum_all(mul(x, x)))
        assert np.array_equal(y.grad, held) and y.grad.dtype == held.dtype
        assert np.array_equal(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(TapeError):
                tape.backward(y)

    def test_reused_tape_rejected(self):
        x = t64([1.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
            tape.backward(loss)
            with pytest.raises(TapeError):
                tape.backward(loss)

    def test_loss_without_tape_rejected(self):
        loss = sum_all(t64([1.0]))
        with pytest.raises(TapeError):
            Tape().backward(loss)

    def test_backward_frees_records_and_keeps_leaf_gradients(self):
        x = t64([0.5, -1.0, 2.0], requires_grad=True)
        unreached = t64([3.0], requires_grad=True)
        with Tape() as tape:
            s = mul(x, x)
            normed = layer_norm(s, t64([1.0, 2.0, 3.0]), t64([0.5, 0.0, -0.5]))
            # layer_norm's rule holds xhat; the next mul's rule holds the output
            xhat = inspect.getclosurevars(tape._records[-1][2]).nonlocals["xhat"]
            buffers = [weakref.ref(xhat), weakref.ref(normed.data)]
            loss = sum_all(mul(normed, t64([1.0, 2.0, 3.0])))
            del normed, xhat
            sum_all(unreached)  # recorded, but the loss does not read it
            tape.backward(loss)
        assert [buffer() for buffer in buffers] == [None, None]
        assert tape._records == []
        assert len(tape) == 5
        assert np.array_equal(x.data, [0.5, -1.0, 2.0]) and x.grad.shape == (3,)
        assert s.grad is None and loss.grad is None
        assert unreached.grad is None

    def test_grads_accumulate_until_zeroed(self):
        x = t64([1.0], requires_grad=True)
        for expected in (2.0, 4.0):
            with Tape() as tape:
                tape.backward(sum_all(mul(x, x)))
            assert np.allclose(x.grad, expected)
        x.zero_grad()
        assert x.grad is None


class TestFiniteDiffCheck:
    def test_linear_is_exact(self):
        w = t64([1.5, -2.0, 0.5])
        err = finite_diff_check(lambda x: sum_all(mul(x, w)), t64([1.0, 2.0, 3.0]))
        assert err < 1e-9

    def test_sum_of_squares(self):
        err = finite_diff_check(lambda x: sum_all(mul(x, x)), t64([1.0, 2.0, 3.0]),
                                h=1e-5)
        assert err < 1e-8

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(5)
        err = finite_diff_check(lambda x: cross_entropy(x, 4),
                                t64(rng.standard_normal(10)))
        assert err < 1e-6

    def test_nondeterministic_function_detected(self):
        state = {"n": 0}

        def flaky(x):
            state["n"] += 1
            return sum_all(mul(x, x)) if state["n"] % 2 else sum_all(x)

        with pytest.raises(OracleError):
            finite_diff_check(flaky, t64([1.0, 2.0]))


def _probe_ops(rng):
    """(name, scalar fn, input) probes reused by the 100-seed property test."""
    def rt(*shape):
        return t64(rng.standard_normal(shape))

    rows = int(rng.integers(1, 17))
    cols = int(rng.integers(1, 17))
    inner = int(rng.integers(1, 17))
    # width-2 layer norm saturates (output ~ +-1, gradient ~ eps/s^2), which
    # central differences cannot resolve against the probe's O(1) offset;
    # keep its width >= 3 so the finite-difference oracle stays informative
    ln_cols = max(cols, 3)
    a = rt(rows, inner)
    b = rt(inner, cols)
    w_mm = rt(rows, cols)
    w = rt(rows, cols)
    w_ln = rt(rows, ln_cols)
    x2d = rt(rows, cols)
    g = rt(ln_cols)
    bvec = rt(ln_cols)
    label = int(rng.integers(0, cols))
    probes = [
        ("matmul", lambda t: sum_all(mul(matmul(t, b), w_mm)), a),
        ("add.bias", lambda t: sum_all(mul(add(x2d, t), w)), rt(cols)),
        ("mul", lambda t: sum_all(mul(mul(t, x2d), w)), rt(rows, cols)),
        ("layer_norm", lambda t: sum_all(mul(layer_norm(t, g, bvec), w_ln)),
         rt(rows, ln_cols)),
        ("cross_entropy", lambda t: cross_entropy(t, label), rt(cols)),
    ]
    # the stacked forms draw last, so every 2-D probe keeps its inputs
    batch = int(rng.integers(1, 5))
    b3 = rt(batch, inner, cols)
    w3 = rt(batch, rows, cols)
    probes += [
        ("matmul.batched", lambda t: sum_all(mul(matmul(t, b3), w3)),
         rt(batch, rows, inner)),
    ]
    # the batch-axis forms draw after those, for the same reason
    a3 = rt(batch, rows, inner)
    x3 = rt(batch, rows, cols)
    w_cat = rt(batch, 2 * rows, cols)
    picks = rng.integers(0, rows, (batch, inner))
    w_g = rt(batch, inner, cols)
    labels = rng.integers(0, cols, (batch, rows))
    probes += [
        ("matmul.shared.a", lambda t: sum_all(mul(matmul(t, b), w3)),
         rt(batch, rows, inner)),
        ("matmul.shared.b", lambda t: sum_all(mul(matmul(a3, t), w3)), rt(inner, cols)),
        ("add.suffix", lambda t: sum_all(mul(add(x3, t), w3)), rt(rows, cols)),
        ("concat_rows.stack", lambda t: sum_all(mul(concat_rows([t, x3]), w_cat)),
         rt(batch, rows, cols)),
        ("gather_rows.stack", lambda t: sum_all(mul(gather_rows(t, picks), w_g)),
         rt(batch, rows, cols)),
        ("cross_entropy.batched", lambda t: sum_all(cross_entropy(t, labels)),
         rt(batch, rows, cols)),
    ]
    # the broadcast-row forms, one (1, D) row per slice, draw after all of those
    x_ln3 = rt(batch, rows, ln_cols)
    w_ln3 = rt(batch, rows, ln_cols)
    probes += [
        ("add.rows", lambda t: sum_all(mul(add(x3, t), w3)), rt(batch, 1, cols)),
        ("layer_norm.gamma.rows", lambda t: sum_all(mul(layer_norm(x_ln3, t, bvec), w_ln3)),
         rt(batch, 1, ln_cols)),
        ("layer_norm.beta.rows", lambda t: sum_all(mul(layer_norm(x_ln3, g, t), w_ln3)),
         rt(batch, 1, ln_cols)),
    ]
    # feedforward draws last of all, with a hidden width of its own
    hid = int(rng.integers(1, 17))
    ff = [rt(cols, hid), rt(hid), rt(hid, cols), rt(cols)]
    x_ff = rt(rows, cols)
    return probes + [
        ("feedforward.x", lambda t: sum_all(mul(feedforward(t, ff), w)), rt(rows, cols)),
        ("feedforward.b1", lambda t: sum_all(mul(feedforward(x_ff, [ff[0], t, *ff[2:]]), w)),
         rt(hid)),
    ]


def test_every_op_gradient_property_100_seeds():
    # randomized shapes up to 16x16; rel err < 1e-5 at 64-bit per op.
    # h=3e-5 sits near the central-difference optimum for unit-scale inputs,
    # balancing truncation (h^2) against subtraction noise (eps*|f|/2h) so
    # even small gradient coordinates stay resolvable.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, fn, x in _probe_ops(rng):
            err = finite_diff_check(fn, x, h=3e-5)
            assert err < 1e-5, f"{name} failed at seed {seed}: {err}"


def test_forward_and_gradient_determinism():
    # identical inputs => bit-identical values and gradients
    def run():
        rng = np.random.default_rng(123)
        x = t64(rng.standard_normal((4, 4)), requires_grad=True)
        w = t64(rng.standard_normal((4, 4)))
        gamma, beta = t64(rng.standard_normal(4)), t64(rng.standard_normal(4))
        with Tape() as tape:
            loss = sum_all(mul(layer_norm(matmul(x, w), gamma, beta), w))
            tape.backward(loss)
        return float(loss.data), x.grad.copy()

    loss1, grad1 = run()
    loss2, grad2 = run()
    assert loss1 == loss2
    assert np.array_equal(grad1, grad2)


def _vector_valued(x):
    return mul(x, x)


@pytest.mark.parametrize("call, error, message", [
    (lambda: add(t64(np.zeros((2, 3))), t64(np.zeros(2))), ShapeError,
     "add shape mismatch: (2, 3) + (2,)"),
    (lambda: mul(t64(np.zeros(2)), t64(np.zeros(3))), ShapeError,
     "mul shape mismatch: (2,) * (3,)"),
    (lambda: reshape(t64(np.zeros(6)), (4, 2)), ShapeError, "cannot reshape (6,) to (4, 2)"),
    (lambda: concat_rows([]), ShapeError, "concat_rows of zero tensors"),
    (lambda: concat_rows([t64(np.zeros((2, 3))), t64(np.zeros((2, 4)))]), ShapeError,
     "concat_rows shape mismatch: [(2, 3), (2, 4)]"),
    (lambda: gather_rows(t64(np.zeros((2, 3, 4))), [0, 1]), ShapeError,
     "gather_rows of indices shaped (2,) from shape (2, 3, 4)"),
    (lambda: gather_rows(t64(np.zeros((3, 4))), [0, 3]), ShapeError,
     "row indices [0, 3] out of range for (3, 4)"),
    (lambda: add(t64(np.zeros((2, 1, 4))), t64(np.zeros((2, 3, 4)))), ShapeError,
     "add shape mismatch: (2, 1, 4) + (2, 3, 4)"),
    (lambda: layer_norm(t64(np.zeros((2, 4))), t64(np.ones(4)), t64(np.zeros(3))), ShapeError,
     "layer_norm affine shapes (4,)/(3,) do not match D=4"),
    (lambda: layer_norm(t64(np.zeros((6, 4))), t64(np.ones((2, 1, 4))), t64(np.zeros(4))),
     ShapeError, "layer_norm affine shapes (2, 1, 4)/(4,) do not match D=4"),
    (lambda: layer_norm(t64(np.zeros((2, 4))), Tensor(np.ones(4)), t64(np.zeros(4))),
     ShapeError, "layer_norm takes one dtype, got ['float64', 'float32', 'float64']"),
    (lambda: attention(t64(np.zeros((3, 4))), [t64(np.zeros((4, 4)))] * 3
                       + [t64(np.zeros((4, 5)))], 2), ShapeError,
     "attention of (3, 4) with weights [(4, 4), (4, 4), (4, 4), (4, 5)]"),
    (lambda: attention(t64(np.zeros((3, 4))), [t64(np.zeros((4, 4)))] * 4, 2, queries=4),
     ShapeError, "attention of 4 query rows from 3 rows"),
    (lambda: feedforward(t64(np.zeros((3, 4))), [t64(np.zeros((4, 5)))] * 3), ShapeError,
     "feedforward takes 4 weights, got 3"),
    (lambda: feedforward(t64(np.zeros((3, 4))), [t64(np.zeros((4, 5))), t64(np.zeros(5)),
                                                 t64(np.zeros((4, 4))), t64(np.zeros(4))]),
     ShapeError, "matmul shape mismatch: (3, 5) x (4, 4)"),
    (lambda: feedforward(t64(np.zeros((3, 4))), [t64(np.zeros((4, 5))), t64(np.zeros(4)),
                                                 t64(np.zeros((5, 4))), t64(np.zeros(4))]),
     ShapeError, "add shape mismatch: (3, 5) + (4,)"),
    (lambda: feedforward(Tensor(np.zeros((3, 4))), [t64(np.zeros((4, 5))), t64(np.zeros(5)),
                                                    t64(np.zeros((5, 4))), t64(np.zeros(4))]),
     ShapeError, "feedforward takes one dtype, got "
     "['float32', 'float64', 'float64', 'float64', 'float64']"),
    (lambda: finite_diff_check(sum_all, t64([1.0]), h=0.0), ConfigError,
     "finite difference step must be positive, got 0.0"),
    (lambda: finite_diff_check(_vector_valued, t64([1.0, 2.0])), ShapeError,
     "finite_diff_check needs a scalar function, got (2,)"),
    # an f64 value past the float32 range casts to inf without a numpy warning
    (lambda: Tensor(np.array([1e300])), NumericError, "tensor holds non-finite values"),
    (lambda: FuseVitModel.build(ModelConfig()).forward(np.full((32, 32, 1), 1e300)),
     NumericError, "tensor holds non-finite values"),
], ids=["add", "add-grows-a", "mul", "reshape", "concat-empty", "concat-mismatch",
        "gather-index-shape", "gather-range", "layer-norm-affine", "layer-norm-affine-grows",
        "layer-norm-dtypes", "attention-weights", "attention-queries", "feedforward-weights",
        "feedforward-w2", "feedforward-b1", "feedforward-dtypes", "fd-step",
        "fd-non-scalar", "f64-overflows-f32", "forward-f64-overflows-f32"])
def test_bad_input_raises_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_integer_data_is_stored_as_f32():
    t = Tensor(np.arange(3), dtype=np.int64)
    assert t.dtype == np.float32 and t.data.tolist() == [0.0, 1.0, 2.0]


def test_repr_names_shape_dtype_and_grad_flag():
    assert repr(t64(np.zeros((2, 3)))) == "Tensor(shape=(2, 3), dtype=float64)"
    assert repr(Tensor([1.0], requires_grad=True)) == \
        "Tensor(shape=(1,), dtype=float32, requires_grad=True)"


def test_tape_length_counts_recorded_ops():
    x = t64([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        sum_all(mul(x, x))
        sum_all(t64([3.0]))  # no input needs a gradient: not recorded
    assert len(tape) == 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", [_gelu, sum_all, lambda x: cross_entropy(x, np.array([2, 0]))],
                         ids=["gelu", "sum_all", "cross_entropy"])
def test_value_and_gradient_keep_the_input_dtype(op, dtype):
    x = Tensor(np.random.default_rng(3).standard_normal((2, 5)), requires_grad=True,
               dtype=dtype)
    with Tape() as tape:
        out = op(x)
        tape.backward(sum_all(out))
    assert out.dtype == dtype
    assert x.grad.dtype == dtype
