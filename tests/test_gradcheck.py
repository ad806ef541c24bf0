"""The central-difference loop and the stacked gradchecks, per op and end to end.

No float is pinned here: the BLAS kernel decides the last bits, so each
probe's stacked call and each stacked forward are compared against one-copy
evaluations on whatever kernel runs the tests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import erf

from _reference import t64
from fusevit import encoder
from fusevit import gradcheck
from fusevit import tensor as T
from fusevit.errors import OracleError
from fusevit.gradcheck import (
    END_TO_END_H,
    FD_CHUNK,
    OP_TOL,
    CheckResult,
    _central_difference,
    end_to_end_check,
    finite_diff_check,
    format_report,
    op_checks,
    toy_config,
)
from fusevit.model import FuseVitModel
from fusevit.tensor import Tensor, _finish


def nan_gradient(where):
    """``sum_all(2x)``, whose backward writes NaN at ``where`` of the gradient."""
    def f(x):
        def rule(g):
            grad = 2.0 * g
            grad[where] = np.nan
            return (grad,)
        return T.sum_all(_finish(Tensor._wrap(2.0 * x.data), (x,), rule))
    return f


class TestCentralDifference:
    @pytest.mark.parametrize("where", [..., 1], ids=["every", "one"])
    def test_nan_gradient_fails_the_check(self, where):
        err = finite_diff_check(nan_gradient(where), t64([1.0, -2.0, 0.5]))
        assert math.isnan(err)
        result = CheckResult("nan", err, 1e-5)
        assert not result.passed
        assert "max_rel_err=nan" in format_report([result])

    def test_chunks_of_copies_leave_base_unchanged(self):
        base = np.arange(2 * FD_CHUNK + 2, dtype=np.float64).reshape(2, -1)
        before = base.copy()
        h = 0.25
        seen = []

        def values(copies):
            seen.append(copies.shape)
            start = sum(shape[0] for shape in seen[:-1]) // 2
            moved = copies.reshape(len(copies), -1) - base.ravel()
            for j in range(len(copies) // 2):
                step = np.zeros(base.size)
                step[start + j] = h
                assert np.array_equal(moved[2 * j], step)
                assert np.array_equal(moved[2 * j + 1], -step)
            return copies.reshape(len(copies), -1).sum(axis=1)

        err = _central_difference(values, base, np.ones(base.size), h)
        assert err == 0.0
        assert seen == [(2 * FD_CHUNK, *base.shape)] * 2 + [(4, *base.shape)]
        assert np.array_equal(base, before)

    @pytest.mark.parametrize("analytic, numeric, verdict", [
        # 1e-9 of the largest coordinate is below what central differences resolve
        ([1.0, 1e-9], [1.0, 2e-9], "pass"),
        # the scale is the whole input's, so a small coordinate in a later chunk is judged alike
        ([1.0] + [1e-9] * FD_CHUNK, [1.0] + [2e-9] * FD_CHUNK, "pass"),
        ([1.0, -0.5], [1.0, 0.5], "fail"),
        ([0.0, 0.0], [1e-3, 0.0], "fail"),
        ([1.0, 1.0], [1.0, np.nan], "nan"),
    ], ids=["tiny-coordinate-off", "tiny-coordinate-later-chunk", "sign-flipped",
            "zero-gradient", "nan-numeric"])
    def test_error_is_relative_to_the_gradient_scale(self, analytic, numeric, verdict):
        h = 0.25  # a power of two: each pair's central difference is exactly its numeric value
        numeric = np.asarray(numeric)

        def values(copies):
            start = copies.reshape(len(copies), -1)[0].argmax()  # the +h copy of the chunk's first
            n = numeric[start:start + len(copies) // 2]
            return np.stack([n * h, -n * h], axis=1).ravel()

        err = _central_difference(values, np.zeros(numeric.size), np.asarray(analytic), h)
        assert {"pass": err < OP_TOL, "fail": err > 0.5,
                "nan": math.isnan(err)}[verdict], err

    def test_base_point_evaluated_once_untaped_and_once_taped(self):
        calls = []

        def counted(x):
            calls.append(x)
            return T.sum_all(T.mul(x, x))

        finite_diff_check(counted, t64([1.0, -2.0, 0.5]))
        assert len(calls) == 2 + 2 * 3  # the base point twice, then each coordinate ±h

    def test_zero_d_input(self):
        err = finite_diff_check(lambda x: T.mul(x, x), t64(3.0))
        assert err < 1e-8

    @pytest.mark.parametrize("values, count", [
        (lambda copies: T.sum_all(Tensor._wrap(copies)).data, 1),  # sums across the copies
        (lambda copies: copies.reshape(len(copies), -1), 18),  # one value per coordinate
    ], ids=["reduced", "per-coordinate"])
    def test_evaluator_count_is_checked(self, values, count):
        base = np.arange(3, dtype=np.float64)
        with pytest.raises(OracleError, match=f"^evaluator returned {count} values for 6 copies$"):
            _central_difference(values, base, np.ones(3), 0.25)
        with pytest.raises(OracleError, match="for 6 copies"):
            finite_diff_check(T.sum_all, t64(base), values=values)


def plus_minus_copies(base, h=END_TO_END_H):
    """Copy 2j of ``base`` moved by +h at coordinate j, copy 2j+1 by -h."""
    copies = np.repeat(base[None], 2 * base.size, axis=0)
    moved = copies.reshape(len(copies), -1)
    coords = np.arange(base.size)
    moved[2 * coords, coords] += h
    moved[2 * coords + 1, coords] -= h
    return copies


@pytest.mark.parametrize("seed", [0, 7])
def test_stacked_probe_values_equal_one_copy_values(monkeypatch, seed):
    # every probe's evaluator, as the loop gets it, for the first 1 and all
    # coordinates, against the probe's single form run on one copy at a time:
    # float(sum_all(mul(op(x_i), w)))
    single_forms, compared = [], []
    real_check, real_loop = gradcheck.finite_diff_check, gradcheck._central_difference

    def check_spy(f, x, h=1e-5, values=None):
        single_forms.append(f)
        return real_check(f, x, h, values)

    def loop_spy(values, base, analytic, h):
        f = single_forms[-1]
        for m in (1, base.size):
            copies = plus_minus_copies(base, h)[:2 * m]
            one_at_a_time = [float(f(Tensor._wrap(c)).data) for c in copies]
            compared.append(np.array_equal(np.asarray(values(copies)), one_at_a_time))
        return real_loop(values, base, analytic, h)

    monkeypatch.setattr(gradcheck, "finite_diff_check", check_spy)
    monkeypatch.setattr(gradcheck, "_central_difference", loop_spy)
    names = [r.name for r in op_checks(seed)]
    assert len(single_forms) == len(names) == 36
    assert compared == [True] * 2 * len(names), [
        name for name, ok in zip(names, zip(compared[::2], compared[1::2])) if not all(ok)]


@pytest.mark.parametrize("seed", [0, 7])
def test_stacked_losses_equal_one_image_losses(monkeypatch, seed):
    # the losses of end_to_end_check's evaluator for the first 1, FD_CHUNK and
    # all coordinates of every parameter, vectors included, taken while the
    # check walks the parameters
    stacked = []
    real = gradcheck._central_difference

    def spy(values, base, analytic, h):
        copies = plus_minus_copies(base)
        stacked.append({m: np.asarray(values(copies[:2 * m]))
                        for m in {1, FD_CHUNK, base.size}})
        return real(values, base, analytic, h)

    monkeypatch.setattr(gradcheck, "_central_difference", spy)
    end_to_end_check(seed)

    # the same model and image, run one copy at a time
    model = FuseVitModel.build(toy_config(), dtype=np.float64)
    image = Tensor(np.random.default_rng(seed).uniform(0.0, 1.0, size=(16, 16, 1)),
                   dtype=np.float64)
    frozen = model.forward(image).selections
    coordinates = 0
    for chunks, (name, param) in zip(stacked, model.named_parameters(), strict=True):
        coordinates += param.data.size
        base = param.data
        one_at_a_time = []
        for copy in plus_minus_copies(base):
            param.data = copy
            logits = model.forward(image, frozen_selections=frozen).logits
            one_at_a_time.append(T.cross_entropy(logits, 1).data)
        param.data = base
        expected = np.array(one_at_a_time)
        for m, losses in chunks.items():
            assert losses.tobytes() == expected[:2 * m].tobytes(), (name, m)
    assert coordinates == 1739


def test_late_parameters_rerun_only_the_final_layer(monkeypatch):
    # the fused tokens do not depend on layer L or the head, so each chunk of their
    # copies is one direct _final call over the taped forward's fused tokens; the
    # other parameters' 24 chunks and the taped forward (which runs the selector)
    # run forward, which calls _final once itself
    calls = {"forward": 0, "_final": 0}

    def counted(name):
        real = getattr(FuseVitModel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(FuseVitModel, name, wrapper)

    counted("forward")
    counted("_final")
    end_to_end_check(0)
    assert calls == {"forward": 25, "_final": 25 + 18}


def test_end_to_end_passes_on_many_seeds():
    failed = [(seed, r.name, r.max_rel_err) for seed in range(50)
              for r in end_to_end_check(seed) if not r.passed]
    assert failed == []


def test_sign_flipped_gelu_backward_detected(monkeypatch):
    # feedforward with the GELU's slope negated in its rule: the partials of x, w1 and
    # b1 flip sign, w2's and b2's stay right. Stacked weights reach only the forward
    def flipped_feedforward(x, weights):
        w1, b1, w2, b2 = (w.data for w in weights)
        h = x.data @ w1 + b1
        cdf = 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
        a = h * cdf

        def rule(g):
            dh = -(g @ w2.T) * (cdf + h * np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi))
            return dh @ w1.T, x.data.T @ dh, dh.sum(axis=0), a.T @ g, g.sum(axis=0)

        return _finish(Tensor._wrap(a @ w2 + b2), (x, *weights), rule)

    monkeypatch.setattr(encoder, "feedforward", flipped_feedforward)
    failed = {r.name for r in end_to_end_check() if not r.passed}
    # a matrix (mlp.w1) and a vector (mlp.b1) behind the flipped slope both fail, in
    # layer 1, whose copies run the whole forward, and in layer 2, whose copies run
    # only _final; the parameters after the slope pass
    assert {"end_to_end.layer.1.mlp.w1", "end_to_end.layer.1.mlp.b1",
            "end_to_end.layer.2.mlp.w1", "end_to_end.layer.2.mlp.b1"} <= failed
    assert not {"end_to_end.layer.2.mlp.w2", "end_to_end.layer.2.mlp.b2",
                "end_to_end.head.0.w", "end_to_end.head.0.b"} & failed


def test_negated_layer_norm_gamma_partial_detected(monkeypatch):
    # layer_norm's own value, with gamma's partial negated on the tape: both
    # gamma probes, a vector and a stack of rows whose copies meet a lifted
    # a6x4 or a2x6x4, must fail; the x and beta probes must not
    real = T.layer_norm

    def negated_gamma(v, gamma, beta):
        flipped = _finish(Tensor._wrap(gamma.data), (gamma,), lambda g: (-g,))
        return real(v, flipped, beta)

    monkeypatch.setattr(T, "layer_norm", negated_gamma)
    passed = {r.name: r.passed for r in op_checks() if r.name.startswith("layer_norm")}
    assert passed == {"layer_norm.x": True, "layer_norm.gamma": False, "layer_norm.beta": True,
                      "layer_norm.gamma.rows": False, "layer_norm.beta.rows": True}
