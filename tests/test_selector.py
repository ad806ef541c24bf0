"""Token ranking: worked matrices, divergence case, and invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import DIVERGENCE, GAMMA, random_trace, softmax
from fusevit.errors import ConfigError, ShapeError
from fusevit.selector import (
    REGISTRY,
    SelectionResult,
    _softmax,
    first_k,
    maws,
    saws,
    select_per_layer,
    selection_trace_lines,
)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(_softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_known_values(self):
        # frozen from direct exp/sum at 64-bit
        out = _softmax(np.array([1.0, 2.0, 3.0, 4.0]))
        expected = [0.03205860328008499, 0.08714431874203257,
                    0.23688281808991013, 0.6439142598879724]
        assert np.allclose(out, expected, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(6)
        assert np.allclose(_softmax(v), _softmax(v + 123.456), atol=1e-6)

    def test_outputs_positive_and_normalized(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.standard_normal(rng.integers(1, 12))
            out = _softmax(v)
            assert (out > 0).all()
            assert abs(out.sum() - 1.0) < 1e-6
            assert np.argmax(out) == np.argmax(v)

    def test_large_inputs_stay_stable(self):
        assert np.isfinite(_softmax(np.array([1000.0, 1000.0, 999.0]))).all()

    def test_stack_rows_and_columns_equal_each_matrix(self):
        # the selectors softmax strided views of a (B, S, S) stack: row 0 and column 0
        a = np.random.default_rng(3).standard_normal((4, 9, 9)) * 3
        row, col = _softmax(a[..., 0, :]), _softmax(a[..., :, 0])
        for i in range(4):
            assert np.array_equal(row[i], _softmax(a[i, 0, :]))
            assert np.array_equal(col[i], _softmax(a[i, :, 0]))


class TestSaws:
    def test_gamma_k1_picks_token_three(self):
        assert saws(GAMMA, 1).indices == [3]

    def test_gamma_k3_full_ordering(self):
        assert saws(GAMMA, 3).indices.tolist() == [3, 2, 1]

    def test_uniform_row_breaks_ties_by_lowest_index(self):
        a = np.zeros((6, 6))
        assert saws(a, 3).indices.tolist() == [1, 2, 3]

    def test_weights_are_softmaxed_row_entries(self):
        sel = saws(GAMMA, 2)
        probs = softmax(GAMMA[0])
        assert np.allclose(sel.weights, [probs[3], probs[2]], atol=1e-12)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            saws(GAMMA, 4)
        with pytest.raises(ConfigError):
            saws(GAMMA, 0)


class TestMaws:
    def test_gamma_k1_weight_matches_hand_computation(self):
        sel = maws(GAMMA, 1)
        assert sel.indices == [3]
        # row softmax 0.6439... times uniform column softmax 0.25
        assert abs(sel.weights[0] - 0.1609785649719931) < 1e-7

    def test_gamma_all_weights_match_oracle(self):
        sel = maws(GAMMA, 3)
        row = softmax(GAMMA[0])
        col = softmax(GAMMA[:, 0])
        for idx, w in zip(sel.indices, sel.weights):
            assert abs(w - row[idx] * col[idx]) < 1e-7

    def test_divergence_matrix_splits_the_selectors(self):
        assert saws(DIVERGENCE, 1).indices == [3]
        assert maws(DIVERGENCE, 1).indices == [1]

    def test_divergence_matches_brute_force(self):
        row = softmax(DIVERGENCE[0])
        col = softmax(DIVERGENCE[:, 0])
        mutual = row * col
        best = int(np.argmax(mutual[1:])) + 1
        assert maws(DIVERGENCE, 1).indices == [best] == [1]

    def test_uniform_row_and_column_tie_break(self):
        a = np.zeros((6, 6))
        assert maws(a, 4).indices.tolist() == [1, 2, 3, 4]

    def test_weights_strictly_positive_and_non_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            a = rng.standard_normal((n + 1, n + 1))
            k = int(rng.integers(1, n + 1))
            for sel in (saws(a, k), maws(a, k)):
                assert len(sel.indices) == k
                assert len(set(sel.indices)) == k
                assert 0 not in sel.indices
                assert all(w > 0 for w in sel.weights)
                assert all(a >= b for a, b in zip(sel.weights, sel.weights[1:]))


class TestSelectPerLayer:
    def test_eleven_results_of_twelve_for_l12_k12(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, layers=11, n=16)  # layers 1..L-1 for L=12
        results = select_per_layer(trace, 12, "maws")
        assert len(results) == 11
        assert all(len(r.indices) == 12 for r in results)

    def test_two_layer_model_yields_one_result(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, 1, 8)
        results = select_per_layer(trace, 3, "saws")
        assert len(results) == 1
        assert np.array_equal(results[0].indices, saws(trace.attention[0].scores, 3).indices)

    def test_matches_direct_per_layer_calls(self):
        rng = np.random.default_rng(4)
        trace = random_trace(rng, layers=3, n=6)
        results = select_per_layer(trace, 2, "maws")
        for record, got in zip(trace.attention, results):
            direct = maws(record.scores, 2)
            assert got.indices.tolist() == direct.indices.tolist()
            assert got.weights.tolist() == direct.weights.tolist()

    def test_none_kind_returns_leading_indices(self):
        rng = np.random.default_rng(5)
        results = select_per_layer(random_trace(rng, 2, 8), 3, "none")
        assert all(r.indices.tolist() == [1, 2, 3] for r in results)
        assert all(r.weights.tolist() == [1.0, 1.0, 1.0] for r in results)

    @pytest.mark.parametrize("kind", sorted(REGISTRY))
    def test_item_i_is_the_selector_on_layer_i_scores(self, kind):
        # a selection's layer is its place in the list
        trace = random_trace(np.random.default_rng(7), layers=4, n=6)
        results = select_per_layer(trace, 3, kind)
        assert len(results) == len(trace.attention)
        for i, got in enumerate(results):
            direct = REGISTRY[kind](trace.attention[i].scores, 3)
            assert np.array_equal(got.indices, direct.indices)
            assert np.array_equal(got.weights, direct.weights)


@pytest.mark.parametrize("call, error, message", [
    (lambda: saws(np.zeros((3, 4)), 1), ShapeError,
     "attention scores must be square, got shape (3, 4)"),
    (lambda: first_k(np.zeros(4), 1), ShapeError,
     "attention scores must be square, got shape (4,)"),
    (lambda: select_per_layer(random_trace(np.random.default_rng(0), 1, 3), 1, "top"),
     ConfigError, "selector kind must be one of ('none', 'saws', 'maws'), got 'top'"),
    # str(None) is "none", which would run first_k
    (lambda: select_per_layer(random_trace(np.random.default_rng(0), 1, 3), 1, None),
     ConfigError, "selector kind must be one of ('none', 'saws', 'maws'), got None"),
    (lambda: select_per_layer(random_trace(np.random.default_rng(0), 1, 3), 1, "MAWS"),
     ConfigError, "selector kind must be one of ('none', 'saws', 'maws'), got 'MAWS'"),
], ids=["non-square", "vector", "unknown-kind", "kind-None", "kind-case"])
def test_bad_input_raises_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# ---- invariants --------------------------------------------------------------


def apply_token_permutation(a, perm):
    """Permute non-class rows and columns simultaneously; row/col 0 fixed."""
    n = a.shape[0] - 1
    mapping = np.concatenate(([0], np.asarray(perm)))
    return a[np.ix_(mapping, mapping)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 9))
def test_permutation_equivariance(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n + 1, n + 1))
    k = int(rng.integers(1, n + 1))
    perm = rng.permutation(np.arange(1, n + 1))
    permuted = apply_token_permutation(a, perm)
    # token i of the original sits at position j with perm[j-1] == i
    position_of = {int(tok): j + 1 for j, tok in enumerate(perm)}
    for select in (saws, maws):
        base = set(select(a, k).indices)
        moved = set(select(permuted, k).indices)
        assert moved == {position_of[i] for i in base}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(-50, 50, allow_nan=False),
       st.floats(-50, 50, allow_nan=False))
def test_ranking_shift_invariance(seed, row_shift, col_shift):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    a = rng.standard_normal((n + 1, n + 1))
    k = int(rng.integers(1, n + 1))
    shifted = a.copy()
    shifted[0, :] += row_shift
    shifted[:, 0] += col_shift
    shifted[0, 0] = a[0, 0] + row_shift + col_shift
    assert saws(a, k).indices.tolist() == saws(shifted, k).indices.tolist()
    assert maws(a, k).indices.tolist() == maws(shifted, k).indices.tolist()


def test_maws_weights_factorize():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n + 1, n + 1)) * 3
        sel = maws(a, n)
        row = softmax(a[0])
        col = softmax(a[:, 0])
        for idx, w in zip(sel.indices, sel.weights):
            assert abs(w - row[idx] * col[idx]) < 1e-7


def test_trace_export_format():
    selections = [SelectionResult(np.array([3, 1]), np.array([0.5, 0.25])),
                  SelectionResult(np.array([2, 4]), np.array([0.4, 0.1]))]
    lines = selection_trace_lines(selections, "maws")
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"layer": 1, "kind": "MAWS", "indices": [3, 1],
                     "weights": [0.5, 0.25]}


@pytest.mark.parametrize("kind", sorted(REGISTRY))
def test_stack_of_score_matrices_equals_each_matrix(kind):
    rng = np.random.default_rng(9)
    scores = rng.standard_normal((3, 2, 7, 7))
    scores[0, 1, 0, 1:4] = scores[0, 1, 0, 5]    # ties in the class-token row
    scores[2, 0] = 0.0                           # all tied
    got = REGISTRY[kind](scores, 3)
    assert got.indices.shape == got.weights.shape == (3, 2, 3)
    for i in range(3):
        for j in range(2):
            one = REGISTRY[kind](scores[i, j], 3)
            assert got.indices[i, j].tolist() == one.indices.tolist()
            assert got.weights[i, j].tolist() == one.weights.tolist()
            assert one.indices.dtype == np.intp
