"""Patch embedding and encoder blocks against brute-force oracles."""

import numpy as np
import pytest

from _reference import encoder_block, layer_norm, softmax, t64
from fusevit.encoder import (
    ModelConfig,
    _block,
    forward_collect,
    msa,
    encoder_layer,
    embed,
    patchify,
)
from fusevit.errors import ConfigError, NumericError, ShapeError
from fusevit.model import FuseVitModel


def make_layer(rng, d, mlp_dim):
    cfg = ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                      embed_dim=d, layers=2, heads=1, mlp_dim=mlp_dim, k=1,
                      selector="maws", num_classes=2, seed=int(rng.integers(1 << 30)))
    return FuseVitModel.build(cfg, np.float64).layers[0]


def overflowing_layer():
    """A width-8 layer whose attention output overflows: every merged value is
    1 and every ``wo`` entry 1e308."""
    layer = make_layer(np.random.default_rng(11), 8, 16)
    layer["ln1.gamma"].data[:] = 0.0
    layer["ln1.beta"].data[:] = 1.0
    layer["wv"].data[...] = np.eye(8)
    layer["wo"].data[...] = 1e308
    return layer


@pytest.mark.parametrize("call, error, message", [
    (lambda: ModelConfig(seed=-1), ConfigError, "seed must be non-negative, got -1"),
    (lambda: ModelConfig(head_layers=2), ConfigError, "head_layers must be 1, got 2"),
    # str(None) is "none", which would build the ablation arm
    (lambda: ModelConfig(selector=None), ConfigError,
     "selector must be one of ('none', 'saws', 'maws'), got None"),
    (lambda: ModelConfig(selector="MAWS"), ConfigError,
     "selector must be one of ('none', 'saws', 'maws'), got 'MAWS'"),
    (lambda: ModelConfig(image_h=16, image_w=4, patch_size=8, k=1), ConfigError,
     "patch size 8 too large for 16x4 images"),
    (lambda: patchify(t64(np.zeros((4, 4))), 2), ShapeError,
     "patchify expects HxWxC, got shape (4, 4)"),
    (lambda: msa(t64(np.zeros((3, 8))), overflowing_layer(), 3), ShapeError,
     "width 8 not divisible by 3 heads"),
    (lambda: msa(t64(np.zeros((3, 8))), overflowing_layer(), 2, 3), NumericError,
     "non-finite values in attention output of layer 3"),
    (lambda: msa(t64(np.zeros((3, 8))), overflowing_layer(), 2), NumericError,
     "non-finite values in attention output of attention block"),
    (lambda: encoder_layer(t64(np.zeros((3, 8))), overflowing_layer(), 2, 4), NumericError,
     "non-finite values in attention output of layer 4"),
    (lambda: FuseVitModel.build(ModelConfig(), np.float16), ConfigError,
     "model dtype must be float32 or float64, got float16"),
], ids=["negative-seed", "head-layers", "selector-None", "selector-case", "patch-too-large",
        "patchify-rank", "msa-width", "msa-layer", "msa-block", "layer-L", "model-dtype"])
def test_bad_input_raises_typed_error(call, error, message):
    with np.errstate(over="ignore"), pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestModelConfig:
    def test_derived_quantities(self):
        cfg = ModelConfig(image_h=448, image_w=448, channels=3, patch_size=16,
                          embed_dim=64, layers=12, heads=8, mlp_dim=256, k=12,
                          selector="maws", num_classes=10, seed=0)
        assert cfg.num_patches == 784
        assert cfg.seq_len == 785

    def test_k_larger_than_patch_count_rejected(self):
        with pytest.raises(ConfigError, match="select"):
            ModelConfig(image_h=16, image_w=16, patch_size=8, k=5)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(embed_dim=30, heads=4)

    def test_fewer_than_two_layers_rejected(self):
        with pytest.raises(ConfigError, match="layers"):
            ModelConfig(layers=1)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ConfigError, match="selector"):
            ModelConfig(selector="top-k")


class TestPatchify:
    @pytest.mark.parametrize("size,patch,expected", [
        (448, 16, 784),   # the full-scale baseline patch count
        (32, 8, 16),
        (384, 16, 576),
    ])
    def test_patch_counts(self, size, patch, expected):
        image = t64(np.zeros((size, size, 1)))
        assert patchify(image, patch).shape[0] == expected

    def test_floor_semantics_drop_trailing_pixels(self):
        image = t64(np.arange(11 * 9 * 2, dtype=np.float64).reshape(11, 9, 2))
        out = patchify(image, 4)
        assert out.shape == (2 * 2, 4 * 4 * 2)

    def test_patch_too_large_rejected(self):
        with pytest.raises(ShapeError):
            patchify(t64(np.zeros((8, 8, 1))), 9)

    def test_row_major_enumeration_and_flattening(self):
        h = w = 4
        image = np.arange(h * w, dtype=np.float64).reshape(h, w, 1)
        out = patchify(t64(image), 2).data
        # patch 0 is the top-left 2x2 block, flattened row-major
        assert out[0].tolist() == [0.0, 1.0, 4.0, 5.0]
        # patch 1 sits to its right (grid enumerated row-major)
        assert out[1].tolist() == [2.0, 3.0, 6.0, 7.0]


class TestEmbed:
    def _pe(self, n, patch_dim, d):
        cfg = ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                          embed_dim=d, layers=2, heads=1, mlp_dim=8, k=1,
                          selector="maws", num_classes=2, seed=0)
        pe = FuseVitModel.build(cfg, np.float64).embedder
        assert pe["E"].shape == (patch_dim, d)
        assert pe["E_pos"].shape == (n + 1, d)
        return pe

    def test_zero_projection_returns_positions(self):
        rng = np.random.default_rng(0)
        pe = self._pe(4, 64, 8)
        pe["E"].data[:] = 0.0
        pe["x_class"].data[:] = 0.0
        patches = t64(rng.standard_normal((4, 64)))
        out = embed(patches, pe)
        assert np.array_equal(out.data, pe["E_pos"].data)

    def test_zero_positions_expose_class_token(self):
        rng = np.random.default_rng(1)
        pe = self._pe(4, 64, 8)
        pe["E_pos"].data[:] = 0.0
        patches = t64(rng.standard_normal((4, 64)))
        out = embed(patches, pe)
        assert np.array_equal(out.data[0], pe["x_class"].data)

    def test_rows_match_per_row_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        pe = self._pe(4, 64, 8)
        patches = rng.standard_normal((4, 64))
        out = embed(t64(patches), pe).data
        for i in range(4):
            expected = np.array([patches[i] @ pe["E"].data[:, j] for j in range(8)])
            expected = expected + pe["E_pos"].data[i + 1]
            assert np.allclose(out[i + 1], expected, atol=1e-6)
        assert np.allclose(out[0], pe["x_class"].data + pe["E_pos"].data[0], atol=1e-12)

    def test_position_count_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        pe = self._pe(4, 64, 8)
        with pytest.raises(ShapeError):
            embed(t64(np.zeros((7, 64))), pe)


class TestMsa:
    def test_single_token_attention_is_one(self):
        rng = np.random.default_rng(4)
        layer = make_layer(rng, 8, 16)
        z = t64(rng.standard_normal((1, 8)))
        out, scores = msa(z, layer, heads=1)
        assert softmax(scores.data)[0, 0] == 1.0
        zn = layer_norm(z.data, layer["ln1.gamma"].data, layer["ln1.beta"].data)
        expected = z.data + (zn @ layer["wv"].data) @ layer["wo"].data
        assert np.allclose(out.data, expected, atol=1e-10)

    def test_identical_rows_give_identical_outputs(self):
        rng = np.random.default_rng(5)
        layer = make_layer(rng, 8, 16)
        row = rng.standard_normal(8)
        z = t64(np.stack([row, row]))
        out, scores = msa(z, layer, heads=2)
        assert np.allclose(out.data[0], out.data[1], atol=1e-12)
        assert np.allclose(scores.data[0], scores.data[1], atol=1e-12)

    def test_single_head_scores_match_brute_force(self):
        rng = np.random.default_rng(6)
        d = 4
        layer = make_layer(rng, d, 8)
        z = rng.standard_normal((3, d))
        _, scores = msa(t64(z), layer, heads=1)
        zn = layer_norm(z, layer["ln1.gamma"].data, layer["ln1.beta"].data)
        expected = (zn @ layer["wq"].data) @ (zn @ layer["wk"].data).T / np.sqrt(d)
        assert np.allclose(scores.data, expected, atol=1e-6)

    def test_head_average_matches_per_head_capture(self):
        rng = np.random.default_rng(7)
        layer = make_layer(rng, 8, 16)
        z = rng.standard_normal((5, 8))
        _, scores = msa(t64(z), layer, heads=4)
        zn = layer_norm(z, layer["ln1.gamma"].data, layer["ln1.beta"].data)
        q, k = zn @ layer["wq"].data, zn @ layer["wk"].data
        dh = 2  # width 8 over 4 heads
        per_head = [q[:, i:i + dh] @ k[:, i:i + dh].T / np.sqrt(dh) for i in range(0, 8, dh)]
        assert len(per_head) == 4
        assert np.allclose(scores.data, np.mean(per_head, axis=0), atol=1e-12)


class TestEncoderLayer:
    """``_block``, the full block of layers 1..L-1, and ``encoder_layer``, layer L's
    class row of it."""

    def test_zero_weights_identity(self):
        rng = np.random.default_rng(8)
        layer = make_layer(rng, 8, 16)
        for key in ("wq", "wk", "wv", "wo", "mlp.w1", "mlp.w2"):
            layer[key].data[:] = 0.0
        z = rng.standard_normal((5, 8))
        out, _ = _block(t64(z), layer, heads=2)
        assert np.allclose(out.data, z, atol=1e-12)

    @pytest.mark.parametrize("s", [1, 5, 17])
    def test_shape_preserved_for_any_sequence_length(self, s):
        rng = np.random.default_rng(9)
        layer = make_layer(rng, 8, 16)
        out, scores = _block(t64(rng.standard_normal((s, 8))), layer, heads=2)
        assert out.shape == (s, 8)
        assert scores.shape == (s, s)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_composite_matches_step_by_step_oracle(self, heads):
        rng = np.random.default_rng(10)
        d, mlp_dim = 8, 32
        layer = make_layer(rng, d, mlp_dim)
        z = rng.standard_normal((4, d))
        out, _ = _block(t64(z), layer, heads=heads)
        expected = encoder_block(z, layer, heads)
        assert np.allclose(out.data, expected, atol=1e-5)

    # 13 rows is the desk config's fused sequence (1 + 3 layers x k=4), 17 the
    # whole sequence that the `none` arm's layer L reads
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["image", "stack"])
    @pytest.mark.parametrize("rows", [13, 17])
    def test_class_row_layer_is_row_zero_of_the_block(self, rows, lead):
        rng = np.random.default_rng(rows)
        layer = make_layer(rng, 8, 16)
        z = t64(rng.standard_normal((*lead, rows, 8)))
        full, _ = _block(z, layer, heads=2, layer_index=4)
        out = encoder_layer(z, layer, heads=2, layer_index=4)
        assert out.shape == (*lead, 1, 8)
        assert np.allclose(out.data, full.data[..., :1, :], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["image", "stack"])
    @pytest.mark.parametrize("queries", [1, 2])
    def test_leading_query_rows_are_those_of_the_block(self, queries, lead):
        rng = np.random.default_rng(30 + queries)
        layer = make_layer(rng, 8, 16)
        z = t64(rng.standard_normal((*lead, 13, 8)))
        full, full_scores = _block(z, layer, heads=2)
        out, scores = _block(z, layer, heads=2, queries=queries)
        assert out.shape == (*lead, queries, 8) and scores.shape == (*lead, queries, 13)
        assert np.allclose(out.data, full.data[..., :queries, :], rtol=0, atol=1e-12)
        assert np.allclose(scores.data, full_scores.data[..., :queries, :], rtol=0, atol=1e-12)


class TestForwardCollect:
    def _toy(self, rng, layers, d=8, n=4):
        cfg = ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                          embed_dim=d, layers=layers, heads=2, mlp_dim=16, k=2,
                          selector="maws", num_classes=2, seed=0)
        stack = FuseVitModel.build(cfg, np.float64).layers[:-1]
        z0 = t64(rng.standard_normal((n + 1, d)))
        return z0, stack

    def test_two_layer_model_has_single_record(self):
        rng = np.random.default_rng(11)
        z0, stack = self._toy(rng, layers=2)
        trace = forward_collect(z0, stack, heads=2)
        assert len(trace.hidden) == 1
        assert len(trace.attention) == 1
        assert trace.attention[0].layer_index == 1

    def test_last_hidden_matches_direct_application(self):
        rng = np.random.default_rng(12)
        z0, stack = self._toy(rng, layers=4)
        trace = forward_collect(z0, stack, heads=2)
        z = z0
        for i, layer in enumerate(stack, start=1):
            z, _ = _block(z, layer, heads=2, layer_index=i)
        assert np.array_equal(trace.hidden[-1].data, z.data)

    def test_scores_row_softmax_is_stochastic(self):
        rng = np.random.default_rng(13)
        z0, stack = self._toy(rng, layers=4)
        trace = forward_collect(z0, stack, heads=2)
        for record in trace.attention:
            rows = softmax(record.scores.data)
            assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-6)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigError):
            forward_collect(t64(np.zeros((3, 8))), [], heads=2)


def test_init_is_reproducible_per_config():
    from fusevit.model import FuseVitModel
    cfg = ModelConfig(seed=99)
    a = FuseVitModel.build(cfg)
    b = FuseVitModel.build(cfg)
    for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(pa.data, pb.data), name_a


def test_init_params_within_trunc_bounds():
    from fusevit.model import FuseVitModel
    model = FuseVitModel.build(ModelConfig(seed=1))
    proj = dict(model.named_parameters())["embed.E"].data
    assert np.abs(proj).max() <= 2.0 * 0.02 + 1e-9
