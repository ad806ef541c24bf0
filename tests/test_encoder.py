"""Patch embedding and encoder blocks against brute-force oracles."""

import numpy as np
import pytest

from fusevit.encoder import (
    EncoderLayer,
    ModelConfig,
    forward_collect,
    init_encoder_layer,
    init_patch_embedding,
    msa,
    encoder_layer,
    embed,
    patchify,
)
from fusevit.errors import ConfigError, ShapeError
from fusevit.tensor import LN_EPS, Tensor, softmax


def t64(data):
    return Tensor(data, dtype=np.float64)


def ln_oracle(x, gamma, beta, eps=LN_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def make_layer(rng, d, mlp_dim):
    cfg = ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                      embed_dim=d, layers=2, heads=1, mlp_dim=mlp_dim, k=1,
                      selector="maws", num_classes=2, seed=int(rng.integers(1 << 30)))
    return init_encoder_layer(cfg, rng)


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
    def _pe(self, rng, n, patch_dim, d):
        cfg = ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                          embed_dim=d, layers=2, heads=1, mlp_dim=8, k=1,
                          selector="maws", num_classes=2, seed=0)
        pe = init_patch_embedding(cfg, rng)
        assert pe.proj.shape == (patch_dim, d)
        assert pe.pos.shape == (n + 1, d)
        return pe

    def test_zero_projection_returns_positions(self):
        rng = np.random.default_rng(0)
        pe = self._pe(rng, 4, 64, 8)
        pe.proj.data[:] = 0.0
        pe.cls.data[:] = 0.0
        patches = t64(rng.standard_normal((4, 64)))
        out = embed(patches, pe)
        assert np.array_equal(out.data, pe.pos.data)

    def test_zero_positions_expose_class_token(self):
        rng = np.random.default_rng(1)
        pe = self._pe(rng, 4, 64, 8)
        pe.pos.data[:] = 0.0
        patches = t64(rng.standard_normal((4, 64)))
        out = embed(patches, pe)
        assert np.array_equal(out.data[0], pe.cls.data)

    def test_rows_match_per_row_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        pe = self._pe(rng, 4, 64, 8)
        patches = rng.standard_normal((4, 64))
        out = embed(t64(patches), pe).data
        for i in range(4):
            expected = np.array([patches[i] @ pe.proj.data[:, j] for j in range(8)])
            expected = expected + pe.pos.data[i + 1]
            assert np.allclose(out[i + 1], expected, atol=1e-6)
        assert np.allclose(out[0], pe.cls.data + pe.pos.data[0], atol=1e-12)

    def test_position_count_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        pe = self._pe(rng, 4, 64, 8)
        with pytest.raises(ShapeError):
            embed(t64(np.zeros((7, 64))), pe)


class TestMsa:
    def test_single_token_attention_is_one(self):
        rng = np.random.default_rng(4)
        layer = make_layer(rng, 8, 16)
        z = t64(rng.standard_normal((1, 8)))
        out, scores = msa(z, layer, heads=1)
        assert softmax(scores).data[0, 0] == 1.0
        zn = ln_oracle(z.data, layer.ln1_gamma.data, layer.ln1_beta.data)
        expected = z.data + (zn @ layer.wv.data) @ layer.wo.data
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
        zn = ln_oracle(z, layer.ln1_gamma.data, layer.ln1_beta.data)
        expected = (zn @ layer.wq.data) @ (zn @ layer.wk.data).T / np.sqrt(d)
        assert np.allclose(scores.data, expected, atol=1e-6)

    def test_head_average_matches_per_head_capture(self):
        rng = np.random.default_rng(7)
        layer = make_layer(rng, 8, 16)
        z = rng.standard_normal((5, 8))
        _, scores = msa(t64(z), layer, heads=4)
        zn = ln_oracle(z, layer.ln1_gamma.data, layer.ln1_beta.data)
        q, k = zn @ layer.wq.data, zn @ layer.wk.data
        dh = 2  # width 8 over 4 heads
        per_head = [q[:, i:i + dh] @ k[:, i:i + dh].T / np.sqrt(dh) for i in range(0, 8, dh)]
        assert len(per_head) == 4
        assert np.allclose(scores.data, np.mean(per_head, axis=0), atol=1e-12)


class TestEncoderLayer:
    def test_zero_weights_identity(self):
        rng = np.random.default_rng(8)
        layer = make_layer(rng, 8, 16)
        for w in (layer.wq, layer.wk, layer.wv, layer.wo, layer.w1, layer.w2):
            w.data[:] = 0.0
        z = rng.standard_normal((5, 8))
        out, _ = encoder_layer(t64(z), layer, heads=2)
        assert np.allclose(out.data, z, atol=1e-12)

    @pytest.mark.parametrize("s", [1, 5, 17])
    def test_shape_preserved_for_any_sequence_length(self, s):
        rng = np.random.default_rng(9)
        layer = make_layer(rng, 8, 16)
        out, scores = encoder_layer(t64(rng.standard_normal((s, 8))), layer, heads=2)
        assert out.shape == (s, 8)
        assert scores.shape == (s, s)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_composite_matches_step_by_step_oracle(self, heads):
        rng = np.random.default_rng(10)
        d, mlp_dim = 8, 32
        layer = make_layer(rng, d, mlp_dim)
        z = rng.standard_normal((4, d))
        out, _ = encoder_layer(t64(z), layer, heads=heads)

        # independent numpy walk through the same block, one head at a time
        from scipy.special import erf
        zn = ln_oracle(z, layer.ln1_gamma.data, layer.ln1_beta.data)
        q, k, v = zn @ layer.wq.data, zn @ layer.wk.data, zn @ layer.wv.data
        dh = d // heads
        head_outs = []
        for lo in range(0, d, dh):
            qh, kh, vh = q[:, lo:lo + dh], k[:, lo:lo + dh], v[:, lo:lo + dh]
            s = qh @ kh.T / np.sqrt(dh)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            attn = e / e.sum(axis=-1, keepdims=True)
            head_outs.append(attn @ vh)
        u = z + np.hstack(head_outs) @ layer.wo.data
        un = ln_oracle(u, layer.ln2_gamma.data, layer.ln2_beta.data)
        h = un @ layer.w1.data + layer.b1.data
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        expected = u + h @ layer.w2.data + layer.b2.data
        assert np.allclose(out.data, expected, atol=1e-5)


class TestForwardCollect:
    def _toy(self, rng, layers, d=8, n=4):
        cfg = ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                          embed_dim=d, layers=layers, heads=2, mlp_dim=16, k=2,
                          selector="maws", num_classes=2, seed=0)
        stack = [init_encoder_layer(cfg, rng) for _ in range(layers - 1)]
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
            z, _ = encoder_layer(z, layer, heads=2, layer_index=i)
        assert np.array_equal(trace.hidden[-1].data, z.data)

    def test_scores_row_softmax_is_stochastic(self):
        rng = np.random.default_rng(13)
        z0, stack = self._toy(rng, layers=4)
        trace = forward_collect(z0, stack, heads=2)
        for record in trace.attention:
            rows = softmax(record.scores).data
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
