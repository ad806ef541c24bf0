"""Fusion assembly, full forward passes, and checkpoint round-trips."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import plain_vit, random_trace
from fusevit.encoder import ModelConfig
from fusevit.errors import ConfigError, NumericError, TraceMismatchError
from fusevit.gradcheck import toy_config
from fusevit.model import (
    FuseVitModel,
    fuse,
    load_checkpoint,
    save_checkpoint,
)
from fusevit.selector import REGISTRY, SelectionResult, maws, select_per_layer
from fusevit.tensor import (
    Tape,
    Tensor,
    add,
    cross_entropy,
    layer_norm,
    matmul,
    scale,
    sum_all,
)


def toy_cfg(selector="maws", **kw):
    base = dict(image_h=32, image_w=32, channels=1, patch_size=8, embed_dim=16,
                layers=3, heads=2, mlp_dim=32, k=4, selector=selector,
                num_classes=5, seed=2)
    base.update(kw)
    return ModelConfig(**base)


class TestFuse:
    def test_row_count_l12_k12(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, layers=11, n=16, d=8)
        selections = select_per_layer(trace, 12, "maws")
        fused = fuse(trace, selections)
        assert fused.tokens.shape[0] == 133  # 1 + 11*12

    def test_l2_k3_is_class_token_plus_three(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, layers=1, n=8, d=8)
        fused = fuse(trace, select_per_layer(trace, 3, "maws"))
        assert fused.tokens.shape == (4, 8)
        assert np.array_equal(fused.tokens.data[0], trace.hidden[-1].data[0])

    def test_provenance_round_trip(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, layers=4, n=6, d=8)
        k = 2
        selections = select_per_layer(trace, k, "maws")
        fused = fuse(trace, selections)
        assert np.array_equal(fused.tokens.data[0], trace.hidden[-1].data[0])
        for layer, sel in enumerate(selections, start=1):
            for j, token in enumerate(sel.indices):
                assert np.array_equal(fused.tokens.data[1 + (layer - 1) * k + j],
                                      trace.hidden[layer - 1].data[token])

    def test_rows_are_copies_not_views(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, layers=2, n=5, d=4)
        fused = fuse(trace, select_per_layer(trace, 2, "maws"))
        before = fused.tokens.data.copy()
        trace.hidden[0].data[:] = 0.0
        assert np.array_equal(fused.tokens.data, before)

    def test_class_token_row_is_bit_identical(self):
        rng = np.random.default_rng(4)
        trace = random_trace(rng, layers=3, n=7, d=8)
        fused = fuse(trace, select_per_layer(trace, 2, "saws"))
        assert np.array_equal(fused.tokens.data[0], trace.hidden[-1].data[0])

    def test_unseen_token_perturbation_leaves_selected_rows_alone(self):
        rng = np.random.default_rng(5)
        trace = random_trace(rng, layers=3, n=8, d=8)
        selections = select_per_layer(trace, 2, "maws")
        fused_before = fuse(trace, selections).tokens.data.copy()
        selected = {(layer, i) for layer, s in enumerate(selections, start=1)
                    for i in s.indices.tolist()}
        untouched = next((l, i) for l in range(1, 4) for i in range(1, 9)
                         if (l, i) not in selected)
        trace.hidden[untouched[0] - 1].data[untouched[1]] += 5.0
        fused_after = fuse(trace, selections).tokens.data
        assert np.array_equal(fused_after[1:], fused_before[1:])

    def test_fused_length_law_random_configs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            layers_total = int(rng.integers(2, 7))
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            trace = random_trace(rng, layers_total - 1, n, 4)
            fused = fuse(trace, select_per_layer(trace, k, "maws"))
            assert fused.tokens.shape[0] == 1 + (layers_total - 1) * k

    @pytest.mark.parametrize("count", [1, 3])
    def test_selection_count_off_the_trace_rejected(self, count):
        trace = random_trace(np.random.default_rng(9), layers=2, n=4, d=4)
        selections = [SelectionResult(np.array([1]), np.array([1.0])) for _ in range(count)]
        with pytest.raises(TraceMismatchError) as info:
            fuse(trace, selections)
        assert str(info.value) == f"{count} selections for 2 traced layers"

    @pytest.mark.parametrize("indices", [np.array([1.7, 2.0]), np.array([True, True])],
                             ids=["float", "bool"])
    def test_non_integer_indices_rejected(self, indices):
        # a cast to intp would read 1.7 as token 1 and True as token 1
        trace = random_trace(np.random.default_rng(8), layers=1, n=4, d=4)
        with pytest.raises(TraceMismatchError) as info:
            fuse(trace, [SelectionResult(indices, np.ones(2))])
        assert str(info.value) == (
            f"selection indices must be integers, got {indices.dtype} at layer 1")

    def test_out_of_range_index_rejected(self):
        rng = np.random.default_rng(8)
        trace = random_trace(rng, layers=1, n=4, d=4)
        with pytest.raises(TraceMismatchError):
            fuse(trace, [SelectionResult(np.array([5]), np.array([1.0]))])
        with pytest.raises(TraceMismatchError):
            fuse(trace, [SelectionResult(np.array([0]), np.array([1.0]))])


class TestForwardPasses:
    def test_toy_logit_shape_and_finiteness(self):
        model = FuseVitModel.build(toy_cfg())
        rng = np.random.default_rng(9)
        result = model.forward(rng.uniform(0, 1, (32, 32, 1)))
        assert result.logits.shape == (5,)
        assert np.isfinite(result.logits.data).all()
        assert result.fused.tokens.shape[0] == 1 + 2 * 4

    def test_pass_through_matches_independent_oracle(self):
        model = FuseVitModel.build(toy_cfg("none"), dtype=np.float64)
        rng = np.random.default_rng(10)
        for _ in range(5):
            image = rng.uniform(0, 1, (32, 32, 1))
            got = model.forward(image).logits.data
            expected = plain_vit(model, image)
            assert np.allclose(got, expected, atol=1e-5)

    def test_pass_through_equals_plain_forward(self):
        model = FuseVitModel.build(toy_cfg("none"), dtype=np.float64)
        rng = np.random.default_rng(11)
        for _ in range(20):
            image = rng.uniform(0, 1, (32, 32, 1))
            assert np.array_equal(model.forward(image).logits.data,
                                  model.plain_forward(image).data)
        images = rng.uniform(0, 1, (3, 32, 32, 1))
        assert np.array_equal(model.forward(images).logits.data,
                              model.plain_forward(images).data)

    def test_pass_through_ignores_frozen_selections(self):
        # `none` reads the whole layer-(L-1) sequence even when its own
        # selections are handed back frozen
        model = FuseVitModel.build(toy_cfg("none"), dtype=np.float64)
        rng = np.random.default_rng(13)
        for image in (rng.uniform(0, 1, (32, 32, 1)), rng.uniform(0, 1, (3, 32, 32, 1))):
            frozen = model.forward(image).selections
            assert np.array_equal(model.forward(image, frozen_selections=frozen).logits.data,
                                  model.plain_forward(image).data)

    def test_plain_forward_matches_oracle_with_selector_on(self):
        model = FuseVitModel.build(toy_cfg("maws"), dtype=np.float64)
        rng = np.random.default_rng(12)
        image = rng.uniform(0, 1, (32, 32, 1))
        assert np.allclose(model.plain_forward(image).data,
                           plain_vit(model, image), atol=1e-5)

    def test_two_layer_plain_is_layer_composition(self):
        # every layer as the full block; the head reads the class row
        from fusevit.encoder import _block, embed, patchify
        from fusevit.model import FuseVitModel
        cfg = toy_cfg(layers=2, k=2)
        model = FuseVitModel.build(cfg, dtype=np.float64)
        rng = np.random.default_rng(13)
        image = Tensor(rng.uniform(0, 1, (32, 32, 1)), dtype=np.float64)
        z = embed(patchify(image, cfg.patch_size), model.embedder)
        for i, layer in enumerate(model.layers, start=1):
            z, _ = _block(z, layer, cfg.heads, i)
        head = model.head
        x = layer_norm(Tensor._wrap(z.data[:1]), head["ln.gamma"], head["ln.beta"])
        expected = add(matmul(x, head["0.w"]), head["0.b"]).data[0]
        assert np.allclose(model.plain_forward(image).data, expected, atol=1e-12)

    def test_frozen_selections_of_floats_rejected(self):
        # truncated, indices + 0.7 would be the true indices and give their logits
        model = FuseVitModel.build(toy_cfg(), dtype=np.float64)
        image = np.random.default_rng(15).uniform(0, 1, (32, 32, 1))
        frozen = [SelectionResult(np.asarray(s.indices) + 0.7, s.weights)
                  for s in model.forward(image).selections]
        with pytest.raises(TraceMismatchError) as info:
            model.forward(image, frozen_selections=frozen)
        assert str(info.value) == "selection indices must be integers, got float64 at layer 1"

    def test_logits_deterministic_across_calls(self):
        model = FuseVitModel.build(toy_cfg())
        rng = np.random.default_rng(14)
        image = rng.uniform(0, 1, (32, 32, 1)).astype(np.float32)
        a = model.forward(image).logits.data
        b = model.forward(image).logits.data
        assert np.array_equal(a, b)

    def test_selected_indices_come_from_recorded_scores(self):
        model = FuseVitModel.build(toy_cfg("maws"), dtype=np.float64)
        rng = np.random.default_rng(15)
        result = model.forward(rng.uniform(0, 1, (32, 32, 1)))
        for record, sel in zip(result.trace.attention, result.selections):
            redo = maws(record.scores, model.cfg.k)
            assert redo.indices.tolist() == sel.indices.tolist()

    def test_tensor_image_of_the_other_dtype_is_cast(self):
        model = FuseVitModel.build(toy_cfg(), dtype=np.float64)
        image = np.random.default_rng(17).uniform(0, 1, (32, 32, 1)).astype(np.float32)
        got = model.forward(Tensor(image)).logits
        assert got.dtype == np.float64
        assert np.array_equal(got.data, model.forward(image).logits.data)

    def test_wrong_image_shape_rejected(self):
        model = FuseVitModel.build(toy_cfg())
        for shape in [(16, 16, 1), (2, 16, 16, 1), (32, 32), (1, 2, 32, 32, 1)]:
            with pytest.raises(Exception, match="shape"):
                model.forward(np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("run", [
        lambda m, shape: m.forward(np.zeros(shape, dtype=np.float32)).logits,
        lambda m, shape: m.plain_forward(np.zeros(shape, dtype=np.float32)),
    ], ids=["forward", "plain_forward"])
    @pytest.mark.parametrize("shape", [(32, 32, 1), (3, 32, 32, 1)], ids=["image", "stack"])
    def test_overflowing_head_is_numeric_error(self, run, shape):
        # the head reads a row of ones through weights of 1e38: every logit is
        # inf, which is the model's error and not a RuntimeWarning
        model = FuseVitModel.build(toy_cfg())
        model.head["ln.gamma"].data[:] = 0.0
        model.head["ln.beta"].data[:] = 1.0
        model.head["0.w"].data[...] = 1e38
        with pytest.raises(NumericError) as info:
            run(model, shape)
        assert str(info.value) == "non-finite logits"

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_overflowing_mlp_names_its_own_layer(self, index):
        # the block checks its own output, so the layer whose MLP overflows is the
        # one named, not the next layer, and no RuntimeWarning escapes the forward
        model = FuseVitModel.build(toy_cfg(layers=4))
        model.layers[index - 1]["mlp.b2"].data[:] = 3.3e38
        model.layers[index - 1]["mlp.w2"].data[...] = 1e38
        with pytest.raises(NumericError) as info:
            model.forward(np.zeros((32, 32, 1), dtype=np.float32))
        assert str(info.value) == f"non-finite values in the output of layer {index}"


class TestGradientFlow:
    def test_every_layer_receives_gradient(self):
        model = FuseVitModel.build(toy_cfg("maws"), dtype=np.float64)
        rng = np.random.default_rng(16)
        image = Tensor(rng.uniform(0, 1, (32, 32, 1)), dtype=np.float64)
        with Tape() as tape:
            result = model.forward(image)
            tape.backward(cross_entropy(result.logits, 2))
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.abs(p.grad).max() > 0, f"zero gradient for {name}"

    def test_frozen_selections_bypass_selector(self):
        model = FuseVitModel.build(toy_cfg("maws"), dtype=np.float64)
        rng = np.random.default_rng(17)
        image = rng.uniform(0, 1, (32, 32, 1))
        frozen = model.forward(image).selections
        forced = [SelectionResult(s.indices[::-1], s.weights[::-1]) for s in frozen]
        result = model.forward(image, frozen_selections=forced)
        assert [s.indices.tolist() for s in result.selections] == \
               [list(reversed(s.indices.tolist())) for s in frozen]


def stacked(values):
    return np.stack([np.asarray(v, dtype=np.float64) for v in values])


class TestBatchedForward:
    """A stack of images runs as one batch and equals the per-image forwards,
    fused and plain."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([1, 3]),
           selector=st.sampled_from(sorted(REGISTRY)))
    def test_batched_equals_stacked_per_image_f64(self, seed, batch, selector):
        model = FuseVitModel.build(toy_cfg(selector), dtype=np.float64)
        images = np.random.default_rng(seed).uniform(0, 1, (batch, 32, 32, 1))
        got = model.forward(images)
        singles = [model.forward(image) for image in images]

        def close(a, values):
            np.testing.assert_allclose(a, stacked(values), rtol=0, atol=1e-10)

        assert got.logits.shape == (batch, 5)
        close(got.logits.data, [s.logits.data for s in singles])
        for layer, (record, sel) in enumerate(zip(got.trace.attention, got.selections)):
            close(record.scores.data, [s.trace.attention[layer].scores.data for s in singles])
            assert sel.indices.shape == (batch, model.cfg.k)
            assert sel.indices.tolist() == [s.selections[layer].indices.tolist()
                                            for s in singles]
            close(sel.weights, [s.selections[layer].weights for s in singles])
        close(got.fused.tokens.data, [s.fused.tokens.data for s in singles])
        plain = model.plain_forward(images)
        assert plain.shape == (batch, 5)
        close(plain.data, [model.plain_forward(image).data for image in images])

    @pytest.mark.parametrize("selector", sorted(REGISTRY))
    def test_selections_are_arrays_for_one_image_and_a_stack(self, selector):
        model = FuseVitModel.build(toy_cfg(selector))
        images = np.random.default_rng(32).uniform(0, 1, (3, 32, 32, 1)).astype(np.float32)
        k = model.cfg.k
        for image, shape in ((images[0], (k,)), (images, (3, k))):
            selections = model.forward(image).selections
            assert len(selections) == model.cfg.layers - 1
            for sel in selections:
                assert isinstance(sel.indices, np.ndarray) and sel.indices.dtype == np.intp
                assert isinstance(sel.weights, np.ndarray)
                assert sel.indices.shape == sel.weights.shape == shape

    @pytest.mark.parametrize("selector", sorted(REGISTRY))
    def test_batched_indices_exact_in_f32(self, selector):
        model = FuseVitModel.build(toy_cfg(selector))
        images = np.random.default_rng(30).uniform(0, 1, (3, 32, 32, 1)).astype(np.float32)
        got = model.forward(images)
        for layer, sel in enumerate(got.selections):
            assert sel.indices.tolist() == [
                model.forward(image).selections[layer].indices.tolist() for image in images]

    def test_batched_mean_loss_gradient_is_mean_of_per_image_gradients(self):
        model = FuseVitModel.build(toy_cfg("maws"), dtype=np.float64)
        rng = np.random.default_rng(31)
        images = rng.uniform(0, 1, (3, 32, 32, 1))
        labels = np.array([0, 3, 3])
        with Tape() as tape:
            losses = cross_entropy(model.forward(images).logits, labels)
            tape.backward(scale(sum_all(losses), 1.0 / 3))
        batched = {name: p.grad.copy() for name, p in model.named_parameters()}
        mean = {name: np.zeros_like(p.data) for name, p in model.named_parameters()}
        for image, label in zip(images, labels):
            model.zero_grad()
            with Tape() as tape:
                tape.backward(cross_entropy(model.forward(image).logits, int(label)))
            for name, p in model.named_parameters():
                mean[name] += p.grad / 3
        for name, grad in batched.items():
            np.testing.assert_allclose(grad, mean[name], rtol=0, atol=1e-10, err_msg=name)


class TestCheckpoint:
    def test_round_trip_preserves_weights_and_logits(self, tmp_path):
        model = FuseVitModel.build(toy_cfg("saws"))
        rng = np.random.default_rng(18)
        image = rng.uniform(0, 1, (32, 32, 1)).astype(np.float32)
        before = model.forward(image).logits.data
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.cfg == model.cfg
        for (name, a), (_, b) in zip(model.named_parameters(),
                                     loaded.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        assert np.array_equal(loaded.forward(image).logits.data, before)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="manifest"):
            load_checkpoint(tmp_path / "nowhere")

    def test_shape_mismatch_rejected(self, tmp_path):
        import json
        model = FuseVitModel.build(toy_cfg())
        save_checkpoint(model, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["embed_dim"] = 8
        manifest["config"]["mlp_dim"] = 32
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="shape"):
            load_checkpoint(tmp_path / "ckpt")

    def test_load_makes_no_draw(self, tmp_path, monkeypatch):
        model = FuseVitModel.build(toy_cfg())
        image = np.random.default_rng(19).uniform(0, 1, (2, 32, 32, 1)).astype(np.float32)
        save_checkpoint(model, tmp_path / "ckpt")

        def no_draw(*_):
            raise AssertionError("load_checkpoint drew an initial parameter")

        monkeypatch.setattr("fusevit.model.trunc_normal", no_draw)
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert np.array_equal(loaded.forward(image).logits.data,
                              model.forward(image).logits.data)


class TestBuildDraws:
    """``build``'s parameter stream is pinned: names in order, dtype, bytes.

    The desk digest was taken from the per-part dataclass build that preceded
    the parameter table, and the toy one from the table's loop over head
    widths, so both guard the order of the draws.
    """

    @pytest.mark.parametrize("cfg, dtype, digest", [
        (ModelConfig(), np.float32,
         "ab20978abdd30c59c098066cfa4f4103ac6257336255fa964956d8af7de2c875"),
        (toy_config(), np.float64,
         "a66e4e59e45f19cdd354c0d3a3f05a3e1abdedb49a533a916c8791120ab7bb70"),
    ], ids=["desk-f32", "toy-f64"])
    def test_parameter_stream_digest(self, cfg, dtype, digest):
        h = hashlib.sha256()
        for name, p in FuseVitModel.build(cfg, dtype).named_parameters():
            h.update(name.encode())
            h.update(p.data.dtype.str.encode())
            h.update(p.data.tobytes())
        assert h.hexdigest() == digest

