"""Optimizer pieces, the training loop, and evaluation."""

import inspect
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fusevit.train as train_module
from fusevit.data import AugmentConfig, ImageSet, augment, generate_synth, SynthSpec
from fusevit.encoder import ModelConfig
from fusevit.errors import ConfigError, NumericError
from fusevit.model import FuseVitModel
from fusevit.selector import REGISTRY
from fusevit.tensor import Tape, Tensor, cross_entropy
from fusevit.train import (
    EvalReport,
    TrainConfig,
    chunk_size,
    cosine_lr,
    evaluate,
    sgd_step,
    train,
)


def test_batches_make_the_same_draws_as_the_epoch_queue():
    # pinned to the epoch-queue sampler the generator replaced
    batches = train_module._batches(5, 3, np.random.default_rng(0))
    assert [next(batches) for _ in range(6)] == [
        [2, 4, 3], [0, 1, 4], [1, 2, 0], [3, 0, 2], [3, 4, 1], [3, 2, 0]]


def test_train_is_the_module():
    # the package re-exports nothing, so the function cannot shadow the module
    assert inspect.ismodule(train_module)


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 0.02) == pytest.approx(0.02)
        assert cosine_lr(100, 100, 0.02) == pytest.approx(0.0, abs=1e-18)

    def test_midpoint_is_half(self):
        assert cosine_lr(50, 100, 0.02) == pytest.approx(0.01)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(s, 200, 0.1) for s in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            cosine_lr(101, 100, 0.1)
        with pytest.raises(ConfigError):
            cosine_lr(-1, 100, 0.1)


class TestSgdStep:
    def test_zero_lr_keeps_params_but_accumulates_velocity(self):
        p = [np.array([1.0, 2.0])]
        g = [np.array([0.5, -0.5])]
        v = [np.zeros(2)]
        new_p, new_v = sgd_step(p, g, v, lr=0.0, momentum=0.9)
        assert np.array_equal(new_p[0], p[0])
        assert np.array_equal(new_v[0], g[0])

    def test_zero_momentum_is_vanilla_sgd(self):
        p = [np.array([1.0])]
        g = [np.array([2.0])]
        v = [np.zeros(1)]
        new_p, _ = sgd_step(p, g, v, lr=0.1, momentum=0.0)
        assert np.allclose(new_p[0], 0.8)

    def test_two_step_hand_trace_on_square(self):
        # f(p) = p^2, grad 2p, lr 0.1, momentum 0.9, from p=1:
        # v1=2, p1=0.8; v2=0.9*2+1.6=3.4, p2=0.8-0.34=0.46
        p, v = np.array([1.0]), np.zeros(1)
        for _ in range(2):
            (p,), (v,) = sgd_step([p], [2.0 * p], [v], lr=0.1, momentum=0.9)
        assert np.allclose(p, 0.46)
        assert np.allclose(v, 3.4)

    def test_momentum_zero_matches_closed_form_over_ten_steps(self):
        # p_{t+1} = p_t (1 - 2 lr) for f(p)=p^2 has the closed form below
        lr = 0.05
        p, v = np.array([1.0]), np.zeros(1)
        for _ in range(10):
            (p,), (v,) = sgd_step([p], [2.0 * p], [v], lr=lr, momentum=0.0)
        assert abs(float(p[0]) - (1 - 2 * lr) ** 10) < 1e-7

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], 0.1, 0.9)


def tiny_setup(selector="maws", steps=5, train_seed=0):
    spec = SynthSpec(num_classes=3, train_per_class=4, test_per_class=2,
                     image_size=16, signal_patch_count=3, signal_amplitude=1.0,
                     noise_std=0.0, seed=5)
    dataset = generate_synth(spec)
    cfg = ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                      embed_dim=8, layers=2, heads=2, mlp_dim=16, k=2,
                      selector=selector, num_classes=3, seed=1)
    model = FuseVitModel.build(cfg)
    tcfg = TrainConfig(lr0=0.002, momentum=0.9, total_steps=steps, batch_size=4,
                       seed=train_seed,
                       augment=AugmentConfig(flip=True, crop_size=16, resize_to=16))
    return model, dataset, tcfg


def train_without_images():
    model, ds, tcfg = tiny_setup()
    empty = ImageSet(ds.train.images[:0], ds.train.labels[:0])
    train(model, replace(ds, train=empty), tcfg)


def with_infinite_logits(run):
    # the head reads a row of ones through weights of 1e38: every logit is inf
    model, ds, tcfg = tiny_setup()
    model.head["ln.gamma"].data[:] = 0.0
    model.head["ln.beta"].data[:] = 1.0
    model.head["0.w"].data[...] = 1e38
    run(model, ds, tcfg)


@pytest.mark.parametrize("call, error, message", [
    (lambda: TrainConfig(total_steps=0), ConfigError, "total_steps must be positive, got 0"),
    (lambda: TrainConfig(batch_size=0), ConfigError, "batch_size must be >= 1, got 0"),
    (lambda: TrainConfig(seed=-1), ConfigError, "seed must be non-negative, got -1"),
    (lambda: cosine_lr(0, 0, 0.1), ConfigError, "total must be >= 1, got 0"),
    (lambda: sgd_step([np.zeros(2)], [], [np.zeros(2)], 0.1, 0.9), ConfigError,
     "params, grads, velocities must align"),
    (train_without_images, ConfigError, "training set is empty"),
    (lambda: with_infinite_logits(train), NumericError, "non-finite loss at step 0"),
    (lambda: with_infinite_logits(lambda m, ds, t: evaluate(m, ds.test, 3, t.augment)),
     NumericError, "non-finite logits in evaluation"),
], ids=["total-steps", "batch-size", "negative-seed", "cosine-total", "sgd-misaligned", "empty-train",
        "non-finite-loss", "non-finite-logits"])
def test_bad_input_raises_typed_error(call, error, message):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestTrainLoop:
    def test_same_seed_gives_identical_loss_trajectory(self):
        model_a, ds, tcfg = tiny_setup()
        log_a = train(model_a, ds, tcfg)
        model_b, _, _ = tiny_setup()
        log_b = train(model_b, ds, tcfg)
        assert log_a.csv_text() == log_b.csv_text()

    def test_different_train_seed_changes_trajectory(self):
        model_a, ds, _ = tiny_setup(train_seed=0)
        log_a = train(model_a, ds, tiny_setup(train_seed=0)[2])
        model_b, _, tcfg_b = tiny_setup(train_seed=1)
        log_b = train(model_b, ds, tcfg_b)
        assert log_a.csv_text() != log_b.csv_text()

    def test_initial_loss_near_log_num_classes(self):
        model, ds, tcfg = tiny_setup(steps=1)
        log = train(model, ds, tcfg)
        expected = math.log(3)
        assert abs(log.rows[0].loss - expected) / expected < 0.2

    def test_csv_header_and_row_count(self):
        model, ds, tcfg = tiny_setup(steps=4)
        log = train(model, ds, tcfg)
        lines = log.csv_text().strip().split("\n")
        assert lines[0] == "step,lr,loss,acc"
        assert len(lines) == 5

    def test_weights_actually_move(self):
        model, ds, tcfg = tiny_setup(steps=3)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train(model, ds, tcfg)
        moved = [n for n, p in model.named_parameters()
                 if not np.array_equal(before[n], p.data)]
        assert "embed.E" in moved
        assert "head.0.w" in moved

    def test_easy_set_memorized_within_300_steps(self):
        # noiseless amplitude-1 classes are separable by construction
        spec = SynthSpec(num_classes=5, train_per_class=4, test_per_class=2,
                         image_size=16, signal_patch_count=6,
                         signal_amplitude=1.0, noise_std=0.0, seed=21)
        ds = generate_synth(spec)
        cfg = ModelConfig(image_h=16, image_w=16, channels=1, patch_size=8,
                          embed_dim=16, layers=2, heads=2, mlp_dim=64, k=2,
                          selector="maws", num_classes=5, seed=22)
        model = FuseVitModel.build(cfg)
        tcfg = TrainConfig(lr0=1e-3, momentum=0.95, total_steps=300,
                           batch_size=10, seed=23,
                           augment=AugmentConfig(flip=False, crop_size=16,
                                                 resize_to=16))
        train(model, ds, tcfg)
        report = evaluate(model, ds.train, 5, tcfg.augment)
        assert report.accuracy == 1.0


    def test_overflowing_step_raises_before_assigning(self):
        model, ds, tcfg = tiny_setup(steps=1)
        tcfg.lr0 = 1e300
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        with pytest.raises(NumericError, match=r"non-finite .* at step 0"):
            train(model, ds, tcfg)
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name

    def test_one_forward_call_per_step(self, monkeypatch):
        model, ds, tcfg = tiny_setup(steps=3)
        shapes = []
        forward = model.forward

        def counting_forward(image, *args, **kwargs):
            shapes.append(np.shape(getattr(image, "data", image)))
            return forward(image, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counting_forward)
        train(model, ds, tcfg)
        assert shapes == [(tcfg.batch_size, 16, 16, 1)] * tcfg.total_steps

    def test_desk_training_call_records_42_ops(self, monkeypatch):
        # a deterministic count, whatever the BLAS kernel: each attention sub-layer
        # is three records, layer_norm, attention and add, and so is each MLP
        # sub-layer, layer_norm, feedforward and add
        lengths = []
        backward = Tape.backward

        def counting_backward(tape, loss):
            lengths.append(len(tape))
            return backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", counting_backward)
        dataset = generate_synth(SynthSpec(seed=55))
        tcfg = TrainConfig(lr0=5e-4, momentum=0.95, total_steps=1, batch_size=16, seed=77,
                           augment=AugmentConfig(flip=True, crop_size=32, resize_to=32))
        train(FuseVitModel.build(ModelConfig(seed=66)), dataset, tcfg)
        assert lengths == [42]

    def test_desk_training_call_traced_peak_under_4_mib(self):
        # the benchmark's desk-train call peaks at 3.6 MiB. It peaked at 7.7 MiB while
        # backward kept every record to the end, and at 4.9 MiB with the fused ops but
        # that backward. numpy's allocations follow from the shapes and BLAS scratch
        # space is not traced, so the bound holds under every BLAS kernel
        dataset = generate_synth(SynthSpec(num_classes=5, train_per_class=8, test_per_class=4,
                                           image_size=32, signal_patch_count=6,
                                           signal_amplitude=1.0, noise_std=0.0, seed=1))
        model = FuseVitModel.build(ModelConfig(seed=2))
        tcfg = TrainConfig(lr0=5e-4, momentum=0.95, total_steps=1, batch_size=16, seed=3,
                           augment=AugmentConfig(flip=True, crop_size=32, resize_to=32))
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            train(model, dataset, tcfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_step_matches_per_image_loss_and_accuracy(self):
        # the batched step's first row equals the mean of per-image losses
        model, ds, tcfg = tiny_setup(steps=1)
        fresh, _, _ = tiny_setup(steps=1)
        row = train(model, ds, tcfg).rows[0]
        sampler_rng = np.random.default_rng(np.random.SeedSequence(tcfg.seed, spawn_key=(1,)))
        augment_rng = np.random.default_rng(np.random.SeedSequence(tcfg.seed, spawn_key=(2,)))
        idx = sampler_rng.permutation(len(ds.train)).tolist()[:tcfg.batch_size]
        losses, correct = [], 0
        for i in idx:
            img = augment(ds.train.images[i], tcfg.augment, augment_rng)
            logits = fresh.forward(img).logits
            losses.append(float(cross_entropy(logits, int(ds.train.labels[i])).data))
            correct += int(np.argmax(logits.data)) == int(ds.train.labels[i])
        assert row.loss == pytest.approx(np.mean(losses), rel=1e-6)
        assert row.acc == correct / len(idx)


def _logits_result(logits):
    """What evaluate reads of a ``ForwardResult``: ``logits.data``."""
    return SimpleNamespace(logits=SimpleNamespace(data=logits))


class _OneHotOracle:
    """Stub model that always answers with the true class of each input image."""

    cfg = ModelConfig()

    def __init__(self, lookup, num_classes):
        self._lookup = lookup
        self._classes = num_classes
        self.dtype = np.float32

    def forward(self, images):
        logits = np.full((len(images), self._classes), -10.0, dtype=np.float64)
        for row, image in zip(logits, images):
            row[self._lookup[image.tobytes()]] = 10.0
        return _logits_result(logits)


class TestEvaluate:
    def test_perfect_model_scores_one(self):
        ds = generate_synth(SynthSpec(num_classes=3, train_per_class=1,
                                      test_per_class=3, image_size=8,
                                      signal_patch_count=2, seed=3))
        lookup = {ds.test.images[i].tobytes(): int(ds.test.labels[i])
                  for i in range(len(ds.test))}
        report = evaluate(_OneHotOracle(lookup, 3), ds.test, 3)
        assert report.accuracy == 1.0
        assert all(acc == 1.0 for acc in report.per_class)

    def test_random_labels_near_chance(self):
        # fixed random logits vs random labels: accuracy ~ 1/C within 3 sigma
        rng = np.random.default_rng(0)
        classes, n = 4, 800
        images = rng.uniform(0, 1, (n, 4, 4, 1)).astype(np.float32)
        labels = rng.integers(0, classes, n)

        class _RandomModel:
            cfg = ModelConfig()
            dtype = np.float32

            def forward(self, images):
                return _logits_result(np.stack([
                    np.random.default_rng(abs(hash(image.tobytes())) % (2**32))
                    .standard_normal(classes) for image in images]))

        report = evaluate(_RandomModel(), ImageSet(images, labels), classes)
        p = 1.0 / classes
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(report.accuracy - p) < 3 * sigma

    def test_per_class_accuracies_weighted_average_to_overall(self):
        ds = generate_synth(SynthSpec(num_classes=3, train_per_class=1,
                                      test_per_class=5, image_size=8,
                                      signal_patch_count=2, seed=4))
        lookup = {ds.test.images[i].tobytes():
                  (int(ds.test.labels[i]) if i % 2 == 0 else 0)
                  for i in range(len(ds.test))}
        report = evaluate(_OneHotOracle(lookup, 3), ds.test, 3)
        weighted = sum(acc * n for acc, n in
                       zip(report.per_class, report.class_counts))
        assert report.accuracy == pytest.approx(weighted / sum(report.class_counts))

    def test_per_class_holds_plain_floats(self):
        # two of five classes present, one image misread: seen and unseen
        # classes alike are floats
        images = np.random.default_rng(8).uniform(0, 1, (6, 4, 4, 1)).astype(np.float32)
        labels = np.array([0, 0, 0, 1, 1, 1])
        lookup = {img.tobytes(): int(label) if i else 4
                  for i, (img, label) in enumerate(zip(images, labels))}
        report = evaluate(_OneHotOracle(lookup, 5), ImageSet(images, labels), 5)
        assert [type(acc) for acc in report.per_class] == [float] * 5
        assert report.per_class == [2 / 3, 1.0, 0.0, 0.0, 0.0]
        assert [type(n) for n in report.class_counts] == [int] * 5

    @pytest.mark.parametrize("num_classes", [3, 7])
    def test_class_count_other_than_the_models_rejected(self, num_classes):
        # a 5-class model: unchecked, 3 would index the counters past their end
        # with labels 3 and 4, and 7 would make a 7-class report
        model = FuseVitModel.build(replace(small_model("maws").cfg, num_classes=5))
        images = ImageSet(np.zeros((5, 16, 16, 1), np.float32), np.arange(5))
        with pytest.raises(ConfigError) as info:
            evaluate(model, images, num_classes)
        assert str(info.value) == f"model has 5 classes, dataset has {num_classes}"

    def test_empty_dataset_rejected(self):
        empty = ImageSet(np.empty((0, 4, 4, 1), np.float32),
                         np.empty(0, np.int64))
        with pytest.raises(ConfigError):
            evaluate(_OneHotOracle({}, 2), empty, 2)


def _per_image_report(model, image_set, num_classes, aug):
    """The evaluation oracle: one single-image forward per image, float64 loss
    added in image order."""
    correct = np.zeros(num_classes, dtype=np.int64)
    totals = np.zeros(num_classes, dtype=np.int64)
    loss_sum = 0.0
    for img, label in zip(image_set.images, image_set.labels.tolist()):
        if aug is not None:
            img = augment(img, aug)
        logits = np.asarray(model.forward(img).logits.data, dtype=np.float64)
        top = logits.max()
        loss_sum += float(np.log(np.exp(logits - top).sum()) + top - logits[label])
        totals[label] += 1
        correct[label] += int(np.argmax(logits)) == label
    return EvalReport(
        accuracy=float(correct.sum()) / float(totals.sum()),
        per_class=[float(c) / t if t else 0.0 for c, t in zip(correct, totals)],
        class_counts=totals.tolist(),
        mean_loss=loss_sum / len(image_set))


# (images, images per stack): sizes around a stack of 3, then 60 images in one
# stack of the default size, where numpy's pairwise sum would round differently
# from the in-order sum
STACKINGS = [(1, 3), (2, 3), (3, 3), (4, 3), (13, 3), (60, None)]


def stack_images(monkeypatch, cfg, chunk):
    """Make ``chunk_size(cfg)`` return ``chunk`` (None keeps the default)."""
    if chunk is not None:
        monkeypatch.setattr(train_module, "CHUNK_SCORES", chunk * cfg.heads * cfg.seq_len ** 2)
    return chunk_size(cfg)


def small_model(selector, seed=5):
    return FuseVitModel.build(ModelConfig(
        image_h=16, image_w=16, channels=1, patch_size=4, embed_dim=8, layers=3,
        heads=2, mlp_dim=16, k=3, selector=selector, num_classes=3, seed=seed))


class TestBatchedEvaluate:
    @pytest.mark.parametrize("aug", [None, AugmentConfig(flip=True, crop_size=16,
                                                         resize_to=20)])
    @pytest.mark.parametrize("selector", sorted(REGISTRY))
    @pytest.mark.parametrize("count, chunk", STACKINGS)
    def test_equals_per_image_oracle(self, monkeypatch, count, chunk, selector, aug):
        model = small_model(selector)
        step = stack_images(monkeypatch, model.cfg, chunk)
        rng = np.random.default_rng(count)
        images = ImageSet(rng.uniform(0, 1, (count, 16, 16, 1)).astype(np.float32),
                          rng.integers(0, 3, count))
        expected = _per_image_report(model, images, 3, aug)
        stacks = []
        forward = model.forward

        def counted(x):
            stacks.append(len(x))
            return forward(x)

        model.forward = counted
        assert evaluate(model, images, 3, aug) == expected
        assert stacks == [min(step, count - lo) for lo in range(0, count, step)]

    def test_chunk_size_from_model_shape(self):
        # one chunk's (B, heads, S, S) score stack stays within 2**24 floats
        assert chunk_size(ModelConfig()) >= 25
        paper = ModelConfig(image_h=448, image_w=448, channels=3, patch_size=16,
                            embed_dim=768, layers=12, heads=12, mlp_dim=3072, k=12)
        assert chunk_size(paper) == 2
        assert chunk_size(ModelConfig(image_h=2048, image_w=2048, patch_size=8,
                                      embed_dim=32, heads=4)) == 1


class TestPlainMeanLoss:
    """compare's initial loss: ``evaluate`` of the untrained ``none`` arm, in
    stacks, equals every arm's plain forwards summed image by image."""

    @pytest.mark.parametrize("selector", sorted(REGISTRY))
    @pytest.mark.parametrize("count, chunk", STACKINGS)
    def test_equals_per_image_loop_bitwise(self, monkeypatch, selector, count, chunk):
        arm = small_model(selector, seed=6)
        stack_images(monkeypatch, arm.cfg, chunk)
        rng = np.random.default_rng(count)
        images = rng.uniform(0, 1, (count, 16, 16, 1)).astype(np.float32)
        labels = rng.integers(0, 3, count)
        total = 0.0
        for image, label in zip(images, labels):
            logits = arm.plain_forward(Tensor(image, dtype=arm.dtype)).data
            total += float(cross_entropy(Tensor(logits, dtype=np.float64), int(label)).data)
        untrained = FuseVitModel.build(replace(arm.cfg, selector="none"))
        assert evaluate(untrained, ImageSet(images, labels), 3).mean_loss == total / count
