"""Synthetic dataset construction, augmentation, and the disk layout."""

import numpy as np
import pytest

from fusevit.data import (
    SIGNAL_GRID,
    AugmentConfig,
    SynthSpec,
    augment,
    bilinear_resize,
    generate_synth,
    load_dataset,
    save_dataset,
)
from fusevit.errors import ConfigError


def small_spec(**kw):
    base = dict(num_classes=3, train_per_class=4, test_per_class=2,
                image_size=16, signal_patch_count=3, signal_amplitude=1.0,
                noise_std=0.0, seed=7)
    base.update(kw)
    return SynthSpec(**base)


class TestSynthSpec:
    def test_amplitude_bounds(self):
        with pytest.raises(ConfigError):
            small_spec(signal_amplitude=0.0)
        with pytest.raises(ConfigError):
            small_spec(signal_amplitude=1.5)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(noise_std=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            small_spec(seed=-1)

    def test_too_many_signal_patches_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(signal_patch_count=SIGNAL_GRID * SIGNAL_GRID + 1)


class TestGenerateSynth:
    def test_same_seed_is_bit_identical(self):
        a = generate_synth(small_spec())
        b = generate_synth(small_spec())
        assert np.array_equal(a.train.images, b.train.images)
        assert np.array_equal(a.test.images, b.test.images)
        assert np.array_equal(a.train.labels, b.train.labels)

    def test_different_seed_differs(self):
        a = generate_synth(small_spec(seed=1))
        b = generate_synth(small_spec(seed=2))
        assert not np.array_equal(a.train.images, b.train.images)

    def test_noiseless_images_identical_within_class(self):
        ds = generate_synth(small_spec())
        for c in range(3):
            cls = ds.train.images[ds.train.labels == c]
            assert np.array_equal(cls[0], cls[1])

    def test_classes_differ_only_inside_signal_cells(self):
        spec = small_spec()
        ds = generate_synth(spec)
        cell = spec.image_size // SIGNAL_GRID
        a = ds.train.images[ds.train.labels == 0][0][:, :, 0]
        b = ds.train.images[ds.train.labels == 1][0][:, :, 0]
        diff = a != b
        # any differing pixel must sit inside a cell that differs as a block
        for r in range(SIGNAL_GRID):
            for q in range(SIGNAL_GRID):
                block = diff[r * cell:(r + 1) * cell, q * cell:(q + 1) * cell]
                assert block.all() or not block.any()
        assert diff.any()

    def test_per_class_counts_exact(self):
        ds = generate_synth(small_spec())
        for c in range(3):
            assert int((ds.train.labels == c).sum()) == 4
            assert int((ds.test.labels == c).sum()) == 2

    def test_noise_makes_images_distinct(self):
        ds = generate_synth(small_spec(noise_std=0.05))
        cls = ds.train.images[ds.train.labels == 0]
        assert not np.array_equal(cls[0], cls[1])


class TestBilinearResize:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (8, 8, 1)).astype(np.float32)
        assert np.array_equal(bilinear_resize(img, 8, 8), img)

    def test_constant_image_stays_constant(self):
        img = np.full((6, 6, 2), 0.7, dtype=np.float32)
        out = bilinear_resize(img, 9, 13)
        assert np.allclose(out, 0.7, atol=1e-6)

    def test_2x_upsample_of_ramp_stays_monotone(self):
        img = np.arange(4, dtype=np.float32).reshape(1, 4, 1).repeat(4, axis=0)
        out = bilinear_resize(img, 4, 8)[0, :, 0]
        assert (np.diff(out) >= 0).all()


class TestAugment:
    def test_identity_crop(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, (8, 8, 1)).astype(np.float32)
        cfg = AugmentConfig(flip=False, crop_size=8, resize_to=8)
        out = augment(img, cfg, rng=np.random.default_rng(0))
        assert np.array_equal(out, img)

    def test_center_crop_offsets_on_coordinate_ramp(self):
        # ramp value encodes the pixel coordinate, exposing the crop origin
        size, crop = 11, 6
        ramp = (np.arange(size)[:, None] * size + np.arange(size)[None, :])
        img = ramp.astype(np.float32)[:, :, None]
        cfg = AugmentConfig(flip=False, crop_size=crop, resize_to=size)
        out = augment(img, cfg)[:, :, 0]
        off = (size - crop) // 2
        assert out[0, 0] == ramp[off, off]
        assert out[-1, -1] == ramp[off + crop - 1, off + crop - 1]

    def test_crop_larger_than_resize_rejected(self):
        with pytest.raises(ConfigError):
            AugmentConfig(flip=False, crop_size=9, resize_to=8)

    def test_output_extent_and_determinism_in_eval_mode(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, (10, 10, 3)).astype(np.float32)
        cfg = AugmentConfig(flip=True, crop_size=6, resize_to=8)
        a = augment(img, cfg)
        b = augment(img, cfg)
        assert a.shape == (6, 6, 3)
        assert np.array_equal(a, b)


class TestDiskFormat:
    def test_round_trip(self, tmp_path):
        ds = generate_synth(small_spec())
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.spec == ds.spec
        assert np.array_equal(back.train.images, ds.train.images)
        assert np.array_equal(back.test.images, ds.test.images)
        assert np.array_equal(back.train.labels, ds.train.labels)
        assert np.array_equal(back.test.labels, ds.test.labels)

    def test_manifest_schema(self, tmp_path):
        import json
        ds = generate_synth(small_spec())
        save_dataset(ds, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["classes"] == 3
        assert len(manifest["items"]) == 3 * (4 + 2)
        item = manifest["items"][0]
        assert set(item) == {"file", "label", "split"}

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path / "missing")
