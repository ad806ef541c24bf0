"""Synthetic ultra-fine-grained image sets, augmentation, and disk layout.

Every class shares one smooth global background; classes differ only in the
micro-texture painted into a handful of class-assigned signal cells (the
image is divided into a 4x4 grid of cells). Per-image Gaussian noise is the
only intra-class variation, so at noise 0 all images of a class are
identical, which makes the easy variant separable by construction.

Images are single-channel HxWx1 float32 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ftz
from .errors import ConfigError

SIGNAL_GRID = 4  # signal cells live on a SIGNAL_GRID x SIGNAL_GRID lattice


@dataclass
class SynthSpec:
    """Parameters of one synthetic dataset."""

    num_classes: int = 5
    train_per_class: int = 8
    test_per_class: int = 4
    image_size: int = 32
    signal_patch_count: int = 6
    signal_amplitude: float = 1.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "train_per_class", "test_per_class",
                     "image_size", "signal_patch_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.signal_amplitude <= 1.0:
            raise ConfigError(
                f"signal_amplitude must be in (0, 1], got {self.signal_amplitude}")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.signal_patch_count > SIGNAL_GRID * SIGNAL_GRID:
            raise ConfigError(
                f"signal_patch_count {self.signal_patch_count} exceeds the "
                f"{SIGNAL_GRID * SIGNAL_GRID} available cells")
        if self.image_size < SIGNAL_GRID:
            raise ConfigError(f"image_size must be at least {SIGNAL_GRID}")


@dataclass
class ImageSet:
    """A batch of labeled images: (n, H, W, 1) float32 plus int labels."""

    images: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass
class SynthDataset:
    spec: SynthSpec
    train: ImageSet
    test: ImageSet

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes


def generate_synth(spec: SynthSpec) -> SynthDataset:
    """Deterministic dataset build: prototypes per class plus per-image noise."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    cell = spec.image_size // SIGNAL_GRID
    # background: low-resolution noise upsampled bilinearly, scaled into [0, 0.5]
    coarse = rng.uniform(0.0, 1.0, size=(5, 5, 1))
    background = 0.5 * bilinear_resize(coarse, spec.image_size, spec.image_size)
    prototypes = np.repeat(background[None], spec.num_classes, axis=0).astype(np.float64)
    for proto in prototypes:
        cells = rng.choice(SIGNAL_GRID * SIGNAL_GRID, size=spec.signal_patch_count,
                           replace=False)
        for flat in cells:
            r, q = divmod(int(flat), SIGNAL_GRID)
            texture = rng.uniform(-0.5, 0.5, size=(cell, cell, 1))
            proto[r * cell:(r + 1) * cell, q * cell:(q + 1) * cell] += (
                spec.signal_amplitude * texture)

    def draw(per_class: int) -> ImageSet:
        # one noise draw fills the images in order, as one draw per image would
        images = np.repeat(prototypes, per_class, axis=0)
        if spec.noise_std > 0:
            images += rng.normal(0.0, spec.noise_std, size=images.shape)
        with np.errstate(over="ignore"):
            images = images.astype(np.float32)
        if not np.isfinite(images).all():
            raise ConfigError(f"noise_std {spec.noise_std} overflows float32 pixels")
        return ImageSet(images=images,
                        labels=np.repeat(np.arange(spec.num_classes, dtype=np.int64),
                                         per_class))

    return SynthDataset(spec=spec, train=draw(spec.train_per_class),
                        test=draw(spec.test_per_class))


# ---- augmentation ------------------------------------------------------------


@dataclass
class AugmentConfig:
    flip: bool = True
    crop_size: int = 32
    resize_to: int = 32

    def __post_init__(self):
        if self.crop_size < 1 or self.resize_to < 1:
            raise ConfigError("crop_size and resize_to must be positive")
        if self.crop_size > self.resize_to:
            raise ConfigError(
                f"crop {self.crop_size} larger than resized image {self.resize_to}")


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Plain bilinear resampling of an HxWxC array (half-pixel centers)."""
    h, w, _ = image.shape
    if (h, w) == (out_h, out_w):
        return image.astype(np.float32, copy=True)
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = image[y0][:, x0] * (1 - wx) + image[y0][:, x1] * wx
    bottom = image[y1][:, x0] * (1 - wx) + image[y1][:, x1] * wx
    return (top * (1 - wy) + bottom * wy).astype(np.float32)


def augment(image: np.ndarray, cfg: AugmentConfig,
            rng: np.random.Generator | None = None) -> np.ndarray:
    """Resize, crop (random in training, centered otherwise), maybe flip.

    Training mode is given an RNG; without one (evaluation mode) the crop
    is centered, nothing is flipped, and the result is deterministic.
    """
    resized = bilinear_resize(image, cfg.resize_to, cfg.resize_to)
    span = cfg.resize_to - cfg.crop_size
    if rng is not None:
        oy = int(rng.integers(0, span + 1))
        ox = int(rng.integers(0, span + 1))
    else:
        oy = ox = span // 2
    out = resized[oy:oy + cfg.crop_size, ox:ox + cfg.crop_size, :]
    if rng is not None and cfg.flip and rng.random() < 0.5:
        out = out[:, ::-1, :]
    return np.ascontiguousarray(out)


# ---- disk format --------------------------------------------------------------


def save_dataset(dataset: SynthDataset, directory) -> None:
    """Manifest JSON plus one FTZ file per image.

    Each manifest item records file, label, and split ("train"/"test").
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    items = []
    for split_name, split in (("train", dataset.train), ("test", dataset.test)):
        for i in range(len(split)):
            filename = f"{split_name}_{i:05d}.ftz"
            ftz.write(directory / filename, split.images[i])
            items.append({"file": filename, "label": int(split.labels[i]),
                          "split": split_name})
    ftz.write_manifest(directory, {"classes": dataset.num_classes,
                                   "spec": dataset.spec.__dict__, "items": items})


def load_dataset(directory) -> SynthDataset:
    directory = Path(directory)
    manifest = ftz.read_manifest(directory / "manifest.json", "dataset")
    spec = ftz.build_from(SynthSpec, manifest.get("spec"), "dataset spec")
    classes = manifest.get("classes")
    if type(classes) is not int or classes != spec.num_classes:
        raise ConfigError(f"dataset manifest classes {classes!r} does not match "
                          f"the spec's num_classes {spec.num_classes}")
    items = manifest.get("items")
    if not isinstance(items, list):
        raise ConfigError(f"dataset manifest items must be a list, got {items!r}")
    splits: dict[str, tuple[list, list]] = {"train": ([], []), "test": ([], [])}
    expected = (spec.image_size, spec.image_size, 1)
    for item in items:
        if not isinstance(item, dict) or not isinstance(item.get("file"), str):
            raise ConfigError(f"malformed dataset manifest item {item!r}")
        split = item.get("split")
        if not isinstance(split, str) or split not in splits:
            raise ConfigError(f"item {item['file']!r} has split {split!r}, "
                              f"not \"train\" or \"test\"")
        label = item.get("label")
        if type(label) is not int or not 0 <= label < spec.num_classes:
            raise ConfigError(f"item {item['file']!r} has label {label!r} outside "
                              f"[0, {spec.num_classes})")
        image = ftz.read_entry(directory, item["file"], "dataset", np.float32)
        if image.shape != expected:
            raise ConfigError(f"{directory / item['file']}: image shape {image.shape} "
                              f"does not match the spec's {expected}")
        images, labels = splits[split]
        images.append(image)
        labels.append(label)

    def pack(split: str) -> ImageSet:
        images, labels = splits[split]
        return ImageSet(images=np.stack(images) if images else
                        np.empty((0, *expected), np.float32),
                        labels=np.asarray(labels, dtype=np.int64))

    return SynthDataset(spec=spec, train=pack("train"), test=pack("test"))
