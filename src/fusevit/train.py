"""Mini-batch SGD with momentum, cosine annealing, and evaluation.

Three independently derived RNG streams (parameter init, batch shuffling,
augmentation) hang off the master seeds, so toggling augmentation never
perturbs initialization and same-seed runs produce identical loss curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .data import AugmentConfig, ImageSet, SynthDataset, augment
from .encoder import ModelConfig
from .errors import ConfigError, NumericError
from .model import FuseVitModel
from .tensor import Tape, Tensor, cross_entropy, scale, sum_all

CSV_HEADER = "step,lr,loss,acc"
# attention scores in one inference chunk's (B, heads, S, S) stack: 64 MB in
# f32, so a desk test split is one chunk and a paper-shape chunk 2 images
CHUNK_SCORES = 2**24


@dataclass
class TrainConfig:
    lr0: float = 5e-4
    momentum: float = 0.9
    total_steps: int = 500
    batch_size: int = 8
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if not 0 < self.lr0 < math.inf:
            raise ConfigError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be positive, got {self.total_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def cosine_lr(step: int, total: int, lr0: float) -> float:
    """Cosine annealing from lr0 at step 0 down to 0 at step == total."""
    if total < 1:
        raise ConfigError(f"total must be >= 1, got {total}")
    if not 0 <= step <= total:
        raise ConfigError(f"step {step} outside [0, {total}]")
    return lr0 * (1.0 + math.cos(math.pi * step / total)) / 2.0


def sgd_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
             velocities: Sequence[np.ndarray], lr: float, momentum: float):
    """Classic momentum: v <- momentum*v + g, p <- p - lr*v. Pure.

    Velocity accumulates even at lr 0; momentum 0 is vanilla SGD.
    """
    if not (len(params) == len(grads) == len(velocities)):
        raise ConfigError("params, grads, velocities must align")
    new_params, new_velocities = [], []
    for p, g, v in zip(params, grads, velocities):
        if p.shape != g.shape or p.shape != v.shape:
            raise ConfigError(
                f"sgd_step shape mismatch: p{p.shape} g{g.shape} v{v.shape}")
        nv = momentum * v + g
        new_params.append(p - lr * nv)
        new_velocities.append(nv)
    return new_params, new_velocities


@dataclass
class LogRow:
    step: int
    lr: float
    loss: float
    acc: float


@dataclass
class TrainLog:
    rows: list[LogRow] = field(default_factory=list)

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines += [f"{r.step},{r.lr!r},{r.loss!r},{r.acc!r}" for r in self.rows]
        return "\n".join(lines) + "\n"


def _batches(count: int, batch_size: int, rng: np.random.Generator) -> Iterator[list[int]]:
    """Deterministic shuffled batches; reshuffles when an epoch runs out."""
    queue: list[int] = []
    while True:
        while len(queue) < batch_size:
            queue.extend(rng.permutation(count).tolist())
        yield queue[:batch_size]
        queue = queue[batch_size:]


# a diverging step ends in the typed checks below, not in numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def train(model: FuseVitModel, dataset: SynthDataset, cfg: TrainConfig) -> TrainLog:
    """Run the schedule; mutates the model in place and returns the log."""
    if len(dataset.train) == 0:
        raise ConfigError("training set is empty")
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    augment_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(2,)))
    batches = _batches(len(dataset.train), cfg.batch_size, shuffle_rng)

    named = list(model.named_parameters())
    velocities = [np.zeros_like(p.data) for _, p in named]

    log = TrainLog()
    for step in range(cfg.total_steps):
        lr = cosine_lr(step, cfg.total_steps, cfg.lr0)
        idx = next(batches)
        model.zero_grad()
        try:
            with Tape() as tape:
                # augment in batch order so the RNG draws follow the images
                images = np.stack([augment(dataset.train.images[i], cfg.augment,
                                           augment_rng) for i in idx])
                labels = dataset.train.labels[idx]
                result = model.forward(images)
                correct = int((np.argmax(result.logits.data, axis=-1) == labels).sum())
                loss = scale(sum_all(cross_entropy(result.logits, labels)), 1.0 / len(idx))
                # the hidden states then live only in the records, which backward frees
                del result
                loss_value = float(loss.data)
                if not np.isfinite(loss_value):
                    raise NumericError("non-finite loss")
                tape.backward(loss)
        except NumericError as exc:
            raise NumericError(f"{exc} at step {step}") from exc

        # the gradients live only in p.grad, which the next step's zero_grad frees
        new_params, velocities = sgd_step([p.data for _, p in named],
                                          [p.grad for _, p in named], velocities, lr,
                                          cfg.momentum)
        # a non-finite gradient always makes its new parameter non-finite
        for (name, p), arr in zip(named, new_params):
            if not np.isfinite(arr).all():
                what = "parameter" if np.isfinite(p.grad).all() else "gradient of"
                raise NumericError(f"non-finite {what} {name} at step {step}")
        for (_, p), arr in zip(named, new_params):
            p.data = arr

        log.rows.append(LogRow(step=step, lr=lr, loss=loss_value,
                               acc=correct / len(idx)))
    return log


def chunk_size(cfg: ModelConfig) -> int:
    """Images per inference stack for a model of this shape."""
    return max(1, CHUNK_SCORES // (cfg.heads * cfg.seq_len ** 2))


@dataclass
class EvalReport:
    accuracy: float
    per_class: list[float]
    class_counts: list[int]
    mean_loss: float


def evaluate(model, image_set: ImageSet, num_classes: int,
             aug: AugmentConfig | None = None) -> EvalReport:
    """Center-crop evaluation in stacks of ``chunk_size`` images, one
    ``model.forward`` per stack.

    Each image's float64 loss is added in image order, so the report does not
    depend on the chunking; argmax ties go to the lowest index.
    """
    if len(image_set) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    correct = np.zeros(num_classes, dtype=np.int64)
    totals = np.zeros(num_classes, dtype=np.int64)
    loss_sum = 0.0
    step = chunk_size(model.cfg)
    for lo in range(0, len(image_set), step):
        images = image_set.images[lo:lo + step]
        if aug is not None:
            images = np.stack([augment(img, aug) for img in images])
        labels = image_set.labels[lo:lo + step]
        logits = np.asarray(model.forward(images).logits.data, dtype=np.float64)
        if logits.shape[-1] != num_classes:
            raise ConfigError(f"model has {logits.shape[-1]} classes, dataset has {num_classes}")
        for loss in cross_entropy(Tensor._wrap(logits), labels).data.tolist():
            loss_sum += loss
        np.add.at(totals, labels, 1)
        np.add.at(correct, labels[np.argmax(logits, axis=-1) == labels], 1)
    per_class = [c / t if t else 0.0 for c, t in zip(correct.tolist(), totals.tolist())]
    return EvalReport(
        accuracy=float(correct.sum()) / float(totals.sum()),
        per_class=per_class,
        class_counts=totals.tolist(),
        mean_loss=loss_sum / len(image_set),
    )
