"""Fused-sequence assembly, the final transformer layer, and the full model.

The forward pass runs layers 1..L-1 over the patch sequence, selects the
top-k tokens of every layer from its attention scores, and feeds the last
layer a short sequence: the layer-(L-1) class token followed by each layer's
selected tokens in layer order. The classifier reads only the class-token
output of that last layer.

Selection indices are hard (non-differentiable); gradients flow through the
gathered token values only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from . import ftz
from .encoder import (
    LN_EPS,
    EncoderLayer,
    EncoderTrace,
    ModelConfig,
    PatchEmbedding,
    embed,
    encoder_layer,
    forward_collect,
    init_encoder_layer,
    init_patch_embedding,
    patchify,
    trunc_normal,
)
from .encoder import param_ones, param_zeros
from .errors import ConfigError, ShapeError, TraceMismatchError
from .selector import SelectionResult, select_per_layer
from .tensor import (
    Tensor,
    add,
    concat_rows,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    reshape,
)


@dataclass
class FusedSequence:
    """Input of the final layer plus where each row came from.

    ``provenance[r] == (layer_index, token_index)``; row 0 is always the
    class token of the deepest collected layer.
    """

    tokens: Tensor
    provenance: list[tuple[int, int]]


@dataclass
class ClassifierHead:
    """Final layer-norm plus a stack of affine maps (GELU in between)."""

    ln_gamma: Tensor
    ln_beta: Tensor
    affines: list[tuple[Tensor, Tensor]]

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "head.ln.gamma", self.ln_gamma
        yield "head.ln.beta", self.ln_beta
        for i, (w, b) in enumerate(self.affines):
            yield f"head.{i}.w", w
            yield f"head.{i}.b", b


@dataclass
class ForwardResult:
    logits: Tensor
    trace: EncoderTrace
    selections: list[SelectionResult]
    fused: FusedSequence


def init_classifier_head(cfg: ModelConfig, rng: np.random.Generator,
                         dtype=np.float32) -> ClassifierHead:
    d = cfg.embed_dim
    widths = [d] * (cfg.head_layers - 1) + [cfg.num_classes]
    affines = []
    prev = d
    for width in widths:
        affines.append((trunc_normal(rng, (prev, width), dtype=dtype),
                        param_zeros((width,), dtype)))
        prev = width
    return ClassifierHead(ln_gamma=param_ones((d,), dtype),
                          ln_beta=param_zeros((d,), dtype), affines=affines)


def fuse(trace: EncoderTrace, selections: list[SelectionResult]) -> FusedSequence:
    """Gather selected hidden rows into the final layer's input sequence.

    Row layout: class token of the last collected layer, then layer 1's k
    selected tokens, layer 2's, and so on. Rows are copies of the hidden
    states, not views.
    """
    if len(selections) != len(trace.hidden):
        raise TraceMismatchError(
            f"{len(selections)} selections for {len(trace.hidden)} traced layers")
    last_index = len(trace.hidden)
    parts = [gather_rows(trace.hidden[-1], [0])]
    provenance: list[tuple[int, int]] = [(last_index, 0)]
    for pos, sel in enumerate(selections, start=1):
        if sel.layer_index != pos:
            raise TraceMismatchError(
                f"selection for layer {sel.layer_index} found at trace position {pos}")
        hidden = trace.hidden[pos - 1]
        rows = hidden.shape[0]
        for i in sel.indices:
            if not 1 <= i < rows:
                raise TraceMismatchError(
                    f"selected token {i} outside 1..{rows - 1} at layer {pos}")
        parts.append(gather_rows(hidden, sel.indices))
        provenance.extend((pos, i) for i in sel.indices)
    tokens = parts[0] if len(parts) == 1 else concat_rows(parts)
    return FusedSequence(tokens=tokens, provenance=provenance)


class FuseVitModel:
    """Encoder stack, token selector, fusion, and classifier head."""

    def __init__(self, cfg: ModelConfig, embedder: PatchEmbedding,
                 layers: list[EncoderLayer], head: ClassifierHead, dtype=np.float32):
        if len(layers) != cfg.layers:
            raise ConfigError(f"expected {cfg.layers} layers, got {len(layers)}")
        self.cfg = cfg
        self.embedder = embedder
        self.layers = layers
        self.head = head
        self.dtype = np.dtype(dtype)

    @classmethod
    def build(cls, cfg: ModelConfig, dtype=np.float32) -> "FuseVitModel":
        """Construct with seeded truncated-normal init; reproducible per config."""
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
        embedder = init_patch_embedding(cfg, rng, dtype)
        layers = [init_encoder_layer(cfg, rng, dtype) for _ in range(cfg.layers)]
        head = init_classifier_head(cfg, rng, dtype)
        return cls(cfg, embedder, layers, head, dtype)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.embedder.named_parameters()
        for i, layer in enumerate(self.layers, start=1):
            yield from layer.named_parameters(i)
        yield from self.head.named_parameters()

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ---- forward passes --------------------------------------------------

    def _check_image(self, image: Tensor) -> Tensor:
        expected = (self.cfg.image_h, self.cfg.image_w, self.cfg.channels)
        if not isinstance(image, Tensor):
            image = Tensor(np.asarray(image), dtype=self.dtype)
        if image.shape != expected:
            raise ShapeError(f"image shape {image.shape} does not match {expected}")
        if image.dtype != self.dtype:
            image = Tensor(image.data.astype(self.dtype), dtype=self.dtype)
        return image

    def _classify(self, final_tokens: Tensor) -> Tensor:
        cls_row = gather_rows(final_tokens, [0])
        x = layer_norm(cls_row, self.head.ln_gamma, self.head.ln_beta, LN_EPS)
        for i, (w, b) in enumerate(self.head.affines):
            if i:
                x = gelu(x)
            x = add(matmul(x, w), b)
        return reshape(x, (self.cfg.num_classes,))

    def forward(self, image, frozen_selections: list[SelectionResult] | None = None
                ) -> ForwardResult:
        """Full selective-fusion forward pass.

        With selector "none" the fusion step is a pass-through and the run
        reduces to a plain ViT. ``frozen_selections`` bypasses the selector
        (used by gradient checks, which must hold indices fixed while
        perturbing parameters).
        """
        cfg = self.cfg
        image = self._check_image(image)
        patches = patchify(image, cfg.patch_size)
        z0 = embed(patches, self.embedder)
        trace = forward_collect(z0, self.layers[:-1], cfg.heads)

        if frozen_selections is not None:
            selections = frozen_selections
        else:
            selections = select_per_layer(trace, cfg.k, cfg.selector)
        if frozen_selections is None and cfg.selector == "none":
            last = trace.hidden[-1]
            provenance = [(len(trace.hidden), i) for i in range(last.shape[0])]
            fused = FusedSequence(tokens=last, provenance=provenance)
        else:
            fused = fuse(trace, selections)

        final_tokens, _ = encoder_layer(fused.tokens, self.layers[-1], cfg.heads,
                                        layer_index=cfg.layers)
        logits = self._classify(final_tokens)
        return ForwardResult(logits=logits, trace=trace, selections=selections,
                             fused=fused)

    def plain_forward(self, image) -> Tensor:
        """Ablation baseline: all L layers over the full token sequence."""
        cfg = self.cfg
        image = self._check_image(image)
        z = embed(patchify(image, cfg.patch_size), self.embedder)
        for i, layer in enumerate(self.layers, start=1):
            z, _ = encoder_layer(z, layer, cfg.heads, layer_index=i)
        return self._classify(z)

    def predict_logits(self, image) -> np.ndarray:
        """Inference-only logits (never recorded on a tape)."""
        return self.forward(image).logits.data


# ---- checkpoints -------------------------------------------------------------


def save_checkpoint(model: FuseVitModel, directory) -> None:
    """Directory of FTZ tensors plus a manifest mapping names to files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    params = {}
    for name, tensor in model.named_parameters():
        filename = f"{name}.ftz"
        ftz.write(directory / filename, tensor.data)
        params[name] = filename
    manifest = {
        "config": asdict(model.cfg),
        "dtype": "f64" if model.dtype == np.float64 else "f32",
        "params": params,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_checkpoint(directory) -> FuseVitModel:
    directory = Path(directory)
    manifest = ftz.read_manifest(directory / "manifest.json", "checkpoint")
    cfg = ftz.build_from(ModelConfig, manifest.get("config"), "checkpoint config")
    files = manifest.get("params")
    if not isinstance(files, dict):
        raise ConfigError(f"checkpoint params must be a JSON object, got {files!r}")
    dtype = np.float64 if manifest.get("dtype") == "f64" else np.float32
    model = FuseVitModel.build(cfg, dtype)
    named = dict(model.named_parameters())
    missing = sorted(set(named) - set(files))
    extra = sorted(set(files) - set(named))
    if missing or extra:
        raise ConfigError(
            f"checkpoint/config mismatch: missing params {missing}, unknown {extra}")
    for name, tensor in named.items():
        arr = ftz.read(directory / files[name])
        if arr.shape != tensor.shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {arr.shape}, "
                f"config implies {tensor.shape}")
        tensor.data = np.ascontiguousarray(arr.astype(dtype))
    return model
