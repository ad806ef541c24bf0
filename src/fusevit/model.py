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
    """Input of the final layer: ``(R, D)``, or ``(B, R, D)`` for a stack.

    Row 0 is the class token of the deepest collected layer; the rows after
    it are each layer's selected tokens in layer order (see ``fuse``).
    """

    tokens: Tensor


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
    """Everything one forward pass produced.

    For one image ``logits`` is ``(C,)``; for a stack ``(B, H, W, C)`` every
    field gains the batch axis: ``(B, C)`` logits, ``(B, S, D)`` hidden
    states and ``(B, S, S)`` scores in the trace, ``(B, k)`` selection
    arrays, and ``(B, R, D)`` fused tokens.
    """

    logits: Tensor
    trace: EncoderTrace
    selections: list[SelectionResult]
    fused: FusedSequence


def init_classifier_head(cfg: ModelConfig, rng: np.random.Generator) -> ClassifierHead:
    d = cfg.embed_dim
    widths = [d] * (cfg.head_layers - 1) + [cfg.num_classes]
    affines = []
    prev = d
    for width in widths:
        affines.append((trunc_normal(rng, (prev, width)), param_zeros((width,))))
        prev = width
    return ClassifierHead(ln_gamma=param_ones((d,)), ln_beta=param_zeros((d,)),
                          affines=affines)


def fuse(trace: EncoderTrace, selections: list[SelectionResult]) -> FusedSequence:
    """Gather selected hidden rows into the final layer's input sequence.

    Row layout: class token of the last collected layer, then layer 1's k
    selected tokens, layer 2's, and so on; for a stack each image gathers
    its own rows. Rows are copies of the hidden states, not views.
    """
    if len(selections) != len(trace.hidden):
        raise TraceMismatchError(
            f"{len(selections)} selections for {len(trace.hidden)} traced layers")
    cls_rows = np.zeros((*trace.hidden[-1].data.shape[:-2], 1), dtype=np.intp)
    parts = [gather_rows(trace.hidden[-1], cls_rows)]
    for pos, sel in enumerate(selections, start=1):
        if sel.layer_index != pos:
            raise TraceMismatchError(
                f"selection for layer {sel.layer_index} found at trace position {pos}")
        hidden = trace.hidden[pos - 1]
        count = hidden.data.shape[-2]
        idx = np.asarray(sel.indices, dtype=np.intp)
        outside = idx[(idx < 1) | (idx >= count)]
        if outside.size:
            raise TraceMismatchError(
                f"selected token {outside[0]} outside 1..{count - 1} at layer {pos}")
        parts.append(gather_rows(hidden, idx))
    return FusedSequence(tokens=concat_rows(parts))


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
        """Construct with seeded truncated-normal init; reproducible per config.

        The draws are float64; each part is cast to ``dtype`` as soon as it
        is drawn, so at most one float64 part is held at a time.
        """
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))

        def cast(part, *index):
            for _, p in part.named_parameters(*index):
                p.data = p.data.astype(dtype, copy=False)
            return part

        embedder = cast(init_patch_embedding(cfg, rng))
        layers = [cast(init_encoder_layer(cfg, rng), i) for i in range(1, cfg.layers + 1)]
        head = cast(init_classifier_head(cfg, rng))
        return cls(cfg, embedder, layers, head, dtype)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.embedder.named_parameters()
        for i, layer in enumerate(self.layers, start=1):
            yield from layer.named_parameters(i)
        yield from self.head.named_parameters()

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    # ---- forward passes --------------------------------------------------

    def _check_image(self, image: Tensor) -> Tensor:
        expected = (self.cfg.image_h, self.cfg.image_w, self.cfg.channels)
        if not isinstance(image, Tensor):
            image = Tensor(np.asarray(image), dtype=self.dtype)
        if image.ndim not in (3, 4) or image.shape[-3:] != expected:
            raise ShapeError(
                f"image shape {image.shape} does not match {expected} or (B, *{expected})")
        if image.dtype != self.dtype:
            image = Tensor(image.data.astype(self.dtype), dtype=self.dtype)
        return image

    def _classify(self, final_tokens: Tensor) -> Tensor:
        lead = final_tokens.data.shape[:-2]
        cls_row = gather_rows(final_tokens, np.zeros((*lead, 1), dtype=np.intp))
        x = layer_norm(cls_row, self.head.ln_gamma, self.head.ln_beta)
        for i, (w, b) in enumerate(self.head.affines):
            if i:
                x = gelu(x)
            x = add(matmul(x, w), b)
        return reshape(x, (*lead, self.cfg.num_classes))

    def _encode(self, image) -> EncoderTrace:
        """Check the image, embed its patches and run layers 1..L-1."""
        cfg = self.cfg
        image = self._check_image(image)
        z0 = embed(patchify(image, cfg.patch_size), self.embedder)
        return forward_collect(z0, self.layers[:-1], cfg.heads)

    def _final(self, tokens: Tensor) -> Tensor:
        """Layer L over ``tokens``, then the classifier head."""
        cfg = self.cfg
        out, _ = encoder_layer(tokens, self.layers[-1], cfg.heads, layer_index=cfg.layers)
        return self._classify(out)

    def forward(self, image, frozen_selections: list[SelectionResult] | None = None
                ) -> ForwardResult:
        """Full selective-fusion forward pass.

        ``image`` is one ``(H, W, C)`` image or a stack ``(B, H, W, C)``; a
        stack runs as one batch and every result field gains its axis (see
        ``ForwardResult``). With selector "none" layer L reads the whole
        layer-(L-1) sequence, so the run is ``plain_forward``; its ``first_k``
        selections are still reported. ``frozen_selections`` bypasses the selector
        (used by gradient checks, which must hold indices fixed while
        perturbing parameters).
        """
        cfg = self.cfg
        trace = self._encode(image)
        if frozen_selections is not None:
            selections = frozen_selections
        else:
            selections = select_per_layer(trace, cfg.k, cfg.selector)
        if cfg.selector == "none":
            fused = FusedSequence(tokens=trace.hidden[-1])
        else:
            fused = fuse(trace, selections)
        return ForwardResult(logits=self._final(fused.tokens), trace=trace,
                             selections=selections, fused=fused)

    def plain_forward(self, image) -> Tensor:
        """Ablation baseline: all L layers over the full token sequence."""
        return self._final(self._encode(image).hidden[-1])


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
    dtype_name = manifest.get("dtype")
    if dtype_name not in ("f32", "f64"):
        raise ConfigError(f'checkpoint dtype must be "f32" or "f64", got {dtype_name!r}')
    dtype = np.float64 if dtype_name == "f64" else np.float32
    model = FuseVitModel.build(cfg, dtype)
    named = dict(model.named_parameters())
    missing = sorted(set(named) - set(files))
    extra = sorted(set(files) - set(named))
    if missing or extra:
        raise ConfigError(
            f"checkpoint/config mismatch: missing params {missing}, unknown {extra}")
    for name, tensor in named.items():
        if not isinstance(files[name], str):
            raise ConfigError(f"checkpoint params {name} must name a file, got {files[name]!r}")
        arr = ftz.read(directory / files[name])
        if arr.shape != tensor.shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {arr.shape}, "
                f"config implies {tensor.shape}")
        tensor.data = np.ascontiguousarray(arr.astype(dtype))
    return model
