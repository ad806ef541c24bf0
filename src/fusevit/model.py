"""Fused-sequence assembly, the final transformer layer, and the full model.

The forward pass runs layers 1..L-1 over the patch sequence, selects the
top-k tokens of every layer from its attention scores, and feeds the last
layer a short sequence: the layer-(L-1) class token followed by each layer's
selected tokens in layer order. The classifier reads only the class-token
output of that last layer, so that layer computes only that row.

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
    EncoderTrace,
    ModelConfig,
    embed,
    encoder_layer,
    forward_collect,
    patchify,
)
from .errors import ConfigError, ShapeError, TraceMismatchError
from .selector import SelectionResult, select_per_layer
from .tensor import (
    Tensor,
    add,
    concat_rows,
    gather_rows,
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
    for layer, (hidden, sel) in enumerate(zip(trace.hidden, selections), start=1):
        count = hidden.data.shape[-2]
        idx = np.asarray(sel.indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise TraceMismatchError(
                f"selection indices must be integers, got {idx.dtype} at layer {layer}")
        outside = idx[(idx < 1) | (idx >= count)]
        if outside.size:
            raise TraceMismatchError(
                f"selected token {outside[0]} outside 1..{count - 1} at layer {layer}")
        parts.append(gather_rows(hidden, idx))
    return FusedSequence(tokens=concat_rows(parts))


# ---- parameters -------------------------------------------------------------

INIT_STD = 0.02


def parameter_shapes(cfg: ModelConfig) -> list[tuple[str, str, tuple[int, ...], str]]:
    """Every parameter as ``(group, key, shape, init)``, in checkpoint order.

    The checkpoint name is ``group.key``; ``init`` is "zeros", "ones" or
    "normal", which ``build`` draws with ``trunc_normal`` in this order.
    """
    d, m = cfg.embed_dim, cfg.mlp_dim
    table = [("embed", "E", (cfg.patch_dim, d), "normal"),
             ("embed", "E_pos", (cfg.seq_len, d), "normal"),  # row 0: class-token slot
             ("embed", "x_class", (d,), "normal")]
    for i in range(1, cfg.layers + 1):
        table += [(f"layer.{i}", key, shape, init) for key, shape, init in (
            ("ln1.gamma", (d,), "ones"), ("ln1.beta", (d,), "zeros"),
            ("wq", (d, d), "normal"), ("wk", (d, d), "normal"),
            ("wv", (d, d), "normal"), ("wo", (d, d), "normal"),
            ("ln2.gamma", (d,), "ones"), ("ln2.beta", (d,), "zeros"),
            ("mlp.w1", (d, m), "normal"), ("mlp.b1", (m,), "zeros"),
            ("mlp.w2", (m, d), "normal"), ("mlp.b2", (d,), "zeros"))]
    return table + [("head", "ln.gamma", (d,), "ones"), ("head", "ln.beta", (d,), "zeros"),
                    ("head", "0.w", (d, cfg.num_classes), "normal"),
                    ("head", "0.b", (cfg.num_classes,), "zeros")]


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) resampled until within two standard deviations."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > 2.0 * INIT_STD
    while bad.any():
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * INIT_STD
    return out


class FuseVitModel:
    """Encoder stack, token selector, fusion, and classifier head.

    ``params[group][key]`` holds each parameter of ``parameter_shapes``;
    ``embedder``, ``layers`` and ``head`` are its groups.
    """

    def __init__(self, cfg: ModelConfig, source, dtype):
        """Walk ``parameter_shapes(cfg)``, taking each array from
        ``source(name, shape, init)`` and casting it to ``dtype`` at once."""
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        if self.dtype not in ftz.NAMES:  # what a checkpoint can name
            raise ConfigError(f"model dtype must be float32 or float64, got {self.dtype}")
        self.params: dict[str, dict[str, Tensor]] = {}
        for group, key, shape, init in parameter_shapes(cfg):
            array = source(f"{group}.{key}", shape, init)
            self.params.setdefault(group, {})[key] = Tensor(array, requires_grad=True,
                                                            dtype=self.dtype)
        self.embedder = self.params["embed"]
        self.layers = [self.params[f"layer.{i}"] for i in range(1, cfg.layers + 1)]
        self.head = self.params["head"]

    @classmethod
    def build(cls, cfg: ModelConfig, dtype=np.float32) -> "FuseVitModel":
        """Construct with seeded truncated-normal init; reproducible per config.

        Each float64 draw is written at once into a ``dtype`` array made
        before it, so the draw's temporaries are freed last (lower peak RSS).
        """
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))

        def draw(_name, shape, init):
            out = np.empty(shape, dtype)
            if init == "normal":
                out[...] = trunc_normal(rng, shape)
            else:
                out[...] = 1.0 if init == "ones" else 0.0
            return out

        return cls(cfg, draw, dtype)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for group, params in self.params.items():
            for key, p in params.items():
                yield f"{group}.{key}", p

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    # ---- forward passes --------------------------------------------------

    def _check_image(self, image: Tensor) -> Tensor:
        expected = (self.cfg.image_h, self.cfg.image_w, self.cfg.channels)
        if not isinstance(image, Tensor):
            image = Tensor(image, dtype=self.dtype)
        if image.ndim not in (3, 4) or image.shape[-3:] != expected:
            raise ShapeError(
                f"image shape {image.shape} does not match {expected} or (B, *{expected})")
        if image.dtype != self.dtype:
            image = Tensor(image.data, dtype=self.dtype)
        return image

    def _encode(self, image) -> EncoderTrace:
        """Check the image, embed its patches and run layers 1..L-1."""
        cfg = self.cfg
        image = self._check_image(image)
        z0 = embed(patchify(image, cfg.patch_size), self.embedder)
        return forward_collect(z0, self.layers[:-1], cfg.heads)

    def _final(self, tokens: Tensor) -> Tensor:
        """Layer L's class row over ``tokens``, then the classifier head."""
        cfg = self.cfg
        x = encoder_layer(tokens, self.layers[-1], cfg.heads, layer_index=cfg.layers)
        x = layer_norm(x, self.head["ln.gamma"], self.head["ln.beta"])
        x = add(matmul(x, self.head["0.w"]), self.head["0.b"])
        return reshape(x, (*tokens.data.shape[:-2], cfg.num_classes))

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
        "dtype": ftz.NAMES[model.dtype],
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
    if type(dtype_name) is not str or dtype_name not in ftz.DTYPES:  # a list is unhashable
        raise ConfigError(f'checkpoint dtype must be "f32" or "f64", got {dtype_name!r}')
    dtype = ftz.DTYPES[dtype_name].newbyteorder("=")
    names = {f"{group}.{key}" for group, key, _, _ in parameter_shapes(cfg)}
    missing = sorted(names - set(files))
    extra = sorted(set(files) - names)
    if missing or extra:
        raise ConfigError(
            f"checkpoint/config mismatch: missing params {missing}, unknown {extra}")

    def read(name, shape, _init):
        if not isinstance(files[name], str):
            raise ConfigError(f"checkpoint params {name} must name a file, got {files[name]!r}")
        arr = ftz.read(directory / files[name], dtype)
        if arr.shape != shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {arr.shape}, config implies {shape}")
        return arr

    return FuseVitModel(cfg, read, dtype)
