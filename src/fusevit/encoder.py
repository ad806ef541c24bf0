"""Patch embedding, class token, and transformer encoder layers.

Every layer exposes its head-averaged pre-softmax score matrix (scaled
query-key dot products) so token selection can run on raw attention scores
rather than post-softmax rows; see ``AttentionRecord``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError, ShapeError
from .selector import REGISTRY
from .tensor import (
    Tensor,
    add,
    concat_rows,
    gelu,
    layer_norm,
    matmul,
    reshape,
    scale,
    softmax,
    transpose,
)

LN_EPS = 1e-6
INIT_STD = 0.02


@dataclass
class ModelConfig:
    """All architecture hyperparameters for one model build."""

    image_h: int = 32
    image_w: int = 32
    channels: int = 1
    patch_size: int = 8
    embed_dim: int = 32
    layers: int = 4
    heads: int = 4
    mlp_dim: int = 128
    k: int = 4
    selector: str = "maws"
    num_classes: int = 5
    seed: int = 0
    head_layers: int = 1

    def __post_init__(self):
        for name in ("image_h", "image_w", "channels", "patch_size", "embed_dim",
                     "heads", "mlp_dim", "k", "num_classes", "head_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.layers < 2:
            raise ConfigError(f"need at least 2 layers, got {self.layers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self.selector = str(self.selector).lower()
        if self.selector not in REGISTRY:
            raise ConfigError(
                f"selector must be one of {tuple(REGISTRY)}, got {self.selector!r}")
        if self.num_patches < 1:
            raise ConfigError(
                f"patch size {self.patch_size} too large for "
                f"{self.image_h}x{self.image_w} images")
        if self.k > self.num_patches:
            raise ConfigError(
                f"cannot select k={self.k} tokens from {self.num_patches} patches")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by {self.heads} heads")

    @property
    def grid_h(self) -> int:
        return self.image_h // self.patch_size

    @property
    def grid_w(self) -> int:
        return self.image_w // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def seq_len(self) -> int:
        return self.num_patches + 1

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


@dataclass
class PatchEmbedding:
    """Linear patch projection plus class token and position table."""

    proj: Tensor      # (P*P*C) x D
    pos: Tensor       # (N+1) x D, row 0 is the class-token slot
    cls: Tensor       # D

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "embed.E", self.proj
        yield "embed.E_pos", self.pos
        yield "embed.x_class", self.cls


@dataclass
class EncoderLayer:
    """One pre-norm transformer block: attention then MLP, both residual."""

    ln1_gamma: Tensor
    ln1_beta: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named_parameters(self, index: int) -> Iterator[tuple[str, Tensor]]:
        base = f"layer.{index}"
        yield f"{base}.ln1.gamma", self.ln1_gamma
        yield f"{base}.ln1.beta", self.ln1_beta
        yield f"{base}.wq", self.wq
        yield f"{base}.wk", self.wk
        yield f"{base}.wv", self.wv
        yield f"{base}.wo", self.wo
        yield f"{base}.ln2.gamma", self.ln2_gamma
        yield f"{base}.ln2.beta", self.ln2_beta
        yield f"{base}.mlp.w1", self.w1
        yield f"{base}.mlp.b1", self.b1
        yield f"{base}.mlp.w2", self.w2
        yield f"{base}.mlp.b2", self.b2


@dataclass
class AttentionRecord:
    """Head-averaged pre-softmax scaled score matrix of one layer.

    Row/column 0 refer to the class token.
    """

    layer_index: int
    scores: Tensor


@dataclass
class EncoderTrace:
    """Per-layer hidden states and attention records for layers 1..L-1."""

    hidden: list[Tensor] = field(default_factory=list)
    attention: list[AttentionRecord] = field(default_factory=list)


# ---- parameter initialization ---------------------------------------------


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD,
                 dtype=np.float32) -> Tensor:
    """Normal(0, std) resampled until within two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return Tensor(out.astype(dtype), requires_grad=True, dtype=dtype)


def param_zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True, dtype=dtype)


def param_ones(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True, dtype=dtype)


def init_patch_embedding(cfg: ModelConfig, rng: np.random.Generator,
                         dtype=np.float32) -> PatchEmbedding:
    return PatchEmbedding(
        proj=trunc_normal(rng, (cfg.patch_dim, cfg.embed_dim), dtype=dtype),
        pos=trunc_normal(rng, (cfg.seq_len, cfg.embed_dim), dtype=dtype),
        cls=trunc_normal(rng, (cfg.embed_dim,), dtype=dtype),
    )


def init_encoder_layer(cfg: ModelConfig, rng: np.random.Generator,
                       dtype=np.float32) -> EncoderLayer:
    d, m = cfg.embed_dim, cfg.mlp_dim
    return EncoderLayer(
        ln1_gamma=param_ones((d,), dtype), ln1_beta=param_zeros((d,), dtype),
        wq=trunc_normal(rng, (d, d), dtype=dtype),
        wk=trunc_normal(rng, (d, d), dtype=dtype),
        wv=trunc_normal(rng, (d, d), dtype=dtype),
        wo=trunc_normal(rng, (d, d), dtype=dtype),
        ln2_gamma=param_ones((d,), dtype), ln2_beta=param_zeros((d,), dtype),
        w1=trunc_normal(rng, (d, m), dtype=dtype), b1=param_zeros((m,), dtype),
        w2=trunc_normal(rng, (m, d), dtype=dtype), b2=param_zeros((d,), dtype),
    )


# ---- forward operations ----------------------------------------------------


def patchify(image: Tensor, patch_size: int) -> Tensor:
    """Cut an HxWxC image, or a stack ``(..., H, W, C)`` of them, into a
    row-major grid of flattened patches.

    Trailing pixels beyond floor(H/P)*P (resp. W) are discarded; each patch
    is flattened row-major with channels fastest.
    """
    if image.ndim < 3:
        raise ShapeError(f"patchify expects HxWxC, got shape {image.shape}")
    *lead, h, w, c = image.shape
    p = int(patch_size)
    if p < 1 or p > h or p > w:
        raise ShapeError(f"patch size {p} does not fit a {h}x{w} image")
    gh, gw = h // p, w // p
    r = len(lead)
    arr = image.data[..., : gh * p, : gw * p, :]
    patches = (arr.reshape(*lead, gh, p, gw, p, c)
                  .transpose(*range(r), r, r + 2, r + 1, r + 3, r + 4)
                  .reshape(*lead, gh * gw, p * p * c))
    return Tensor._wrap(np.ascontiguousarray(patches))


def embed(patches: Tensor, pe: PatchEmbedding) -> Tensor:
    """Project patches, prepend the class token, add position embeddings.

    ``patches`` is ``(N, P*P*C)`` or a stack ``(..., N, P*P*C)``; the class
    token reaches every slice of a stack through a matmul with ones, which
    is exact.
    """
    *lead, n, _ = patches.data.shape
    if pe.pos.shape[0] != n + 1:
        raise ShapeError(
            f"position table has {pe.pos.shape[0]} rows, need {n + 1}")
    d = pe.proj.shape[1]
    cls_row = reshape(pe.cls, (1, d))
    if lead:
        cls_row = matmul(Tensor._wrap(np.ones((*lead, 1, 1), pe.cls.data.dtype)), cls_row)
    tokens = concat_rows([cls_row, matmul(patches, pe.proj)])
    return add(tokens, pe.pos)


def msa(z: Tensor, layer: EncoderLayer, heads: int, layer_index: int | None = None):
    """Multi-head self-attention with residual; also returns score capture.

    ``z`` is ``(S, D)`` or a stack ``(..., S, D)``. The heads are an axis: q
    and v split into ``(..., heads, S, dh)`` stacks, k into
    ``(..., heads, dh, S)``, and one batched attention runs every head of
    every slice.

    Returns ``(out, scores)``. ``scores`` is the head-averaged pre-softmax
    scaled dot-product matrix, ``(..., S, S)``, detached from the tape.
    """
    *lead, s, d = z.data.shape
    if d % heads != 0:
        raise ShapeError(f"width {d} not divisible by {heads} heads")
    dh = d // heads
    # axes that turn (..., S, heads, dh) into (..., heads, S, dh) and back,
    # and into (..., heads, dh, S)
    r = len(lead)
    swap = (*range(r), r + 1, r, r + 2)
    to_keys = (*range(r), r + 1, r + 2, r)

    zn = layer_norm(z, layer.ln1_gamma, layer.ln1_beta, LN_EPS)

    def split(w: Tensor, axes) -> Tensor:
        return transpose(reshape(matmul(zn, w), (*lead, s, heads, dh)), axes)

    q = split(layer.wq, swap)
    k_t = split(layer.wk, to_keys)
    v = split(layer.wv, swap)
    sh = scale(matmul(q, k_t), 1.0 / math.sqrt(dh))
    merged = reshape(transpose(matmul(softmax(sh), v), swap), (*lead, s, d))
    out = add(z, matmul(merged, layer.wo))

    where = f"layer {layer_index}" if layer_index is not None else "attention block"
    out.assert_finite(f"attention output of {where}")

    return out, Tensor._wrap(sh.data.sum(axis=-3) / heads)


def mlp(z: Tensor, layer: EncoderLayer) -> Tensor:
    hidden = gelu(add(matmul(z, layer.w1), layer.b1))
    return add(matmul(hidden, layer.w2), layer.b2)


def _block(z: Tensor, layer: EncoderLayer, heads: int, layer_index):
    attended, scores = msa(z, layer, heads, layer_index)
    normed = layer_norm(attended, layer.ln2_gamma, layer.ln2_beta, LN_EPS)
    return add(attended, mlp(normed, layer)), scores


def encoder_layer(z: Tensor, layer: EncoderLayer, heads: int,
                  layer_index: int | None = None):
    """Full transformer block; returns (output, attention scores)."""
    return _block(z, layer, heads, layer_index)


def forward_collect(z0: Tensor, layers: list[EncoderLayer], heads: int) -> EncoderTrace:
    """Run layers 1..L-1, recording every hidden state and score matrix."""
    if not layers:
        raise ConfigError("forward_collect needs at least one encoder layer")
    trace = EncoderTrace()
    z = z0
    for i, layer in enumerate(layers, start=1):
        z, scores = _block(z, layer, heads, i)
        trace.hidden.append(z)
        trace.attention.append(AttentionRecord(layer_index=i, scores=scores))
    return trace
