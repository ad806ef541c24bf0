"""Patch embedding, class token, and transformer encoder layers.

Layers 1..L-1 expose their head-averaged pre-softmax score matrices (scaled
query-key dot products) so token selection can run on raw attention scores
rather than post-softmax rows; see ``AttentionRecord``. Layer L computes only
the class row the head reads (``encoder_layer``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .selector import REGISTRY
from .tensor import (
    Tensor,
    add,
    attention,
    concat_rows,
    feedforward,
    gather_rows,
    layer_norm,
    matmul,
    reshape,
)


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
    head_layers: int = 1  # the head is one LayerNorm and one linear map; manifests name it

    def __post_init__(self):
        for name in ("image_h", "image_w", "channels", "patch_size", "embed_dim",
                     "heads", "mlp_dim", "k", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.head_layers != 1:
            raise ConfigError(f"head_layers must be 1, got {self.head_layers}")
        if self.layers < 2:
            raise ConfigError(f"need at least 2 layers, got {self.layers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.selector, str) or self.selector not in REGISTRY:
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
    def num_patches(self) -> int:
        return (self.image_h // self.patch_size) * (self.image_w // self.patch_size)

    @property
    def seq_len(self) -> int:
        return self.num_patches + 1

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


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


def embed(patches: Tensor, pe: dict[str, Tensor]) -> Tensor:
    """Project patches, prepend the class token, add position embeddings.

    ``patches`` is ``(N, P*P*C)`` or a stack ``(..., N, P*P*C)``; the class
    token reaches every slice of a stack through a matmul with ones, which
    is exact. ``E`` and ``E_pos`` may also be stacks with the patches'
    leading axes, one table per slice, and ``x_class`` a stack of
    ``(..., 1, D)`` rows, one per slice.
    """
    *lead, n, _ = patches.data.shape
    if pe["E_pos"].shape[-2] != n + 1:
        raise ShapeError(
            f"position table has {pe['E_pos'].shape[-2]} rows, need {n + 1}")
    d = pe["E"].shape[-1]
    cls_row = reshape(pe["x_class"], (*pe["x_class"].shape[:-2], 1, d))
    if lead:
        cls_row = matmul(Tensor._wrap(np.ones((*lead, 1, 1), pe["x_class"].dtype)), cls_row)
    tokens = concat_rows([cls_row, matmul(patches, pe["E"])])
    return add(tokens, pe["E_pos"])


def msa(z: Tensor, layer: dict[str, Tensor], heads: int, queries: int | None = None):
    """Pre-norm multi-head self-attention with residual over ``z``, ``(S, D)`` or a
    stack ``(..., S, D)``; returns ``(out, scores)``, the scores ``attention``'s.
    With ``queries``, only the first that many rows issue queries, and ``out``
    holds those rows only."""
    zn = layer_norm(z, layer["ln1.gamma"], layer["ln1.beta"])
    attended, scores = attention(zn, [layer[n] for n in ("wq", "wk", "wv", "wo")], heads,
                                 queries)
    if queries is not None:
        z = gather_rows(z, np.broadcast_to(np.arange(queries), (*z.shape[:-2], queries)))
    return add(z, attended), scores


def mlp(z: Tensor, layer: dict[str, Tensor]) -> Tensor:
    """The block's MLP over ``z``, one ``feedforward`` record."""
    return feedforward(z, (layer["mlp.w1"], layer["mlp.b1"], layer["mlp.w2"], layer["mlp.b2"]))


def _block(z: Tensor, layer: dict[str, Tensor], heads: int, layer_index: int,
           queries: int | None = None):
    """Full transformer block; returns (output, attention scores). With ``queries``,
    only the first that many rows issue queries, and the output holds those rows.
    An output that is not finite is a ``NumericError`` naming ``layer_index``."""
    attended, scores = msa(z, layer, heads, queries)
    normed = layer_norm(attended, layer["ln2.gamma"], layer["ln2.beta"])
    out = add(attended, mlp(normed, layer))
    if not np.isfinite(out.data).all():
        raise NumericError(f"non-finite values in the output of layer {layer_index}")
    return out, scores


def encoder_layer(z: Tensor, layer: dict[str, Tensor], heads: int, layer_index: int) -> Tensor:
    """Layer L, of which the head reads only the class token: ``_block``'s row 0,
    ``(..., 1, D)``, that row the one query against every row (CaiT's class attention)."""
    return _block(z, layer, heads, layer_index, queries=1)[0]


def forward_collect(z0: Tensor, layers: list[dict[str, Tensor]], heads: int) -> EncoderTrace:
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
