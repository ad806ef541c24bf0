"""fusevit: a vision transformer whose last layer reads tokens selected
from every earlier layer, plus the numerics to train and verify it.

The package is self-contained: tensors, reverse-mode autodiff, and a
finite-difference gradient oracle live in :mod:`fusevit.tensor`; the
encoder, token selectors, and fused model in :mod:`fusevit.encoder`,
:mod:`fusevit.selector`, :mod:`fusevit.model`; synthetic data and the
training loop in :mod:`fusevit.data` and :mod:`fusevit.train`.
"""

from .encoder import (
    AttentionRecord,
    EncoderLayer,
    EncoderTrace,
    ModelConfig,
    PatchEmbedding,
    embed,
    encoder_layer,
    forward_collect,
    msa,
    patchify,
)
from .data import AugmentConfig, ImageSet, SynthDataset, SynthSpec, augment, generate_synth
from .model import (
    ClassifierHead,
    ForwardResult,
    FusedSequence,
    FuseVitModel,
    fuse,
    load_checkpoint,
    save_checkpoint,
)
from .selector import SelectionResult, head_average, maws, saws, select_per_layer
from .tensor import (
    Tape,
    Tensor,
    backward,
    cross_entropy,
    finite_diff_check,
    gelu,
    layer_norm,
    matmul,
    precision,
    softmax,
)
from .train import TrainConfig, cosine_lr, evaluate, sgd_step, train

__version__ = "0.1.0"

__all__ = [
    "AttentionRecord", "AugmentConfig", "ClassifierHead", "EncoderLayer",
    "EncoderTrace", "ForwardResult", "FuseVitModel", "FusedSequence",
    "ImageSet", "ModelConfig", "PatchEmbedding", "SelectionResult",
    "SynthDataset", "SynthSpec", "Tape", "Tensor", "TrainConfig",
    "augment", "backward", "cosine_lr", "cross_entropy", "embed",
    "encoder_layer", "evaluate", "finite_diff_check",
    "forward_collect", "fuse", "gelu", "generate_synth", "head_average",
    "layer_norm", "load_checkpoint", "matmul", "maws", "msa", "patchify",
    "precision", "save_checkpoint", "saws",
    "select_per_layer", "sgd_step", "softmax", "train",
]
