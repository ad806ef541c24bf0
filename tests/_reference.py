"""Independent float64 numpy references shared by the test modules.

Each function here re-derives a piece of the plain ViT from its definition,
without the tape or the ops of ``fusevit.tensor``, so a test can hold the
engine against it. pytest does not collect this module; its name does not
start with ``test_``.
"""

import numpy as np
from scipy.special import erf

from fusevit.encoder import AttentionRecord, EncoderTrace
from fusevit.tensor import LN_EPS, Tensor

# the worked four-token example: row 0 favors token 3, column 0 is uniform
GAMMA = np.array([[1.0, 2.0, 3.0, 4.0],
                  [1.0, 2.0, 3.0, 4.0],
                  [1.0, 2.0, 3.0, 4.0],
                  [1.0, 4.0, 1.0, 1.0]])

# constructed so the two rankings disagree: token 1 attends strongly back to
# the class token (9 in column 0), token 3 only wins the class-token row
DIVERGENCE = np.array([[1.0, 2.0, 3.0, 4.0],
                       [9.0, 0.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0]])


def t64(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


def random_trace(rng, layers, n, d=4):
    """A trace of ``layers`` random ``(n+1, d)`` hidden states and
    ``(n+1, n+1)`` score matrices."""
    hidden = [t64(rng.standard_normal((n + 1, d))) for _ in range(layers)]
    records = [AttentionRecord(layer_index=i + 1,
                               scores=t64(rng.standard_normal((n + 1, n + 1))))
               for i in range(layers)]
    return EncoderTrace(hidden=hidden, attention=records)


def softmax(x):
    """Softmax over the last axis."""
    e = np.exp(np.asarray(x, dtype=np.float64) - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def attention(x, wq, wk, wv, wo, heads):
    """Multi-head self-attention over ``(S, D)`` tokens, one head at a time:
    ``(out, scores)``, ``scores`` the head-averaged scaled pre-softmax matrix."""
    q, k, v = x @ wq, x @ wk, x @ wv
    dh = x.shape[-1] // heads
    head_outs, scores = [], 0.0
    for lo in range(0, x.shape[-1], dh):
        sl = slice(lo, lo + dh)
        logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        scores = scores + logits / heads
        head_outs.append(softmax(logits) @ v[:, sl])
    return np.hstack(head_outs) @ wo, scores


def encoder_block(z, layer, heads):
    """One pre-norm block over ``(S, D)`` tokens, one attention head at a time."""
    p = {key: t.data for key, t in layer.items()}
    zn = layer_norm(z, p["ln1.gamma"], p["ln1.beta"])
    u = z + attention(zn, p["wq"], p["wk"], p["wv"], p["wo"], heads)[0]
    hidden = gelu(layer_norm(u, p["ln2.gamma"], p["ln2.beta"]) @ p["mlp.w1"] + p["mlp.b1"])
    return u + hidden @ p["mlp.w2"] + p["mlp.b2"]


def plain_vit(model, image):
    """The plain forward pass of ``model`` over one ``(H, W, C)`` image: all L
    layers over the whole sequence, then the head on the class token."""
    cfg = model.cfg
    p = cfg.patch_size
    gh, gw = cfg.image_h // p, cfg.image_w // p
    patches = (np.asarray(image, dtype=np.float64)[: gh * p, : gw * p, :]
               .reshape(gh, p, gw, p, cfg.channels)
               .transpose(0, 2, 1, 3, 4)
               .reshape(gh * gw, p * p * cfg.channels))
    pe = model.embedder
    z = np.vstack([pe["x_class"].data[None, :], patches @ pe["E"].data]) + pe["E_pos"].data
    for layer in model.layers:
        z = encoder_block(z, layer, cfg.heads)
    head = {key: t.data for key, t in model.head.items()}
    x = layer_norm(z[0], head["ln.gamma"], head["ln.beta"])
    return x @ head["0.w"] + head["0.b"]
