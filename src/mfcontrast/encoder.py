"""Conformer-style encoder with a stride-2 subsampling frontend that exposes
the output feature map of every block.

``_encoder_fwd`` takes a (B, T, F) feature batch and returns the list of
per-block maps ("taps"), each (B, T', model_dim) with T' = (T - 1) // 2 + 1,
shallow to deep; tap k is exactly the input of block k+1. Its pieces
(``_frontend_fwd``, ``_block_fwd`` and the block's sub-modules) work on the
same batch layout. Each ``*_fwd`` records its ops on an ``nn.Tape`` and
returns that tape as its cache; the matching backward replays it, and a
block's tape replays its sub-modules' tapes. Only the attention core
(``_attention_fwd``/``_attention_bwd``) has a hand-written backward. An
eval-mode forward records nothing.

Parameters live in a flat ``{name: array}`` dict under the ``encoder.``
prefix; batch-norm running statistics live in a separate state dict, which
a train-mode forward updates in place and an eval-mode one only reads. Naming
is stable (see ``init_encoder_params``) so checkpoints can be inspected and
diffed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .features import LengthError
from .nn import ShapeError

FRONTEND_KERNEL = 3
FRONTEND_STRIDE = 2
# fewest filterbank frames the encoder takes
MIN_FRAMES = 4
# attention heads per self-attention module
NUM_HEADS = 4
# hidden width of each feed-forward module, in multiples of model_dim
FF_EXPANSION = 2


@dataclass
class EncoderConfig:
    """The desk preset's encoder; ``model_dim`` must divide by ``NUM_HEADS``,
    which also makes it even, as the sinusoidal positions need."""

    num_blocks: int = 2
    model_dim: int = 64
    conv_kernel: int = 7
    dropout: float = 0.0
    input_dim: int = 80

    def __post_init__(self):
        for name in ("num_blocks", "model_dim", "conv_kernel", "input_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.model_dim % NUM_HEADS != 0:
            raise ValueError(f"model_dim must be divisible by {NUM_HEADS} (NUM_HEADS)")
        if self.conv_kernel % 2 != 1:
            raise ValueError("conv_kernel must be odd")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


def _init_ln(params, prefix, dim):
    params[f"{prefix}.gamma"] = np.ones(dim)
    params[f"{prefix}.beta"] = np.zeros(dim)


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator):
    """Fresh encoder parameters and batch-norm state.

    Naming scheme:
      encoder.frontend.{w,b}
      encoder.block<i>.ffn1.{ln.gamma,ln.beta,w1,b1,w2,b2}
      encoder.block<i>.attn.{ln.*,wq,bq,wk,wv,bv,wo,bo}
      encoder.block<i>.conv.{ln.*,pw1.w,pw1.b,dw.w,bn.gamma,bn.beta,pw2.w,pw2.b}
      encoder.block<i>.ffn2.{...}
      encoder.block<i>.ln_out.{gamma,beta}
    State: encoder.block<i>.conv.bn.{running_mean,running_var}
    There is no key bias, which the softmax over keys cancels, and no
    depthwise bias, which the batch norm after it removes.
    """
    d = cfg.model_dim
    dff = d * FF_EXPANSION
    params: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}
    params["encoder.frontend.w"] = nn.xavier_uniform(
        rng, FRONTEND_KERNEL * cfg.input_dim, d, (FRONTEND_KERNEL, cfg.input_dim, d))
    params["encoder.frontend.b"] = np.zeros(d)
    for i in range(cfg.num_blocks):
        pre = f"encoder.block{i}"
        for ffn in ("ffn1", "ffn2"):
            _init_ln(params, f"{pre}.{ffn}.ln", d)
            params[f"{pre}.{ffn}.w1"] = nn.xavier_uniform(rng, d, dff)
            params[f"{pre}.{ffn}.b1"] = np.zeros(dff)
            params[f"{pre}.{ffn}.w2"] = nn.xavier_uniform(rng, dff, d)
            params[f"{pre}.{ffn}.b2"] = np.zeros(d)
        _init_ln(params, f"{pre}.attn.ln", d)
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{pre}.attn.{name}"] = nn.xavier_uniform(rng, d, d)
            if name != "wk":
                params[f"{pre}.attn.{name.replace('w', 'b')}"] = np.zeros(d)
        _init_ln(params, f"{pre}.conv.ln", d)
        params[f"{pre}.conv.pw1.w"] = nn.xavier_uniform(rng, d, 2 * d)
        params[f"{pre}.conv.pw1.b"] = np.zeros(2 * d)
        params[f"{pre}.conv.dw.w"] = nn.xavier_uniform(
            rng, cfg.conv_kernel, 1, (cfg.conv_kernel, d)) / np.sqrt(d)
        params[f"{pre}.conv.bn.gamma"] = np.ones(d)
        params[f"{pre}.conv.bn.beta"] = np.zeros(d)
        params[f"{pre}.conv.pw2.w"] = nn.xavier_uniform(rng, d, d)
        params[f"{pre}.conv.pw2.b"] = np.zeros(d)
        _init_ln(params, f"{pre}.ln_out", d)
        state[f"{pre}.conv.bn.running_mean"] = np.zeros(d)
        state[f"{pre}.conv.bn.running_var"] = np.ones(d)
    return params, state


# ---------------------------------------------------------------------------
# frontend


def _frontend_fwd(x, params, mode):
    tape = nn.Tape(params, mode)
    y = tape.op(nn.strided_conv1d_fwd, nn.strided_conv1d_bwd, x,
                "encoder.frontend.w", "encoder.frontend.b", stride=FRONTEND_STRIDE)
    y = tape.op(nn.silu_fwd, nn.silu_bwd, y)
    return y + nn.sinusoidal_positions(y.shape[1], y.shape[2], y.dtype), tape


# ---------------------------------------------------------------------------
# block sub-modules


def _ffn_fwd(x, params, pre, drop, mode, rng):
    tape = nn.Tape(params, mode)
    h = tape.op(nn.layer_norm_fwd, nn.layer_norm_bwd, x, f"{pre}.ln.gamma", f"{pre}.ln.beta")
    h = tape.op(nn.linear_fwd, nn.linear_bwd, h, f"{pre}.w1", f"{pre}.b1")
    h = tape.op(nn.silu_fwd, nn.silu_bwd, h)
    h = tape.op(nn.dropout_fwd, nn.dropout_bwd, h, rate=drop, mode=mode, rng=rng)
    h = tape.op(nn.linear_fwd, nn.linear_bwd, h, f"{pre}.w2", f"{pre}.b2")
    h = tape.op(nn.dropout_fwd, nn.dropout_bwd, h, rate=drop, mode=mode, rng=rng)
    return h, tape


# attention scores are computed in blocks of batch rows holding at most this
# many bytes of scores, so a block's scores, which the softmax normalises in
# place, stay in a 2 MiB per-core L2 cache
_SCORE_BLOCK_BYTES = 1 << 20


def _score_blocks(rows, row_bytes):
    """Slices that split ``rows`` batch rows, in order, into blocks of as
    many rows as fit in _SCORE_BLOCK_BYTES, or of one row where a single row
    holds more."""
    size = max(1, _SCORE_BLOCK_BYTES // row_bytes)
    return [slice(i, i + size) for i in range(0, rows, size)]


def _heads(a, num_heads):
    """(B, T, D) -> a (B, H, T, D / H) view."""
    bsz, t, d = a.shape
    return a.reshape(bsz, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _attention_fwd(h, wq, bq, wk, wv, bv, num_heads, drop, mode, rng):
    """Multi-head scaled dot-product self-attention of the (B, T, D) map h,
    up to the output projection: (B, T, D) concatenated head contexts.

    The projections run on the whole batch; scores, softmax, dropout and
    context run per block of batch rows (``_score_blocks``). Dropout masks
    are drawn block by block in row order, so they equal one draw over the
    whole batch, and the softmax sums run per batch row (``nn``'s batch
    invariance), so the output does not depend on the block partition."""
    bsz, t, d = h.shape
    q, c_q = nn.linear_fwd(h, wq, bq)
    k, c_k = nn.linear_fwd(h, wk, None)
    v, c_v = nn.linear_fwd(h, wv, bv)
    qh, kh, vh = (_heads(a, num_heads) for a in (q, k, v))
    # a Python float: an np.float64 scale would promote float32 scores
    scale = 1.0 / math.sqrt(d // num_heads)
    ctx = np.empty(q.shape, q.dtype)
    ctx_h = _heads(ctx, num_heads)
    blocks = []
    for rows in _score_blocks(bsz, num_heads * t * t * q.itemsize):
        scores = qh[rows] @ kh[rows].transpose(0, 1, 3, 2)
        scores *= scale
        attn, c_sm = nn.softmax_fwd(scores)
        attn_d, c_dp = nn.dropout_fwd(attn, drop, mode, rng)
        np.matmul(attn_d, vh[rows], out=ctx_h[rows])
        blocks.append((rows, c_sm, c_dp, attn_d))
    return ctx, (c_q, c_k, c_v, qh, kh, vh, blocks, scale)


def _attention_bwd(dctx, cache):
    """Gradients for h, wq, bq, wk, wv, bv."""
    c_q, c_k, c_v, qh, kh, vh, blocks, scale = cache
    num_heads = qh.shape[1]
    dq, dk, dv = (np.empty(dctx.shape, dctx.dtype) for _ in range(3))
    dctx = _heads(dctx, num_heads)
    dqh, dkh, dvh = (_heads(a, num_heads) for a in (dq, dk, dv))
    for rows, c_sm, c_dp, attn_d in blocks:
        dattn = nn.dropout_bwd(dctx[rows] @ vh[rows].transpose(0, 1, 3, 2), c_dp)
        np.matmul(attn_d.transpose(0, 1, 3, 2), dctx[rows], out=dvh[rows])
        dscores = nn.softmax_bwd(dattn, c_sm)
        dscores *= scale
        np.matmul(dscores, kh[rows], out=dqh[rows])
        np.matmul(dscores.transpose(0, 1, 3, 2), qh[rows], out=dkh[rows])
    dxq, dwq, dbq = nn.linear_bwd(dq, c_q)
    dxk, dwk, _ = nn.linear_bwd(dk, c_k)
    dxv, dwv, dbv = nn.linear_bwd(dv, c_v)
    return dxq + dxk + dxv, dwq, dbq, dwk, dwv, dbv


def _mhsa_fwd(x, params, pre, num_heads, drop, mode, rng):
    tape = nn.Tape(params, mode)
    h = tape.op(nn.layer_norm_fwd, nn.layer_norm_bwd, x, f"{pre}.ln.gamma", f"{pre}.ln.beta")
    h = tape.op(_attention_fwd, _attention_bwd, h,
                *(f"{pre}.{n}" for n in ("wq", "bq", "wk", "wv", "bv")),
                num_heads=num_heads, drop=drop, mode=mode, rng=rng)
    h = tape.op(nn.linear_fwd, nn.linear_bwd, h, f"{pre}.wo", f"{pre}.bo")
    h = tape.op(nn.dropout_fwd, nn.dropout_bwd, h, rate=drop, mode=mode, rng=rng)
    return h, tape


def _convmod_fwd(x, params, pre, state, drop, mode, rng):
    tape = nn.Tape(params, mode)
    h = tape.op(nn.layer_norm_fwd, nn.layer_norm_bwd, x, f"{pre}.ln.gamma", f"{pre}.ln.beta")
    h = tape.op(nn.linear_fwd, nn.linear_bwd, h, f"{pre}.pw1.w", f"{pre}.pw1.b")
    h = tape.op(nn.glu_fwd, nn.glu_bwd, h)
    h = tape.op(nn.depthwise_conv1d_fwd, nn.depthwise_conv1d_bwd, h, f"{pre}.dw.w")
    h = tape.op(nn.batch_norm_fwd, nn.batch_norm_bwd, h, f"{pre}.bn.gamma", f"{pre}.bn.beta",
                running_mean=state[f"{pre}.bn.running_mean"],
                running_var=state[f"{pre}.bn.running_var"], mode=mode)
    h = tape.op(nn.silu_fwd, nn.silu_bwd, h)
    h = tape.op(nn.linear_fwd, nn.linear_bwd, h, f"{pre}.pw2.w", f"{pre}.pw2.b")
    h = tape.op(nn.dropout_fwd, nn.dropout_bwd, h, rate=drop, mode=mode, rng=rng)
    return h, tape


# each module's backward replays its tape; one name per module lets a
# profiler tell them apart
_frontend_bwd = _ffn_bwd = _mhsa_bwd = _convmod_bwd = nn.replay


def _residual(module_bwd, scale):
    """Backward of the branch x + scale * module(x), for ``Tape.module``
    with the module's tape."""
    def bwd(dy, tape, grads):
        return dy + module_bwd(dy if scale == 1.0 else scale * dy, tape, grads)
    return bwd


def _block_fwd(x, params, pre, cfg, state, mode, rng):
    # macaron layout: half-step FFN, self-attention, convolution, half-step
    # FFN, closing layer norm; every branch is residual
    tape = nn.Tape(params, mode)
    f, sub = _ffn_fwd(x, params, f"{pre}.ffn1", cfg.dropout, mode, rng)
    tape.module(_residual(_ffn_bwd, 0.5), sub)
    x = x + 0.5 * f
    at, sub = _mhsa_fwd(x, params, f"{pre}.attn", NUM_HEADS, cfg.dropout, mode, rng)
    tape.module(_residual(_mhsa_bwd, 1.0), sub)
    x = x + at
    cv, sub = _convmod_fwd(x, params, f"{pre}.conv", state, cfg.dropout, mode, rng)
    tape.module(_residual(_convmod_bwd, 1.0), sub)
    x = x + cv
    f, sub = _ffn_fwd(x, params, f"{pre}.ffn2", cfg.dropout, mode, rng)
    tape.module(_residual(_ffn_bwd, 0.5), sub)
    x = x + 0.5 * f
    out = tape.op(nn.layer_norm_fwd, nn.layer_norm_bwd, x,
                  f"{pre}.ln_out.gamma", f"{pre}.ln_out.beta")
    return out, tape


# ---------------------------------------------------------------------------
# whole encoder


def _encoder_fwd(feats, params, state, cfg, mode, rng=None):
    """feats (B, T, F) -> list of per-block maps and the tapes of the
    frontend and of each block. A train-mode call updates the batch-norm
    running statistics in ``state`` in place."""
    if feats.ndim != 3 or feats.shape[-1] != cfg.input_dim:
        raise ShapeError(
            f"expected (B, T, {cfg.input_dim}) features, got {feats.shape}")
    if feats.shape[1] < MIN_FRAMES:
        raise LengthError(f"frontend needs at least {MIN_FRAMES} frames")
    h, tape = _frontend_fwd(feats, params, mode)
    taps = []
    tapes = [tape]
    for i in range(cfg.num_blocks):
        h, tape = _block_fwd(h, params, f"encoder.block{i}", cfg, state, mode, rng)
        taps.append(h)
        tapes.append(tape)
    return taps, tapes


def _encoder_bwd(d_taps, tapes, grads):
    """Adds the encoder's parameter gradients into ``grads``, given the
    per-block upstream gradients d_taps (same shapes as the taps). Returns
    None: no gradient is computed for the input features."""
    d = d_taps[-1]
    for i in range(len(d_taps) - 1, -1, -1):
        d = tapes[i + 1].backward(d, grads)
        if i > 0:
            d = d + d_taps[i - 1]
    _frontend_bwd(d, tapes[0], grads)
