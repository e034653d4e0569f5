"""Conformer-style encoder with a stride-2 subsampling frontend that exposes
the output feature map of every block.

``_encoder_fwd`` takes a (B, T, F) feature batch and returns the list of
per-block maps ("taps"), each (B, T', model_dim) with T' = (T - 1) // 2 + 1,
shallow to deep; tap k is exactly the input of block k+1. Its pieces
(``_frontend_fwd``, ``_block_fwd`` and the block's sub-modules) work on the
same batch layout, and each ``*_fwd`` returns a cache that the matching
``*_bwd`` consumes.

Parameters live in a flat ``{name: array}`` dict under the ``encoder.``
prefix; batch-norm running statistics live in a separate state dict. Naming
is stable (see ``init_encoder_params``) so checkpoints can be inspected and
diffed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .features import LengthError
from .nn import ShapeError, accumulate

FRONTEND_KERNEL = 3
FRONTEND_STRIDE = 2


@dataclass
class EncoderConfig:
    num_blocks: int = 6
    model_dim: int = 64
    num_heads: int = 4
    ff_expansion: int = 4
    conv_kernel: int = 15
    dropout: float = 0.1
    input_dim: int = 80

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        if self.model_dim % 2 != 0:
            raise ValueError("model_dim must be even (positional encoding)")
        if self.conv_kernel % 2 != 1:
            raise ValueError("conv_kernel must be odd")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


def subsampled_length(t: int) -> int:
    """Output frame count of the stride-2 frontend: (T - 1) // 2 + 1."""
    p = (FRONTEND_KERNEL - 1) // 2
    return (t + 2 * p - FRONTEND_KERNEL) // FRONTEND_STRIDE + 1


def _init_ln(params, prefix, dim):
    params[f"{prefix}.gamma"] = np.ones(dim)
    params[f"{prefix}.beta"] = np.zeros(dim)


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator):
    """Fresh encoder parameters and batch-norm state.

    Naming scheme:
      encoder.frontend.{w,b}
      encoder.block<i>.ffn1.{ln.gamma,ln.beta,w1,b1,w2,b2}
      encoder.block<i>.attn.{ln.*,wq,bq,wk,bk,wv,bv,wo,bo}
      encoder.block<i>.conv.{ln.*,pw1.w,pw1.b,dw.w,dw.b,bn.gamma,bn.beta,pw2.w,pw2.b}
      encoder.block<i>.ffn2.{...}
      encoder.block<i>.ln_out.{gamma,beta}
    State: encoder.block<i>.conv.bn.{running_mean,running_var}
    """
    d = cfg.model_dim
    dff = d * cfg.ff_expansion
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
            params[f"{pre}.attn.{name.replace('w', 'b')}"] = np.zeros(d)
        _init_ln(params, f"{pre}.conv.ln", d)
        params[f"{pre}.conv.pw1.w"] = nn.xavier_uniform(rng, d, 2 * d)
        params[f"{pre}.conv.pw1.b"] = np.zeros(2 * d)
        params[f"{pre}.conv.dw.w"] = nn.xavier_uniform(
            rng, cfg.conv_kernel, 1, (cfg.conv_kernel, d)) / np.sqrt(d)
        params[f"{pre}.conv.dw.b"] = np.zeros(d)
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


def _frontend_fwd(x, params):
    y, c_conv = nn.strided_conv1d_fwd(
        x, params["encoder.frontend.w"], params["encoder.frontend.b"],
        stride=FRONTEND_STRIDE)
    y, c_act = nn.silu_fwd(y)
    y = y + nn.sinusoidal_positions(y.shape[1], y.shape[2], y.dtype)
    return y, (c_conv, c_act)


def _frontend_bwd(dy, cache, grads):
    c_conv, c_act = cache
    dy = nn.silu_bwd(dy, c_act)
    dx, dw, db = nn.strided_conv1d_bwd(dy, c_conv)
    accumulate(grads, "encoder.frontend.w", dw)
    accumulate(grads, "encoder.frontend.b", db)
    return dx


# ---------------------------------------------------------------------------
# block sub-modules


def _ffn_fwd(x, params, pre, drop, mode, rng):
    h, c_ln = nn.layer_norm_fwd(x, params[f"{pre}.ln.gamma"], params[f"{pre}.ln.beta"])
    h, c_l1 = nn.linear_fwd(h, params[f"{pre}.w1"], params[f"{pre}.b1"])
    h, c_act = nn.silu_fwd(h)
    h, c_d1 = nn.dropout_fwd(h, drop, mode, rng)
    h, c_l2 = nn.linear_fwd(h, params[f"{pre}.w2"], params[f"{pre}.b2"])
    h, c_d2 = nn.dropout_fwd(h, drop, mode, rng)
    return h, (c_ln, c_l1, c_act, c_d1, c_l2, c_d2)


def _ffn_bwd(dy, cache, pre, grads):
    c_ln, c_l1, c_act, c_d1, c_l2, c_d2 = cache
    dy = nn.dropout_bwd(dy, c_d2)
    dy, dw2, db2 = nn.linear_bwd(dy, c_l2)
    accumulate(grads, f"{pre}.w2", dw2)
    accumulate(grads, f"{pre}.b2", db2)
    dy = nn.dropout_bwd(dy, c_d1)
    dy = nn.silu_bwd(dy, c_act)
    dy, dw1, db1 = nn.linear_bwd(dy, c_l1)
    accumulate(grads, f"{pre}.w1", dw1)
    accumulate(grads, f"{pre}.b1", db1)
    dy, dg, db = nn.layer_norm_bwd(dy, c_ln)
    accumulate(grads, f"{pre}.ln.gamma", dg)
    accumulate(grads, f"{pre}.ln.beta", db)
    return dy


def _mhsa_fwd(x, params, pre, num_heads, drop, mode, rng):
    bsz, t, d = x.shape
    dh = d // num_heads
    h, c_ln = nn.layer_norm_fwd(x, params[f"{pre}.ln.gamma"], params[f"{pre}.ln.beta"])
    q, c_q = nn.linear_fwd(h, params[f"{pre}.wq"], params[f"{pre}.bq"])
    k, c_k = nn.linear_fwd(h, params[f"{pre}.wk"], params[f"{pre}.bk"])
    v, c_v = nn.linear_fwd(h, params[f"{pre}.wv"], params[f"{pre}.bv"])
    qh = q.reshape(bsz, t, num_heads, dh).transpose(0, 2, 1, 3)
    kh = k.reshape(bsz, t, num_heads, dh).transpose(0, 2, 1, 3)
    vh = v.reshape(bsz, t, num_heads, dh).transpose(0, 2, 1, 3)
    # a Python float: an np.float64 scale would promote float32 scores
    scale = 1.0 / math.sqrt(dh)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    attn, c_sm = nn.softmax_fwd(scores, axis=-1)
    attn_d, c_dp = nn.dropout_fwd(attn, drop, mode, rng)
    ctx = (attn_d @ vh).transpose(0, 2, 1, 3).reshape(bsz, t, d)
    out, c_o = nn.linear_fwd(ctx, params[f"{pre}.wo"], params[f"{pre}.bo"])
    out, c_d2 = nn.dropout_fwd(out, drop, mode, rng)
    cache = (c_ln, c_q, c_k, c_v, qh, kh, vh, c_sm, c_dp, attn_d, c_o, c_d2,
             num_heads, scale)
    return out, cache


def _mhsa_bwd(dy, cache, pre, grads):
    (c_ln, c_q, c_k, c_v, qh, kh, vh, c_sm, c_dp, attn_d, c_o, c_d2,
     num_heads, scale) = cache
    bsz, _, t, dh = qh.shape
    d = num_heads * dh
    dy = nn.dropout_bwd(dy, c_d2)
    dctx, dwo, dbo = nn.linear_bwd(dy, c_o)
    accumulate(grads, f"{pre}.wo", dwo)
    accumulate(grads, f"{pre}.bo", dbo)
    dctx = dctx.reshape(bsz, t, num_heads, dh).transpose(0, 2, 1, 3)
    dattn_d = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = attn_d.transpose(0, 1, 3, 2) @ dctx
    dattn = nn.dropout_bwd(dattn_d, c_dp)
    dscores = nn.softmax_bwd(dattn, c_sm) * scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 1, 3, 2) @ qh
    dq = dqh.transpose(0, 2, 1, 3).reshape(bsz, t, d)
    dk = dkh.transpose(0, 2, 1, 3).reshape(bsz, t, d)
    dv = dvh.transpose(0, 2, 1, 3).reshape(bsz, t, d)
    dh_total = np.zeros((bsz, t, d), dtype=dy.dtype)
    for dpart, c_lin, wname in ((dq, c_q, "wq"), (dk, c_k, "wk"), (dv, c_v, "wv")):
        dx_part, dw, db = nn.linear_bwd(dpart, c_lin)
        accumulate(grads, f"{pre}.{wname}", dw)
        accumulate(grads, f"{pre}.{wname.replace('w', 'b')}", db)
        dh_total += dx_part
    dx, dg, db = nn.layer_norm_bwd(dh_total, c_ln)
    accumulate(grads, f"{pre}.ln.gamma", dg)
    accumulate(grads, f"{pre}.ln.beta", db)
    return dx


def _convmod_fwd(x, params, pre, state, drop, mode, rng):
    h, c_ln = nn.layer_norm_fwd(x, params[f"{pre}.ln.gamma"], params[f"{pre}.ln.beta"])
    h, c_pw1 = nn.linear_fwd(h, params[f"{pre}.pw1.w"], params[f"{pre}.pw1.b"])
    h, c_glu = nn.glu_fwd(h)
    h, c_dw = nn.depthwise_conv1d_fwd(h, params[f"{pre}.dw.w"], params[f"{pre}.dw.b"])
    h, c_bn, new_mean, new_var = nn.batch_norm_fwd(
        h, params[f"{pre}.bn.gamma"], params[f"{pre}.bn.beta"],
        state[f"{pre}.bn.running_mean"], state[f"{pre}.bn.running_var"], mode)
    h, c_act = nn.silu_fwd(h)
    h, c_pw2 = nn.linear_fwd(h, params[f"{pre}.pw2.w"], params[f"{pre}.pw2.b"])
    h, c_drop = nn.dropout_fwd(h, drop, mode, rng)
    cache = (c_ln, c_pw1, c_glu, c_dw, c_bn, c_act, c_pw2, c_drop)
    new_state = {f"{pre}.bn.running_mean": new_mean, f"{pre}.bn.running_var": new_var}
    return h, cache, new_state


def _convmod_bwd(dy, cache, pre, grads):
    c_ln, c_pw1, c_glu, c_dw, c_bn, c_act, c_pw2, c_drop = cache
    dy = nn.dropout_bwd(dy, c_drop)
    dy, dw, db = nn.linear_bwd(dy, c_pw2)
    accumulate(grads, f"{pre}.pw2.w", dw)
    accumulate(grads, f"{pre}.pw2.b", db)
    dy = nn.silu_bwd(dy, c_act)
    dy, dg, db = nn.batch_norm_bwd(dy, c_bn)
    accumulate(grads, f"{pre}.bn.gamma", dg)
    accumulate(grads, f"{pre}.bn.beta", db)
    dy, dw, db = nn.depthwise_conv1d_bwd(dy, c_dw)
    accumulate(grads, f"{pre}.dw.w", dw)
    accumulate(grads, f"{pre}.dw.b", db)
    dy = nn.glu_bwd(dy, c_glu)
    dy, dw, db = nn.linear_bwd(dy, c_pw1)
    accumulate(grads, f"{pre}.pw1.w", dw)
    accumulate(grads, f"{pre}.pw1.b", db)
    dy, dg, db = nn.layer_norm_bwd(dy, c_ln)
    accumulate(grads, f"{pre}.ln.gamma", dg)
    accumulate(grads, f"{pre}.ln.beta", db)
    return dy


def _block_fwd(x, params, pre, cfg, state, mode, rng):
    # macaron layout: half-step FFN, self-attention, convolution, half-step
    # FFN, closing layer norm; every branch is residual
    f1, c_f1 = _ffn_fwd(x, params, f"{pre}.ffn1", cfg.dropout, mode, rng)
    x1 = x + 0.5 * f1
    at, c_at = _mhsa_fwd(x1, params, f"{pre}.attn", cfg.num_heads, cfg.dropout, mode, rng)
    x2 = x1 + at
    cv, c_cv, new_state = _convmod_fwd(x2, params, f"{pre}.conv", state, cfg.dropout, mode, rng)
    x3 = x2 + cv
    f2, c_f2 = _ffn_fwd(x3, params, f"{pre}.ffn2", cfg.dropout, mode, rng)
    x4 = x3 + 0.5 * f2
    out, c_ln = nn.layer_norm_fwd(x4, params[f"{pre}.ln_out.gamma"], params[f"{pre}.ln_out.beta"])
    return out, (c_f1, c_at, c_cv, c_f2, c_ln), new_state


def _block_bwd(dy, cache, pre, grads):
    c_f1, c_at, c_cv, c_f2, c_ln = cache
    dx4, dg, db = nn.layer_norm_bwd(dy, c_ln)
    accumulate(grads, f"{pre}.ln_out.gamma", dg)
    accumulate(grads, f"{pre}.ln_out.beta", db)
    dx3 = dx4 + _ffn_bwd(0.5 * dx4, c_f2, f"{pre}.ffn2", grads)
    dx2 = dx3 + _convmod_bwd(dx3, c_cv, f"{pre}.conv", grads)
    dx1 = dx2 + _mhsa_bwd(dx2, c_at, f"{pre}.attn", grads)
    dx = dx1 + _ffn_bwd(0.5 * dx1, c_f1, f"{pre}.ffn1", grads)
    return dx


# ---------------------------------------------------------------------------
# whole encoder


def _encoder_fwd(feats, params, state, cfg, mode="eval", rng=None):
    """feats (B, T, F) -> list of per-block maps, caches, updated state."""
    if feats.ndim != 3 or feats.shape[-1] != cfg.input_dim:
        raise ShapeError(
            f"expected (B, T, {cfg.input_dim}) features, got {feats.shape}")
    if feats.shape[1] < 4:
        raise LengthError("frontend needs at least 4 frames")
    h, c_fr = _frontend_fwd(feats, params)
    taps = []
    caches = []
    new_state = dict(state)
    for i in range(cfg.num_blocks):
        h, c, st = _block_fwd(h, params, f"encoder.block{i}", cfg, state, mode, rng)
        new_state.update(st)
        taps.append(h)
        caches.append(c)
    return taps, (c_fr, caches), new_state


def _encoder_bwd(d_taps, cache, cfg, grads):
    """d_taps: per-block upstream gradients (same shapes as the taps)."""
    c_fr, caches = cache
    d = d_taps[-1]
    for i in range(cfg.num_blocks - 1, -1, -1):
        d = _block_bwd(d, caches[i], f"encoder.block{i}", grads)
        if i > 0:
            d = d + d_taps[i - 1]
    return _frontend_bwd(d, c_fr, grads)
