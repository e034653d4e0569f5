"""Embedding heads on top of the encoder taps.

``_heads_fwd`` maps each block's (B, T', C) feature map through layer norm,
attentive statistics pooling, batch norm, and a linear projection to a raw
(B, D) per-block embedding. ``_mfa_fwd`` is the aggregation path that gives
the speaker embedding: layer-normalized taps are concatenated along
channels before one pooling/projection stack. Both return raw embeddings;
the losses and scoring unit-normalize at their own boundary. Each
``*_fwd`` returns a cache that the matching ``*_bwd`` consumes.

``share_pooling`` makes all blocks use one {ln, attn} parameter set;
``share_projection`` does the same for {bn, proj}. The two flags are
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoder import EncoderConfig
from .nn import accumulate

STD_EPS = 1e-8


@dataclass
class HeadConfig:
    embed_dim: int = 192
    share_pooling: bool = False
    share_projection: bool = False
    attention_hidden: int = 64

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.attention_hidden < 1:
            raise ValueError("attention_hidden must be >= 1")


def _pool_prefix(i, cfg: HeadConfig) -> str:
    return "head.shared" if cfg.share_pooling else f"head.{i}"


def _proj_prefix(i, cfg: HeadConfig) -> str:
    return "head.shared" if cfg.share_projection else f"head.{i}"


def init_head_params(enc_cfg: EncoderConfig, head_cfg: HeadConfig,
                     rng: np.random.Generator):
    """Per-block head and aggregation-path parameters.

    Naming: head.<i>.{ln.*, attn.{w,b,v}, bn.{gamma,beta}, proj.{w,b}} with
    ``head.shared`` replacing ``head.<i>`` for the shared components, plus
    mfa.ln<i>.*, mfa.attn.*, mfa.bn.*, mfa.proj.* for the speaker-embedding
    path. State: <prefix>.bn.{running_mean,running_var}.
    """
    c = enc_cfg.model_dim
    a = head_cfg.attention_hidden
    d = head_cfg.embed_dim
    params: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}

    def add_pooling(prefix):
        params[f"{prefix}.ln.gamma"] = np.ones(c)
        params[f"{prefix}.ln.beta"] = np.zeros(c)
        params[f"{prefix}.attn.w"] = nn.xavier_uniform(rng, c, a)
        params[f"{prefix}.attn.b"] = np.zeros(a)
        params[f"{prefix}.attn.v"] = nn.xavier_uniform(rng, a, 1, (a,))

    def add_projection(prefix):
        params[f"{prefix}.bn.gamma"] = np.ones(2 * c)
        params[f"{prefix}.bn.beta"] = np.zeros(2 * c)
        params[f"{prefix}.proj.w"] = nn.xavier_uniform(rng, 2 * c, d)
        params[f"{prefix}.proj.b"] = np.zeros(d)
        state[f"{prefix}.bn.running_mean"] = np.zeros(2 * c)
        state[f"{prefix}.bn.running_var"] = np.ones(2 * c)

    pool_prefixes = (["head.shared"] if head_cfg.share_pooling
                     else [f"head.{i}" for i in range(enc_cfg.num_blocks)])
    proj_prefixes = (["head.shared"] if head_cfg.share_projection
                     else [f"head.{i}" for i in range(enc_cfg.num_blocks)])
    for prefix in pool_prefixes:
        add_pooling(prefix)
    for prefix in proj_prefixes:
        add_projection(prefix)

    # aggregation path: one pooling/projection stack over the concatenated taps
    cl = c * enc_cfg.num_blocks
    for i in range(enc_cfg.num_blocks):
        params[f"mfa.ln{i}.gamma"] = np.ones(c)
        params[f"mfa.ln{i}.beta"] = np.zeros(c)
    params["mfa.attn.w"] = nn.xavier_uniform(rng, cl, a)
    params["mfa.attn.b"] = np.zeros(a)
    params["mfa.attn.v"] = nn.xavier_uniform(rng, a, 1, (a,))
    params["mfa.bn.gamma"] = np.ones(2 * cl)
    params["mfa.bn.beta"] = np.zeros(2 * cl)
    params["mfa.proj.w"] = nn.xavier_uniform(rng, 2 * cl, d)
    params["mfa.proj.b"] = np.zeros(d)
    state["mfa.bn.running_mean"] = np.zeros(2 * cl)
    state["mfa.bn.running_var"] = np.ones(2 * cl)
    return params, state


# ---------------------------------------------------------------------------
# forward / backward


def _head_fwd(tap, params, state, i, cfg: HeadConfig, mode):
    """One block's head: LN -> attentive stats -> BN -> projection.

    tap is (B, T', C); returns a raw (unnormalized) (B, D) embedding.
    """
    pool, proj = _pool_prefix(i, cfg), _proj_prefix(i, cfg)
    h, c_ln = nn.layer_norm_fwd(tap, params[f"{pool}.ln.gamma"], params[f"{pool}.ln.beta"])
    pooled, c_asp = nn.attentive_stats_fwd(
        h, params[f"{pool}.attn.w"], params[f"{pool}.attn.b"],
        params[f"{pool}.attn.v"], eps=STD_EPS)
    normed, c_bn, new_mean, new_var = nn.batch_norm_fwd(
        pooled, params[f"{proj}.bn.gamma"], params[f"{proj}.bn.beta"],
        state[f"{proj}.bn.running_mean"], state[f"{proj}.bn.running_var"], mode)
    emb, c_proj = nn.linear_fwd(normed, params[f"{proj}.proj.w"], params[f"{proj}.proj.b"])
    cache = (c_ln, c_asp, c_bn, c_proj, pool, proj)
    new_state = {f"{proj}.bn.running_mean": new_mean, f"{proj}.bn.running_var": new_var}
    return emb, cache, new_state


def _head_bwd(demb, cache, grads):
    c_ln, c_asp, c_bn, c_proj, pool, proj = cache
    dy, dw, db = nn.linear_bwd(demb, c_proj)
    accumulate(grads, f"{proj}.proj.w", dw)
    accumulate(grads, f"{proj}.proj.b", db)
    dy, dg, db = nn.batch_norm_bwd(dy, c_bn)
    accumulate(grads, f"{proj}.bn.gamma", dg)
    accumulate(grads, f"{proj}.bn.beta", db)
    dy, dw, db, dv = nn.attentive_stats_bwd(dy, c_asp)
    accumulate(grads, f"{pool}.attn.w", dw)
    accumulate(grads, f"{pool}.attn.b", db)
    accumulate(grads, f"{pool}.attn.v", dv)
    dtap, dg, db = nn.layer_norm_bwd(dy, c_ln)
    accumulate(grads, f"{pool}.ln.gamma", dg)
    accumulate(grads, f"{pool}.ln.beta", db)
    return dtap


def _heads_fwd(taps, params, state, cfg: HeadConfig, mode):
    """All per-block heads. taps: list of (B, T', C). Returns raw embeddings."""
    embs, caches = [], []
    new_state = dict(state)
    for i, tap in enumerate(taps):
        emb, cache, st = _head_fwd(tap, params, state, i, cfg, mode)
        new_state.update(st)
        embs.append(emb)
        caches.append(cache)
    return embs, caches, new_state


def _heads_bwd(dembs, caches, grads):
    return [_head_bwd(d, c, grads) for d, c in zip(dembs, caches)]


def _mfa_fwd(taps, params, state, cfg: HeadConfig, mode):
    """Speaker-embedding path over the concatenated layer-normalized taps."""
    ln_caches = []
    normed = []
    for i, tap in enumerate(taps):
        h, c = nn.layer_norm_fwd(tap, params[f"mfa.ln{i}.gamma"], params[f"mfa.ln{i}.beta"])
        normed.append(h)
        ln_caches.append(c)
    cat = np.concatenate(normed, axis=-1)
    pooled, c_asp = nn.attentive_stats_fwd(
        cat, params["mfa.attn.w"], params["mfa.attn.b"], params["mfa.attn.v"],
        eps=STD_EPS)
    bn_out, c_bn, new_mean, new_var = nn.batch_norm_fwd(
        pooled, params["mfa.bn.gamma"], params["mfa.bn.beta"],
        state["mfa.bn.running_mean"], state["mfa.bn.running_var"], mode)
    emb, c_proj = nn.linear_fwd(bn_out, params["mfa.proj.w"], params["mfa.proj.b"])
    cache = (ln_caches, c_asp, c_bn, c_proj, [t.shape[-1] for t in taps])
    new_state = dict(state)
    new_state.update({"mfa.bn.running_mean": new_mean, "mfa.bn.running_var": new_var})
    return emb, cache, new_state


def _mfa_bwd(demb, cache, grads):
    ln_caches, c_asp, c_bn, c_proj, widths = cache
    dy, dw, db = nn.linear_bwd(demb, c_proj)
    accumulate(grads, "mfa.proj.w", dw)
    accumulate(grads, "mfa.proj.b", db)
    dy, dg, db = nn.batch_norm_bwd(dy, c_bn)
    accumulate(grads, "mfa.bn.gamma", dg)
    accumulate(grads, "mfa.bn.beta", db)
    dy, dw, db, dv = nn.attentive_stats_bwd(dy, c_asp)
    accumulate(grads, "mfa.attn.w", dw)
    accumulate(grads, "mfa.attn.b", db)
    accumulate(grads, "mfa.attn.v", dv)
    d_taps = []
    offset = 0
    for i, width in enumerate(widths):
        dpart, dg, db = nn.layer_norm_bwd(dy[..., offset:offset + width], ln_caches[i])
        accumulate(grads, f"mfa.ln{i}.gamma", dg)
        accumulate(grads, f"mfa.ln{i}.beta", db)
        d_taps.append(dpart)
        offset += width
    return d_taps
