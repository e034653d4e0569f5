"""Embedding heads on top of the encoder taps.

``_heads_fwd`` maps each block's (B, T', C) feature map through layer norm,
attentive statistics pooling, batch norm, and a linear projection to a raw
(B, D) per-block embedding. ``_mfa_fwd`` is the aggregation path that gives
the speaker embedding: layer-normalized taps are concatenated along
channels before one pooling/projection stack. Both return raw embeddings;
the losses and scoring unit-normalize at their own boundary. Both share
the pooling/projection stack ``_pool_project``. Each forward records its
ops on an ``nn.Tape`` and returns the tape as its cache, which the matching
backward replays; an eval-mode forward records nothing.

``share_pooling`` makes all blocks use one {ln, attn} parameter set;
``share_projection`` does the same for {bn, proj}. The two flags are
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoder import EncoderConfig

STD_EPS = 1e-8


@dataclass
class HeadConfig:
    """The defaults are the desk preset's heads."""

    embed_dim: int = 64
    share_pooling: bool = False
    share_projection: bool = False
    attention_hidden: int = 32

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


def _pool_project(tape, h, params, state, pool, proj, mode):
    """Attentive statistics pooling of the (B, T', C) map h with the
    ``pool`` parameters, then batch norm and projection with the ``proj``
    ones, recorded on ``tape``. Returns the raw (B, D) embedding and the
    updated batch-norm state."""
    pooled = tape.op(nn.attentive_stats_fwd, nn.attentive_stats_bwd, h,
                     f"{pool}.attn.w", f"{pool}.attn.b", f"{pool}.attn.v", eps=STD_EPS)
    normed, c_bn, new_mean, new_var = nn.batch_norm_fwd(
        pooled, params[f"{proj}.bn.gamma"], params[f"{proj}.bn.beta"],
        state[f"{proj}.bn.running_mean"], state[f"{proj}.bn.running_var"], mode)
    tape.record(nn.batch_norm_bwd, c_bn, f"{proj}.bn.gamma", f"{proj}.bn.beta")
    emb = tape.op(nn.linear_fwd, nn.linear_bwd, normed, f"{proj}.proj.w", f"{proj}.proj.b")
    return emb, {f"{proj}.bn.running_mean": new_mean, f"{proj}.bn.running_var": new_var}


def _head_fwd(tap, params, state, i, cfg: HeadConfig, mode):
    """One block's head: LN -> attentive stats -> BN -> projection.

    tap is (B, T', C); returns a raw (unnormalized) (B, D) embedding, the
    head's tape and its updated batch-norm state.
    """
    pool = _pool_prefix(i, cfg)
    tape = nn.Tape(params, mode)
    h = tape.op(nn.layer_norm_fwd, nn.layer_norm_bwd, tap, f"{pool}.ln.gamma", f"{pool}.ln.beta")
    emb, new_state = _pool_project(tape, h, params, state, pool, _proj_prefix(i, cfg), mode)
    return emb, tape, new_state


def _heads_fwd(taps, params, state, cfg: HeadConfig, mode):
    """All per-block heads. taps: list of (B, T', C). Returns raw embeddings."""
    embs, tapes = [], []
    new_state = dict(state)
    for i, tap in enumerate(taps):
        emb, tape, st = _head_fwd(tap, params, state, i, cfg, mode)
        new_state.update(st)
        embs.append(emb)
        tapes.append(tape)
    return embs, tapes, new_state


def _heads_bwd(dembs, tapes, grads):
    return [tape.backward(d, grads) for d, tape in zip(dembs, tapes)]


def _split_bwd(dcat, tapes, grads):
    """Backward of concatenating equal-width maps along channels, each
    produced by one of ``tapes``: a list with each map's input gradient."""
    return [t.backward(d, grads) for t, d in zip(tapes, np.split(dcat, len(tapes), axis=-1))]


def _mfa_fwd(taps, params, state, cfg: HeadConfig, mode):
    """Speaker-embedding path over the concatenated layer-normalized taps."""
    ln_tapes = [nn.Tape(params, mode) for _ in taps]
    normed = [t.op(nn.layer_norm_fwd, nn.layer_norm_bwd, tap,
                   f"mfa.ln{i}.gamma", f"mfa.ln{i}.beta")
              for i, (t, tap) in enumerate(zip(ln_tapes, taps))]
    tape = nn.Tape(params, mode)
    tape.module(_split_bwd, ln_tapes)
    emb, st = _pool_project(tape, np.concatenate(normed, axis=-1), params, state,
                            "mfa", "mfa", mode)
    return emb, tape, {**state, **st}


_mfa_bwd = nn.replay
