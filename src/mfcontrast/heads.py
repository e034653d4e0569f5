"""Embedding heads on top of the encoder taps.

``_heads_fwd`` maps each block's (B, T', C) feature map through layer norm,
attentive statistics pooling, batch norm, and a linear projection to a raw
(B, D) per-block embedding. ``_mfa_fwd`` is the aggregation path that gives
the speaker embedding: layer-normalized taps are concatenated along
channels before one pooling/projection stack. Both return raw embeddings;
the losses and scoring unit-normalize at their own boundary. Both share
the pooling/projection stack ``_pool_project``, and every block has its
own head. Each forward records its ops on an ``nn.Tape`` and returns the
tape as its cache, which the matching backward replays. A train-mode
forward updates the batch-norm ``state`` in place; an eval-mode forward
only reads it and records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoder import EncoderConfig, _init_ln

# hidden width of each attentive statistics pooling's attention
ATTENTION_HIDDEN = 32


@dataclass
class HeadConfig:
    """The desk preset's heads; each pooling's attention is ``ATTENTION_HIDDEN`` wide."""

    embed_dim: int = 64

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")


def init_head_params(enc_cfg: EncoderConfig, head_cfg: HeadConfig,
                     rng: np.random.Generator):
    """Per-block head and aggregation-path parameters.

    Naming: head.<i>.{ln.*, attn.{w,b,v}, bn.{gamma,beta}, proj.{w,b}} for
    block i's head, plus mfa.ln<i>.*, mfa.attn.*, mfa.bn.*, mfa.proj.* for
    the speaker-embedding path. State: <prefix>.bn.{running_mean,running_var}.
    attn.w is (C, ATTENTION_HIDDEN) for the C channels it pools.
    Draw order: every block's attention, every block's projection, then
    the aggregation path's attention and projection.
    """
    c = enc_cfg.model_dim
    a = ATTENTION_HIDDEN
    d = head_cfg.embed_dim
    params: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}

    def attention(prefix, width):
        params[f"{prefix}.attn.w"] = nn.xavier_uniform(rng, width, a)
        params[f"{prefix}.attn.b"] = np.zeros(a)
        params[f"{prefix}.attn.v"] = nn.xavier_uniform(rng, a, 1, (a,))

    def projection(prefix, width):
        """Batch norm and projection of the 2 * width pooled statistics."""
        params[f"{prefix}.bn.gamma"] = np.ones(2 * width)
        params[f"{prefix}.bn.beta"] = np.zeros(2 * width)
        params[f"{prefix}.proj.w"] = nn.xavier_uniform(rng, 2 * width, d)
        params[f"{prefix}.proj.b"] = np.zeros(d)
        state[f"{prefix}.bn.running_mean"] = np.zeros(2 * width)
        state[f"{prefix}.bn.running_var"] = np.ones(2 * width)

    heads = [f"head.{i}" for i in range(enc_cfg.num_blocks)]
    for prefix in heads:
        _init_ln(params, f"{prefix}.ln", c)
        attention(prefix, c)
    for prefix in heads:
        projection(prefix, c)
    # aggregation path: one pooling/projection stack over the concatenated taps
    for i in range(enc_cfg.num_blocks):
        _init_ln(params, f"mfa.ln{i}", c)
    attention("mfa", c * enc_cfg.num_blocks)
    projection("mfa", c * enc_cfg.num_blocks)
    return params, state


# ---------------------------------------------------------------------------
# forward / backward


def _pool_project(tape, h, state, prefix, mode):
    """Attentive statistics pooling of the (B, T', C) map h, then batch norm
    and projection, with the ``prefix`` parameters, recorded on ``tape``.
    Returns the raw (B, D) embedding."""
    h = tape.op(nn.attentive_stats_fwd, nn.attentive_stats_bwd, h,
                f"{prefix}.attn.w", f"{prefix}.attn.b", f"{prefix}.attn.v")
    h = tape.op(nn.batch_norm_fwd, nn.batch_norm_bwd, h, f"{prefix}.bn.gamma", f"{prefix}.bn.beta",
                running_mean=state[f"{prefix}.bn.running_mean"],
                running_var=state[f"{prefix}.bn.running_var"], mode=mode)
    return tape.op(nn.linear_fwd, nn.linear_bwd, h, f"{prefix}.proj.w", f"{prefix}.proj.b")


def _head_fwd(tap, params, state, i, mode):
    """Block i's head: LN -> attentive stats -> BN -> projection.

    tap is (B, T', C); returns a raw (unnormalized) (B, D) embedding and
    the head's tape.
    """
    prefix = f"head.{i}"
    tape = nn.Tape(params, mode)
    h = tape.op(nn.layer_norm_fwd, nn.layer_norm_bwd, tap,
                f"{prefix}.ln.gamma", f"{prefix}.ln.beta")
    return _pool_project(tape, h, state, prefix, mode), tape


def _heads_fwd(taps, params, state, mode):
    """All per-block heads on the (B, T', C) taps: raw embeddings and tapes."""
    embs, tapes = [], []
    for i, tap in enumerate(taps):
        emb, tape = _head_fwd(tap, params, state, i, mode)
        embs.append(emb)
        tapes.append(tape)
    return embs, tapes


def _heads_bwd(dembs, tapes, grads):
    return [tape.backward(d, grads) for d, tape in zip(dembs, tapes)]


def _split_bwd(dcat, tapes, grads):
    """Backward of concatenating equal-width maps along channels, each
    produced by one of ``tapes``: a list with each map's input gradient."""
    return [t.backward(d, grads) for t, d in zip(tapes, np.split(dcat, len(tapes), axis=-1))]


def _mfa_fwd(taps, params, state, mode):
    """Speaker-embedding path over the concatenated layer-normalized taps."""
    ln_tapes = [nn.Tape(params, mode) for _ in taps]
    normed = [t.op(nn.layer_norm_fwd, nn.layer_norm_bwd, tap,
                   f"mfa.ln{i}.gamma", f"mfa.ln{i}.beta")
              for i, (t, tap) in enumerate(zip(ln_tapes, taps))]
    tape = nn.Tape(params, mode)
    tape.module(_split_bwd, ln_tapes)
    return _pool_project(tape, np.concatenate(normed, axis=-1), state, "mfa", mode), tape


_mfa_bwd = nn.replay
