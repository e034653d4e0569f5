"""Full speaker model: encoder, per-block heads, aggregation path, and the
classifier weights, with checkpoint save/load.

Parameters are one flat ``{name: array}`` dict (see
``encoder.init_encoder_params`` and ``heads.init_head_params`` for the
naming scheme; the classifier lives at ``classifier.w``). Batch-norm
running statistics live in ``state`` and are updated by train-mode
forwards, which makes training single-writer; eval-mode forwards are
read-only and safe to run concurrently.

Compute dtype: parameters and state are stored as ``COMPUTE_DTYPE``
(float32), and so are every activation, cache and parameter gradient.
``forward`` casts its features to the parameters' dtype and returns the
tap and speaker embeddings as float64, so the losses and metrics work in
float64; ``backward`` casts the upstream gradients back. Casting
``params`` and ``state`` to float64 runs the same code in float64.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .encoder import (EncoderConfig, _encoder_bwd, _encoder_fwd,
                      init_encoder_params)
from .heads import (HeadConfig, _heads_bwd, _heads_fwd, _mfa_bwd, _mfa_fwd,
                    init_head_params)

CHECKPOINT_FORMAT = "mfcontrast-checkpoint-v1"
# dtype of parameters, state, activations and parameter gradients
COMPUTE_DTYPE = np.float32


def _as_compute(arrays: dict) -> dict:
    return {k: np.asarray(v, dtype=COMPUTE_DTYPE) for k, v in arrays.items()}


@dataclass
class ModelOutput:
    """Raw per-block tap embeddings and raw speaker embedding (float64),
    and the caches needed to backpropagate into the parameters."""

    tap_embeddings: list
    speaker_embedding: np.ndarray
    cache: tuple


class SpeakerModel:
    """Encoder + heads + classifier with explicit forward/backward."""

    def __init__(self, enc_cfg: EncoderConfig, head_cfg: HeadConfig,
                 num_speakers: int, seed: int = 0):
        if num_speakers < 1:
            raise ValueError("num_speakers must be >= 1")
        self.enc_cfg = enc_cfg
        self.head_cfg = head_cfg
        self.num_speakers = num_speakers
        rng = np.random.default_rng([seed, 0xC0DE])
        enc_params, enc_state = init_encoder_params(enc_cfg, rng)
        head_params, head_state = init_head_params(enc_cfg, head_cfg, rng)
        params = {**enc_params, **head_params}
        params["classifier.w"] = rng.standard_normal(
            (num_speakers, head_cfg.embed_dim)) / np.sqrt(head_cfg.embed_dim)
        self.params = _as_compute(params)
        self.state = _as_compute({**enc_state, **head_state})

    @property
    def classifier_weights(self):
        return self.params["classifier.w"]

    @property
    def dtype(self):
        """Compute dtype: that of the parameter arrays."""
        return self.params["classifier.w"].dtype

    def forward(self, feats, mode="eval", rng=None) -> ModelOutput:
        """feats: (B, T, F) or (T, F). Train mode updates batch-norm state
        and draws dropout masks from ``rng``."""
        feats = np.asarray(feats, dtype=self.dtype)
        if feats.ndim == 2:
            feats = feats[None]
        if mode == "train" and self.enc_cfg.dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        taps, enc_cache, state1 = _encoder_fwd(
            feats, self.params, self.state, self.enc_cfg, mode=mode, rng=rng)
        tap_embs, head_caches, state2 = _heads_fwd(
            taps, self.params, state1, self.head_cfg, mode)
        spk_emb, mfa_cache, state3 = _mfa_fwd(
            taps, self.params, state2, self.head_cfg, mode)
        if mode == "train":
            self.state = state3
        return ModelOutput([e.astype(np.float64) for e in tap_embs],
                           spk_emb.astype(np.float64),
                           (enc_cache, head_caches, mfa_cache))

    def backward(self, out: ModelOutput, d_tap_embeddings, d_speaker_embedding):
        """Gradients of a scalar objective w.r.t. every parameter, given its
        gradients w.r.t. the raw tap embeddings and speaker embedding."""
        enc_cache, head_caches, mfa_cache = out.cache
        grads: dict[str, np.ndarray] = {}
        d_taps = _heads_bwd([np.asarray(d, dtype=self.dtype) for d in d_tap_embeddings],
                            head_caches, grads)
        d_taps_mfa = _mfa_bwd(np.asarray(d_speaker_embedding, dtype=self.dtype),
                              mfa_cache, grads)
        d_taps = [a + b for a, b in zip(d_taps, d_taps_mfa)]
        _encoder_bwd(d_taps, enc_cache, self.enc_cfg, grads)
        for name, value in self.params.items():
            if name not in grads:
                grads[name] = np.zeros_like(value)
        return grads

    def embed_utterance(self, feats) -> np.ndarray:
        """Eval-mode speaker embedding of one (T, F) feature matrix.

        Runs only the encoder and the aggregation path: the per-tap heads do
        not feed the speaker embedding, and eval mode leaves the state as it
        is, so this equals ``forward(mode="eval").speaker_embedding[0]``."""
        feats = np.asarray(feats, dtype=self.dtype)[None]
        taps, _, _ = _encoder_fwd(feats, self.params, self.state, self.enc_cfg, mode="eval")
        emb, _, _ = _mfa_fwd(taps, self.params, self.state, self.head_cfg, "eval")
        return emb[0].astype(np.float64)

    # -- checkpointing -----------------------------------------------------

    def save(self, path) -> None:
        """Single-archive checkpoint: named parameter and state arrays plus
        the configuration as JSON."""
        meta = {
            "format": CHECKPOINT_FORMAT,
            "encoder": asdict(self.enc_cfg),
            "head": asdict(self.head_cfg),
            "num_speakers": self.num_speakers,
        }
        arrays = {f"param/{k}": v for k, v in self.params.items()}
        arrays.update({f"state/{k}": v for k, v in self.state.items()})
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "SpeakerModel":
        """Model from a ``save`` archive. Raises ValueError naming ``path``
        when the archive is not a checkpoint, when its stored configuration
        does not build a model, or when its arrays differ in name or shape
        from those of a model of that configuration."""
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"])) if "meta" in archive.files else {}
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(f"{path} is not a recognized checkpoint")
            params = _as_compute({k[len("param/"):]: archive[k] for k in archive.files
                                  if k.startswith("param/")})
            state = _as_compute({k[len("state/"):]: archive[k] for k in archive.files
                                 if k.startswith("state/")})
        try:
            encoder = dict(meta["encoder"])
            # archives from before the stride-2 frontend became fixed name it
            if encoder.get("subsample_factor") == "1/2":
                del encoder["subsample_factor"]
            model = cls(EncoderConfig(**encoder), HeadConfig(**meta["head"]),
                        meta["num_speakers"])
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{path}: stored configuration does not build a "
                             f"model: {err}") from err
        for kind, stored, fresh in (("parameter", params, model.params),
                                    ("state", state, model.state)):
            wrong = sorted(k for k in stored.keys() | fresh.keys() if k not in stored
                           or k not in fresh or stored[k].shape != fresh[k].shape)
            if wrong:
                raise ValueError(f"{path}: {kind} arrays differ in name or shape "
                                 f"from those of its configuration: {wrong}")
        model.params = params
        model.state = state
        return model
