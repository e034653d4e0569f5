"""Full speaker model: encoder, per-block heads, aggregation path, and the
classifier weights, with checkpoint save/load.

Parameters are named (see ``encoder.init_encoder_params`` and
``heads.init_head_params`` for the naming scheme; the classifier lives at
``classifier.w``). The model owns their layout, built once in ``__init__``:
every parameter lies, in ``params`` order, in one flat ``param_vector``, and
``params`` is a name -> view dict over it; ``grads`` is the same over
``grad_vector``, which ``backward`` overwrites. Adam and ``load`` write
through these arrays and never rebind an entry. Batch-norm running
statistics live in ``state``: a train-mode forward updates its arrays in
place, in each process that runs a row shard of the batch
(``nn.row_shard``), by the same group statistics; an eval-mode forward only
reads them and is safe to run concurrently. A train-mode forward returns
the tapes (``nn.Tape``) that ``backward`` replays; an eval-mode forward
records none, and ``backward`` rejects its output. The two row shards of a
training step run in two processes, and each process's ``backward`` writes
its own model's ``grad_vector``.

Compute dtype: parameters and state are stored as ``COMPUTE_DTYPE``
(float32), and so are every activation, cached array and parameter
gradient.
``forward`` casts its features to the parameters' dtype and returns the
tap and speaker embeddings as float64, so the losses and metrics work in
float64; ``backward`` casts the upstream gradients back. Rebuilding the
vectors in float64 (``_flat_layout(params, np.float64)``) and casting
``state`` runs the same code in float64.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .encoder import (EncoderConfig, _encoder_bwd, _encoder_fwd,
                      init_encoder_params)
from .heads import (HeadConfig, _heads_bwd, _heads_fwd, _mfa_bwd, _mfa_fwd,
                    init_head_params)

CHECKPOINT_FORMAT = "mfcontrast-checkpoint-v1"
# dtype of parameters, state, activations and parameter gradients
COMPUTE_DTYPE = np.float32


def _as_compute(arrays: dict) -> dict:
    return {k: np.asarray(v, dtype=COMPUTE_DTYPE) for k, v in arrays.items()}


def _flat_layout(params: dict, dtype):
    """``params`` cast to ``dtype`` as they are laid end to end in one vector
    (no cast copy per array), beside a zeroed gradient vector of the same
    layout. Returns (param_vector, params, grad_vector, grads), dicts of views.
    The parameter vector lies in a shared mapping, so the worker process of
    a two-shard training step, forked after it, reads every update that
    Adam makes in place."""
    param_vector = parallel.shared_empty(sum(v.size for v in params.values()), dtype)
    np.concatenate([np.ravel(v) for v in params.values()], out=param_vector)
    # np.zeros maps pages that stay untouched until written, so a model that
    # never runs backward never makes its gradient pages resident
    grad_vector = np.zeros(param_vector.size, dtype)
    return param_vector, _views(param_vector, params), grad_vector, _views(grad_vector, params)


def _views(vector, like: dict) -> dict:
    """name -> the view of ``vector`` shaped as each array of ``like``,
    the arrays laid end to end in ``like`` order."""
    ends = np.cumsum([v.size for v in like.values()])
    return {k: vector[end - v.size:end].reshape(v.shape)
            for (k, v), end in zip(like.items(), ends)}


@dataclass
class ModelOutput:
    """Raw per-block tap embeddings and raw speaker embedding (float64),
    and the tapes that backpropagate into the parameters: ``cache`` maps
    "encoder", "heads" and "mfa" to what that part's forward returned."""

    tap_embeddings: list
    speaker_embedding: np.ndarray
    cache: dict


class SpeakerModel:
    """Encoder + heads + classifier with explicit forward/backward.

    ``sample_rate`` is that of the audio the model trained on, which
    ``save`` records; None when unknown (an untrained model)."""

    def __init__(self, enc_cfg: EncoderConfig, head_cfg: HeadConfig,
                 num_speakers: int, seed: int = 0):
        if num_speakers < 1:
            raise ValueError("num_speakers must be >= 1")
        self.enc_cfg = enc_cfg
        self.head_cfg = head_cfg
        self.num_speakers = num_speakers
        self.sample_rate = None
        rng = np.random.default_rng([seed, 0xC0DE])
        enc_params, enc_state = init_encoder_params(enc_cfg, rng)
        head_params, head_state = init_head_params(enc_cfg, head_cfg, rng)
        params = {**enc_params, **head_params}
        params["classifier.w"] = rng.standard_normal(
            (num_speakers, head_cfg.embed_dim)) / np.sqrt(head_cfg.embed_dim)
        self.param_vector, self.params, self.grad_vector, self.grads = _flat_layout(
            params, COMPUTE_DTYPE)
        self.state = _as_compute({**enc_state, **head_state})

    @property
    def classifier_weights(self):
        return self.params["classifier.w"]

    @property
    def dtype(self):
        """Compute dtype: that of the parameter arrays."""
        return self.params["classifier.w"].dtype

    @parallel.one_blas_thread()
    def forward(self, feats, mode, rng=None) -> ModelOutput:
        """feats: (B, T, F) or (T, F); ``mode``, ``"train"`` or ``"eval"``,
        is required. Train mode updates the batch-norm
        state arrays in place and draws dropout masks from ``rng``. Runs
        numpy's bundled OpenBLAS on one thread (``parallel.one_blas_thread``),
        so its bits do not depend on the caller's BLAS thread count."""
        feats = np.asarray(feats, dtype=self.dtype)
        if feats.ndim == 2:
            feats = feats[None]
        if mode == "train" and self.enc_cfg.dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        taps, enc_tapes = _encoder_fwd(
            feats, self.params, self.state, self.enc_cfg, mode=mode, rng=rng)
        tap_embs, head_tapes = _heads_fwd(taps, self.params, self.state, mode)
        spk_emb, mfa_tape = _mfa_fwd(taps, self.params, self.state, mode)
        return ModelOutput([e.astype(np.float64) for e in tap_embs],
                           spk_emb.astype(np.float64),
                           {"encoder": enc_tapes, "heads": head_tapes, "mfa": mfa_tape})

    def backward(self, out: ModelOutput, d_tap_embeddings, d_speaker_embedding):
        """Gradients of a scalar objective w.r.t. every parameter, given its
        gradients w.r.t. the raw tap embeddings and speaker embedding,
        written over ``self.grad_vector``, which ``self.grads`` views, so
        that the next ``backward`` overwrites them. Returns nothing.
        Raises ValueError when ``out`` came from an eval-mode forward."""
        self.grad_vector.fill(0.0)
        d_taps = _heads_bwd([np.asarray(d, dtype=self.dtype) for d in d_tap_embeddings],
                            out.cache["heads"], self.grads)
        d_taps_mfa = _mfa_bwd(np.asarray(d_speaker_embedding, dtype=self.dtype),
                              out.cache["mfa"], self.grads)
        d_taps = [a + b for a, b in zip(d_taps, d_taps_mfa)]
        _encoder_bwd(d_taps, out.cache["encoder"], self.grads)

    def embed_utterance(self, feats) -> np.ndarray:
        """Eval-mode speaker embeddings of a (B, T, F) stack of same-length
        utterances, shaped (B, D).

        Runs only the encoder and the aggregation path: the per-tap heads do
        not feed the speaker embedding, and eval mode leaves the state as it
        is, so this equals ``forward(mode="eval").speaker_embedding``.
        The kernels are batch-invariant (see ``nn``), so row b equals the
        embedding of ``feats[b:b + 1]`` alone, bit for bit."""
        taps, _ = _encoder_fwd(np.asarray(feats, dtype=self.dtype), self.params,
                               self.state, self.enc_cfg, mode="eval")
        emb, _ = _mfa_fwd(taps, self.params, self.state, "eval")
        return emb.astype(np.float64)

    # -- checkpointing -----------------------------------------------------

    def save(self, path) -> None:
        """Single-archive checkpoint at ``path``: named parameter and state
        arrays plus the configuration as JSON. Written to a temporary file
        beside ``path`` and then renamed over it, so ``path`` always holds
        either the previous checkpoint or the complete new one."""
        meta = {
            "format": CHECKPOINT_FORMAT,
            "encoder": asdict(self.enc_cfg),
            "head": asdict(self.head_cfg),
            "num_speakers": self.num_speakers,
            "sample_rate": self.sample_rate,
        }
        arrays = {f"param/{k}": v for k, v in self.params.items()}
        arrays.update({f"state/{k}": v for k, v in self.state.items()})
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, **arrays)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "SpeakerModel":
        """Model from a ``save`` archive. Raises ValueError naming ``path``
        when the file is not a readable (empty, truncated or corrupted)
        checkpoint archive, when its stored configuration does not build a
        model or its sample rate is neither None nor a positive integer,
        when its arrays differ in name or shape from those of a model of
        that configuration, or when any of them is not real floating point
        or holds a NaN or an infinity. The arrays are copied into the new
        model's own ``params`` and ``state`` arrays."""
        try:
            # np.load leaves a file it opened open when the zip will not parse
            with open(path, "rb") as f, np.load(f) as archive:
                meta = json.loads(bytes(archive["meta"])) if "meta" in archive.files else {}
                if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
                    raise ValueError(f"{path} is not a recognized checkpoint")
                params = {k[len("param/"):]: archive[k] for k in archive.files
                          if k.startswith("param/")}
                state = {k[len("state/"):]: archive[k] for k in archive.files
                         if k.startswith("state/")}
        except (EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path} is not a readable archive: {err}") from err
        try:
            model = cls(EncoderConfig(**meta["encoder"]), HeadConfig(**meta["head"]),
                        meta["num_speakers"])
            model.sample_rate = rate = meta["sample_rate"]
            if rate is not None and (type(rate) is not int or rate < 1):  # a bool is no rate
                raise ValueError(f"sample_rate must be None or a positive integer: {rate!r}")
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
            unreal = sorted(k for k, v in stored.items() if v.dtype.kind != "f")
            if unreal:
                raise ValueError(f"{path}: {kind} arrays are not real floating point: {unreal}")
            unfinite = sorted(k for k, v in stored.items() if not np.isfinite(v).all())
            if unfinite:
                raise ValueError(f"{path}: {kind} arrays hold non-finite values: {unfinite}")
            for k, v in stored.items():
                fresh[k][...] = v
        return model
