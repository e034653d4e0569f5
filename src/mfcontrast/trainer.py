"""Batch construction with augmentation pairing, the Adam training loop,
checkpointing, and in-training evaluation.

Batches hold 2B rows: B original crops followed by their augmented
counterparts in matching order, so every anchor has at least one positive
for the contrastive losses. All randomness is derived from the config seed,
and a fixed seed reproduces the loss curve bit-for-bit in single-threaded
mode.
"""

from __future__ import annotations

import ctypes
import json
import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import losses
from .encoder import EncoderConfig
from .features import AugmentSampler, Waveform, extract_fbank, random_crop
from .heads import HeadConfig
from .losses import LossConfig
from .metrics import (MissingUtteranceError, TrialScoreSet, compute_eer,
                      compute_mindcf, score_trials)
from .model import SpeakerModel

# Named presets of losses.objective: name -> the (lam_tap, contrastive kind,
# lam_spk) each one reads from a LossConfig. combined always uses SupCon.
OBJECTIVES = {
    "am_softmax": lambda lc: (0.0, lc.contrastive_kind, 0.0),
    "mfcon": lambda lc: (lc.lam, lc.contrastive_kind, 0.0),
    "am_supcon": lambda lc: (0.0, lc.contrastive_kind, lc.lam2),
    "combined": lambda lc: (lc.lam1, "supcon", lc.lam2),
}


class NonFiniteLossError(FloatingPointError):
    """Training produced a non-finite loss; carries the component values."""

    def __init__(self, breakdown):
        self.breakdown = breakdown
        super().__init__(f"non-finite loss; components: {breakdown}")


@dataclass
class TrainConfig:
    """Optimizer, schedule, batch and feature settings, and the objective.

    ``objective`` names a row of ``OBJECTIVES``; every row is
    ``losses.objective`` with its weights read from ``loss``:

    - ``am_softmax``: margin softmax alone;
    - ``mfcon``: plus ``loss.lam`` times the per-block
      ``loss.contrastive_kind`` mean (the paper's objective);
    - ``am_supcon``: plus ``loss.lam2`` times SupCon on the speaker
      embedding;
    - ``combined``: plus ``loss.lam1`` times the per-block SupCon mean and
      ``loss.lam2`` times SupCon on the speaker embedding.
    """

    batch_size: int = 100
    lr: float = 1e-3
    lr_halve_every: int = 5
    epochs: int = 30
    seed: int = 0
    eval_every: int = 0  # steps between in-training evaluations; 0 disables
    objective: str = "mfcon"
    loss: LossConfig = field(default_factory=LossConfig)
    crop_duration: float = 3.0
    n_mels: int = 80
    frame_len: float = 0.025
    frame_shift: float = 0.010
    snr_range: tuple = (0.0, 15.0)
    noise_prob: float = 0.5

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.lr_halve_every < 1:
            raise ValueError("lr_halve_every must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {tuple(OBJECTIVES)}")


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate at a 0-indexed epoch: halved every lr_halve_every."""
    return cfg.lr * 0.5 ** (epoch // cfg.lr_halve_every)


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def build_batch(utterances, cfg: TrainConfig, rng_seed: int,
                sampler: AugmentSampler | None = None, label_map=None):
    """Doubled training batch from B sampled utterances.

    Rows 0..B-1 are fixed-duration crops, rows B..2B-1 their augmented
    counterparts in matching order. Returns (features (2B, T, F) as
    float32, labels (2B,), is_augmented (2B,)). Deterministic under
    rng_seed.
    """
    if not utterances:
        raise ValueError("cannot build a batch from an empty dataset")
    if sampler is None:
        sampler = AugmentSampler(snr_range=cfg.snr_range, noise_prob=cfg.noise_prob)
    if label_map is None:
        label_map = {s: i for i, s in enumerate(sorted({w.speaker_id for w in utterances}))}
    rng = np.random.default_rng([rng_seed, 0xBA7C4])
    crops = [random_crop(w, cfg.crop_duration, int(rng.integers(2 ** 31 - 1)))
             for w in utterances]
    augmented = [sampler.apply(c, rng) for c in crops]
    feats = np.stack([extract_fbank(x, cfg.n_mels, cfg.frame_len, cfg.frame_shift).values
                      for x in crops + augmented], dtype=np.float32)
    labels = np.array([label_map[w.speaker_id] for w in crops + augmented], dtype=int)
    is_augmented = np.array([False] * len(crops) + [True] * len(augmented))
    return feats, labels, is_augmented


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def adam_init(params) -> AdamState:
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params, grads, opt: AdamState, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    opt.t += 1
    correct1 = 1.0 - beta1 ** opt.t
    correct2 = 1.0 - beta2 ** opt.t
    for k in params:
        # classifier.w's gradient comes back from the losses as float64
        g = grads[k].astype(params[k].dtype, copy=False)
        opt.m[k] = beta1 * opt.m[k] + (1.0 - beta1) * g
        opt.v[k] = beta2 * opt.v[k] + (1.0 - beta2) * g * g
        params[k] = params[k] - lr * (opt.m[k] / correct1) / (np.sqrt(opt.v[k] / correct2) + eps)


# ---------------------------------------------------------------------------
# objective dispatch


def compute_objective(out, labels, is_augmented, weights, cfg: TrainConfig):
    """Configured loss on a model forward. Returns
    (total, breakdown, d_tap_embeddings, d_speaker_embedding, d_weights)."""
    lam_tap, kind, lam_spk = OBJECTIVES[cfg.objective](cfg.loss)
    return losses.objective(out.tap_embeddings, out.speaker_embedding, labels,
                            weights, replace(cfg.loss, contrastive_kind=kind),
                            lam_tap, lam_spk, is_augmented)


def train_step(model: SpeakerModel, opt: AdamState, feats, labels,
               is_augmented, cfg: TrainConfig, lr: float,
               rng: np.random.Generator):
    """One forward/backward/update. Returns the loss breakdown and the wall
    time of each stage: ``forward_s``, ``loss_s``, ``backward_s`` and
    ``adam_s``."""
    t0 = time.perf_counter()
    out = model.forward(feats, mode="train", rng=rng)
    t1 = time.perf_counter()
    total, breakdown, d_taps, d_spk, d_w = compute_objective(
        out, labels, is_augmented, model.classifier_weights, cfg)
    if not np.isfinite(total):
        raise NonFiniteLossError(breakdown)
    t2 = time.perf_counter()
    grads = model.backward(out, d_taps, d_spk)
    grads["classifier.w"] = grads["classifier.w"] + d_w
    t3 = time.perf_counter()
    adam_step(model.params, grads, opt, lr)
    t4 = time.perf_counter()
    return breakdown, {"forward_s": t1 - t0, "loss_s": t2 - t1,
                       "backward_s": t3 - t2, "adam_s": t4 - t3}


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    eer: float
    mindcf: float
    scores: TrialScoreSet


def utterance_store(corpus) -> dict:
    return {w.utterance_id: w for w in corpus}


def evaluate(model: SpeakerModel, trials, store,
             frame_len: float = 0.025, frame_shift: float = 0.010) -> EvalResult:
    """Embed every referenced utterance once (full length, eval mode, no
    augmentation), score the trials, and compute EER / minDCF."""
    needed = []
    seen = set()
    for t in trials:
        for utt in (t.enroll_utt, t.test_utt):
            if utt not in seen:
                seen.add(utt)
                needed.append(utt)
    missing = [u for u in needed if u not in store]
    if missing:
        raise MissingUtteranceError(missing)
    embeddings = {}
    for utt in needed:
        feats = extract_fbank(store[utt], model.enc_cfg.input_dim,
                              frame_len, frame_shift).values
        embeddings[utt] = model.embed_utterance(feats)
    scores = score_trials(trials, embeddings)
    eer, _ = compute_eer(scores)
    mindcf, _ = compute_mindcf(scores)
    return EvalResult(eer, mindcf, scores)


# ---------------------------------------------------------------------------
# training loop

# glibc mallopt parameters (malloc.h) and the values train() gives them.
# Setting both turns off glibc's dynamic thresholds; setting either alone
# still left a desk step re-faulting its buffers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 256 << 20


def _keep_freed_heap():
    """Make glibc keep the memory a training step frees for the next one.

    A desk step holds about 64 MiB of activations and caches, mostly
    1-4 MiB buffers. By default glibc returns them to the kernel when the
    step frees them, and the next step faults them back in 4 KiB at a time
    (about 16k minor faults per step). With blocks under 4 MiB taken from a
    heap that is trimmed only above 256 MiB of free top space, each step
    reuses the pages of the one before. Larger arrays keep their own
    mappings, where numpy asks for huge pages. Does nothing where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@dataclass
class TrainResult:
    model: SpeakerModel
    history: list
    label_map: dict
    eval_result: EvalResult | None = None


def _jsonable(record):
    out = {}
    for k, v in record.items():
        if isinstance(v, (list, tuple)):
            out[k] = [float(x) for x in v]
        elif isinstance(v, (int, str)):
            out[k] = v
        else:
            out[k] = float(v)
    return out


def train(corpus, enc_cfg: EncoderConfig, head_cfg: HeadConfig,
          cfg: TrainConfig, out_dir=None, trials=None, store=None,
          sampler: AugmentSampler | None = None) -> TrainResult:
    """Full training run over a labeled corpus.

    Writes one JSON-lines record per step (and a checkpoint at the end)
    when ``out_dir`` is given; evaluates on ``trials`` against ``store``
    every ``cfg.eval_every`` steps and once at the end when provided. Each
    record carries the loss breakdown, the wall time of the step's
    ``build_batch`` (``data_s``), of the step itself (``step_s``) and of
    its stages (``forward_s``, ``loss_s``, ``backward_s``, ``adam_s``; see
    ``train_step``), and the minor page faults the process took during the
    step, ``minor_faults``.

    Allocator policy: before it builds the model, ``train`` sets glibc's
    mmap threshold to 4 MiB and its trim threshold to 256 MiB, so buffers a
    step frees stay mapped for the next step. The setting applies to the
    whole process and stays in force after ``train`` returns. It changes no
    result; where the C library has no ``mallopt`` it is skipped.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    if cfg.n_mels != enc_cfg.input_dim:
        raise ValueError("feature n_mels must match the encoder input_dim")
    _keep_freed_heap()
    label_map = {s: i for i, s in enumerate(sorted({w.speaker_id for w in corpus}))}
    model = SpeakerModel(enc_cfg, head_cfg, len(label_map), seed=cfg.seed)
    opt = adam_init(model.params)
    if sampler is None:
        sampler = AugmentSampler(snr_range=cfg.snr_range, noise_prob=cfg.noise_prob)
    if store is None and trials is not None:
        store = utterance_store(corpus)

    log_file = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        log_file = open(out_dir / "train_log.jsonl", "w")

    batch = min(cfg.batch_size, len(corpus))
    steps_per_epoch = max(1, len(corpus) // batch)
    order_rng = np.random.default_rng([cfg.seed, 0x0D0E])
    history = []
    eval_result = None
    step = 0
    try:
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg)
            perm = order_rng.permutation(len(corpus))
            for s in range(steps_per_epoch):
                picked = [corpus[i] for i in perm[s * batch:(s + 1) * batch]]
                t0 = time.perf_counter()
                feats, labels, is_aug = build_batch(
                    picked, cfg, _derive_seed(cfg.seed, 1, epoch, s),
                    sampler=sampler, label_map=label_map)
                data_s = time.perf_counter() - t0
                step_rng = np.random.default_rng([cfg.seed, 2, epoch, s])
                faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                breakdown, stages = train_step(model, opt, feats, labels, is_aug,
                                               cfg, lr, step_rng)
                step_s = time.perf_counter() - t0
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
                record = {"step": step, "epoch": epoch, "lr": lr,
                          "objective": cfg.objective, **breakdown,
                          "data_s": data_s, **stages, "step_s": step_s,
                          "minor_faults": faults}
                history.append(record)
                if log_file is not None:
                    log_file.write(json.dumps(_jsonable(record)) + "\n")
                step += 1
                if (cfg.eval_every and trials is not None
                        and step % cfg.eval_every == 0):
                    interim = evaluate(model, trials, store,
                                       cfg.frame_len, cfg.frame_shift)
                    if log_file is not None:
                        log_file.write(json.dumps(
                            {"step": step, "eer": interim.eer,
                             "mindcf": interim.mindcf}) + "\n")
    finally:
        if log_file is not None:
            log_file.close()

    if trials is not None:
        eval_result = evaluate(model, trials, store, cfg.frame_len, cfg.frame_shift)
    if out_dir is not None:
        model.save(Path(out_dir) / "checkpoint.npz")
    return TrainResult(model, history, label_map, eval_result)
