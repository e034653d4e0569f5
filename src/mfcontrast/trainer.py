"""Batch construction, the Adam training loop, checkpointing, and
in-training evaluation.

Batches hold 2B rows: B original crops followed by their augmented
counterparts in matching order, so every anchor has at least one positive
for the SupCon terms. All randomness is derived from the config seed,
and a fixed seed reproduces the loss curve bit-for-bit at any BLAS thread
count the caller has set, because ``train`` and ``evaluate`` run numpy's
bundled OpenBLAS on one thread for the length of the call
(``parallel.one_blas_thread``; with another BLAS, the thread count stays the
caller's). ``build_batch`` augments the crops and takes their filterbanks on
every usable CPU, ``train_step`` runs every batch as two row shards, the
second in the worker process that ``train`` forks before its first step,
and ``evaluate`` embeds on every usable CPU; no result depends on how many
CPUs there are.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import losses, nn, parallel
from .encoder import MIN_FRAMES, EncoderConfig
from .features import (FRAME_LEN, FRAME_SHIFT, AugmentSampler, LengthError,
                       extract_fbank, frame_count, random_crop)
from .heads import HeadConfig
from .losses import LossConfig
from .metrics import (MissingUtteranceError, TrialScoreSet, compute_eer,
                      compute_mindcf, score_trials)
from .model import ModelOutput, SpeakerModel

# Named presets of losses.objective: name -> the LossConfig weights it reads,
# lam1 as lam_tap and lam2 as lam_spk. A weight a preset does not read is 0.
OBJECTIVES = {
    "am_softmax": (),
    "mfcon": ("lam1",),
    "am_supcon": ("lam2",),
    "combined": ("lam1", "lam2"),
}

# epochs between halvings of the learning rate
LR_HALVE_EVERY = 5
# Adam's moment decay rates and the floor under its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the shortest crop that gives the encoder its MIN_FRAMES filterbank frames
MIN_CROP_DURATION = FRAME_LEN + (MIN_FRAMES - 1) * FRAME_SHIFT


class NonFiniteLossError(FloatingPointError):
    """Training produced a non-finite loss; carries the component values."""

    def __init__(self, breakdown):
        self.breakdown = breakdown
        super().__init__(f"non-finite loss; components: {breakdown}")


@dataclass
class TrainConfig:
    """Optimizer, schedule and batch settings, and the objective. The
    defaults are the desk preset's; the learning rate halves every
    ``LR_HALVE_EVERY`` epochs.

    The features are not configured here: the mel-bin count is the
    encoder's ``input_dim``, the framing is ``features.FRAME_LEN`` /
    ``FRAME_SHIFT``, and the augmentation draws are ``AugmentSampler``'s.

    ``objective`` names a row of ``OBJECTIVES``; every row is
    ``losses.objective`` with its weights read from ``loss`` (the margin,
    scale and temperature are ``losses`` constants):

    - ``am_softmax``: margin softmax alone;
    - ``mfcon``: plus ``loss.lam1`` times the per-block SupCon mean (the
      paper's objective);
    - ``am_supcon``: plus ``loss.lam2`` times SupCon on the speaker
      embedding;
    - ``combined``: plus ``loss.lam1`` times the per-block SupCon mean and
      ``loss.lam2`` times SupCon on the speaker embedding.

    A weight the objective reads must be positive: a zero one would train
    a different row under this one's name. ``lr`` must be finite and
    positive, and ``crop_duration`` finite and at least
    ``MIN_CROP_DURATION`` (55 ms).
    """

    batch_size: int = 50
    lr: float = 1.5e-3
    epochs: int = 30
    seed: int = 0
    eval_every: int = 0  # steps between in-training evaluations; 0 disables
    objective: str = "mfcon"
    loss: LossConfig = field(default_factory=LossConfig)
    crop_duration: float = 1.0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        for name in ("lr", "crop_duration"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.crop_duration < MIN_CROP_DURATION:
            raise ValueError(f"crop_duration must be at least {MIN_CROP_DURATION:g} s "
                             f"({MIN_FRAMES} filterbank frames), got {self.crop_duration}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0 (0 disables), got {self.eval_every}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {tuple(OBJECTIVES)}")
        for name in OBJECTIVES[self.objective]:
            if getattr(self.loss, name) == 0:
                raise ValueError(f"objective {self.objective} reads loss.{name}, "
                                 "which must be positive, not 0")


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate at a 0-indexed epoch: halved every LR_HALVE_EVERY."""
    return cfg.lr * 0.5 ** (epoch // LR_HALVE_EVERY)


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def speaker_label_map(utterances) -> dict:
    """Speaker id -> class index, in sorted speaker order."""
    return {s: i for i, s in enumerate(sorted({w.speaker_id for w in utterances}))}


def build_batch(utterances, cfg: TrainConfig, n_mels: int, rng_seed: int,
                label_map: dict):
    """Doubled training batch from B sampled utterances.

    Rows 0..B-1 are fixed-duration crops, rows B..2B-1 their augmented
    counterparts in matching order. One generator draws every crop's
    offset seed, in utterance order, then every augmentation draw, crop by
    crop (``AugmentSampler.apply``). One ``apply`` call augments the
    crops and one ``extract_fbank`` call turns all 2B waves into features,
    so the utterances must share a sample rate (a ``load_manifest`` corpus
    does). Both calls spread their work over the usable CPUs, the
    filterbank in chunks of ``features.FBANK_CHUNK_FRAMES`` frames, and
    neither result depends on how many CPUs there are. Returns (feats,
    labels): features (2B, T, n_mels) as float32, and labels (2B,) from
    ``label_map``, a ``speaker_label_map`` of the corpus. Deterministic
    under rng_seed.
    """
    rng = np.random.default_rng([rng_seed, 0xBA7C4])
    crops = [random_crop(w, cfg.crop_duration, int(rng.integers(2 ** 31 - 1)))
             for w in utterances]
    waves = crops + AugmentSampler().apply(crops, rng)
    feats = extract_fbank(waves, n_mels).values.astype(np.float32)
    labels = np.array([label_map[w.speaker_id] for w in waves], dtype=int)
    return feats, labels


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam (Kingma & Ba, arXiv 1412.6980) moments over one flat parameter
    vector, such as ``SpeakerModel.param_vector``: ``m`` and ``v`` are the
    first and second moments, laid out as that vector (one parameter's
    entries are the same slice of each), and ``t`` counts the steps
    taken."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(vector: np.ndarray) -> AdamState:
    """Zero-moment Adam state over the flat parameter vector ``vector``."""
    return AdamState(np.zeros_like(vector), np.zeros_like(vector))


def adam_step(params: np.ndarray, grad: np.ndarray, opt: AdamState, lr):
    """One Adam update of the flat vector ``params`` in place from ``grad``,
    its gradient in the same layout and dtype (``SpeakerModel.param_vector``
    and ``grad_vector``). A fixed handful of whole-vector operations
    compute, elementwise and in this order, m = β1·m + (1−β1)·g,
    v = β2·v + ((1−β2)·g)·g and p = p − lr·(m/c1) / (√(v/c2) + ε), with
    c1 = 1 − β1^t and c2 = 1 − β2^t."""
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    opt.t += 1
    correct1 = 1.0 - beta1 ** opt.t
    correct2 = 1.0 - beta2 ** opt.t
    m, v = opt.m, opt.v
    step = np.multiply(grad, 1.0 - beta1)
    m *= beta1
    m += step
    np.multiply(grad, 1.0 - beta2, out=step)
    step *= grad
    v *= beta2
    v += step
    np.divide(m, correct1, out=step)
    step *= lr
    denom = np.divide(v, correct2)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    params -= step


# ---------------------------------------------------------------------------
# objective


def compute_objective(out, labels, weights, cfg: TrainConfig):
    """Configured loss on a model forward. Returns
    (total, breakdown, d_tap_embeddings, d_speaker_embedding, d_weights)."""
    reads = OBJECTIVES[cfg.objective]
    lam_tap, lam_spk = (getattr(cfg.loss, name) if name in reads else 0.0
                        for name in ("lam1", "lam2"))
    return losses.objective(out.tap_embeddings, out.speaker_embedding, labels,
                            weights, lam_tap, lam_spk)


def _shard_worker(model: SpeakerModel):
    """A worker process, forked now, that runs shard 1 of each
    ``train_step`` on its copy of ``model``, and the shared vector it
    copies that copy's gradient into after each backward. The copy sees
    every in-place update of the parameter vector, which lies in a shared
    mapping (``model._flat_layout``); it reads batch-norm state only in
    eval mode, which it never runs. Each step the worker sends back the
    minor page faults it took. Returns (``parallel.ShardWorker``, gradient
    vector); the caller closes the worker."""
    vector = parallel.shared_empty(model.grad_vector.size, model.dtype)

    def serve(worker):
        while True:
            feats, rows, rng = worker.recv()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with nn.row_shard(worker, 1, rows):
                out = model.forward(feats, mode="train", rng=rng)
            worker.send((out.tap_embeddings, out.speaker_embedding))
            d_taps, d_spk = worker.recv()
            model.backward(out, d_taps, d_spk)
            np.copyto(vector, model.grad_vector)
            del out
            worker.send(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)

    # the widest part a meeting adds: a batch norm's dγ and dβ together
    part_bytes = 2 * max(v.nbytes for v in model.state.values())
    return parallel.ShardWorker(serve, part_bytes), vector


def train_step(model: SpeakerModel, opt: AdamState, feats, labels,
               cfg: TrainConfig, lr: float, rng: np.random.Generator, shard):
    """One forward/backward/update on the (2B, T, F) batch ``feats``, of at
    least 2 rows. Returns the loss breakdown, and the wall time of each
    stage (``forward_s``, ``loss_s``, ``backward_s`` and ``adam_s``) beside
    the minor page faults that this process and the worker took during the
    step (``minor_faults``).

    The batch runs as two row shards, whatever its size and the CPU count,
    so a run's bits depend only on its config and seed: this thread runs the
    first ``rows - rows // 2`` rows, and the worker process of ``shard``, a
    ``_shard_worker`` of ``model``, runs the rest. The shards meet only in
    batch norm (``nn.row_shard``). The worker sends its tap and speaker
    embeddings back, the loss runs once, here, over both shards' embeddings
    in row order, and the worker gets its rows of the loss gradients. Each
    process's backward writes its own model's ``grad_vector``; the worker
    copies shard 1's into the shared vector of ``shard``, which is added to
    shard 0's before Adam. The bits differ from those of the whole batch in
    one process at round-off. Shard 0 draws its dropout masks from ``rng``,
    and the worker from a child generator spawned from it and sent with its
    rows. A copy of ``rng`` would give crop b (row b, in shard 0) and its
    augmented view (row B + b, in shard 1) the same masks. A step that
    raises leaves the worker out of step: close it."""
    rows = len(feats)
    half = rows - rows // 2
    worker, vector = shard
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    worker.send((feats[half:], rows, rng.spawn(1)[0]))
    with nn.row_shard(worker, 0, rows):
        out = model.forward(feats[:half], mode="train", rng=rng)
    taps, spk = worker.recv()
    # shard 0's tapes, which this process's backward replays
    out = ModelOutput([np.concatenate(pair) for pair in zip(out.tap_embeddings, taps)],
                      np.concatenate([out.speaker_embedding, spk]), out.cache)
    t1 = time.perf_counter()
    total, breakdown, d_taps, d_spk, d_w = compute_objective(
        out, labels, model.classifier_weights, cfg)
    if not np.isfinite(total):
        raise NonFiniteLossError(breakdown)
    t2 = time.perf_counter()
    worker.send(([d[half:] for d in d_taps], d_spk[half:]))
    model.backward(out, [d[:half] for d in d_taps], d_spk[:half])
    worker_faults = worker.recv()
    model.grad_vector += vector
    # rounds the float64 loss gradient to the model's dtype
    model.grads["classifier.w"] += d_w
    t3 = time.perf_counter()
    adam_step(model.param_vector, model.grad_vector, opt, lr)
    t4 = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults + worker_faults
    return breakdown, {"forward_s": t1 - t0, "loss_s": t2 - t1, "backward_s": t3 - t2,
                       "adam_s": t4 - t3, "minor_faults": faults}


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    eer: float
    mindcf: float
    scores: TrialScoreSet


def utterance_store(corpus) -> dict:
    return {w.utterance_id: w for w in corpus}


def trial_utterances(trials, store) -> list:
    """The utterance ids ``trials`` name, each once, in first-use order.
    Raises MissingUtteranceError for ids ``store`` lacks, and LengthError
    naming every one shorter than the encoder's ``MIN_FRAMES`` frames."""
    needed = list(dict.fromkeys(u for t in trials for u in (t.enroll_utt, t.test_utt)))
    missing = [u for u in needed if u not in store]
    if missing:
        raise MissingUtteranceError(missing)
    short = [u for u in needed
             if frame_count(store[u].samples.size, store[u].sample_rate) < MIN_FRAMES]
    if short:
        raise LengthError(f"utterances shorter than {MIN_FRAMES} filterbank frames "
                          f"({MIN_CROP_DURATION:g} s) cannot be scored: {', '.join(short)}")
    return needed


# filterbank frames per batch of utterances that evaluate() embeds at once:
# a batch holds max(1, EVAL_FRAME_BUDGET // T) utterances of T frames, 5 of
# 4 s (T = 398). Timed by alternating budgets on the desk encoder's 20-utterance
# evaluate() calls at 4 s, 8 kHz, with the batches spread over both CPUs
# (2 CPUs, 1 BLAS thread): 58 ms per call at 2048, 64-66 at 1024, 62-65 at
# 4096, and 124-129 at 8192, which makes one batch and so uses one CPU.
EVAL_FRAME_BUDGET = 2048


@parallel.one_blas_thread()
def evaluate(model: SpeakerModel, trials, store) -> EvalResult:
    """Embed every referenced utterance once (full length, eval mode, no
    augmentation), score the trials, and compute EER / minDCF.

    Utterances are grouped by sample count and sample rate, and each group
    is cut into batches of ``EVAL_FRAME_BUDGET`` filterbank frames: one
    ``extract_fbank`` and one ``embed_utterance`` call per batch, the
    batches in shares of ``parallel.deal``. Eval mode only reads the model,
    and both calls are batch-invariant, so every embedding, and with it
    every score, equals that of the utterance embedded alone, bit for bit.
    Each thread's BLAS calls run on that thread alone
    (``parallel.one_blas_thread``).
    Like ``train``, it first makes glibc keep the memory it frees
    (``_keep_freed_heap``), so a later call reuses the pages of the one
    before."""
    _keep_freed_heap()
    needed = trial_utterances(trials, store)
    groups = {}
    for utt in needed:
        w = store[utt]
        groups.setdefault((w.samples.size, w.sample_rate), []).append(utt)
    batches = []
    for (size, rate), utts in groups.items():
        step = max(1, EVAL_FRAME_BUDGET // max(1, frame_count(size, rate)))
        batches += [utts[i:i + step] for i in range(0, len(utts), step)]

    def embed(share):  # -> [(utterance id, embedding)] of the share
        return [pair for batch in share for pair in zip(
            batch, model.embed_utterance(extract_fbank(
                [store[u] for u in batch], model.enc_cfg.input_dim).values))]

    embedded = parallel.deal(batches, embed)
    scores = score_trials(trials, dict(pair for share in embedded for pair in share))
    return EvalResult(compute_eer(scores), compute_mindcf(scores), scores)


# ---------------------------------------------------------------------------
# training loop

# glibc mallopt parameters (malloc.h) and the values train() gives them.
# Setting both thresholds turns off glibc's dynamic thresholds; setting
# either alone still left a desk step re-faulting its buffers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
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
    mappings, where numpy asks for huge pages. One arena serves every
    thread, so the threads of ``build_batch`` and ``evaluate`` allocate from
    that kept heap rather than growing heaps of their own beside it, and
    the shard worker, forked after this call, keeps the same policy. Does
    nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


@dataclass
class TrainResult:
    model: SpeakerModel
    history: list
    eval_result: EvalResult | None = None


@parallel.one_blas_thread()
def train(corpus, enc_cfg: EncoderConfig, head_cfg: HeadConfig,
          cfg: TrainConfig, out_dir=None, trials=None, store=None) -> TrainResult:
    """Full training run over a labeled corpus.

    Writes one JSON-lines record per step (and a checkpoint, which records
    the corpus's sample rate, at the end) when ``out_dir`` is given;
    evaluates on ``trials`` against ``store`` (an ``utterance_store`` of
    the utterances they name, required with ``trials``) every
    ``cfg.eval_every`` steps and once at the end when provided. Each
    record carries the loss breakdown, the wall time of the step's
    ``build_batch`` (``data_s``), of the step itself (``step_s``) and of
    its stages (``forward_s``, ``loss_s``, ``backward_s``, ``adam_s``; see
    ``train_step``), and the minor page faults that the process and the
    shard worker took during the step, ``minor_faults``.

    Row shards: before its first step, ``train`` forks the one worker
    process that runs the second row shard of every step
    (``_shard_worker``), before it opens the log, and it ends the worker
    on every exit path, errors included, so no process outlives the call.

    BLAS: for the length of the call, numpy's bundled OpenBLAS runs on one
    thread (see ``parallel.one_blas_thread``), so the run's bits do not
    depend on the caller's BLAS thread count.

    Allocator policy: before it builds the model, ``train`` sets glibc's
    mmap threshold to 4 MiB and its trim threshold to 256 MiB, so buffers a
    step frees stay mapped for the next step, and keeps one arena for all
    threads. The setting applies to the whole process and stays in force
    after ``train`` returns. It changes no result; where the C library has
    no ``mallopt`` it is skipped.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    _keep_freed_heap()
    label_map = speaker_label_map(corpus)
    model = SpeakerModel(enc_cfg, head_cfg, len(label_map), seed=cfg.seed)
    model.sample_rate = corpus[0].sample_rate
    opt = adam_init(model.param_vector)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    batch = min(cfg.batch_size, len(corpus))
    steps_per_epoch = max(1, len(corpus) // batch)
    order_rng = np.random.default_rng([cfg.seed, 0x0D0E])
    history = []
    eval_result = None
    step = 0
    shard = _shard_worker(model)
    with contextlib.closing(shard[0]), (
            contextlib.nullcontext() if out_dir is None
            else open(out_dir / "train_log.jsonl", "w")) as log_file:
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg)
            perm = order_rng.permutation(len(corpus))
            for s in range(steps_per_epoch):
                picked = [corpus[i] for i in perm[s * batch:(s + 1) * batch]]
                t0 = time.perf_counter()
                feats, labels = build_batch(
                    picked, cfg, enc_cfg.input_dim, _derive_seed(cfg.seed, 1, epoch, s),
                    label_map)
                data_s = time.perf_counter() - t0
                step_rng = np.random.default_rng([cfg.seed, 2, epoch, s])
                t0 = time.perf_counter()
                breakdown, stages = train_step(model, opt, feats, labels, cfg, lr,
                                               step_rng, shard)
                step_s = time.perf_counter() - t0
                record = {"step": step, "epoch": epoch, "lr": lr,
                          "objective": cfg.objective, **breakdown,
                          "data_s": data_s, **stages, "step_s": step_s}
                history.append(record)
                if log_file is not None:
                    log_file.write(json.dumps(record) + "\n")
                step += 1
                if (cfg.eval_every and trials is not None
                        and step % cfg.eval_every == 0):
                    interim = evaluate(model, trials, store)
                    if log_file is not None:
                        log_file.write(json.dumps(
                            {"step": step, "eer": interim.eer,
                             "mindcf": interim.mindcf}) + "\n")

    if trials is not None:
        eval_result = evaluate(model, trials, store)
    if out_dir is not None:
        model.save(Path(out_dir) / "checkpoint.npz")
    return TrainResult(model, history, eval_result)
