"""The benchmark's workloads: inputs made from the seed, the measured loop,
the end-to-end metrics and the checks on the program's outputs.

Each workload runs in one process as a closed loop: the next training step
or utterance starts only when the previous one has finished. Only the
public library is called: ``synthdata``, ``trainer.train``,
``trainer.evaluate`` and ``model.SpeakerModel``. Untraced, the harness adds
only a host-speed probe (see ``host``) and a timestamp before each call of
the public ``trainer.train_step`` and between timed evaluate() calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from mfcontrast import config, synthdata, trainer
from mfcontrast.encoder import EncoderConfig
from mfcontrast.features import extract_fbank
from mfcontrast.heads import HeadConfig
from mfcontrast.losses import LossConfig
from mfcontrast.model import SpeakerModel
from mfcontrast.synthdata import SynthSpec
from mfcontrast.trainer import TrainConfig

from perfbench import host, spans

SETUP_REPEATS = 3
# speakers per timed evaluate() call of an eval-only workload
GROUP_SPEAKERS = 2
# evaluate() scores must match cosines of the eval-mode speaker embedding
CROSS_CHECK_TRIALS = 8
CROSS_CHECK_TOL = 1e-9

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "eer_heldout": "ratio",
    "mindcf_heldout": "ratio",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The program no longer offers what the benchmark measures through."""


@dataclass(frozen=True)
class Workload:
    """One benchmark input family; the seed fills in every random draw.

    ``train`` is None for an evaluation-only workload, which scores a
    seeded untrained model. ``epoch_s`` turns ``--seconds`` into a fixed
    epoch count, so a seed and a run length always do the same work. It is
    about an epoch's wall time on the reference host (2 CPUs, 1 BLAS
    thread), shortened for train_desk so that its held-out EER is read after
    6 epochs rather than 4, where training is still falling fast and the
    EER's seed-to-seed spread was twice as wide.
    """

    name: str
    synth: SynthSpec
    encoder: EncoderConfig
    head: HeadConfig
    train: TrainConfig | None = None
    epoch_s: float = 0.0

    def epochs(self, seconds: float) -> int:
        return max(2, round(seconds / self.epoch_s))


def _workloads() -> dict:
    desk = config.desk_config()
    # The desk corpus's 200 utterances per group, spread over 20 speakers of
    # 10 utterances rather than 10 of 20: EER then depends less on which
    # speakers a seed happens to draw (half the seed-to-seed spread).
    corpus = replace(desk.synth, n_speakers=40, utts_per_speaker=10)
    return {w.name: w for w in (
        Workload("train_desk", corpus, desk.encoder, desk.head, desk.train,
                 epoch_s=2.5),
        Workload("train_deep_short", corpus,
                 replace(desk.encoder, num_blocks=6), desk.head,
                 replace(desk.train, batch_size=20, crop_duration=0.5,
                         objective="combined",
                         loss=LossConfig(lam1=0.1, lam2=0.1)),
                 epoch_s=3.6),
        Workload("embed_long", replace(corpus, n_speakers=20, duration=4.0),
                 desk.encoder, desk.head),
    )}


WORKLOADS = _workloads()


def _all_pairs(utterances, seed) -> list:
    """Every trial among ``utterances``, in a seeded order."""
    counts = {}
    for w in utterances:
        counts[w.speaker_id] = counts.get(w.speaker_id, 0) + 1
    n_target = sum(c * (c - 1) // 2 for c in counts.values())
    n_all = len(utterances) * (len(utterances) - 1) // 2
    return synthdata.generate_trials(utterances, n_target, n_all - n_target, seed)


@dataclass
class Inputs:
    train_corpus: list
    eval_store: dict
    trials: list
    model: SpeakerModel | None = None  # eval-only: the seeded untrained model
    groups: list = field(default_factory=list)  # eval-only: timed trial lists

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for w in self.train_corpus + list(self.eval_store.values()):
            h.update(w.utterance_id.encode())
            h.update(w.samples.tobytes())
        for t in self.trials + [t for g in self.groups for t in g]:
            h.update(f"{t.enroll_utt} {t.test_utt} {t.is_target}".encode())
        return h.hexdigest()


def setup(wl: Workload, seed: int) -> Inputs:
    corpus = synthdata.generate_corpus(replace(wl.synth, seed=seed))
    speakers = sorted({w.speaker_id for w in corpus})
    if wl.train is None:
        train_ids, eval_ids = [], speakers
    else:
        # synthdata stratifies F0 by speaker index, so alternating speakers
        # keeps both groups spread over the whole F0 range
        train_ids, eval_ids = speakers[0::2], speakers[1::2]
    train_corpus = [w for w in corpus if w.speaker_id in set(train_ids)]
    held_out = [w for w in corpus if w.speaker_id in set(eval_ids)]
    # every held-out pair is a trial, so EER carries no trial-sampling noise
    inputs = Inputs(train_corpus, trainer.utterance_store(held_out),
                    _all_pairs(held_out, seed))
    if wl.train is None:
        inputs.model = SpeakerModel(wl.encoder, wl.head, len(eval_ids), seed=seed)
        for k in range(0, len(eval_ids), GROUP_SPEAKERS):
            group = set(eval_ids[k:k + GROUP_SPEAKERS])
            inputs.groups.append(_all_pairs([w for w in held_out if w.speaker_id in group], seed))
    return inputs


def setup_repeated(wl: Workload, seed: int, tracer: spans.Tracer | None = None):
    """Set up SETUP_REPEATS times, probing the host around each.

    Returns (inputs, set-up times, the same rescaled to the reference host).
    """
    probe = host.HostProbe()
    probe.probe()
    raw, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is None:
            made = setup(wl, seed)
        else:
            with tracer.installed(), tracer.span(spans.SETUP):
                made = setup(wl, seed)
        raw.append(time.perf_counter() - t0)
        probe.probe()
        if inputs is None:
            inputs = made
        elif made.fingerprint() != inputs.fingerprint():
            raise BenchmarkError("the same seed gave different inputs")
    return inputs, raw, host.scale(raw, probe.times[:-1], probe.times[1:]).tolist()


@dataclass
class Outcome:
    """What one pass over a workload's main loop produced.

    ``unit_s`` holds the time of each timed unit of work: a training step
    of ``rows_per_unit`` rows (from one train_step call to the next, so it
    includes building the next batch), or an evaluate() call on one
    utterance group, per utterance. ``unit_ref_s`` holds the same rescaled
    to the reference host.
    """

    model: SpeakerModel
    evaluation: trainer.EvalResult  # on the full held-out trial list
    eval_utts: int
    rows_per_unit: float
    unit_s: list = field(default_factory=list)
    unit_ref_s: list = field(default_factory=list)
    history: list = field(default_factory=list)
    group_scores: list = field(default_factory=list)
    group_utts: list = field(default_factory=list)


def _utterances(trials) -> int:
    return len({u for t in trials for u in (t.enroll_utt, t.test_utt)})


@contextlib.contextmanager
def _before_each_call(owner, attr: str, hook):
    """Run ``hook`` before every call of ``owner.<attr>`` in the block."""
    try:
        original = getattr(owner, attr)
    except AttributeError as err:
        raise BenchmarkError(f"{owner.__name__}.{attr} is gone; it clocks the training "
                             "steps") from err

    def clocked(*args, **kwargs):
        hook()
        return original(*args, **kwargs)

    setattr(owner, attr, clocked)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run(wl: Workload, inputs: Inputs, seed: int, seconds: float,
        group_calls: int | None = None, tracer: spans.Tracer | None = None) -> Outcome:
    """One pass over the workload's main loop, probing the host between
    units of work.

    A training workload trains for a fixed epoch count, then evaluates the
    held-out trials once. An eval-only workload evaluates its trials once,
    then calls evaluate() on one utterance group after another for
    ``seconds`` (and at least twice per group), or ``group_calls`` times.
    """
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    probe = host.HostProbe()

    def probe_host():
        with span(spans.PROBE):
            probe.probe()

    if wl.train is None:
        net, history, unit_s, rows_per_unit = inputs.model, [], [], 1.0
    else:
        cfg = replace(wl.train, seed=seed, epochs=wl.epochs(seconds))
        marks = []  # (before the probe, after it) ahead of each step

        def tick():
            t0 = time.perf_counter()
            probe_host()
            marks.append((t0, time.perf_counter()))

        with _before_each_call(trainer, "train_step", tick), span(spans.TRAIN):
            result = trainer.train(inputs.train_corpus, wl.encoder, wl.head, cfg)
        if len(marks) != len(result.history):
            raise BenchmarkError(f"clocked {len(marks)} trainer.train_step calls "
                                 f"for {len(result.history)} steps")
        net, history = result.model, result.history
        # a step runs from the end of its probe to the start of the next one
        unit_s = [nxt[0] - cur[1] for cur, nxt in zip(marks, marks[1:])]
        rows_per_unit = 2 * min(cfg.batch_size, len(inputs.train_corpus))
    with span(spans.EVAL):
        evaluation = trainer.evaluate(net, inputs.trials, inputs.eval_store)
    out = Outcome(net, evaluation, _utterances(inputs.trials), rows_per_unit, unit_s,
                  history=history)

    if inputs.groups:
        floor = 2 * len(inputs.groups)
        t_begin = time.perf_counter()

        def more():
            if group_calls is not None:
                return len(out.group_scores) < group_calls
            return len(out.group_scores) < floor or time.perf_counter() - t_begin < seconds

        probe_host()
        while more():
            trials = inputs.groups[len(out.group_scores) % len(inputs.groups)]
            t0 = time.perf_counter()
            with span(spans.EVAL):
                ev = trainer.evaluate(net, trials, inputs.eval_store)
            elapsed = time.perf_counter() - t0
            probe_host()
            out.group_scores.append(ev.scores.scores)
            out.group_utts.append(_utterances(trials))
            out.unit_s.append(elapsed / out.group_utts[-1])  # per utterance
    out.unit_ref_s = host.scale(out.unit_s, probe.times[:-1], probe.times[1:]).tolist()
    return out


def _epoch_means(history):
    by_epoch: dict[int, list] = {}
    for h in history:
        by_epoch.setdefault(h["epoch"], []).append(float(h["total"]))
    return [float(np.mean(v)) for _, v in sorted(by_epoch.items())]


def loss_curve_sha256(history) -> str:
    return hashlib.sha256(
        np.array([h["total"] for h in history], dtype=np.float64).tobytes()).hexdigest()


def check(wl: Workload, inputs: Inputs, out: Outcome, seed: int):
    """Checks on the program's outputs. Returns (problems, failed ops)."""
    problems = []
    failed = 0
    if wl.train is not None:
        totals = np.array([h["total"] for h in out.history], dtype=np.float64)
        bad = int(np.count_nonzero(~np.isfinite(totals)))
        failed += bad
        if bad:
            problems.append(f"{bad} non-finite training losses")
        means = _epoch_means(out.history)
        if len(means) < 2 or not means[-1] < means[0]:
            problems.append(f"last-epoch mean loss did not fall below the first: {means}")
        if not out.evaluation.eer < 0.5:
            problems.append(f"held-out EER {out.evaluation.eer} is not below 0.5")
    scores = out.evaluation.scores.scores
    if scores.size != len(inputs.trials):
        problems.append(f"{scores.size} scores for {len(inputs.trials)} trials")
    invalid = ~np.isfinite(scores) | (np.abs(scores) > 1.0 + 1e-12)
    if invalid.any():
        failed += len({u for t, b in zip(inputs.trials, invalid) if b
                       for u in (t.enroll_utt, t.test_utt)})
        problems.append(f"{int(invalid.sum())} scores non-finite or outside [-1, 1]")
    n = len(inputs.groups)
    for k in range(n, len(out.group_scores)):
        if not np.array_equal(out.group_scores[k], out.group_scores[k % n]):
            failed += out.group_utts[k]
            problems.append(f"evaluate() call {k} repeated call {k % n} with other scores")
    rng = np.random.default_rng([seed, 0x5C0])
    for k in rng.choice(len(inputs.trials), size=min(CROSS_CHECK_TRIALS, len(inputs.trials)),
                        replace=False):
        t = inputs.trials[int(k)]
        a, b = (_eval_embedding(out.model, inputs.eval_store[u])
                for u in (t.enroll_utt, t.test_utt))
        cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        if not abs(cosine - scores[int(k)]) <= CROSS_CHECK_TOL:
            failed += 2
            problems.append(f"trial {int(k)}: evaluate() scored {scores[int(k)]}, "
                            f"the eval-mode forward gives {cosine}")
    return problems, failed


def _eval_embedding(net: SpeakerModel, wave) -> np.ndarray:
    feats = extract_fbank(wave, net.enc_cfg.input_dim).values
    return net.forward(feats, mode="eval").speaker_embedding[0]


def attempted(out: Outcome) -> int:
    """Operations attempted: training steps plus utterance embeddings."""
    return len(out.history) + out.eval_utts + sum(out.group_utts)


def ref_row_s(out: Outcome) -> float:
    """Median seconds per row on the reference host."""
    return statistics.median(out.unit_ref_s) / out.rows_per_unit


def end_to_end(wl: Workload, setup: tuple, out: Outcome) -> dict:
    """name -> (value, sample count, note). ``setup`` is the raw and the
    rescaled set-up times. Times are rescaled to the reference host (see
    ``host``); the notes give the raw wall-clock medians."""
    setup_raw, setup_ref = setup
    unit = "steps" if out.history else "evaluate() calls"
    raw_rate = out.rows_per_unit / statistics.median(out.unit_s)
    throughput = (1.0 / ref_row_s(out), len(out.unit_ref_s),
                  f"median over {unit}; raw {raw_rate:.4g}")
    n_trials = len(out.evaluation.scores)
    return {
        "setup_s": (statistics.median(setup_ref), len(setup_ref),
                    f"median; raw {statistics.median(setup_raw):.4g}"),
        "rows_per_s": throughput,
        "eer_heldout": (out.evaluation.eer, n_trials, "trials on speakers never trained on"),
        "mindcf_heldout": (out.evaluation.mindcf, n_trials, "p_target 0.01"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1,
                        "max resident set size of the process"),
    }


def info(wl: Workload, out: Outcome) -> dict:
    """Informational fields: not metrics, but what a refactor must keep."""
    res = {"scores_sha256": hashlib.sha256(out.evaluation.scores.scores.tobytes()).hexdigest(),
           "trials": len(out.evaluation.scores), "eval_utterances": out.eval_utts,
           "timed_eval_calls": len(out.group_scores)}
    if wl.train is not None:
        means = _epoch_means(out.history)
        res.update({"epochs": len(means), "steps": len(out.history),
                    "loss_first_epoch": means[0], "loss_final": means[-1],
                    "loss_curve_sha256": loss_curve_sha256(out.history)})
    return res
