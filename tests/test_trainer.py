import copy
import ctypes
import hashlib
import json
import math
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfcontrast import config, nn, parallel, trainer
from mfcontrast.encoder import EncoderConfig
from mfcontrast.features import FeatureMatrix, Waveform, extract_fbank, frame_count
from mfcontrast.heads import HeadConfig
from mfcontrast.losses import LossConfig
from mfcontrast.metrics import MissingUtteranceError, Trial
from mfcontrast.model import SpeakerModel
from mfcontrast.synthdata import SynthSpec, generate_corpus, generate_trials
from mfcontrast.trainer import OBJECTIVES, TrainConfig

from oracles import cosine_score, per_array_adam_step
from spies import spy_processes

CORPUS = generate_corpus(SynthSpec(n_speakers=3, utts_per_speaker=4, duration=0.5,
                                   sample_rate=8000, seed=1))
ENC = EncoderConfig(num_blocks=2, model_dim=16, conv_kernel=7, dropout=0.1, input_dim=16)
HEAD = HeadConfig(embed_dim=8, attention_hidden=6)


def tiny(objective):
    """Three epochs of two 12-row steps, with every weight nonzero."""
    return TrainConfig(batch_size=6, lr=3e-3, epochs=3, seed=4, objective=objective,
                       crop_duration=0.3,
                       loss=LossConfig(lam1=0.2, lam2=0.1))


@pytest.fixture(scope="module")
def histories():
    """Two runs of every objective with one seed: name -> (history, history)."""
    return {name: tuple(trainer.train(CORPUS, ENC, HEAD, tiny(name)).history
                        for _ in range(2))
            for name in OBJECTIVES}


def totals(history):
    return np.array([h["total"] for h in history])


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_fixed_seed_reproduces_the_loss_curve(histories, name):
    first, second = histories[name]
    assert len(first) == 6
    np.testing.assert_array_equal(totals(first), totals(second))


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_last_epoch_mean_loss_is_below_the_first(histories, name):
    history = histories[name][0]
    by_epoch = {}
    for h in history:
        by_epoch.setdefault(h["epoch"], []).append(h["total"])
    assert np.mean(by_epoch[max(by_epoch)]) < np.mean(by_epoch[0])


def test_every_record_has_the_same_breakdown_keys(histories):
    keys = {frozenset(h) for runs in histories.values() for h in runs[0]}
    assert keys == {frozenset({"step", "epoch", "lr", "objective", "total", "ams",
                               "contrastive", "speaker_contrastive", "lambda_tap",
                               "lambda_spk", "data_s", "forward_s", "loss_s",
                               "backward_s", "adam_s", "step_s", "minor_faults"})}


def test_step_stage_times_are_non_negative_and_within_the_step(histories):
    for runs in histories.values():
        for h in runs[0]:
            stages = [h[k] for k in ("forward_s", "loss_s", "backward_s", "adam_s")]
            assert min(stages) >= 0.0
            assert sum(stages) <= h["step_s"]


def test_eval_every_logs_interim_evaluations_and_final_scores_match_evaluate(tmp_path):
    trials = generate_trials(CORPUS, 6, 6, seed=2)
    cfg = replace(tiny("mfcon"), eval_every=2)
    result = trainer.train(CORPUS, ENC, HEAD, cfg, out_dir=tmp_path, trials=trials,
                           store=trainer.utterance_store(CORPUS))
    lines = [json.loads(line) for line in (tmp_path / "train_log.jsonl").read_text().splitlines()]
    evals = [line for line in lines if "eer" in line]
    assert [line["step"] for line in evals] == [2, 4, 6]
    assert len(lines) == len(result.history) + len(evals) == 9
    fresh = trainer.evaluate(result.model, trials, trainer.utterance_store(CORPUS))
    assert np.array_equal(result.eval_result.scores.scores, fresh.scores.scores)
    assert evals[-1]["eer"] == fresh.eer


def mixed_length_store():
    """CORPUS with 5 of its 12 utterances cut from 0.5 s to 0.3 s."""
    return {w.utterance_id: w if k % 12 in (0, 2, 5, 7, 8, 10, 11)
            else Waveform(w.samples[:2400], w.sample_rate, w.speaker_id, w.utterance_id)
            for k, w in enumerate(CORPUS)}


def batches_by_thread(monkeypatch, fail_off=None):
    """Patch trainer.extract_fbank to record (thread, utterance count) for
    each call, and to raise ``fail_off`` on any thread but this one."""
    caller, calls = threading.current_thread(), []

    def recorded(waves, n_mels):
        calls.append((threading.current_thread(), len(waves)))
        if fail_off is not None and calls[-1][0] is not caller:
            raise fail_off("a worker's batch failed")
        return extract_fbank(waves, n_mels)

    monkeypatch.setattr(trainer, "extract_fbank", recorded)
    return caller, calls


def check_batched_evaluate(monkeypatch, cpus, long_per_batch, sizes):
    """evaluate() on ``cpus`` usable CPUs, at a budget of ``long_per_batch``
    0.5 s utterances, makes batches of ``sizes`` utterances, embeds
    ceil(batches / cpus) of them on the calling thread, and scores every
    trial as the utterances embedded one at a time do, bit for bit."""
    store = mixed_length_store()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(trainer, "EVAL_FRAME_BUDGET",
                        long_per_batch * frame_count(4000, 8000) + 1)
    trials = generate_trials(CORPUS, 18, 48, seed=3)  # every pair
    model = SpeakerModel(ENC, HEAD, 3, seed=2)
    rng = np.random.default_rng(5)
    model.forward(rng.standard_normal((4, 20, 16)), mode="train", rng=rng)  # move the BN state
    caller, calls = batches_by_thread(monkeypatch)
    got = trainer.evaluate(model, trials, store)
    assert sorted(n for _, n in calls) == sizes
    assert [t for t, _ in calls].count(caller) == -(-len(sizes) // len(cpus))
    alone = {u: model.embed_utterance(extract_fbank([w], 16).values)[0]
             for u, w in store.items()}
    expected = [cosine_score(alone[t.enroll_utt], alone[t.test_utt]) for t in trials]
    assert np.array_equal(got.scores.scores, expected)
    np.testing.assert_array_equal(got.scores.is_target, [t.is_target for t in trials])


def test_batched_evaluate_equals_one_utterance_at_a_time(monkeypatch):
    # 7 utterances of 0.5 s and 5 cut to 0.3 s, interleaved; the budget makes
    # batches of 2 long or 3 short ones, so both groups split unevenly. On one
    # CPU no thread starts.
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("evaluate started a thread"))
    check_batched_evaluate(monkeypatch, {0}, 2, [1, 2, 2, 2, 2, 3])


def test_evaluate_on_two_cpus_equals_one_utterance_at_a_time(monkeypatch):
    # an odd count of batches over two utterance lengths: 4 + 3 long ones and
    # 5 short; the calling thread embeds batches 0 and 2, a pool thread batch 1
    check_batched_evaluate(monkeypatch, {0, 1}, 4, [3, 4, 5])


class WorkerBatchError(RuntimeError):
    pass


def test_a_worker_thread_error_reaches_the_caller_and_no_thread_outlives_evaluate(
        monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(trainer, "EVAL_FRAME_BUDGET", 1)  # one utterance per batch
    before = set(threading.enumerate())
    caller, calls = batches_by_thread(monkeypatch, WorkerBatchError)
    with pytest.raises(WorkerBatchError):
        trainer.evaluate(SpeakerModel(ENC, HEAD, 3, seed=2),
                         generate_trials(CORPUS, 6, 6, seed=2), trainer.utterance_store(CORPUS))
    assert any(t is not caller for t, _ in calls)
    assert set(threading.enumerate()) == before


def test_trial_utterances_reports_every_missing_id_once_in_first_use_order():
    a = CORPUS[0].utterance_id
    trials = [Trial(a, "y", True), Trial("x", a, False), Trial("x", "y", False)]
    with pytest.raises(MissingUtteranceError) as err:
        trainer.trial_utterances(trials, trainer.utterance_store(CORPUS[:1]))
    assert err.value.missing_ids == ["y", "x"]


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_train_step_matches_a_per_array_adam_bit_for_bit(monkeypatch):
    model = SpeakerModel(ENC, HEAD, 3, seed=4)
    ref = {k: p.copy() for k, p in model.params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    opt = trainer.adam_init(model.param_vector)
    seen = []
    adam_step = trainer.adam_step

    def spy(params, grad, opt, lr):
        assert params is model.param_vector and grad is model.grad_vector
        seen.append({k: g.copy() for k, g in model.grads.items()})
        adam_step(params, grad, opt, lr)

    monkeypatch.setattr(trainer, "adam_step", spy)
    cfg = tiny("combined")
    label_map = trainer.speaker_label_map(CORPUS)
    shard = trainer._shard_worker(model)
    with closing(shard[0]):
        for t in range(1, 5):
            feats, labels = trainer.build_batch(CORPUS[t::2], cfg, ENC.input_dim, t, label_map)
            trainer.train_step(model, opt, feats, labels, cfg, cfg.lr,
                               np.random.default_rng(t), shard)
            per_array_adam_step(ref, seen[-1], ref_m, ref_v, t, cfg.lr)
            assert opt.t == t
            for k, p in model.params.items():
                assert_same_bits(p, ref[k])
            for moment, ref_moment in ((opt.m, ref_m), (opt.v, ref_v)):
                assert_same_bits(moment, np.concatenate([ref_moment[k].ravel() for k in ref]))


def assert_views_of_the_vectors(model):
    """Every ``params`` entry is its slice of ``param_vector``, and every
    ``grads`` entry its slice of ``grad_vector``, in ``params`` order."""
    assert model.grads.keys() == model.params.keys()
    for views, vector in ((model.params, model.param_vector),
                          (model.grads, model.grad_vector)):
        # a replaced entry would hold its own memory and miss every update
        assert all(np.shares_memory(a, vector) for a in views.values())
        assert_same_bits(np.concatenate([a.ravel() for a in views.values()]), vector)


def test_after_training_every_parameter_is_a_view_of_the_flat_vector(tmp_path):
    result = trainer.train(CORPUS, ENC, HEAD, tiny("combined"), out_dir=tmp_path)
    assert_views_of_the_vectors(result.model)
    loaded = SpeakerModel.load(tmp_path / "checkpoint.npz")
    assert_views_of_the_vectors(loaded)
    assert_same_bits(loaded.param_vector, result.model.param_vector)


def test_unknown_objective_is_rejected():
    with pytest.raises(ValueError, match="objective"):
        TrainConfig(objective="supcon_only")


@pytest.mark.parametrize("objective, loss, field", [
    ("mfcon", LossConfig(lam1=0.0, lam2=0.1), "lam1"),
    ("am_supcon", LossConfig(), "lam2"),
    ("combined", LossConfig(lam1=0.0, lam2=0.1), "lam1"),
    ("combined", LossConfig(lam1=0.1), "lam2"),
])
def test_a_zero_weight_the_objective_reads_is_rejected(objective, loss, field):
    with pytest.raises(ValueError, match=f"objective {objective} reads loss.{field}"):
        TrainConfig(objective=objective, loss=loss)


CORPUS_16K = generate_corpus(SynthSpec(n_speakers=3, utts_per_speaker=2, duration=0.5,
                                       sample_rate=16000, seed=2))


# 0.3 s crops make 28 frames; the shortest crop TrainConfig takes makes the
# encoder's 4 at either rate
@pytest.mark.parametrize("utterances, crop_duration, frames", [
    (CORPUS, 0.3, 28),
    (CORPUS, 0.055, 4),
    (CORPUS_16K, 0.055, 4),
], ids=["one-rate", "shortest-crop-8k", "shortest-crop-16k"])
def test_a_batch_takes_one_filterbank_call_per_rate_equal_to_one_per_crop(
        monkeypatch, utterances, crop_duration, frames):
    calls = []

    def counted(waves, n_mels):
        calls.append(len(waves))
        return extract_fbank(waves, n_mels)

    def per_crop(waves, n_mels):
        return FeatureMatrix(np.stack([extract_fbank(w, n_mels).values for w in waves]))

    cfg = replace(tiny("mfcon"), crop_duration=crop_duration)
    label_map = trainer.speaker_label_map(utterances)
    for seed in (1, 2, 3):
        monkeypatch.setattr(trainer, "extract_fbank", counted)
        feats, labels = trainer.build_batch(utterances, cfg, 16, seed, label_map)
        monkeypatch.setattr(trainer, "extract_fbank", per_crop)
        loop_feats, loop_labels = trainer.build_batch(utterances, cfg, 16, seed, label_map)
        assert feats.dtype == np.float32 and np.array_equal(feats, loop_feats)
        assert np.array_equal(labels, loop_labels)
        # row b and row B+b share a label, so every anchor has a positive and
        # SupCon's mean over the 2B anchors is its sum over 2B
        b = len(utterances)
        assert np.array_equal(labels[:b], labels[b:])
    assert calls == [2 * len(utterances)] * 3
    assert feats.shape == (2 * len(utterances), frames, 16)
    model = SpeakerModel(ENC, HEAD, 3, seed=1)
    out = model.forward(feats, mode="train", rng=np.random.default_rng(0))
    assert np.all(np.isfinite(out.speaker_embedding))


def test_a_batch_has_the_same_bytes_at_one_and_two_cpus(monkeypatch):
    # 0.3 s crops make 28 frames, so the 24 waves fill two filterbank chunks
    cfg = tiny("mfcon")
    label_map = trainer.speaker_label_map(CORPUS)
    batches = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        batches[len(cpus)] = [trainer.build_batch(CORPUS, cfg, 16, seed, label_map)
                              for seed in (1, 2)]
    for (feats, labels), (two_feats, two_labels) in zip(batches[1], batches[2]):
        assert feats.tobytes() == two_feats.tobytes()
        assert labels.tobytes() == two_labels.tobytes()


def test_a_batch_at_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("build_batch started a thread"))
    feats, _ = trainer.build_batch(CORPUS, tiny("mfcon"), 16, 1,
                                   trainer.speaker_label_map(CORPUS))
    assert feats.shape == (24, 28, 16)


def libc_has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not libc_has_mallopt(), reason="the C library has no mallopt")
def test_desk_steps_after_the_first_epoch_reuse_freed_memory(monkeypatch):
    # a desk step frees about 64 MiB of 1-4 MiB buffers; under glibc's default
    # thresholds each later step faulted about 16k pages back in. The corpus
    # is synthesized on two threads on any host: samples allocated on the
    # second one left a glibc arena that the second shard's thread reused,
    # when it ran on one, and each later step faulted about 3.8k pages. The
    # count holds the shard worker's faults too (see the test below)
    desk = config.desk_config()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    corpus = generate_corpus(replace(desk.synth, n_speakers=10, utts_per_speaker=10))
    cfg = replace(desk.train, epochs=2)
    assert (cfg.batch_size, cfg.crop_duration) == (50, 1.0)
    history = trainer.train(corpus, desk.encoder, desk.head, cfg).history
    later = [h["minor_faults"] for h in history if h["epoch"] > 0]
    assert len(later) == 2
    assert max(later) < 1000, later


# evaluate() in a process that never trains: without the heap policy, each
# call over 20 utterances of 4 s faulted about 15k pages back in
EVAL_FAULTS_RUN = """
import json, resource
from dataclasses import replace
from mfcontrast import config, trainer
from mfcontrast.model import SpeakerModel
from mfcontrast.synthdata import generate_corpus, generate_trials
desk = config.desk_config()
corpus = generate_corpus(replace(desk.synth, n_speakers=4, utts_per_speaker=5, duration=4.0))
trials = generate_trials(corpus, 20, 20, seed=1)
store = trainer.utterance_store(corpus)
model = SpeakerModel(desk.encoder, desk.head, 4, seed=1)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.evaluate(model, trials, store)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not libc_has_mallopt(), reason="the C library has no mallopt")
def test_a_second_evaluate_reuses_the_memory_the_first_freed():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", EVAL_FAULTS_RUN], capture_output=True,
                         text=True, check=True, env=env, timeout=120)
    faults = json.loads(out.stdout)
    assert faults[1] < 1000, faults


# a run on the desk encoder whose BLAS calls are large enough for OpenBLAS
# to split across threads: without the pin, 1 and 2 threads train other bits
BLAS_RUN = """
import hashlib, json
from dataclasses import replace
import numpy as np
from mfcontrast import config, parallel, trainer
from mfcontrast.synthdata import SynthSpec, generate_corpus
desk = config.desk_config()
corpus = generate_corpus(SynthSpec(n_speakers=3, utts_per_speaker=4, duration=1.0,
                                   sample_rate=8000, seed=1))
get_threads = parallel._openblas_threads()[0]
before = get_threads()
result = trainer.train(corpus, desk.encoder, desk.head,
                       replace(desk.train, batch_size=6, epochs=2, seed=4))
print(json.dumps({"threads": [before, get_threads()],
                  "loss": [h["total"] for h in result.history],
                  "params": hashlib.sha256(result.model.param_vector.tobytes()).hexdigest()}))
"""


@pytest.mark.skipif(parallel._openblas_threads() is None,
                    reason="numpy bundles no OpenBLAS")
def test_train_gives_the_same_bits_at_any_caller_blas_thread_count():
    src = Path(__file__).resolve().parent.parent / "src"
    runs = {}
    for threads in (1, 2):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
        out = subprocess.run([sys.executable, "-c", BLAS_RUN], capture_output=True,
                             text=True, check=True, env=env, timeout=120)
        runs[threads] = json.loads(out.stdout)
        # train() gives the caller its own count back
        assert runs[threads].pop("threads") == [threads, threads]
    assert runs[1] == runs[2]


NUMPY_OPENBLAS = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                        .glob("libscipy_openblas64_*.so"))


def cpu_has_avx2():
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


# the kernel that numpy's OpenBLAS runs, read through the library numpy loaded
CORENAME_RUN = """
import ctypes, sys
import numpy
lib = ctypes.CDLL(sys.argv[1])
lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
print(lib.scipy_openblas_get_corename64_().decode())
"""

# the tests that rest on batch invariance, run under the AVX2 (Haswell)
# kernel that an AVX2-only x86 host gets, where a BLAS call that rounds a row
# by its batch's shape breaks them
BATCH_INVARIANCE_TESTS = [
    "tests/test_model.py::TestEmbedUtterance::test_a_stack_embeds_as_its_utterances_one_at_a_time",
    "tests/test_trainer.py::test_batched_evaluate_equals_one_utterance_at_a_time",
    "tests/test_trainer.py::test_evaluate_on_two_cpus_equals_one_utterance_at_a_time",
    "perfbench/test_perfbench.py::test_check_rejects_scores_that_disagree_with_the_forward_pass",
]
# and, at 2 BLAS threads, the deep smoke runs: on that kernel the 6-block
# forward's bits move with the thread count, and the benchmark's cross-check
# compares evaluate(), which runs at one thread, against a forward that the
# smoke test's own process calls
BLAS_THREAD_COUNT_TESTS = [
    "perfbench/test_perfbench.py::test_untraced_run_emits_every_end_to_end_metric[train_deep_short]",
    "perfbench/test_perfbench.py::test_traced_run_reports_every_per_layer_metric[train_deep_short]",
]


@pytest.mark.skipif(not NUMPY_OPENBLAS, reason="numpy bundles no scipy-openblas")
@pytest.mark.skipif(not cpu_has_avx2(), reason="the CPU has no AVX2")
def test_batch_invariance_holds_on_the_avx2_openblas_kernel():
    root = Path(__file__).resolve().parent.parent
    for threads, tests in ((1, BATCH_INVARIANCE_TESTS),
                           (2, BATCH_INVARIANCE_TESTS + BLAS_THREAD_COUNT_TESTS)):
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": str(threads)}
        core = subprocess.run([sys.executable, "-c", CORENAME_RUN, str(NUMPY_OPENBLAS[0])],
                              capture_output=True, text=True, check=True, env=env, timeout=60)
        assert core.stdout.strip() == "Haswell"
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              *tests], cwd=root, capture_output=True,
                             text=True, env=env, timeout=300)
        assert run.returncode == 0, (threads, run.stdout[-3000:])


def test_two_shard_training_gives_the_same_bits_at_one_and_two_cpus(monkeypatch, tmp_path):
    # every step takes two shards, whatever the CPU count says
    before = set(threading.enumerate())
    runs = []
    for k, cpus in enumerate(({0}, {0, 1}, {0, 1})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        calls = spy_processes(monkeypatch, nn, "batch_norm_fwd", tmp_path / f"run{k}",
                              lambda *args, mode, **kwargs: mode)
        runs.append(trainer.train(CORPUS, ENC, HEAD, tiny("combined")))
        assert set(threading.enumerate()) == before and multiprocessing.active_children() == []
        # train-mode batch norm ran here and in the one worker the run forked
        pids = {pid for pid, mode in calls() if mode == "train"}
        assert os.getpid() in pids and len(pids) == 2
    for run in runs[1:]:
        assert_same_bits(totals(run.history), totals(runs[0].history))
        assert_same_bits(run.model.param_vector, runs[0].model.param_vector)


class ShardError(RuntimeError):
    pass


def train_on_a_thread(cfg):
    """Run train() on a thread of its own, so that a hang fails the join
    instead of the test run; returns (the thread, the errors it raised)."""
    raised = []

    def run():
        try:
            trainer.train(CORPUS, ENC, HEAD, cfg)
        except Exception as err:
            raised.append(err)

    runner = threading.Thread(target=run)
    return runner, raised


def assert_train_ended_alone(runner, before):
    runner.join(timeout=60)
    assert not runner.is_alive(), "a shard waits for ever"
    assert set(threading.enumerate()) == before
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("op, failing", [("silu_fwd", "worker"), ("silu_fwd", "caller"),
                                         ("silu_bwd", "worker")])
def test_a_failing_shard_raises_its_error_and_leaves_no_thread(monkeypatch, op, failing):
    # the other shard waits for it in batch norm: the caller sees the worker
    # end, and train() ends the worker when the caller fails; no thread and
    # no process is left either way
    runner, raised = train_on_a_thread(tiny("mfcon"))
    original, caller = getattr(nn, op), os.getpid()

    def fails_on_one_shard(*args, **kwargs):
        if (os.getpid() == caller) == (failing == "caller"):
            raise ShardError(f"{op} failed on the {failing}")
        return original(*args, **kwargs)

    monkeypatch.setattr(nn, op, fails_on_one_shard)
    before = set(threading.enumerate())
    runner.start()
    assert_train_ended_alone(runner, before)
    assert [(type(err), str(err)) for err in raised] == [
        (ShardError, f"{op} failed on the {failing}")]


@pytest.mark.parametrize("op", ["silu_fwd", "silu_bwd"])
def test_a_worker_killed_mid_step_makes_train_raise_its_exit_code(monkeypatch, op):
    # killed in the forward, the worker leaves the caller in a batch norm
    # meeting; in the backward, in a meeting or on the pipe
    runner, raised = train_on_a_thread(tiny("mfcon"))
    original, caller = getattr(nn, op), os.getpid()

    def killed_in_the_worker(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(nn, op, killed_in_the_worker)
    before = set(threading.enumerate())
    runner.start()
    assert_train_ended_alone(runner, before)
    assert [type(err) for err in raised] == [parallel.WorkerExit]
    assert f"exited with code {-signal.SIGKILL}" in str(raised[0])


def test_a_non_finite_loss_ends_the_worker(monkeypatch):
    compute_objective = trainer.compute_objective

    def non_finite(*args):
        total, *rest = compute_objective(*args)
        return math.nan, *rest

    monkeypatch.setattr(trainer, "compute_objective", non_finite)
    runner, raised = train_on_a_thread(tiny("mfcon"))
    before = set(threading.enumerate())
    runner.start()
    assert_train_ended_alone(runner, before)
    assert [type(err) for err in raised] == [trainer.NonFiniteLossError]


class ForkError(OSError):
    pass


def test_train_forks_one_worker_before_its_first_step(monkeypatch, tmp_path):
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(self):
        started.append(len(calls()))
        start(self)

    calls = spy_processes(monkeypatch, trainer, "build_batch", tmp_path / "build_batch")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    history = trainer.train(CORPUS, ENC, HEAD, tiny("mfcon"), out_dir=tmp_path / "run").history
    assert len(history) == 6 and started == [0]
    assert multiprocessing.active_children() == []


def test_a_failed_fork_raises_and_leaves_no_child_and_no_open_log(monkeypatch, tmp_path):
    # an open log would warn from its finalizer, which the test run makes an error
    def fails(self):
        raise ForkError("no process could be started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", fails)
    before = set(threading.enumerate())
    with pytest.raises(ForkError, match="no process could be started"):
        trainer.train(CORPUS, ENC, HEAD, tiny("mfcon"), out_dir=tmp_path)
    assert not (tmp_path / "train_log.jsonl").exists()
    assert set(threading.enumerate()) == before and multiprocessing.active_children() == []


def test_each_shard_draws_its_own_dropout_masks(monkeypatch, tmp_path):
    # a copy of the step's generator in the worker would give row b of each
    # shard the masks of row b of the other: rows b and B + b, a crop and its
    # augmented view
    def mask(x, rate, mode, rng):  # the mask that the call draws
        return [list(x.shape), hashlib.sha256(
            (copy.deepcopy(rng).random(x.shape) >= rate).tobytes()).hexdigest()]

    calls = spy_processes(monkeypatch, nn, "dropout_fwd", tmp_path / "dropout", mask)
    model = SpeakerModel(ENC, HEAD, 3, seed=4)
    cfg = tiny("mfcon")
    feats, labels = trainer.build_batch(CORPUS[:6], cfg, ENC.input_dim, 1,
                                        trainer.speaker_label_map(CORPUS))
    shard = trainer._shard_worker(model)
    with closing(shard[0]):
        trainer.train_step(model, trainer.adam_init(model.param_vector), feats, labels,
                           cfg, cfg.lr, np.random.default_rng(3), shard)
    caller = [note for pid, note in calls() if pid == os.getpid()]
    worker = [note for pid, note in calls() if pid != os.getpid()]
    # both shards hold 6 rows, so their calls draw masks of the same shapes
    assert len(caller) == len(worker) > 0
    assert [shape for shape, _ in caller] == [shape for shape, _ in worker]
    assert [a != b for (_, a), (_, b) in zip(caller, worker)] == [True] * len(caller)


# pages the worker's forward touches each step, in a fresh shared mapping
# (which takes no huge pages), over what a tiny step faults on its own
WORKER_PAGES = 4096


def test_each_steps_minor_faults_count_the_workers(monkeypatch):
    forward, caller = SpeakerModel.forward, os.getpid()

    def faulting_in_the_worker(self, *args, **kwargs):
        if os.getpid() != caller:
            pages = np.frombuffer(mmap.mmap(-1, WORKER_PAGES * mmap.PAGESIZE), np.uint8)
            pages[::mmap.PAGESIZE] = 1
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(SpeakerModel, "forward", faulting_in_the_worker)
    history = trainer.train(CORPUS, ENC, HEAD, tiny("mfcon")).history
    assert min(h["minor_faults"] for h in history) >= WORKER_PAGES
