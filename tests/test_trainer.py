import ctypes
import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from mfcontrast import config, trainer
from mfcontrast.encoder import EncoderConfig
from mfcontrast.features import FeatureMatrix, Waveform, extract_fbank, frame_count
from mfcontrast.heads import HeadConfig
from mfcontrast.losses import LossConfig
from mfcontrast.model import SpeakerModel
from mfcontrast.synthdata import SynthSpec, generate_corpus, generate_trials
from mfcontrast.trainer import OBJECTIVES, TrainConfig

from oracles import cosine_score, per_array_adam_step

CORPUS = generate_corpus(SynthSpec(n_speakers=3, utts_per_speaker=4, duration=0.5,
                                   sample_rate=8000, seed=1))
ENC = EncoderConfig(num_blocks=2, model_dim=16, ff_expansion=2,
                    conv_kernel=7, dropout=0.1, input_dim=16)
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
    monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: cpus)
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
    alone = {u: model.embed_utterance(extract_fbank(w, 16).values) for u, w in store.items()}
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
    monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(trainer, "EVAL_FRAME_BUDGET", 1)  # one utterance per batch
    before = set(threading.enumerate())
    caller, calls = batches_by_thread(monkeypatch, WorkerBatchError)
    with pytest.raises(WorkerBatchError):
        trainer.evaluate(SpeakerModel(ENC, HEAD, 3, seed=2),
                         generate_trials(CORPUS, 6, 6, seed=2), trainer.utterance_store(CORPUS))
    assert any(t is not caller for t, _ in calls)
    assert set(threading.enumerate()) == before


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
    for t in range(1, 5):
        feats, labels = trainer.build_batch(CORPUS[t::2], cfg, ENC.input_dim, t, label_map)
        trainer.train_step(model, opt, feats, labels, cfg, cfg.lr, np.random.default_rng(t))
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


def libc_has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not libc_has_mallopt(), reason="the C library has no mallopt")
def test_desk_steps_after_the_first_epoch_reuse_freed_memory():
    # a desk step frees about 64 MiB of 1-4 MiB buffers; under glibc's default
    # thresholds each later step faulted about 16k pages back in
    desk = config.desk_config()
    corpus = generate_corpus(replace(desk.synth, n_speakers=10, utts_per_speaker=10))
    cfg = replace(desk.train, epochs=2)
    assert (cfg.batch_size, cfg.crop_duration) == (50, 1.0)
    history = trainer.train(corpus, desk.encoder, desk.head, cfg).history
    later = [h["minor_faults"] for h in history if h["epoch"] > 0]
    assert len(later) == 2
    assert max(later) < 1000, later
