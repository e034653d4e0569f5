import threading

import numpy as np
import pytest

from mfcontrast import synthdata
from mfcontrast.features import Waveform, extract_fbank
from mfcontrast.synthdata import SynthSpec, generate_corpus, generate_trials, load_manifest
from oracles import direct_synth_utterance, loop_trials
from spies import on_cpus
from writers import export_corpus

SMALL = SynthSpec(n_speakers=4, utts_per_speaker=3, duration=0.5,
                  sample_rate=8000, seed=7)


class TestGenerateCorpus:
    def test_counts_and_labels(self):
        spec = SynthSpec(n_speakers=10, utts_per_speaker=20, duration=0.2,
                         sample_rate=8000, seed=0)
        corpus = generate_corpus(spec)
        assert len(corpus) == 200
        assert len({w.speaker_id for w in corpus}) == 10
        assert len({w.utterance_id for w in corpus}) == 200

    def test_deterministic_under_seed(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SMALL)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.samples, y.samples)

    def test_seed_changes_content(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SynthSpec(4, 3, 0.5, 8000, seed=8))
        assert not np.array_equal(a[0].samples, b[0].samples)

    def test_samples_in_pcm_range(self):
        for w in generate_corpus(SMALL):
            assert np.max(np.abs(w.samples)) <= 1.0

    def test_within_speaker_similarity_exceeds_cross(self):
        spec = SynthSpec(n_speakers=6, utts_per_speaker=6, duration=0.8,
                         sample_rate=8000, seed=3)
        corpus = generate_corpus(spec)
        feats = np.stack([extract_fbank(w, 40).values.mean(axis=0) for w in corpus])
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        sims = feats @ feats.T
        speakers = [w.speaker_id for w in corpus]
        same, cross = [], []
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                (same if speakers[i] == speakers[j] else cross).append(sims[i, j])
        assert np.mean(same) > np.mean(cross)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n_speakers=1)
        with pytest.raises(ValueError):
            SynthSpec(utts_per_speaker=1)
        with pytest.raises(ValueError):
            SynthSpec(seed=-1)
        with pytest.raises(ValueError):
            SynthSpec(duration=1e-5, sample_rate=8000)

    @pytest.mark.parametrize("sample_rate", [8000, 16000])
    @pytest.mark.parametrize("duration", [0.2, 1.6, 4.0])
    def test_matches_the_direct_sine_sum(self, sample_rate, duration):
        # 20 speakers put the first and last F0 strata at both ends of
        # F0_RANGE: 14 to 38 harmonics at 8 kHz, 16 to 42 at 16 kHz
        spec = SynthSpec(n_speakers=20, utts_per_speaker=2, duration=duration,
                         sample_rate=sample_rate, seed=11)
        harmonics = []
        for i, w in enumerate(generate_corpus(spec)):
            want, k = direct_synth_utterance(spec, i // 2, i % 2)
            harmonics.append(k)
            # the direct sum's phase reaches ~1e5 rad, so it is itself only
            # good to ~2e-11 of the peak
            assert np.max(np.abs(w.samples - want)) <= 1e-10 * np.max(np.abs(want))
        assert (min(harmonics), max(harmonics)) == ((14, 38) if sample_rate == 8000
                                                    else (16, 42))


class WorkerSynthError(RuntimeError):
    pass


def corpus_on(monkeypatch, cpus, spec=SMALL):
    on_cpus(monkeypatch, len(cpus))
    return generate_corpus(spec)


class TestThreadedSynthesis:
    def test_one_and_two_cpus_give_the_same_corpus(self, monkeypatch):
        # 15 utterances: the caller's share holds one more than the thread's
        spec = SynthSpec(n_speakers=5, utts_per_speaker=3, duration=0.3,
                         sample_rate=8000, seed=5)
        one, two = corpus_on(monkeypatch, {0}, spec), corpus_on(monkeypatch, {0, 1}, spec)
        assert ([(w.speaker_id, w.utterance_id) for w in two]
                == [(w.speaker_id, w.utterance_id) for w in one])
        for x, y in zip(one, two):
            assert x.samples.tobytes() == y.samples.tobytes()

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: pytest.fail("generate_corpus started a thread"))
        assert len(corpus_on(monkeypatch, {0})) == 12

    def test_a_worker_error_reaches_the_caller_and_no_thread_outlives_the_call(
            self, monkeypatch):
        caller, seen = threading.current_thread(), []
        synth = synthdata._synth_utterance

        def fails_off_the_caller(*args):
            seen.append(threading.current_thread())
            if seen[-1] is not caller:
                raise WorkerSynthError("an utterance failed on the worker")
            return synth(*args)

        monkeypatch.setattr(synthdata, "_synth_utterance", fails_off_the_caller)
        before = set(threading.enumerate())
        with pytest.raises(WorkerSynthError):
            corpus_on(monkeypatch, {0, 1})
        assert caller in seen and any(t is not caller for t in seen)
        assert set(threading.enumerate()) == before


class TestGenerateTrials:
    def test_counts(self):
        spec = SynthSpec(n_speakers=10, utts_per_speaker=20, duration=0.2,
                         sample_rate=8000, seed=0)
        corpus = generate_corpus(spec)
        trials = generate_trials(corpus, 50, 50, seed=1)
        assert len(trials) == 100
        assert sum(t.is_target for t in trials) == 50

    def test_target_trials_share_speaker(self):
        corpus = generate_corpus(SMALL)
        speaker_of = {w.utterance_id: w.speaker_id for w in corpus}
        trials = generate_trials(corpus, 10, 10, seed=2)
        for t in trials:
            assert t.enroll_utt != t.test_utt
            same = speaker_of[t.enroll_utt] == speaker_of[t.test_utt]
            assert same == t.is_target

    def test_no_duplicate_unordered_pairs(self):
        corpus = generate_corpus(SMALL)
        trials = generate_trials(corpus, 12, 30, seed=3)
        keys = {frozenset((t.enroll_utt, t.test_utt)) for t in trials}
        assert len(keys) == len(trials)

    def test_deterministic(self):
        corpus = generate_corpus(SMALL)
        a = generate_trials(corpus, 5, 5, seed=4)
        b = generate_trials(corpus, 5, 5, seed=4)
        assert a == b

    def test_zero_targets_passes_through(self):
        corpus = generate_corpus(SMALL)
        trials = generate_trials(corpus, 0, 5, seed=5)
        assert len(trials) == 5
        assert not any(t.is_target for t in trials)

    def test_over_requesting_rejected(self):
        corpus = generate_corpus(SMALL)  # 4 speakers x C(3,2) = 12 target pairs
        with pytest.raises(ValueError):
            generate_trials(corpus, 13, 0, seed=6)

    @staticmethod
    def uneven_corpus():
        """Speakers with 2 to 7 utterances, interleaved and out of order."""
        rng = np.random.default_rng(0)
        speakers = [f"s{k}" for k, c in zip((3, 0, 4, 1, 2), (5, 2, 7, 3, 4))
                    for _ in range(c)]
        corpus = []
        for i in rng.permutation(len(speakers)):
            corpus.append(Waveform(np.zeros(1), 8000, speaker_id=speakers[i],
                                   utterance_id=f"u{len(corpus):02d}"))
        return corpus

    @pytest.mark.parametrize("n_target,n_nontarget,seed",
                             [(10, 40, 1), (0, 25, 2), (41, 0, 3), (41, 169, 4)])
    def test_equals_the_pair_loop(self, n_target, n_nontarget, seed):
        corpus = self.uneven_corpus()  # 41 target and 169 nontarget pairs
        assert (generate_trials(corpus, n_target, n_nontarget, seed)
                == loop_trials(corpus, n_target, n_nontarget, seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora_equal_the_pair_loop_down_to_all_pairs(self, seed):
        # speakers of 1 to 8 utterances in a shuffled corpus; the last call
        # asks for every pair, as the benchmark's all-pairs trial lists do
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, size=int(rng.integers(2, 9)))
        speakers = np.repeat(np.arange(sizes.size), sizes)
        rng.shuffle(speakers)
        corpus = [Waveform(np.zeros(1), 8000, speaker_id=f"s{k}", utterance_id=f"u{i:02d}")
                  for i, k in enumerate(speakers)]
        n_target = int(np.sum(sizes * (sizes - 1) // 2))
        n_cross = len(corpus) * (len(corpus) - 1) // 2 - n_target
        for counts in ((int(rng.integers(n_target + 1)), int(rng.integers(n_cross + 1))),
                       (n_target, n_cross)):
            assert (generate_trials(corpus, *counts, seed)
                    == loop_trials(corpus, *counts, seed))

    @pytest.mark.parametrize("n_target,n_nontarget", [(42, 0), (0, 170)])
    def test_over_requests_fail_like_the_pair_loop(self, n_target, n_nontarget):
        corpus = self.uneven_corpus()
        with pytest.raises(ValueError) as want:
            loop_trials(corpus, n_target, n_nontarget, 0)
        with pytest.raises(ValueError) as got:
            generate_trials(corpus, n_target, n_nontarget, 0)
        assert str(got.value) == str(want.value)


class TestExport:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(SMALL)
        manifest = export_corpus(corpus, tmp_path / "corpus")
        back = load_manifest(manifest)
        assert len(back) == len(corpus)
        assert [w.utterance_id for w in back] == [w.utterance_id for w in corpus]
        assert [w.speaker_id for w in back] == [w.speaker_id for w in corpus]
        # 16-bit quantization bounds the sample error
        for x, y in zip(corpus, back):
            assert np.max(np.abs(x.samples - y.samples)) <= 1.0 / 32768
