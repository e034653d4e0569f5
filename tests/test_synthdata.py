import numpy as np
import pytest

from mfcontrast.features import extract_fbank
from mfcontrast.synthdata import (SynthSpec, export_corpus, generate_corpus,
                                  generate_trials, load_manifest)

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
