import numpy as np
import pytest

from mfcontrast.metrics import (Trial, TrialScoreSet, compute_eer, compute_mindcf,
                                load_trials, save_scores, save_trials, score_trials)

from oracles import brute_force_eer, brute_force_mindcf, cosine_score


def scoreset(targets, nontargets):
    scores = np.array(list(targets) + list(nontargets), dtype=float)
    labels = np.array([True] * len(targets) + [False] * len(nontargets))
    return TrialScoreSet(scores, labels)


class TestCosineScore:
    """The oracle ``score_trials`` is checked against."""

    def test_identical_vectors(self):
        v = np.array([0.3, -0.2, 0.9])
        assert cosine_score(v, 2.5 * v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_opposite_vectors(self):
        v = np.array([0.5, 0.5])
        assert cosine_score(v, -v) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_score(np.zeros(3), np.ones(3))


class TestComputeEer:
    def test_perfect_separation(self):
        assert compute_eer(scoreset([0.9, 0.8], [0.2, 0.1])) == 0.0

    def test_hand_derived_one_third(self):
        eer = compute_eer(scoreset([0.8, 0.6, 0.4], [0.5, 0.3, 0.1]))
        assert abs(eer - 1.0 / 3.0) < 1e-12

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(40)
        labels = rng.random(40) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        eer = compute_eer(TrialScoreSet(scores, labels))
        flipped = compute_eer(TrialScoreSet(-scores, ~labels))
        assert abs(eer - flipped) < 1e-9

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(60)
        labels = np.concatenate([np.ones(30, bool), np.zeros(30, bool)])
        base = compute_eer(TrialScoreSet(scores, labels))
        warped = compute_eer(TrialScoreSet(np.exp(scores) + 3.0, labels))
        assert abs(base - warped) < 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n_t = int(rng.integers(1, 40))
            n_n = int(rng.integers(1, 40))
            s = scoreset(rng.standard_normal(n_t) + rng.uniform(0, 1.5),
                         rng.standard_normal(n_n))
            eer = compute_eer(s)
            oracle = brute_force_eer(list(s.scores), list(s.is_target))
            assert abs(eer - oracle) < 1e-9

    def test_duplicate_scores_are_stable(self):
        s = scoreset([0.5, 0.5, 0.4], [0.5, 0.2, 0.2])
        eer = compute_eer(s)
        oracle = brute_force_eer(list(s.scores), list(s.is_target))
        assert abs(eer - oracle) < 1e-12


class TestComputeMindcf:
    def test_perfect_separation(self):
        assert compute_mindcf(scoreset([0.9, 0.8], [0.2, 0.1])) == 0.0

    def test_all_scores_identical_cost_one(self):
        # reject-all: normalized cost 1; accept-all: 99 with p_target 0.01
        assert compute_mindcf(scoreset([0.5, 0.5], [0.5, 0.5, 0.5])) == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_t = int(rng.integers(1, 30))
            n_n = int(rng.integers(1, 30))
            s = scoreset(rng.standard_normal(n_t) + 1.0, rng.standard_normal(n_n))
            mindcf = compute_mindcf(s)
            oracle = brute_force_mindcf(list(s.scores), list(s.is_target))
            assert abs(mindcf - oracle) < 1e-12

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = scoreset(rng.standard_normal(10) - 2.0, rng.standard_normal(10) + 2.0)
            assert compute_mindcf(s) <= 1.0 + 1e-12


class TestScoreTrials:
    def test_self_trial_scores_one(self):
        store = {"a": np.array([0.1, 0.9])}
        out = score_trials([Trial("a", "a", True)], store)
        assert out.scores[0] == pytest.approx(1.0)

    def test_order_preserved(self):
        store = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
                 "c": np.array([1.0, 1.0])}
        trials = [Trial("a", "b", False), Trial("a", "c", True),
                  Trial("b", "c", True)]
        out = score_trials(trials, store)
        assert len(out) == 3
        assert out.scores[0] == pytest.approx(0.0)
        assert out.scores[1] == pytest.approx(np.sqrt(0.5))
        np.testing.assert_array_equal(out.is_target, [False, True, True])

    def test_equals_the_cosine_score_loop_bit_for_bit(self):
        rng = np.random.default_rng(6)
        store = {f"u{i}": rng.standard_normal(24) * 10 ** rng.uniform(-3, 3)
                 for i in range(30)}
        store["f32"] = rng.standard_normal(24).astype(np.float32)
        ids = list(store)
        trials = [Trial(ids[i], ids[j], bool(rng.integers(2)))
                  for i, j in rng.integers(len(ids), size=(500, 2))]
        out = score_trials(trials, store)
        expected = [cosine_score(store[t.enroll_utt], store[t.test_utt]) for t in trials]
        assert np.array_equal(out.scores, expected)
        np.testing.assert_array_equal(out.is_target, [t.is_target for t in trials])

    def test_zero_embedding_rejected(self):
        store = {"a": np.ones(2), "z": np.zeros(2)}
        with pytest.raises(ValueError, match="zero vector"):
            score_trials([Trial("a", "z", False)], store)


class TestFileFormats:
    def test_trial_round_trip(self, tmp_path):
        trials = [Trial("u1", "u2", True), Trial("u1", "u3", False)]
        path = tmp_path / "trials.txt"
        save_trials(path, trials)
        assert path.read_text().startswith("1 u1 u2\n")
        back = load_trials(path)
        assert back == trials

    def test_score_file_holds_one_score_and_label_line_per_trial(self, tmp_path):
        s = scoreset([0.123456789, -0.5], [0.25])
        path = tmp_path / "scores.txt"
        save_scores(path, s)
        assert path.read_text() == "0.123457 1\n-0.500000 1\n0.250000 0\n"

    def test_malformed_trial_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 a b\n")
        with pytest.raises(ValueError):
            load_trials(path)
