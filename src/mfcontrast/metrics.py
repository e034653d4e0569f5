"""Verification scoring: cosine trial scores, equal error rate, and minimum
detection cost.

The decision rule everywhere is: accept a trial when its score is greater
than or equal to the threshold. Candidate thresholds are the distinct
scores plus one value above the maximum (reject-all), which covers every
achievable operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MissingUtteranceError(KeyError):
    """A trial names utterance ids absent from the utterance store."""

    def __init__(self, missing_ids):
        self.missing_ids = list(missing_ids)
        super().__init__("missing utterances: " + ", ".join(map(str, self.missing_ids)))


@dataclass
class Trial:
    enroll_utt: str
    test_utt: str
    is_target: bool


@dataclass
class TrialScoreSet:
    scores: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if self.scores.shape != self.is_target.shape or self.scores.ndim != 1:
            raise ValueError("scores and is_target must be aligned 1-D arrays")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")

    def __len__(self):
        return self.scores.size


def _operating_points(scores, is_target):
    """Miss and false-acceptance rates at every candidate threshold, in
    ascending threshold order: miss rates are nondecreasing, false-acceptance
    rates nonincreasing. Returns (p_miss, p_fa). Both kinds of trial must
    be present, as the CLI's dataset and trial-list checks ensure.
    """
    target_scores = np.sort(scores[is_target])
    nontarget_scores = np.sort(scores[~is_target])
    thresholds = np.unique(scores)
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)  # reject-all point
    # accept iff score >= t: misses are targets strictly below t
    p_miss = np.searchsorted(target_scores, thresholds, side="left") / target_scores.size
    p_fa = (nontarget_scores.size
            - np.searchsorted(nontarget_scores, thresholds, side="left")) / nontarget_scores.size
    return p_miss, p_fa


def compute_eer(s: TrialScoreSet) -> float:
    """Equal error rate.

    Sweeps all distinct score thresholds; where no threshold makes the miss
    and false-acceptance rates exactly equal, the crossing is found by
    linear interpolation between the two adjacent operating points.
    """
    p_miss, p_fa = _operating_points(s.scores, s.is_target)
    diff = p_miss - p_fa
    k = int(np.searchsorted(diff >= 0.0, True))  # first nonnegative; diff is nondecreasing
    if diff[k] == 0.0:
        return float(p_miss[k])
    # segment from point k-1 (diff < 0) to point k (diff > 0)
    x1, y1 = p_fa[k - 1], p_miss[k - 1]
    x2, y2 = p_fa[k], p_miss[k]
    frac = (x1 - y1) / ((y2 - y1) - (x2 - x1))
    return float(x1 + frac * (x2 - x1))


# prior of a target trial in the detection cost
MINDCF_P_TARGET = 0.01


def compute_mindcf(s: TrialScoreSet) -> float:
    """Minimum normalized detection cost over all thresholds, with unit miss
    and false-acceptance costs and p = ``MINDCF_P_TARGET``: DCF(t) =
    p * P_miss(t) + (1 - p) * P_fa(t), normalized by min(p, 1 - p).
    """
    p_miss, p_fa = _operating_points(s.scores, s.is_target)
    dcf = MINDCF_P_TARGET * p_miss + (1.0 - MINDCF_P_TARGET) * p_fa
    norm = min(MINDCF_P_TARGET, 1.0 - MINDCF_P_TARGET)
    return float(dcf[int(np.argmin(dcf))] / norm)


# each stacked product of score_trials gathers about this many bytes of
# embeddings, so scoring's memory does not grow with the trial count
_SCORE_CHUNK_BYTES = 1 << 20


def _row_dots(a, b):
    """Dot product of each row of a with the same row of b: one BLAS dot
    per row, the one ``np.dot`` runs on the two rows alone."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def score_trials(trials, store) -> TrialScoreSet:
    """Cosine-score a trial list against an id -> embedding store.

    Order is preserved; every id the trials name must be in the store
    (``trainer.trial_utterances`` checks first). Each utterance's norm is
    taken once, and the trials' dot products as stacked products over
    chunks of trials of about ``_SCORE_CHUNK_BYTES`` of embeddings; every
    score equals its pair's cosine computed alone, ``np.dot(e1, e2) /
    (norm(e1) * norm(e2))`` with ``np.linalg.norm``, bit for bit.
    """
    labels = np.array([t.is_target for t in trials], dtype=bool)
    index: dict = {}
    enroll = np.array([index.setdefault(t.enroll_utt, len(index)) for t in trials])
    test = np.array([index.setdefault(t.test_utt, len(index)) for t in trials])
    emb = np.stack([np.asarray(store[u], dtype=np.float64) for u in index])
    norms = np.sqrt(_row_dots(emb, emb))
    if np.any(norms == 0.0):
        raise ValueError("cannot cosine-score a zero vector")
    scores = np.empty(len(trials))
    step = max(1, _SCORE_CHUNK_BYTES // emb[0].nbytes)
    for i in range(0, len(trials), step):
        a, b = enroll[i:i + step], test[i:i + step]
        scores[i:i + step] = _row_dots(emb[a], emb[b]) / (norms[a] * norms[b])
    return TrialScoreSet(scores, labels)


# ---------------------------------------------------------------------------
# file formats


def load_trials(path) -> list:
    """Read a trial list: one `<label> <enroll> <test>` line per trial,
    label 1 for target, 0 for nontarget, keys are opaque."""
    trials = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3 or fields[0] not in ("0", "1"):
                raise ValueError(f"{path}:{line_no}: expected '<0|1> <enroll> <test>'")
            trials.append(Trial(fields[1], fields[2], fields[0] == "1"))
    return trials


def save_trials(path, trials) -> None:
    with open(path, "w") as f:
        for t in trials:
            f.write(f"{int(t.is_target)} {t.enroll_utt} {t.test_utt}\n")


def save_scores(path, s: TrialScoreSet) -> None:
    """Write one `<score> <label>` line per trial, scores at 6 decimals."""
    with open(path, "w") as f:
        for score, label in zip(s.scores, s.is_target):
            f.write(f"{score:.6f} {int(label)}\n")
