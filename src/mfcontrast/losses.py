"""Training objectives with analytic gradients.

Implements additive-margin softmax over cosine logits (AMS), the
supervised contrastive loss (SupCon, arXiv 2004.11362), and the one
training objective built from them:

    AMS(spk) + lam_tap * mean_b SupCon(tap_b) + lam_spk * SupCon(spk)

where ``spk`` is the aggregated speaker embedding and ``tap_b`` the
embedding of block b's feature map. SupCon is the only contrastive loss.
Each weight has one ``LossConfig`` field: ``lam1`` is lam_tap and ``lam2``
is lam_spk; the margin, scale and temperature are constants. The named
presets (the paper's multi-scale feature contrastive objective and its
variants) are rows of ``trainer.OBJECTIVES``, each naming the fields it
reads; a weight the preset does not read is zero.

Every function returns the scalar loss together with gradients for its
array inputs, computed in closed form. ``supcon`` expects unit-norm rows;
``objective`` takes raw embeddings and normalizes inside,
backpropagating through the normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn


# The published values of AM-Softmax's margin, which enters on the cosine,
# and logit scale (arXiv 1801.05599; the paper's MFA-Conformer baseline
# trains with it), and of SupCon's temperature (arXiv 2004.11362).
AMS_MARGIN = 0.2
AMS_SCALE = 30.0
SUPCON_TEMPERATURE = 0.07


@dataclass
class LossConfig:
    """The objective's two weights. ``lam1`` weighs the mean over blocks of
    SupCon on each feature map and ``lam2`` SupCon on the speaker
    embedding; ``trainer.OBJECTIVES`` says which preset reads which.
    ``lam1`` defaults to 0.01, the paper's best sweep row. Both must be
    finite and at least 0.

    SupCon sums over anchors (Eq. 2 of arXiv 2004.11362). Its reference
    code takes the mean instead, but no weight needs a second reduction:
    ``trainer.build_batch`` gives row b and row B+b the same label, so
    every one of the 2B anchors has a positive, and the mean at weight lam
    is the sum at lam / 2B (at the desk 2B = 100, the mean at 0.01 is the
    sum at 1e-4).
    """

    lam1: float = 0.01
    lam2: float = 0.0

    def __post_init__(self):
        for name in ("lam1", "lam2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.lam1, self.lam2) < 0:
            raise ValueError("loss coefficients must be >= 0")


# ---------------------------------------------------------------------------
# additive-margin softmax


def am_softmax(z, labels, weights):
    """Mean cross-entropy over scaled cosine logits with an additive margin
    on the true class: the target logit is s*(cos(theta_y) - m), with
    s = ``AMS_SCALE`` and m = ``AMS_MARGIN``. Embeddings and class weights
    are normalized internally, so raw inputs are fine. Returns (loss, dz,
    dweights).
    """
    z, labels = np.asarray(z, dtype=np.float64), np.asarray(labels, dtype=int)
    w = np.asarray(weights, dtype=np.float64)
    n, k = z.shape[0], w.shape[0]
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    zu, c_z = nn.l2_normalize_fwd(z)
    wu, c_w = nn.l2_normalize_fwd(w)
    cos = zu @ wu.T
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    logits = AMS_SCALE * (cos - AMS_MARGIN * onehot)

    shift = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - shift)
    logprob = logits - shift - np.log(exp.sum(axis=1, keepdims=True))
    loss = -logprob[np.arange(n), labels].mean()

    dlogits = (exp / exp.sum(axis=1, keepdims=True) - onehot) / n
    dcos = AMS_SCALE * dlogits
    dzu = dcos @ wu
    dwu = dcos.T @ zu
    dz = nn.l2_normalize_bwd(dzu, c_z)
    dw = nn.l2_normalize_bwd(dwu, c_w)
    return loss, dz, dw


# ---------------------------------------------------------------------------
# supervised contrastive loss


def _masked_row_softmax(s):
    """Row softmax of a similarity matrix with the diagonal excluded."""
    n = s.shape[0]
    eye = np.eye(n, dtype=bool)
    masked = np.where(eye, -np.inf, s)
    m = masked.max(axis=1, keepdims=True)
    e = np.exp(masked - m)
    total = e.sum(axis=1, keepdims=True)
    return e / total, (m + np.log(total))[:, 0]


def supcon(z, labels):
    """Supervised contrastive loss over unit-norm rows.

    Sums over anchors i the mean over positives p (same label, different
    index) of -log(exp(z_i.z_p / tau) / sum_{a != i} exp(z_i.z_a / tau)),
    tau = ``SUPCON_TEMPERATURE``. Every anchor must have a positive, which
    ``trainer.build_batch``'s doubled batch gives (rows b and B + b share a
    label). Returns (loss, dz).
    """
    z, labels = np.asarray(z, dtype=np.float64), np.asarray(labels)
    n = z.shape[0]
    s = (z @ z.T) / SUPCON_TEMPERATURE
    eye = np.eye(n, dtype=bool)
    positives = (labels[:, None] == labels[None, :]) & ~eye
    pos_count = positives.sum(axis=1)

    softmax, logz = _masked_row_softmax(s)
    mean_pos = (s * positives).sum(axis=1) / pos_count
    total = (logz - mean_pos).sum()

    g = softmax - positives / pos_count[:, None]
    dz = (g + g.T) @ z / SUPCON_TEMPERATURE
    return total, dz


# ---------------------------------------------------------------------------
# the objective


def objective(tap_embeddings, speaker_emb, labels, weights, lam_tap, lam_spk):
    """Margin softmax on the speaker embedding, plus ``lam_tap`` times the
    mean over blocks of SupCon on each tap embedding, plus ``lam_spk``
    times SupCon on the speaker embedding.

    Embeddings come in raw; the SupCon terms unit-normalize them and the
    returned gradients include the normalization. A zero weight skips its
    term. Returns (total, breakdown, d_tap_embeddings, d_speaker_emb,
    d_weights); the breakdown has the same keys whatever the weights.
    """
    ams, d_spk, d_w = am_softmax(speaker_emb, labels, weights)
    num_blocks = len(tap_embeddings)
    per_block = [0.0] * num_blocks
    d_taps = [np.zeros_like(np.asarray(t, dtype=np.float64)) for t in tap_embeddings]
    if lam_tap != 0.0:
        scale = lam_tap / num_blocks
        for b, raw in enumerate(tap_embeddings):
            unit, c_norm = nn.l2_normalize_fwd(np.asarray(raw, dtype=np.float64))
            per_block[b], dunit = supcon(unit, labels)
            d_taps[b] = scale * nn.l2_normalize_bwd(dunit, c_norm)
    spk_value = 0.0
    if lam_spk != 0.0:
        unit, c_norm = nn.l2_normalize_fwd(np.asarray(speaker_emb, dtype=np.float64))
        spk_value, dunit = supcon(unit, labels)
        d_spk = d_spk + lam_spk * nn.l2_normalize_bwd(dunit, c_norm)
    total = ams + lam_tap * (sum(per_block) / num_blocks) + lam_spk * spk_value
    breakdown = {"total": total, "ams": ams, "contrastive": per_block,
                 "speaker_contrastive": spk_value, "lambda_tap": lam_tap,
                 "lambda_spk": lam_spk}
    return total, breakdown, d_taps, d_spk, d_w
