"""Training objectives with analytic gradients.

Implements additive-margin softmax over cosine logits (AMS), supervised
contrastive loss (SupCon), NT-Xent, batch-all triplet and N-pair, and the
one training objective built from them:

    AMS(spk) + lam_tap * mean_b C_kind(tap_b) + lam_spk * SupCon(spk)

where ``spk`` is the aggregated speaker embedding, ``tap_b`` the embedding
of block b's feature map and C_kind the contrastive loss named by
``LossConfig.contrastive_kind``. The named presets (the paper's multi-scale
feature contrastive objective and its variants) are rows of
``trainer.OBJECTIVES`` that pick the two weights and the kind.

Every function returns the scalar loss together with gradients for its
array inputs, computed in closed form. Pure contrastive losses expect
unit-norm rows; ``objective`` takes raw embeddings and normalizes inside,
backpropagating through the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

COS_CLAMP = 1e-7

MARGIN_STYLES = ("cosine_additive", "angular_additive")
CONTRASTIVE_KINDS = ("supcon", "ntxent", "triplet", "npair")


@dataclass
class LossConfig:
    """Scalar hyperparameters for all objectives.

    ``lam``, ``lam1`` and ``lam2`` are the contrastive weights that the
    presets in ``trainer.OBJECTIVES`` hand to ``objective``; that table says
    which preset reads which. ``margin_style`` selects where the additive
    margin enters: on the cosine (default) or on the angle.
    """

    margin: float = 0.2
    scale: float = 30.0
    temperature: float = 0.07
    lam: float = 0.0
    lam1: float = 0.0
    lam2: float = 0.0
    margin_style: str = "cosine_additive"
    contrastive_kind: str = "supcon"
    triplet_margin: float = 0.2
    supcon_mean_over_anchors: bool = False

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if min(self.lam, self.lam1, self.lam2) < 0:
            raise ValueError("loss coefficients must be >= 0")
        if self.margin_style not in MARGIN_STYLES:
            raise ValueError(f"margin_style must be one of {MARGIN_STYLES}")
        if self.contrastive_kind not in CONTRASTIVE_KINDS:
            raise ValueError(f"contrastive_kind must be one of {CONTRASTIVE_KINDS}")


# ---------------------------------------------------------------------------
# additive-margin softmax


def am_softmax(z, labels, weights, cfg: LossConfig):
    """Mean cross-entropy over scaled cosine logits with an additive margin
    on the true class.

    ``margin_style="cosine_additive"`` puts the target logit at
    s*(cos(theta_y) - m); ``"angular_additive"`` at s*cos(theta_y + m).
    Embeddings and class weights are normalized internally, so raw inputs
    are fine. Returns (loss, dz, dweights).
    """
    z, labels = np.asarray(z, dtype=np.float64), np.asarray(labels)
    w = np.asarray(weights, dtype=np.float64)
    n, k = z.shape[0], w.shape[0]
    labels = np.asarray(labels, dtype=int)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    zu, c_z = nn.l2_normalize_fwd(z)
    wu, c_w = nn.l2_normalize_fwd(w)
    cos = zu @ wu.T
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0

    if cfg.margin_style == "cosine_additive":
        logits = cfg.scale * (cos - cfg.margin * onehot)
        dcos_factor = None
    else:
        c = np.clip(cos[np.arange(n), labels], -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)
        # cos(theta + m) = c*cos(m) - sqrt(1-c^2)*sin(m)
        shifted = c * np.cos(cfg.margin) - np.sqrt(1.0 - c ** 2) * np.sin(cfg.margin)
        logits = cfg.scale * cos
        logits[np.arange(n), labels] = cfg.scale * shifted
        dcos_factor = np.cos(cfg.margin) + c / np.sqrt(1.0 - c ** 2) * np.sin(cfg.margin)
        # clamped cosines sit on a constant branch
        dcos_factor *= np.abs(cos[np.arange(n), labels]) < 1.0 - COS_CLAMP

    shift = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - shift)
    logprob = logits - shift - np.log(exp.sum(axis=1, keepdims=True))
    loss = -logprob[np.arange(n), labels].mean()

    dlogits = (exp / exp.sum(axis=1, keepdims=True) - onehot) / n
    dcos = cfg.scale * dlogits
    if dcos_factor is not None:
        dcos[np.arange(n), labels] *= dcos_factor
    dzu = dcos @ wu
    dwu = dcos.T @ zu
    dz = nn.l2_normalize_bwd(dzu, c_z)
    dw = nn.l2_normalize_bwd(dwu, c_w)
    return loss, dz, dw


# ---------------------------------------------------------------------------
# contrastive family


def _masked_row_softmax(s):
    """Row softmax of a similarity matrix with the diagonal excluded."""
    n = s.shape[0]
    eye = np.eye(n, dtype=bool)
    masked = np.where(eye, -np.inf, s)
    m = masked.max(axis=1, keepdims=True)
    e = np.exp(masked - m)
    total = e.sum(axis=1, keepdims=True)
    return e / total, (m + np.log(total))[:, 0]


def supcon(z, labels, cfg: LossConfig | None = None):
    """Supervised contrastive loss over unit-norm rows.

    Sums over anchors i the mean over positives p (same label, different
    index) of -log(exp(z_i.z_p / tau) / sum_{a != i} exp(z_i.z_a / tau)).
    Anchors without positives are skipped and counted. Returns
    (loss, dz, num_skipped_anchors).
    """
    cfg = cfg or LossConfig()
    z, labels = np.asarray(z, dtype=np.float64), np.asarray(labels)
    n = z.shape[0]
    if n < 2:
        raise ValueError("supcon needs at least two rows")
    s = (z @ z.T) / cfg.temperature
    eye = np.eye(n, dtype=bool)
    positives = (labels[:, None] == labels[None, :]) & ~eye
    pos_count = positives.sum(axis=1)
    contributing = pos_count > 0
    num_skipped = int(np.count_nonzero(~contributing))
    if not contributing.any():
        return 0.0, np.zeros_like(z), num_skipped

    softmax, logz = _masked_row_softmax(s)
    safe_count = np.maximum(pos_count, 1)
    mean_pos = (s * positives).sum(axis=1) / safe_count
    per_anchor = np.where(contributing, logz - mean_pos, 0.0)
    total = per_anchor.sum()

    g = softmax - positives / safe_count[:, None]
    g[~contributing] = 0.0
    if cfg.supcon_mean_over_anchors:
        denom = contributing.sum()
        total /= denom
        g /= denom
    dz = (g + g.T) @ z / cfg.temperature
    return total, dz, num_skipped


def ntxent(z, pair_index, cfg: LossConfig | None = None):
    """Normalized temperature-scaled cross entropy for a paired batch.

    ``pair_index[i]`` names row i's positive; the mapping must be a perfect
    matching (an involution with no fixed point). The loss averages
    -log(exp(z_i.z_pair(i) / tau) / sum_{a != i} exp(z_i.z_a / tau)) over
    all rows. Returns (loss, dz).
    """
    cfg = cfg or LossConfig()
    z = np.asarray(z, dtype=np.float64)
    pair = np.asarray(pair_index, dtype=int)
    n = z.shape[0]
    idx = np.arange(n)
    if pair.shape != (n,) or np.any(pair == idx) or np.any(pair[pair] != idx):
        raise ValueError("pair_index must be a perfect matching of the rows")
    s = (z @ z.T) / cfg.temperature
    softmax, logz = _masked_row_softmax(s)
    loss = (logz - s[idx, pair]).mean()
    g = softmax.copy()
    g[idx, pair] -= 1.0
    g /= n
    dz = (g + g.T) @ z / cfg.temperature
    return loss, dz


def triplet(z, labels, cfg: LossConfig | None = None):
    """Batch-all triplet loss with squared Euclidean distances.

    Mines every (anchor, positive, negative) triple the labels admit,
    keeps terms max(0, d(a,p) - d(a,n) + margin), and averages the active
    (nonzero) ones. Returns (loss, dz).
    """
    cfg = cfg or LossConfig()
    z, labels = np.asarray(z, dtype=np.float64), np.asarray(labels)
    n = z.shape[0]
    sq = (z ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    same = labels[:, None] == labels[None, :]
    eye = np.eye(n, dtype=bool)

    coeff = np.zeros((n, n))
    total = 0.0
    active_count = 0
    any_valid = False
    for a in range(n):
        pos = np.flatnonzero(same[a] & ~eye[a])
        neg = np.flatnonzero(~same[a])
        if pos.size == 0 or neg.size == 0:
            continue
        any_valid = True
        terms = d2[a, pos][:, None] - d2[a, neg][None, :] + cfg.triplet_margin
        active = terms > 0.0
        if not active.any():
            continue
        total += terms[active].sum()
        active_count += int(active.sum())
        coeff[a, pos] += active.sum(axis=1)
        coeff[a, neg] -= active.sum(axis=0)
    if not any_valid:
        raise ValueError("no valid (anchor, positive, negative) triple in batch")
    if active_count == 0:
        return 0.0, np.zeros_like(z)
    loss = total / active_count
    coeff /= active_count
    b = coeff + coeff.T
    dz = 2.0 * (b.sum(axis=1)[:, None] * z - b @ z)
    return loss, dz


def npair(z, labels, anchors, positives, cfg: LossConfig | None = None):
    """N-pair loss over one (anchor, positive) pair per distinct class.

    For each anchor i, -log(exp(z_i.z_p(i)) / sum_j exp(z_i.z_p(j))) with
    the sum over all anchors' positives; raw inner products, no
    temperature. Errors if two anchors share a class. Returns (loss, dz).
    """
    z, labels = np.asarray(z, dtype=np.float64), np.asarray(labels)
    anchors = np.asarray(anchors, dtype=int)
    positives = np.asarray(positives, dtype=int)
    m = anchors.size
    if m == 0 or positives.size != m:
        raise ValueError("need matching anchor/positive index arrays")
    if np.unique(labels[anchors]).size != m:
        raise ValueError("duplicate class among n-pair anchors")
    s = z[anchors] @ z[positives].T
    shift = s.max(axis=1, keepdims=True)
    e = np.exp(s - shift)
    logz = (shift + np.log(e.sum(axis=1, keepdims=True)))[:, 0]
    loss = (logz - np.diag(s)).mean()
    g = e / e.sum(axis=1, keepdims=True)
    g[np.arange(m), np.arange(m)] -= 1.0
    g /= m
    dz = np.zeros_like(z)
    np.add.at(dz, anchors, g @ z[positives])
    np.add.at(dz, positives, g.T @ z[anchors])
    return loss, dz


# ---------------------------------------------------------------------------
# pairing helpers for the doubled-batch layout


def augmentation_pairs(labels, is_augmented):
    """Involution mapping each row to its augmentation partner.

    Assumes the k-th original corresponds to the k-th augmented row, which
    is how training batches are built; labels are cross-checked.
    """
    if is_augmented is None:
        raise ValueError("pair-based losses need augmentation flags")
    is_augmented = np.asarray(is_augmented, dtype=bool)
    originals = np.flatnonzero(~is_augmented)
    augmented = np.flatnonzero(is_augmented)
    labels = np.asarray(labels)
    if originals.size != augmented.size or np.any(labels[originals] != labels[augmented]):
        raise ValueError("rows do not form matched (original, augmented) pairs")
    pair = np.empty(labels.shape[0], dtype=int)
    pair[originals] = augmented
    pair[augmented] = originals
    return pair


def npair_pairs(labels, is_augmented):
    """First (original, augmented) pair of each distinct class, in order."""
    pair = augmentation_pairs(labels, is_augmented)
    labels = np.asarray(labels)
    anchors, positives, seen = [], [], set()
    for i in np.flatnonzero(~np.asarray(is_augmented, dtype=bool)):
        key = labels[i].item() if hasattr(labels[i], "item") else labels[i]
        if key in seen:
            continue
        seen.add(key)
        anchors.append(i)
        positives.append(pair[i])
    return np.asarray(anchors, dtype=int), np.asarray(positives, dtype=int)


def _contrastive(unit, labels, cfg: LossConfig, is_augmented):
    kind = cfg.contrastive_kind
    if kind == "supcon":
        loss, dz, _ = supcon(unit, labels, cfg)
        return loss, dz
    if kind == "ntxent":
        return ntxent(unit, augmentation_pairs(labels, is_augmented), cfg)
    if kind == "triplet":
        return triplet(unit, labels, cfg)
    anchors, positives = npair_pairs(labels, is_augmented)
    return npair(unit, labels, anchors, positives, cfg)


# ---------------------------------------------------------------------------
# the objective


def objective(tap_embeddings, speaker_emb, labels, weights, cfg: LossConfig,
              lam_tap, lam_spk, is_augmented):
    """Margin softmax on the speaker embedding, plus ``lam_tap`` times the
    mean over blocks of the ``cfg.contrastive_kind`` loss on each tap
    embedding, plus ``lam_spk`` times the supervised contrastive loss on the
    speaker embedding.

    Embeddings come in raw; the contrastive terms unit-normalize them and
    the returned gradients include the normalization. A zero weight skips
    its term. Returns (total, breakdown, d_tap_embeddings, d_speaker_emb,
    d_weights); the breakdown has the same keys whatever the weights.
    """
    if not tap_embeddings:
        raise ValueError("need at least one tap embedding batch")
    ams, d_spk, d_w = am_softmax(speaker_emb, labels, weights, cfg)
    num_blocks = len(tap_embeddings)
    per_block = [0.0] * num_blocks
    d_taps = [np.zeros_like(np.asarray(t, dtype=np.float64)) for t in tap_embeddings]
    if lam_tap != 0.0:
        scale = lam_tap / num_blocks
        for b, raw in enumerate(tap_embeddings):
            unit, c_norm = nn.l2_normalize_fwd(np.asarray(raw, dtype=np.float64))
            per_block[b], dunit = _contrastive(unit, labels, cfg, is_augmented)
            d_taps[b] = scale * nn.l2_normalize_bwd(dunit, c_norm)
    spk_value = 0.0
    if lam_spk != 0.0:
        unit, c_norm = nn.l2_normalize_fwd(np.asarray(speaker_emb, dtype=np.float64))
        spk_value, dunit, _ = supcon(unit, labels, cfg)
        d_spk = d_spk + lam_spk * nn.l2_normalize_bwd(dunit, c_norm)
    total = ams + lam_tap * (sum(per_block) / num_blocks) + lam_spk * spk_value
    breakdown = {"total": total, "ams": ams, "contrastive": per_block,
                 "speaker_contrastive": spk_value, "lambda_tap": lam_tap,
                 "lambda_spk": lam_spk}
    return total, breakdown, d_taps, d_spk, d_w
