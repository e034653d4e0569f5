from dataclasses import replace

import numpy as np
import pytest

from mfcontrast import trainer
from mfcontrast.config import desk_config, full_scale_config
from mfcontrast.losses import (LossConfig, am_softmax, augmentation_pairs,
                               npair, npair_pairs, ntxent, objective, supcon,
                               triplet)
from mfcontrast.model import ModelOutput
from mfcontrast.trainer import TrainConfig

from oracles import (brute_force_supcon, brute_force_triplet, fd_gradient,
                     rel_error)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def random_instance(rng, n=6, d=8, k=3):
    z = rng.standard_normal((n, d))
    labels = rng.integers(0, k, size=n)
    w = rng.standard_normal((k, d))
    return z, labels, w


E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])


class TestAmSoftmax:
    def test_margin_free_reduces_to_cosine_cross_entropy(self):
        rng = np.random.default_rng(0)
        z, labels, w = random_instance(rng)
        cfg = LossConfig(margin=0.0, scale=1.0)
        loss, _, _ = am_softmax(z, labels, w, cfg)
        zu = unit_rows(z)
        wu = unit_rows(w)
        logits = zu @ wu.T
        ref = np.mean([np.log(np.exp(logits[i]).sum()) - logits[i, labels[i]]
                       for i in range(len(z))])
        assert abs(loss - ref) < 1e-12

    def test_perfect_separation_closed_form(self):
        z = np.array([[1.0, 0.0]])
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loss, _, _ = am_softmax(z, np.array([0]), w,
                                LossConfig(margin=0.2, scale=30.0))
        # log(1 + e^-54) is ~3.5e-24, zero at double precision
        assert abs(loss) < 1e-15

    @pytest.mark.parametrize("style", ["cosine_additive", "angular_additive"])
    def test_gradients_match_finite_differences(self, style):
        rng = np.random.default_rng(1)
        for trial in range(5):
            z, labels, w = random_instance(rng, n=4, d=8, k=3)
            cfg = LossConfig(margin=0.2, scale=30.0, margin_style=style)
            loss, dz, dw = am_softmax(z, labels, w, cfg)
            fz = fd_gradient(lambda: am_softmax(z, labels, w, cfg)[0], z)
            fw = fd_gradient(lambda: am_softmax(z, labels, w, cfg)[0], w)
            assert rel_error(dz, fz) < 1e-5
            assert rel_error(dw, fw) < 1e-5

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z, labels, w = random_instance(rng)
            l0, _, _ = am_softmax(z, labels, w, LossConfig(margin=0.0))
            l2, _, _ = am_softmax(z, labels, w, LossConfig(margin=0.2))
            assert l2 >= l0

    def test_label_out_of_range(self):
        rng = np.random.default_rng(3)
        z, _, w = random_instance(rng)
        with pytest.raises(ValueError):
            am_softmax(z, np.array([0, 1, 2, 3, 0, 1]), w, LossConfig())

    def test_angular_style_differs_from_cosine_style(self):
        rng = np.random.default_rng(4)
        z, labels, w = random_instance(rng)
        a, _, _ = am_softmax(z, labels, w, LossConfig(margin_style="cosine_additive"))
        b, _, _ = am_softmax(z, labels, w, LossConfig(margin_style="angular_additive"))
        assert a != b


class TestSupCon:
    def test_two_rows_same_label_is_zero(self):
        rng = np.random.default_rng(5)
        z = unit_rows(rng.standard_normal((2, 4)))
        loss, dz, skipped = supcon(z, np.array([0, 0]), LossConfig())
        assert loss == 0.0
        assert skipped == 0

    def test_orthogonal_pairs_closed_form(self):
        z = np.stack([E1, E1, E2, E2])
        labels = np.array([0, 0, 1, 1])
        loss, _, _ = supcon(z, labels, LossConfig(temperature=1.0))
        per_anchor = -(1.0 - np.log(np.e + 2.0))  # -log(e / (e + 2))
        assert abs(loss - 4.0 * per_anchor) < 1e-12
        assert abs(loss - 2.205779) < 1e-5

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = unit_rows(rng.standard_normal((7, 5)))
            labels = rng.integers(0, 3, size=7)
            if not _every_anchor_has_positive(labels):
                continue
            loss, _, _ = supcon(z, labels, LossConfig(temperature=0.4))
            assert abs(loss - brute_force_supcon(z, labels, 0.4)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = unit_rows(rng.standard_normal((6, 8)))
            labels = np.array([0, 0, 1, 1, 2, 2])
            cfg = LossConfig(temperature=0.2)
            loss, dz, _ = supcon(z, labels, cfg)
            fz = fd_gradient(lambda: supcon(z, labels, cfg)[0], z)
            assert rel_error(dz, fz) < 1e-5

    def test_anchor_without_positive_skipped_and_counted(self):
        rng = np.random.default_rng(8)
        z = unit_rows(rng.standard_normal((5, 4)))
        labels = np.array([0, 0, 1, 1, 2])
        loss, dz, skipped = supcon(z, labels, LossConfig())
        assert skipped == 1
        # the lonely anchor row contributes to denominators, so loss is
        # still finite and its own anchor term is absent
        assert np.isfinite(loss)

    def test_mean_over_anchors_flag(self):
        rng = np.random.default_rng(9)
        z = unit_rows(rng.standard_normal((6, 4)))
        labels = np.array([0, 0, 1, 1, 2, 2])
        total, _, _ = supcon(z, labels, LossConfig())
        mean, _, _ = supcon(z, labels, LossConfig(supcon_mean_over_anchors=True))
        assert abs(total / 6.0 - mean) < 1e-12


def _every_anchor_has_positive(labels):
    _, counts = np.unique(labels, return_counts=True)
    return np.all(counts >= 2)


class TestNtxent:
    def test_single_pair_is_zero(self):
        z = unit_rows(np.random.default_rng(11).standard_normal((2, 4)))
        loss, _ = ntxent(z, np.array([1, 0]), LossConfig())
        assert loss == 0.0

    def test_orthogonal_instance_matches_supcon_per_anchor(self):
        z = np.stack([E1, E1, E2, E2])
        loss, _ = ntxent(z, np.array([1, 0, 3, 2]), LossConfig(temperature=1.0))
        assert abs(loss - (-(1.0 - np.log(np.e + 2.0)))) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        pairs = np.array([3, 4, 5, 0, 1, 2])
        for _ in range(5):
            z = unit_rows(rng.standard_normal((6, 8)))
            cfg = LossConfig(temperature=0.3)
            loss, dz = ntxent(z, pairs, cfg)
            fz = fd_gradient(lambda: ntxent(z, pairs, cfg)[0], z)
            assert rel_error(dz, fz) < 1e-5

    def test_unmatched_rows_rejected(self):
        z = np.eye(3)
        with pytest.raises(ValueError):
            ntxent(z, np.array([1, 0, 2]), LossConfig())  # fixed point


class TestTriplet:
    def test_satisfied_margin_is_zero(self):
        # positives co-located with anchors, negatives far away
        z = np.array([[1.0, 0], [1.0, 0], [-1.0, 0], [-1.0, 0]])
        loss, dz = triplet(z, np.array([0, 0, 1, 1]), LossConfig(triplet_margin=0.2))
        assert loss == 0.0
        assert np.all(dz == 0.0)

    def test_hand_instance_term(self):
        # a = e1, p = e2 orthogonal: d(a,p) = 2; n at the anchor: d(a,n) = 0
        z = np.stack([E1, E2, E1])
        labels = np.array([0, 0, 1])
        loss, _ = triplet(z, labels, LossConfig(triplet_margin=0.2))
        # batch-all mean over active triples {2.2, 0.2}
        assert abs(loss - 1.2) < 1e-12
        assert abs(brute_force_triplet(z, labels, 0.2) - loss) < 1e-12

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            z = unit_rows(rng.standard_normal((8, 5)))
            labels = rng.integers(0, 3, size=8)
            if not _every_anchor_has_positive(labels):
                continue
            loss, _ = triplet(z, labels, LossConfig(triplet_margin=0.4))
            assert abs(loss - brute_force_triplet(z, labels, 0.4)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(10):
            z = unit_rows(rng.standard_normal((6, 6)))
            labels = np.array([0, 0, 1, 1, 2, 2])
            cfg = LossConfig(triplet_margin=0.37)
            sq = ((z[:, None, :] - z[None, :, :]) ** 2).sum(-1)
            margins = sq[:, :, None] - sq[:, None, :] + cfg.triplet_margin
            if np.any(np.abs(margins) < 1e-3):
                continue  # stay away from hinge kinks
            loss, dz = triplet(z, labels, cfg)
            fz = fd_gradient(lambda: triplet(z, labels, cfg)[0], z)
            assert rel_error(dz, fz) < 1e-5
            checked += 1
        assert checked >= 3

    def test_no_valid_triple_rejected(self):
        z = np.eye(3)
        with pytest.raises(ValueError):
            triplet(z, np.array([0, 1, 2]), LossConfig())


class TestNpair:
    def test_single_pair_is_zero(self):
        z = unit_rows(np.random.default_rng(15).standard_normal((2, 4)))
        loss, _ = npair(z, np.array([0, 0]), np.array([0]), np.array([1]))
        assert loss == 0.0

    def test_orthogonal_two_class_closed_form(self):
        z = np.stack([E1, E2, E1, E2])
        labels = np.array([0, 1, 0, 1])
        loss, _ = npair(z, labels, np.array([0, 1]), np.array([2, 3]))
        assert abs(loss - np.log(1.0 + np.exp(-1.0))) < 1e-12
        assert abs(loss - 0.313262) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        labels = np.array([0, 1, 2, 0, 1, 2])
        anchors = np.array([0, 1, 2])
        positives = np.array([3, 4, 5])
        for _ in range(5):
            z = unit_rows(rng.standard_normal((6, 8)))
            loss, dz = npair(z, labels, anchors, positives)
            fz = fd_gradient(lambda: npair(z, labels, anchors, positives)[0], z)
            assert rel_error(dz, fz) < 1e-5

    def test_duplicate_class_rejected(self):
        z = np.eye(4)
        with pytest.raises(ValueError, match="duplicate"):
            npair(z, np.array([0, 0, 0, 0]), np.array([0, 1]), np.array([2, 3]))


class TestPairHelpers:
    def test_augmentation_pairs_roundtrip(self):
        labels = np.array([3, 1, 4, 3, 1, 4])
        flags = np.array([False, False, False, True, True, True])
        pair = augmentation_pairs(labels, flags)
        np.testing.assert_array_equal(pair, [3, 4, 5, 0, 1, 2])

    def test_npair_pairs_dedupe_classes(self):
        labels = np.array([7, 7, 5, 7, 7, 5])
        flags = np.array([False, False, False, True, True, True])
        anchors, positives = npair_pairs(labels, flags)
        np.testing.assert_array_equal(anchors, [0, 2])
        np.testing.assert_array_equal(positives, [3, 5])

    def test_mismatched_pairs_rejected(self):
        with pytest.raises(ValueError):
            augmentation_pairs(np.array([0, 1, 1, 0]),
                               np.array([False, False, True, True]))


class TestInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        z, labels, w = random_instance(rng, n=8, d=6, k=3)
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        zu = unit_rows(z)
        perm = rng.permutation(8)
        cfg = LossConfig(temperature=0.3, triplet_margin=0.3)
        for fn in (lambda v, l: supcon(v, l, cfg)[0],
                   lambda v, l: triplet(v, l, cfg)[0],
                   lambda v, l: am_softmax(v, l, w, cfg)[0]):
            assert abs(fn(zu, labels) - fn(zu[perm], labels[perm])) < 1e-10

    def test_rotation_invariance_of_inner_product_losses(self):
        rng = np.random.default_rng(18)
        z = unit_rows(rng.standard_normal((6, 6)))
        labels = np.array([0, 0, 1, 1, 2, 2])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        cfg = LossConfig(temperature=0.4)
        a, _, _ = supcon(z, labels, cfg)
        b, _, _ = supcon(z @ q, labels, cfg)
        assert abs(a - b) < 1e-8
        pairs = np.array([3, 4, 5, 0, 1, 2])
        a2, _ = ntxent(z, pairs, cfg)
        b2, _ = ntxent(z @ q, pairs, cfg)
        assert abs(a2 - b2) < 1e-8


def preset(name, taps, spk, labels, w, cfg, flags):
    """The named preset of trainer.OBJECTIVES on raw embeddings."""
    out = ModelOutput(taps, spk, cache=None)
    return trainer.compute_objective(out, labels, flags, w,
                                     TrainConfig(objective=name, loss=cfg))


class TestComposites:
    def setup_method(self):
        rng = np.random.default_rng(19)
        self.rng = rng
        self.taps = [rng.standard_normal((6, 8)) for _ in range(3)]
        self.spk = rng.standard_normal((6, 8))
        self.labels = np.array([0, 1, 2, 0, 1, 2])
        self.flags = np.array([False, False, False, True, True, True])
        self.w = rng.standard_normal((3, 8))

    def objective(self, cfg, lam_tap, lam_spk, taps=None):
        return objective(self.taps if taps is None else taps, self.spk,
                         self.labels, self.w, cfg, lam_tap, lam_spk, self.flags)

    def preset(self, name, cfg):
        return preset(name, self.taps, self.spk, self.labels, self.w, cfg,
                      self.flags)

    def test_zero_lambda_reduces_to_am_softmax(self):
        cfg = LossConfig(lam=0.3, lam1=0.3, lam2=0.3)
        ams, dz, dw = am_softmax(self.spk, self.labels, self.w, cfg)
        # am_softmax is the objective with both weights zero, whatever the config
        for total, bd, d_taps, d_spk, d_w in (self.objective(cfg, 0.0, 0.0),
                                              self.preset("am_softmax", cfg)):
            assert total == ams
            np.testing.assert_array_equal(d_spk, dz)
            np.testing.assert_array_equal(d_w, dw)
            assert all(np.all(d == 0.0) for d in d_taps)

    def test_single_block_composition(self):
        cfg = LossConfig(temperature=0.5)
        total, bd, _, _, _ = self.objective(cfg, 1.0, 0.0, taps=self.taps[:1])
        ams, _, _ = am_softmax(self.spk, self.labels, self.w, cfg)
        sc, _, _ = supcon(unit_rows(self.taps[0]), self.labels, cfg)
        assert abs(total - (ams + sc)) < 1e-12

    def test_breakdown_recombines_exactly(self):
        cfg = LossConfig(lam=0.01, temperature=0.07)
        total, bd, _, _, _ = self.preset("mfcon", cfg)
        recombined = bd["ams"] + bd["lambda_tap"] * np.mean(bd["contrastive"])
        assert total == bd["total"]
        assert abs(total - recombined) < 1e-15

    def test_combined_reductions(self):
        cfg0 = LossConfig(lam1=0.0, lam2=0.0)
        total, _, _, d_spk, d_w = self.preset("combined", cfg0)
        ams, dz, dw = am_softmax(self.spk, self.labels, self.w, cfg0)
        assert total == ams
        np.testing.assert_array_equal(d_spk, dz)
        np.testing.assert_array_equal(d_w, dw)

        # am_supcon is combined with lam1 = 0
        cfg1 = LossConfig(lam1=0.0, lam2=0.3, temperature=0.2)
        t1, _, _, ds1, dw1 = self.preset("combined", cfg1)
        t2, _, _, ds2, dw2 = self.preset("am_supcon", replace(cfg1, lam1=0.7))
        assert t1 == t2
        np.testing.assert_array_equal(ds1, ds2)
        np.testing.assert_array_equal(dw1, dw2)

        # combined with lam2 = 0 is mfcon with lam = lam1
        cfgm = LossConfig(lam1=0.25, lam2=0.0, temperature=0.2)
        t3, _, dt3, ds3, _ = self.preset("combined", cfgm)
        cfge = LossConfig(lam=0.25, temperature=0.2)
        t4, _, dt4, ds4, _ = self.preset("mfcon", cfge)
        assert abs(t3 - t4) < 1e-15
        for a, b in zip(dt3, dt4):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ds3, ds4)

    def test_combined_total_is_linear_in_components(self):
        cfg = LossConfig(lam1=0.03, lam2=0.03, temperature=0.07)
        total, bd, _, _, _ = self.preset("combined", cfg)
        expected = (bd["ams"] + bd["lambda_tap"] * np.mean(bd["contrastive"])
                    + bd["lambda_spk"] * bd["speaker_contrastive"])
        assert abs(total - expected) < 1e-12

    def test_combined_gradient_linearity(self):
        # gradient of the weighted sum equals the weighted sum of gradients
        cfg = LossConfig(temperature=0.3)
        _, _, d_taps, d_spk, d_w = self.objective(cfg, 0.4, 0.6)
        _, _, _, d_spk_a, d_w_a = self.objective(cfg, 0.0, 0.0)
        _, _, d_taps_b, d_spk_b, _ = self.objective(cfg, 0.4, 0.0)
        _, _, _, d_spk_c, _ = self.objective(cfg, 0.0, 0.6)
        np.testing.assert_allclose(d_spk, d_spk_a + (d_spk_b - d_spk_a)
                                   + (d_spk_c - d_spk_a), atol=1e-6)
        for full, part in zip(d_taps, d_taps_b):
            np.testing.assert_allclose(full, part, atol=1e-12)

    def test_combined_forces_supcon(self):
        cfg = LossConfig(lam1=0.3, lam2=0.2, temperature=0.4)
        ref = self.preset("combined", cfg)
        for kind in ("ntxent", "triplet", "npair"):
            got = self.preset("combined", replace(cfg, contrastive_kind=kind))
            assert got[0] == ref[0]
            for a, b in zip(got[2], ref[2]):
                np.testing.assert_array_equal(a, b)

    def test_mfcon_defaults_match_best_sweep_row(self):
        # both presets train MFCon at the paper's best sweep row, lambda = 0.01
        for preset in (desk_config, full_scale_config):
            train = preset().train
            assert train.objective == "mfcon"
            assert train.loss.lam == 0.01

    @pytest.mark.parametrize("kind", ["supcon", "ntxent", "triplet", "npair"])
    def test_contrastive_kind_dispatch(self, kind):
        cfg = LossConfig(lam=0.1, temperature=0.4, contrastive_kind=kind,
                         triplet_margin=0.3)
        total, bd, d_taps, _, _ = self.preset("mfcon", cfg)
        assert np.isfinite(total)
        assert len(bd["contrastive"]) == 3
        assert any(np.any(d != 0.0) for d in d_taps)
