
import numpy as np
import pytest

from mfcontrast import losses, trainer
from mfcontrast.config import desk_config
from mfcontrast.losses import LossConfig, am_softmax, objective, supcon
from mfcontrast.trainer import TrainConfig

from oracles import brute_force_supcon, fd_gradient, rel_error


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
    def test_margin_free_reduces_to_cosine_cross_entropy(self, monkeypatch):
        rng = np.random.default_rng(0)
        z, labels, w = random_instance(rng)
        monkeypatch.setattr(losses, "AMS_MARGIN", 0.0)
        monkeypatch.setattr(losses, "AMS_SCALE", 1.0)
        loss, _, _ = am_softmax(z, labels, w)
        zu = unit_rows(z)
        wu = unit_rows(w)
        logits = zu @ wu.T
        ref = np.mean([np.log(np.exp(logits[i]).sum()) - logits[i, labels[i]]
                       for i in range(len(z))])
        assert abs(loss - ref) < 1e-12

    def test_perfect_separation_closed_form(self):
        z = np.array([[1.0, 0.0]])
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loss, _, _ = am_softmax(z, np.array([0]), w)
        # margin 0.2, scale 30: log(1 + e^-54) is ~3.5e-24, zero at double precision
        assert abs(loss) < 1e-15

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            z, labels, w = random_instance(rng, n=4, d=8, k=3)
            loss, dz, dw = am_softmax(z, labels, w)
            fz = fd_gradient(lambda: am_softmax(z, labels, w)[0], z)
            fw = fd_gradient(lambda: am_softmax(z, labels, w)[0], w)
            assert rel_error(dz, fz) < 1e-5
            assert rel_error(dw, fw) < 1e-5

    def test_margin_monotonicity(self, monkeypatch):
        rng = np.random.default_rng(2)
        instances = [random_instance(rng) for _ in range(10)]
        with_margin = [am_softmax(*instance)[0] for instance in instances]
        monkeypatch.setattr(losses, "AMS_MARGIN", 0.0)
        for instance, l2 in zip(instances, with_margin):
            l0, _, _ = am_softmax(*instance)
            assert l2 >= l0

    def test_label_out_of_range(self):
        rng = np.random.default_rng(3)
        z, _, w = random_instance(rng)
        with pytest.raises(ValueError):
            am_softmax(z, np.array([0, 1, 2, 3, 0, 1]), w)


class TestSupCon:
    def test_two_rows_same_label_is_zero(self):
        rng = np.random.default_rng(5)
        z = unit_rows(rng.standard_normal((2, 4)))
        loss, dz = supcon(z, np.array([0, 0]))
        assert loss == 0.0

    def test_orthogonal_pairs_closed_form(self, monkeypatch):
        z = np.stack([E1, E1, E2, E2])
        labels = np.array([0, 0, 1, 1])
        monkeypatch.setattr(losses, "SUPCON_TEMPERATURE", 1.0)
        loss, _ = supcon(z, labels)
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
            loss, _ = supcon(z, labels)
            assert abs(loss - brute_force_supcon(z, labels, losses.SUPCON_TEMPERATURE)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = unit_rows(rng.standard_normal((6, 8)))
            labels = np.array([0, 0, 1, 1, 2, 2])
            loss, dz = supcon(z, labels)
            fz = fd_gradient(lambda: supcon(z, labels)[0], z)
            assert rel_error(dz, fz) < 1e-5


def _every_anchor_has_positive(labels):
    _, counts = np.unique(labels, return_counts=True)
    return np.all(counts >= 2)


class TestInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        z, labels, w = random_instance(rng, n=8, d=6, k=3)
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        zu = unit_rows(z)
        perm = rng.permutation(8)
        for fn in (lambda v, l: supcon(v, l)[0],
                   lambda v, l: am_softmax(v, l, w)[0]):
            assert abs(fn(zu, labels) - fn(zu[perm], labels[perm])) < 1e-10

    def test_rotation_invariance_of_inner_product_losses(self):
        rng = np.random.default_rng(18)
        z = unit_rows(rng.standard_normal((6, 6)))
        labels = np.array([0, 0, 1, 1, 2, 2])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a, _ = supcon(z, labels)
        b, _ = supcon(z @ q, labels)
        assert abs(a - b) < 1e-8


def preset(name, taps, spk, labels, w, cfg):
    """The named preset of trainer.OBJECTIVES on raw embeddings."""
    return trainer.compute_objective(taps, spk, labels, w,
                                     TrainConfig(objective=name, loss=cfg))


class TestComposites:
    def setup_method(self):
        rng = np.random.default_rng(19)
        self.rng = rng
        self.taps = [rng.standard_normal((6, 8)) for _ in range(3)]
        self.spk = rng.standard_normal((6, 8))
        self.labels = np.array([0, 1, 2, 0, 1, 2])
        self.w = rng.standard_normal((3, 8))

    def objective(self, lam_tap, lam_spk, taps=None):
        return objective(self.taps if taps is None else taps, self.spk,
                         self.labels, self.w, lam_tap, lam_spk)

    def preset(self, name, cfg):
        return preset(name, self.taps, self.spk, self.labels, self.w, cfg)

    def test_zero_lambda_reduces_to_am_softmax(self):
        ams, dz, dw = am_softmax(self.spk, self.labels, self.w)
        # am_softmax is the objective with both weights zero, whatever the config
        for total, bd, d_taps, d_spk, d_w in (self.objective(0.0, 0.0),
                                              self.preset("am_softmax",
                                                          LossConfig(lam1=0.3, lam2=0.3))):
            assert total == ams
            np.testing.assert_array_equal(d_spk, dz)
            np.testing.assert_array_equal(d_w, dw)
            assert all(np.all(d == 0.0) for d in d_taps)

    def test_single_block_composition(self):
        total, bd, _, _, _ = self.objective(1.0, 0.0, taps=self.taps[:1])
        ams, _, _ = am_softmax(self.spk, self.labels, self.w)
        sc, _ = supcon(unit_rows(self.taps[0]), self.labels)
        assert abs(total - (ams + sc)) < 1e-12

    def test_breakdown_recombines_exactly(self):
        total, bd, _, _, _ = self.preset("mfcon", LossConfig(lam1=0.01))
        recombined = bd["ams"] + bd["lambda_tap"] * np.mean(bd["contrastive"])
        assert total == bd["total"]
        assert abs(total - recombined) < 1e-15

    def test_combined_reductions(self):
        # combined reads both weights, so a zero one is rejected rather than
        # training am_softmax, am_supcon or mfcon under combined's name
        for lam1, lam2, field in ((0.0, 0.0, "lam1"), (0.0, 0.3, "lam1"),
                                  (0.25, 0.0, "lam2")):
            with pytest.raises(ValueError, match=f"reads loss.{field}"):
                self.preset("combined", LossConfig(lam1=lam1, lam2=lam2))

        # every preset is the objective at the weights it reads, 0 for the rest
        cfg = LossConfig(lam1=0.25, lam2=0.3)
        for name, lam_tap, lam_spk in (("am_softmax", 0.0, 0.0), ("mfcon", 0.25, 0.0),
                                       ("am_supcon", 0.0, 0.3), ("combined", 0.25, 0.3)):
            t1, _, dt1, ds1, dw1 = self.preset(name, cfg)
            t2, _, dt2, ds2, dw2 = self.objective(lam_tap, lam_spk)
            assert t1 == t2
            for a, b in zip(dt1, dt2):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(ds1, ds2)
            np.testing.assert_array_equal(dw1, dw2)

    def test_combined_total_is_linear_in_components(self):
        total, bd, _, _, _ = self.preset("combined", LossConfig(lam1=0.03, lam2=0.03))
        expected = (bd["ams"] + bd["lambda_tap"] * np.mean(bd["contrastive"])
                    + bd["lambda_spk"] * bd["speaker_contrastive"])
        assert abs(total - expected) < 1e-12

    def test_combined_gradient_linearity(self):
        # gradient of the weighted sum equals the weighted sum of gradients
        _, _, d_taps, d_spk, d_w = self.objective(0.4, 0.6)
        _, _, _, d_spk_a, d_w_a = self.objective(0.0, 0.0)
        _, _, d_taps_b, d_spk_b, _ = self.objective(0.4, 0.0)
        _, _, _, d_spk_c, _ = self.objective(0.0, 0.6)
        np.testing.assert_allclose(d_spk, d_spk_a + (d_spk_b - d_spk_a)
                                   + (d_spk_c - d_spk_a), atol=1e-6)
        for full, part in zip(d_taps, d_taps_b):
            np.testing.assert_allclose(full, part, atol=1e-12)

    def test_mfcon_defaults_match_best_sweep_row(self):
        # the desk preset trains MFCon at the paper's best sweep row, lambda = 0.01
        train = desk_config().train
        assert train.objective == "mfcon"
        assert train.loss.lam1 == 0.01
