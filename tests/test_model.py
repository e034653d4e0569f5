import json

import numpy as np
import pytest

from mfcontrast import model, trainer
from mfcontrast.config import desk_config
from mfcontrast.encoder import EncoderConfig
from mfcontrast.heads import HeadConfig
from mfcontrast.losses import LossConfig
from mfcontrast.model import COMPUTE_DTYPE, SpeakerModel
from mfcontrast.synthdata import SynthSpec, generate_corpus
from mfcontrast.trainer import TrainConfig

from oracles import fd_gradient, rel_error

TINY_ENC = EncoderConfig(num_blocks=2, model_dim=16, num_heads=2, ff_expansion=2,
                         conv_kernel=7, dropout=0.0, input_dim=8)
TINY_HEAD = HeadConfig(embed_dim=6, attention_hidden=5)
STEP = 1e-6


def as_float64(m: SpeakerModel) -> SpeakerModel:
    """Run the model's own code in float64 by casting its params and state."""
    m.params = {k: v.astype(np.float64) for k, v in m.params.items()}
    m.state = {k: v.astype(np.float64) for k, v in m.state.items()}
    return m


def arrays_in(tree):
    """Every ndarray in a nest of tuples and lists (a forward cache)."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, (list, tuple)):
        for item in tree:
            yield from arrays_in(item)


class FullModelReadout:
    """Scalar readout sum_b <tap_b, r_b> + <spk, r_spk> of a float64 tiny
    model in train mode, with batch-norm state reset before every pass."""

    def __init__(self):
        rng = np.random.default_rng(7)
        self.model = as_float64(SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=1))
        self.feats = rng.standard_normal((3, 12, 8))
        self.r_taps = [rng.standard_normal((3, 6)) for _ in range(2)]
        self.r_spk = rng.standard_normal((3, 6))
        self.state0 = {k: v.copy() for k, v in self.model.state.items()}

    def forward(self):
        self.model.state = {k: v.copy() for k, v in self.state0.items()}
        return self.model.forward(self.feats, mode="train")

    def __call__(self):
        out = self.forward()
        s = sum((t * r).sum() for t, r in zip(out.tap_embeddings, self.r_taps))
        return s + (out.speaker_embedding * self.r_spk).sum()

    def grads(self):
        return self.model.backward(self.forward(), self.r_taps, self.r_spk)


def directional_fd(f, arrays: dict, direction: dict):
    saved = {k: v.copy() for k, v in arrays.items()}
    for k in arrays:
        arrays[k][...] = saved[k] + STEP * direction[k]
    fp = f()
    for k in arrays:
        arrays[k][...] = saved[k] - STEP * direction[k]
    fm = f()
    for k in arrays:
        arrays[k][...] = saved[k]
    return (fp - fm) / (2 * STEP)


class TestFullModelGradient:
    def test_parameter_gradients_coordinatewise(self):
        readout = FullModelReadout()
        m = readout.model
        grads = readout.grads()
        coord_rng = np.random.default_rng(3)
        worst, worst_name = 0.0, None
        for name in sorted(m.params):
            flat = m.params[name].reshape(-1)
            for i in coord_rng.choice(flat.size, size=min(6, flat.size), replace=False):
                old = flat[i]
                flat[i] = old + STEP
                fp = readout()
                flat[i] = old - STEP
                fm = readout()
                flat[i] = old
                fd = (fp - fm) / (2 * STEP)
                an = grads[name].reshape(-1)[i]
                # the relative slack covers FD roundoff (~eps*|f|/h) on
                # zero-gradient coordinates
                excess = abs(an - fd) - 1e-5 * max(abs(an), abs(fd))
                if excess > worst:
                    worst, worst_name = excess, name
        assert worst < 1e-6, worst_name

    def test_parameter_gradients_directional(self):
        readout = FullModelReadout()
        m = readout.model
        grads = readout.grads()
        dirs_rng = np.random.default_rng(11)
        for _ in range(3):
            d = {k: dirs_rng.standard_normal(v.shape) for k, v in m.params.items()}
            an = sum((grads[k] * d[k]).sum() for k in m.params)
            fd = directional_fd(readout, m.params, d)
            assert abs(an - fd) / max(abs(an), abs(fd)) < 1e-7

    def test_input_gradient_directional(self, monkeypatch):
        readout = FullModelReadout()
        captured = {}
        encoder_bwd = model._encoder_bwd

        def keep_input_grad(*args):
            captured["dfeats"] = encoder_bwd(*args)
            return captured["dfeats"]

        monkeypatch.setattr(model, "_encoder_bwd", keep_input_grad)
        readout.grads()
        direction = np.random.default_rng(13).standard_normal(readout.feats.shape)
        an = (captured["dfeats"] * direction).sum()
        fd = directional_fd(readout, {"feats": readout.feats}, {"feats": direction})
        assert abs(an - fd) / max(abs(an), abs(fd)) < 1e-7


class TestCompositeObjectiveGradients:
    """Finite-difference checks of the upstream gradients model.backward
    receives: every tap, the speaker embedding and the classifier."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.taps = [rng.standard_normal((6, 5)) for _ in range(3)]
        self.spk = rng.standard_normal((6, 5))
        self.w = rng.standard_normal((3, 5))
        self.labels = np.array([0, 1, 2, 0, 1, 2])
        self.flags = np.array([False, False, False, True, True, True])

    def check(self, name, loss_cfg, taps=None, tol=1e-7):
        cfg = TrainConfig(objective=name, loss=loss_cfg)

        def objective():
            out = model.ModelOutput(self.taps, self.spk, cache=None)
            return trainer.compute_objective(out, self.labels, self.flags, self.w, cfg)

        def f():
            return objective()[0]

        _, _, d_taps, d_spk, d_w = objective()
        for i in range(len(self.taps)) if taps is None else taps:
            assert rel_error(d_taps[i], fd_gradient(f, self.taps[i])) < tol, f"tap {i}"
        assert rel_error(d_spk, fd_gradient(f, self.spk)) < tol
        assert rel_error(d_w, fd_gradient(f, self.w)) < tol

    def test_mfcon(self):
        self.check("mfcon", LossConfig(lam=0.5, temperature=0.2))

    def test_combined(self):
        self.check("combined", LossConfig(lam1=0.3, lam2=0.2, temperature=0.2))

    @pytest.mark.parametrize("kind", ["ntxent", "triplet", "npair"])
    def test_mfcon_other_contrastive_kinds(self, kind):
        cfg = LossConfig(lam=0.5, temperature=0.2, contrastive_kind=kind,
                         triplet_margin=0.4)
        self.check("mfcon", cfg, taps=[0], tol=1e-6)


def desk_batch():
    """A desk-preset model and one doubled training batch of real features."""
    desk = desk_config()
    corpus = generate_corpus(SynthSpec(n_speakers=10, utts_per_speaker=5, duration=1.6,
                                       sample_rate=8000, seed=4))
    feats, labels, is_aug = trainer.build_batch(corpus, desk.train, rng_seed=5)
    m = SpeakerModel(desk.encoder, desk.head, num_speakers=10, seed=6)
    return m, desk.train, feats, labels, is_aug


def loss_and_grads(m, cfg, feats, labels, is_aug):
    out = m.forward(feats, mode="train")
    total, _, d_taps, d_spk, d_w = trainer.compute_objective(
        out, labels, is_aug, m.classifier_weights, cfg)
    grads = m.backward(out, d_taps, d_spk)
    grads["classifier.w"] = grads["classifier.w"] + d_w
    return total, grads


class TestComputeDtypePolicy:
    def test_float32_agrees_with_float64(self):
        m32, cfg, feats, labels, is_aug = desk_batch()
        assert feats.shape == (100, 98, 80)
        m64 = as_float64(SpeakerModel(m32.enc_cfg, m32.head_cfg, m32.num_speakers, seed=6))
        loss32, g32 = loss_and_grads(m32, cfg, feats, labels, is_aug)
        loss64, g64 = loss_and_grads(m64, cfg, feats, labels, is_aug)
        assert abs(loss32 - loss64) / abs(loss64) < 1e-6
        global_norm = np.sqrt(sum(np.sum(g ** 2) for g in g64.values()))
        compared = 0
        for name, g in g64.items():
            # conv.dw.b and attn.bk have structurally zero gradients (a
            # train-mode BN follows the first; softmax over keys ignores the
            # second); what is left of them is rounding noise
            if np.linalg.norm(g) <= 1e-6 * global_norm:
                continue
            compared += 1
            assert rel_error(g32[name], g) < 1e-4, name
        assert compared > 0.9 * len(g64)

    def test_one_train_step_stays_float32(self, monkeypatch):
        enc = EncoderConfig(num_blocks=2, model_dim=16, num_heads=2, ff_expansion=2,
                            conv_kernel=7, dropout=0.1, input_dim=8)
        m = SpeakerModel(enc, TINY_HEAD, num_speakers=3, seed=2)
        opt = trainer.adam_init(m.params)
        cfg = TrainConfig(batch_size=3, objective="mfcon", n_mels=8,
                          loss=LossConfig(lam=0.1))
        seen = {}
        compute_objective, backward = trainer.compute_objective, m.backward

        def spy_objective(out, *args):
            seen["out"] = out
            return compute_objective(out, *args)

        def spy_backward(*args):
            grads = backward(*args)
            seen["grads"] = dict(grads)  # train_step then adds the loss's d_w
            return grads

        monkeypatch.setattr(trainer, "compute_objective", spy_objective)
        monkeypatch.setattr(m, "backward", spy_backward)
        rng = np.random.default_rng(8)
        trainer.train_step(m, opt, rng.standard_normal((6, 12, 8)),
                           np.array([0, 1, 2, 0, 1, 2]), np.repeat([False, True], 3),
                           cfg, 1e-3, np.random.default_rng(9))

        out = seen["out"]
        groups = {"params": m.params.values(), "state": m.state.values(),
                  "adam.m": opt.m.values(), "adam.v": opt.v.values(),
                  "grads": seen["grads"].values(), "cache": arrays_in(out.cache)}
        for group, arrays in groups.items():
            dtypes = {a.dtype for a in arrays}
            assert dtypes == {np.dtype(COMPUTE_DTYPE)}, (group, dtypes)
        # dropout is on, so its masks are among the cached arrays checked above
        assert any(set(np.unique(a)) == {0.0, np.float32(1 / 0.9)} for a in arrays_in(out.cache))
        assert out.speaker_embedding.dtype == np.float64
        assert {e.dtype for e in out.tap_embeddings} == {np.dtype(np.float64)}


def rewrite_meta(path, edit):
    """Apply ``edit`` to the JSON meta of the checkpoint archive at ``path``."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta"]))
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


class TestEmbedUtterance:
    def test_equals_eval_forward_without_the_tap_heads(self, monkeypatch):
        m = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=5)
        rng = np.random.default_rng(12)
        m.forward(rng.standard_normal((4, 12, 8)), mode="train")  # move the BN state
        utt = rng.standard_normal((30, 8))
        expected = m.forward(utt, mode="eval").speaker_embedding[0]

        def no_tap_heads(*args, **kwargs):
            raise AssertionError("embed_utterance ran the per-tap heads")

        monkeypatch.setattr(model, "_heads_fwd", no_tap_heads)
        got = m.embed_utterance(utt)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        m = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=3)
        rng = np.random.default_rng(10)
        m.forward(rng.standard_normal((4, 12, 8)), mode="train")  # move the BN state
        path = tmp_path / "checkpoint.npz"
        m.save(path)
        loaded = SpeakerModel.load(path)
        assert loaded.enc_cfg == m.enc_cfg and loaded.head_cfg == m.head_cfg
        assert loaded.num_speakers == m.num_speakers
        for saved, restored in ((m.params, loaded.params), (m.state, loaded.state)):
            assert saved.keys() == restored.keys()
            for k in saved:
                assert restored[k].dtype == COMPUTE_DTYPE
                np.testing.assert_array_equal(restored[k], saved[k])
        utt = rng.standard_normal((30, 8))
        np.testing.assert_array_equal(loaded.embed_utterance(utt), m.embed_utterance(utt))

    def test_loads_archive_that_names_the_subsample_factor(self, tmp_path):
        # checkpoints from before the stride-2 frontend became fixed carry
        # "subsample_factor": "1/2" in their encoder meta
        m = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=3)
        path = tmp_path / "checkpoint.npz"
        m.save(path)
        rewrite_meta(path, lambda meta: meta["encoder"].update(subsample_factor="1/2"))
        loaded = SpeakerModel.load(path)
        assert loaded.enc_cfg == m.enc_cfg
        utt = np.random.default_rng(11).standard_normal((30, 8))
        np.testing.assert_array_equal(loaded.embed_utterance(utt), m.embed_utterance(utt))

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, meta=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError):
            SpeakerModel.load(path)
        np.savez(path, weights=np.zeros(3))  # no meta at all
        with pytest.raises(ValueError):
            SpeakerModel.load(path)
