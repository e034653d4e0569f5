import hashlib
import json
import os
import re
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest

from mfcontrast import model, nn, trainer
from mfcontrast.config import desk_config
from mfcontrast.encoder import EncoderConfig
from mfcontrast.heads import HeadConfig
from mfcontrast.losses import LossConfig
from mfcontrast.model import COMPUTE_DTYPE, SpeakerModel
from mfcontrast.synthdata import SynthSpec, generate_corpus
from mfcontrast.trainer import TrainConfig

from oracles import fd_gradient, rel_error
from spies import spy_processes

TINY_ENC = EncoderConfig(num_blocks=2, model_dim=16, conv_kernel=7, dropout=0.0, input_dim=8)
TINY_HEAD = HeadConfig(embed_dim=6, attention_hidden=5)
STEP = 1e-6


def as_float64(m: SpeakerModel) -> SpeakerModel:
    """Run the model's own code in float64: its parameter and gradient
    vectors rebuilt from float64 parameters, and its state cast."""
    m.param_vector, m.params, m.grad_vector, m.grads = model._flat_layout(
        m.params, np.float64)
    m.state = {k: v.astype(np.float64) for k, v in m.state.items()}
    return m


def arrays_in(tree):
    """Every ndarray in a forward cache: a nest of dicts, lists, tuples and
    tapes, whose recorded steps hold the op caches."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, nn.Tape):
        yield from arrays_in(tree.steps)
    elif isinstance(tree, dict):
        yield from arrays_in(list(tree.values()))
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
        self.model.backward(self.forward(), self.r_taps, self.r_spk)
        return self.model.grads


def directional_fd(f, arrays: dict, direction: dict):
    """Five-point difference quotient of f along ``direction``. Its error is
    O(STEP^4); a central difference's O(STEP^2) error read up to 3.6e-7
    relative on some random directions of the full model."""
    saved = {k: v.copy() for k, v in arrays.items()}

    def at(t):
        for k in arrays:
            arrays[k][...] = saved[k] + t * direction[k]
        return f()

    value = (8.0 * (at(STEP) - at(-STEP)) - (at(2 * STEP) - at(-2 * STEP))) / (12 * STEP)
    for k in arrays:
        arrays[k][...] = saved[k]
    return value


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

    def test_encoder_backward_returns_no_input_gradient(self, monkeypatch):
        # the model's input is the features, so no gradient is built for it;
        # the frontend's parameters are among those checked above
        readout = FullModelReadout()
        returned = []
        encoder_bwd = model._encoder_bwd

        def keep_return(*args):
            returned.append(encoder_bwd(*args))
            return returned[-1]

        monkeypatch.setattr(model, "_encoder_bwd", keep_return)
        grads = readout.grads()
        assert returned == [None]
        assert {"encoder.frontend.w", "encoder.frontend.b"} <= grads.keys()


class TestCompositeObjectiveGradients:
    """Finite-difference checks of the upstream gradients model.backward
    receives: every tap, the speaker embedding and the classifier."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.taps = [rng.standard_normal((6, 5)) for _ in range(3)]
        self.spk = rng.standard_normal((6, 5))
        self.w = rng.standard_normal((3, 5))
        self.labels = np.array([0, 1, 2, 0, 1, 2])

    def check(self, name, loss_cfg, tol=1e-7):
        cfg = TrainConfig(objective=name, loss=loss_cfg)

        def objective():
            out = model.ModelOutput(self.taps, self.spk, cache=None)
            return trainer.compute_objective(out, self.labels, self.w, cfg)

        def f():
            return objective()[0]

        _, _, d_taps, d_spk, d_w = objective()
        for i in range(len(self.taps)):
            assert rel_error(d_taps[i], fd_gradient(f, self.taps[i])) < tol, f"tap {i}"
        assert rel_error(d_spk, fd_gradient(f, self.spk)) < tol
        assert rel_error(d_w, fd_gradient(f, self.w)) < tol

    def test_mfcon(self):
        self.check("mfcon", LossConfig(lam1=0.5))

    def test_combined(self):
        self.check("combined", LossConfig(lam1=0.3, lam2=0.2))


def desk_batch():
    """A desk-preset model and one doubled training batch of real features."""
    desk = desk_config()
    corpus = generate_corpus(SynthSpec(n_speakers=10, utts_per_speaker=5, duration=1.6,
                                       sample_rate=8000, seed=4))
    feats, labels = trainer.build_batch(corpus, desk.train, desk.encoder.input_dim,
                                        rng_seed=5,
                                        label_map=trainer.speaker_label_map(corpus))
    m = SpeakerModel(desk.encoder, desk.head, num_speakers=10, seed=6)
    return m, desk.train, feats, labels


def loss_and_grads(m, cfg, feats, labels):
    out = m.forward(feats, mode="train")
    total, _, d_taps, d_spk, d_w = trainer.compute_objective(
        out, labels, m.classifier_weights, cfg)
    m.backward(out, d_taps, d_spk)
    m.grads["classifier.w"] += d_w
    return total, m.grads


class TestComputeDtypePolicy:
    def test_float32_agrees_with_float64(self):
        m32, cfg, feats, labels = desk_batch()
        assert feats.shape == (100, 98, 80)
        m64 = as_float64(SpeakerModel(m32.enc_cfg, m32.head_cfg, m32.num_speakers, seed=6))
        loss32, g32 = loss_and_grads(m32, cfg, feats, labels)
        loss64, g64 = loss_and_grads(m64, cfg, feats, labels)
        assert abs(loss32 - loss64) / abs(loss64) < 1e-6
        assert g32.keys() == g64.keys()
        for name, g in g64.items():
            assert rel_error(g32[name], g) < 1e-4, name

    def test_one_train_step_stays_float32(self, monkeypatch, tmp_path):
        # two shards, with dropout and without: shard 0's caches are checked
        # here, and shard 1's by a spy on the backward where it runs, the
        # worker process, with the gradient vector that backward writes, its
        # own model's; with dropout, each shard's caches hold its masks
        backward = SpeakerModel.backward

        def masks_in(arrays):
            return any(set(np.unique(a)) == {0.0, np.float32(1 / 0.9)} for a in arrays)

        for dropout in (0.1, 0.0):
            enc = replace(TINY_ENC, dropout=dropout)
            m = SpeakerModel(enc, TINY_HEAD, num_speakers=3, seed=2)
            opt = trainer.adam_init(m.param_vector)
            cfg = TrainConfig(batch_size=3, objective="mfcon", loss=LossConfig(lam1=0.1))
            seen = {}
            compute_objective = trainer.compute_objective

            def spy_objective(out, *args):
                seen["out"] = out
                return compute_objective(out, *args)

            monkeypatch.setattr(trainer, "compute_objective", spy_objective)
            backwards = spy_processes(
                monkeypatch, SpeakerModel, "backward", tmp_path / f"backward{dropout}",
                lambda self, out, d_taps, d_spk: [
                    sorted({str(a.dtype) for a in arrays_in([out.cache, self.grad_vector])}),
                    masks_in(arrays_in(out.cache))])
            rng = np.random.default_rng(8)
            shard = trainer._shard_worker(m)
            with closing(shard[0]):
                trainer.train_step(m, opt, rng.standard_normal((6, 12, 8)),
                                   np.array([0, 1, 2, 0, 1, 2]), cfg, 1e-3,
                                   np.random.default_rng(9), shard)
            monkeypatch.setattr(trainer, "compute_objective", compute_objective)
            monkeypatch.setattr(SpeakerModel, "backward", backward)

            out = seen["out"]
            # this process's backward, then the worker's
            calls = sorted(backwards(), key=lambda call: call[0] != os.getpid())
            assert [pid == os.getpid() for pid, _ in calls] == [True, False]
            assert [note for _, note in calls] == [[[np.dtype(COMPUTE_DTYPE).name],
                                                    bool(dropout)]] * 2
            assert set(out.cache) == {"encoder", "heads", "mfa"}
            groups = {"params": [m.param_vector, *m.params.values()],
                      "state": m.state.values(), "adam.m": [opt.m], "adam.v": [opt.v],
                      "grads": [m.grad_vector, *m.grads.values()],
                      "cache": arrays_in(out.cache)}
            for group, arrays in groups.items():
                dtypes = {a.dtype for a in arrays}
                assert dtypes == {np.dtype(COMPUTE_DTYPE)}, (group, dtypes)
            assert out.speaker_embedding.dtype == np.float64
            assert out.speaker_embedding.shape == (6, TINY_HEAD.embed_dim)
            assert {e.dtype for e in out.tap_embeddings} == {np.dtype(np.float64)}


def test_a_two_shard_step_matches_the_one_shard_step_in_float64(monkeypatch, tmp_path):
    # the gradient Adam receives and the batch-norm state after one float64
    # train_step of a dropout-free tiny model on 8 rows, against the step as
    # one shard: a forward, loss and backward over the whole batch in one
    # process
    rng = np.random.default_rng(17)
    feats, labels = rng.standard_normal((8, 12, 8)), np.array([0, 1, 2, 0, 0, 1, 2, 0])
    cfg = TrainConfig(batch_size=4, objective="combined", loss=LossConfig(lam1=0.2, lam2=0.1))
    whole = as_float64(SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=2))
    loss_and_grads(whole, cfg, feats, labels)
    m = as_float64(SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=2))
    seen = []
    adam_step = trainer.adam_step

    def spy(params, grad, opt, lr):
        seen.append(grad.copy())
        adam_step(params, grad, opt, lr)

    monkeypatch.setattr(trainer, "adam_step", spy)
    calls = spy_processes(monkeypatch, nn, "batch_norm_fwd", tmp_path / "batch_norm")
    shard = trainer._shard_worker(m)
    with closing(shard[0]):
        trainer.train_step(m, trainer.adam_init(m.param_vector), feats, labels, cfg, 1e-3,
                           np.random.default_rng(0), shard)
    # batch norm ran in this process and in the worker
    assert os.getpid() in {pid for pid, _ in calls()}
    assert len({pid for pid, _ in calls()}) == 2
    assert rel_error(seen[0], whole.grad_vector) < 1e-12
    assert m.state.keys() == whole.state.keys()
    for k, v in whole.state.items():
        assert rel_error(m.state[k], v) < 1e-12, k


def rewrite_meta(path, edit):
    """Apply ``edit`` to the JSON meta of the checkpoint archive at ``path``."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta"]))
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def test_eval_forward_keeps_no_caches_and_cannot_be_backpropagated():
    m = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=5)
    out = m.forward(np.random.default_rng(12).standard_normal((4, 12, 8)), mode="eval")
    assert list(arrays_in(out.cache)) == []
    with pytest.raises(ValueError, match="needs a train-mode forward"):
        m.backward(out, [np.ones((4, 6))] * 2, np.ones((4, 6)))


def test_a_second_backward_of_one_output_gives_the_same_bits():
    # backward zeroes grad_vector first; without that, the second call would
    # add its gradients onto the first call's
    m = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=5)
    rng = np.random.default_rng(16)
    out = m.forward(rng.standard_normal((4, 12, 8)), mode="train")
    d_taps, d_spk = [rng.standard_normal((4, 6)) for _ in range(2)], rng.standard_normal((4, 6))
    m.backward(out, d_taps, d_spk)
    first = m.grad_vector.copy()
    assert np.count_nonzero(first)
    m.backward(out, d_taps, d_spk)
    assert m.grad_vector.tobytes() == first.tobytes()


class TestBatchNormState:
    """A train-mode forward moves every batch-norm running statistic in
    place; an eval-mode forward and ``embed_utterance`` only read them."""

    def setup_method(self):
        self.model = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=5)
        self.feats = np.random.default_rng(15).standard_normal((4, 12, 8))

    def test_train_forward_updates_every_entry_in_place(self):
        arrays = dict(self.model.state)
        assert arrays.keys() == {f"{p}.bn.running_{s}" for s in ("mean", "var") for p in (
            "encoder.block0.conv", "encoder.block1.conv", "head.0", "head.1", "mfa")}
        before = {k: v.copy() for k, v in arrays.items()}
        self.model.forward(self.feats, mode="train")
        assert self.model.state.keys() == arrays.keys()
        for k, v in self.model.state.items():
            assert v is arrays[k], k
            assert not np.array_equal(v, before[k]), k

    def test_eval_forward_and_embed_only_read(self):
        self.model.forward(self.feats, mode="train")
        arrays = dict(self.model.state)
        before = {k: v.tobytes() for k, v in arrays.items()}
        self.model.forward(self.feats, mode="eval")
        self.model.embed_utterance(self.feats)
        for k, v in self.model.state.items():
            assert v is arrays[k] and v.tobytes() == before[k], k


class TestEmbedUtterance:
    def test_equals_eval_forward_without_the_tap_heads(self, monkeypatch):
        m = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=5)
        rng = np.random.default_rng(12)
        m.forward(rng.standard_normal((4, 12, 8)), mode="train")  # move the BN state
        utt = rng.standard_normal((1, 30, 8))
        expected = m.forward(utt, mode="eval").speaker_embedding

        def no_tap_heads(*args, **kwargs):
            raise AssertionError("embed_utterance ran the per-tap heads")

        monkeypatch.setattr(model, "_heads_fwd", no_tap_heads)
        got = m.embed_utterance(utt)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_a_stack_embeds_as_its_utterances_one_at_a_time(self, b):
        m = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=5)
        rng = np.random.default_rng(14)
        m.forward(rng.standard_normal((4, 12, 8)), mode="train")  # move the BN state
        stack = rng.standard_normal((b, 29, 8))  # T' = 15
        got = m.embed_utterance(stack)
        assert got.shape == (b, TINY_HEAD.embed_dim) and got.dtype == np.float64
        for row, utt in zip(got, stack):
            np.testing.assert_array_equal(row, m.embed_utterance(utt[None])[0])
            np.testing.assert_array_equal(row, m.forward(utt, mode="eval").speaker_embedding[0])


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
        utt = rng.standard_normal((1, 30, 8))
        np.testing.assert_array_equal(loaded.embed_utterance(utt), m.embed_utterance(utt))

    @pytest.mark.parametrize("key", ["share_pooling", "share_projection"])
    def test_rejects_archive_with_a_true_head_sharing_flag(self, tmp_path, key):
        # archives from before every block had its own head name the flags,
        # which no config has any more
        path = tmp_path / "checkpoint.npz"
        SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=3).save(path)
        rewrite_meta(path, lambda meta: meta["head"].update({key: True}))
        with pytest.raises(ValueError, match=f"does not build a model: .*{key}"):
            SpeakerModel.load(path)

    def test_records_the_sample_rate(self, tmp_path):
        m = SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=3)
        assert m.sample_rate is None
        m.sample_rate = 8000
        path = tmp_path / "checkpoint.npz"
        m.save(path)
        assert SpeakerModel.load(path).sample_rate == 8000

    # a rate is a positive integer of samples per second, or None when the
    # model trained on no recorded audio; a bool is not one
    @pytest.mark.parametrize("rate", ["abc", -8000, 0, 8000.5, True, [8000]])
    def test_rejects_a_sample_rate_that_is_not_a_positive_integer(self, tmp_path, rate):
        path = tmp_path / "checkpoint.npz"
        SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=3).save(path)
        rewrite_meta(path, lambda meta: meta.update(sample_rate=rate))
        with pytest.raises(ValueError, match=f"does not build a model: sample_rate .*"
                                             f"{re.escape(repr(rate))}"):
            SpeakerModel.load(path)

    def test_failed_write_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.npz"
        SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=3).save(path)
        before = path.read_bytes()

        def fails_mid_write(file, **arrays):
            file.write(b"PK\x03\x04 partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fails_mid_write)
        with pytest.raises(OSError, match="disk full"):
            SpeakerModel(TINY_ENC, TINY_HEAD, num_speakers=3, seed=4).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, meta=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError):
            SpeakerModel.load(path)
        np.savez(path, weights=np.zeros(3))  # no meta at all
        with pytest.raises(ValueError):
            SpeakerModel.load(path)


def init_digest(m: SpeakerModel) -> str:
    """SHA-256 over the name-sorted initial parameters and state."""
    h = hashlib.sha256()
    for kind, arrays in (("params", m.params), ("state", m.state)):
        for name in sorted(arrays):
            a = arrays[name]
            h.update(f"{kind}/{name}:{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# every initial parameter and state array, pinned: the parameter names and
# the order of the random draws that fill them must not move
@pytest.mark.parametrize("num_blocks, digest", [
    (2, "d950a39f7772d6004f6d0801d67d59921993b97738807657a886e032eff13d53"),
    (6, "3366b3ca554fd073b92246b68ec3494646a5d8bcf5d842b0cf7f856c5cfcf238"),
], ids=["desk", "six-blocks"])
def test_initial_parameters_are_pinned(num_blocks, digest):
    desk = desk_config()
    m = SpeakerModel(replace(desk.encoder, num_blocks=num_blocks), desk.head,
                     num_speakers=10, seed=0)
    assert init_digest(m) == digest
