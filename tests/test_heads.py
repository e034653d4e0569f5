import numpy as np
import pytest

from mfcontrast.encoder import EncoderConfig
from mfcontrast.heads import (HeadConfig, init_head_params, _head_fwd,
                              _heads_fwd, _mfa_fwd)
from mfcontrast.nn import attentive_stats_fwd, l2_normalize_fwd

from oracles import fd_gradient, plain_temporal_stats, rel_error

ENC = EncoderConfig(num_blocks=2, model_dim=16, conv_kernel=7, dropout=0.0, input_dim=8)


def pool(h, w, b, v):
    """Attentive statistics of one (T', C) map, as a batch of one."""
    return attentive_stats_fwd(h[None], w, b, v)[0][0]


def head(tap, params, state, i):
    """Eval-mode head ``i`` on one (T', C) tap, as a batch of one."""
    return _head_fwd(tap[None], params, state, i, "eval")[0][0]


def mfa(taps, params, state):
    """Eval-mode speaker embedding of one utterance's (T', C) taps."""
    return _mfa_fwd([t[None] for t in taps], params, state, "eval")[0][0]


def tap_embeddings(taps, params, state):
    """Raw eval-mode per-block embeddings of a batch of (B, T', C) taps."""
    return _heads_fwd(taps, params, state, "eval")[0]


def setup_heads(head_cfg=None, seed=0):
    cfg = head_cfg or HeadConfig(embed_dim=12, attention_hidden=6)
    rng = np.random.default_rng(seed)
    params, state = init_head_params(ENC, cfg, rng)
    return cfg, params, state, rng


class TestAttentiveStatsPool:
    def test_constant_rows_give_mean_and_floor_std(self):
        rng = np.random.default_rng(0)
        row = rng.standard_normal(5)
        h = np.tile(row, (7, 1))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        v = rng.standard_normal(4)
        out = pool(h, w, b, v)
        np.testing.assert_allclose(out[:5], row, atol=1e-12)
        np.testing.assert_allclose(out[5:], np.sqrt(1e-8), atol=1e-15)

    def test_uniform_attention_equals_plain_stats(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((9, 5))
        # zero score weights force uniform attention
        w = np.zeros((5, 4))
        b = np.zeros(4)
        v = rng.standard_normal(4)
        out = pool(h, w, b, v)
        np.testing.assert_allclose(out, plain_temporal_stats(h), atol=1e-6)

    def test_single_frame(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((1, 5))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(3)
        v = rng.standard_normal(3)
        out = pool(h, w, b, v)
        np.testing.assert_allclose(out[:5], h[0], atol=1e-12)
        np.testing.assert_allclose(out[5:], np.sqrt(1e-8), atol=1e-15)

    def test_weights_sum_to_one_and_std_positive(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((2, 11, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        v = rng.standard_normal(4)
        out, cache = attentive_stats_fwd(h, w, b, v)
        alpha = cache[4]
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out[..., 5:] >= np.sqrt(1e-8) - 1e-15)

    def test_permuting_frames_leaves_stats_invariant(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((8, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        v = rng.standard_normal(4)
        perm = rng.permutation(8)
        a = pool(h, w, b, v)
        bb = pool(h[perm], w, b, v)
        np.testing.assert_allclose(a, bb, atol=1e-12)


class TestHeadForward:
    def test_embed_dim_192(self):
        cfg, params, state, rng = setup_heads(HeadConfig(embed_dim=192, attention_hidden=6))
        tap = rng.standard_normal((10, 16))
        emb = head(tap, params, state, 0)
        assert emb.shape == (192,)

    def test_eval_determinism(self):
        cfg, params, state, rng = setup_heads()
        tap = rng.standard_normal((10, 16))
        a = head(tap, params, state, 0)
        b = head(tap, params, state, 0)
        np.testing.assert_array_equal(a, b)

    def test_gradient_matches_finite_differences(self):
        # head on a 6 x 8 toy tap (batch of 2 so train-mode batch norm is
        # well posed)
        enc = EncoderConfig(num_blocks=1, model_dim=8, conv_kernel=3, dropout=0.0, input_dim=4)
        cfg = HeadConfig(embed_dim=5, attention_hidden=4)
        rng = np.random.default_rng(7)
        params, state = init_head_params(enc, cfg, rng)
        tap = rng.standard_normal((2, 6, 8))
        r = rng.standard_normal((2, 5))

        emb, tape = _head_fwd(tap, params, state, 0, "train")
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        dtap = tape.backward(r.copy(), grads)

        def f():
            e, _ = _head_fwd(tap, params, state, 0, "train")
            return (e * r).sum()

        fd = fd_gradient(f, tap)
        assert rel_error(dtap, fd) < 1e-4
        for name in ("head.0.proj.w", "head.0.attn.w", "head.0.ln.gamma",
                     "head.0.bn.gamma"):
            fd_p = fd_gradient(f, params[name])
            assert rel_error(grads[name], fd_p) < 1e-4, name


class TestFeatureMapEmbeddings:
    def test_separate_heads_give_distinct_parameter_sets(self):
        cfg, params, state, rng = setup_heads()
        names = [n for n in params if n.startswith("head.")]
        assert any(n.startswith("head.0.") for n in names)
        assert any(n.startswith("head.1.") for n in names)
        assert not any(n.startswith("head.shared") for n in names)

    def test_rows_unit_norm(self):
        cfg, params, state, rng = setup_heads()
        taps = [rng.standard_normal((4, 10, 16)) for _ in range(2)]
        for emb in tap_embeddings(taps, params, state):
            unit, _ = l2_normalize_fwd(emb)
            np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0,
                                       atol=1e-6)

    def test_share_projection_false_isolates_blocks(self):
        cfg, params, state, rng = setup_heads()
        taps = [rng.standard_normal((3, 10, 16)) for _ in range(2)]
        before = tap_embeddings(taps, params, state)
        params["head.0.proj.w"] = params["head.0.proj.w"] + 0.5
        after = tap_embeddings(taps, params, state)
        assert not np.array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])


class TestSpeakerEmbedding:
    def test_dimension_arithmetic(self):
        # 6 taps of T' x 64: concat width 384, pooled stats 768, projected 192
        enc = EncoderConfig(num_blocks=6, model_dim=64,
                            conv_kernel=7, dropout=0.0, input_dim=8)
        cfg = HeadConfig(embed_dim=192, attention_hidden=16)
        rng = np.random.default_rng(1)
        params, state = init_head_params(enc, cfg, rng)
        assert params["mfa.attn.w"].shape == (384, 16)
        assert params["mfa.bn.gamma"].shape == (768,)
        assert params["mfa.proj.w"].shape == (768, 192)
        taps = [rng.standard_normal((9, 64)) for _ in range(6)]
        emb = mfa(taps, params, state)
        assert emb.shape == (192,)

    def test_single_block_equals_head_with_mfa_parameters(self):
        enc = EncoderConfig(num_blocks=1, model_dim=16,
                            conv_kernel=7, dropout=0.0, input_dim=8)
        cfg = HeadConfig(embed_dim=12, attention_hidden=6)
        rng = np.random.default_rng(2)
        params, state = init_head_params(enc, cfg, rng)
        # route the single tap through a head built from the mfa parameters
        alias = dict(params)
        alias["head.0.ln.gamma"] = params["mfa.ln0.gamma"]
        alias["head.0.ln.beta"] = params["mfa.ln0.beta"]
        alias["head.0.attn.w"] = params["mfa.attn.w"]
        alias["head.0.attn.b"] = params["mfa.attn.b"]
        alias["head.0.attn.v"] = params["mfa.attn.v"]
        alias["head.0.bn.gamma"] = params["mfa.bn.gamma"]
        alias["head.0.bn.beta"] = params["mfa.bn.beta"]
        alias["head.0.proj.w"] = params["mfa.proj.w"]
        alias["head.0.proj.b"] = params["mfa.proj.b"]
        alias_state = dict(state)
        alias_state["head.0.bn.running_mean"] = state["mfa.bn.running_mean"]
        alias_state["head.0.bn.running_var"] = state["mfa.bn.running_var"]
        tap = rng.standard_normal((9, 16))
        via_mfa = mfa([tap], params, state)
        via_head = head(tap, alias, alias_state, 0)
        np.testing.assert_allclose(via_mfa, via_head, atol=1e-12)

    def test_eval_determinism(self):
        cfg, params, state, rng = setup_heads()
        taps = [rng.standard_normal((9, 16)) for _ in range(2)]
        a = mfa(taps, params, state)
        b = mfa(taps, params, state)
        np.testing.assert_array_equal(a, b)
