import numpy as np
import pytest

from mfcontrast import encoder
from mfcontrast.encoder import (MIN_FRAMES, EncoderConfig, init_encoder_params,
                                _attention_bwd, _attention_fwd, _block_fwd, _encoder_bwd,
                                _encoder_fwd, _frontend_fwd)
from mfcontrast.features import LengthError
from mfcontrast.heads import HeadConfig, _mfa_fwd, init_head_params
from mfcontrast.nn import ShapeError

from oracles import rel_error

TOY = EncoderConfig(num_blocks=2, model_dim=16, dropout=0.0, input_dim=8)


def toy_setup(seed=0):
    rng = np.random.default_rng(seed)
    params, state = init_encoder_params(TOY, rng)
    return params, state, rng


def frontend(x, params):
    """The frontend on one (T, F) matrix, as a batch of one."""
    return _frontend_fwd(x[None], params, "eval")[0][0]


def block(h, params, state, i=0, cfg=TOY):
    """Eval-mode block ``i`` on one (T', model_dim) map, as a batch of one."""
    return _block_fwd(h[None], params, f"encoder.block{i}", cfg, state, "eval", None)[0][0]


def encode(x, params, state, cfg=TOY):
    """Every block's eval-mode map for one (T, F) matrix."""
    taps, _ = _encoder_fwd(x[None], params, state, cfg, "eval")
    return [t[0] for t in taps]


class TestSubsampleFrontend:
    # the stride-2 frontend gives (T - 1) // 2 + 1 frames
    def test_shapes(self):
        params, state, rng = toy_setup()
        out = frontend(rng.standard_normal((298, 8)), params)
        assert out.shape == ((298 - 1) // 2 + 1, 16) == (149, 16)

    def test_minimal_input(self):
        params, state, rng = toy_setup()
        out = frontend(rng.standard_normal((MIN_FRAMES, 8)), params)
        assert out.shape == ((MIN_FRAMES - 1) // 2 + 1, 16) == (2, 16)

    def test_doubling_frames_doubles_output(self):
        params, state, rng = toy_setup()
        for t in (11, 24, 37):
            a = frontend(rng.standard_normal((t, 8)), params).shape[0]
            b = frontend(rng.standard_normal((2 * t, 8)), params).shape[0]
            assert abs(b - 2 * a) <= 1

    def test_too_short_raises(self):
        params, state, rng = toy_setup()
        with pytest.raises(LengthError):
            _encoder_fwd(rng.standard_normal((1, 3, 8)), params, state, TOY, "eval")

    def test_wrong_width_raises(self):
        params, state, rng = toy_setup()
        with pytest.raises(ShapeError):
            _encoder_fwd(rng.standard_normal((1, 10, 9)), params, state, TOY, "eval")


class TestConformerBlock:
    def test_output_shape_equals_input_shape(self):
        params, state, rng = toy_setup()
        h = rng.standard_normal((12, 16))
        out = block(h, params, state)
        assert out.shape == h.shape

    def test_eval_determinism(self):
        params, state, rng = toy_setup()
        h = rng.standard_normal((12, 16))
        a = block(h, params, state)
        b = block(h, params, state)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_raises(self):
        # the block's first layer norm cannot broadcast an 8-wide map
        params, state, rng = toy_setup()
        with pytest.raises(ValueError):
            block(rng.standard_normal((12, 8)), params, state)

    def test_gradient_matches_finite_differences(self):
        # scalar readout of one block on a 4 x 8 toy map, input gradient
        cfg = EncoderConfig(num_blocks=1, model_dim=8, dropout=0.0, input_dim=4)
        rng = np.random.default_rng(3)
        params, state = init_encoder_params(cfg, rng)
        h = rng.standard_normal((1, 4, 8))
        r = rng.standard_normal((1, 4, 8))
        pre = "encoder.block0"

        out, tape = _block_fwd(h, params, pre, cfg, state, "train", None)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        dh = tape.backward(r.copy(), grads)

        def f():
            y, _ = _block_fwd(h, params, pre, cfg, state, "train", None)
            return (y * r).sum()

        step = 1e-6
        fd = np.zeros_like(h)
        it = np.nditer(h, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            old = h[i]
            h[i] = old + step
            fp = f()
            h[i] = old - step
            fm = f()
            h[i] = old
            fd[i] = (fp - fm) / (2 * step)
            it.iternext()
        assert rel_error(dh, fd) < 1e-4


class TestEncodeWithTaps:
    def test_tap_count_matches_blocks(self):
        cfg = EncoderConfig(num_blocks=6, model_dim=16, dropout=0.0, input_dim=8)
        rng = np.random.default_rng(1)
        params, state = init_encoder_params(cfg, rng)
        taps = encode(rng.standard_normal((20, 8)), params, state, cfg)
        assert len(taps) == 6
        assert all(m.shape == (10, 16) for m in taps)

    def test_single_block_equals_block_of_frontend(self):
        cfg = EncoderConfig(num_blocks=1, model_dim=16, dropout=0.0, input_dim=8)
        rng = np.random.default_rng(2)
        params, state = init_encoder_params(cfg, rng)
        x = rng.standard_normal((20, 8))
        taps = encode(x, params, state, cfg)
        manual = block(frontend(x, params), params, state, cfg=cfg)
        np.testing.assert_array_equal(taps[0], manual)

    def test_taps_chain(self):
        params, state, rng = toy_setup()
        x = rng.standard_normal((20, 8))
        taps = encode(x, params, state)
        redone = block(taps[0], params, state, i=1)
        np.testing.assert_array_equal(redone, taps[1])

    def test_all_taps_share_shape(self):
        params, state, rng = toy_setup()
        taps = encode(rng.standard_normal((30, 8)), params, state)
        shapes = {m.shape for m in taps}
        assert shapes == {(15, 16)}

    def test_tapset_rejects_mismatched_maps(self):
        # the aggregation path concatenates the taps, so they must share a shape
        head = HeadConfig(embed_dim=4)
        params, state = init_head_params(TOY, head, np.random.default_rng(0))
        with pytest.raises(ValueError):
            _mfa_fwd([np.zeros((1, 3, 16)), np.zeros((1, 4, 16))], params, state, "eval")

    def test_train_mode_dropout_is_seeded(self):
        cfg = EncoderConfig(num_blocks=2, model_dim=16, dropout=0.2, input_dim=8)
        rng = np.random.default_rng(4)
        params, state = init_encoder_params(cfg, rng)
        x = rng.standard_normal((2, 20, 8))
        a, _ = _encoder_fwd(x, params, state, cfg, "train", np.random.default_rng(9))
        b, _ = _encoder_fwd(x, params, state, cfg, "train", np.random.default_rng(9))
        c, _ = _encoder_fwd(x, params, state, cfg, "train", np.random.default_rng(10))
        np.testing.assert_array_equal(a[-1], b[-1])
        assert not np.array_equal(a[-1], c[-1])


def attention_run(h, weights, dctx, num_heads=4):
    """Train-mode attention forward (dropout 0.2, seeded) and its six
    gradients, plus the number of score blocks it used."""
    ctx, cache = _attention_fwd(h, *weights, num_heads=num_heads, drop=0.2, mode="train",
                                rng=np.random.default_rng(11))
    return [ctx, *_attention_bwd(dctx, cache)], len(cache[6])


def test_blocked_attention_equals_one_block(monkeypatch):
    # 4 heads x 18 frames, 7 rows in blocks of 3
    rng = np.random.default_rng(3)
    h, dctx = (rng.standard_normal((7, 18, 16)).astype(np.float32) for _ in range(2))
    weights = [rng.standard_normal(s).astype(np.float32) / 4
               for s in ((16, 16), 16, (16, 16), (16, 16), 16)]
    one, one_count = attention_run(h, weights, dctx)
    monkeypatch.setattr(encoder, "_SCORE_BLOCK_BYTES", 3 * 4 * 18 * 18 * 4)
    blocked, blocked_count = attention_run(h, weights, dctx)
    assert (one_count, blocked_count) == (1, 3)
    for a, b in zip(one, blocked):
        np.testing.assert_array_equal(a, b)


def test_score_blocks_cover_the_rows_in_order_within_the_budget():
    rng = np.random.default_rng(5)
    budget = encoder._SCORE_BLOCK_BYTES
    for _ in range(300):
        rows = int(rng.integers(1, 200))
        row_bytes = int(rng.integers(1, 3 * budget))
        blocks = encoder._score_blocks(rows, row_bytes)
        assert [i for s in blocks for i in range(rows)[s]] == list(range(rows))
        for s in blocks:
            count = len(range(rows)[s])
            assert count * row_bytes <= budget or count == 1, (rows, row_bytes, count)


def test_attention_bits_do_not_depend_on_the_score_blocks(monkeypatch):
    # the softmax sums run per batch row, so a row's scores do not depend
    # on which rows share its block: one row per block equals one block
    rng = np.random.default_rng(8)
    for _ in range(30):
        heads = int(rng.integers(1, 3))
        b, t, d = int(rng.integers(2, 8)), int(rng.integers(3, 40)), heads * int(rng.integers(2, 9))
        h, dctx = (rng.standard_normal((b, t, d)).astype(np.float32) for _ in range(2))
        weights = [rng.standard_normal(s).astype(np.float32) / 4
                   for s in ((d, d), d, (d, d), (d, d), d)]
        monkeypatch.setattr(encoder, "_SCORE_BLOCK_BYTES", 1 << 40)
        one, one_count = attention_run(h, weights, dctx, heads)
        monkeypatch.setattr(encoder, "_SCORE_BLOCK_BYTES", 1)
        rows, row_count = attention_run(h, weights, dctx, heads)
        assert (one_count, row_count) == (1, b)
        for x, y in zip(one, rows):
            np.testing.assert_array_equal(x, y)


class TestFullNetworkGradient:
    def test_two_block_toy_gradient_check(self):
        # full encoder on (2, 12, 8): analytic vs central differences along
        # random parameter directions
        rng = np.random.default_rng(5)
        params, state = init_encoder_params(TOY, rng)
        x = rng.standard_normal((2, 12, 8))
        readouts = [rng.standard_normal((2, 6, 16)) for _ in range(2)]

        taps, cache = _encoder_fwd(x, params, state, TOY, "train", None)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        _encoder_bwd([r.copy() for r in readouts], cache, grads)

        def scalar():
            t, _ = _encoder_fwd(x, params, state, TOY, "train", None)
            return sum((m * r).sum() for m, r in zip(t, readouts))

        step = 1e-6
        for trial in range(4):
            direction = {k: np.random.default_rng(100 + trial).standard_normal(v.shape)
                         for k, v in params.items()}
            analytic = sum((grads[k] * direction[k]).sum() for k in params)
            saved = {k: v.copy() for k, v in params.items()}
            for k in params:
                params[k] = saved[k] + step * direction[k]
            fp = scalar()
            for k in params:
                params[k] = saved[k] - step * direction[k]
            fm = scalar()
            for k in params:
                params[k] = saved[k]
            fd = (fp - fm) / (2 * step)
            assert abs(analytic - fd) / max(abs(analytic), abs(fd)) < 1e-4
