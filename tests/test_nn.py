import multiprocessing
import os
import signal
import threading
import warnings

import numpy as np
import pytest
from scipy.special import expit

from mfcontrast import nn, parallel
from mfcontrast.encoder import FRONTEND_STRIDE, EncoderConfig
from mfcontrast.heads import HeadConfig
from mfcontrast.model import SpeakerModel

from oracles import direct_depthwise_conv1d, fd_gradient, plain_temporal_stats, rel_error


def readout(fwd, shape, normal):
    """Scalar f() = <fwd()[0], r> for a fixed random r, and r itself."""
    r = normal(shape)
    return (lambda: (fwd()[0] * r).sum()), r


def case_linear(normal):
    x, w, b = normal((2, 5, 4)), normal((4, 3)), normal(3)
    f, r = readout(lambda: nn.linear_fwd(x, w, b), (2, 5, 3), normal)
    return f, [x, w, b], nn.linear_bwd(r, nn.linear_fwd(x, w, b)[1])


def case_linear_no_bias(normal):
    x, w = normal((2, 5, 4)), normal((4, 3))
    f, r = readout(lambda: nn.linear_fwd(x, w, None), (2, 5, 3), normal)
    return f, [x, w], nn.linear_bwd(r, nn.linear_fwd(x, w, None)[1])[:2]


def case_layer_norm(normal):
    g, b, x = normal(6), normal(6), normal((3, 4, 6))
    f, r = readout(lambda: nn.layer_norm_fwd(x, g, b), x.shape, normal)
    return f, [x, g, b], nn.layer_norm_bwd(r, nn.layer_norm_fwd(x, g, b)[1])


def case_batch_norm_train(normal):
    g, b, x = normal(5), normal(5), normal((4, 3, 5))
    rm, rv = normal(5) * 0.1, np.abs(normal(5)) + 0.5
    fwd = lambda: nn.batch_norm_fwd(x, g, b, rm, rv, "train")  # noqa: E731
    f, r = readout(fwd, x.shape, normal)
    return f, [x, g, b], nn.batch_norm_bwd(r, fwd()[1])


def case_softmax(normal):
    x = normal((3, 4, 6))
    # softmax_fwd normalises its input in place
    f, r = readout(lambda: nn.softmax_fwd(x.copy()), x.shape, normal)
    return f, [x], [nn.softmax_bwd(r, nn.softmax_fwd(x.copy())[1])]


def case_silu(normal):
    x = normal((3, 7))
    f, r = readout(lambda: nn.silu_fwd(x), x.shape, normal)
    return f, [x], [nn.silu_bwd(r, nn.silu_fwd(x)[1])]


def case_glu(normal):
    x = normal((2, 5, 8))
    f, r = readout(lambda: nn.glu_fwd(x), (2, 5, 4), normal)
    return f, [x], [nn.glu_bwd(r, nn.glu_fwd(x)[1])]


def case_depthwise_conv1d(normal):
    x, w = normal((2, 9, 4)), normal((5, 4))
    f, r = readout(lambda: nn.depthwise_conv1d_fwd(x, w), x.shape, normal)
    return f, [x, w], nn.depthwise_conv1d_bwd(r, nn.depthwise_conv1d_fwd(x, w)[1])


def case_strided_conv1d(normal):
    # w and b only: the op returns no input gradient, since its one caller,
    # the frontend, takes the features as input
    x, w, b = normal((2, 11, 6)), normal((3, 6, 5)), normal(5)
    f, r = readout(lambda: nn.strided_conv1d_fwd(x, w, b, FRONTEND_STRIDE), (2, 6, 5), normal)
    dx, dw, db = nn.strided_conv1d_bwd(r, nn.strided_conv1d_fwd(x, w, b, FRONTEND_STRIDE)[1])
    assert dx is None
    return f, [w, b], [dw, db]


def case_attentive_stats(normal):
    h, w = normal((3, 6, 5)), normal((5, 4))
    b, v = normal(4), normal(4)
    f, r = readout(lambda: nn.attentive_stats_fwd(h, w, b, v), (3, 10), normal)
    return f, [h, w, b, v], nn.attentive_stats_bwd(r, nn.attentive_stats_fwd(h, w, b, v)[1])


def case_l2_normalize(normal):
    x = normal((4, 6))
    f, r = readout(lambda: nn.l2_normalize_fwd(x), x.shape, normal)
    return f, [x], [nn.l2_normalize_bwd(r, nn.l2_normalize_fwd(x)[1])]


CASES = {
    "linear": case_linear, "linear_no_bias": case_linear_no_bias, "layer_norm": case_layer_norm,
    "batch_norm_train": case_batch_norm_train,
    "softmax": case_softmax, "silu": case_silu, "glu": case_glu,
    "depthwise_conv1d": case_depthwise_conv1d, "strided_conv1d": case_strided_conv1d,
    "attentive_stats": case_attentive_stats, "l2_normalize": case_l2_normalize,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_backward_matches_finite_differences(name):
    f, inputs, analytic = CASES[name](np.random.default_rng(0).standard_normal)
    for i, (x, g) in enumerate(zip(inputs, analytic)):
        assert rel_error(g, fd_gradient(f, x)) < 1e-6, f"input {i}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_float32_inputs_stay_float32(name):
    # the ops follow their inputs' dtype: no output, cache or gradient of a
    # float32 call is promoted
    rng = np.random.default_rng(1)

    def normal(shape):
        return rng.standard_normal(shape).astype(np.float32)

    f, inputs, analytic = CASES[name](normal)
    assert np.asarray(f()).dtype == np.float32
    assert [g.dtype for g in analytic] == [np.dtype(np.float32)] * len(analytic)


def test_dropout_mask_and_positions_follow_dtype():
    x = np.ones((4, 8), dtype=np.float32)
    y, mask = nn.dropout_fwd(x, 0.5, "train", np.random.default_rng(0))
    assert y.dtype == mask.dtype == nn.dropout_bwd(x, mask).dtype == np.float32
    # so does an eval-mode batch norm, which no finite-difference case runs
    ones = np.ones(8, dtype=np.float32)
    assert nn.batch_norm_fwd(x, ones, ones, ones, ones, "eval")[0].dtype == np.float32
    pe32 = nn.sinusoidal_positions(5, 8, np.float32)
    assert pe32.dtype == np.float32
    np.testing.assert_array_equal(
        pe32, nn.sinusoidal_positions(5, 8, np.float64).astype(np.float32))


def test_cached_positions_match_a_fresh_build_and_reject_writes():
    nn.sinusoidal_positions.cache_clear()
    first = nn.sinusoidal_positions(49, 64, np.dtype(np.float32))
    cached = nn.sinusoidal_positions(49, 64, np.dtype(np.float32))
    assert cached is first
    assert nn.sinusoidal_positions.cache_info().hits == 1
    np.testing.assert_array_equal(
        cached, nn.sinusoidal_positions.__wrapped__(49, 64, np.dtype(np.float32)))
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0


@pytest.mark.parametrize("b, t, c, k", [
    (3, 2, 8, 15),     # fewer frames than taps
    (4, 49, 8, 7),     # an odd and an even frame count
    (2, 150, 5, 7),
    (1, 200, 64, 7),   # one long utterance, as in evaluation
    (1, 200, 64, 15),
    (100, 49, 64, 7),  # the desk preset's conv module
])
def test_depthwise_conv1d_matches_the_direct_tap_sum(b, t, c, k):
    rng = np.random.default_rng(t * k)
    x, dy = (rng.standard_normal((b, t, c)).astype(np.float32) for _ in range(2))
    w = rng.standard_normal((k, c)).astype(np.float32)
    y, cache = nn.depthwise_conv1d_fwd(x, w)
    dx, dw = nn.depthwise_conv1d_bwd(dy, cache)
    for got, ref in zip((y, dx, dw), direct_depthwise_conv1d(x, w, dy)):
        assert got.dtype == np.float32 and got.shape == ref.shape
        # elementwise rtol, plus the same fraction of the largest value for
        # the entries that cancel to near zero
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-15), (np.float32, 1e-6)])
def test_sigmoid_matches_expit_without_warnings(dtype, tol):
    x = np.linspace(-100.0, 100.0, 20001).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = nn.sigmoid(x)
    assert s.dtype == dtype
    np.testing.assert_allclose(s, expit(x.astype(np.float64)), rtol=0.0, atol=tol)
    assert s.min() >= 0.0 and s.max() <= 1.0


def test_linear_bwd_on_3d_input_equals_flattened_2d():
    rng = np.random.default_rng(2)
    x, w, b = rng.standard_normal((4, 7, 5)), rng.standard_normal((5, 3)), rng.standard_normal(3)
    dy = rng.standard_normal((4, 7, 3))
    dx, dw, db = nn.linear_bwd(dy, nn.linear_fwd(x, w, b)[1])
    flat = nn.linear_bwd(dy.reshape(-1, 3), nn.linear_fwd(x.reshape(-1, 5), w, b)[1])
    np.testing.assert_array_equal(dx, flat[0].reshape(x.shape))
    np.testing.assert_array_equal(dw, flat[1])
    np.testing.assert_array_equal(db, flat[2])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_train_batch_norm_moves_the_running_statistics_in_place(dtype):
    rng = np.random.default_rng(5)
    x = (2.0 + rng.standard_normal((4, 3, 5))).astype(dtype)
    g, b = np.ones(5, dtype), np.zeros(5, dtype)
    rm, rv = (0.1 * rng.standard_normal(5)).astype(dtype), (0.5 + rng.random(5)).astype(dtype)
    flat = x.astype(np.float64).reshape(-1, 5)
    want_mean = 0.9 * rm + 0.1 * flat.mean(axis=0)
    want_var = 0.9 * rv + 0.1 * flat.var(axis=0)  # biased: ddof=0
    nn.batch_norm_fwd(x, g, b, rm, rv, "train")
    tol = 1e-12 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(rm, want_mean, rtol=tol, atol=tol)
    np.testing.assert_allclose(rv, want_var, rtol=tol, atol=tol)
    assert rm.dtype == rv.dtype == dtype


def test_both_shards_read_each_meetings_own_total():
    # the worker sums as fast as the caller: a side that read the total of a
    # later meeting, or a part overwritten by the next one, would see a wrong
    # sum; each meeting's part changes dtype and size, as batch norm's do
    meetings = 300

    def part(i, k):
        return np.arange(i % 5 + 1, dtype=(np.float32, np.float64)[i % 2]) + 1000.0 * i + k

    def serve(worker):
        worker.send([worker.sum(1, part(i, 1)).tolist() for i in range(meetings)])

    worker = parallel.ShardWorker(serve, part_bytes=5 * 8)
    seen, theirs = [], []

    def caller():
        seen.extend(worker.sum(0, part(i, 0)) for i in range(meetings))
        theirs.extend(worker.recv())

    # on a thread of its own, so that a hang fails the join
    runner = threading.Thread(target=caller)
    runner.start()
    runner.join(timeout=60)
    worker.close()
    assert not runner.is_alive(), "a meeting waits for ever"
    want = [part(i, 0) + part(i, 1) for i in range(meetings)]
    assert [a.dtype for a in seen] == [a.dtype for a in want]
    assert [a.tolist() for a in seen] == [a.tolist() for a in want] == theirs


# the ways a shard worker ends, each with what the caller's first wait raises
WORKER_ENDS = [(lambda: os._exit(3), "exited with code 3"),
               (lambda: os.kill(os.getpid(), signal.SIGKILL),
                f"exited with code {-signal.SIGKILL}"),
               (lambda: 1 / 0, "division by zero")]


def test_an_aborted_group_releases_a_waiting_shard():
    # a worker that ends before its meeting releases the caller waiting in
    # it: the error the worker raised is raised here, or else the exit code
    # is named; after it, the caller's next wait raises at once as well
    for end, raised in WORKER_ENDS:
        worker = parallel.ShardWorker(lambda worker: end(), part_bytes=8)
        try:
            for _ in range(2):
                with pytest.raises((parallel.WorkerExit, ZeroDivisionError), match=raised):
                    worker.sum(0, np.ones(1))
                raised = "exited with code"
        finally:
            worker.close()
        assert multiprocessing.active_children() == []


def test_a_worker_that_ends_with_a_message_unread_raises_its_exit_or_error():
    # a worker that ends while a value the caller sent sits unread resets the
    # pipe; the caller's wait still raises the error the worker raised, or
    # else names the exit code, and the next wait raises WorkerExit
    for end, raised in WORKER_ENDS:
        sent = multiprocessing.get_context("fork").Event()
        worker = parallel.ShardWorker(lambda worker: (sent.wait(10), end()), part_bytes=8)
        try:
            worker.send("unread")
            sent.set()
            for _ in range(2):
                with pytest.raises((parallel.WorkerExit, ZeroDivisionError), match=raised):
                    worker.recv()
                raised = "exited with code"
        finally:
            worker.close()
        assert multiprocessing.active_children() == []


def test_eval_batch_norm_only_reads_the_running_statistics():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 3, 5))
    rm, rv = rng.standard_normal(5), 0.5 + rng.random(5)
    before = rm.tobytes(), rv.tobytes()
    y, _ = nn.batch_norm_fwd(x, np.ones(5), np.zeros(5), rm, rv, "eval")
    assert (rm.tobytes(), rv.tobytes()) == before
    np.testing.assert_allclose(y, (x - rm) / np.sqrt(rv + nn.NORM_EPS), rtol=1e-12)


def test_layer_norm_float32_variance_survives_a_large_mean():
    # a one-pass E[x^2] - E[x]^2 variance loses every digit at this offset
    x = (1e3 + np.random.default_rng(3).standard_normal((200, 64))).astype(np.float32)
    y, _ = nn.layer_norm_fwd(x, np.ones(64, np.float32), np.zeros(64, np.float32))
    assert y.dtype == np.float32
    np.testing.assert_allclose(y.astype(np.float64).var(axis=-1), 1.0, atol=1e-3)


def test_attentive_stats_batch_rows_match_plain_stats():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((3, 9, 5)) * np.array([1.0, 3.0, 0.5])[:, None, None]
    v = rng.standard_normal(4)
    # zero score weights force uniform attention
    out, _ = nn.attentive_stats_fwd(h, np.zeros((5, 4)), np.zeros(4), v)
    for row, hb in zip(out, h):
        np.testing.assert_allclose(row, plain_temporal_stats(hb), atol=1e-12)
    # with real scores, each row is still pooled on its own
    w, b = rng.standard_normal((5, 4)), rng.standard_normal(4)
    out, _ = nn.attentive_stats_fwd(h, w, b, v)
    for row, hb in zip(out, h):
        np.testing.assert_allclose(row, nn.attentive_stats_fwd(hb[None], w, b, v)[0][0],
                                   rtol=1e-12, atol=1e-12)


def test_tape_replays_a_chain_as_the_hand_chained_backward():
    rng = np.random.default_rng(5)
    x, dy = rng.standard_normal((3, 4, 6)), rng.standard_normal((3, 4, 5))
    params = {"ln.g": rng.standard_normal(6), "ln.b": rng.standard_normal(6),
              "w": rng.standard_normal((6, 5)), "b": rng.standard_normal(5)}
    tape = nn.Tape(params, "train")
    h = tape.op(nn.layer_norm_fwd, nn.layer_norm_bwd, x, "ln.g", "ln.b")
    h = tape.op(nn.linear_fwd, nn.linear_bwd, h, "w", "b")
    h = tape.op(nn.silu_fwd, nn.silu_bwd, h)
    y = tape.op(nn.dropout_fwd, nn.dropout_bwd, h, rate=0.3, mode="train",
                rng=np.random.default_rng(6))
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dx = tape.backward(dy, grads)

    h, c_ln = nn.layer_norm_fwd(x, params["ln.g"], params["ln.b"])
    h, c_lin = nn.linear_fwd(h, params["w"], params["b"])
    h, c_act = nn.silu_fwd(h)
    y_ref, c_drop = nn.dropout_fwd(h, 0.3, "train", np.random.default_rng(6))
    d = nn.silu_bwd(nn.dropout_bwd(dy, c_drop), c_act)
    d, dw, db = nn.linear_bwd(d, c_lin)
    dx_ref, dg, dbeta = nn.layer_norm_bwd(d, c_ln)
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(dx, dx_ref)
    expected = {"w": dw, "b": db, "ln.g": dg, "ln.b": dbeta}
    assert grads.keys() == expected.keys()
    for name, g in expected.items():
        np.testing.assert_array_equal(grads[name], g)


def test_tape_adds_the_gradients_of_a_name_recorded_twice():
    rng = np.random.default_rng(7)
    x, dy = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    params = {"w": rng.standard_normal((3, 3)), "b": rng.standard_normal(3)}
    tape = nn.Tape(params, "train")
    h = tape.op(nn.linear_fwd, nn.linear_bwd, x, "w", "b")
    tape.op(nn.linear_fwd, nn.linear_bwd, h, "w", "b")
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    tape.backward(dy, grads)
    d1, dw1, db1 = nn.linear_bwd(dy, (h, params["w"]))
    _, dw0, db0 = nn.linear_bwd(d1, (x, params["w"]))
    np.testing.assert_array_equal(grads["w"], dw1 + dw0)
    np.testing.assert_array_equal(grads["b"], db1 + db0)


def test_model_ops_are_looked_up_at_call_time(monkeypatch):
    # a profiler patches nn's attributes; every op call must go through them
    enc = EncoderConfig(num_blocks=2, model_dim=8, conv_kernel=3, dropout=0.1, input_dim=4)
    model = SpeakerModel(enc, HeadConfig(embed_dim=4, attention_hidden=3), num_speakers=2)
    calls = {"linear_fwd": 0, "linear_bwd": 0}

    def counting(name):
        original = getattr(nn, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(nn, name, counting(name))
    rng = np.random.default_rng(8)
    out = model.forward(rng.standard_normal((3, 10, 4)), mode="train", rng=rng)
    # per block: two FFNs (2 each), q/k/v/o and the conv module's two
    # pointwise layers; one projection per tap head, one for the MFA path
    linear_layers = enc.num_blocks * (2 + 4 + 2 + 2 + 1) + 1
    assert calls == {"linear_fwd": linear_layers, "linear_bwd": 0}
    model.backward(out, [np.ones((3, 4))] * enc.num_blocks, np.ones((3, 4)))
    assert calls == {"linear_fwd": linear_layers, "linear_bwd": linear_layers}
