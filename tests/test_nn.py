import warnings

import numpy as np
import pytest
from scipy.special import expit

from mfcontrast import nn

from oracles import fd_gradient, plain_temporal_stats, rel_error


def readout(fwd, shape, normal):
    """Scalar f() = <fwd()[0], r> for a fixed random r, and r itself."""
    r = normal(shape)
    return (lambda: (fwd()[0] * r).sum()), r


def case_linear(normal):
    x, w, b = normal((2, 5, 4)), normal((4, 3)), normal(3)
    f, r = readout(lambda: nn.linear_fwd(x, w, b), (2, 5, 3), normal)
    return f, [x, w, b], nn.linear_bwd(r, nn.linear_fwd(x, w, b)[1])


def case_layer_norm(normal):
    g, b, x = normal(6), normal(6), normal((3, 4, 6))
    f, r = readout(lambda: nn.layer_norm_fwd(x, g, b), x.shape, normal)
    return f, [x, g, b], nn.layer_norm_bwd(r, nn.layer_norm_fwd(x, g, b)[1])


def batch_norm_case(mode):
    def case(normal):
        g, b, x = normal(5), normal(5), normal((4, 3, 5))
        rm, rv = normal(5) * 0.1, np.abs(normal(5)) + 0.5
        fwd = lambda: nn.batch_norm_fwd(x, g, b, rm, rv, mode)  # noqa: E731
        f, r = readout(fwd, x.shape, normal)
        return f, [x, g, b], nn.batch_norm_bwd(r, fwd()[1])
    return case


def case_softmax(normal):
    x = normal((3, 4, 6))
    f, r = readout(lambda: nn.softmax_fwd(x), x.shape, normal)
    return f, [x], [nn.softmax_bwd(r, nn.softmax_fwd(x)[1])]


def case_silu(normal):
    x = normal((3, 7))
    f, r = readout(lambda: nn.silu_fwd(x), x.shape, normal)
    return f, [x], [nn.silu_bwd(r, nn.silu_fwd(x)[1])]


def case_glu(normal):
    x = normal((2, 5, 8))
    f, r = readout(lambda: nn.glu_fwd(x), (2, 5, 4), normal)
    return f, [x], [nn.glu_bwd(r, nn.glu_fwd(x)[1])]


def case_depthwise_conv1d(normal):
    x, w, b = normal((2, 9, 4)), normal((5, 4)), normal(4)
    f, r = readout(lambda: nn.depthwise_conv1d_fwd(x, w, b), x.shape, normal)
    return f, [x, w, b], nn.depthwise_conv1d_bwd(r, nn.depthwise_conv1d_fwd(x, w, b)[1])


def case_strided_conv1d(normal):
    x, w, b = normal((2, 11, 6)), normal((3, 6, 5)), normal(5)
    f, r = readout(lambda: nn.strided_conv1d_fwd(x, w, b), (2, 6, 5), normal)
    return f, [x, w, b], nn.strided_conv1d_bwd(r, nn.strided_conv1d_fwd(x, w, b)[1])


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
    "linear": case_linear, "layer_norm": case_layer_norm,
    "batch_norm_train": batch_norm_case("train"), "batch_norm_eval": batch_norm_case("eval"),
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
    pe32 = nn.sinusoidal_positions(5, 8, np.float32)
    assert pe32.dtype == np.float32
    np.testing.assert_array_equal(
        pe32, nn.sinusoidal_positions(5, 8, np.float64).astype(np.float32))


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
