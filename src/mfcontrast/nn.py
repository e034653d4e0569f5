"""Differentiable building blocks in plain numpy.

Every ``*_fwd`` returns ``(output, cache)`` and the matching ``*_bwd`` takes
``(upstream_gradient, cache)`` and returns gradients for the inputs in the
same order. Every op computes in its inputs' floating dtype and returns
outputs, caches and gradients in that dtype; constants enter as Python
scalars so they never promote it. Batch axes lead, channels are last.

The kernels run single-threaded and follow three rules on their hot paths.
No einsum: its unoptimised loops are slower than the equivalent
matmuls. Weight products in the backward passes and sums over the channel
axis or over all leading axes run as one 2-D GEMM or GEMV on the activation
flattened to (positions, channels): numpy runs ``(B, T, N) @ w.T`` as one
GEMM per batch row, and its reductions are several times slower than a
GEMV. The sigmoid is ``0.5 + 0.5 * tanh(x / 2)``, which has a SIMD float32
loop and cannot overflow.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Array shape does not match the layer configuration."""


# ---------------------------------------------------------------------------
# linear / normalization


def _channel_dot(x, u):
    """Per-position dot product of x's channels with the vector u, shaped
    x.shape[:-1] + (1,), as one GEMV."""
    return (x.reshape(-1, x.shape[-1]) @ u).reshape(x.shape[:-1] + (1,))


def _position_sum(x):
    """Sum of x over all its leading axes, as one GEMV."""
    flat = x.reshape(-1, x.shape[-1])
    return np.ones(flat.shape[0], dtype=flat.dtype) @ flat


def linear_fwd(x, w, b):
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input width {x.shape[-1]} != weight rows {w.shape[0]}")
    return x @ w + b, (x, w)


def linear_bwd(dy, cache):
    x, w = cache
    flat = dy.reshape(-1, w.shape[1])
    dx = (flat @ w.T).reshape(x.shape)
    dw = x.reshape(-1, w.shape[0]).T @ flat
    return dx, dw, _position_sum(flat)


def layer_norm_fwd(x, gamma, beta, eps=1e-5):
    # normalizes over the channel (last) axis, per position; the variance is
    # the mean of the centred squares, never E[x^2] - E[x]^2, which cancels
    c = x.shape[-1]
    mean_weights = np.full(c, 1.0 / c, dtype=x.dtype)
    xc = x - _channel_dot(x, mean_weights)
    inv = 1.0 / np.sqrt(_channel_dot(xc * xc, mean_weights) + eps)
    xc *= inv
    y = xc * gamma
    y += beta
    return y, (xc, inv, gamma)


def layer_norm_bwd(dy, cache):
    xhat, inv, gamma = cache
    dyx = dy * xhat
    # per-position means of dxhat = dy * gamma and of dxhat * xhat
    g = gamma / xhat.shape[-1]
    dx = dy * gamma
    dx -= _channel_dot(dy, g)
    dx -= xhat * _channel_dot(dyx, g)
    dx *= inv
    return dx, _position_sum(dyx), _position_sum(dy)


def batch_norm_fwd(x, gamma, beta, running_mean, running_var, mode,
                   momentum=0.1, eps=1e-5):
    """Normalizes each channel over all leading axes.

    Train mode uses batch statistics (biased variance) and returns updated
    running statistics; eval mode uses the running statistics unchanged.
    """
    flat = x.reshape(-1, x.shape[-1])
    if mode == "train":
        mu = flat.mean(axis=0)
        var = flat.var(axis=0)
        new_mean = (1.0 - momentum) * running_mean + momentum * mu
        new_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mu, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    y = gamma * xhat + beta
    cache = (xhat, inv, gamma, mode, flat.shape[0])
    return y, cache, new_mean, new_var


def batch_norm_bwd(dy, cache):
    xhat, inv, gamma, mode, m = cache
    lead = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=lead)
    dbeta = dy.sum(axis=lead)
    dxhat = dy * gamma
    if mode == "train":
        dx = inv / m * (m * dxhat
                        - dxhat.sum(axis=lead)
                        - xhat * (dxhat * xhat).sum(axis=lead))
    else:
        dx = dxhat * inv
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# activations


def softmax_fwd(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)
    return p, (p, axis)


def softmax_bwd(dy, cache):
    p, axis = cache
    return p * (dy - (dy * p).sum(axis=axis, keepdims=True))


def sigmoid(x):
    s = 0.5 * x
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def silu_fwd(x):
    s = sigmoid(x)
    return x * s, (x, s)


def silu_bwd(dy, cache):
    # dy * s * (1 + x * (1 - s)), built in one temporary
    x, s = cache
    g = 1.0 - s
    g *= x
    g += 1.0
    g *= s
    g *= dy
    return g


def glu_fwd(x):
    # gated linear unit over the last axis: y = a * sigmoid(b)
    c = x.shape[-1]
    if c % 2 != 0:
        raise ShapeError("glu needs an even channel count")
    a, b = x[..., :c // 2], x[..., c // 2:]
    s = sigmoid(b)
    return a * s, (a, s)


def glu_bwd(dy, cache):
    a, s = cache
    da = dy * s
    db = dy * a * s * (1.0 - s)
    return np.concatenate([da, db], axis=-1)


def dropout_fwd(x, rate, mode, rng):
    if mode != "train" or rate <= 0.0:
        return x, None
    mask = ((rng.random(x.shape) >= rate) / (1.0 - rate)).astype(x.dtype)
    return x * mask, mask


def dropout_bwd(dy, cache):
    return dy if cache is None else dy * cache


# ---------------------------------------------------------------------------
# convolutions (time axis is axis 1; x is (B, T, C))


def depthwise_conv1d_fwd(x, w, b):
    """Per-channel convolution along time with same padding. w is (K, C)."""
    k, c = w.shape
    if x.shape[-1] != c:
        raise ShapeError(f"depthwise conv: {x.shape[-1]} channels vs kernel {c}")
    p = (k - 1) // 2
    t = x.shape[1]
    xp = np.pad(x, ((0, 0), (p, p), (0, 0)))
    y = np.broadcast_to(b, x.shape).copy()
    for i in range(k):
        y += xp[:, i:i + t, :] * w[i]
    return y, (xp, w, t, p)


def depthwise_conv1d_bwd(dy, cache):
    xp, w, t, p = cache
    k = w.shape[0]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(k):
        dxp[:, i:i + t, :] += dy * w[i]
        dw[i] = (dy * xp[:, i:i + t, :]).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    return dxp[:, p:p + t, :], dw, db


def strided_conv1d_fwd(x, w, b, stride=2):
    """Full convolution along time, mapping (B, T, F) to (B, T', D) with
    T' = (T + 2p - K) // stride + 1 for p = (K - 1) // 2. w is (K, F, D)."""
    k, f, d = w.shape
    if x.shape[-1] != f:
        raise ShapeError(f"strided conv: input width {x.shape[-1]} != kernel width {f}")
    p = (k - 1) // 2
    t = x.shape[1]
    t_out = (t + 2 * p - k) // stride + 1
    xp = np.pad(x, ((0, 0), (p, p), (0, 0)))
    y = np.broadcast_to(b, x.shape[:1] + (t_out, d)).copy()
    for i in range(k):
        y += xp[:, i:i + stride * t_out:stride, :] @ w[i]
    return y, (xp, w, stride, t, t_out, p)


def strided_conv1d_bwd(dy, cache):
    xp, w, stride, t, t_out, p = cache
    k, f, d = w.shape
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(k):
        window = xp[:, i:i + stride * t_out:stride, :]
        dxp[:, i:i + stride * t_out:stride, :] += dy @ w[i].T
        dw[i] = window.reshape(-1, f).T @ dy.reshape(-1, d)
    db = dy.sum(axis=(0, 1))
    return dxp[:, p:p + t, :], dw, db


# ---------------------------------------------------------------------------
# pooling / embeddings


def attentive_stats_fwd(h, w, b, v, eps=1e-8):
    """Attention-weighted temporal mean and standard deviation.

    h is (B, T, C). Scores e_t = v . tanh(h_t W + b), alpha = softmax over
    time, mu = sum_t alpha_t h_t, sigma = sqrt(max(sum_t alpha_t h_t^2 -
    mu^2, eps)). Returns (B, 2C): mu and sigma concatenated. The max()
    clamp keeps zero-variance channels from producing infinite gradients.
    """
    u = h @ w + b
    a = np.tanh(u)
    e = a @ v
    alpha, sm_cache = softmax_fwd(e, axis=-1)
    weights = alpha[:, None, :]
    mu = (weights @ h)[:, 0]
    m2 = (weights @ (h * h))[:, 0]
    raw = m2 - mu ** 2
    var = np.maximum(raw, eps)
    sigma = np.sqrt(var)
    out = np.concatenate([mu, sigma], axis=-1)
    cache = (h, w, v, a, alpha, sm_cache, mu, sigma, raw, eps)
    return out, cache


def attentive_stats_bwd(dy, cache):
    h, w, v, a, alpha, sm_cache, mu, sigma, raw, eps = cache
    c = mu.shape[-1]
    dm2 = dy[..., c:] * (0.5 / sigma) * (raw > eps)
    dmu = dy[..., :c] - 2.0 * mu * dm2
    dalpha = (h @ dmu[..., None])[..., 0] + ((h * h) @ dm2[..., None])[..., 0]
    # dh = alpha * (dmu + 2 h dm2), then the score path's u = h W + b term
    dh = h * (2.0 * dm2)[:, None, :]
    dh += dmu[:, None, :]
    dh *= alpha[..., None]
    de = softmax_bwd(dalpha, sm_cache)
    du = a * a
    np.subtract(1.0, du, out=du)
    du *= v
    du *= de[..., None]
    flat_du = du.reshape(-1, du.shape[-1])
    dw = h.reshape(-1, c).T @ flat_du
    dv = de.reshape(-1) @ a.reshape(-1, a.shape[-1])
    dh += (flat_du @ w.T).reshape(h.shape)
    return dh, dw, _position_sum(flat_du), dv


def l2_normalize_fwd(x, axis=-1):
    n = np.linalg.norm(x, axis=axis, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot L2-normalize a zero vector")
    y = x / n
    return y, (y, n, axis)


def l2_normalize_bwd(dy, cache):
    y, n, axis = cache
    return (dy - y * (dy * y).sum(axis=axis, keepdims=True)) / n


# ---------------------------------------------------------------------------
# misc


def sinusoidal_positions(t, d, dtype):
    """Fixed absolute positional encoding, shape (t, d). d must be even.
    Angles are computed in float64 and stored as ``dtype``."""
    if d % 2 != 0:
        raise ShapeError("positional encoding needs an even model dimension")
    pos = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angle = pos / (10000.0 ** (2.0 * i / d))
    pe = np.empty((t, d), dtype=dtype)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def xavier_uniform(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def accumulate(grads, name, value):
    """Add a gradient contribution into a flat name -> array dict."""
    if name in grads:
        grads[name] = grads[name] + value
    else:
        grads[name] = value
