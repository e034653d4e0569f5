"""Differentiable building blocks in plain numpy.

Every ``*_fwd`` returns ``(output, cache)`` and the matching ``*_bwd`` takes
``(upstream_gradient, cache)`` and returns gradients for the inputs in the
same order. Every op computes in its inputs' floating dtype and returns
outputs, caches and gradients in that dtype; constants enter as Python
scalars so they never promote it. Batch axes lead, channels are last.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


class ShapeError(ValueError):
    """Array shape does not match the layer configuration."""


# ---------------------------------------------------------------------------
# linear / normalization


def linear_fwd(x, w, b):
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input width {x.shape[-1]} != weight rows {w.shape[0]}")
    return x @ w + b, (x, w)


def linear_bwd(dy, cache):
    x, w = cache
    dx = dy @ w.T
    dw = x.reshape(-1, w.shape[0]).T @ dy.reshape(-1, w.shape[1])
    db = dy.reshape(-1, w.shape[1]).sum(axis=0)
    return dx, dw, db


def layer_norm_fwd(x, gamma, beta, eps=1e-5):
    # normalizes over the channel (last) axis, per position
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layer_norm_bwd(dy, cache):
    xhat, inv, gamma = cache
    c = xhat.shape[-1]
    dxhat = dy * gamma
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    lead = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=lead)
    dbeta = dy.sum(axis=lead)
    return dx, dgamma, dbeta


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
    return expit(x)


def silu_fwd(x):
    s = sigmoid(x)
    return x * s, (x, s)


def silu_bwd(dy, cache):
    x, s = cache
    return dy * (s + x * s * (1.0 - s))


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
    mu = np.einsum("bt,btc->bc", alpha, h)
    m2 = np.einsum("bt,btc->bc", alpha, h * h)
    raw = m2 - mu ** 2
    var = np.maximum(raw, eps)
    sigma = np.sqrt(var)
    out = np.concatenate([mu, sigma], axis=-1)
    cache = (h, w, v, a, alpha, sm_cache, mu, sigma, raw, eps)
    return out, cache


def attentive_stats_bwd(dy, cache):
    h, w, v, a, alpha, sm_cache, mu, sigma, raw, eps = cache
    c = mu.shape[-1]
    dmu = dy[..., :c].copy()
    dsigma = dy[..., c:]
    dvar = dsigma * (0.5 / sigma) * (raw > eps)
    dm2 = dvar
    dmu -= 2.0 * mu * dvar
    dalpha = np.einsum("btc,bc->bt", h, dmu) + np.einsum("btc,bc->bt", h * h, dm2)
    dh = alpha[..., None] * dmu[:, None, :] + 2.0 * h * alpha[..., None] * dm2[:, None, :]
    de = softmax_bwd(dalpha, sm_cache)
    da = de[..., None] * v
    du = da * (1.0 - a ** 2)
    dw = np.einsum("btc,bta->ca", h, du)
    db = du.sum(axis=(0, 1))
    dv = (a * de[..., None]).sum(axis=(0, 1))
    dh += du @ w.T
    return dh, dw, db, dv


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
