"""Differentiable building blocks in plain numpy.

Every ``*_fwd`` returns ``(output, cache)`` and the matching ``*_bwd`` takes
``(upstream_gradient, cache)`` and returns gradients for the inputs in the
same order; train-mode batch norm also moves its running statistics in
place. Every op computes in its inputs' floating dtype and returns
outputs, caches and gradients in that dtype; constants enter as Python
scalars so they never promote it. Batch axes lead, channels are last.

``Tape`` chains the ops: a module's forward records each op's backward and
cache on a tape, and its backward replays the tape. An eval-mode tape
records nothing, so an eval forward keeps no caches.

The kernels run single-threaded and follow five rules on their hot paths.
No einsum: its unoptimised loops are slower than the equivalent
matmuls. Weight products in the backward passes, and every sum over all
leading axes (the batch-norm and bias-gradient sums), run as one 2-D GEMM
or GEMV on the activation flattened to (positions, channels): numpy runs
``(B, T, N) @ w.T`` as one GEMM per batch row, and its reductions are
several times slower than a GEMV. The sigmoid is ``0.5 + 0.5 * tanh(x /
2)``, which has a SIMD float32 loop and cannot overflow. Attention scores
are computed in blocks of batch rows holding about 1 MiB of scores
(``encoder._SCORE_BLOCK_BYTES``), so a block's scores, probabilities and
dropout mask stay in the reference host's 2 MiB per-core L2 cache.

Batch invariance: in a forward pass, a row's output never depends on its
batch-mates, so an utterance embeds to the same bits alone, in any batch
and in any attention block (``trainer.evaluate`` batches on this). Two
kernels needed it. OpenBLAS rounds one row of a GEMV differently
depending on where the row sits in the matrix, so every sum over the
channel axis (the layer-norm, attention-softmax and pooling-softmax sums)
runs as one GEMV per leading-axis item, ``x.reshape(B, -1, C) @ u``,
never as one GEMV over the flattened rows. And a 2-D input's projection
``(B, K) @ w`` is a GEMM, which rounds differently from the GEMV that one
row gets, so ``linear_fwd`` projects a 2-D input row by row. The cost is B
small BLAS calls where one large one ran, which left the forward and
backward of a desk or deep training step no slower (2 CPUs, 1 BLAS
thread), and training loss curves that differ at round-off from those
summed over the flattened rows.

The depthwise convolution is a banded GEMM rather than one multiply-add
pass per tap. It moves the map to (C, B, T), cuts time into equal tiles
of at most ``_DEPTHWISE_TILE`` frames, and multiplies each channel's
tiles by that channel's (L + K - 1, L) band matrix of kernel taps: one
batched matmul over channels each for the forward, dx and dw, with dw read
off the band gradient's K diagonals. The strided convolution returns no
input gradient: its only caller is the frontend, whose input is the
features, so nothing upstream needs one.
"""

from __future__ import annotations

import functools

import numpy as np


class ShapeError(ValueError):
    """Array shape does not match the layer configuration."""


# ---------------------------------------------------------------------------
# linear / normalization

# the variance floor of layer and batch norm, batch norm's running-statistics
# momentum, and the floor under each channel's variance in attentive pooling
NORM_EPS = 1e-5
BATCH_NORM_MOMENTUM = 0.1
POOL_VAR_FLOOR = 1e-8


def _channel_dot(x, u):
    """Per-position dot product of x's channels with the vector u, shaped
    x.shape[:-1] + (1,), as one GEMV per leading-axis item."""
    return (x.reshape(x.shape[0], -1, x.shape[-1]) @ u).reshape(x.shape[:-1] + (1,))


def _position_sum(x):
    """Sum of x over all its leading axes, as one GEMV."""
    flat = x.reshape(-1, x.shape[-1])
    return np.ones(flat.shape[0], dtype=flat.dtype) @ flat


def linear_fwd(x, w, b):
    """x @ w + b, or x @ w when b is None. A 2-D x is projected row by row,
    one GEMV each, so that a row's output does not depend on the others.
    The bias is added in place, into the product's own array."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input width {x.shape[-1]} != weight rows {w.shape[0]}")
    y = (x[:, None, :] @ w)[:, 0] if x.ndim == 2 else x @ w
    if b is not None:
        y += b
    return y, (x, w)


def linear_bwd(dy, cache):
    x, w = cache
    flat = dy.reshape(-1, w.shape[1])
    dx = (flat @ w.T).reshape(x.shape)
    dw = x.reshape(-1, w.shape[0]).T @ flat
    return dx, dw, _position_sum(flat)


def layer_norm_fwd(x, gamma, beta):
    # normalizes over the channel (last) axis, per position; the variance is
    # the mean of the centred squares, never E[x^2] - E[x]^2, which cancels
    c = x.shape[-1]
    mean_weights = np.full(c, 1.0 / c, dtype=x.dtype)
    xc = x - _channel_dot(x, mean_weights)
    inv = 1.0 / np.sqrt(_channel_dot(xc * xc, mean_weights) + NORM_EPS)
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


def batch_norm_fwd(x, gamma, beta, running_mean, running_var, mode):
    """Normalizes each channel over all leading axes.

    Train mode uses batch statistics (biased variance, the mean of the
    centred squares) and moves the running statistics toward them in
    place, by BATCH_NORM_MOMENTUM; eval mode normalizes with, and only
    reads, the running statistics.
    """
    m = x.size // x.shape[-1]
    if mode == "train":
        mean_weights = np.full(m, 1.0 / m, dtype=x.dtype)
        mu = mean_weights @ x.reshape(m, -1)
        xhat = x - mu
        sq = xhat * xhat
        var = mean_weights @ sq.reshape(m, -1)
        for running, batch in ((running_mean, mu), (running_var, var)):
            running *= 1.0 - BATCH_NORM_MOMENTUM
            running += BATCH_NORM_MOMENTUM * batch
    else:
        mu, var = running_mean, running_var
        xhat = x - mu
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    y = xhat * gamma
    y += beta
    return y, (xhat, inv, gamma, mode, m)


def batch_norm_bwd(dy, cache):
    xhat, inv, gamma, mode, m = cache
    g = dy * xhat
    dgamma = _position_sum(g)
    dbeta = _position_sum(dy)
    if mode != "train":
        np.multiply(dy, gamma * inv, out=g)
        return g, dgamma, dbeta
    # dx = inv / m * (m dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)) with
    # dxhat = gamma dy, whose position sums are gamma dbeta and gamma dgamma
    np.multiply(xhat, dgamma / m, out=g)
    np.subtract(dy, g, out=g)
    g -= dbeta / m
    g *= gamma * inv
    return g, dgamma, dbeta


# ---------------------------------------------------------------------------
# activations


def softmax_fwd(x):
    """Softmax over the last axis; the cache is the output."""
    p = x - x.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= _channel_dot(p, np.ones(p.shape[-1], dtype=p.dtype))
    return p, p


def softmax_bwd(dy, p):
    # p * (dy - sum(dy * p)), built in one temporary
    g = dy * p
    np.subtract(dy, _channel_dot(g, np.ones(p.shape[-1], dtype=p.dtype)), out=g)
    g *= p
    return g


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
    # da = dy * s and db = da * a * (1 - s), written into one output; the
    # product (1 - s) * a is built in a contiguous temporary, because
    # in-place passes over a half-width view of the output are slower
    a, s = cache
    c = a.shape[-1]
    dx = np.empty(dy.shape[:-1] + (2 * c,), dtype=dy.dtype)
    da = np.multiply(dy, s, out=dx[..., :c])
    g = 1.0 - s
    g *= a
    np.multiply(g, da, out=dx[..., c:])
    return dx


def dropout_fwd(x, rate, mode, rng):
    if mode != "train" or rate <= 0.0:
        return x, None
    mask = ((rng.random(x.shape) >= rate) / (1.0 - rate)).astype(x.dtype)
    return x * mask, mask


def dropout_bwd(dy, cache):
    return dy if cache is None else dy * cache


# ---------------------------------------------------------------------------
# convolutions (time axis is axis 1; x is (B, T, C))


# the depthwise convolution splits time into equal tiles of at most this
# many output frames
_DEPTHWISE_TILE = 24


@functools.lru_cache(maxsize=32)
def _band_index(k, length):
    """Flat indices of band[s, t] = w[s - t] in an (length + k - 1, length)
    band matrix, shaped (k, length): row i holds diagonal i."""
    return np.arange(k)[:, None] * length + np.arange(length) * (length + 1)


def _band(w, length):
    """Per-channel (length + k - 1, length) band matrices of the (k, C)
    kernel w, stacked (C, length + k - 1, length), built by one indexed
    assignment."""
    k, c = w.shape
    band = np.zeros((c, (length + k - 1) * length), dtype=w.dtype)
    band[:, _band_index(k, length)] = w.T[:, :, None]
    return band.reshape(c, length + k - 1, length)


def _time_tiles(x, k):
    """The (B, T, C) map x, zero-padded by (k - 1) // 2 frames on each side
    and moved to (C, B, time), cut into n equal tiles of ``length`` output
    frames and their k - 1 frames of overlap: (C, B * n, length + k - 1)
    and ``length``. One tile is the padded map itself, with no copy."""
    b, t, c = x.shape
    p = (k - 1) // 2
    n = -(-t // _DEPTHWISE_TILE)
    length = -(-t // n)
    width = length + k - 1
    xt = np.empty((c, b, n * length + k - 1), dtype=x.dtype)
    xt[:, :, :p] = 0.0
    xt[:, :, p + t:] = 0.0
    # two batch rows at a time: measured faster than one transposing copy
    # of the whole map, in a training step and alone
    for i in range(0, b, 2):
        xt[:, i:i + 2, p:p + t] = x[i:i + 2].transpose(2, 0, 1)
    if n == 1:
        return xt, length
    s = xt.strides
    tiles = np.lib.stride_tricks.as_strided(
        xt, (c, b, n, width), (s[0], s[1], length * s[2], s[2]))
    return tiles.reshape(c, b * n, width), length


def _untile(y, b, t):
    """(C, B * n, length) tiled output -> the (B, T, C) map."""
    return np.ascontiguousarray(y.reshape(y.shape[0], b, -1)[:, :, :t].transpose(1, 2, 0))


def depthwise_conv1d_fwd(x, w):
    """Per-channel convolution along time with same padding. w is (K, C).
    It has no bias: every caller follows it with a batch norm, which
    removes one. Each channel's time tiles are multiplied by its band
    matrix, one batched GEMM over channels (see ``_time_tiles``)."""
    k, c = w.shape
    if x.shape[-1] != c:
        raise ShapeError(f"depthwise conv: {x.shape[-1]} channels vs kernel {c}")
    tiles, length = _time_tiles(x, k)
    y = _untile(tiles @ _band(w, length), x.shape[0], x.shape[1])
    return y, (tiles, w)


def depthwise_conv1d_bwd(dy, cache):
    # dx is the same-padded convolution of dy with the reversed kernel, and
    # dw[i] sums diagonal i of the band gradient tiles^T @ (dy's tiles)
    tiles, w = cache
    k = w.shape[0]
    p = (k - 1) // 2
    dtiles, length = _time_tiles(dy, k)
    dx = _untile(dtiles @ _band(w[::-1], length), dy.shape[0], dy.shape[1])
    dband = tiles.transpose(0, 2, 1) @ dtiles[:, :, p:p + length]
    diagonals = dband.reshape(w.shape[1], -1)[:, _band_index(k, length)]
    dw = diagonals.reshape(-1, length) @ np.ones(length, dtype=dy.dtype)
    return dx, np.ascontiguousarray(dw.reshape(-1, k).T)


def strided_conv1d_fwd(x, w, b, stride):
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
    return y, (xp, w, stride, t_out)


def strided_conv1d_bwd(dy, cache):
    """Gradients for w and b; the input gradient is None, because the only
    caller is the encoder's frontend, whose input is the features."""
    xp, w, stride, t_out = cache
    k, f, d = w.shape
    flat = dy.reshape(-1, d)
    dw = np.empty_like(w)
    for i in range(k):
        dw[i] = xp[:, i:i + stride * t_out:stride, :].reshape(-1, f).T @ flat
    return None, dw, _position_sum(flat)


# ---------------------------------------------------------------------------
# pooling / embeddings


def attentive_stats_fwd(h, w, b, v):
    """Attention-weighted temporal mean and standard deviation.

    h is (B, T, C). Scores e_t = v . tanh(h_t W + b), alpha = softmax over
    time, mu = sum_t alpha_t h_t, sigma = sqrt(max(sum_t alpha_t h_t^2 -
    mu^2, POOL_VAR_FLOOR)). Returns (B, 2C): mu and sigma concatenated.
    The max() clamp keeps zero-variance channels from producing infinite
    gradients.
    """
    u = h @ w + b
    a = np.tanh(u)
    e = a @ v
    alpha, sm_cache = softmax_fwd(e)
    weights = alpha[:, None, :]
    mu = (weights @ h)[:, 0]
    m2 = (weights @ (h * h))[:, 0]
    raw = m2 - mu ** 2
    var = np.maximum(raw, POOL_VAR_FLOOR)
    sigma = np.sqrt(var)
    out = np.concatenate([mu, sigma], axis=-1)
    cache = (h, w, v, a, alpha, sm_cache, mu, sigma, raw)
    return out, cache


def attentive_stats_bwd(dy, cache):
    h, w, v, a, alpha, sm_cache, mu, sigma, raw = cache
    c = mu.shape[-1]
    dm2 = dy[..., c:] * (0.5 / sigma) * (raw > POOL_VAR_FLOOR)
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


def l2_normalize_fwd(x):
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot L2-normalize a zero vector")
    y = x / n
    return y, (y, n)


def l2_normalize_bwd(dy, cache):
    y, n = cache
    return (dy - y * (dy * y).sum(axis=-1, keepdims=True)) / n


# ---------------------------------------------------------------------------
# misc


@functools.lru_cache(maxsize=32)
def sinusoidal_positions(t, d, dtype):
    """Fixed absolute positional encoding, shape (t, d). d must be even.
    Angles are computed in float64 and stored as ``dtype``. Built once per
    ``(t, d, dtype)`` and read-only, since every caller shares it."""
    if d % 2 != 0:
        raise ShapeError("positional encoding needs an even model dimension")
    pos = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angle = pos / (10000.0 ** (2.0 * i / d))
    pe = np.empty((t, d), dtype=dtype)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def xavier_uniform(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def accumulate(grads, name, value):
    """Add a gradient contribution in place into ``grads[name]``, an array
    that every name a tape records already has (a view of
    ``SpeakerModel.grad_vector`` for ``model.grads``). It stays a function
    because the benchmark's ``nn.accumulate`` span wraps it."""
    grads[name] += value


class Tape:
    """Reverse-mode record of one module's forward pass (Baydin et al.,
    arXiv 1502.05767).

    ``op`` runs ``fwd(x, *params, **kw)`` on the parameters named by
    ``names`` and records ``bwd``; ``module`` records a step whose
    ``bwd(dy, cache, grads)`` adds its own parameter gradients, such as a
    sub-module replaying its own tape. ``backward`` replays the
    steps last to first: an op's ``bwd(dy, cache)`` returns the input
    gradient followed by one gradient per name, each added in place to the
    array ``grads`` holds for that name.
    An eval-mode tape records nothing and cannot be replayed.
    """

    def __init__(self, params, mode):
        self.params = params
        self.train = mode == "train"
        self.steps = []

    def op(self, fwd, bwd, x, *names, **kw):
        y, cache = fwd(x, *(self.params[n] for n in names), **kw)
        if self.train:
            self.steps.append((bwd, cache, names))
        return y

    def module(self, bwd, cache):
        if self.train:
            self.steps.append((bwd, cache, None))

    def backward(self, dy, grads):
        if not self.train:
            raise ValueError("backward needs a train-mode forward")
        for bwd, cache, names in reversed(self.steps):
            if names is None:
                dy = bwd(dy, cache, grads)
            elif names:
                dy, *param_grads = bwd(dy, cache)
                for name, g in zip(names, param_grads):
                    accumulate(grads, name, g)
            else:
                dy = bwd(dy, cache)
        return dy


def replay(dy, tape, grads):
    """Backward of a module whose forward recorded ``tape``."""
    return tape.backward(dy, grads)
