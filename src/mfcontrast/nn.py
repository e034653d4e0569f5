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

Each kernel runs on its calling thread and follows four rules on its hot
paths.
No einsum: its unoptimised loops are slower than the equivalent
matmuls. Weight products in the backward passes, and every sum over all
leading axes (the batch-norm and bias-gradient sums), run as one 2-D GEMM
or GEMV on the activation flattened to (positions, channels): numpy runs
``(B, T, N) @ w.T`` as one GEMM per batch row, and its reductions are
several times slower than a GEMV. The sigmoid is ``0.5 + 0.5 * tanh(x /
2)``, which has a SIMD float32 loop and cannot overflow. Attention scores
are computed in blocks of batch rows holding at most 1 MiB of scores
(``encoder._SCORE_BLOCK_BYTES``), which the softmax normalises in place,
so a block's scores stay in the reference host's 2 MiB per-core L2 cache.

Batch invariance: in a forward pass, a row's output never depends on its
batch-mates, so an utterance embeds to the same bits alone, in any batch
and in any attention block (``trainer.evaluate`` batches on this). The
depthwise convolution has it by construction on any BLAS kernel: it is a
sum over its taps with no BLAS call. Two other kernels needed care.
OpenBLAS rounds one row of a GEMV differently depending on where the row
sits in the matrix, so every sum over the channel axis (the layer-norm,
attention-softmax and pooling-softmax sums) runs as one GEMV per
leading-axis item, ``x.reshape(B, -1, C) @ u``, never as one GEMV over
the flattened rows. And a 2-D input's projection ``(B, K) @ w`` is a
GEMM, which rounds differently from the GEMV that one row gets, so
``linear_fwd`` projects a 2-D input row by row. The cost is B small BLAS
calls where one large one ran, which left the forward and backward of a
desk or deep training step no slower (2 CPUs, 1 BLAS thread), and
training loss curves that differ at round-off from those summed over the
flattened rows.

Row shards: train-mode batch norm is the one op whose rows meet, through
its batch statistics; every other op treats each row on its own in the
backward pass too. So a training batch can run as two row shards, the
second in a worker process (``trainer.train_step``), that meet only in
batch norm. Code inside ``row_shard(group, index, rows)`` takes the mean
and variance, and in the backward the dγ and dβ that the input gradient
reads, over every row of the group, each as the sum of the two shards'
partial sums added in shard order (``parallel.ShardWorker.sum``). Each
shard returns only its own rows' dγ and dβ as parameter gradients, which
sum across shards to the batch's, and only shard 0 moves the running
statistics: the worker's copy of them goes stale, and a train-mode forward
never reads it.

The strided convolution returns no input gradient: its only caller is the
frontend, whose input is the features, so nothing upstream needs one.
"""

from __future__ import annotations

import contextlib
import functools
import threading

import numpy as np


class ShapeError(ValueError):
    """Array shape does not match the layer configuration."""


_shard = threading.local()


@contextlib.contextmanager
def row_shard(group, index, rows):
    """Run the block on this thread as shard ``index`` of the two row shards
    of a ``rows``-row batch that meet in ``group``, whose ``sum(index,
    part)`` returns the shards' total (``parallel.ShardWorker``): a
    train-mode batch norm forward in it meets the other shard, and so does
    the backward of its tape, wherever that runs."""
    _shard.current = (group, index, rows)
    try:
        yield
    finally:
        _shard.current = None


def _shard_sum(shard, part):
    """``part`` summed over the shards of ``shard``, a (group, index, rows)
    triple, or ``part`` itself outside a group."""
    return part if shard is None else shard[0].sum(shard[1], part)


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
    # the mean of the centred squares, never E[x^2] - E[x]^2, which cancels.
    # y is written into the squares' array
    c = x.shape[-1]
    mean_weights = np.full(c, 1.0 / c, dtype=x.dtype)
    xc = x - _channel_dot(x, mean_weights)
    y = xc * xc
    inv = 1.0 / np.sqrt(_channel_dot(y, mean_weights) + NORM_EPS)
    xc *= inv
    np.multiply(xc, gamma, out=y)
    y += beta
    return y, (xc, inv, gamma)


def layer_norm_bwd(dy, cache):
    # dγ is summed first, so that dy * xhat's array can take the xhat term
    xhat, inv, gamma = cache
    dyx = dy * xhat
    dgamma = _position_sum(dyx)
    # per-position means of dxhat = dy * gamma and of dxhat * xhat
    g = gamma / xhat.shape[-1]
    dx = dy * gamma
    dx -= _channel_dot(dy, g)
    np.multiply(xhat, _channel_dot(dyx, g), out=dyx)
    dx -= dyx
    dx *= inv
    return dx, dgamma, _position_sum(dy)


def batch_norm_fwd(x, gamma, beta, running_mean, running_var, mode):
    """Normalizes each channel over all leading axes.

    Train mode uses batch statistics (biased variance, the mean of the
    centred squares) and moves the running statistics toward them in
    place, by BATCH_NORM_MOMENTUM; eval mode normalizes with, and only
    reads, the running statistics. Inside ``row_shard`` the batch is every
    row of the shard group.
    """
    m = x.size // x.shape[-1]
    shard = getattr(_shard, "current", None) if mode == "train" else None
    # positions the statistics average over: this call's, or the group's
    n = m if shard is None else m // x.shape[0] * shard[2]
    if mode == "train":
        mean_weights = np.full(m, 1.0 / n, dtype=x.dtype)
        mu = _shard_sum(shard, mean_weights @ x.reshape(m, -1))
        xhat = x - mu
        sq = xhat * xhat
        var = _shard_sum(shard, mean_weights @ sq.reshape(m, -1))
        if shard is None or shard[1] == 0:
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
    return y, (xhat, inv, gamma, n, shard)


def batch_norm_bwd(dy, cache):
    """Backward of a train-mode ``batch_norm_fwd``: no tape records eval."""
    xhat, inv, gamma, n, shard = cache
    g = dy * xhat
    dgamma = _position_sum(g)
    dbeta = _position_sum(dy)
    # dx = inv / n * (n dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)) with
    # dxhat = gamma dy, whose position sums over the group's n positions
    # are gamma dbeta and gamma dgamma summed over its shards
    sum_dgamma, sum_dbeta = ((dgamma, dbeta) if shard is None else
                             np.split(_shard_sum(shard, np.concatenate([dgamma, dbeta])), 2))
    np.multiply(xhat, sum_dgamma / n, out=g)
    np.subtract(dy, g, out=g)
    g -= sum_dbeta / n
    g *= gamma * inv
    return g, dgamma, dbeta


# ---------------------------------------------------------------------------
# activations


def softmax_fwd(x):
    """Softmax over the last axis, normalised in place in x, which every
    caller passes as a temporary of its own; the cache is the output."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= _channel_dot(x, np.ones(x.shape[-1], dtype=x.dtype))
    return x, x


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


def _pad_time(x, p):
    """The (B, T, C) map x with p zero frames at each end of its time axis."""
    b, t, c = x.shape
    xp = np.empty((b, t + 2 * p, c), dtype=x.dtype)
    xp[:, :p] = 0.0
    xp[:, p + t:] = 0.0
    xp[:, p:p + t] = x
    return xp


def _tap_sum(xp, w, t):
    """sum_i xp[:, i:i + t] * w[i] over the K taps of w, added in tap order
    into one output through one temporary. Each output row reads only its
    own row of xp, and no BLAS runs. Each tap is repeated over the t frames
    first, so that every multiply runs over whole (t, C) rows rather than
    C channels at a time."""
    wt = np.repeat(w[:, None], t, axis=1)
    y = xp[:, :t] * wt[0]
    tmp = np.empty_like(y)
    for i in range(1, w.shape[0]):
        np.multiply(xp[:, i:i + t], wt[i], out=tmp)
        y += tmp
    return y


def depthwise_conv1d_fwd(x, w):
    """Per-channel convolution along time with same padding. w is (K, C)
    for an odd K. It has no bias: every caller follows it with a batch
    norm, which removes one. The map is zero-padded once, then summed over
    the taps."""
    xp = _pad_time(x, w.shape[0] // 2)
    return _tap_sum(xp, w, x.shape[1]), (xp, w)


def depthwise_conv1d_bwd(dy, cache):
    # dx is the same sum over the padded dy with the taps reversed; dw[i]
    # sums dy times tap i's window of the padded input
    xp, w = cache
    t = dy.shape[1]
    dx = _tap_sum(_pad_time(dy, w.shape[0] // 2), w[::-1], t)
    dw = np.empty_like(w)
    tmp = np.empty_like(dy)
    for i in range(w.shape[0]):
        np.multiply(xp[:, i:i + t], dy, out=tmp)
        dw[i] = _position_sum(tmp)
    return dx, dw


def strided_conv1d_fwd(x, w, b, stride):
    """Full convolution along time, mapping (B, T, F) to (B, T', D) with
    T' = (T + 2p - K) // stride + 1 for p = (K - 1) // 2. w is (K, F, D)."""
    k, _, d = w.shape
    p = (k - 1) // 2
    t = x.shape[1]
    t_out = (t + 2 * p - k) // stride + 1
    xp = _pad_time(x, p)
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
    """Fixed absolute positional encoding, shape (t, d), for an even d.
    Angles are computed in float64 and stored as ``dtype``. Built once per
    ``(t, d, dtype)`` and read-only, since every caller shares it."""
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
