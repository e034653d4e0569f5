"""Independent oracles the tests check production code against.

Everything here is deliberately written the slow, obvious way (plain Python
loops, direct definitions) and shares no code with the library paths it
verifies.
"""

import numpy as np
from scipy.signal import fftconvolve

from mfcontrast.features import IR_DECAY, IR_DURATION, NOISE_PROB, SNR_RANGE
from mfcontrast.metrics import Trial
from mfcontrast.synthdata import F0_RANGE, RESONANCE_BANDS


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f() w.r.t. array x,
    perturbing x in place."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + h
        fp = f()
        x[i] = old - h
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def rel_error(a, b, floor=1e-12):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), floor)
    return np.linalg.norm((a - b).ravel()) / denom


def per_array_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam (Kingma & Ba, arXiv 1412.6980) one array at a time: step ``t``
    (from 1) at rate ``lr`` replaces the entries of the name -> array dicts
    ``params``, ``m`` and ``v``. Each gradient is first cast to its
    parameter's dtype."""
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    for k in params:
        g = grads[k].astype(params[k].dtype, copy=False)
        m[k] = beta1 * m[k] + (1.0 - beta1) * g
        v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        params[k] = params[k] - lr * (m[k] / correct1) / (np.sqrt(v[k] / correct2) + eps)


def direct_convolution(x, k):
    """O(N*K) full convolution by definition."""
    n, m = len(x), len(k)
    out = np.zeros(n + m - 1)
    for i in range(n):
        for j in range(m):
            out[i + j] += x[i] * k[j]
    return out


def fft_reverb(x, ir):
    """``x`` convolved with ``ir`` by ``scipy.signal.fftconvolve``, cut to
    the length of ``x`` and rescaled to its peak amplitude."""
    full = fftconvolve(x, ir)[:len(x)]
    return full * (np.max(np.abs(x)) / np.max(np.abs(full)))


def drawn_augmentation(x, sample_rate, seed):
    """What ``AugmentSampler.apply`` makes of a voiced crop ``x`` under
    ``np.random.default_rng(seed)``, rebuilt from the same draws in the
    same order. Returns ("noise", the drawn SNR in dB, output) or
    ("reverb", the drawn impulse response, output)."""
    rng = np.random.default_rng(seed)
    if rng.random() < NOISE_PROB:
        snr_db = rng.uniform(*SNR_RANGE)
        noise_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31 - 1)))
        noise = noise_rng.standard_normal(len(x))
        gain = np.sqrt(np.mean(x ** 2) / (np.mean(noise ** 2) * 10.0 ** (snr_db / 10.0)))
        return "noise", snr_db, x + gain * noise
    taps = max(2, int(round(IR_DURATION * sample_rate)))
    t = np.arange(taps) / sample_rate
    ir = 0.3 * rng.standard_normal(taps) * np.exp(-t / IR_DECAY)
    ir[0] = 1.0
    return "reverb", ir, fft_reverb(x, ir)


def direct_depthwise_conv1d(x, w, dy):
    """Same-padded per-channel convolution of the (B, T, C) map x with the
    (K, C) kernel w, and the gradients of <y, dy> for x and w, as float64
    sums over the K taps: y[t] = sum_i x[t + i - p] w[i], p = (K - 1) // 2,
    with x zero outside [0, T). Returns (y, dx, dw)."""
    x, w, dy = (np.asarray(a, dtype=np.float64) for a in (x, w, dy))
    k = w.shape[0]
    t = x.shape[1]
    p = (k - 1) // 2
    y = np.zeros_like(x)
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for i in range(k):
        shift = i - p  # y[t] takes x[t + shift]
        out_lo, out_hi = max(0, -shift), min(t, t - shift)
        if out_lo >= out_hi:
            continue
        src = slice(out_lo + shift, out_hi + shift)
        dst = slice(out_lo, out_hi)
        y[:, dst] += x[:, src] * w[i]
        dx[:, src] += dy[:, dst] * w[i]
        dw[i] = (dy[:, dst] * x[:, src]).sum(axis=(0, 1))
    return y, dx, dw


def plain_temporal_stats(h, eps=1e-8):
    """Uniform-weight mean and std over time of a (T, C) map."""
    t = h.shape[0]
    mu = h.sum(axis=0) / t
    m2 = (h * h).sum(axis=0) / t
    sigma = np.sqrt(np.maximum(m2 - mu ** 2, eps))
    return np.concatenate([mu, sigma])


def mel_band_edges(sample_rate, n_mels):
    """The n_mels + 2 edge frequencies (Hz) of the triangular mel bands,
    evenly spaced in mel(f) = 2595 log10(1 + f / 700) from 0 Hz to Nyquist;
    band m rises from edge m, peaks at edge m + 1 and falls to edge m + 2."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    return [from_mel(m) for m in
            np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), n_mels + 2)]


def dft_mel_energies(frame, n_fft, sample_rate, n_mels):
    """Mel-band energies of one windowed frame via an explicit DFT and
    triangle weights built from the mel formula directly."""
    n_bins = n_fft // 2 + 1
    spectrum = np.zeros(n_bins, dtype=complex)
    for k in range(n_bins):
        for n in range(len(frame)):
            spectrum[k] += frame[n] * np.exp(-2j * np.pi * k * n / n_fft)
    power = np.abs(spectrum) ** 2
    edges = mel_band_edges(sample_rate, n_mels)
    freqs = [k * sample_rate / n_fft for k in range(n_bins)]
    energies = np.zeros(n_mels)
    for m in range(n_mels):
        lo, ctr, hi = edges[m], edges[m + 1], edges[m + 2]
        for k, f in enumerate(freqs):
            if lo <= f <= ctr and ctr > lo:
                w = (f - lo) / (ctr - lo)
            elif ctr < f <= hi and hi > ctr:
                w = (hi - f) / (hi - ctr)
            else:
                w = 0.0
            energies[m] += w * power[k]
    return energies


def cosine_score(e1, e2) -> float:
    """Inner product of the unit-normalized vectors, in [-1, 1]: the
    reference for ``metrics.score_trials``."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    n1 = np.linalg.norm(e1)
    n2 = np.linalg.norm(e2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("cannot cosine-score a zero vector")
    return float(np.dot(e1, e2) / (n1 * n2))


def sweep_error_rates(scores, labels):
    """(threshold, p_miss, p_fa) at every distinct score plus reject-all,
    counted with plain loops. Accept iff score >= threshold."""
    thresholds = sorted(set(scores))
    thresholds.append(thresholds[-1] + 1.0)
    n_target = sum(1 for is_t in labels if is_t)
    n_nontarget = len(labels) - n_target
    points = []
    for t in thresholds:
        miss = sum(1 for s, is_t in zip(scores, labels) if is_t and s < t)
        fa = sum(1 for s, is_t in zip(scores, labels) if not is_t and s >= t)
        points.append((t, miss / n_target, fa / n_nontarget))
    return points


def brute_force_eer(scores, labels):
    """EER by exhaustive threshold sweep and linear interpolation of the
    crossing between the adjacent operating points."""
    points = sweep_error_rates(scores, labels)
    prev = None
    for t, p_miss, p_fa in points:
        if p_miss - p_fa >= 0.0:
            if p_miss - p_fa == 0.0:
                return p_miss
            t0, y1, x1 = prev
            x2, y2 = p_fa, p_miss
            frac = (x1 - y1) / ((y2 - y1) - (x2 - x1))
            return x1 + frac * (x2 - x1)
        prev = (t, p_miss, p_fa)
    raise AssertionError("no crossing found")


def brute_force_mindcf(scores, labels):
    """Minimum normalized detection cost at p_target 0.01 and unit miss and
    false-acceptance costs."""
    p_target = 0.01
    best = float("inf")
    for _, p_miss, p_fa in sweep_error_rates(scores, labels):
        dcf = p_target * p_miss + (1.0 - p_target) * p_fa
        best = min(best, dcf)
    return best / min(p_target, 1.0 - p_target)


def brute_force_supcon(z, labels, tau):
    """Supervised contrastive loss by direct pair enumeration."""
    n = len(z)
    total = 0.0
    for i in range(n):
        positives = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        denom = sum(np.exp(np.dot(z[i], z[a]) / tau) for a in range(n) if a != i)
        for p in positives:
            total += (-1.0 / len(positives)) * np.log(
                np.exp(np.dot(z[i], z[p]) / tau) / denom)
    return total


def direct_synth_utterance(spec, speaker, utt):
    """One synthetic utterance with its harmonics summed the direct way, one
    float64 sine per harmonic per sample, drawing the same random numbers
    in the same order as ``synthdata`` does."""
    latent_rng = np.random.default_rng([spec.seed, 1000 + speaker])
    lo, hi = F0_RANGE
    width = (hi - lo) / spec.n_speakers
    f0 = lo + width * speaker + latent_rng.uniform(0.1, 0.9) * width
    resonances = np.array([latent_rng.uniform(a, b) for a, b in RESONANCE_BANDS])

    rng = np.random.default_rng([spec.seed, 1000 + speaker, utt])
    f0 = f0 * (1.0 + rng.uniform(-0.03, 0.03))
    resonances = resonances * (1.0 + rng.uniform(-0.04, 0.04, size=3))
    sr = spec.sample_rate
    n = int(round(spec.duration * sr))
    t = np.arange(n) / sr
    f_max = min(4000.0, 0.45 * sr)
    num_harmonics = max(3, int(f_max / f0))
    ks = np.arange(1, num_harmonics + 1)
    freqs = ks * f0
    envelope = np.exp(-0.5 * ((freqs[:, None] - resonances[None, :]) / 140.0) ** 2).sum(axis=1)
    amps = (envelope + 0.03) / ks ** 0.3
    amps = amps * (freqs / 1000.0) ** rng.uniform(-2.2, 2.2)
    eq = np.ones_like(freqs)
    for _ in range(4):
        depth = rng.uniform(0.0, 1.0)
        period = rng.uniform(600.0, 2500.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        eq = eq * (1.0 + depth * np.sin(2.0 * np.pi * freqs / period + phase))
    amps = amps * np.maximum(eq, 0.02)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_harmonics)
    sig = np.zeros(n)
    for k in range(num_harmonics):
        sig += amps[k] * np.sin(2.0 * np.pi * freqs[k] * t + phases[k])

    mod_rate = rng.uniform(1.0, 4.0)
    mod_phase = rng.uniform(0.0, 2.0 * np.pi)
    sig *= 1.0 + 0.4 * np.sin(2.0 * np.pi * mod_rate * t + mod_phase)
    sig = 0.15 * sig / np.sqrt(np.mean(sig ** 2))
    sig *= 10.0 ** (rng.uniform(-8.0, 8.0) / 20.0)
    sig += rng.uniform(0.01, 0.09) * rng.standard_normal(n)
    peak = np.max(np.abs(sig))
    if peak > 0.95:
        sig *= 0.95 / peak
    return sig, num_harmonics


def loop_trials(corpus, n_target, n_nontarget, seed):
    """Seeded target/nontarget trials from pair pools built pair by pair as
    Python tuples: each speaker's pairs (speakers in order of first
    appearance), then every cross-speaker pair in row-major order."""
    by_speaker = {}
    for i, w in enumerate(corpus):
        by_speaker.setdefault(w.speaker_id, []).append(i)
    target_pairs = []
    for utts in by_speaker.values():
        for a in range(len(utts)):
            for b in range(a + 1, len(utts)):
                target_pairs.append((utts[a], utts[b]))
    nontarget_pairs = []
    for a in range(len(corpus)):
        for b in range(a + 1, len(corpus)):
            if corpus[a].speaker_id != corpus[b].speaker_id:
                nontarget_pairs.append((a, b))
    if n_target > len(target_pairs):
        raise ValueError(f"requested {n_target} target trials, only "
                         f"{len(target_pairs)} distinct pairs exist")
    if n_nontarget > len(nontarget_pairs):
        raise ValueError(f"requested {n_nontarget} nontarget trials, only "
                         f"{len(nontarget_pairs)} distinct pairs exist")
    rng = np.random.default_rng([seed, 77])
    trials = []
    for pool, count, flag in ((target_pairs, n_target, True),
                              (nontarget_pairs, n_nontarget, False)):
        for p in rng.choice(len(pool), size=count, replace=False):
            a, b = pool[int(p)]
            trials.append(Trial(corpus[a].utterance_id, corpus[b].utterance_id, flag))
    return trials
