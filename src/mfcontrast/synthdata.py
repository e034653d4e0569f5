"""Deterministic synthetic speaker corpus and trial generator.

Speakers are harmonic voices: a fixed fundamental frequency plus three
formant-like resonances define each speaker; every utterance jitters the
latent slightly, draws fresh harmonic phases and a slow amplitude
modulation, and adds a little noise. The corpus separates well in
filterbank space, which is what lets a small encoder reach a low error
rate in minutes.

An utterance's K harmonics sum to sum_k a_k sin(k theta + phi_k) with
theta = 2 pi f0 t. Rather than K sines per sample, the sum is read as
Im(sum_k c_k z^k) with c_k = a_k e^{i phi_k} and z = e^{i theta}, and
evaluated by Horner's rule: one complex exponential and K complex
multiply-adds per sample. Every random draw, the modulation, the
normalization, the noise and the clipping are those of the direct sum, so
the two differ only at round-off: within 1e-10 of the utterance's peak
(tests/oracles.py keeps the direct sum). The direct sum is itself good to
only about 2e-11 of the peak, because its phase 2 pi k f0 t reaches about
1e5 rad over a few seconds.

Utterances are built on every usable CPU (``parallel.deal``). Each draws
from a generator seeded by the spec's seed, its speaker and its index, so
the corpus is the same, byte for byte, at any CPU count.

Trial pools are index arrays over the upper-triangle pairs of the corpus,
in the order a pair-by-pair loop would list them, so a seed picks the same
trials as that loop does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .features import Waveform, load_wav
from .metrics import Trial

F0_RANGE = (90.0, 250.0)
RESONANCE_BANDS = ((300.0, 900.0), (1000.0, 2200.0), (2400.0, 3600.0))


@dataclass
class SynthSpec:
    """The defaults are the desk preset's corpus."""

    n_speakers: int = 10
    utts_per_speaker: int = 20
    duration: float = 1.6
    sample_rate: int = 8000
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2:
            raise ValueError("need at least 2 speakers")
        if self.utts_per_speaker < 2:
            raise ValueError("need at least 2 utterances per speaker")
        if self.duration <= 0 or self.sample_rate <= 0:
            raise ValueError("duration and sample_rate must be positive")
        if self.duration * self.sample_rate < 1:
            raise ValueError("duration must span at least one sample")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _speaker_latent(spec: SynthSpec, speaker: int):
    rng = np.random.default_rng([spec.seed, 1000 + speaker])
    lo, hi = F0_RANGE
    # stratified draw keeps fundamentals spread apart across speakers
    width = (hi - lo) / spec.n_speakers
    f0 = lo + width * speaker + rng.uniform(0.1, 0.9) * width
    resonances = np.array([rng.uniform(a, b) for a, b in RESONANCE_BANDS])
    return f0, resonances


def _harmonic_sum(coeffs: np.ndarray, theta: np.ndarray, out: np.ndarray):
    """sum_k |c_k| sin(k theta + arg c_k) for k = 1..K into ``out``, as
    Im(sum_k c_k z^k) with z = e^{i theta}, evaluated by Horner's rule: K
    complex multiply-adds over the samples instead of K sines."""
    z = np.exp(1j * theta)
    acc = np.full(theta.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    acc *= z
    np.copyto(out, acc.imag)


def _synth_utterance(spec: SynthSpec, latent, speaker: int, utt: int, sig: np.ndarray):
    """Utterance ``utt`` of ``speaker``, whose ``_speaker_latent`` is
    ``latent``, written into ``sig`` (one float64 per sample)."""
    rng = np.random.default_rng([spec.seed, 1000 + speaker, utt])
    f0, resonances = latent
    f0 = f0 * (1.0 + rng.uniform(-0.03, 0.03))
    resonances = resonances * (1.0 + rng.uniform(-0.04, 0.04, size=3))
    sr = spec.sample_rate
    n = sig.size
    t = np.arange(n) / sr

    f_max = min(4000.0, 0.45 * sr)
    num_harmonics = max(3, int(f_max / f0))
    ks = np.arange(1, num_harmonics + 1)
    freqs = ks * f0
    envelope = np.exp(-0.5 * ((freqs[:, None] - resonances[None, :]) / 140.0) ** 2).sum(axis=1)
    amps = (envelope + 0.03) / ks ** 0.3

    # per-utterance channel nuisances: these dominate raw feature
    # similarity so identity has to be learned, not read off
    tilt = rng.uniform(-2.2, 2.2)
    amps = amps * (freqs / 1000.0) ** tilt
    eq = np.ones_like(freqs)
    for _ in range(4):
        depth = rng.uniform(0.0, 1.0)
        period = rng.uniform(600.0, 2500.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        eq = eq * (1.0 + depth * np.sin(2.0 * np.pi * freqs / period + phase))
    amps = amps * np.maximum(eq, 0.02)

    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_harmonics)
    _harmonic_sum(amps * np.exp(1j * phases), 2.0 * np.pi * f0 * t, sig)

    # slow amplitude modulation gives the pooling layers non-flat frames
    mod_rate = rng.uniform(1.0, 4.0)
    mod_phase = rng.uniform(0.0, 2.0 * np.pi)
    sig *= 1.0 + 0.4 * np.sin(2.0 * np.pi * mod_rate * t + mod_phase)

    rms = np.sqrt(np.mean(sig ** 2))
    sig *= 0.15  # before the division, as 0.15 * sig / rms rounds
    sig /= rms
    sig *= 10.0 ** (rng.uniform(-8.0, 8.0) / 20.0)
    sig += rng.uniform(0.01, 0.09) * rng.standard_normal(n)
    peak = np.max(np.abs(sig))
    if peak > 0.95:
        sig *= 0.95 / peak


def generate_corpus(spec: SynthSpec) -> list:
    """All utterances for the spec, labeled and deterministic under seed.

    The utterances are built in shares of ``parallel.deal``, into sample
    arrays allocated here. Every utterance has its own seeded generator,
    and each speaker's latent is drawn once, here, so the corpus does not
    depend on the CPU count."""
    latents = [_speaker_latent(spec, s) for s in range(spec.n_speakers)]
    keys = [(s, u) for s in range(spec.n_speakers) for u in range(spec.utts_per_speaker)]
    n = int(round(spec.duration * spec.sample_rate))
    samples = [np.empty(n) for _ in keys]

    def synthesize(share):
        for i in share:
            s, u = keys[i]
            _synth_utterance(spec, latents[s], s, u, samples[i])

    parallel.deal(range(len(keys)), synthesize)
    return [Waveform(x, spec.sample_rate, speaker_id=f"spk{s:03d}",
                     utterance_id=f"spk{s:03d}_utt{u:03d}")
            for x, (s, u) in zip(samples, keys)]


def generate_trials(corpus, n_target: int, n_nontarget: int, seed: int) -> list:
    """Seeded target/nontarget trial pairs without duplicates.

    Target trials pair distinct utterances of one speaker, nontarget trials
    pair utterances of different speakers; unordered pairs never repeat and
    no utterance is paired with itself. Both pools are listed as index
    arrays and the picks index them, so even a small sample from n
    utterances lists all n(n - 1)/2 pairs: about 260 MB of peak memory at
    4,000 utterances. Every caller asks for all pairs, whose ``Trial`` list
    is n^2 in size already.
    """
    codes: dict[str, int] = {}
    speaker = np.array([codes.setdefault(w.speaker_id, len(codes)) for w in corpus],
                       dtype=np.intp)
    # target pool: each speaker's upper-triangle pairs in row-major order,
    # speakers in order of first appearance, utterances in corpus order
    order = np.argsort(speaker, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(speaker))[:-1])
    target_a, target_b = np.concatenate(
        [g[np.stack(np.triu_indices(len(g), 1))] for g in groups], axis=1)
    # nontarget pool: the corpus's upper-triangle pairs in row-major order
    # whose speakers differ
    cross_a, cross_b = np.triu_indices(len(corpus), 1)
    cross = speaker[cross_a] != speaker[cross_b]
    cross_a, cross_b = cross_a[cross], cross_b[cross]
    if n_target > len(target_a):
        raise ValueError(f"requested {n_target} target trials, only "
                         f"{len(target_a)} distinct pairs exist")
    if n_nontarget > len(cross_a):
        raise ValueError(f"requested {n_nontarget} nontarget trials, only "
                         f"{len(cross_a)} distinct pairs exist")
    rng = np.random.default_rng([seed, 77])
    ids = [w.utterance_id for w in corpus]
    pairs = []
    for (pool_a, pool_b), size, flag in (((target_a, target_b), n_target, True),
                                         ((cross_a, cross_b), n_nontarget, False)):
        picks = rng.choice(len(pool_a), size=size, replace=False)
        pairs.append((pool_a[picks], pool_b[picks], flag))
    return [Trial(ids[i], ids[j], flag) for pick_a, pick_b, flag in pairs
            for i, j in zip(pick_a.tolist(), pick_b.tolist())]


def load_manifest(manifest_path) -> list:
    """Labeled waveforms from `<utt_id> <speaker_id> <path>` manifest lines,
    each path a mono 16-bit WAV relative to the manifest's directory. A
    corpus holds one sample rate: mel bin k spans different bands at
    different rates, so a manifest whose WAVs mix rates raises ValueError
    naming them. An utterance id names one utterance: a repeated one raises
    ValueError naming it, since a trial would pair it with itself."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    corpus = []
    with open(manifest_path) as f:
        for line_no, line in enumerate(f, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3:
                raise ValueError(f"{manifest_path}:{line_no}: expected '<utt> <spk> <path>'")
            utt_id, speaker_id, rel = fields
            w = load_wav(root / rel)
            corpus.append(Waveform(w.samples, w.sample_rate,
                                   speaker_id=speaker_id, utterance_id=utt_id))
    repeated = sorted(i for i, c in Counter(w.utterance_id for w in corpus).items() if c > 1)
    if repeated:
        raise ValueError(f"{manifest_path}: utterance ids listed more than once: {repeated}")
    rates = sorted({w.sample_rate for w in corpus})
    if len(rates) > 1:
        raise ValueError(f"{manifest_path}: WAVs mix sample rates {rates} Hz; "
                         "a corpus must have one")
    return corpus
