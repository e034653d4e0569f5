"""Waveform handling: log-mel filterbank extraction, fixed-length training
crops, and their augmentation by ``AugmentSampler``: additive noise or
reverberation.

The filterbank frames are ``FRAME_LEN`` (25 ms) long every ``FRAME_SHIFT``
(10 ms), the MFA-Conformer front-end; the number of mel bins is the
encoder's ``input_dim``. Training batches, ``trainer.evaluate`` and
``mfcontrast eval`` all frame audio with these two constants, so a
checkpoint always scores the features it was trained on.

Everything here is a pure function of its inputs plus explicit seeds, so the
whole module is safe to call concurrently. Spectra and convolutions use
numpy's FFT only.
"""

from __future__ import annotations

import functools
import wave as _wavemod
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


class LengthError(ValueError):
    """Waveform is too short for the requested operation."""


@dataclass
class Waveform:
    """Mono audio samples with sample rate and speaker/utterance labels.

    Samples are float64 amplitudes, nominally in [-1, 1].
    """

    samples: np.ndarray
    sample_rate: int
    speaker_id: str = ""
    utterance_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")


# filterbank framing, in seconds
FRAME_LEN = 0.025
FRAME_SHIFT = 0.010
# mel energies are floored here before the log
LOG_FLOOR = 1e-10


@dataclass
class FeatureMatrix:
    """Log mel-filterbank energies: a T x F matrix (T frames, F mel bins)
    for one waveform, or a B x T x F stack for B waveforms of one length."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (2, 3) or self.values.shape[-2] < 1:
            raise ValueError("values must be a T x F matrix or a B x T x F stack "
                             "with T >= 1")


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangle-shaped mel filters with unit peak from 0 Hz to Nyquist, shape
    (n_mels, n_fft // 2 + 1); mel(f) = 2595 log10(1 + f / 700)."""
    mel_max = 2595.0 * np.log10(1.0 + sample_rate / 2.0 / 700.0)
    pts = 700.0 * (10.0 ** (np.linspace(0.0, mel_max, n_mels + 2) / 2595.0) - 1.0)
    freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lo, ctr, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rising = (freqs[None, :] - lo) / np.maximum(ctr - lo, 1e-12)
    falling = (hi - freqs[None, :]) / np.maximum(hi - ctr, 1e-12)
    return np.clip(np.minimum(rising, falling), 0.0, 1.0)


@functools.lru_cache(maxsize=16)
def _frame_weights(n_mels: int, n_fft: int, sample_rate: int, flen: int):
    """Hamming window of ``flen`` samples and the (n_mels, n_fft // 2 + 1)
    mel filterbank, built once per configuration. Both are read-only, since
    every caller shares them."""
    window = np.hamming(flen)
    fb = mel_filterbank(n_mels, n_fft, sample_rate)
    window.flags.writeable = False
    fb.flags.writeable = False
    return window, fb


def _log_mel(frames: np.ndarray, fb: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """``LOG_FLOOR``-floored log mel energies of windowed, zero-padded
    (T, n_fft) frames under the filterbank ``fb``, written into ``out`` when
    given. The rfft's interleaved real and imaginary parts are squared in
    place and added pairwise into |X|^2, with no complex abs."""
    sq = np.fft.rfft(frames, axis=1).view(np.float64)
    np.square(sq, out=sq)
    energy = np.matmul(sq[:, 0::2] + sq[:, 1::2], fb.T, out=out)
    np.maximum(energy, LOG_FLOOR, out=energy)
    return np.log(energy, out=energy)


def frame_count(n_samples: int, sample_rate: int) -> int:
    """Filterbank frames ``extract_fbank`` gives ``n_samples`` samples at
    ``sample_rate``; below one frame, 0."""
    flen = int(round(FRAME_LEN * sample_rate))
    fshift = int(round(FRAME_SHIFT * sample_rate))
    return max(0, (n_samples - flen) // fshift + 1)


def extract_fbank(w, n_mels: int) -> FeatureMatrix:
    """Log mel-filterbank features of one ``Waveform``, or of a sequence of
    waveforms that share their sample count and sample rate.

    Frames of ``FRAME_LEN`` seconds every ``FRAME_SHIFT`` seconds, Hamming
    window, power spectrum, triangle mel weighting, then a log floored at
    ``LOG_FLOOR``. One waveform gives
    T = floor((len - FRAME_LEN*sr) / (FRAME_SHIFT*sr)) + 1
    rows and ``n_mels`` columns (``frame_count``); a sequence of B gives a
    (B, T, n_mels) stack whose item b equals the features of waveform b
    alone, bit for bit. A sequence that mixes lengths or rates raises
    ValueError.

    The frames are one strided view of a waveform's samples, multiplied by
    the window straight into a zeroed (T, n_fft) buffer, n_fft being the
    smallest power of two that holds a frame; the real FFT then runs on
    that buffer as it is, with no padding copy of its own. A batch reuses
    the buffer wave by wave and writes each wave's features into its item
    of the stack: one (B, T, n_fft) buffer would leave the cache at a few
    waves of a few seconds and ran slower per wave.
    """
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")
    waves = [w] if isinstance(w, Waveform) else list(w)
    if not waves:
        raise ValueError("no waveforms to extract features from")
    sr, size = waves[0].sample_rate, waves[0].samples.size
    if any(x.sample_rate != sr or x.samples.size != size for x in waves):
        raise ValueError("batched waveforms must share their sample count and rate")
    flen = int(round(FRAME_LEN * sr))
    fshift = int(round(FRAME_SHIFT * sr))
    num_frames = frame_count(size, sr)
    if num_frames < 1:
        raise LengthError(
            f"waveform has {size} samples, shorter than one {flen}-sample frame")
    n_fft = 1
    while n_fft < flen:
        n_fft *= 2
    window, fb = _frame_weights(n_mels, n_fft, sr, flen)
    buf = np.zeros((num_frames, n_fft))
    values = np.empty((len(waves), num_frames, n_mels))
    for out, wave in zip(values, waves):
        x = wave.samples
        frames = np.lib.stride_tricks.as_strided(
            x, (num_frames, flen), (fshift * x.strides[0], x.strides[0]), writeable=False)
        np.multiply(frames, window, out=buf[:, :flen])
        _log_mel(buf, fb, out=out)
    return FeatureMatrix(values[0] if isinstance(w, Waveform) else values)


def random_crop(w: Waveform, duration: float, rng_seed: int) -> Waveform:
    """Crop a fixed-duration segment at a seeded random offset.

    Inputs shorter than the target are wrap-padded (tiled) so every
    utterance can produce a crop. The same seed always yields the same
    offset.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    target = int(round(duration * w.sample_rate))
    x = w.samples
    if x.size > target:
        x = x[np.random.default_rng(rng_seed).integers(0, x.size - target + 1):]
    return Waveform(_tile_to_length(x, target).copy(), w.sample_rate, w.speaker_id,
                    w.utterance_id)


def _tile_to_length(x: np.ndarray, n: int) -> np.ndarray:
    if x.size >= n:
        return x[:n]
    reps = -(-n // x.size)
    return np.tile(x, reps)[:n]


def _fast_real_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length numpy's real FFT runs fast, and
    the one ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            f = p35
            while f < n:
                f *= 2
            best = min(best, f)
            p35 *= 3
        p5 *= 5
    return best


# augmentation: the SNR range of added noise, in dB, the chance of noise
# rather than reverb, and the length and the tail's time constant of the
# reverb's synthetic impulse response, in seconds
SNR_RANGE = (0.0, 15.0)
NOISE_PROB = 0.5
IR_DURATION = 0.25
IR_DECAY = 0.05


class AugmentSampler:
    """Draws per-utterance augmentations: white Gaussian noise at an SNR
    uniform over ``SNR_RANGE`` with probability ``NOISE_PROB``, otherwise
    reverb through a synthetic impulse response.

    It holds no settings; it stays a class because the benchmark's
    ``features.augment`` span wraps ``AugmentSampler.apply``.
    """

    def apply(self, w: Waveform, rng: np.random.Generator) -> Waveform:
        """Augment a copy of ``w`` with draws from ``rng``: the branch, then
        the SNR and a seed for the noise, or the impulse response's tail.

        Noise is the seed's standard normal samples scaled so that
        10 log10(P_signal / P_noise) is the SNR, P the mean square; for a
        silent crop the scale is 0, so it stays silent.

        The impulse response has max(2, ``IR_DURATION`` * rate) taps: 1, then
        a Gaussian tail of scale 0.3 decaying with time constant
        ``IR_DECAY``. The convolution runs through a real FFT of
        ``_fast_real_length`` points, the arithmetic of
        ``scipy.signal.fftconvolve``; it is cut to the crop's length and
        rescaled to the crop's peak."""
        x = w.samples
        if rng.random() < NOISE_PROB:
            snr_db = rng.uniform(*SNR_RANGE)
            noise_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31 - 1)))
            noise = noise_rng.standard_normal(x.size)
            gain = np.sqrt(np.mean(x ** 2) / (np.mean(noise ** 2) * 10.0 ** (snr_db / 10.0)))
            return replace(w, samples=x + gain * noise)
        n = max(2, int(round(IR_DURATION * w.sample_rate)))
        t = np.arange(n) / w.sample_rate
        ir = 0.3 * rng.standard_normal(n) * np.exp(-t / IR_DECAY)
        ir[0] = 1.0
        nfft = _fast_real_length(x.size + n - 1)
        out = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(ir, nfft), nfft)[:x.size]
        peak = np.max(np.abs(out))
        if peak > 0.0:
            out = out * (np.max(np.abs(x)) / peak)
        return replace(w, samples=out)


def load_wav(path) -> Waveform:
    """Read a mono 16-bit PCM WAV file. Multichannel input, and a file that
    is not a WAV (empty, or no RIFF header), raise ValueError naming it."""
    try:
        with _wavemod.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            sr = f.getframerate()
            raw = f.readframes(f.getnframes())
    except (EOFError, _wavemod.Error) as err:
        raise ValueError(f"{path}: not a readable WAV file ({err or 'empty'})") from err
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, sr, utterance_id=Path(path).stem)
