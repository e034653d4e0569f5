"""Waveform handling: log-mel filterbank extraction, fixed-length training
crops, and additive-noise / reverberation augmentation.

Everything here is a pure function of its inputs plus explicit seeds, so the
whole module is safe to call concurrently.
"""

from __future__ import annotations

import functools
import wave as _wavemod
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve


class LengthError(ValueError):
    """Waveform is too short for the requested operation."""


class DegenerateInputError(ValueError):
    """Signal carries no usable energy (silent input, all-zero impulse response)."""


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

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class FeatureMatrix:
    """T x F matrix of log mel-filterbank energies (T frames, F mel bins)."""

    values: np.ndarray
    frame_shift: float
    speaker_id: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError("values must be a T x F matrix with T >= 1")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def num_bins(self) -> int:
        return self.values.shape[1]


@dataclass
class AugmentSpec:
    """One augmentation to apply: additive noise at a target SNR, or
    convolution with an impulse response.

    Exactly one of ``snr_db`` / ``impulse_response`` must be set, matching
    ``kind``. ``rng_seed`` makes the synthetic-noise path reproducible.
    """

    kind: str  # "noise" | "reverb"
    snr_db: float | None = None
    impulse_response: np.ndarray | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("noise", "reverb"):
            raise ValueError(f"unknown augmentation kind: {self.kind!r}")
        if self.kind == "noise" and (self.snr_db is None or self.impulse_response is not None):
            raise ValueError("noise augmentation takes snr_db and no impulse_response")
        if self.kind == "reverb" and (self.impulse_response is None or self.snr_db is not None):
            raise ValueError("reverb augmentation takes impulse_response and no snr_db")


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int,
                   f_min: float = 0.0, f_max: float | None = None) -> np.ndarray:
    """Triangular mel filters with unit peak, shape (n_mels, n_fft // 2 + 1)."""
    if f_max is None:
        f_max = sample_rate / 2.0
    pts = _mel_to_hz(np.linspace(_hz_to_mel(f_min), _hz_to_mel(f_max), n_mels + 2))
    freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lo, ctr, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rising = (freqs[None, :] - lo) / np.maximum(ctr - lo, 1e-12)
    falling = (hi - freqs[None, :]) / np.maximum(hi - ctr, 1e-12)
    return np.clip(np.minimum(rising, falling), 0.0, 1.0)


def mel_band_centers(n_mels: int, sample_rate: int,
                     f_min: float = 0.0, f_max: float | None = None) -> np.ndarray:
    """Center frequencies (Hz) of the triangular mel bands."""
    if f_max is None:
        f_max = sample_rate / 2.0
    pts = _mel_to_hz(np.linspace(_hz_to_mel(f_min), _hz_to_mel(f_max), n_mels + 2))
    return pts[1:-1]


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


def extract_fbank(w: Waveform, n_mels: int = 80, frame_len: float = 0.025,
                  frame_shift: float = 0.010, log_floor: float = 1e-10) -> FeatureMatrix:
    """Log mel-filterbank features from a waveform.

    Frames of ``frame_len`` seconds every ``frame_shift`` seconds, Hamming
    window, power spectrum, triangular mel weighting, then a floored log.
    Output has T = floor((len - frame_len*sr) / (frame_shift*sr)) + 1 rows
    and ``n_mels`` columns.
    """
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")
    sr = w.sample_rate
    flen = int(round(frame_len * sr))
    fshift = int(round(frame_shift * sr))
    if w.samples.size < flen:
        raise LengthError(
            f"waveform has {w.samples.size} samples, shorter than one "
            f"{flen}-sample frame")
    num_frames = (w.samples.size - flen) // fshift + 1
    n_fft = 1
    while n_fft < flen:
        n_fft *= 2
    window, fb = _frame_weights(n_mels, n_fft, sr, flen)
    idx = np.arange(num_frames)[:, None] * fshift + np.arange(flen)[None, :]
    frames = w.samples[idx] * window
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
    mel_energy = power @ fb.T
    values = np.log(np.maximum(mel_energy, log_floor))
    return FeatureMatrix(values, frame_shift=frame_shift, speaker_id=w.speaker_id)


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
    if x.size < target:
        reps = -(-target // x.size)
        x = np.tile(x, reps)[:target]
        offset = 0
    elif x.size == target:
        offset = 0
    else:
        rng = np.random.default_rng(rng_seed)
        offset = int(rng.integers(0, x.size - target + 1))
        x = x[offset:offset + target]
    return Waveform(x.copy(), w.sample_rate, w.speaker_id, w.utterance_id)


def _tile_to_length(x: np.ndarray, n: int) -> np.ndarray:
    if x.size >= n:
        return x[:n]
    reps = -(-n // x.size)
    return np.tile(x, reps)[:n]


def add_noise(w: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Mix noise into the signal at a requested signal-to-noise ratio.

    The noise is tiled or cropped to the signal length, then scaled by g so
    that 10*log10(P_signal / P_scaled_noise) = snr_db, with P the mean
    squared amplitude.
    """
    p_sig = np.mean(w.samples ** 2)
    if p_sig == 0.0:
        raise DegenerateInputError("cannot set an SNR against a silent signal")
    n = _tile_to_length(noise.samples, w.samples.size)
    p_noise = np.mean(n ** 2)
    if p_noise == 0.0:
        raise DegenerateInputError("noise signal is silent")
    gain = np.sqrt(p_sig / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(w.samples + gain * n, w.sample_rate, w.speaker_id, w.utterance_id)


def add_reverb(w: Waveform, ir: np.ndarray) -> Waveform:
    """Convolve with an impulse response, truncate to the input length, and
    renormalize to the input peak amplitude."""
    ir = np.asarray(ir, dtype=np.float64)
    if ir.size == 0 or not np.any(ir):
        raise DegenerateInputError("impulse response is empty or all-zero")
    out = fftconvolve(w.samples, ir, mode="full")[:w.samples.size]
    peak = np.max(np.abs(out))
    if peak > 0.0:
        out = out * (np.max(np.abs(w.samples)) / peak)
    return Waveform(out, w.sample_rate, w.speaker_id, w.utterance_id)


def augment(w: Waveform, spec: AugmentSpec) -> Waveform:
    """Apply one augmentation. Noise specs mix seeded white Gaussian noise at
    spec.snr_db; reverb specs convolve with spec.impulse_response.

    Deterministic given spec.rng_seed.
    """
    if spec.kind == "noise":
        rng = np.random.default_rng(spec.rng_seed)
        noise = Waveform(rng.standard_normal(w.samples.size), w.sample_rate)
        return add_noise(w, noise, spec.snr_db)
    return add_reverb(w, spec.impulse_response)


def synthetic_impulse_response(rng: np.random.Generator, sample_rate: int,
                               duration: float = 0.25, decay: float = 0.05) -> np.ndarray:
    """Exponentially decaying random impulse response: a unit direct path
    followed by a noise tail with time constant ``decay`` seconds."""
    n = max(2, int(round(duration * sample_rate)))
    t = np.arange(n) / sample_rate
    ir = 0.3 * rng.standard_normal(n) * np.exp(-t / decay)
    ir[0] = 1.0
    return ir


@dataclass
class AugmentSampler:
    """Draws per-utterance augmentations: noise or reverb, equal probability
    by default. Noise SNR is uniform over ``snr_range`` dB.

    Without corpora, noise is white Gaussian and impulse responses are
    synthetic exponential decays. Point ``noise_dir`` / ``rir_dir`` at
    directory trees of WAV files to use real material instead; files are
    enumerated recursively and chosen by seeded uniform draw.
    """

    snr_range: tuple[float, float] = (0.0, 15.0)
    noise_prob: float = 0.5
    noise_dir: str | None = None
    rir_dir: str | None = None
    ir_duration: float = 0.25
    _noise_files: list = field(default_factory=list, repr=False)
    _rir_files: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ValueError("noise_prob must lie in [0, 1]")
        if self.noise_dir is not None:
            self._noise_files = find_wavs(self.noise_dir)
            if not self._noise_files:
                raise FileNotFoundError(f"no WAV files under {self.noise_dir}")
        if self.rir_dir is not None:
            self._rir_files = find_wavs(self.rir_dir)
            if not self._rir_files:
                raise FileNotFoundError(f"no WAV files under {self.rir_dir}")

    def apply(self, w: Waveform, rng: np.random.Generator) -> Waveform:
        """Augment a copy of ``w`` using draws from ``rng``."""
        if rng.random() < self.noise_prob:
            snr = rng.uniform(*self.snr_range)
            if self._noise_files:
                pick = self._noise_files[int(rng.integers(len(self._noise_files)))]
                return add_noise(w, load_wav(pick), snr)
            seed = int(rng.integers(0, 2 ** 31 - 1))
            return augment(w, AugmentSpec("noise", snr_db=snr, rng_seed=seed))
        if self._rir_files:
            pick = self._rir_files[int(rng.integers(len(self._rir_files)))]
            ir = load_wav(pick).samples
        else:
            ir = synthetic_impulse_response(rng, w.sample_rate, self.ir_duration)
        return augment(w, AugmentSpec("reverb", impulse_response=ir))


def load_wav(path) -> Waveform:
    """Read a mono 16-bit PCM WAV file. Multichannel input is rejected."""
    with _wavemod.open(str(path), "rb") as f:
        if f.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
        if f.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
        sr = f.getframerate()
        raw = f.readframes(f.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, sr, utterance_id=Path(path).stem)


def save_wav(w: Waveform, path) -> None:
    """Write a waveform as mono 16-bit PCM WAV."""
    x = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with _wavemod.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(x.tobytes())


def find_wavs(root) -> list[Path]:
    """All .wav files under a directory tree, sorted for determinism."""
    return sorted(Path(root).rglob("*.wav"))
