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

A batch is worked on every usable CPU (``parallel.deal``):
``extract_fbank`` transforms stacked chunks of up to ``FBANK_CHUNK_FRAMES``
frames, and ``AugmentSampler.apply`` makes every draw on the calling thread,
crop by crop as one crop at a time would, then renders shares of the crops.
Each wave's result equals that of the wave alone, so nothing depends on the
CPU count.
"""

from __future__ import annotations

import functools
import wave as _wavemod
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import parallel


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


def _log_mel(frames: np.ndarray, fb: np.ndarray, out: np.ndarray,
             waves: int) -> np.ndarray:
    """``LOG_FLOOR``-floored log mel energies of windowed, zero-padded
    (rows, n_fft) frames under the filterbank ``fb``, written into ``out``.
    The rfft's interleaved real and imaginary parts are squared in place
    and added pairwise into |X|^2, with no complex abs.

    The frames hold ``waves`` equal blocks of rows, one per wave, and the
    mel GEMM runs block by block: every other step treats each row alone,
    but BLAS picks its kernel by the product's size (gemv for one row, and
    OpenBLAS a small-matrix kernel below about 1,200 output entries), and
    kernels round differently. So a wave's rows get the bits of the wave
    alone, whatever the stack."""
    sq = np.fft.rfft(frames, axis=1).view(np.float64)
    np.square(sq, out=sq)
    power = sq[:, 0::2] + sq[:, 1::2]
    step = frames.shape[0] // waves
    for lo in range(0, frames.shape[0], step):
        np.matmul(power[lo:lo + step], fb.T, out=out[lo:lo + step])
    np.maximum(out, LOG_FLOOR, out=out)
    return np.log(out, out=out)


def frame_count(n_samples: int, sample_rate: int) -> int:
    """Filterbank frames ``extract_fbank`` gives ``n_samples`` samples at
    ``sample_rate``; below one frame, 0."""
    flen = int(round(FRAME_LEN * sample_rate))
    fshift = int(round(FRAME_SHIFT * sample_rate))
    return max(0, (n_samples - flen) // fshift + 1)


# filterbank frames in each stacked chunk of waves that extract_fbank
# transforms at once: a chunk holds max(1, FBANK_CHUNK_FRAMES // T) waves of
# T frames, 4 of the desk's 1 s crops (T = 98) and 1 wave of 4 s (T = 398).
# Timed on 100 desk waves (1 s at 8 kHz, 80 mels; 2 CPUs, 1 BLAS thread;
# medians of 27 alternating calls, three sessions): on two threads, chunks
# of 1 wave took 18.0-19.4 ms, of 4 waves 15.1-18.0 and of 8 or 16 waves
# about the same, but of 50 waves 22.0-26.6, since such a chunk leaves the
# cache; on one thread, 1 to 16 waves took 17-24 ms alike and 50 waves
# 25-33. At 4 s, chunks of 1 or 2 waves ran alike and of 5 slower.
FBANK_CHUNK_FRAMES = 400


def _shared_shape(waves) -> tuple:
    """The (sample rate, sample count) that ``waves`` share; ValueError when
    they mix lengths or rates."""
    sr, size = waves[0].sample_rate, waves[0].samples.size
    if any(x.sample_rate != sr or x.samples.size != size for x in waves):
        raise ValueError("batched waveforms must share their sample count and rate")
    return sr, size


def _fbank_chunk(waves, window, fb, fshift: int, buf: np.ndarray, out: np.ndarray):
    """Log mel energies of the equal-length ``waves`` into ``out``, their
    frames stacked in wave order (rows, n_mels). Each wave's frames are a
    strided view of its samples, multiplied by ``window`` straight into its
    rows of ``buf`` (rows, n_fft), whose columns past the window stay zero;
    then one ``_log_mel`` call transforms the whole stack."""
    flen, frames = window.size, out.shape[0] // len(waves)
    for j, wave in enumerate(waves):
        x = wave.samples
        view = np.lib.stride_tricks.as_strided(
            x, (frames, flen), (fshift * x.strides[0], x.strides[0]), writeable=False)
        np.multiply(view, window, out=buf[j * frames:(j + 1) * frames, :flen])
    _log_mel(buf, fb, out=out, waves=len(waves))


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
    ValueError. Each waveform must hold at least one frame, which
    ``trainer.trial_utterances`` and ``TrainConfig``'s crop floor ensure.

    The waves are cut into chunks of consecutive waves, each of at most
    ``FBANK_CHUNK_FRAMES`` frames (at least one wave), and each chunk is
    one stack of frames: one real FFT, one square and one log per chunk
    rather than per wave, and the mel GEMM wave by wave (``_log_mel``
    says why). The FFT runs on a zeroed (frames, n_fft) buffer, n_fft
    being the smallest power of two that holds a frame, with no padding
    copy of its own. So a chunk's size changes no bit; a larger chunk
    leaves the cache and runs slower per wave.

    The chunks run in shares of ``parallel.deal``, into features
    allocated here; each share zeroes one chunk's buffer of its own, a
    temporary. The result does not depend on the CPU count.
    """
    waves = [w] if isinstance(w, Waveform) else list(w)
    sr, size = _shared_shape(waves)
    flen = int(round(FRAME_LEN * sr))
    fshift = int(round(FRAME_SHIFT * sr))
    num_frames = frame_count(size, sr)
    n_fft = 1
    while n_fft < flen:
        n_fft *= 2
    window, fb = _frame_weights(n_mels, n_fft, sr, flen)
    per_chunk = max(1, FBANK_CHUNK_FRAMES // num_frames)
    starts = range(0, len(waves), per_chunk)
    values = np.empty((len(waves), num_frames, n_mels))
    rows = values.reshape(-1, n_mels)

    def transform(share):
        buf = np.zeros((per_chunk * num_frames, n_fft))
        for start in share:
            chunk = waves[start:start + per_chunk]
            lo, hi = start * num_frames, (start + len(chunk)) * num_frames
            _fbank_chunk(chunk, window, fb, fshift, buf[:hi - lo], rows[lo:hi])

    parallel.deal(starts, transform)
    return FeatureMatrix(values[0] if isinstance(w, Waveform) else values)


def random_crop(w: Waveform, duration: float, rng_seed: int) -> Waveform:
    """Crop a fixed-duration segment at a seeded random offset.

    Inputs shorter than the target are wrap-padded (tiled) so every
    utterance can produce a crop. The same seed always yields the same
    offset.
    """
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

    def apply(self, crops, rng: np.random.Generator) -> list:
        """Augmented copies of ``crops``, waveforms that share their sample
        count and rate (ValueError otherwise), in the same order.

        Every draw from ``rng`` is made here, crop by crop in order, as
        the crops one at a time would make them: the branch, then the SNR
        and a seed for the noise, or the impulse response's tail.

        Noise is the seed's standard normal samples scaled so that
        10 log10(P_signal / P_noise) is the SNR, P the mean square; for a
        silent crop the scale is 0, so it stays silent.

        The impulse response has max(2, ``IR_DURATION`` * rate) taps: 1, then
        a Gaussian tail of scale 0.3 decaying with time constant
        ``IR_DECAY``, whose envelope is computed once per call. The
        convolution runs through a real FFT of ``_fast_real_length``
        points, the arithmetic of ``scipy.signal.fftconvolve``; it is cut to
        the crop's length and rescaled to the crop's peak.

        The crops are then rendered in shares of ``parallel.deal``, into
        output rows allocated here: a share renders its noise crops one by
        one and its reverb crops with one stacked FFT. Each row equals that
        of its crop alone, whatever the CPU count."""
        sr, size = _shared_shape(crops)
        taps = max(2, int(round(IR_DURATION * sr)))
        noise, tails = {}, {}
        for i in range(len(crops)):
            if rng.random() < NOISE_PROB:
                noise[i] = (rng.uniform(*SNR_RANGE), int(rng.integers(0, 2 ** 31 - 1)))
            else:
                tails[i] = rng.standard_normal(taps)
        envelope = np.exp(-(np.arange(taps) / sr) / IR_DECAY)
        nfft = _fast_real_length(size + taps - 1)
        out = np.empty((len(crops), size))

        def render(share):
            for i in (i for i in share if i in noise):
                _add_noise(crops[i].samples, *noise[i], out[i])
            wet = [i for i in share if i in tails]
            if wet:
                _add_reverb(np.stack([crops[i].samples for i in wet]),
                            np.stack([tails[i] for i in wet]), envelope, nfft, out, wet)

        parallel.deal(range(len(crops)), render)
        return [replace(c, samples=x) for c, x in zip(crops, out)]


def _add_noise(x: np.ndarray, snr_db: float, seed: int, out: np.ndarray):
    """``x`` plus the standard normal samples of ``seed``, scaled to
    ``snr_db`` below the power of ``x``, into ``out``."""
    noise = np.random.default_rng(seed).standard_normal(x.size)
    gain = np.sqrt(np.mean(x ** 2) / (np.mean(noise ** 2) * 10.0 ** (snr_db / 10.0)))
    np.multiply(noise, gain, out=out)
    out += x


def _add_reverb(xs: np.ndarray, tails: np.ndarray, envelope: np.ndarray, nfft: int,
                out: np.ndarray, rows: list):
    """The (r, n) crops ``xs`` convolved with the impulse responses of the
    (r, taps) Gaussian ``tails``, cut to n samples and rescaled to each
    crop's peak (a silent result stays as it is), into ``out[rows]``."""
    irs = 0.3 * tails * envelope
    irs[:, 0] = 1.0
    wet = np.fft.irfft(np.fft.rfft(xs, nfft) * np.fft.rfft(irs, nfft), nfft)[:, :xs.shape[1]]
    peak = np.max(np.abs(wet), axis=1)
    scale = np.divide(np.max(np.abs(xs), axis=1), peak, out=np.ones_like(peak),
                      where=peak > 0.0)
    out[rows] = wet * scale[:, None]


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
