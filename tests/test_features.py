import threading

import numpy as np
import pytest

from mfcontrast import features
from mfcontrast.features import (AugmentSampler, Waveform, extract_fbank, load_wav,
                                 mel_filterbank, random_crop)

from oracles import (dft_mel_energies, direct_convolution, drawn_augmentation, fft_reverb,
                     mel_band_edges, per_crop_augmentation)
from spies import on_cpus
from writers import save_wav


def sine(freq, duration=1.0, sr=16000, amp=0.3):
    t = np.arange(int(duration * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr, "spk", "utt")


class TestExtractFbank:
    def test_three_second_shape(self):
        w = sine(440.0, duration=3.0)
        fb = extract_fbank(w, n_mels=80)
        assert fb.values.shape == (298, 80)

    def test_frame_count_formula(self):
        w = sine(200.0, duration=0.5)
        fb = extract_fbank(w, n_mels=40)
        expected_t = (8000 - 400) // 160 + 1
        assert fb.values.shape == (expected_t, 40)

    def test_all_zero_waveform_hits_log_floor(self):
        w = Waveform(np.zeros(16000), 16000)
        fb = extract_fbank(w, n_mels=80)
        assert np.all(fb.values == np.log(features.LOG_FLOOR))

    def test_sine_at_band_center_peaks_in_that_band(self):
        centers = mel_band_edges(16000, 40)[1:-1]
        for band in (8, 15, 24):
            fb = extract_fbank(sine(centers[band], duration=0.2), n_mels=40)
            assert np.all(np.argmax(fb.values, axis=1) == band)

    def test_matches_direct_dft_mel_oracle(self):
        # one frame, checked against an explicit DFT + triangle weighting
        rng = np.random.default_rng(0)
        sr = 16000
        samples = 0.2 * rng.standard_normal(400)
        w = Waveform(samples, sr)
        fb = extract_fbank(w, n_mels=12)
        frame = samples * np.hamming(400)
        oracle = dft_mel_energies(frame, 512, sr, 12)
        expected = np.log(np.maximum(oracle, 1e-10))
        np.testing.assert_allclose(fb.values[0], expected, rtol=1e-8)

    def test_finite_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = Waveform(rng.standard_normal(4000) * 10 ** rng.uniform(-8, 2), 16000)
            fb = extract_fbank(w, n_mels=30)
            assert np.all(np.isfinite(fb.values))

    def test_cached_frame_weights_match_fresh_ones_and_reject_writes(self):
        features._frame_weights.cache_clear()
        w = sine(300.0, duration=0.5)
        fresh = extract_fbank(w, n_mels=40).values  # builds the weights
        cached = extract_fbank(w, n_mels=40).values
        assert features._frame_weights.cache_info().hits >= 1
        np.testing.assert_array_equal(cached, fresh)
        window, fb = features._frame_weights(40, 512, 16000, 400)
        np.testing.assert_array_equal(window, np.hamming(400))
        np.testing.assert_array_equal(fb, mel_filterbank(40, 512, 16000))
        for shared in (window, fb):
            with pytest.raises(ValueError):
                shared[0] = 1.0


    @pytest.mark.parametrize("n, sr", [(400, 16000), (12_837, 8000), (64_000, 16000)])
    def test_strided_framing_equals_the_index_matrix_gather(self, n, sr):
        # reference: every frame gathered through an explicit index matrix,
        # then the same spectrum -> log-mel step
        samples = 0.3 * np.random.default_rng(n).standard_normal(n)
        flen, fshift, n_fft = sr // 40, sr // 100, 512 if sr == 16000 else 256
        num_frames = (n - flen) // fshift + 1
        idx = np.arange(num_frames)[:, None] * fshift + np.arange(flen)[None, :]
        _, fb = features._frame_weights(40, n_fft, sr, flen)
        frames = np.zeros((num_frames, n_fft))
        frames[:, :flen] = samples[idx] * np.hamming(flen)
        expected = features._log_mel(frames, fb, np.empty((num_frames, 40)), 1)
        got = extract_fbank(Waveform(samples, sr), n_mels=40).values
        assert got.shape == (num_frames, 40)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n_fft, sr, n_mels", [(512, 16000, 80), (256, 8000, 40)])
    def test_log_mel_matches_the_textbook_power_spectrum(self, n_fft, sr, n_mels):
        # log(max(|rfft|^2 @ fb.T, floor)), with |X| from np.abs
        rng = np.random.default_rng(n_fft)
        frames = np.zeros((300, n_fft))
        frames[:, :sr // 40] = rng.standard_normal((300, sr // 40)) * np.hamming(sr // 40)
        frames[::7] *= 1e-6  # frames whose low bands reach the floor
        fb = mel_filterbank(n_mels, n_fft, sr)
        power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
        expected = np.log(np.maximum(power @ fb.T, features.LOG_FLOOR))
        got = features._log_mel(frames, fb, np.empty((300, n_mels)), 1)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seconds", [1.0, 4.0])
    @pytest.mark.parametrize("sr, n_mels", [(8000, 40), (16000, 80)])
    def test_zero_padded_frames_equal_padding_inside_the_rfft(self, seconds, sr, n_mels):
        # reference: unpadded windowed frames, zero-padded by rfft(n=n_fft),
        # then the same squares, pair add, filterbank, floor and log
        samples = 0.3 * np.random.default_rng(sr).standard_normal(int(seconds * sr))
        flen, fshift, n_fft = sr // 40, sr // 100, 512 if sr == 16000 else 256
        window, fb = features._frame_weights(n_mels, n_fft, sr, flen)
        frames = np.lib.stride_tricks.sliding_window_view(samples, flen)[::fshift] * window
        sq = np.fft.rfft(frames, n=n_fft, axis=1).view(np.float64)
        np.square(sq, out=sq)
        expected = np.log(np.maximum((sq[:, 0::2] + sq[:, 1::2]) @ fb.T, 1e-10))
        got = extract_fbank(Waveform(samples, sr), n_mels=n_mels).values
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n, sr", [(400, 16000), (8000, 8000), (12_837, 8000),
                                       (64_000, 16000)])
    def test_a_batch_equals_the_per_wave_features(self, n, sr):
        rng = np.random.default_rng(n)
        waves = [Waveform(0.3 * rng.standard_normal(n), sr) for _ in range(5)]
        single = [extract_fbank(w, n_mels=40).values for w in waves]
        assert features.frame_count(n, sr) == single[0].shape[0]
        for b in (1, 2, 5):
            got = extract_fbank(waves[:b], n_mels=40).values
            assert got.shape == (b,) + single[0].shape
            for row, want in zip(got, single):
                assert np.array_equal(row, want)

    @pytest.mark.parametrize("other", [Waveform(np.ones(4001), 8000),
                                       Waveform(np.ones(4000), 16000)])
    def test_a_batch_of_mixed_lengths_or_rates_is_rejected(self, other):
        with pytest.raises(ValueError, match="share their sample count and rate"):
            extract_fbank([Waveform(np.ones(4000), 8000), other], 40)


def spy_threads(monkeypatch, *names):
    """Patch the named ``features`` kernels to record, per call, the thread
    and the call's first argument."""
    calls = []
    for name in names:
        def spy(*args, kernel=getattr(features, name)):
            calls.append((threading.current_thread(), args[0]))
            return kernel(*args)
        monkeypatch.setattr(features, name, spy)
    return calls


class TestStackedFbank:
    """``extract_fbank`` in chunks of ``FBANK_CHUNK_FRAMES`` frames spread
    over the usable CPUs gives each wave the bits of the wave alone."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("seconds", [1.0, 4.0])
    @pytest.mark.parametrize("sr", [8000, 16000])
    def test_one_below_and_one_above_a_chunk_equal_the_waves_alone(
            self, monkeypatch, cpus, seconds, sr):
        n = int(seconds * sr)
        per_chunk = max(1, features.FBANK_CHUNK_FRAMES // features.frame_count(n, sr))
        rng = np.random.default_rng(sr + n)
        waves = [Waveform(0.3 * rng.standard_normal(n), sr) for _ in range(per_chunk + 1)]
        alone = [extract_fbank(w, n_mels=40).values for w in waves]
        on_cpus(monkeypatch, cpus)
        calls = spy_threads(monkeypatch, "_fbank_chunk")
        for count in sorted({1, max(1, per_chunk - 1), per_chunk + 1}):
            calls.clear()
            got = extract_fbank(waves[:count], n_mels=40).values
            assert got.shape == (count,) + alone[0].shape
            for row, want in zip(got, alone):
                assert np.array_equal(row, want)
            chunks = -(-count // per_chunk)
            assert sorted(len(chunk) for _, chunk in calls) == sorted(
                [per_chunk] * (chunks - 1) + [count - per_chunk * (chunks - 1)])
            assert len({thread for thread, _ in calls}) == min(chunks, cpus)

    @pytest.mark.parametrize("frames", [1, 4, 15])
    @pytest.mark.parametrize("n_mels", [16, 80])
    def test_a_stack_of_short_waves_keeps_each_waves_bits(self, frames, n_mels):
        # a stacked mel GEMM crosses BLAS's small-product kernel at these sizes
        sr = 8000
        n = 200 + 80 * (frames - 1)
        rng = np.random.default_rng(frames)
        waves = [Waveform(0.3 * rng.standard_normal(n), sr) for _ in range(120)]
        got = extract_fbank(waves, n_mels).values
        assert got.shape == (120, frames, n_mels)
        for row, w in zip(got, waves):
            assert np.array_equal(row, extract_fbank(w, n_mels).values)


class TestBatchedAugment:
    """``AugmentSampler.apply`` on a batch against the crops augmented one
    at a time by the per-crop reference."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_batch_equals_the_crops_one_by_one_bit_for_bit(self, monkeypatch, cpus):
        on_cpus(monkeypatch, cpus)
        calls = spy_threads(monkeypatch, "_add_noise", "_add_reverb")
        silent_branches = set()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            crops = [Waveform(0.3 * rng.standard_normal(4000), 8000, f"spk{k}", f"utt{k}")
                     for k in range(9)]
            crops[4] = Waveform(np.zeros(4000), 8000, "spk4", "utt4")
            batch_rng, crop_rng = (np.random.default_rng([seed, 7]) for _ in range(2))
            calls.clear()
            got = AugmentSampler().apply(crops, batch_rng)
            want = [per_crop_augmentation(c, crop_rng) for c in crops]
            assert batch_rng.bit_generator.state == crop_rng.bit_generator.state
            assert len(got) == len(crops)
            for out, ref, crop in zip(got, want, crops):
                assert out.samples.tobytes() == ref.samples.tobytes()
                assert ((out.sample_rate, out.speaker_id, out.utterance_id)
                        == (crop.sample_rate, crop.speaker_id, crop.utterance_id))
            # a noise crop's first argument is its samples, a reverb share's a stack
            noisy = [x for _, x in calls if x.ndim == 1]
            assert noisy and len(noisy) < len(crops)
            silent_branches.add(any(x is crops[4].samples for x in noisy))
            assert not got[4].samples.any()
            assert len({thread for thread, _ in calls}) == cpus
        assert silent_branches == {True, False}

    def test_crops_of_mixed_lengths_are_rejected(self):
        crops = [Waveform(np.ones(4000), 8000), Waveform(np.ones(4001), 8000)]
        with pytest.raises(ValueError, match="share their sample count and rate"):
            AugmentSampler().apply(crops, np.random.default_rng(0))


class TestRandomCrop:
    def test_ten_second_input_gives_requested_length(self):
        w = sine(100.0, duration=10.0)
        out = random_crop(w, 3.0, rng_seed=5)
        assert out.samples.size == 48000
        assert out.speaker_id == w.speaker_id

    def test_exact_length_identity(self):
        w = sine(100.0, duration=3.0)
        out = random_crop(w, 3.0, rng_seed=9)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_short_input_is_tiled(self):
        w = sine(100.0, duration=1.0)
        out = random_crop(w, 3.0, rng_seed=11)
        np.testing.assert_array_equal(out.samples, np.tile(w.samples, 3))

    def test_seed_determinism(self):
        w = sine(100.0, duration=10.0)
        a = random_crop(w, 2.0, rng_seed=123)
        b = random_crop(w, 2.0, rng_seed=123)
        np.testing.assert_array_equal(a.samples, b.samples)


def seeds_on(branch, count):
    """The first ``count`` seeds whose generator sends
    ``AugmentSampler.apply`` down ``branch``, "noise" or "reverb"."""
    seeds = (s for s in range(1000)
             if (np.random.default_rng(s).random() < features.NOISE_PROB) == (branch == "noise"))
    return [next(seeds) for _ in range(count)]


def augmented(x, sample_rate, seed):
    crop = Waveform(x, sample_rate)
    return AugmentSampler().apply([crop], np.random.default_rng(seed))[0].samples


class TestAddNoise:
    """The noise branch of ``AugmentSampler.apply``; a test that needs one
    SNR makes it the whole of ``SNR_RANGE`` and takes the branch always."""

    @pytest.fixture
    def snr_db(self, monkeypatch):
        monkeypatch.setattr(features, "NOISE_PROB", 1.0)

        def fix(value):
            monkeypatch.setattr(features, "SNR_RANGE", (value, value))
        return fix

    def test_zero_db_equalizes_powers(self, snr_db):
        snr_db(0.0)
        x = np.random.default_rng(2).standard_normal(8000)
        added = augmented(x, 16000, 3) - x
        p_sig = np.mean(x ** 2)
        assert abs(np.mean(added ** 2) - p_sig) / p_sig < 1e-6

    def test_high_snr_barely_changes_signal(self, snr_db):
        snr_db(100.0)
        x = np.random.default_rng(3).standard_normal(8000)
        rel = np.sqrt(np.mean((augmented(x, 16000, 4) - x) ** 2) / np.mean(x ** 2))
        assert rel < 1e-4

    def test_twenty_db_gain_is_tenth(self, snr_db):
        # a unit-power signal: 20 = -20*log10(g) for noise scaled to unit
        # power, so the added noise is the seed's draws times 0.1 / rms
        snr_db(20.0)
        x = np.ones(10000)
        rng = np.random.default_rng(5)
        rng.random(), rng.uniform()  # apply's branch and SNR draws
        noise_seed = int(rng.integers(0, 2 ** 31 - 1))
        noise = np.random.default_rng(noise_seed).standard_normal(x.size)
        gain = (augmented(x, 16000, 5) - x) / noise
        np.testing.assert_allclose(gain, 0.1 / np.sqrt(np.mean(noise ** 2)), rtol=1e-9)

    def test_requested_snr_achieved(self):
        # the SNR apply draws, rebuilt from the same draws, is the SNR of
        # its output, which equals the rebuilt one bit for bit
        for seed in seeds_on("noise", 4):
            x = 0.3 * np.random.default_rng(100 + seed).standard_normal(4000)
            branch, snr, expected = drawn_augmentation(x, 16000, seed)
            out = augmented(x, 16000, seed)
            assert branch == "noise" and np.array_equal(out, expected)
            measured = 10 * np.log10(np.mean(x ** 2) / np.mean((out - x) ** 2))
            assert abs(measured - snr) < 1e-6


class TestAddReverb:
    """The reverb branch of ``AugmentSampler.apply``, checked against
    ``fft_reverb`` on the impulse response rebuilt from its draws, and
    ``fft_reverb`` itself on known responses."""

    def test_unit_impulse_is_identity(self):
        x = np.random.default_rng(5).standard_normal(2000)
        np.testing.assert_array_equal(fft_reverb(x, np.array([1.0])), x)

    def test_delay_impulse_shifts(self):
        x = np.random.default_rng(6).standard_normal(2000)
        x[1000] = 5.0  # interior peak survives truncation
        out = fft_reverb(x, np.array([0.0, 1.0]))
        assert abs(out[0]) < 1e-12
        np.testing.assert_allclose(out[1:], x[:-1], rtol=1e-12, atol=1e-12)

    def test_matches_direct_convolution_oracle(self):
        # 64 taps at 256 Hz
        x = np.random.default_rng(7).standard_normal(500)
        seed = seeds_on("reverb", 1)[0]
        branch, ir, _ = drawn_augmentation(x, 256, seed)
        assert branch == "reverb" and ir.size == 64
        full = direct_convolution(x, ir)[:500]
        expected = full * (np.max(np.abs(x)) / np.max(np.abs(full)))
        np.testing.assert_allclose(augmented(x, 256, seed), expected,
                                   atol=1e-12 * np.max(np.abs(expected)))

    # n samples at the rate whose impulse response has m taps
    @pytest.mark.parametrize("n, m", [(2, 2), (500, 64), (4001, 4000), (12_837, 2000),
                                      (48_000, 4000)])
    def test_equals_scipy_fftconvolve_bit_for_bit(self, n, m):
        sample_rate = 4 * m
        for seed in seeds_on("reverb", 3):
            x = np.random.default_rng(n + m + seed).standard_normal(n)
            branch, ir, expected = drawn_augmentation(x, sample_rate, seed)
            assert branch == "reverb" and ir.size == m
            np.testing.assert_array_equal(augmented(x, sample_rate, seed), expected)

    def test_peak_renormalized(self):
        x = np.random.default_rng(8).standard_normal(3000)
        for seed in seeds_on("reverb", 3):
            out = augmented(x, 16000, seed)
            assert abs(np.max(np.abs(out)) - np.max(np.abs(x))) < 1e-12


class TestAugment:
    def test_sampler_deterministic_under_seed(self):
        w = sine(150.0)
        sampler = AugmentSampler()
        a, = sampler.apply([w], np.random.default_rng(31))
        b, = sampler.apply([w], np.random.default_rng(31))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_sampler_produces_both_kinds(self):
        w = sine(150.0)
        sampler = AugmentSampler()
        outs = sampler.apply([w] * 12, np.random.default_rng(1))
        lengths_match = all(o.samples.size == w.samples.size for o in outs)
        assert lengths_match
        assert len({round(float(np.sum(o.samples ** 2)), 6) for o in outs}) > 1

    def test_a_silent_crop_stays_silent_after_the_same_draws(self):
        # a silent crop's noise is scaled by 0: the crop stays silent, in a
        # new array, and rng is left where a voiced crop leaves it
        seeds = range(8)
        assert {np.random.default_rng(s).random() < features.NOISE_PROB
                for s in seeds} == {True, False}
        silent = Waveform(np.zeros(16000), 16000, "spk", "utt")
        for seed in seeds:
            rng, voiced_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out, = AugmentSampler().apply([silent], rng)
            AugmentSampler().apply([sine(150.0)], voiced_rng)
            assert out.samples.shape == silent.samples.shape and not out.samples.any()
            assert out.samples is not silent.samples
            assert rng.bit_generator.state == voiced_rng.bit_generator.state


class TestWavIO:
    def test_round_trip(self, tmp_path):
        w = sine(330.0, duration=0.25)
        path = tmp_path / "a.wav"
        save_wav(w, path)
        back = load_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32768)

    def test_multichannel_rejected(self, tmp_path):
        import wave
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(np.zeros(400, dtype="<i2").tobytes())
        with pytest.raises(ValueError, match="mono"):
            load_wav(path)


class TestWaveformValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 16000)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.ones(10), 0)
