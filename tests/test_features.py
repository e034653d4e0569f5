import numpy as np
import pytest
from scipy.signal import fftconvolve

from mfcontrast import features
from mfcontrast.features import (AugmentSampler, DegenerateInputError, LengthError,
                                 Waveform, add_noise, add_reverb, extract_fbank, load_wav,
                                 mel_filterbank, random_crop, save_wav,
                                 synthetic_impulse_response)

from oracles import dft_mel_energies, direct_convolution, mel_band_edges


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
        fb = extract_fbank(w, n_mels=80, log_floor=1e-10)
        assert np.all(fb.values == np.log(1e-10))

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

    def test_too_short_raises(self):
        with pytest.raises(LengthError):
            extract_fbank(Waveform(np.ones(100), 16000))

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
        expected = features._log_mel(frames, fb, 1e-10)
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
        expected = np.log(np.maximum(power @ fb.T, 1e-10))
        got = features._log_mel(frames, fb, 1e-10)
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
            extract_fbank([Waveform(np.ones(4000), 8000), other])

    def test_an_empty_batch_is_rejected(self):
        with pytest.raises(ValueError, match="no waveforms"):
            extract_fbank([])


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


class TestAddNoise:
    def test_zero_db_equalizes_powers(self):
        rng = np.random.default_rng(2)
        w = Waveform(rng.standard_normal(8000), 16000)
        noise = Waveform(rng.standard_normal(8000), 16000)
        out = add_noise(w, noise, snr_db=0.0)
        mixed_noise = out.samples - w.samples
        p_sig = np.mean(w.samples ** 2)
        p_noise = np.mean(mixed_noise ** 2)
        assert abs(p_noise - p_sig) / p_sig < 1e-6

    def test_high_snr_barely_changes_signal(self):
        rng = np.random.default_rng(3)
        w = Waveform(rng.standard_normal(8000), 16000)
        noise = Waveform(rng.standard_normal(8000), 16000)
        out = add_noise(w, noise, snr_db=100.0)
        rel = np.sqrt(np.mean((out.samples - w.samples) ** 2)
                      / np.mean(w.samples ** 2))
        assert rel < 1e-4

    def test_twenty_db_gain_is_tenth(self):
        # unit-power signal and noise: 20 = -20*log10(g) so g = 0.1
        n = 10000
        w = Waveform(np.full(n, 1.0), 16000)
        noise = Waveform(np.full(n, -1.0), 16000)
        out = add_noise(w, noise, snr_db=20.0)
        gain = (w.samples - out.samples)[0]
        assert abs(gain - 0.1) < 1e-12

    def test_requested_snr_achieved(self):
        rng = np.random.default_rng(4)
        for snr in (-5.0, 0.0, 7.5, 15.0):
            w = Waveform(rng.standard_normal(4000) * 0.3, 16000)
            noise = Waveform(rng.standard_normal(4000), 16000)
            out = add_noise(w, noise, snr)
            scaled = out.samples - w.samples
            measured = 10 * np.log10(np.mean(w.samples ** 2) / np.mean(scaled ** 2))
            assert abs(measured - snr) < 1e-3

    def test_noise_tiled_to_signal_length(self):
        w = sine(100.0, duration=1.0)
        noise = Waveform(np.ones(100), 16000)
        out = add_noise(w, noise, 10.0)
        assert out.samples.size == w.samples.size

    def test_silent_signal_rejected(self):
        with pytest.raises(DegenerateInputError):
            add_noise(Waveform(np.zeros(100), 16000), sine(100.0), 10.0)


class TestAddReverb:
    def test_unit_impulse_is_identity(self):
        rng = np.random.default_rng(5)
        w = Waveform(rng.standard_normal(2000), 16000)
        out = add_reverb(w, np.array([1.0]))
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_delay_impulse_shifts(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(2000)
        x[1000] = 5.0  # interior peak survives truncation
        w = Waveform(x, 16000)
        out = add_reverb(w, np.array([0.0, 1.0]))
        assert out.samples[0] == 0.0
        np.testing.assert_allclose(out.samples[1:], w.samples[:-1], rtol=1e-12)

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(500)
        ir = rng.standard_normal(64)
        out = add_reverb(Waveform(x, 16000), ir)
        full = direct_convolution(x, ir)[:500]
        expected = full * (np.max(np.abs(x)) / np.max(np.abs(full)))
        np.testing.assert_allclose(out.samples, expected, atol=1e-6 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n, m", [(2, 2), (2000, 1), (1, 9), (500, 64), (4001, 4000),
                                      (12_837, 2000), (48_000, 4000)])
    def test_equals_scipy_fftconvolve_bit_for_bit(self, n, m):
        rng = np.random.default_rng(n + m)
        x, ir = rng.standard_normal(n), rng.standard_normal(m)
        full = fftconvolve(x, ir)[:n]
        expected = full * (np.max(np.abs(x)) / np.max(np.abs(full)))
        np.testing.assert_array_equal(add_reverb(Waveform(x, 16000), ir).samples, expected)

    def test_peak_renormalized(self):
        rng = np.random.default_rng(8)
        w = Waveform(rng.standard_normal(3000), 16000)
        ir = synthetic_impulse_response(rng, 16000)
        out = add_reverb(w, ir)
        assert abs(np.max(np.abs(out.samples)) - np.max(np.abs(w.samples))) < 1e-12

    def test_zero_ir_rejected(self):
        with pytest.raises(DegenerateInputError):
            add_reverb(sine(100.0), np.zeros(16))


class TestAugment:
    def test_sampler_deterministic_under_seed(self):
        w = sine(150.0)
        sampler = AugmentSampler()
        a = sampler.apply(w, np.random.default_rng(31))
        b = sampler.apply(w, np.random.default_rng(31))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_sampler_produces_both_kinds(self):
        w = sine(150.0)
        sampler = AugmentSampler()
        rng = np.random.default_rng(1)
        outs = [sampler.apply(w, rng) for _ in range(12)]
        lengths_match = all(o.samples.size == w.samples.size for o in outs)
        assert lengths_match
        assert len({round(float(np.sum(o.samples ** 2)), 6) for o in outs}) > 1


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
