import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempokit.audio_analysis import (detect_onsets, spectral_flux,
                                     stft_magnitude, toy_audio_features)
from tempokit.errors import ValidationError
from tempokit.media_io import AudioSignal

SR = 16000
FPS = 24.0


def click_signal(times_s, duration_s=4.0, sr=SR, freq=2000.0, decay=0.008,
                 amp=0.5):
    """Independent click synthesizer for detector tests."""
    samples = np.zeros(int(duration_s * sr))
    n = int(0.03 * sr)
    t = np.arange(n) / sr
    burst = amp * np.sin(2 * np.pi * freq * t) * np.exp(-t / decay)
    for ts in times_s:
        start = int(round(ts * sr))
        stop = min(start + n, samples.size)
        samples[start:stop] += burst[:stop - start]
    return AudioSignal(np.clip(samples, -1, 1), sr)


class TestStft:
    def test_silence_gives_zero_magnitudes(self):
        spec = stft_magnitude(AudioSignal(np.zeros(SR), SR), 1024, 512)
        assert spec.shape[1] == 513
        np.testing.assert_array_equal(spec, 0.0)

    def test_column_count_contract(self):
        spec = stft_magnitude(AudioSignal(np.zeros(5000), SR), 1024, 667)
        assert spec.shape[0] == (5000 - 1024) // 667 + 1

    def test_bin_centered_sine_concentrates_energy(self):
        win = 1024
        k = 64
        n = np.arange(SR)
        sine = 0.5 * np.sin(2 * np.pi * k * n / win)
        spec = stft_magnitude(AudioSignal(sine, SR), win, 512)
        col = spec[4] ** 2
        assert np.argmax(col) == k
        # a Hann window spreads a bin-centered tone over bins k-1..k+1
        # with amplitude ratio 1/2:1:1/2; that 3-bin cluster carries
        # essentially all the energy
        assert col[k - 1:k + 2].sum() / col.sum() > 0.90

    def test_parseval_energy_match(self):
        rng = np.random.default_rng(11)
        win, hop = 256, 128
        sig = AudioSignal(rng.uniform(-0.9, 0.9, 4000), SR)
        spec = stft_magnitude(sig, win, hop)
        window = np.hanning(win)
        col = 5
        frame = sig.samples[col * hop:col * hop + win] * window
        time_energy = np.sum(frame ** 2)
        mags = spec[col] ** 2
        freq_energy = (mags[0] + 2 * mags[1:-1].sum() + mags[-1]) / win
        assert abs(freq_energy - time_energy) / time_energy < 1e-6

    def test_short_signal_rejected(self):
        with pytest.raises(ValidationError):
            stft_magnitude(AudioSignal(np.zeros(100), SR), 1024, 512)


class TestSpectralFlux:
    def test_silence_is_zero(self):
        spec = stft_magnitude(AudioSignal(np.zeros(SR), SR), 1024, 512)
        np.testing.assert_array_equal(spectral_flux(spec), 0.0)

    def test_steady_tone_is_flat_after_first_column(self):
        n = np.arange(2 * SR)
        sine = 0.5 * np.sin(2 * np.pi * 440 * n / SR)
        spec = stft_magnitude(AudioSignal(sine, SR), 1024, 512)
        flux = spectral_flux(spec)
        assert flux[0] == 0.0
        interior = flux[2:-2]
        assert interior.max() < 0.02 * spec.max()

    def test_single_click_spikes_at_click_column(self):
        hop = round(SR / FPS)
        sig = click_signal([2.0])
        spec = stft_magnitude(sig, 1024, hop)
        flux = spectral_flux(spec)
        peak_col = int(np.argmax(flux))
        expected = 2.0 * SR / hop  # click onset in column units
        assert abs(peak_col - expected) <= 1.0
        others = np.delete(flux, peak_col)
        assert flux[peak_col] > 5 * others.max()


class TestDetectOnsets:
    def test_silence_yields_empty_set(self):
        assert list(detect_onsets(AudioSignal(np.zeros(SR), SR), FPS)) == []

    def test_single_click_maps_to_video_frame(self):
        peaks = detect_onsets(click_signal([0.5], duration_s=2.0), FPS)
        assert len(peaks) == 1
        assert peaks.indices[0] in (11, 12, 13)

    def test_six_evenly_spaced_clicks(self):
        times = [0.5 + 0.5 * i for i in range(6)]
        peaks = detect_onsets(click_signal(times), FPS)
        assert len(peaks) == 6
        gaps = np.diff(peaks.indices)
        assert np.all(np.abs(gaps - 12) <= 1)

    def test_click_count_matches_over_random_layouts(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = int(rng.integers(2, 7))
            times = np.sort(rng.uniform(0.3, 3.5, m))
            while np.any(np.diff(times) < 0.27):
                times = np.sort(rng.uniform(0.3, 3.5, m))
            peaks = detect_onsets(click_signal(times), FPS)
            assert len(peaks) == m

    def test_shift_equivariance(self):
        times = [0.7, 1.5, 2.4]
        base = detect_onsets(click_signal(times), FPS)
        k = 5
        shifted_times = [t + k / FPS for t in times]
        shifted = detect_onsets(click_signal(shifted_times), FPS)
        assert len(base) == len(shifted)
        deltas = np.array(shifted.indices) - np.array(base.indices)
        assert np.all(np.abs(deltas - k) <= 1)

    def test_frame_indices_clamped(self):
        peaks = detect_onsets(click_signal([3.9]), FPS, n_frames=90)
        assert all(0 <= p <= 89 for p in peaks)

    def test_custom_params_validated(self):
        signal = click_signal([0.5], duration_s=1.0)
        for win, hop in ((0, 512), (1024, 0), (-5, 512)):
            with pytest.raises(ValidationError):
                stft_magnitude(signal, win, hop)
        with pytest.raises(ValidationError):
            detect_onsets(signal, FPS, win=0)

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=60)
    @given(times=st.lists(st.floats(0.0, 1.9), max_size=6),
           amp=st.floats(0.01, 0.9), freq=st.sampled_from([440.0, 2000.0]),
           noise=st.sampled_from([0.0, 1e-3, 0.05]),
           sr=st.sampled_from([8000, 16000]),
           fps=st.sampled_from([12.0, 24.0, 25.0, 30.0]),
           k=st.sampled_from([-1, -2, -7]))
    def test_power_of_two_gain_leaves_onsets_unchanged(self, times, amp,
                                                       freq, noise, sr, fps,
                                                       k):
        # the STFT, abs, the flux and the median/MAD picker all commute
        # exactly with a scale by 2^k, on PCM-16 samples as read_wav
        # makes them
        clicks = click_signal(times, 2.0, sr, freq, amp=amp).samples
        clicks += noise * np.random.default_rng(len(times)).uniform(
            -1, 1, clicks.size)
        pcm = np.clip(np.rint(clicks * 32768), -32768, 32767) / 32768
        loud = AudioSignal(pcm, sr)
        quiet = AudioSignal(pcm * 2.0 ** k, sr)
        assert detect_onsets(quiet, fps) == detect_onsets(loud, fps)


class TestToyFeatures:
    def test_shape_contract(self):
        sig = click_signal([1.0], duration_s=2.0)
        emb = toy_audio_features(sig, 24, 3, 12)
        assert emb.values.shape == (24, 3, 12)

    def test_silence_gives_constant_log_floor(self):
        emb = toy_audio_features(AudioSignal(np.zeros(SR), SR), 8, 2, 6)
        for layer in range(2):
            layer_vals = emb.values[:, layer, :]
            assert np.ptp(layer_vals) < 1e-12

    def test_loud_segment_scores_higher_than_quiet(self):
        rng = np.random.default_rng(23)
        noise = rng.uniform(-1, 1, 2 * SR)
        samples = np.concatenate([0.8 * noise[:SR], 0.01 * noise[SR:]])
        emb = toy_audio_features(AudioSignal(samples, SR), 4, 2, 8)
        loud = emb.values[:2].mean()
        quiet = emb.values[2:].mean()
        assert loud > quiet

    def test_deterministic(self):
        sig = click_signal([0.5, 1.5], duration_s=2.0)
        a = toy_audio_features(sig, 12, 2, 8).values
        b = toy_audio_features(sig, 12, 2, 8).values
        assert a.tobytes() == b.tobytes()

    def test_scale_monotone_in_energy(self):
        rng = np.random.default_rng(29)
        noise = rng.uniform(-0.5, 0.5, SR)
        low = toy_audio_features(AudioSignal(0.2 * noise, SR), 6, 1, 5)
        high = toy_audio_features(AudioSignal(0.9 * noise, SR), 6, 1, 5)
        assert np.all(high.values >= low.values - 1e-12)
