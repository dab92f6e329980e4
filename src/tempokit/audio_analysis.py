"""Spectral audio analysis: STFT, onset detection, toy features.

Onsets are found on a positive spectral-flux curve with the shared
median/MAD picker, configured by the same PeakPickParams as the video
side. stft_magnitude returns a (columns, bins) magnitude array. The
STFT hop is one column per video frame (sample_rate / fps, rounded) so
that flux peak columns convert to frame indices with a plain rounding
rule.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .media_io import AudioEmbeddings
from .peaks import PeakSet, pick_peaks

LOG_FLOOR = 1e-6


def stft_magnitude(signal, win, hop):
    """Hann-windowed magnitude spectrogram (columns, win/2+1 bins)."""
    if win < 1 or hop < 1:
        raise ValidationError(f"need win >= 1 and hop >= 1, got {win}, {hop}")
    samples = signal.samples
    if samples.size < win:
        raise ValidationError(
            f"signal has {samples.size} samples, shorter than win={win}")
    n_cols = (samples.size - win) // hop + 1
    frames = sliding_window_view(samples, win)[::hop][:n_cols]
    return np.abs(np.fft.rfft(frames * np.hanning(win), axis=1))


def spectral_flux(mag):
    """Positive spectral flux per column of a magnitude spectrogram; the
    first entry is 0."""
    flux = np.zeros(mag.shape[0])
    if mag.shape[0] >= 2:
        rise = np.clip(mag[1:] - mag[:-1], 0.0, None)
        flux[1:] = rise.sum(axis=1)
    return flux


def detect_onsets(signal, fps, params=None, n_frames=None, win=1024):
    """Detect audio onsets and report them as video-frame indices.

    params is the PeakPickParams for the flux curve. Flux peak columns t
    map to frames round(t * hop * fps / sample_rate); results are sorted,
    deduplicated, and capped at n_frames-1 when a frame count is
    supplied.
    """
    if not 0 < fps < np.inf:  # NaN fails too
        raise ValidationError("fps must be positive and finite")
    hop = max(1, round(signal.sample_rate / fps))
    mag = stft_magnitude(signal, win, hop)
    flux = spectral_flux(mag)
    cols = pick_peaks(flux, params)
    frames = [round(t * hop * fps / signal.sample_rate) for t in cols]
    if n_frames is not None:
        frames = [min(f, n_frames - 1) for f in frames]
    return PeakSet(frames)


def _triangle_filterbank(bands, bins):
    """Triangular filters with linearly spaced centers covering all bins."""
    centers = np.linspace(0, bins - 1, bands + 2)
    bank = np.zeros((bands, bins))
    grid = np.arange(bins, dtype=np.float64)
    for b in range(bands):
        left, mid, right = centers[b], centers[b + 1], centers[b + 2]
        up = (grid - left) / max(mid - left, 1e-9)
        down = (right - grid) / max(right - mid, 1e-9)
        bank[b] = np.clip(np.minimum(up, down), 0.0, None)
    return bank


def toy_audio_features(signal, length, layers, dim):
    """Deterministic stand-in for a pretrained audio encoder.

    Log filterbank energies per STFT column are average-pooled into
    exactly `length` time segments and replicated across `layers` with a
    fixed per-layer affine decoration, so the output has the same
    (L, H_layers, d) layout the real encoder files use. Output is scale
    monotone: louder input never produces smaller features.
    """
    if length < 1 or layers < 1 or dim < 1:
        raise ValidationError("length, layers and dim must be >= 1")
    win = 1024
    hop = min(max(1, signal.samples.size // max(length * 2, 4)), win)
    mag = stft_magnitude(signal, win, hop)
    bank = _triangle_filterbank(dim, mag.shape[1])
    energies = mag @ bank.T  # (T, dim)
    feats = (np.log10(energies + LOG_FLOOR) + 6.0) / 3.0

    n_cols = feats.shape[0]
    bounds = np.floor(np.linspace(0, n_cols, length + 1)).astype(int)
    pooled = np.empty((length, dim))
    for seg in range(length):
        lo, hi = bounds[seg], bounds[seg + 1]
        if hi <= lo:  # more segments than columns: reuse nearest column
            lo = min(lo, n_cols - 1)
            hi = lo + 1
        pooled[seg] = feats[lo:hi].mean(axis=0)

    # Per-layer decoration: positive scale plus a small offset, fixed by
    # the layer index so the extractor stays deterministic and monotone.
    scales = 1.0 + 0.05 * np.arange(layers)
    offsets = 0.01 * np.arange(layers)
    values = pooled[:, None, :] * scales[None, :, None]
    values = values + offsets[None, :, None]
    return AudioEmbeddings(values)
