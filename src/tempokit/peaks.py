"""Peak picking shared by the audio and video pipelines.

Both modalities reduce to a 1-d activity curve (spectral flux, mean flow
magnitude) and run the same adaptive picker: a value is a peak when it
exceeds a moving median plus k times the moving median absolute
deviation, and is the local maximum within +/-2 samples. Using one
implementation keeps the two modalities symmetric.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError


@dataclass
class PeakPickParams:
    threshold_k: float = 1.5
    smoothing: int = 5  # moving median/MAD window length

    def __post_init__(self):
        if not 0 < self.threshold_k < np.inf:  # NaN fails too
            raise ValidationError("threshold_k must be positive and finite")
        if self.smoothing < 1:
            raise ValidationError("smoothing window must be >= 1")


class PeakSet:
    """Strictly increasing, deduplicated frame indices."""

    def __init__(self, indices=()):
        cleaned = sorted({int(i) for i in indices})
        if cleaned and cleaned[0] < 0:
            raise ValidationError("peak indices must be nonnegative")
        self.indices = tuple(cleaned)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __eq__(self, other):
        if isinstance(other, PeakSet):
            return self.indices == other.indices
        try:
            other = tuple(other)
        except TypeError:  # not iterable: let Python compare identities
            return NotImplemented
        return self.indices == other

    def __repr__(self):
        return f"PeakSet({list(self.indices)})"


def _moving(values, width, stat):
    """stat(window) over centered windows of 2 * (width // 2) + 1
    samples, clipped at the edges. stat reduces the last axis, so the
    full interior windows go through it as one (n, window) view."""
    values = np.asarray(values, dtype=np.float64)
    half = width // 2
    out = np.empty_like(values)
    head = min(half, values.size)
    tail = max(head, values.size - half)
    for i in (*range(head), *range(tail, values.size)):
        out[i] = stat(values[max(0, i - half):i + half + 1])
    if tail > head:
        out[head:tail] = stat(sliding_window_view(values, 2 * half + 1))
    return out


def _median(windows):
    return np.median(windows, axis=-1)


def _mad(windows):
    deviation = windows - np.median(windows, axis=-1, keepdims=True)
    return np.median(np.abs(deviation), axis=-1)


def moving_median(values, width):
    """Centered moving median; the window is clipped at the edges."""
    return _moving(values, width, _median)


def moving_mad(values, width):
    """Centered moving median absolute deviation (same windows)."""
    return _moving(values, width, _mad)


def pick_peaks(curve, params=None):
    """Return a PeakSet of indices into curve.

    A peak must beat median + k * MAD of its neighborhood and be the
    local maximum within +/-2 samples (strictly above its left side so a
    flat plateau yields exactly one peak, at its left edge). A neighbor
    past either end of the curve counts as -inf, so an edge sample has
    only its real neighbors to beat.
    """
    if params is None:
        params = PeakPickParams()
    curve = np.asarray(curve, dtype=np.float64)
    threshold = moving_median(curve, params.smoothing)
    threshold += params.threshold_k * moving_mad(curve, params.smoothing)

    n = curve.size
    padded = np.pad(curve, 2, constant_values=-np.inf)
    left1, left2 = padded[1:n + 1], padded[:n]
    right1, right2 = padded[3:n + 3], padded[4:]
    peak = ((curve > threshold) & (curve > left1) & (curve > left2)
            & (curve >= right1) & (curve >= right2))
    return PeakSet(np.flatnonzero(peak))
