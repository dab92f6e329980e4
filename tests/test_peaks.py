import numpy as np
import pytest

from tempokit.peaks import (PeakPickParams, PeakSet, moving_mad,
                            moving_median, pick_peaks)


def loop_median(values, width):
    """The per-sample loop the windowed view replaced."""
    values = np.asarray(values, dtype=np.float64)
    half = width // 2
    out = np.empty_like(values)
    for i in range(values.size):
        lo = max(0, i - half)
        hi = min(values.size, i + half + 1)
        out[i] = np.median(values[lo:hi])
    return out


def loop_mad(values, width):
    values = np.asarray(values, dtype=np.float64)
    half = width // 2
    out = np.empty_like(values)
    for i in range(values.size):
        lo = max(0, i - half)
        hi = min(values.size, i + half + 1)
        window = values[lo:hi]
        out[i] = np.median(np.abs(window - np.median(window)))
    return out


def loop_pick_peaks(curve, params):
    """The per-sample loop the padded comparisons replaced."""
    curve = np.asarray(curve, dtype=np.float64)
    if curve.size == 0:
        return PeakSet()
    threshold = moving_median(curve, params.smoothing)
    threshold += params.threshold_k * moving_mad(curve, params.smoothing)

    peaks = []
    n = curve.size
    for t in range(n):
        if not curve[t] > threshold[t]:
            continue
        left = curve[max(0, t - 2):t]
        right = curve[t + 1:min(n, t + 3)]
        if left.size and not np.all(curve[t] > left):
            continue
        if right.size and not np.all(curve[t] >= right):
            continue
        peaks.append(t)
    return PeakSet(peaks)


@pytest.mark.parametrize("width", range(1, 10))
def test_moving_median_and_mad_match_the_loops(width):
    rng = np.random.default_rng(width)
    # lengths below, at and above the window, and a clip's curve length
    for size in (0, 1, 2, width - 1, width, width + 1, 2 * width + 3, 96):
        for scale in (1e-3, 1.0, 1e3):
            curve = rng.standard_normal(size) * scale
            for values in (curve, np.round(curve)):  # with ties
                assert np.array_equal(moving_median(values, width),
                                      loop_median(values, width))
                assert np.array_equal(moving_mad(values, width),
                                      loop_mad(values, width))


@pytest.mark.parametrize("threshold_k", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("smoothing", [1, 2, 5, 7])
def test_pick_peaks_matches_the_loop(threshold_k, smoothing):
    """Curves shorter than the +/-2 neighborhood and up to 40 samples,
    with ties and plateaus, zeroed runs, and NaN and +/-inf entries."""
    params = PeakPickParams(threshold_k, smoothing)
    rng = np.random.default_rng(int(threshold_k * 10) + 100 * smoothing)
    specials = np.array([np.nan, np.inf, -np.inf])
    for trial in range(200):
        size = trial % 5 if trial < 50 else int(rng.integers(0, 41))
        curve = rng.standard_normal(size) * rng.choice([1e-3, 1.0, 1e3])
        if trial % 2:
            curve = np.round(curve)  # ties and plateaus
        if trial % 3 == 0:
            curve[rng.random(size) < 0.3] = 0.0  # like still frame pairs
        if trial % 4 == 1:
            odd = rng.random(size) < 0.1
            curve[odd] = rng.choice(specials, odd.sum())
        with np.errstate(invalid="ignore"):
            assert (pick_peaks(curve, params)
                    == loop_pick_peaks(curve, params)), curve.tolist()


def test_peak_set_membership_is_exact():
    peaks = PeakSet([2, 5])
    assert 2 in peaks and 2.0 in peaks and np.int64(5) in peaks
    assert 2.5 not in peaks
    assert "x" not in peaks


def test_peak_set_equals_no_object_it_cannot_iterate():
    assert (PeakSet([1]) == 5) is False
    assert (PeakSet([1]) != 5) is True
    assert PeakSet([1]) == [1]
