import numpy as np
import pytest

from tempokit.peaks import moving_mad, moving_median


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
