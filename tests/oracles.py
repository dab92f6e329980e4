"""Reference implementations and the finite-difference harness the
tests compare tempokit against.

None of these is run by a tempokit command: each states a quantity the
way its definition does (a mean over a span, x * Phi(x), a central
difference, a flow sweep as two convolutions) so that the tests can
check the package's faster or fused form of it.
"""

import hashlib

import numpy as np
from scipy.ndimage import convolve

from tempokit.errors import NumericError, ShapeError, ValidationError
from tempokit.motion_analysis import to_grayscale
from tempokit.numerics import normal_cdf


def gelu(x):
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF.

    Uses the erf-based CDF, not the tanh approximation, so tests can pin
    values against a high-precision oracle.
    """
    x = np.asarray(x, dtype=np.float64)
    return x * normal_cdf(x)


def grad_check(f, params, eps=1e-5):
    """Compare an analytic gradient against central finite differences.

    f maps a float64 parameter array to a (value, gradient) pair where
    gradient has the same shape as the parameters. Returns the maximum
    over coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    params = np.array(params, dtype=np.float64)
    value, grad = f(params)
    if not np.isfinite(value):
        raise NumericError("function value is non-finite at the base point")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ShapeError("gradient shape does not match parameter shape")

    worst = 0.0
    probe = params.copy()
    for i in range(params.size):
        base = probe.flat[i]
        probe.flat[i] = base + eps
        hi = f(probe)[0]
        probe.flat[i] = base - eps
        lo = f(probe)[0]
        probe.flat[i] = base
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite function value at coordinate {i}")
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(grad.flat[i] - numeric) / max(1.0, abs(grad.flat[i]))
        worst = max(worst, err)
    return worst


def flatten_trainable(mapper, pooling):
    """All trainable parameters as one float64 vector (fixed order)."""
    return np.concatenate([arr.ravel() for _, arr in
                           mapper.arrays() + pooling.arrays()])


def write_trainable(flat, mapper, pooling):
    """Inverse of flatten_trainable: writes values into the parameter
    arrays in place."""
    offset = 0
    for _, arr in mapper.arrays() + pooling.arrays():
        arr.flat[:] = flat[offset:offset + arr.size]
        offset += arr.size
    if offset != flat.size:
        raise ShapeError(
            f"flat vector has {flat.size} entries, parameters need {offset}")


def flatten_grads(grads, mapper, pooling):
    """Gradient dict -> flat vector in flatten_trainable's order."""
    return np.concatenate([np.asarray(grads[name]).ravel() for name, _ in
                           mapper.arrays() + pooling.arrays()])


def params_hash(named_arrays):
    """SHA-256 over names, shapes, and float64 payloads."""
    digest = hashlib.sha256()
    for name, arr in named_arrays:
        arr = np.asarray(arr, dtype=np.float64)
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def window_average(tokens, lo, hi):
    """Inclusive mean of segments lo..hi (1-indexed).

    The divisor is the number of segments averaged (hi - lo + 1), which
    keeps the edge-clamped single-segment window well defined.
    """
    length = tokens.segments
    if not (1 <= lo <= hi <= length):
        raise ValidationError(
            f"window [{lo}, {hi}] out of range for {length} segments")
    return tokens.values[lo - 1:hi].mean(axis=0)


_AVG_KERNEL = np.array([
    [1 / 12, 1 / 6, 1 / 12],
    [1 / 6, 0.0, 1 / 6],
    [1 / 12, 1 / 6, 1 / 12],
])


def reference_flow(frame1, frame2, params):
    """One frame pair, two scipy.ndimage convolutions per sweep."""
    i1 = np.asarray(frame1, dtype=np.float64) * 255.0
    i2 = np.asarray(frame2, dtype=np.float64) * 255.0
    padded = np.pad((i1 + i2) / 2.0, 1, mode="reflect")
    ix = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    iy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    it = i2 - i1
    denom = params.alpha ** 2 + ix ** 2 + iy ** 2
    u = np.zeros_like(i1)
    v = np.zeros_like(i1)
    for _ in range(params.iterations):
        u_avg = convolve(u, _AVG_KERNEL, mode="reflect")
        v_avg = convolve(v, _AVG_KERNEL, mode="reflect")
        shared = (ix * u_avg + iy * v_avg + it) / denom
        u = u_avg - ix * shared
        v = v_avg - iy * shared
    return u, v


def reference_curve(video, params):
    """Every pair of video solved alone by reference_flow."""
    grays = [to_grayscale(f) for f in video.frames]
    curve = np.zeros(video.frame_count)
    for i in range(1, video.frame_count):
        u, v = reference_flow(grays[i - 1], grays[i], params)
        curve[i] = np.sqrt(u ** 2 + v ** 2).mean()
    return curve
