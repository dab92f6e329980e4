"""Small dense-math kernel shared by the learning modules.

Everything here operates on plain float64 numpy arrays. Training and
gradient checking stay in 64-bit precision throughout; 32-bit only
appears at the file-format boundary (see tempokit.media_io).

scipy.special, which supplies the normal CDF, is imported by
normal_cdf on first use, not with this module: it is most of tempokit's
import time and about 25 MB of memory, and only the commands that run
the adapter or the denoiser (train-toy, generate, tokens) evaluate a
GELU.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def require_finite(values, what="tensor"):
    """Return values as a float64 array, rejecting NaN/Inf."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite values")
    return arr


class Rng:
    """Deterministic random stream (numpy PCG64 behind SeedSequence).

    The generator algorithm is fixed and documented: PCG64 seeded via
    numpy's SeedSequence with the (seed, *key) entropy tuple. Identical
    seeds produce identical streams on every platform. derive() creates
    an independent child stream, used to give each component (mapper
    init, batch sampling, per-clip synthesis, ...) its own substream.
    """

    def __init__(self, seed, key=()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def derive(self, *key):
        return Rng(self.seed, self.key + key)

    def normal(self, size=None, scale=1.0):
        return self._gen.normal(0.0, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size)


@dataclass
class LinearLayer:
    """Dense affine map y = W x + b applied along the last axis."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray    # (out_dim,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weight must be 2-d and bias 1-d")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} does not match "
                f"weight rows {self.weight.shape[0]}"
            )

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]


def linear_init(rng, out_dim, in_dim, scale=None):
    """He-style initialization; bias starts at zero."""
    if scale is None:
        scale = np.sqrt(2.0 / in_dim)
    return LinearLayer(rng.normal((out_dim, in_dim), scale), np.zeros(out_dim))


def linear_forward(x, layer):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"input last dim {x.shape[-1]} != layer in_dim {layer.in_dim}"
        )
    return x @ layer.weight.T + layer.bias


def normal_cdf(x):
    """Phi(x), the standard normal CDF, elementwise (scipy's ndtr)."""
    from scipy.special import ndtr

    return ndtr(np.asarray(x, dtype=np.float64))


def gelu(x):
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF.

    Uses the erf-based CDF, not the tanh approximation, so tests can pin
    values against a high-precision oracle. A forward pass that needs
    the gradient later computes cdf = normal_cdf(x) and x * cdf itself,
    and hands the cdf to gelu_grad.
    """
    x = np.asarray(x, dtype=np.float64)
    return x * normal_cdf(x)


def gelu_grad(x, cdf=None):
    """d/dx of gelu: Phi(x) + x * phi(x). cdf, when given, is
    normal_cdf(x) as the forward computed it, and is not recomputed."""
    x = np.asarray(x, dtype=np.float64)
    if cdf is None:
        cdf = normal_cdf(x)
    pdf = np.exp(-0.5 * x * x) / _SQRT_2PI
    return cdf + x * pdf


def softmax(v):
    """Stable softmax (max-subtracted) along the last axis: of a vector,
    or of each row of a stack of vectors."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim < 1:
        raise ShapeError("softmax expects a vector, got a scalar")
    if v.shape[-1] == 0:
        raise ValidationError("softmax of an empty vector is undefined")
    shifted = np.exp(v - v.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


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
