"""Small dense-math kernel shared by the learning modules.

Everything here operates on plain float64 numpy arrays; there is no
layer type (the mapper, pooling and denoiser keep plain weight arrays on
their parameter dataclasses). Training stays in 64-bit precision
throughout; 32-bit only appears at the file-format boundary (see
tempokit.media_io).

scipy.special, which supplies the normal CDF, is imported by
normal_cdf on first use, not with this module: it is most of tempokit's
import time and about 25 MB of memory, and only the commands that run
the adapter or the denoiser (train-toy, generate, tokens) need it.
"""

import numpy as np

from .errors import ShapeError, ValidationError

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


def normal_cdf(x):
    """Phi(x), the standard normal CDF, elementwise (scipy's ndtr)."""
    from scipy.special import ndtr

    return ndtr(np.asarray(x, dtype=np.float64))


def gelu_grad(x, cdf):
    """d/dx of GELU(x) = x * Phi(x): Phi(x) + x * phi(x), where cdf is
    normal_cdf(x) as the forward computed it."""
    x = np.asarray(x, dtype=np.float64)
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
