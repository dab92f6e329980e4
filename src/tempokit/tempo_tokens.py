"""Audio-to-token conditioning: the trainable adapter.

A shared 4-layer MLP maps each temporal segment of encoder activations
to a pseudo text token. Per-frame conditioning stacks exponentially
growing context windows (averaged token spans of half-width 1, 2, 4, ...)
plus one global attentive token pooled over all segments with learned
local and cross potentials.

Each trainable op has one forward that also returns what its
hand-written backward needs (mapper_forward, pool_forward). Without
gradients the adapter is build_condition(map_audio(embeddings, mapper),
pooling), which the tokens and generate commands run; training runs the
same ops and keeps their caches (diffusion_toy.total_loss_and_grads).
Tokens are media_io.AudioEmbeddings: they have the (L, H_layers, d)
layout of the activations. The context windows are one linear
operator, the cached averaging matrix window_matrix(L): window_stack
applies it and condition_backward applies its transpose. All analytic
gradients here are validated against central finite differences in the
test suite.

The forward and backward ops take one clip, (L, ...), or a stack of
clips of one length, (B, L, ...). A stack is B independent problems:
every product runs once per clip on the same operands, so clip b of a
stack gives the bytes of the one-clip call, and the backward ops return
one weight gradient per clip along the leading axis.
"""

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ShapeError, ValidationError
from .media_io import AudioEmbeddings, ConditionFile
from .numerics import (gelu_grad, linear_forward, linear_init, normal_cdf,
                       softmax)

COSINE_NORM_FLOOR = 1e-12


def _t(x):
    """Transpose the last two axes (the matrix transpose of each clip)."""
    return np.swapaxes(x, -1, -2)


@dataclass
class MapperParams:
    """Four stacked affine layers with GELU between them (shared across
    segments)."""

    layers: list

    def __post_init__(self):
        if len(self.layers) != 4:
            raise ValidationError("the mapper uses exactly 4 linear layers")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.out_dim != cur.in_dim:
                raise ShapeError("consecutive layer dimensions do not chain")

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def arrays(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.append((f"mapper.{i}.weight", layer.weight))
            out.append((f"mapper.{i}.bias", layer.bias))
        return out


def create_mapper(in_dim, out_dim, hidden, rng, out_gain=1.0):
    """He-initialized 4-layer mapper. out_gain scales the final layer's
    init so fresh tokens start with proportionally more energy."""
    dims = [in_dim, *hidden, out_dim]
    layers = [linear_init(rng, dims[i + 1], dims[i]) for i in range(3)]
    layers.append(linear_init(rng, dims[4], dims[3],
                              out_gain * np.sqrt(2.0 / dims[3])))
    return MapperParams(layers)


@dataclass
class PoolingParams:
    """Trainable attentive-pooling parameters; the fields, in
    declaration order, are the parameter name list (arrays()).

    local_proj/local_score produce the per-token local potential
    score . relu(proj @ token); cross_left/cross_right embed tokens for
    the pairwise cosine cross potential; alpha_local/alpha_cross
    calibrate the two potentials before the softmax.
    """

    local_proj: np.ndarray    # (hidden, token_dim)
    local_score: np.ndarray   # (hidden,)
    cross_left: np.ndarray    # (cross_dim, token_dim)
    cross_right: np.ndarray   # (cross_dim, token_dim)
    alpha_local: np.ndarray = field(default_factory=lambda: np.array(1.0))
    alpha_cross: np.ndarray = field(default_factory=lambda: np.array(1.0))

    def __post_init__(self):
        self.local_proj = np.asarray(self.local_proj, dtype=np.float64)
        self.local_score = np.asarray(self.local_score, dtype=np.float64)
        self.cross_left = np.asarray(self.cross_left, dtype=np.float64)
        self.cross_right = np.asarray(self.cross_right, dtype=np.float64)
        self.alpha_local = np.asarray(self.alpha_local, dtype=np.float64)
        self.alpha_cross = np.asarray(self.alpha_cross, dtype=np.float64)
        if (self.local_proj.ndim, self.local_score.ndim, self.cross_left.ndim,
                self.alpha_local.ndim, self.alpha_cross.ndim) != (2, 1, 2, 0, 0):
            raise ShapeError("pooling needs 2-d projections, a 1-d "
                             "local_score and 0-d alphas")
        if self.local_proj.shape[0] != self.local_score.shape[0]:
            raise ShapeError("local_score length must match local_proj rows")
        if self.cross_left.shape != self.cross_right.shape:
            raise ShapeError("cross projections must have the same shape")
        if self.cross_left.shape[1] != self.local_proj.shape[1]:
            raise ShapeError("cross and local projections disagree on "
                             "token dimension")

    @property
    def token_dim(self):
        return self.local_proj.shape[1]

    def arrays(self):
        return [(f"pooling.{f.name}", getattr(self, f.name))
                for f in fields(self)]


def create_pooling(token_dim, hidden, cross_dim, rng):
    # The cross potential sums one cosine per segment, so its raw scale
    # grows with the segment count; a small initial calibration weight
    # keeps the softmax scores in their responsive range.
    scale = 1.0 / np.sqrt(token_dim)
    return PoolingParams(
        local_proj=rng.normal((hidden, token_dim), scale),
        local_score=rng.normal((hidden,), 1.0 / np.sqrt(hidden)),
        cross_left=rng.normal((cross_dim, token_dim), scale),
        cross_right=rng.normal((cross_dim, token_dim), scale),
        alpha_local=np.array(1.0),
        alpha_cross=np.array(0.1),
    )


# ---------------------------------------------------------------------------
# Mapper
# ---------------------------------------------------------------------------

def mapper_forward(flat_in, params):
    """Run the segment MLP on (L, in_dim) or (B, L, in_dim); returns
    output and a cache for mapper_backward."""
    activations = [np.asarray(flat_in, dtype=np.float64)]
    pre_acts = []
    cdfs = []  # Phi(pre) of each GELU layer, reused by the backward
    x = activations[0]
    for i, layer in enumerate(params.layers):
        pre = linear_forward(x, layer)
        pre_acts.append(pre)
        if i < 3:
            cdfs.append(normal_cdf(pre))
            x = pre * cdfs[i]  # gelu(pre)
        else:
            x = pre
        activations.append(x)
    return x, (activations, pre_acts, cdfs)


def mapper_backward(d_out, cache, params):
    """Backprop through the segment MLP. Returns (d_input, grads); for a
    (B, L, ·) stack each gradient has a leading axis of B clips."""
    activations, pre_acts, cdfs = cache
    grads = {}
    delta = np.asarray(d_out, dtype=np.float64)
    for i in reversed(range(4)):
        if i < 3:
            delta = delta * gelu_grad(pre_acts[i], cdfs[i])
        grads[f"mapper.{i}.weight"] = _t(delta) @ activations[i]
        grads[f"mapper.{i}.bias"] = delta.sum(axis=-2)
        delta = delta @ params.layers[i].weight
    return delta, grads


def map_audio(emb, params):
    """AudioEmbeddings (L, H, d) -> tokens, AudioEmbeddings (L, H, d_t)."""
    length, layers, dim = emb.values.shape
    if layers * dim != params.in_dim:
        raise ShapeError(
            f"embeddings give segment dim {layers * dim}, mapper expects "
            f"{params.in_dim}")
    if params.out_dim % layers != 0:
        raise ShapeError(
            f"mapper out_dim {params.out_dim} not divisible by "
            f"{layers} layers")
    out, _ = mapper_forward(emb.values.reshape(length, layers * dim), params)
    return AudioEmbeddings(
        out.reshape(length, layers, params.out_dim // layers))


# ---------------------------------------------------------------------------
# Context windows
# ---------------------------------------------------------------------------

def resolutions(length):
    """Number of window resolutions for a sequence of `length` segments:
    floor(log2(L)) + 1, i.e. half-widths 1, 2, 4, ..., 2^floor(log2 L)."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    return int(length).bit_length()


def window_half_widths(length):
    return [1 << k for k in range(resolutions(length))]


def window_bounds(center, half_width, length):
    """Clamped 1-indexed inclusive segment range around `center`."""
    return max(1, center - half_width), min(center + half_width, length)


# ---------------------------------------------------------------------------
# Attentive pooling
# ---------------------------------------------------------------------------

def pool_forward(flat_tokens, params):
    """Attentive pooling over flattened tokens (L, D), or over each clip
    of a (B, L, D) stack.

    Returns (pooled (D,), p (L,), cache), with a leading B axis on
    pooled and p for a stack. The attention distribution is
    softmax(alpha_local * local + alpha_cross * cross) where local is a
    scored relu projection of each token and cross sums the cosine
    similarities between the token's left embedding and every token's
    right embedding (pairs with a near-zero norm contribute 0).
    """
    a = np.asarray(flat_tokens, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ShapeError("flat tokens must be (L, D) or (B, L, D)")
    if a.shape[-1] != params.token_dim:
        raise ShapeError(
            f"token dim {a.shape[-1]} != pooling dim {params.token_dim}")

    z = a @ params.local_proj.T
    r = np.maximum(z, 0.0)
    theta_local = r @ params.local_score

    x = a @ params.cross_left.T
    y = a @ params.cross_right.T
    x_norm = np.linalg.norm(x, axis=-1)
    y_norm = np.linalg.norm(y, axis=-1)
    x_ok = x_norm >= COSINE_NORM_FLOOR
    y_ok = y_norm >= COSINE_NORM_FLOOR
    x_unit = np.zeros_like(x)
    x_unit[x_ok] = x[x_ok] / x_norm[x_ok, None]
    y_unit = np.zeros_like(y)
    y_unit[y_ok] = y[y_ok] / y_norm[y_ok, None]
    theta_cross = (x_unit @ _t(y_unit)).sum(axis=-1)

    scores = (float(params.alpha_local) * theta_local
              + float(params.alpha_cross) * theta_cross)
    p = softmax(scores)
    pooled = (p[..., None, :] @ a)[..., 0, :]
    cache = (a, z, r, theta_local, x, y, x_norm, y_norm, x_ok, y_ok,
             x_unit, y_unit, theta_cross, p)
    return pooled, p, cache


def pool_backward(d_pooled, cache, params):
    """Backprop through pool_forward. Returns (d_flat_tokens, grads); for
    a stack each gradient has a leading axis of B clips.

    Each product below is the one-clip product (outer, vector-matrix,
    dot) written on a trailing unit axis, so a stack runs the same BLAS
    call per clip."""
    (a, z, r, theta_local, x, y, x_norm, y_norm, x_ok, y_ok,
     x_unit, y_unit, theta_cross, p) = cache
    d_pooled = np.asarray(d_pooled, dtype=np.float64)

    d_a = p[..., :, None] * d_pooled[..., None, :]
    d_p = (a @ d_pooled[..., :, None])[..., 0]
    d_scores = p * (d_p - (p[..., None, :] @ d_p[..., :, None])[..., 0])

    d_theta_local = float(params.alpha_local) * d_scores
    d_theta_cross = float(params.alpha_cross) * d_scores
    grads = {
        "pooling.alpha_local":
            (d_scores[..., None, :] @ theta_local[..., :, None])[..., 0, 0],
        "pooling.alpha_cross":
            (d_scores[..., None, :] @ theta_cross[..., :, None])[..., 0, 0],
    }

    # local potential
    d_r = d_theta_local[..., :, None] * params.local_score
    d_z = d_r * (z > 0)
    grads["pooling.local_score"] = (
        _t(r) @ d_theta_local[..., :, None])[..., 0]
    grads["pooling.local_proj"] = _t(d_z) @ a
    d_a += d_z @ params.local_proj

    # cross potential: theta_cross[u] = x_unit[u] . sum_i y_unit[i]
    sum_y_unit = y_unit.sum(axis=-2)
    d_x_unit = d_theta_cross[..., :, None] * sum_y_unit[..., None, :]
    d_y_unit = np.broadcast_to(
        (_t(x_unit) @ d_theta_cross[..., :, None])[..., None, :, 0], y.shape)

    d_x = np.zeros_like(x)
    rows = x_ok
    inner = (d_x_unit[rows] * x_unit[rows]).sum(axis=1, keepdims=True)
    d_x[rows] = (d_x_unit[rows] - inner * x_unit[rows]) / x_norm[rows, None]
    d_y = np.zeros_like(y)
    rows = y_ok
    inner = (d_y_unit[rows] * y_unit[rows]).sum(axis=1, keepdims=True)
    d_y[rows] = (d_y_unit[rows] - inner * y_unit[rows]) / y_norm[rows, None]

    grads["pooling.cross_left"] = _t(d_x) @ a
    grads["pooling.cross_right"] = _t(d_y) @ a
    d_a += d_x @ params.cross_left
    d_a += d_y @ params.cross_right
    return d_a, grads


# ---------------------------------------------------------------------------
# Conditioning sequences
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def window_matrix(length):
    """Read-only averaging operator M of shape (L, resolutions(L), L).

    M[i - 1, k] holds 1/(hi - lo + 1) on the segments lo..hi of frame
    i's k-th window (window_bounds) and 0 elsewhere, so the windows are
    M applied to the flat tokens and their backward is M's transpose.
    M is dense: 8 * L^2 * resolutions(L) bytes (23 KB at L = 24).
    """
    widths = window_half_widths(length)
    matrix = np.zeros((length, len(widths), length))
    for i in range(1, length + 1):
        for k, half in enumerate(widths):
            lo, hi = window_bounds(i, half, length)
            matrix[i - 1, k, lo - 1:hi] = 1.0 / (hi - lo + 1)
    matrix.flags.writeable = False
    return matrix


def window_stack(flat_tokens):
    """All per-frame context windows as one (L, resolutions(L), D) array,
    with a leading B axis for a (B, L, D) stack."""
    flat = np.asarray(flat_tokens, dtype=np.float64)
    return np.einsum("fkl,...ld->...fkd", window_matrix(flat.shape[-2]),
                     flat)


def condition_values(flat_tokens, pooled):
    """Per-frame condition rows (L, resolutions(L) + 1, D): the context
    windows followed by the shared attentive token (per clip for a
    stack: pooled is then (B, D))."""
    windows = window_stack(flat_tokens)
    attentive = np.broadcast_to(pooled[..., None, None, :],
                                windows.shape[:-2] + (1, windows.shape[-1]))
    return np.concatenate([windows, attentive], axis=-2)


def build_condition(tokens, params):
    """Per-frame context windows plus the shared attentive token.

    Frame i receives resolutions(L) averaged windows with half-widths
    1, 2, 4, ... (segment ranges clamped to [1, L]) followed by the
    attentive token, so tokens_per_frame == resolutions(L) + 1.
    """
    flat = tokens.flat
    pooled, _, _ = pool_forward(flat, params)
    return ConditionFile(condition_values(flat, pooled))


def condition_backward(d_values, length):
    """Scatter a gradient on condition values back onto the tokens.

    Returns (d_flat_tokens, d_pooled): the window part goes through the
    transpose of window_matrix(length); the attentive part is summed
    over frames and must still be pushed through pool_backward by the
    caller. A (B, L, T, D) stack gives both with a leading B axis.
    """
    d_flat = np.einsum("fkl,...fkd->...ld", window_matrix(length),
                       d_values[..., :-1, :])
    d_pooled = d_values[..., -1, :].sum(axis=-2)
    return d_flat, d_pooled


def single_vector_condition(tokens):
    """Baseline conditioning: one global mean token for every frame."""
    mean = tokens.flat.mean(axis=0)
    length = tokens.segments
    values = np.broadcast_to(mean, (length, 1, mean.size)).copy()
    return ConditionFile(values)

