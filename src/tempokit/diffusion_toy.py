"""Desk-scale conditional latent diffusion trainer.

The generative backbone is deliberately tiny and frozen: a fixed random
orthonormal projection stands in for the latent autoencoder, and the
denoiser is a per-frame residual MLP whose condition summary comes from
single-head cross-attention (query from the noised latent, keys/values
from that frame's conditioning tokens). The denoiser always runs on a
batch of frames: a training step stacks its clips into (B, L, ...)
arrays and makes one forward and one backward through the adapter and
the denoiser (total_loss_and_grads, the only loss), with the gradients
of the clips summed in clip order; sampling denoises all frames of a
clip together. Only the audio mapper and the attentive pooling
parameters receive gradients; train never updates the frozen ones,
which the tests and perfbench's frozen digest check by hashing them.

Checkpoints are TTCKPT1 files (see tempokit.media_io): named float32
tensor records for every parameter plus two metadata records,
"schedule.betas" (the noise schedule) and "meta.dims", the integer
ModelDims fields named by META_DIMS followed by fps_num and fps_den,
each a positive u32, which save_checkpoint checks as load_checkpoint does.
Each component checks its own shapes when it is built, and
load_checkpoint checks that meta.dims agrees with the tensors and that
the model reads every record, so a checkpoint whose parts do not fit
together fails as it is loaded.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, ShapeError, ValidationError
from .media_io import (Video, encode_float32, pack_header, read_named_tensors,
                       write_named_tensors)
from .numerics import LinearLayer, Rng, gelu_grad, normal_cdf, softmax
from .tempo_tokens import (MapperParams, PoolingParams, build_condition,
                           condition_backward, condition_values, map_audio,
                           mapper_backward, mapper_forward, pool_backward,
                           pool_forward)

_KEY_MAPPER = 1
_KEY_POOLING = 2
_KEY_DENOISER = 3
_KEY_CODEC = 4
_KEY_TRAIN = 5
_KEY_GENERATE = 6
# Largest global L2 norm of the trainable gradients that a training step
# applies; a larger gradient is scaled down to it (Pascanu, Mikolov and
# Bengio 2013). Runs that train well stay far below it: at most 157 on
# the 16-clip golden run and 137 on the acceptance run, so their updates
# are untouched. Without it the README's rate diverges on 1 default
# corpus in 40 (seed 27), whose first gradient has a norm of 17,961.
MAX_GRAD_NORM = 1000.0


# ---------------------------------------------------------------------------
# Noise schedule
# ---------------------------------------------------------------------------

@dataclass
class NoiseSchedule:
    """Noise variance per step; alphas and alpha_bars follow from it."""

    betas: np.ndarray

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=np.float64)
        if self.betas.ndim != 1 or self.betas.size < 1:
            raise ValidationError("betas must be a nonempty 1-d array")
        if not np.all((self.betas > 0) & (self.betas < 1)):
            raise ValidationError("betas must lie strictly in (0, 1)")
        self.alphas = 1.0 - self.betas
        self.alpha_bars = np.cumprod(self.alphas)
        if not np.all(np.diff(self.alpha_bars) < 0):
            raise ValidationError("cumulative alphas must strictly decrease")

    @property
    def timesteps(self):
        return self.betas.size


def make_schedule(timesteps=100):
    return NoiseSchedule(np.linspace(1e-4, 0.02, timesteps))


def forward_noise(z0, t, eps, schedule):
    """Noise clean latents to step t: sqrt(abar_t) z0 + sqrt(1-abar_t) eps.

    t is 1-indexed in [1, timesteps]; eps must match z0's shape.
    """
    if not 1 <= t <= schedule.timesteps:
        raise ValidationError(
            f"t={t} outside [1, {schedule.timesteps}]")
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z0.shape != eps.shape:
        raise ShapeError("eps must have the same shape as z0")
    abar = schedule.alpha_bars[t - 1]
    return np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps


# ---------------------------------------------------------------------------
# Frozen latent codec
# ---------------------------------------------------------------------------

@dataclass
class LatentCodec:
    """Fixed orthonormal projection between pixel space and latents."""

    encoder: np.ndarray  # (latent_dim, width*height*3), orthonormal rows
    width: int
    height: int

    def __post_init__(self):
        self.encoder = np.asarray(self.encoder, dtype=np.float64)
        if (self.encoder.ndim != 2
                or self.encoder.shape[1] != self.width * self.height * 3):
            raise ShapeError("encoder must have width*height*3 columns")

    @property
    def latent_dim(self):
        return self.encoder.shape[0]

    def arrays(self):
        return [("codec.encoder", self.encoder)]

    def encode(self, frames):
        """uint8 frames (L, H, W, 3) -> latents (L, latent_dim)."""
        _, height, width, _ = np.shape(frames)
        if (height, width) != (self.height, self.width):
            raise ShapeError(f"frames are {width}x{height}, the codec "
                             f"takes {self.width}x{self.height}")
        flat = np.array(frames, dtype=np.float64)
        flat /= 127.5
        flat -= 1.0
        return flat.reshape(flat.shape[0], -1) @ self.encoder.T

    def decode(self, latents):
        """latents (L, latent_dim) -> uint8 frames (L, H, W, 3)."""
        flat = np.asarray(latents, dtype=np.float64) @ self.encoder
        pixels = np.clip(np.rint((flat + 1.0) * 127.5), 0, 255)
        return pixels.astype(np.uint8).reshape(
            latents.shape[0], self.height, self.width, 3)


def create_codec(width, height, latent_dim, rng):
    pixels = width * height * 3
    if latent_dim > pixels:
        raise ValidationError("latent_dim cannot exceed the pixel count")
    gaussian = rng.normal((pixels, latent_dim))
    q, _ = np.linalg.qr(gaussian)
    return LatentCodec(q.T, width, height)


# ---------------------------------------------------------------------------
# Frozen denoiser
# ---------------------------------------------------------------------------

def time_embedding(t, dim):
    """Sinusoidal embedding of an integer timestep (dim,), or of each of
    an array of timesteps (..., dim)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.multiply.outer(t, freqs)
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@dataclass
class DenoiserParams:
    """Per-frame conditional denoiser; all weights frozen after init.

    The array fields, in declaration order, are the parameter name list:
    arrays() and load_checkpoint both follow it.

    Structure: cross-attention summary (query from the noised latent,
    keys/values from the frame's condition tokens) concatenated with the
    latent and a sinusoidal time embedding, then a residual two-layer
    MLP head predicting the noise.
    """

    query_proj: np.ndarray   # (attn_dim, latent_dim)
    query_bias: np.ndarray
    key_proj: np.ndarray     # (attn_dim, token_dim)
    key_bias: np.ndarray
    value_proj: np.ndarray   # (value_dim, token_dim)
    value_bias: np.ndarray
    mlp1: np.ndarray         # (hidden, latent+time+value dims)
    mlp1_bias: np.ndarray
    mlp2: np.ndarray         # (hidden, hidden)
    mlp2_bias: np.ndarray
    out: np.ndarray          # (latent_dim, hidden)
    out_bias: np.ndarray
    summary_skip: np.ndarray  # (latent_dim, value_dim) residual path
    time_dim: int

    def __post_init__(self):
        if self.time_dim < 2 or self.time_dim % 2:
            raise ValidationError(
                f"time_dim {self.time_dim} must be even and positive")
        if {a.ndim for a in (self.query_proj, self.value_proj,
                             self.mlp1)} != {2}:
            raise ShapeError("denoiser query_proj, value_proj and mlp1 "
                             "must be 2-d")
        attn, latent = self.query_proj.shape
        value, token = self.value_proj.shape
        hidden = self.mlp1.shape[0]
        want = {"query_bias": (attn,), "key_proj": (attn, token),
                "key_bias": (attn,), "value_bias": (value,),
                "mlp1": (hidden, latent + self.time_dim + value),
                "mlp1_bias": (hidden,), "mlp2": (hidden, hidden),
                "mlp2_bias": (hidden,), "out": (latent, hidden),
                "out_bias": (latent,), "summary_skip": (latent, value)}
        for name, shape in want.items():
            if getattr(self, name).shape != shape:
                raise ShapeError(
                    f"denoiser.{name} has shape {getattr(self, name).shape}, "
                    f"want {shape}")

    @property
    def latent_dim(self):
        return self.out.shape[0]

    @property
    def token_dim(self):
        return self.key_proj.shape[1]

    def arrays(self):
        return [(f"denoiser.{f.name}", getattr(self, f.name))
                for f in fields(self) if f.name != "time_dim"]

    def predict(self, z_t, t, cond_tokens):
        """Noise estimates (N, latent_dim) for a batch of frame latents
        z_t (N, latent_dim) at timestep t, frame n attending to its own
        condition tokens cond_tokens[n] (N, tokens, token_dim)."""
        pred, _ = _denoiser_forward(self, z_t, t, cond_tokens)
        return pred


def create_denoiser(latent_dim, token_dim, rng, attn_dim, value_dim, hidden,
                    time_dim, out_bias_scale):
    """Random frozen denoiser.

    out_bias_scale gives the frozen head a systematic output bias of
    exact norm out_bias_scale*sqrt(latent_dim); an adapter can only
    counteract it through the conditioning interface (mainly the linear
    summary_skip path), which gives small training runs a clear, honest
    objective against this backbone.
    """
    def mat(rows, cols):
        return rng.normal((rows, cols), 1.0 / np.sqrt(cols))

    if out_bias_scale:
        direction = rng.normal(latent_dim)
        direction /= np.linalg.norm(direction)
        out_bias = out_bias_scale * np.sqrt(latent_dim) * direction
    else:
        out_bias = np.zeros(latent_dim)

    mlp_in = latent_dim + time_dim + value_dim
    return DenoiserParams(
        query_proj=mat(attn_dim, latent_dim),
        query_bias=rng.normal(attn_dim, 0.1),
        key_proj=mat(attn_dim, token_dim),
        key_bias=rng.normal(attn_dim, 0.1),
        value_proj=mat(value_dim, token_dim),
        value_bias=rng.normal(value_dim, 0.1),
        mlp1=mat(hidden, mlp_in),
        mlp1_bias=rng.normal(hidden, 0.1),
        mlp2=mat(hidden, hidden),
        mlp2_bias=rng.normal(hidden, 0.1),
        out=mat(latent_dim, hidden),
        out_bias=out_bias,
        summary_skip=mat(latent_dim, value_dim),
        time_dim=time_dim,
    )


def _denoiser_forward(den, z_t, t, cond_tokens):
    """Batched forward over N frames: z_t (N, latent), cond (N, T, D) at
    timestep t; or over B clips of N frames, z_t (B, N, latent) and cond
    (B, N, T, D), with one timestep per clip in t (B,)."""
    z_t = np.asarray(z_t, dtype=np.float64)
    cond = np.asarray(cond_tokens, dtype=np.float64)
    temb = np.broadcast_to(time_embedding(t, den.time_dim)[..., None, :],
                           z_t.shape[:-1] + (den.time_dim,))
    query = z_t @ den.query_proj.T + den.query_bias
    keys = cond @ den.key_proj.T + den.key_bias
    values = cond @ den.value_proj.T + den.value_bias
    scores = np.einsum("...ta,...a->...t", keys, query) / np.sqrt(
        query.shape[-1])
    weights = softmax(scores)
    summary = np.einsum("...t,...tv->...v", weights, values)

    mlp_in = np.concatenate([z_t, temb, summary], axis=-1)
    pre1 = mlp_in @ den.mlp1.T + den.mlp1_bias
    cdf1 = normal_cdf(pre1)  # kept for the backward's gelu_grad
    h1 = pre1 * cdf1  # gelu(pre1)
    pre2 = h1 @ den.mlp2.T + den.mlp2_bias
    cdf2 = normal_cdf(pre2)
    h2 = h1 + pre2 * cdf2  # h1 + gelu(pre2)
    pred = h2 @ den.out.T + summary @ den.summary_skip.T + den.out_bias
    cache = (query, values, weights, pre1, pre2, cdf1, cdf2)
    return pred, cache


def _denoiser_backward_to_cond(den, d_pred, cache):
    """Gradient of the batched prediction w.r.t. the condition tokens
    only (the denoiser itself is frozen): (..., N, latent) ->
    (..., N, T, D)."""
    query, values, weights, pre1, pre2, cdf1, cdf2 = cache
    d_h2 = d_pred @ den.out
    d_h1 = d_h2 + (gelu_grad(pre2, cdf2) * d_h2) @ den.mlp2
    d_in = (gelu_grad(pre1, cdf1) * d_h1) @ den.mlp1
    d_summary = d_in[..., -values.shape[-1]:] + d_pred @ den.summary_skip

    d_weights = np.einsum("...tv,...v->...t", values, d_summary)
    d_values = weights[..., None] * d_summary[..., None, :]
    d_scores = weights * (d_weights - (weights * d_weights).sum(
        axis=-1, keepdims=True))
    d_keys = d_scores[..., None] * query[..., None, :] / np.sqrt(
        query.shape[-1])
    return d_values @ den.value_proj + d_keys @ den.key_proj


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def sample_step_noise(latents, schedule, rng):
    """Draw one (t, eps) pair for a clip: uniform timestep, unit-normal
    per-frame noise."""
    t = int(rng.integers(1, schedule.timesteps + 1))
    eps = rng.normal(latents.shape)
    return t, eps


def _sum_clips(per_clip):
    """Sum over the leading clip axis, adding clip after clip in batch
    order: the additions of a running per-clip total."""
    total = per_clip[0].copy()
    for clip in per_clip[1:]:
        total += clip
    return total


def total_loss_and_grads(batch, noises, mapper, pooling, denoiser, schedule,
                         lambda_l1):
    """Training loss plus analytic gradients for mapper and pooling.

    Batch items are (latents (L, latent_dim), embeddings (L, H_layers,
    d)), all of one length L; noises supplies the (t, eps) pair per item
    (sample_step_noise), so the same function serves the SGD loop,
    finite-difference checks and tests. Frame i attends to its own
    condition row. The loss per item is the squared noise-prediction
    error averaged over frames (a denoiser that predicts zero scores
    about latent_dim on unit-normal noise) plus the mean token L1
    penalty; items are averaged.

    The items are stacked into (B, L, ...) arrays and go through one
    forward and one backward. Each product runs once per clip, so every
    clip's loss and gradients are those of a one-clip batch; they are
    summed in clip order and divided by B, which makes the result
    independent of how many clips share the pass, bit for bit.
    """
    for latents, embeddings in batch:
        if len(embeddings) != len(latents):
            raise ShapeError(
                f"{len(embeddings)} condition frames for {len(latents)} "
                f"video frames")
    lengths = {len(latents) for latents, _ in batch}
    if len(lengths) != 1:
        raise ShapeError(
            f"batch items differ in length: {sorted(lengths)} frames")
    n_items, length = len(batch), lengths.pop()

    timesteps = np.array([t for t, _ in noises])
    eps = np.stack([noise for _, noise in noises])
    emb = np.stack([embeddings for _, embeddings in batch])
    tokens_flat, mapper_cache = mapper_forward(
        emb.reshape(emb.shape[:-2] + (-1,)), mapper)
    pooled, _, pool_cache = pool_forward(tokens_flat, pooling)
    cond = condition_values(tokens_flat, pooled)
    z_t = np.stack([forward_noise(latents, t, noise, schedule)
                    for (latents, _), (t, noise) in zip(batch, noises)])
    pred, cache = _denoiser_forward(denoiser, z_t, timesteps, cond)
    resid = pred - eps
    losses = ((resid * resid).reshape(n_items, -1).sum(axis=1) / length
              + lambda_l1 / length
              * np.abs(tokens_flat).reshape(n_items, -1).sum(axis=1))

    d_cond = _denoiser_backward_to_cond(denoiser, 2.0 * resid / length,
                                        cache)
    d_tokens, d_pooled = condition_backward(d_cond, length)
    d_tokens_pool, pool_grads = pool_backward(d_pooled, pool_cache, pooling)
    d_tokens += d_tokens_pool
    d_tokens += lambda_l1 / length * np.sign(tokens_flat)
    _, mapper_grads = mapper_backward(d_tokens, mapper_cache, mapper)

    per_clip = {**mapper_grads, **pool_grads}
    grads = {name: _sum_clips(per_clip[name]) / n_items
             for name, _ in mapper.arrays() + pooling.arrays()}
    return _sum_clips(losses) / n_items, grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    batch_videos: int = 8
    frames_per_video: int = 24
    steps: int = 200
    learning_rate: float = 2e-3
    lambda_l1: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.batch_videos, self.frames_per_video) < 1:
            raise ValidationError("batch and frame counts must be >= 1")
        if self.steps < 0:
            raise ValidationError("steps must be >= 0")
        if not (0 < self.learning_rate < np.inf
                and 0 <= self.lambda_l1 < np.inf):  # NaN fails too
            raise ValidationError("bad learning_rate or lambda_l1")


@dataclass
class TrainItem:
    """One clip prepared for training: full-length latents and matching
    per-frame embeddings."""

    latents: np.ndarray     # (total_frames, latent_dim)
    embeddings: np.ndarray  # (total_frames, H_layers, d)


def prepare_item(pair, codec, embed_layers, embed_dim):
    """Encode an AVPair's frames and compute toy embeddings, one segment
    per video frame."""
    from .audio_analysis import toy_audio_features

    latents = codec.encode(pair.video.frames)
    emb = toy_audio_features(pair.audio, pair.video.frame_count,
                             embed_layers, embed_dim)
    return TrainItem(latents, emb.values)


def train(items, config, mapper, pooling, denoiser, schedule):
    """Plain SGD on mapper+pooling only, with the global gradient norm
    clipped to MAX_GRAD_NORM; returns the per-step loss list.

    Deterministic given config.seed. Raises NumericError (with the step
    index) if the loss or the gradient leaves the finite range.
    """
    if not items:
        raise ValidationError("empty training set")
    rng = Rng(config.seed).derive(_KEY_TRAIN)
    trainable = mapper.arrays() + pooling.arrays()
    history = []

    for step in range(config.steps):
        picks = rng.integers(0, len(items), config.batch_videos)
        batch = []
        for j in picks:
            item = items[int(j)]
            total_frames = item.latents.shape[0]
            if total_frames < config.frames_per_video:
                raise ValidationError(
                    f"clip has {total_frames} frames, need "
                    f"{config.frames_per_video}")
            start = int(rng.integers(0,
                                     total_frames - config.frames_per_video + 1))
            stop = start + config.frames_per_video
            batch.append((item.latents[start:stop],
                          item.embeddings[start:stop]))
        noises = [sample_step_noise(latents, schedule, rng)
                  for latents, _ in batch]
        # a divergence ends in NumericError, not in numpy warnings
        with np.errstate(all="ignore"):
            loss, grads = total_loss_and_grads(
                batch, noises, mapper, pooling, denoiser, schedule,
                config.lambda_l1)
            norm = np.sqrt(sum(np.vdot(grads[name], grads[name])
                               for name, _ in trainable))
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at step {step}")
            if not np.isfinite(norm):
                raise NumericError(f"non-finite gradient at step {step}")
            rate = config.learning_rate
            if norm > MAX_GRAD_NORM:
                rate *= MAX_GRAD_NORM / norm
            for name, arr in trainable:
                arr -= rate * grads[name]
        history.append(float(loss))
    return history


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def generate(embeddings, mapper, pooling, denoiser, codec, schedule, rng,
             fps=(24, 1)):
    """Ancestral sampling of one video conditioned on audio embeddings.

    All frames are denoised together as one batch along the full
    schedule, each attending to its own conditioning row, then decoded
    to pixels. The initial latent and the per-step ancestral noise are
    drawn once and shared by every frame: with a per-frame denoiser this
    is what keeps the clip temporally coherent (identical conditions
    then yield identical frames), so any frame-to-frame change traces
    back to the conditioning. Deterministic given the rng.
    """
    cond = build_condition(map_audio(embeddings, mapper), pooling).values
    length = embeddings.segments
    timesteps = schedule.timesteps

    z_init = rng.normal(codec.latent_dim)
    step_noise = rng.normal((timesteps, codec.latent_dim))

    z = np.tile(z_init, (length, 1))
    for t in range(timesteps, 0, -1):
        pred = denoiser.predict(z, t, cond)
        beta = schedule.betas[t - 1]
        abar = schedule.alpha_bars[t - 1]
        z = (z - beta / np.sqrt(1.0 - abar) * pred) \
            / np.sqrt(schedule.alphas[t - 1])
        if t > 1:
            abar_prev = schedule.alpha_bars[t - 2]
            sigma = np.sqrt((1.0 - abar_prev) / (1.0 - abar) * beta)
            z += sigma * step_noise[t - 1]
    return Video(codec.decode(z), fps[0], fps[1])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class ModelDims:
    """Network sizes shared by training, checkpoints, and the CLI.

    mapper_out_gain and denoiser_out_bias only shape initialization and
    are not stored, so a loaded checkpoint keeps them at their defaults.
    """

    embed_layers: int = 2
    embed_dim: int = 12
    token_dim: int = 8           # per-layer token channels (d_t)
    mapper_hidden: tuple = (512, 512, 512)
    mapper_out_gain: float = 1.0
    pool_hidden: int = 16
    pool_cross: int = 16
    latent_dim: int = 16
    attn_dim: int = 16
    value_dim: int = 16
    denoiser_hidden: int = 32
    denoiser_out_bias: float = 0.0
    time_dim: int = 8
    timesteps: int = 100
    width: int = 64
    height: int = 64
    fps: tuple = (24, 1)
    frames_per_video: int = 24

    @property
    def segment_dim(self):
        return self.embed_layers * self.embed_dim

    @property
    def token_flat_dim(self):
        return self.embed_layers * self.token_dim


# the ModelDims fields of "meta.dims", in order, before fps_num, fps_den
META_DIMS = ("embed_layers", "embed_dim", "token_dim", "time_dim",
             "frames_per_video", "width", "height")


def desk_train_dims():
    """The training profile the CLI and shipped experiments use: narrow
    mapper, 4-d latents, and a biased frozen head for the adapter to
    counteract. Plain SGD behaves well here, which the default 512-wide
    profile cannot promise."""
    return ModelDims(mapper_hidden=(64, 64, 64), mapper_out_gain=1.5,
                     latent_dim=4, attn_dim=8, value_dim=8,
                     denoiser_hidden=16, denoiser_out_bias=2.25)


@dataclass
class Components:
    mapper: MapperParams
    pooling: PoolingParams
    denoiser: DenoiserParams
    codec: LatentCodec
    schedule: NoiseSchedule
    dims: ModelDims


def build_components(dims, seed):
    """Deterministically initialize every model component from one seed."""
    from .tempo_tokens import create_mapper, create_pooling

    root = Rng(seed)
    mapper = create_mapper(dims.segment_dim, dims.token_flat_dim,
                           dims.mapper_hidden, root.derive(_KEY_MAPPER),
                           out_gain=dims.mapper_out_gain)
    pooling = create_pooling(dims.token_flat_dim, dims.pool_hidden,
                             dims.pool_cross, root.derive(_KEY_POOLING))
    denoiser = create_denoiser(dims.latent_dim, dims.token_flat_dim,
                               root.derive(_KEY_DENOISER), dims.attn_dim,
                               dims.value_dim, dims.denoiser_hidden,
                               dims.time_dim, dims.denoiser_out_bias)
    codec = create_codec(dims.width, dims.height, dims.latent_dim,
                         root.derive(_KEY_CODEC))
    schedule = make_schedule(dims.timesteps)
    return Components(mapper, pooling, denoiser, codec, schedule, dims)


def _checkpoint_records(c):
    """The records of components c, by name, in file order."""
    records = dict(c.mapper.arrays() + c.pooling.arrays()
                   + c.denoiser.arrays() + c.codec.arrays())
    records["schedule.betas"] = c.schedule.betas
    records["meta.dims"] = np.array(
        [*(getattr(c.dims, name) for name in META_DIMS), *c.dims.fps],
        dtype=np.float64)
    return records


def _meta_dims(meta):
    """The ModelDims fields and fps of a meta.dims record as stored in
    float32: each a positive u32, as the RVID header generate writes."""
    meta, n = encode_float32(meta, "checkpoint meta.dims"), len(META_DIMS) + 2
    if meta.shape != (n,) or not np.all((meta >= 1) & (meta % 1 == 0)):
        raise ValidationError(
            f"checkpoint meta.dims must be {n} positive whole numbers")
    values = [int(v) for v in meta]
    pack_header("checkpoint meta.dims entries", f"<{n}I", *values)
    return dict(zip(META_DIMS, values), fps=tuple(values[-2:]))


def save_checkpoint(components, path):
    records = _checkpoint_records(components)
    _meta_dims(records["meta.dims"])  # as load_checkpoint checks it
    write_named_tensors(records, path)


def _params_from_records(cls, prefix, records, **scalars):
    """Build a parameter dataclass from its "<prefix>.<field>" records;
    fields passed in scalars are not arrays and are taken as given."""
    arrays = {f.name: records[f"{prefix}.{f.name}"] for f in fields(cls)
              if f.name not in scalars}
    return cls(**arrays, **scalars)


def load_checkpoint(path):
    records = read_named_tensors(path)
    try:
        meta_dims = _meta_dims(records["meta.dims"])
        betas = records["schedule.betas"]

        layers = [LinearLayer(records[f"mapper.{i}.weight"],
                              records[f"mapper.{i}.bias"]) for i in range(4)]
        mapper = MapperParams(layers)
        pooling = _params_from_records(PoolingParams, "pooling", records)
        denoiser = _params_from_records(DenoiserParams, "denoiser", records,
                                        time_dim=meta_dims["time_dim"])
        codec = LatentCodec(records["codec.encoder"], meta_dims["width"],
                            meta_dims["height"])
    except KeyError as exc:
        raise ValidationError(f"checkpoint missing record {exc}") from exc

    schedule = NoiseSchedule(betas)
    dims = ModelDims(
        **meta_dims,
        mapper_hidden=tuple(l.out_dim for l in layers[:3]),
        pool_hidden=pooling.local_score.size,
        pool_cross=pooling.cross_left.shape[0],
        latent_dim=codec.latent_dim,
        attn_dim=denoiser.query_proj.shape[0],
        value_dim=denoiser.value_proj.shape[0],
        denoiser_hidden=denoiser.mlp1.shape[0],
        timesteps=schedule.timesteps,
    )
    if dims.segment_dim != mapper.in_dim:
        raise ShapeError(f"meta.dims gives segment size {dims.segment_dim}, "
                         f"the mapper takes {mapper.in_dim}")
    for what, size in (("mapper output", mapper.out_dim),
                       ("pooling", pooling.token_dim),
                       ("denoiser", denoiser.token_dim)):
        if size != dims.token_flat_dim:
            raise ShapeError(f"meta.dims gives token size "
                             f"{dims.token_flat_dim}, the {what} has {size}")
    if codec.latent_dim != denoiser.latent_dim:
        raise ShapeError(f"codec latent dim {codec.latent_dim} != denoiser "
                         f"latent dim {denoiser.latent_dim}")
    components = Components(mapper, pooling, denoiser, codec, schedule, dims)
    unread = sorted(records.keys() - _checkpoint_records(components).keys())
    if unread:
        raise ValidationError("checkpoint has records the model does not "
                              f"read: {', '.join(map(repr, unread))}")
    return components
