"""Dense motion analysis: grayscale, optical flow, per-frame motion.

The flow solver is the classic variational one (quadratic brightness
constancy plus quadratic smoothness) iterated with the standard 8-point
neighbor average. Gradients are central differences and the temporal
term is a forward difference.

The two boundary rules differ, and this is kept on purpose because a fix
would change every flow output: the gradients pad with numpy
``reflect`` (the edge pixel is not repeated), while the neighbor average
pads with numpy ``symmetric`` (the edge pixel is repeated, as
``scipy.ndimage`` calls ``reflect``).

The data term is evaluated on 8-bit-scale intensities (grids in [0,1]
are multiplied by 255) so the default smoothness weight alpha=10 sits in
its classic operating range. The recovered displacements are in pixels
per frame either way.

The solve is float64 and sweeps a stack of frame pairs at once with a
hand-written stencil. It adds the eight neighbor terms in the same order
as ``scipy.ndimage.convolve`` does with the 3x3 averaging kernel, so its
results are bit-identical to that convolution. ``motion_curve`` feeds it
chunks of about PIXELS pixels, which keep the working arrays in cache.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .peaks import pick_peaks

_LUMA = np.array([0.299, 0.587, 0.114])
# Offsets and weights of the 8-point neighbor average in the raster
# order of its 3x3 kernel, which is the order scipy.ndimage adds them in.
_AVG_TAPS = [((dy, dx), 1 / 12 if dy and dx else 1 / 6)
             for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
# Pixels per chunk of moving frame pairs in motion_curve: 2 pairs at
# 64x64, 1 at 128x96. About 120 bytes per pixel of working arrays then
# stay within a 2 MB cache; larger chunks ran slower.
PIXELS = 8192


@dataclass
class FlowField:
    u: np.ndarray  # horizontal displacement, pixels/frame
    v: np.ndarray  # vertical displacement

    @property
    def magnitude(self):
        return np.sqrt(self.u ** 2 + self.v ** 2)


@dataclass
class FlowParams:
    alpha: float = 10.0     # smoothness weight (8-bit intensity scale)
    iterations: int = 100

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:  # NaN fails too
            raise ValidationError("alpha must be positive and finite")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")


def to_grayscale(frame):
    """Rec.601 luma of an RGB 8-bit frame, scaled into [0, 1]."""
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ShapeError("frame must be (H, W, 3)")
    return (frame.astype(np.float64) @ _LUMA) / 255.0


def _central_gradients(images):
    padded = np.pad(images, ((0, 0), (1, 1), (1, 1)), mode="reflect")
    gx = (padded[:, 1:-1, 2:] - padded[:, 1:-1, :-2]) / 2.0
    gy = (padded[:, 2:, 1:-1] - padded[:, :-2, 1:-1]) / 2.0
    return gx, gy


def _bordered(values, fill):
    """(..., N, H, W) values inside a one-cell border of fill, each
    (N, H+2, W+2) block flattened."""
    pad = [(0, 0)] * (values.ndim - 2) + [(1, 1), (1, 1)]
    out = np.pad(values, pad, constant_values=fill)
    return out.reshape(values.shape[:-3] + (-1,))


def _solve(f1, f2, params):
    """Jacobi sweeps for (N, H, W) stacks; returns u and v stacked as
    (2, N, H, W).

    u and v live in one zeroed buffer with a one-cell border around each
    grid. A sweep refills the border, then works on the buffer flattened,
    where a neighbor is a fixed offset away: every operation is one
    contiguous run from the first interior cell to the last. The run
    also covers border cells; the data terms there are neutral, and the
    next refill overwrites what the sweep wrote into them.
    """
    i1 = f1 * 255.0
    i2 = f2 * 255.0
    mean = (i1 + i2) / 2.0
    ix, iy = _central_gradients(mean)
    it = i2 - i1
    denom = params.alpha ** 2 + ix ** 2 + iy ** 2

    n, height, width = f1.shape
    row = width + 2
    buf = np.zeros((2, n, height + 2, row))
    flat = buf.reshape(2, -1)
    run = slice(row + 1, flat.shape[1] - row - 1)
    grads = _bordered(np.stack([ix, iy]), 0.0)[:, run]
    it = _bordered(it, 0.0)[run]
    denom = _bordered(denom, 1.0)[run]
    # buf times each weight; a tap is a shifted run of one of them
    scaled = {weight: np.empty_like(flat) for _, weight in _AVG_TAPS}
    taps = []
    for (dy, dx), weight in _AVG_TAPS:
        shift = dy * row + dx
        taps.append(scaled[weight][:, run.start + shift:run.stop + shift])
    avg = np.empty_like(grads)
    term = np.empty_like(grads)
    shared = np.empty_like(it)
    for _ in range(params.iterations):
        # rows, then whole columns, so the corners come out right
        buf[..., 0, :] = buf[..., 1, :]
        buf[..., -1, :] = buf[..., -2, :]
        buf[..., 0] = buf[..., 1]
        buf[..., -1] = buf[..., -2]
        for weight, out in scaled.items():
            np.multiply(flat, weight, out=out)
        np.add(taps[0], taps[1], out=avg)
        for tap in taps[2:]:
            avg += tap
        np.multiply(grads, avg, out=term)
        np.add(term[0], term[1], out=shared)
        shared += it
        shared /= denom
        np.multiply(grads, shared, out=term)
        np.subtract(avg, term, out=flat[:, run])
    return buf[..., 1:-1, 1:-1].copy()


def _check_grids(shape):
    if len(shape) not in (2, 3) or min(shape[-2:]) < 3:
        raise ShapeError("frames must be 2-d grids of at least 3x3, "
                         "or stacks of them")


def check_video(video):
    """Raise what motion_curve would raise on video's shape, without
    solving any flow."""
    if video.frame_count < 2:
        raise ValidationError("motion curve needs at least 2 frames")
    _check_grids(video.frames.shape[:3])


def optical_flow(frame1, frame2, params=None):
    """Dense flow from frame1 to frame2 (gray grids in [0, 1]).

    The frames may also be (N, H, W) stacks of grids, solved at once:
    pair k gets exactly the flow it gets alone. Keep stacks near PIXELS
    pixels; larger ones run out of cache and slow down.
    """
    if params is None:
        params = FlowParams()
    f1 = np.asarray(frame1, dtype=np.float64)
    f2 = np.asarray(frame2, dtype=np.float64)
    if f1.shape != f2.shape:
        raise ShapeError(f"frame shapes differ: {f1.shape} vs {f2.shape}")
    _check_grids(f1.shape)
    stack = (-1,) + f1.shape[-2:]
    u, v = _solve(f1.reshape(stack), f2.reshape(stack), params)
    return FlowField(u.reshape(f1.shape), v.reshape(f1.shape))


def moving_pairs(frames):
    """Indices k >= 1 of the frame pairs whose frames k-1 and k differ
    as bytes. Any other pair has a zero temporal derivative, and its
    flow, solved from zero, is exactly +0.0 everywhere."""
    return np.flatnonzero([frames[k - 1].tobytes() != frames[k].tobytes()
                           for k in range(1, len(frames))]) + 1


def motion_curve(video, params=None):
    """Mean flow magnitude per frame; index 0 has no predecessor and is 0.
    Only moving_pairs are solved, in chunks of about PIXELS pixels with
    grays made per chunk; a still pair keeps an exact 0.0."""
    check_video(video)
    height, width = video.frames.shape[1:3]
    chunk = max(1, PIXELS // (height * width))
    curve = np.zeros(video.frame_count)
    moving = moving_pairs(video.frames)
    grays = {}
    for start in range(0, len(moving), chunk):
        ks = moving[start:start + chunk]
        grays = {i: grays[i] if i in grays else to_grayscale(video.frames[i])
                 for i in {*(ks - 1), *ks}}
        flow = optical_flow(np.stack([grays[k - 1] for k in ks]),
                            np.stack([grays[k] for k in ks]), params)
        curve[ks] = [m.mean() for m in flow.magnitude]
    return curve


def detect_motion_peaks(curve, params=None):
    """Peak-pick a motion curve with the shared median/MAD picker."""
    return pick_peaks(curve, params)
