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

The data term runs only inside the box around the pixels with a nonzero
gradient or a non-finite temporal derivative, over the whole stack. On
flat background (zero gradient, finite temporal derivative) the update
subtracts a signed zero from the neighbor average, so there a sweep is
just that average, bit for bit. A pair's flow depends only on the bytes
of its two frames, and swapping them negates it exactly (a zero may
change sign), so its motion value is the same in either order, bit for
bit. ``motion_curve`` solves each distinct unordered pair once
(``pair_sources``): a pair whose two frames an earlier pair holds, in
either order, takes that pair's motion value, and a still pair keeps an
exact 0.0.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .peaks import pick_peaks

_LUMA = np.array([0.299, 0.587, 0.114])
# Offsets and weights of the 8-point neighbor average in the raster
# order of its 3x3 kernel, which is the order scipy.ndimage adds them in.
_AVG_TAPS = [((dy, dx), 1 / 12 if dy and dx else 1 / 6)
             for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
# Pixels per chunk of solved frame pairs in motion_curve: 2 pairs at
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


def _span(mask):
    """The slice from the first True of a 1-d mask to its last; empty
    when there is none."""
    hits = np.flatnonzero(mask)
    return slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)


def _solve(f1, f2, params):
    """Jacobi sweeps for (N, H, W) stacks; returns u and v stacked as
    (2, N, H, W).

    u and v live in one zeroed buffer with a one-cell border around each
    grid. A sweep refills the border, then works on the buffer flattened,
    where a neighbor is a fixed offset away: the neighbor average is one
    contiguous run from the first interior cell to the last, written
    straight into the buffer. The run also covers border cells; the next
    refill overwrites what the sweep wrote into them.

    The data term then runs only inside the box that bounds, over the
    whole stack, the live pixels: those with a nonzero gradient or a
    non-finite temporal derivative. Outside it ix and iy are signed
    zeros and it is finite, so the full update avg - ix * shared
    subtracts a signed zero from avg and gives avg back bit for bit: u
    and v start at +0, a sum of taps is -0 only if every tap is, and a
    non-finite value starts at a live pixel. A box that is the whole
    grid uses the contiguous run, border cells included, whose data
    terms are neutral.
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
    live = ((ix != 0) | (iy != 0) | ~np.isfinite(it)).any(axis=0)
    rows, cols = _span(live.any(axis=1)), _span(live.any(axis=0))
    if (rows.stop - rows.start, cols.stop - cols.start) == (height, width):
        box = flat[:, run]
        grads = _bordered(np.stack([ix, iy]), 0.0)[:, run]
        it = _bordered(it, 0.0)[run]
        denom = _bordered(denom, 1.0)[run]
    else:
        box = buf[..., 1:-1, 1:-1][..., rows, cols]
        grads = np.stack([ix, iy])[..., rows, cols].copy()
        it = it[..., rows, cols].copy()
        denom = denom[..., rows, cols].copy()
    # buf times each weight; a tap is a shifted run of one of them
    scaled = {weight: np.empty_like(flat) for _, weight in _AVG_TAPS}
    taps = []
    for (dy, dx), weight in _AVG_TAPS:
        shift = dy * row + dx
        taps.append(scaled[weight][:, run.start + shift:run.stop + shift])
    avg = flat[:, run]
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
        np.multiply(grads, box, out=term)
        np.add(term[0], term[1], out=shared)
        shared += it
        shared /= denom
        np.multiply(grads, shared, out=term)
        box -= term
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


def _frame_hash(frame):
    """The key pair_sources matches frames on: a CRC-32 of the bytes."""
    return zlib.crc32(np.ascontiguousarray(frame))


def frame_hashes(frames):
    """The CRC-32 of each frame's bytes, as pair_sources matches them."""
    return [_frame_hash(frame) for frame in frames]


def pair_sources(frames, hashes=None):
    """For each frame pair k (frames k-1 and k), the pair whose motion
    value it has: k if it is solved, the first j < k with the same two
    frames, byte for byte and in either order, and 0 for a still pair,
    whose flow, solved from zero, is exactly +0.0 everywhere, like index
    0's. An int array of len(frames).

    Frames are matched on their frame_hashes (hashes, if the caller has
    them), confirmed by comparing the bytes; a hash collision can only
    miss a repeat."""
    if hashes is None:
        hashes = frame_hashes(frames)
    # the first frame with each hash; each frame's first byte-equal one
    first, ids = {}, []
    for i, (frame, key) in enumerate(zip(frames, hashes)):
        j = first.setdefault(key, i)
        ids.append(j if j == i or frames[j].tobytes() == frame.tobytes()
                   else i)
    src, seen = np.zeros(len(frames), dtype=np.intp), {}
    for k in range(1, len(frames)):
        if ids[k - 1] != ids[k]:
            src[k] = seen.setdefault(frozenset(ids[k - 1:k + 1]), k)
    return src


def flow_chunks(sources, height, width):
    """The pairs motion_curve solves for sources, those k >= 1 with
    sources[k] == k, in its chunks: runs of at most max(1, PIXELS //
    (height * width)) pairs, in order."""
    solved = np.flatnonzero(sources == np.arange(len(sources)))[1:]
    chunk = max(1, PIXELS // (height * width))
    return [solved[start:start + chunk]
            for start in range(0, len(solved), chunk)]


def motion_curve(video, params=None, sources=None):
    """Mean flow magnitude per frame; index 0 has no predecessor and is 0.

    sources (default pair_sources(video.frames)) gives each pair k the
    pair sources[k] <= k whose value it takes. Only the pairs that map
    to themselves are solved, in flow_chunks with grays made per chunk;
    every other pair takes its source's value, which is an exact 0.0
    when the source is 0 or is not solved. So a caller may split the
    solved pairs of pair_sources over several calls, each solving its
    share, and join the pieces."""
    check_video(video)
    n = video.frame_count
    if sources is None:
        sources = pair_sources(video.frames)
    sources = np.asarray(sources)
    if sources.shape != (n,):
        raise ShapeError(f"pair sources of shape {sources.shape} for {n} "
                         "frames")
    if (sources.dtype.kind not in "iu" or np.any(sources < 0)
            or np.any(sources > np.arange(n))):
        raise ValidationError("each pair source must be an index from 0 "
                              "to its own pair")
    curve = np.zeros(n)
    grays = {}
    for ks in flow_chunks(sources, *video.frames.shape[1:3]):
        grays = {i: grays[i] if i in grays else to_grayscale(video.frames[i])
                 for i in {*(ks - 1), *ks}}
        flow = optical_flow(np.stack([grays[k - 1] for k in ks]),
                            np.stack([grays[k] for k in ks]), params)
        curve[ks] = [m.mean() for m in flow.magnitude]
    return curve[sources]


def detect_motion_peaks(curve, params=None):
    """Peak-pick a motion curve with the shared median/MAD picker."""
    return pick_peaks(curve, params)
