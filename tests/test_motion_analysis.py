import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import convolve

from tempokit.errors import ShapeError
from tempokit.media_io import Video
from tempokit.motion_analysis import (PIXELS, FlowParams,
                                      detect_motion_peaks, motion_curve,
                                      moving_pairs, optical_flow,
                                      to_grayscale)
from tempokit.synthgen import SynthConfig, generate


def gray_ramp(width=64, height=64, slope=4, shift=0):
    """Horizontal intensity ramp as an RGB frame; slope is in 8-bit
    counts per pixel."""
    x = np.arange(width) - shift
    row = np.clip(x * slope, 0, 255).astype(np.uint8)
    frame = np.repeat(row[None, :], height, axis=0)
    return np.stack([frame] * 3, axis=-1)


def block_video(positions, size=8, width=64, height=64, fps=24):
    """White square at the given x positions, one frame per entry."""
    frames = np.zeros((len(positions), height, width, 3), dtype=np.uint8)
    top = height // 2 - size // 2
    for i, x in enumerate(positions):
        frames[i, top:top + size, x:x + size] = 255
    return Video(frames, fps, 1)


class TestGrayscale:
    def test_black_is_zero(self):
        np.testing.assert_array_equal(
            to_grayscale(np.zeros((4, 4, 3), dtype=np.uint8)), 0.0)

    def test_white_is_one(self):
        np.testing.assert_allclose(
            to_grayscale(np.full((4, 4, 3), 255, dtype=np.uint8)), 1.0,
            atol=1e-12)

    def test_pure_red_luma(self):
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        frame[..., 0] = 255
        np.testing.assert_allclose(to_grayscale(frame), 0.299, atol=1e-12)

    def test_requires_rgb(self):
        with pytest.raises(ShapeError):
            to_grayscale(np.zeros((4, 4), dtype=np.uint8))


class TestOpticalFlow:
    def test_identical_frames_give_exactly_zero_flow(self):
        rng = np.random.default_rng(31)
        frame = rng.uniform(0, 1, (16, 16))
        flow = optical_flow(frame, frame)
        np.testing.assert_array_equal(flow.u, 0.0)
        np.testing.assert_array_equal(flow.v, 0.0)

    def test_one_pixel_ramp_translation(self):
        f1 = to_grayscale(gray_ramp(shift=0))
        f2 = to_grayscale(gray_ramp(shift=1))
        flow = optical_flow(f1, f2)
        interior_u = flow.u[8:-8, 8:-8]
        interior_v = flow.v[8:-8, 8:-8]
        assert 0.7 <= interior_u.mean() <= 1.3
        assert abs(interior_v).mean() < 0.1

    def test_swapped_arguments_flip_flow_sign(self):
        f1 = to_grayscale(gray_ramp(shift=0))
        f2 = to_grayscale(gray_ramp(shift=1))
        fwd = optical_flow(f1, f2).u[8:-8, 8:-8].mean()
        bwd = optical_flow(f2, f1).u[8:-8, 8:-8].mean()
        assert abs(fwd + bwd) < 0.2 * abs(fwd)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            optical_flow(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_tiny_grid_rejected(self):
        with pytest.raises(ShapeError):
            optical_flow(np.zeros((2, 8)), np.zeros((2, 8)))

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        f1 = rng.uniform(0, 1, (12, 12))
        f2 = rng.uniform(0, 1, (12, 12))
        a = optical_flow(f1, f2, FlowParams(iterations=30))
        b = optical_flow(f1, f2, FlowParams(iterations=30))
        assert a.u.tobytes() == b.u.tobytes()


class TestMotionCurve:
    def test_static_video_is_all_zero(self):
        video = block_video([20] * 6)
        np.testing.assert_array_equal(motion_curve(video), 0.0)

    def test_first_entry_is_zero(self):
        video = block_video([10, 14, 18])
        assert motion_curve(video)[0] == 0.0

    def test_single_jump_dominates(self):
        positions = [20] * 4 + [28] + [28] * 4  # jump into frame 4
        curve = motion_curve(block_video(positions))
        assert np.argmax(curve) == 4
        others = np.delete(curve, 4)
        assert curve[4] > 3 * others.max()

    def test_values_nonnegative(self):
        rng = np.random.default_rng(41)
        positions = rng.integers(5, 50, 8)
        curve = motion_curve(block_video(list(positions)))
        assert np.all(curve >= 0.0)

    def test_larger_displacement_not_smaller(self):
        small = motion_curve(block_video([20, 22, 22]))[1]
        large = motion_curve(block_video([20, 24, 24]))[1]
        assert large >= small


class TestMotionPeaks:
    def test_zero_curve_has_no_peaks(self):
        assert list(detect_motion_peaks(np.zeros(32))) == []

    def test_single_spike(self):
        curve = np.zeros(20)
        curve[7] = 5.0
        assert list(detect_motion_peaks(curve)) == [7]

    def test_two_spikes_twelve_apart(self):
        curve = np.zeros(40)
        curve[10] = 4.0
        curve[22] = 3.5
        assert list(detect_motion_peaks(curve)) == [10, 22]

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(43)
        curve = np.zeros(50)
        for idx in (9, 21, 38):
            curve[idx] = rng.uniform(3, 6)
        base = detect_motion_peaks(curve)
        shifted = detect_motion_peaks(curve + 17.3)
        assert list(base) == list(shifted)


# ---------------------------------------------------------------------------
# The stencil solver against the per-pair convolution it replaced
# ---------------------------------------------------------------------------

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
    grays = [to_grayscale(f) for f in video.frames]
    curve = np.zeros(video.frame_count)
    for i in range(1, video.frame_count):
        u, v = reference_flow(grays[i - 1], grays[i], params)
        curve[i] = np.sqrt(u ** 2 + v ** 2).mean()
    return curve


# (width, height, frames, kind): 64x64 and 128x96 as in the corpus, and
# a small clip whose pairs do not fill the last chunk evenly
REFERENCE_CLIPS = [(64, 64, 24, "bounce"), (128, 96, 20, "flash"),
                   (40, 30, 38, "bounce")]


@pytest.fixture(scope="module", params=REFERENCE_CLIPS,
                ids=lambda c: f"{c[0]}x{c[1]}x{c[2]}")
def reference_clip(request):
    width, height, frames, kind = request.param
    config = SynthConfig(width=width, height=height, duration=frames / 24,
                         n_events=2, event_kind=kind, seed=7)
    video = generate(config)[0].video
    assert video.frame_count == frames
    return video


class TestStencilMatchesConvolution:
    params = FlowParams(alpha=7.0, iterations=40)

    def test_partial_last_chunk_is_covered(self):
        assert (38 - 1) % max(1, PIXELS // (40 * 30)) != 0

    def test_optical_flow_is_bit_exact(self, reference_clip):
        grays = [to_grayscale(f) for f in reference_clip.frames]
        for i in (1, reference_clip.frame_count // 2):
            u, v = reference_flow(grays[i - 1], grays[i], self.params)
            flow = optical_flow(grays[i - 1], grays[i], self.params)
            assert np.array_equal(flow.u, u)
            assert np.array_equal(flow.v, v)

    def test_stacked_pairs_match_single_pairs(self, reference_clip):
        grays = np.stack([to_grayscale(f) for f in reference_clip.frames])
        stacked = optical_flow(grays[:4], grays[1:5], self.params)
        for k in range(4):
            single = optical_flow(grays[k], grays[k + 1], self.params)
            assert np.array_equal(stacked.u[k], single.u)
            assert np.array_equal(stacked.v[k], single.v)

    def test_motion_curve_is_bit_exact(self, reference_clip):
        for params in (self.params, FlowParams()):
            assert np.array_equal(motion_curve(reference_clip, params),
                                  reference_curve(reference_clip, params))


# ---------------------------------------------------------------------------
# Still pairs: skipped by motion_curve, exactly zero when solved
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [1e-3, 10.0, 1e3])
@pytest.mark.parametrize("iterations", [1, 7, 100])
def test_identical_grays_give_only_positive_zero(alpha, iterations):
    grays = np.random.default_rng(iterations).uniform(0, 1, (3, 12, 16))
    params = FlowParams(alpha=alpha, iterations=iterations)
    flow = optical_flow(grays, grays, params)
    reference = reference_flow(grays[0], grays[0], params)
    for field in (flow.u, flow.v, *reference):
        assert not field.any()
        assert not np.signbit(field).any()


# frame indices into a pool of distinct random frames, 10 per video
STILL_PATTERNS = {
    "still head": [0, 0, 0, 0, 1, 2, 3, 4, 5, 6],
    "still tail": [0, 1, 2, 3, 4, 4, 4, 4, 4, 4],
    "alternating": [0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
    "only still": [0] * 10,
    "one moving pair": [0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
}


@pytest.mark.parametrize("width, height", [(64, 64), (128, 96)],
                         ids=["64x64", "128x96"])
@pytest.mark.parametrize("pattern", STILL_PATTERNS.values(),
                         ids=STILL_PATTERNS.keys())
def test_motion_curve_with_still_pairs_is_bit_exact(pattern, width, height):
    pool = np.random.default_rng(width).integers(
        0, 256, (max(pattern) + 1, height, width, 3), dtype=np.uint8)
    video = Video(pool[pattern], 24)
    moving = [k for k in range(1, 10) if pattern[k] != pattern[k - 1]]
    assert moving_pairs(video.frames).tolist() == moving
    params = FlowParams(alpha=7.0, iterations=40)
    curve = motion_curve(video, params)
    assert np.array_equal(curve, reference_curve(video, params))
    assert np.flatnonzero(curve).tolist() == moving


def test_motion_curve_memory_does_not_grow_with_frames():
    config = SynthConfig(width=128, height=96, event_kind="bounce", seed=3)
    frames = generate(config)[0].video.frames
    assert len(frames) == 96
    peaks = []
    for video in (Video(frames, 24), Video(np.concatenate([frames] * 2), 24)):
        tracemalloc.start()
        try:
            motion_curve(video, FlowParams(iterations=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
