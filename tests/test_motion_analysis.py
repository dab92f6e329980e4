import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_curve, reference_flow
from tempokit import motion_analysis
from tempokit.errors import ShapeError, ValidationError
from tempokit.media_io import Video
from tempokit.motion_analysis import (PIXELS, FlowParams,
                                      detect_motion_peaks, motion_curve,
                                      optical_flow, pair_sources,
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
    assert np.flatnonzero(pair_sources(video.frames)[0]).tolist() == moving
    params = FlowParams(alpha=7.0, iterations=40)
    curve = motion_curve(video, params)
    assert np.array_equal(curve, reference_curve(video, params))
    assert np.flatnonzero(curve).tolist() == moving


# ---------------------------------------------------------------------------
# Repeated pairs: solved once, each repeat takes its source's value
# ---------------------------------------------------------------------------

# frame indices into a pool of distinct random frames, and the source
# pair_sources gives each pair: a pair whose two frames an earlier pair
# holds, in either order, takes that pair's value
REPEAT_PATTERNS = {
    "loop": ([0, 1, 2, 0, 1, 2, 0, 1, 2, 3],
             [0, 1, 2, 3, 1, 2, 3, 1, 2, 9]),
    "held loop": ([0, 0, 1, 1, 0, 0, 1, 1, 2, 2],
                  [0, 0, 2, 0, 2, 0, 2, 0, 8, 0]),
    "back and forth": ([0, 1, 0, 1, 0, 1, 2, 1, 2, 1],
                       [0, 1, 1, 1, 1, 1, 6, 6, 6, 6]),
    "palindrome": ([0, 1, 2, 3, 2, 1, 0, 1, 2, 3],
                   [0, 1, 2, 3, 3, 2, 1, 1, 2, 3]),
}


def flash_clip(width, height):
    """A 2-s flash clip with 3 events, and its pair sources: each flash
    lights the same disk at frame e, dims it at e+1 and e+2 and puts it
    out at e+3, so its 4 pairs repeat the first flash's."""
    pair, events = generate(SynthConfig(width=width, height=height,
                                        duration=2.0, n_events=3,
                                        event_kind="flash", seed=width))
    sources = np.zeros(pair.video.frame_count, dtype=int)
    for e in events:
        for step in range(4):
            if e + step < len(sources):
                sources[e + step] = events[0] + step
    return pair.video, sources


def bounce_clip(width, height):
    """A 1-s bounce clip with 2 events, and its pair sources found by
    comparing frame bytes: each arc is a parabola, so its falling half
    holds its rising half's frame pairs in reverse order."""
    video = generate(SynthConfig(width=width, height=height, duration=1.0,
                                 n_events=2, seed=width))[0].video
    frames = [frame.tobytes() for frame in video.frames]
    pairs = [{a, b} for a, b in zip(frames, frames[1:])]
    sources = [0] + [0 if len(pair) == 1 else pairs.index(pair) + 1
                     for pair in pairs]
    return video, np.array(sources)


def repeated_clips(width, height):
    pool = np.random.default_rng(width).integers(
        0, 256, (4, height, width, 3), dtype=np.uint8)
    for pattern, sources in REPEAT_PATTERNS.values():
        yield Video(pool[pattern], 24), np.array(sources)
    yield bounce_clip(width, height)
    yield flash_clip(width, height)


@pytest.mark.parametrize("width, height", [(64, 64), (128, 96)],
                         ids=["64x64", "128x96"])
def test_motion_curve_with_repeated_pairs_is_bit_exact(width, height):
    params = FlowParams(alpha=7.0, iterations=40)
    clips = list(repeated_clips(width, height))
    for video, sources in clips:
        assert pair_sources(video.frames)[0].tolist() == sources.tolist()
        curve = motion_curve(video, params)
        assert curve.tobytes() == reference_curve(video, params).tobytes()
    # the bounce clip solves a pair and its reverse once
    bounce = clips[-2][1]
    solved = np.count_nonzero(bounce == np.arange(len(bounce))) - 1
    assert solved < np.count_nonzero(bounce)
    # the flash clip: 12 moving pairs, 4 of them distinct
    flash = clips[-1][1]
    assert np.count_nonzero(flash) == 12 and len(set(flash) - {0}) == 4


def test_a_hash_collision_only_misses_repeats(monkeypatch):
    pool = np.random.default_rng(1).integers(0, 256, (4, 24, 32, 3),
                                             dtype=np.uint8)
    video = Video(pool[[0, 1, 2, 0, 1, 2, 3, 3, 1, 2]], 24)
    assert pair_sources(video.frames)[0].tolist() == [0, 1, 2, 3, 1, 2, 6,
                                                      0, 8, 2]
    # every frame now hits frame 0's hash: its copies still match it,
    # no other frame matches, and the still pair 7 is solved to +0.0
    monkeypatch.setattr(motion_analysis, "_frame_hash", lambda frame: 0)
    assert pair_sources(video.frames)[0].tolist() == list(range(10))
    params = FlowParams(alpha=7.0, iterations=40)
    curve = motion_curve(video, params)
    assert curve.tobytes() == reference_curve(video, params).tobytes()
    assert curve[7] == 0.0


@pytest.mark.parametrize("width, height", [(64, 64), (128, 96)],
                         ids=["64x64", "128x96"])
def test_given_sources_are_the_default(width, height):
    params = FlowParams(alpha=7.0, iterations=40)
    for video, _ in repeated_clips(width, height):
        sources = pair_sources(video.frames)[0]
        assert motion_curve(video, params, sources=sources).tobytes() == \
            motion_curve(video, params).tobytes()


def test_sources_solve_only_the_pairs_that_map_to_themselves(monkeypatch):
    video, sources = flash_clip(64, 64)
    params = FlowParams(iterations=20)
    whole = motion_curve(video, params)
    solved = []
    flow = motion_analysis.optical_flow

    def counting_flow(frame1, frame2, params=None):
        solved.append(len(frame1))
        return flow(frame1, frame2, params)

    monkeypatch.setattr(motion_analysis, "optical_flow", counting_flow)
    # the second and fourth distinct pairs, and a repeat of the second
    mine = sources[sources > 0][[1, 3]]
    part = np.zeros_like(sources)
    part[mine] = mine
    later = np.flatnonzero(sources == mine[0])[1]
    part[later] = mine[0]
    curve = motion_curve(video, params, sources=part)
    assert solved == [2]
    assert curve[[*mine, later]].tobytes() == whole[[*mine, later]].tobytes()
    rest = np.ones(len(curve), bool)
    rest[[*mine, later]] = False
    assert curve[rest].tobytes() == bytes(8 * rest.sum())  # +0.0 each


@pytest.mark.parametrize("change, error", [
    (lambda s: s[:-1], ShapeError),
    (lambda s: np.append(s, 0), ShapeError),
    (lambda s: s.reshape(1, -1), ShapeError),
    (lambda s: np.where(np.arange(len(s)) == 5, 6, s), ValidationError),
    (lambda s: np.where(np.arange(len(s)) == 5, -1, s), ValidationError),
    (lambda s: s.astype(float), ValidationError),
], ids=["short", "long", "2-d", "past its pair", "negative", "float"])
def test_bad_sources_are_refused(change, error):
    video = block_video([20, 22, 24, 26, 28, 30, 32, 34])
    with pytest.raises(error):
        motion_curve(video, FlowParams(iterations=1),
                     sources=change(pair_sources(video.frames)[0]))


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


# ---------------------------------------------------------------------------
# Flat background: the data term runs only in the box of live pixels
# ---------------------------------------------------------------------------

def assert_flow_matches_reference(flow, f1, f2, params):
    """Each pair of a stack against reference_flow: equal values (NaN
    where it has NaN) and equal sign bits."""
    for k in range(len(f1)):
        for got, want in zip((flow.u[k], flow.v[k]),
                             reference_flow(f1[k], f2[k], params)):
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def flat_pairs(height, width, patches, seed=0):
    """(N, H, W) stacks of two black frames, each pair n with a random
    square patch at (top, left, size) = patches[n] in both."""
    rng = np.random.default_rng(seed)
    f1 = np.zeros((len(patches), height, width))
    f2 = f1.copy()
    for n, (top, left, size) in enumerate(patches):
        for frame in (f1, f2):
            frame[n, top:top + size, left:left + size] = rng.uniform(
                0, 1, (size, size))
    return f1, f2


FLAT_H, FLAT_W, PATCH = 24, 32, 4
PATCH_SPOTS = {f"{row} {col}": (top, left, PATCH)
               for row, top in [("top", 0), ("middle", (FLAT_H - PATCH) // 2),
                                ("bottom", FLAT_H - PATCH)]
               for col, left in [("left", 0),
                                 ("centre", (FLAT_W - PATCH) // 2),
                                 ("right", FLAT_W - PATCH)]}
PATCH_SPOTS["one pixel"] = (9, 21, 1)
FLAT_PARAMS = FlowParams(alpha=7.0, iterations=40)


@pytest.mark.parametrize("patch", PATCH_SPOTS.values(),
                         ids=PATCH_SPOTS.keys())
def test_patch_on_flat_background_is_bit_exact(patch):
    f1, f2 = flat_pairs(FLAT_H, FLAT_W, [patch], seed=sum(patch))
    assert_flow_matches_reference(optical_flow(f1, f2, FLAT_PARAMS), f1, f2,
                                  FLAT_PARAMS)


def test_box_is_the_union_of_patches_far_apart():
    f1, f2 = flat_pairs(FLAT_H, FLAT_W, [(1, 2, 3), (18, 25, 5), (10, 14, 2)])
    assert_flow_matches_reference(optical_flow(f1, f2, FLAT_PARAMS), f1, f2,
                                  FLAT_PARAMS)


def test_dense_frames_are_bit_exact():
    f1, f2 = np.random.default_rng(53).uniform(0, 1, (2, 3, FLAT_H, FLAT_W))
    assert_flow_matches_reference(optical_flow(f1, f2, FLAT_PARAMS), f1, f2,
                                  FLAT_PARAMS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("spot", [(2, 3), (0, 16), (23, 31)],
                         ids=["inside", "edge", "corner"])
def test_non_finite_pixel_on_flat_background_matches_reference(value, spot):
    """Few sweeps, so the flow far from the bad pixel stays finite."""
    params = FlowParams(alpha=7.0, iterations=4)
    f1, f2 = flat_pairs(FLAT_H, FLAT_W, [(10, 12, 4)])
    f2[(0, *spot)] = value
    flow = optical_flow(f1, f2, params)
    assert np.isnan(flow.u).any() and np.isfinite(flow.u).any()
    assert_flow_matches_reference(flow, f1, f2, params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infinite_temporal_derivative_with_flat_mean_is_live():
    """-big then +big: the mean and so the gradients stay flat, but the
    temporal derivative overflows to inf at that one pixel."""
    params = FlowParams(alpha=7.0, iterations=4)
    f1, f2 = flat_pairs(FLAT_H, FLAT_W, [(10, 12, 4)])
    f1[0, 3, 4], f2[0, 3, 4] = -5e305, 5e305
    flow = optical_flow(f1, f2, params)
    assert np.isnan(flow.u[0, 3, 4])
    assert_flow_matches_reference(flow, f1, f2, params)


# ---------------------------------------------------------------------------
# Time reversal
# ---------------------------------------------------------------------------

@st.composite
def small_videos(draw, shape=None):
    """2-8 frames of at most 20x20, or of the given (height, width):
    random pixels, or a square moving on a flat background; any frame
    may repeat the one before it."""
    count = draw(st.integers(2, 8))
    height, width = shape or (draw(st.integers(3, 20)),
                              draw(st.integers(3, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        frames = rng.integers(0, 256, (count, height, width, 3),
                              dtype=np.uint8)
    else:
        frames = np.full((count, height, width, 3),
                         rng.integers(0, 256, 3), dtype=np.uint8)
        size = int(rng.integers(1, min(height, width) + 1))
        for frame in frames:
            top = rng.integers(0, height - size + 1)
            left = rng.integers(0, width - size + 1)
            frame[top:top + size, left:left + size] = rng.integers(0, 256, 3)
    for k in range(1, count):
        if draw(st.booleans()):
            frames[k] = frames[k - 1]
    return frames


@settings(max_examples=60)
@given(frames=small_videos(), pairs_per_chunk=st.sampled_from([1, 2, 3, 8]),
       params=st.builds(FlowParams, st.sampled_from([1.0, 10.0]),
                        st.sampled_from([1, 13, 100])))
def test_reversed_video_has_the_reversed_motion_curve(frames, pairs_per_chunk,
                                                      params):
    # swapping a pair's frames negates its temporal derivative, and the
    # solved flow negates with it, exactly; the chunks group the pairs
    # differently in the two directions
    pixels = pairs_per_chunk * frames.shape[1] * frames.shape[2]
    with mock.patch.object(motion_analysis, "PIXELS", pixels):
        forward = motion_curve(Video(frames, 24), params)
        backward = motion_curve(Video(frames[::-1], 24), params)
    assert backward[1:].tobytes() == forward[1:][::-1].tobytes()


# ---------------------------------------------------------------------------
# Pair independence, the invariant behind chunks, flow jobs and
# pair_sources
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(frames=small_videos(),
       params=st.builds(FlowParams, st.sampled_from([1.0, 10.0]),
                        st.sampled_from([1, 13, 100])))
def test_stacked_flow_is_each_pairs_flow_alone(frames, params):
    # on flat background the stack's live box bounds every pair's, so
    # a pair is swept over more of its background in the stack
    grays = np.stack([to_grayscale(f) for f in frames])
    stacked = optical_flow(grays[:-1], grays[1:], params)
    for k in range(len(grays) - 1):
        alone = optical_flow(grays[k], grays[k + 1], params)
        assert stacked.u[k].tobytes() == alone.u.tobytes()
        assert stacked.v[k].tobytes() == alone.v.tobytes()


@settings(max_examples=60)
@given(frames=small_videos(), where=st.integers(0, 7),
       pairs_per_chunk=st.sampled_from([1, 2, 8]), collide=st.booleans(),
       params=st.builds(FlowParams, st.sampled_from([1.0, 10.0]),
                        st.sampled_from([1, 13, 100])))
def test_duplicated_frame_inserts_an_exact_zero(frames, where,
                                                pairs_per_chunk, collide,
                                                params):
    # with every frame on one hash, the copy and the pair after it are
    # solved rather than matched to the pairs they repeat
    where %= len(frames)
    longer = np.insert(frames, where + 1, frames[where], axis=0)
    pixels = pairs_per_chunk * frames.shape[1] * frames.shape[2]
    with mock.patch.object(motion_analysis, "PIXELS", pixels):
        curve = motion_curve(Video(frames, 24), params)
        with mock.patch.object(motion_analysis, "_frame_hash",
                               (lambda frame: 0) if collide
                               else motion_analysis._frame_hash):
            got = motion_curve(Video(longer, 24), params)
    assert got.tobytes() == np.insert(curve, where + 1, 0.0).tobytes()


# ---------------------------------------------------------------------------
# Concatenation: a video's curve is its pieces' curves, joined
# ---------------------------------------------------------------------------

@st.composite
def video_pairs(draw):
    """Two small videos of one frame size; the second has its own frames,
    or frames of the first in any order, so that its pairs may repeat or
    reverse pairs of the first."""
    first = draw(small_videos())
    if draw(st.booleans()):
        return first, draw(small_videos(shape=first.shape[1:3]))
    order = draw(st.lists(st.integers(0, len(first) - 1), min_size=2,
                          max_size=8))
    return first, first[order]


@settings(max_examples=60)
@given(videos=video_pairs(), pairs_per_chunk=st.sampled_from([1, 2, 8]),
       params=st.builds(FlowParams, st.sampled_from([1.0, 10.0]),
                        st.sampled_from([1, 13, 100])))
def test_concatenated_videos_have_the_joined_motion_curves(videos,
                                                           pairs_per_chunk,
                                                           params):
    # the curve of A then B is A's curve, the value of the pair that
    # joins them, and B's curve after its first entry, though B's pairs
    # may take their values from A's
    a, b = videos
    pixels = pairs_per_chunk * a.shape[1] * a.shape[2]
    with mock.patch.object(motion_analysis, "PIXELS", pixels):
        curves = [motion_curve(Video(frames, 24), params)
                  for frames in (a, np.stack([a[-1], b[0]]), b,
                                 np.concatenate([a, b]))]
    joined = np.concatenate([curves[0], curves[1][1:], curves[2][1:]])
    assert curves[3].tobytes() == joined.tobytes()
