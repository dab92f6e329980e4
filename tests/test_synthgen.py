import hashlib

import numpy as np
import pytest

from tempokit.audio_analysis import detect_onsets
from tempokit.av_align import av_align_from_media
from tempokit import synthgen
from tempokit.errors import ValidationError
from tempokit.motion_analysis import detect_motion_peaks, motion_curve
from tempokit.synthgen import (BACKGROUND, BALL_SOFT_EDGE, SynthConfig,
                               corpus, generate, read_corpus)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGenerate:
    def test_ground_truth_matches_detected_onsets_at_zero_shift(self):
        pair, events = generate(SynthConfig(seed=0))
        onsets = detect_onsets(pair.audio, pair.video.fps,
                               n_frames=pair.video.frame_count)
        assert list(onsets) == list(events)

    def test_shifted_audio_events_land_at_events_plus_shift(self):
        for shift in (4, 12):
            pair, events = generate(SynthConfig(seed=1, shift_frames=shift))
            onsets = detect_onsets(pair.audio, pair.video.fps,
                                   n_frames=pair.video.frame_count)
            expected = [e + shift for e in events]
            assert list(onsets) == expected

    def test_fixed_seed_is_bit_identical(self):
        a, _ = generate(SynthConfig(seed=7))
        b, _ = generate(SynthConfig(seed=7))
        assert a.video.frames.tobytes() == b.video.frames.tobytes()
        assert a.audio.samples.tobytes() == b.audio.samples.tobytes()

    def test_events_respect_spacing_floor(self):
        for seed in range(8):
            _, events = generate(SynthConfig(seed=seed))
            gaps = np.diff(events)
            assert np.all(gaps >= np.ceil(0.25 * 24))

    def test_event_count_and_duration_contract(self):
        cfg = SynthConfig(seed=3)
        pair, events = generate(cfg)
        assert len(events) == cfg.n_events
        assert pair.video.frame_count == 96
        assert pair.audio.samples.size == 64000

    def test_motion_peaks_sit_on_events(self):
        pair, events = generate(SynthConfig(seed=4))
        peaks = detect_motion_peaks(motion_curve(pair.video))
        assert list(peaks) == list(events)

    def test_flash_mode_works_too(self):
        pair, events = generate(SynthConfig(seed=5, event_kind="flash"))
        peaks = detect_motion_peaks(motion_curve(pair.video))
        assert list(peaks) == list(events)

    def test_onset_recall_on_defaults(self):
        hits = 0
        total = 0
        for seed in range(4):
            pair, events = generate(SynthConfig(seed=seed))
            onsets = set(detect_onsets(pair.audio, pair.video.fps,
                                       n_frames=pair.video.frame_count))
            total += len(events)
            hits += sum(1 for e in events
                        if any(abs(e - o) <= 1 for o in onsets))
        assert hits / total >= 5 / 6

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ValidationError):
            generate(SynthConfig(seed=0, duration=1.0, n_events=6))
        with pytest.raises(ValidationError):
            generate(SynthConfig(seed=0, shift_frames=80))
        with pytest.raises(ValidationError):
            SynthConfig(seed=0, event_kind="sparkle")


def full_frame_disk(frame, cx, cy, radius, color):
    """The disk painter as it was before it painted only a window around
    the disk: it blends every pixel of a float frame. The oracle for
    synthgen._paint_disks."""
    h, w, _ = frame.shape
    yy, xx = np.mgrid[0:h, 0:w]
    dist = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
    alpha = np.clip((radius + BALL_SOFT_EDGE - dist) / BALL_SOFT_EDGE, 0, 1)
    blended = frame + alpha[..., None] * (color - frame)
    return blended


def paint_full_frames(frames, xs, ys, radius, colors):
    """synthgen._paint_disks's contract, met by the oracle frame by
    frame."""
    colors = np.broadcast_to(colors, (len(frames), 3))
    for frame, cx, cy, color in zip(frames, xs, ys, colors):
        base = np.full(frame.shape, float(BACKGROUND))
        painted = full_frame_disk(base, cx, cy, radius, color)
        frame[...] = np.clip(np.rint(painted), 0, 255).astype(np.uint8)


class TestDiskPainter:
    @pytest.mark.parametrize("kind", ["bounce", "flash"])
    @pytest.mark.parametrize("width, height", [
        (64, 64), (128, 96), (24, 24), (25, 200), (97, 61)])
    def test_rendered_frames_equal_the_full_frame_painter(
            self, kind, width, height, monkeypatch):
        for seed in range(4):
            config = SynthConfig(width=width, height=height,
                                 event_kind=kind, seed=seed)
            box, _ = generate(config)
            with monkeypatch.context() as patch:
                patch.setattr(synthgen, "_paint_disks", paint_full_frames)
                oracle, _ = generate(config)
            assert box.video.frames.tobytes() == oracle.video.frames.tobytes()

    CENTRES = [(0.0, 0.0), (-3.2, 12.5), (27.9, 5.5), (12.25, -7.5),
               (-8.0, 12.0), (40.0, 40.0), (12.0, 31.5), (12.0, -30.0),
               (12.5, 12.5)]

    @pytest.mark.parametrize("cx, cy", CENTRES)
    def test_disks_at_and_beyond_the_edges(self, cx, cy):
        # the centres are the frames of one stack; this case checks its own
        xs, ys = np.array(self.CENTRES).T
        color = np.array([250.0, 120.0, 5.0])
        box = np.full((len(xs), 24, 24, 3), BACKGROUND, dtype=np.uint8)
        oracle = box.copy()
        synthgen._paint_disks(box, xs, ys, 8.0, color)
        paint_full_frames(oracle, xs, ys, 8.0, color)
        f = self.CENTRES.index((cx, cy))
        assert box[f].tobytes() == oracle[f].tobytes()


class TestAlignmentDegradation:
    def test_shift_strictly_degrades_score(self):
        for seed in (0, 1):
            synced, _ = generate(SynthConfig(seed=seed))
            shifted, _ = generate(SynthConfig(seed=seed, shift_frames=12))
            score0 = av_align_from_media(synced.video, synced.audio).score
            score12 = av_align_from_media(shifted.video, shifted.audio).score
            assert score0 > score12


class TestCorpus:
    def test_writes_triples_and_manifest(self, tmp_path):
        manifest = corpus(SynthConfig(seed=2), 4, tmp_path / "c")
        lines = (tmp_path / "c" / "manifest.txt").read_text().splitlines()
        assert len(lines) == 4
        clips = list(read_corpus(manifest))
        assert len(clips) == 4
        for pair, events in clips:
            assert pair.video.frame_count == 96
            assert len(events) == 6

    def test_regeneration_is_byte_identical(self, tmp_path):
        corpus(SynthConfig(seed=9), 3, tmp_path / "a")
        corpus(SynthConfig(seed=9), 3, tmp_path / "b")
        for name in ("clip_0000.rvid", "clip_0001.wav", "clip_0002.events.txt",
                     "manifest.txt"):
            assert file_digest(tmp_path / "a" / name) == \
                file_digest(tmp_path / "b" / name)

    def test_clips_differ_from_each_other(self, tmp_path):
        corpus(SynthConfig(seed=11), 2, tmp_path / "c")
        a = (tmp_path / "c" / "clip_0000.rvid").read_bytes()
        b = (tmp_path / "c" / "clip_0001.rvid").read_bytes()
        assert a != b

    def test_reads_each_clip_when_it_is_asked_for(self, tmp_path):
        manifest = corpus(SynthConfig(seed=2), 2, tmp_path / "c")
        (tmp_path / "c" / "clip_0001.rvid").unlink()
        clips = read_corpus(manifest)
        pair, _ = next(clips)
        assert pair.video.frame_count == 96
        with pytest.raises(FileNotFoundError):
            next(clips)

    def test_detected_onsets_match_recorded_ground_truth(self, tmp_path):
        manifest = corpus(SynthConfig(seed=13), 3, tmp_path / "c")
        for pair, events in read_corpus(manifest):
            onsets = detect_onsets(pair.audio, pair.video.fps,
                                   n_frames=pair.video.frame_count)
            assert all(any(abs(e - o) <= 1 for o in onsets) for e in events)
