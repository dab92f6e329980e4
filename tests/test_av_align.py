import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import iou_av_align
from tempokit.audio_analysis import detect_onsets
from tempokit.av_align import (av_align_from_media, av_align_score,
                              scored_span)
from tempokit.errors import DurationError, ShapeError, ValidationError
from tempokit.media_io import AudioSignal, Video
from tempokit.motion_analysis import FlowParams, motion_curve
from tempokit.peaks import PeakPickParams, PeakSet
from tempokit.synthgen import SynthConfig, generate


def oracle_score(a, b, tol):
    """Brute-force double-loop reference implementation."""
    a, b = sorted(set(a)), sorted(set(b))
    union = len(set(a) | set(b))
    if union == 0:
        return 1.0
    matched_a = sum(1 for x in a if any(abs(x - y) <= tol for y in b))
    matched_b = sum(1 for y in b if any(abs(y - x) <= tol for x in a))
    return (matched_a + matched_b) / (2.0 * union)


class TestScore:
    def test_identical_sets_score_one(self):
        rep = av_align_score([3, 10], [3, 10], 1)
        assert rep.score == 1.0
        assert not rep.vacuous

    def test_nothing_to_match(self):
        rep = av_align_score([5], [], 1)
        assert rep.score == 0.0
        assert rep.union_size == 1

    def test_hand_worked_quarter(self):
        # matches: 0~1 and 1~0; union {0,1,10,20} -> (1+1)/(2*4)
        rep = av_align_score([0, 10], [1, 20], 1)
        assert rep.score == 0.25
        assert rep.matched_audio == 1
        assert rep.matched_video == 1

    def test_both_empty_is_vacuous_one(self):
        rep = av_align_score([], [], 1)
        assert rep.score == 1.0
        assert rep.vacuous

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            av_align_score([1], [2], -1)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            a = rng.integers(0, 100, rng.integers(0, 21))
            b = rng.integers(0, 100, rng.integers(0, 21))
            tol = int(rng.choice([0, 1, 3]))
            got = av_align_score(a, b, tol).score
            assert got == oracle_score(a, b, tol)

    @settings(max_examples=100)
    @given(a=st.lists(st.integers(0, 60), max_size=15),
           b=st.lists(st.integers(0, 60), max_size=15),
           tol=st.integers(0, 5))
    def test_symmetry(self, a, b, tol):
        # the score bit for bit; the counts of the two sides swap
        ab, ba = av_align_score(a, b, tol), av_align_score(b, a, tol)
        assert ab.score.hex() == ba.score.hex()
        assert ab.union_size == ba.union_size
        assert ab.vacuous == ba.vacuous
        assert (ab.matched_audio, ab.matched_video) == (ba.matched_video,
                                                        ba.matched_audio)
        assert (ab.audio_peaks, ab.video_peaks) == (ba.video_peaks,
                                                    ba.audio_peaks)

    def test_range_and_tolerance_monotonicity(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            a = rng.integers(0, 60, rng.integers(0, 15))
            b = rng.integers(0, 60, rng.integers(0, 15))
            prev_matched = -1
            for tol in (0, 1, 2, 3, 5):
                rep = av_align_score(a, b, tol)
                assert 0.0 <= rep.score <= 1.0
                matched = rep.matched_audio + rep.matched_video
                assert matched >= prev_matched
                prev_matched = matched

    def test_accepts_peak_sets(self):
        rep = av_align_score(PeakSet([1, 5]), PeakSet([1, 5]), 0)
        assert rep.score == 1.0


# (audio peaks, video peaks, tolerance, av_align_score, iou_av_align)
PAPER_FORM_CASES = {
    "identical": ([3, 10], [3, 10], 1, 1.0, 1.0),
    "shift 1 within tolerance": ([5, 17, 29], [6, 18, 30], 1, 0.5, 1.0),
    "shift 2 beyond tolerance": ([5, 17, 29], [7, 19, 31], 1, 0.0, 0.0),
    "shift 2 within tolerance 3": ([5, 17, 29], [7, 19, 31], 3, 0.5, 1.0),
    # union {0, 1, 10, 20}; I = 1 of |A| + |V| = 4
    "hand-worked quarter": ([0, 10], [1, 20], 1, 0.25, 1 / 3),
    "no video peaks": ([5], [], 1, 0.0, 0.0),
    "both empty": ([], [], 1, 1.0, 1.0),
    # two audio peaks match one video peak: I > |V|, and I/(|A|+|V|-I)
    # passes 1
    "two audio peaks on one": ([4, 6], [5], 1, 0.5, 2.0),
}


@pytest.mark.parametrize("case", PAPER_FORM_CASES.values(),
                         ids=PAPER_FORM_CASES.keys())
def test_score_against_the_papers_iou_form(case):
    # tempokit's union counts a pair matched within the tolerance twice,
    # so a shift the tolerance forgives halves its score, not the IoU's
    audio, video, tolerance, ours, iou = case
    assert av_align_score(audio, video, tolerance).score == ours
    assert iou_av_align(audio, video, tolerance) == iou


class TestReportSerialization:
    def test_text_format_is_key_value_lines(self):
        rep = av_align_score([1], [1], 1)
        lines = rep.to_text().splitlines()
        assert "score=1.0" in lines
        assert all("=" in line for line in lines)

    def test_json_round_trips(self):
        rep = av_align_score([0, 10], [1, 20], 1)
        data = json.loads(rep.to_json())
        assert data["score"] == 0.25
        assert set(data) == {"score", "matched_audio", "matched_video",
                             "tolerance", "audio_peaks", "video_peaks",
                             "union_size", "vacuous"}


class TestFromMedia:
    def test_static_video_and_silence_is_vacuous(self):
        video = Video(np.full((48, 16, 16, 3), 40, dtype=np.uint8), 24, 1)
        audio = AudioSignal(np.zeros(32000), 16000)
        rep = av_align_from_media(video, audio)
        assert rep.vacuous
        assert rep.score == 1.0

    def test_minor_mismatch_truncates_with_warning(self):
        video = Video(np.full((48, 16, 16, 3), 40, dtype=np.uint8), 24, 1)
        audio = AudioSignal(np.zeros(36000), 16000)  # 0.25 s longer
        with pytest.warns(UserWarning):
            rep = av_align_from_media(video, audio)
        assert rep.score == 1.0

    def test_truncation_warning_names_the_callers_line(self):
        video = Video(np.full((48, 16, 16, 3), 40, dtype=np.uint8), 24, 1)
        audio = AudioSignal(np.zeros(36000), 16000)  # 0.25 s longer
        with pytest.warns(UserWarning) as caught:
            av_align_from_media(video, audio)
        assert [(w.filename, str(w.message)) for w in caught] == [
            (__file__, "durations differ by 0.250s; truncating to the "
                       "shorter stream")]

    def test_wild_mismatch_raises_duration_error(self):
        video = Video(np.full((96, 16, 16, 3), 40, dtype=np.uint8), 24, 1)
        audio = AudioSignal(np.zeros(16000), 16000)  # 1 s vs 4 s
        with pytest.raises(DurationError):
            av_align_from_media(video, audio)

    def test_fps_override_changes_frame_mapping(self):
        video = Video(np.full((48, 16, 16, 3), 40, dtype=np.uint8), 24, 1)
        audio = AudioSignal(np.zeros(24000), 16000)
        rep = av_align_from_media(video, audio, fps_override=32.0)
        assert rep.vacuous

    @pytest.mark.parametrize("fps", [0, -1, float("nan"), float("inf")])
    def test_fps_that_is_not_positive_and_finite_is_refused(self, fps):
        video = Video(np.full((48, 16, 16, 3), 40, dtype=np.uint8), 24, 1)
        audio = AudioSignal(np.zeros(32000), 16000)
        with pytest.raises(ValidationError,
                           match="^fps must be positive and finite$"):
            av_align_from_media(video, audio, fps_override=fps)

    def test_peak_params_reach_both_detectors(self):
        pair, _ = generate(SynthConfig(width=32, height=32, duration=2.5,
                                       n_events=4, seed=0))
        rep = av_align_from_media(pair.video, pair.audio)
        assert rep.audio_peaks > 0 and rep.video_peaks > 0
        # a one-sample window is its own median, so nothing can beat it
        rep = av_align_from_media(pair.video, pair.audio,
                                  peak_params=PeakPickParams(smoothing=1))
        assert (rep.audio_peaks, rep.video_peaks) == (0, 0)


class TestScoredSpan:
    def test_a_cut_returns_its_note_and_warns_nothing(self):
        audio = AudioSignal(np.zeros(36000), 16000)  # 0.25 s past 48 frames
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            n_frames, cut, note = scored_span(48, audio, 24.0)
        assert caught == []
        assert (n_frames, cut.samples.size, cut.sample_rate) == (48, 32000,
                                                                16000)
        assert note == ("durations differ by 0.250s; truncating to the "
                        "shorter stream")

    def test_streams_within_a_frame_are_scored_as_given(self):
        audio = AudioSignal(np.zeros(32600), 16000)  # 0.0375 s past
        n_frames, cut, note = scored_span(48, audio, 24.0)
        assert (n_frames, note) == (48, None) and cut is audio


def _clip(shift_frames=0):
    pair, _ = generate(SynthConfig(width=32, height=32, duration=2.5,
                                   n_events=4, shift_frames=shift_frames,
                                   seed=0))
    return pair.video, pair.audio


class TestPrecomputedMotion:
    """motion= is the full-length curve; it must not change a report."""

    @pytest.mark.parametrize("shift, audio_cut, kwargs", [
        (0, 0, {}),
        (12, 0, {}),
        # audio 1.26 s: the 2.5-s video is cut to 30 frames, before its
        # last event (frame 33)
        (0, 19840, {}),
        (0, 0, {"fps_override": 32.0}),
        (0, 0, {"flow_params": FlowParams(alpha=4.0, iterations=30)}),
    ], ids=["synced", "shifted 12 frames", "truncated video",
            "fps override", "flow params"])
    def test_report_equals_computing_the_curve(self, shift, audio_cut,
                                               kwargs):
        video, audio = _clip(shift)
        if audio_cut:
            audio = AudioSignal(audio.samples[:-audio_cut], audio.sample_rate)
        curve = motion_curve(video, kwargs.get("flow_params"))
        truncates = bool(audio_cut) or "fps_override" in kwargs
        with warnings.catch_warnings(record=True) as plain_warnings:
            warnings.simplefilter("always")
            plain = av_align_from_media(video, audio, **kwargs)
        with warnings.catch_warnings(record=True) as given_warnings:
            warnings.simplefilter("always")
            given = av_align_from_media(video, audio, motion=curve, **kwargs)
        assert given.to_dict() == plain.to_dict()
        assert len(given_warnings) == len(plain_warnings) == int(truncates)
        assert plain.video_peaks > 0

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_curve_of_the_wrong_length_rejected(self, delta):
        video, audio = _clip()
        curve = motion_curve(video)
        wrong = curve[:delta] if delta < 0 else np.append(curve, 0.0)
        with pytest.raises(ShapeError):
            av_align_from_media(video, audio, motion=wrong)


class TestPrecomputedOnsets:
    """onsets= are (n, peaks) as worked out here; they must not change a
    report, and the audio is not read."""

    CASES = [(0, 0, {}), (12, 0, {}), (0, 19840, {}),
             (0, 0, {"fps_override": 32.0}),
             (0, 0, {"fps_override": 30000 / 1001})]
    IDS = ["synced", "shifted 12 frames", "truncated video", "fps override",
           "ntsc fps override"]

    @staticmethod
    def check(video, audio, kwargs):
        """How often the report warns of truncation; scored_span and the
        report given the onsets never warn."""
        fps = kwargs.get("fps_override", video.fps)
        curve = motion_curve(video)
        with warnings.catch_warnings(record=True) as plain_warnings:
            warnings.simplefilter("always")
            plain = av_align_from_media(video, audio, motion=curve, **kwargs)
            n_frames, cut, _ = scored_span(video.frame_count, audio, fps)
            onsets = n_frames, detect_onsets(cut, fps, n_frames=n_frames)
        with warnings.catch_warnings(record=True) as given_warnings:
            warnings.simplefilter("always")
            given = av_align_from_media(video, None, motion=curve,
                                        onsets=onsets, **kwargs)
        assert given.to_dict() == plain.to_dict()
        assert given_warnings == []
        assert plain.audio_peaks > 0
        return len(plain_warnings)

    @pytest.mark.parametrize("shift, audio_cut, kwargs", CASES, ids=IDS)
    def test_report_equals_detecting_the_onsets(self, shift, audio_cut,
                                                kwargs):
        video, audio = _clip(shift)
        if audio_cut:
            audio = AudioSignal(audio.samples[:-audio_cut], audio.sample_rate)
        truncates = bool(audio_cut) or "fps_override" in kwargs
        assert self.check(video, audio, kwargs) == int(truncates)

    @pytest.mark.parametrize("shift", [0, 12])
    def test_acceptance_clip_report_equals_detecting_the_onsets(self, shift):
        pair, _ = generate(SynthConfig(seed=0, shift_frames=shift))
        assert self.check(pair.video, pair.audio, {}) == 0
