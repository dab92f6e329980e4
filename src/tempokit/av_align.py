"""Audio-video temporal alignment score.

Audio onsets A and video motion peaks V (both as frame indices) are
matched within a frame tolerance: a peak is matched when any peak of
the other set lies within the tolerance of it. The score is

    (matched_audio + matched_video) / (2 * |A union V|)

with the union taken over exact indices. Identical peak sets score 1;
peaks that match only within tolerance still enlarge the union, so the
measure behaves like an intersection-over-union. When both sets are
empty the score is defined as 1.0 and the report is flagged vacuous.
"""

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DurationError, ShapeError, ValidationError
from .media_io import AudioSignal, Video
from .peaks import PeakSet
from . import audio_analysis, motion_analysis

# Durations may disagree by up to one frame silently; larger mismatches
# are truncated to the shorter stream with a warning, and beyond this
# fraction of the longer duration alignment is refused.
TRUNCATION_LIMIT = 0.5


@dataclass
class AlignReport:
    score: float
    matched_audio: int
    matched_video: int
    tolerance: int
    audio_peaks: int
    video_peaks: int
    union_size: int
    vacuous: bool = False

    def to_dict(self):
        """The fields in declaration order, the key order of the output."""
        return asdict(self)

    def to_text(self):
        """Line-oriented key=value rendering."""
        return "\n".join(f"{k}={v}" for k, v in self.to_dict().items())

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def av_align_score(audio_peaks, video_peaks, tolerance=1):
    """Score two peak sets. tolerance is in frames (>= 0)."""
    if tolerance < 0:
        raise ValidationError("tolerance must be >= 0")
    a, v = PeakSet(audio_peaks), PeakSet(video_peaks)
    union = len(set(a.indices) | set(v.indices))
    if union == 0:
        return AlignReport(1.0, 0, 0, int(tolerance), 0, 0, 0, vacuous=True)
    near = np.abs(np.subtract.outer(a.indices, v.indices)) <= tolerance
    matched_a = int(near.any(axis=1).sum())
    matched_v = int(near.any(axis=0).sum())
    score = (matched_a + matched_v) / (2.0 * union)
    return AlignReport(score, matched_a, matched_v, int(tolerance),
                       len(a), len(v), union)


def av_align_from_media(video, audio, peak_params=None, flow_params=None,
                        tolerance=1, fps_override=None, onset_win=1024,
                        motion=None, onsets=None):
    """Full pipeline: media in, alignment report out.

    One peak_params (PeakPickParams) picks the peaks of both the audio
    flux and the motion curve; onset_win is the STFT window in samples.
    Durations that disagree by more than one frame are truncated to the
    shorter stream (with a warning); a mismatch beyond half the longer
    duration raises DurationError.

    motion, if given, is the video's full-length
    motion_analysis.motion_curve(video, flow_params), so a caller that
    scores one video against several audios solves its flow once. The
    flow of a frame pair depends only on that pair, so the curve of a
    truncated video is a prefix of it. With motion given, only the
    video's frame_count and fps are read: any object that has those two
    will do, and no frames need to be held.

    onsets, if given, are the audio's onsets as this function detects
    them: audio_analysis.detect_onsets(cut, fps, peak_params,
    n_frames=n, win=onset_win), where n and cut are the frame count and
    audio that _reconcile_durations gives. So a caller can detect them
    elsewhere, or earlier. With onsets given, only the audio's duration
    and sample_rate are read.
    """
    fps = fps_override if fps_override is not None else video.fps
    if fps <= 0:
        raise ValidationError("fps must be positive")
    if motion is not None and len(motion) != video.frame_count:
        raise ShapeError(f"motion curve has {len(motion)} entries for "
                         f"{video.frame_count} frames")
    if onsets is None:
        n_frames, audio = _reconcile_durations(video.frame_count, audio, fps)
        onsets = audio_analysis.detect_onsets(
            audio, fps, peak_params, n_frames=n_frames, win=onset_win)
    else:
        n_frames, _ = _scored_lengths(video.frame_count, audio, fps)
    if motion is None:
        motion = motion_analysis.motion_curve(
            Video(video.frames[:n_frames], video.fps_num, video.fps_den),
            flow_params)
    peaks = motion_analysis.detect_motion_peaks(motion[:n_frames],
                                                peak_params)
    return av_align_score(onsets, peaks, tolerance)


def _reconcile_durations(frame_count, audio, fps):
    """The frame count and audio to score a video of frame_count frames
    at fps against audio: both cut to the shorter stream, or as given
    when they differ by at most one frame."""
    n_frames, n_samples = _scored_lengths(frame_count, audio, fps)
    if n_samples is not None:
        audio = AudioSignal(audio.samples[:n_samples], audio.sample_rate)
    return n_frames, audio


def _scored_lengths(frame_count, audio, fps):
    """The frame and sample counts _reconcile_durations cuts to, with
    None for samples when the audio is scored whole. Only the audio's
    duration and sample_rate are read."""
    video_dur = frame_count / fps
    audio_dur = audio.duration
    mismatch = abs(video_dur - audio_dur)
    if mismatch <= 1.0 / fps:
        return frame_count, None
    longer = max(video_dur, audio_dur)
    if mismatch > TRUNCATION_LIMIT * longer:
        raise DurationError(
            f"durations differ by {mismatch:.3f}s "
            f"(video {video_dur:.3f}s, audio {audio_dur:.3f}s), "
            f"beyond the truncation policy")
    warnings.warn(
        f"durations differ by {mismatch:.3f}s; truncating to the shorter "
        f"stream", stacklevel=3)
    shorter = min(video_dur, audio_dur)
    n_frames = min(frame_count, max(2, int(np.floor(shorter * fps + 1e-9))))
    return n_frames, max(1, int(round(shorter * audio.sample_rate)))
