"""Synthetic audio-video pairs with known event times.

Videos show a soft-edged ball on a dark background. In "bounce" mode it
follows parabolic arcs that hit the floor exactly at the event frames;
each impact also applies a one-frame horizontal recoil jolt so the mean
flow magnitude has a sharp, unambiguous maximum at the impact frame. In
"flash" mode a stationary disk lights up at the event frame and decays
over the next two. A frame starts as BACKGROUND and only the disk's
bounding box is blended: beyond the soft edge a pixel keeps BACKGROUND
exactly, so the bytes are those of a blend over the whole frame.

Audio is a 2 kHz exponentially decaying click (30 ms, -6 dBFS) per
event. Clicks are centered half a frame after the visual event so the
spectral-flux column whose window covers the click onset is the event
frame itself: both detectors then report the same index. shift_frames
delays the audio events relative to the video ones.

Inter-event gaps are drawn from {min_gap+2, min_gap+3} frames (min_gap
is the 0.25 s spacing floor), so a shift of about half a second can
never re-align shifted clicks with neighboring video events.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .media_io import (AudioSignal, AVPair, Video, write_video, write_wav)
from .numerics import Rng

_KEY_EVENTS = 11
_KEY_VISUAL = 12
_KEY_CLIP = 13

CLICK_FREQ_HZ = 2000.0
CLICK_DURATION_S = 0.030
CLICK_DECAY_S = 0.008
CLICK_AMPLITUDE = 0.5  # -6 dBFS
BALL_RADIUS = 5.0
BALL_SOFT_EDGE = 2.5
RECOIL_PX = 5.0
BACKGROUND = 30


@dataclass
class SynthConfig:
    width: int = 64
    height: int = 64
    fps: int = 24
    duration: float = 4.0
    sample_rate: int = 16000
    n_events: int = 6
    event_kind: str = "bounce"  # or "flash"
    shift_frames: int = 0
    seed: int = 0

    def __post_init__(self):
        if min(self.width, self.height) < 24:
            raise ValidationError("frames must be at least 24x24")
        if (self.fps <= 0 or self.sample_rate <= 0
                or not 0 < self.duration < np.inf):  # NaN fails too
            raise ValidationError(
                "fps, duration, sample_rate must be finite and > 0")
        if self.n_events < 1:
            raise ValidationError("need at least one event")
        if self.event_kind not in ("bounce", "flash"):
            raise ValidationError(f"unknown event kind {self.event_kind!r}")

    @property
    def frame_count(self):
        return int(round(self.duration * self.fps))

    @property
    def sample_count(self):
        return int(round(self.duration * self.sample_rate))


def _draw_events(config, rng):
    """Event frames with controlled gaps; raises if they cannot fit."""
    min_gap = int(np.ceil(0.25 * config.fps))
    pool = (min_gap + 2, min_gap + 3)
    first = min_gap + 2 + int(rng.integers(0, 4))
    events = [first]
    for _ in range(config.n_events - 1):
        events.append(events[-1] + pool[int(rng.integers(0, 2))])
    last_frame = config.frame_count - 1
    if events[-1] + max(0, config.shift_frames) > last_frame - 1:
        raise ValidationError(
            f"{config.n_events} events with shift {config.shift_frames} "
            f"do not fit in {config.frame_count} frames")
    if events[0] + min(0, config.shift_frames) < 2:
        raise ValidationError("negative shift pushes events before start")
    return events


def _ball_positions(config, events, rng):
    """Per-frame (x, y) ball centers for bounce mode.

    y is height above the floor line. Arcs are parabolas whose impact
    speeds shrink geometrically; the horizontal recoil at each impact is
    folded into the x track.
    """
    frames = config.frame_count
    floor_margin = BALL_RADIUS + BALL_SOFT_EDGE + 1
    y = np.zeros(frames)

    speeds = 4.0 * 0.92 ** np.arange(len(events))
    # segment before the first event: rest at apex, then fall
    fall_len = max(2, int(round(2.0 * 10.0 / speeds[0])))
    fall_len = min(fall_len, events[0])
    h_first = speeds[0] * fall_len / 2.0
    start = events[0] - fall_len
    y[:start] = h_first
    for f in range(start, events[0] + 1):
        tau = (f - start) / fall_len
        y[f] = h_first * (1.0 - tau * tau)

    # full arcs between consecutive events
    for k in range(len(events) - 1):
        lo, hi = events[k], events[k + 1]
        span = hi - lo
        h_arc = speeds[k + 1] * span / 4.0
        for f in range(lo, hi + 1):
            tau = (f - lo) / span
            y[f] = 4.0 * h_arc * tau * (1.0 - tau)

    # the final impact is a dead stop: a perfectly still tail cannot
    # contribute quantization-noise motion peaks
    y[events[-1]:] = 0.0

    # horizontal track: still except for one-frame recoil jolts at the
    # impacts (anything smoothly non-monotone here would plant motion
    # peaks away from the events)
    margin = BALL_RADIUS + BALL_SOFT_EDGE + 2
    x = np.full(frames, config.width / 2.0 + float(rng.uniform(-6, 6)))
    jolts = np.zeros(frames)
    offset = 0.0
    for e in events:
        direction = 1.0 if x[e] + offset < config.width / 2.0 else -1.0
        direction *= 1.0 if rng.uniform() < 0.85 else -1.0
        offset += direction * RECOIL_PX
        jolts[e:] += direction * RECOIL_PX
    x = np.clip(x + jolts, margin, config.width - margin)

    floor_y = config.height - floor_margin
    return x, floor_y - y


def _span(center, reach, size):
    """The pixels within reach of center along one axis, clipped to
    [0, size), as a slice."""
    lo = min(max(int(np.floor(center - reach)), 0), size)
    hi = min(max(int(np.ceil(center + reach)) + 1, lo), size)
    return slice(lo, hi)


def _paint_disk(frame, cx, cy, radius, color):
    """Blend a soft-edged disk into a uint8 frame that holds BACKGROUND.

    Beyond radius + BALL_SOFT_EDGE alpha clips to 0 and the blend leaves
    BACKGROUND exactly, so only the disk's bounding box, clipped to the
    frame, is computed and written.
    """
    h, w, _ = frame.shape
    reach = radius + BALL_SOFT_EDGE
    rows, cols = _span(cy, reach, h), _span(cx, reach, w)
    dist = np.sqrt((np.arange(cols.start, cols.stop) - cx) ** 2
                   + ((np.arange(rows.start, rows.stop) - cy) ** 2)[:, None])
    alpha = np.clip((reach - dist) / BALL_SOFT_EDGE, 0, 1)
    background = float(BACKGROUND)
    blended = background + alpha[..., None] * (color - background)
    frame[rows, cols] = np.clip(np.rint(blended), 0, 255).astype(np.uint8)


def _render_bounce(config, events, rng):
    xs, ys = _ball_positions(config, events, rng)
    color = np.array([235.0, 225.0, 200.0])
    frames = np.full((config.frame_count, config.height, config.width, 3),
                     BACKGROUND, dtype=np.uint8)
    for f in range(config.frame_count):
        _paint_disk(frames[f], xs[f], ys[f], BALL_RADIUS, color)
    return frames


def _render_flash(config, events, rng):
    cx = config.width / 2.0 + float(rng.uniform(-4, 4))
    cy = config.height / 2.0 + float(rng.uniform(-4, 4))
    brightness = np.full(config.frame_count, 60.0)
    for e in events:
        brightness[e] = 255.0
        if e + 1 < config.frame_count:
            brightness[e + 1] = 160.0
        if e + 2 < config.frame_count:
            brightness[e + 2] = 100.0
    frames = np.full((config.frame_count, config.height, config.width, 3),
                     BACKGROUND, dtype=np.uint8)
    for f in range(config.frame_count):
        color = np.array([1.0, 0.95, 0.8]) * brightness[f]
        _paint_disk(frames[f], cx, cy, 8.0, color)
    return frames


def _click_track(config, audio_events):
    samples = np.zeros(config.sample_count)
    n_click = int(CLICK_DURATION_S * config.sample_rate)
    t = np.arange(n_click) / config.sample_rate
    click = (CLICK_AMPLITUDE * np.sin(2.0 * np.pi * CLICK_FREQ_HZ * t)
             * np.exp(-t / CLICK_DECAY_S))
    for e in audio_events:
        onset = int(round((e + 0.5) * config.sample_rate / config.fps))
        stop = min(onset + n_click, samples.size)
        if stop > onset >= 0:
            samples[onset:stop] += click[:stop - onset]
    return AudioSignal(np.clip(samples, -1.0, 1.0), config.sample_rate)


def generate(config, rng=None):
    """Build one synthetic pair.

    Returns (AVPair, video_event_frames); the audio events sit at
    video_event_frames + shift_frames by construction. Output is
    bit-identical for a fixed seed.
    """
    if rng is None:
        rng = Rng(config.seed)
    events = _draw_events(config, rng.derive(_KEY_EVENTS))
    if config.event_kind == "bounce":
        frames = _render_bounce(config, events, rng.derive(_KEY_VISUAL))
    else:
        frames = _render_flash(config, events, rng.derive(_KEY_VISUAL))
    video = Video(frames, config.fps, 1)
    audio_events = [e + config.shift_frames for e in events]
    audio = _click_track(config, audio_events)
    return AVPair(video, audio), tuple(events)


def corpus(config, n_clips, out_dir):
    """Write n_clips RVID+WAV+event files plus a manifest.

    The manifest has one line per clip: "<rvid> <wav> <events>". Event
    files hold the video event frame indices, one per line (audio events
    are those plus shift_frames). Regenerating with the same config is
    byte-identical.
    """
    if n_clips < 1:
        raise ValidationError("n_clips must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    root = Rng(config.seed)
    lines = []
    for i in range(n_clips):
        pair, events = generate(config, root.derive(_KEY_CLIP, i))
        stem = f"clip_{i:04d}"
        write_video(pair.video, os.path.join(out_dir, f"{stem}.rvid"))
        write_wav(pair.audio, os.path.join(out_dir, f"{stem}.wav"))
        with open(os.path.join(out_dir, f"{stem}.events.txt"), "w",
                  encoding="ascii") as fh:
            fh.write("\n".join(str(e) for e in events) + "\n")
        lines.append(f"{stem}.rvid {stem}.wav {stem}.events.txt")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path


def read_corpus(manifest_path):
    """Load a corpus manifest; yields (AVPair, events) per clip.

    Each clip's files are read only when the clip is asked for, so a
    caller that is done with a clip before it asks for the next never
    holds the whole corpus. The manifest itself is read at the first
    clip.
    """
    from .media_io import read_text_lines, read_video, read_wav

    base = os.path.dirname(manifest_path)
    rows = [line.split() for line in read_text_lines(manifest_path, "ascii")]
    for row in rows:
        if len(row) != 3:
            raise ValidationError(f"bad manifest row: {' '.join(row)}")
        video = read_video(os.path.join(base, row[0]))
        audio = read_wav(os.path.join(base, row[1]))
        events_path = os.path.join(base, row[2])
        try:
            events = tuple(map(int, read_text_lines(events_path, "ascii")))
        except ValueError:
            raise FormatError(
                f"{events_path}: an event is not an integer") from None
        yield AVPair(video, audio), events
