"""Binary exchange formats: WAV audio, raw video, and tensor files.

All custom containers are little-endian with IEEE-754 binary32 payloads:

  RVID     magic "RVID", u32 width, height, frame_count, fps_num,
           fps_den, then frame_count frames of width*height*3 RGB bytes,
           row-major from the top-left.
  TTE1     magic "TTE1", u32 L, H_layers, d, then L*H_layers*d float32
           values in (segment, layer, channel) order.
  TTC1     magic "TTC1", u32 L, tokens_per_frame, token_dim, then values
           in (frame, token, channel) order. TTE1 and TTC1 differ only in
           their magic and share one codec (_read/_write_tensor3).
  TTCKPT1  magic "TTCKPT1", u32 record_count, then per record:
           u32 name_len, UTF-8 name, u32 ndim, u32 dims..., float32
           values in C order. Used for named parameter checkpoints.

WAV support is limited to RIFF/WAVE PCM 16-bit, mono or stereo. Decoding
normalizes by 32768 (stereo is averaged to mono before normalization).

read_video also accepts a directory of binary PPM (P6) frames listed by
a UTF-8 manifest.txt whose first line is "fps <num> <den>" followed by
one frame filename per line.

Every fixed-layout payload is read by _read_exact into one buffer, so
an RVID read holds the file plus at most one READ_PIECE, and its frames
are that buffer; a tensor file also holds its float64 widening.
"""

import math
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError, ValidationError
from .numerics import require_finite

PCM_SCALE = 32768.0
READ_PIECE = 1 << 20


@dataclass
class AudioSignal:
    """Mono audio samples in [-1, 1] at an integer sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = require_finite(self.samples, "audio samples")
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValidationError("audio must be a nonempty 1-d array")
        if self.sample_rate <= 0:
            raise ValidationError("sample rate must be positive")
        if max(self.samples.max(), -self.samples.min()) > 1.0:
            raise ValidationError("audio samples must lie in [-1, 1]")

    @property
    def duration(self):
        return self.samples.size / self.sample_rate


@dataclass
class Video:
    """RGB frame stack (frame_count, height, width, 3) uint8 at a
    rational frame rate fps_num/fps_den."""

    frames: np.ndarray
    fps_num: int
    fps_den: int = 1

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.uint8)
        if self.frames.ndim != 4 or self.frames.shape[3] != 3:
            raise ShapeError("frames must have shape (L, H, W, 3)")
        if self.frames.shape[0] < 1:
            raise ValidationError("video needs at least one frame")
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise ValidationError("fps must be positive")

    @property
    def frame_count(self):
        return self.frames.shape[0]

    @property
    def fps(self):
        return self.fps_num / self.fps_den

    @property
    def duration(self):
        return self.frame_count / self.fps


@dataclass
class AVPair:
    """A decoded video together with its mono audio track."""

    video: Video
    audio: AudioSignal


@dataclass
class AudioEmbeddings:
    """Per-segment tensors (L, H_layers, d): encoder activations, and
    the pseudo text tokens the adapter maps them to (tempo_tokens)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = require_finite(self.values, "embeddings")
        if self.values.ndim != 3:
            raise ShapeError("embeddings must have shape (L, H_layers, d)")
        if self.segments < 1:
            raise ValidationError("embeddings need at least one segment")

    @property
    def segments(self):
        return self.values.shape[0]

    @property
    def flat(self):
        """(L, H_layers*d) view used by pooling and conditioning."""
        return self.values.reshape(self.segments, -1)


@dataclass
class ConditionFile:
    """Per-frame conditioning tokens, as built by tempo_tokens and stored
    in a TTC1 file."""

    values: np.ndarray  # (L, tokens_per_frame, token_dim)

    def __post_init__(self):
        self.values = require_finite(self.values, "condition values")
        if self.values.ndim != 3:
            raise ShapeError("condition values must be (L, tokens, dim)")

    @property
    def frame_count(self):
        return self.values.shape[0]

    @property
    def tokens_per_frame(self):
        return self.values.shape[1]


def _read_exact(fh, n, what):
    """n bytes of fh as a writable bytearray grown by reads of at most
    READ_PIECE, so a size declared beyond the end of the input fails
    before it is allocated, and a pipe reads like a file."""
    buf = bytearray()
    while len(buf) < n:
        piece = fh.read(min(n - len(buf), READ_PIECE))
        if not piece:
            raise FormatError(
                f"truncated file: {what} has {len(buf)} of {n} bytes")
        buf += piece
    return buf


def _read_array(fh, dtype, shape, what):
    """The next bytes of fh as a writable array of dtype and shape, a
    view of _read_exact's buffer."""
    buf = _read_exact(fh, np.dtype(dtype).itemsize * math.prod(shape), what)
    return np.frombuffer(buf, dtype).reshape(shape)


def _read_u32(fh, count, what):
    return struct.unpack(f"<{count}I", _read_exact(fh, 4 * count, what))


def _read_header(fh, magic, fields):
    """The u32 header fields that follow the magic fh must start with."""
    found = _read_exact(fh, len(magic), "magic")
    if found != magic:
        raise FormatError(f"bad magic {bytes(found)!r}, expected {magic!r}")
    return _read_u32(fh, fields, f"{magic.decode()} header")


def _check_end(fh, what):
    if fh.read(1):
        raise FormatError(f"trailing bytes after {what}")


def read_text_lines(path, encoding):
    """The stripped nonblank lines of a text file in encoding. A line
    that holds a NUL byte, which no file name can, is refused."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not {encoding} text") from None
    for lineno, line in enumerate(lines, 1):
        if "\0" in line:
            raise FormatError(f"{path} line {lineno} holds a NUL byte")
    return [line.strip() for line in lines if line.strip()]


def _skip(fh, n):
    """Read and drop up to n bytes in pieces of at most READ_PIECE,
    stopping quietly at the end of the input. Reading rather than
    seeking keeps pipes readable."""
    while n > 0:
        piece = fh.read(min(n, READ_PIECE))
        if not piece:
            return
        n -= len(piece)


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def read_wav(path):
    """Decode a PCM-16 RIFF/WAVE file to a normalized mono AudioSignal."""
    with open(path, "rb") as fh:
        header = _read_exact(fh, 12, "RIFF header")
        if header[0:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise FormatError("not a RIFF/WAVE file")
        fmt = None
        data = None
        while True:
            chunk_header = fh.read(8)
            if len(chunk_header) == 0:
                break
            if len(chunk_header) != 8:
                raise FormatError("truncated chunk header")
            chunk_id, size = struct.unpack("<4sI", chunk_header)
            if chunk_id == b"fmt ":
                payload = _read_exact(fh, size, "fmt chunk")
                if size < 16:
                    raise FormatError("fmt chunk too short")
                fmt = struct.unpack("<HHIIHH", payload[:16])
            elif chunk_id == b"data":
                data = _read_exact(fh, size, "data chunk")
            else:
                _skip(fh, size)
            if size % 2 == 1:  # chunks are word-aligned
                _skip(fh, 1)

    if fmt is None or data is None:
        raise FormatError("missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise FormatError(f"unsupported codec {audio_format} (PCM only)")
    if bits != 16:
        raise FormatError(f"unsupported bit depth {bits} (16-bit only)")
    if channels not in (1, 2):
        raise FormatError(f"unsupported channel count {channels}")
    frame_bytes = 2 * channels
    if len(data) == 0 or len(data) % frame_bytes != 0:
        raise FormatError("data chunk length inconsistent with frame size")

    # peak memory: the raw bytes are dropped once widened, and the
    # scaling is in place
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
    del data
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    samples /= PCM_SCALE
    return AudioSignal(samples, int(sample_rate))


def write_wav(signal, path):
    """Encode an AudioSignal as mono PCM-16 RIFF/WAVE."""
    clipped = np.clip(signal.samples, -1.0, 1.0)
    pcm = np.clip(np.rint(clipped * PCM_SCALE), -32768, 32767).astype("<i2")
    # the canonical 44-byte header: RIFF, a 16-byte fmt chunk, data
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes,
                         b"WAVE", b"fmt ", 16, 1, 1, signal.sample_rate,
                         signal.sample_rate * 2, 2, 16, b"data", pcm.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm)


# ---------------------------------------------------------------------------
# RVID and PPM directories
# ---------------------------------------------------------------------------

def write_video(video, path):
    count, height, width, _ = video.frames.shape
    with open(path, "wb") as fh:
        fh.write(b"RVID" + struct.pack("<5I", width, height, count,
                                       video.fps_num, video.fps_den))
        fh.write(np.ascontiguousarray(video.frames))


def read_video(path):
    """Read an RVID file, or a PPM frame directory with a manifest."""
    if os.path.isdir(path):
        return _read_video_ppm_dir(path)
    with open(path, "rb") as fh:
        width, height, frame_count, fps_num, fps_den = _read_header(
            fh, b"RVID", 5)
        if min(width, height, frame_count, fps_num, fps_den) < 1:
            raise FormatError("RVID header fields must be positive")
        frames = _read_array(fh, np.uint8, (frame_count, height, width, 3),
                             "RVID frames")
        _check_end(fh, "RVID frames")
    return Video(frames, fps_num, fps_den)


def _read_ppm(path):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise FormatError(f"{path}: cannot read PPM frame: {exc}") from None
    # exactly one whitespace byte ends the header: pixels may be any byte
    header = re.match(rb"P6\s+(\d{1,9})\s+(\d{1,9})\s+(\d{1,9})\s", blob)
    if header is None:
        raise FormatError(f"{path}: not a binary P6 PPM")
    width, height, maxval = (int(field) for field in header.groups())
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported")
    pixels = blob[header.end():]
    if len(pixels) != width * height * 3:
        raise FormatError(f"{path}: PPM payload length mismatch")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)


def _read_video_ppm_dir(dirpath):
    manifest = os.path.join(dirpath, "manifest.txt")
    if not os.path.exists(manifest):
        raise FormatError(f"{dirpath}: missing manifest.txt")
    lines = read_text_lines(manifest, "utf-8")
    if not lines or not lines[0].startswith("fps "):
        raise FormatError("manifest must start with 'fps <num> <den>'")
    try:
        _, num, den = lines[0].split()
        fps_num, fps_den = int(num), int(den)
    except ValueError as exc:
        raise FormatError("bad fps line in manifest") from exc
    names = lines[1:]
    if not names:
        raise FormatError("manifest lists no frames")
    frames = [_read_ppm(os.path.join(dirpath, name)) for name in names]
    shapes = {f.shape for f in frames}
    if len(shapes) != 1:
        raise FormatError("PPM frames have inconsistent dimensions")
    return Video(np.stack(frames), fps_num, fps_den)


def write_video_ppm(video, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    names = []
    height, width = video.frames.shape[1:3]
    for i in range(video.frame_count):
        name = f"frame_{i:06d}.ppm"
        names.append(name)
        with open(os.path.join(dirpath, name), "wb") as fh:
            fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
            fh.write(np.ascontiguousarray(video.frames[i]))
    with open(os.path.join(dirpath, "manifest.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"fps {video.fps_num} {video.fps_den}\n")
        fh.write("\n".join(names) + "\n")


# ---------------------------------------------------------------------------
# TTE1 embeddings and TTC1 conditioning tokens
# ---------------------------------------------------------------------------

def _write_tensor3(values, magic, path):
    """Write a 3-d float32 tensor after its magic and three u32 sizes."""
    try:
        values = np.asarray(values, dtype="<f4")
    except ValueError as exc:
        raise ValidationError("tensor rows differ in length") from exc
    if values.ndim != 3:
        raise ValidationError(f"tensor must be 3-d, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValidationError("tensor contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<3I", *values.shape))
        fh.write(np.ascontiguousarray(values))


def _read_tensor3(path, magic):
    """The float64 values of a file written by _write_tensor3; the
    caller's container rejects non-finite values."""
    what = f"{magic.decode()} values"
    with open(path, "rb") as fh:
        shape = _read_header(fh, magic, 3)
        values = _read_array(fh, "<f4", shape, what).astype(np.float64)
        _check_end(fh, what)
    return values


def write_embeddings(emb, path):
    _write_tensor3(emb.values, b"TTE1", path)


def read_embeddings(path):
    return AudioEmbeddings(_read_tensor3(path, b"TTE1"))


def write_condition(cond, path):
    """Write per-frame conditioning tokens (anything with .values, or a
    raw nested sequence) as a TTC1 file."""
    _write_tensor3(getattr(cond, "values", cond), b"TTC1", path)


def read_condition(path):
    return ConditionFile(_read_tensor3(path, b"TTC1"))


# ---------------------------------------------------------------------------
# TTCKPT1 named tensor records
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"TTCKPT1"


def write_named_tensors(records, path):
    """Write an ordered mapping of name -> array as a TTCKPT1 file."""
    items = list(records.items())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(items)))
        for name, array in items:
            array = np.asarray(array, dtype="<f4")
            if not np.all(np.isfinite(array)):
                raise ValidationError(f"record {name!r} has non-finite values")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded)
            fh.write(struct.pack(f"<{array.ndim + 1}I", array.ndim,
                                 *array.shape))
            fh.write(np.ascontiguousarray(array))


def read_named_tensors(path):
    with open(path, "rb") as fh:
        (count,) = _read_header(fh, CHECKPOINT_MAGIC, 1)
        records = {}
        for _ in range(count):
            (name_len,) = _read_u32(fh, 1, "name size")
            try:
                name = _read_exact(fh, name_len, "record name").decode()
            except UnicodeDecodeError:
                raise FormatError(f"{path}: record name not UTF-8") from None
            (ndim,) = _read_u32(fh, 1, "rank")
            shape = _read_u32(fh, ndim, "dims")
            records[name] = require_finite(
                _read_array(fh, "<f4", shape, f"record {name}").astype(
                    np.float64), f"record {name!r}")
        _check_end(fh, "final record")
    return records
