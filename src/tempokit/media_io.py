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

Every WAV and tensor payload is read by _read_exact into one buffer
grown by pieces of at most READ_PIECE; a tensor file also holds its
float64 widening. read_video reads the listed frames, by default all,
one way. An RVID must be a regular file (any other path but a directory
is refused unopened) whose size matches its header; each frame then
sits at a fixed offset, so each run of consecutive frames is one read
into the Video's buffer, which holds those frames and nothing more. A
PPM directory reads its first frame once, and each listed frame's file
into one buffer of the first frame's size, which all must have; its
manifest and frame files must be regular files too.

A binary writer encodes its whole file, headers by pack_header (the one
u32 rule: whole numbers below 2^32) and floats by encode_float32, before
_write opens it, so a value it refuses leaves no file.
"""

import math
import os
import re
import struct
from dataclasses import dataclass
from typing import NamedTuple

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


def pack_header(what, fmt, *fields):
    """struct.pack(fmt, *fields), refusing a field its format cannot hold."""
    try:
        return struct.pack(fmt, *fields)
    except struct.error:
        raise ValidationError(f"{what} must be whole numbers below 2^32"
                              ) from None


def encode_float32(values, what):
    """values as a C-order "<f4" array of the same shape, 0-d included;
    a value that is not finite as float32 (NaN, inf, 1e300) is refused."""
    with np.errstate(over="ignore"):  # the check below refuses the inf
        values = np.asarray(values, dtype="<f4", order="C")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} has values not finite in float32")
    return values


def _write(path, parts):
    """The one place a binary writer opens its file."""
    with open(path, "wb") as fh:
        fh.writelines(parts)


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
    _write(path, [pack_header(
        "WAV sizes and rates", "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes,
        b"WAVE", b"fmt ", 16, 1, 1, signal.sample_rate,
        signal.sample_rate * 2, 2, 16, b"data", pcm.nbytes), pcm])


# ---------------------------------------------------------------------------
# RVID and PPM directories
# ---------------------------------------------------------------------------

def write_video(video, path):
    """Write an RVID file; like read_video, refuse a frame of no pixels."""
    count, height, width, _ = video.frames.shape
    header = pack_header("RVID sizes and fps", "<4s5I", b"RVID", width,
                         height, count, video.fps_num, video.fps_den)
    if height < 1 or width < 1:
        raise ValidationError(f"RVID frames of {width}x{height} are empty")
    _write(path, [header, np.ascontiguousarray(video.frames)])


class VideoHeader(NamedTuple):
    """The sizes and frame rate of a video, as read_video_header finds
    them."""
    frame_count: int
    height: int
    width: int
    fps_num: int
    fps_den: int


def _read_rvid_header(fh):
    """The VideoHeader of the RVID file fh, checked against the file's
    size, which must be exactly that of its frames, so that each frame
    can be read at its offset."""
    width, height, count, fps_num, fps_den = _read_header(fh, b"RVID", 5)
    if min(width, height, count, fps_num, fps_den) < 1:
        raise FormatError("RVID header fields must be positive")
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    need = count * height * width * 3
    if have < need:
        raise FormatError(
            f"truncated file: RVID frames has {have} of {need} bytes")
    if have > need:
        raise FormatError("trailing bytes after RVID frames")
    return VideoHeader(count, height, width, fps_num, fps_den)


def _frame_indices(frames, count):
    """frames as a list of ints, every frame if frames is None, each
    one refused unless it is a frame of a video of count frames."""
    frames = [int(i) for i in (range(count) if frames is None else frames)]
    for i in frames:
        if not 0 <= i < count:
            raise FormatError(f"no frame {i} in a video of {count} frames")
    return frames


def _read_rvid_frames(fh, header, frames):
    """The listed frames of the RVID file fh, just past its checked
    header, each run of consecutive indices in one read into a buffer
    that holds the frames and nothing more."""
    frames = _frame_indices(frames, header.frame_count)
    shape = (header.height, header.width, 3)
    frame_bytes = math.prod(shape)
    runs = []  # [first, stop) of each run of consecutive indices
    for i in frames:
        if runs and runs[-1][1] == i:
            runs[-1][1] += 1
        else:
            runs.append([i, i + 1])
    offset, buf, at = fh.tell(), bytearray(len(frames) * frame_bytes), 0
    with memoryview(buf) as view:
        for first, stop in runs:
            need = (stop - first) * frame_bytes
            fh.seek(offset + first * frame_bytes)
            have = fh.readinto(view[at:at + need])
            if have != need:  # cut short since its size was checked
                raise FormatError(f"truncated file: RVID frames has "
                                  f"{have} of {need} bytes")
            at += need
    return np.frombuffer(buf, np.uint8).reshape(len(frames), *shape)


def _refuse_special(path, what="a regular file"):
    """Refuse, before it is opened, a path that exists but is not a
    regular file, such as a FIFO, whose open waits for a writer."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise FormatError(f"{path} is not {what}")


def _is_ppm_dir(path):
    """Whether path is a PPM directory rather than an RVID file; a path
    that is neither is refused unopened."""
    if os.path.isdir(path):
        return True
    _refuse_special(path, "a regular file or a PPM directory")
    return False


def read_video_header(path):
    """The VideoHeader of an RVID file or a PPM frame directory (whose
    first frame sets its size), checked as read_video checks it."""
    if _is_ppm_dir(path):
        fps_num, fps_den, names = _read_manifest(path)
        height, width, _ = _read_ppm(os.path.join(path, names[0])).shape
        return VideoHeader(len(names), height, width, fps_num, fps_den)
    with open(path, "rb") as fh:
        return _read_rvid_header(fh)


def read_video(path, frames=None):
    """The listed frames (by default all, in the listed order) of an
    RVID file, whose size must match its header before any frame is
    read, or of a PPM frame directory with a manifest, whose read frames
    must have its first frame's size."""
    if _is_ppm_dir(path):
        return _read_video_ppm_dir(path, frames)
    with open(path, "rb") as fh:
        header = _read_rvid_header(fh)
        pixels = _read_rvid_frames(fh, header, frames)
    return Video(pixels, header.fps_num, header.fps_den)


def _read_ppm(path):
    _refuse_special(path)
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
    if len(blob) - header.end() != width * height * 3:
        raise FormatError(f"{path}: PPM payload length mismatch")
    return np.frombuffer(blob, np.uint8, offset=header.end()).reshape(
        height, width, 3)


def _read_manifest(dirpath):
    """fps_num, fps_den and the frame file names of a PPM directory."""
    manifest = os.path.join(dirpath, "manifest.txt")
    if not os.path.exists(manifest):
        raise FormatError(f"{dirpath}: missing manifest.txt")
    _refuse_special(manifest)
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
    return fps_num, fps_den, names


def _read_video_ppm_dir(dirpath, frames):
    """The listed frames of a PPM directory, each read into one buffer
    sized by the first frame, whose size all must have."""
    fps_num, fps_den, names = _read_manifest(dirpath)
    frames = _frame_indices(frames, len(names))
    first = _read_ppm(os.path.join(dirpath, names[0]))
    pixels = np.empty((len(frames), *first.shape), np.uint8)
    for j, i in enumerate(frames):
        frame = _read_ppm(os.path.join(dirpath, names[i])) if i else first
        if frame.shape != first.shape:
            raise FormatError("PPM frames have inconsistent dimensions")
        pixels[j] = frame
    return Video(pixels, fps_num, fps_den)


def write_video_ppm(video, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    height, width = video.frames.shape[1:3]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    names = [f"frame_{i:06d}.ppm" for i in range(video.frame_count)]
    for name, frame in zip(names, video.frames):
        _write(os.path.join(dirpath, name),
               [header, np.ascontiguousarray(frame)])
    with open(os.path.join(dirpath, "manifest.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"fps {video.fps_num} {video.fps_den}\n")
        fh.write("\n".join(names) + "\n")


# ---------------------------------------------------------------------------
# TTE1 embeddings and TTC1 conditioning tokens
# ---------------------------------------------------------------------------

def _write_tensor3(values, magic, path):
    """Write a 3-d tensor as float32 after its magic and three u32 sizes."""
    values = encode_float32(values, f"{magic.decode()} tensor")
    _write(path, [pack_header(f"{magic.decode()} sizes", "<4s3I", magic,
                              *values.shape), values])


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
    _write_tensor3(cond.values, b"TTC1", path)


def read_condition(path):
    return ConditionFile(_read_tensor3(path, b"TTC1"))


# ---------------------------------------------------------------------------
# TTCKPT1 named tensor records
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"TTCKPT1"


def write_named_tensors(records, path):
    """Write an ordered mapping of name -> array as a TTCKPT1 file."""
    parts = [CHECKPOINT_MAGIC, pack_header("record count", "<I", len(records))]
    for name, array in records.items():
        try:
            encoded = name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"record name {name!r} not UTF-8") from None
        array = encode_float32(array, f"record {name!r}")
        parts += [pack_header(f"record {name!r} sizes",
                              f"<I{len(encoded)}s{array.ndim + 1}I",
                              len(encoded), encoded, array.ndim,
                              *array.shape), array]
    _write(path, parts)


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
            if name in records:
                raise FormatError(f"{path}: record {name!r} appears twice")
            (ndim,) = _read_u32(fh, 1, "rank")
            shape = _read_u32(fh, ndim, "dims")
            records[name] = require_finite(
                _read_array(fh, "<f4", shape, f"record {name}").astype(
                    np.float64), f"record {name!r}")
        _check_end(fh, "final record")
    return records
