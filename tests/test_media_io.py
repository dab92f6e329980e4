import math
import os
import pathlib
import struct
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import no_fd_leak, no_hang
from tempokit.errors import FormatError, ValidationError
from tempokit.media_io import (READ_PIECE, AudioEmbeddings, AudioSignal,
                               ConditionFile, Video, open_video,
                               read_condition, read_embeddings,
                               read_named_tensors, read_video, read_wav,
                               write_condition,
                               write_embeddings, write_named_tensors,
                               write_video, write_video_ppm, write_wav)


def craft_wav(path, pcm, channels=1, sample_rate=16000, audio_format=1,
              bits=16, extra=b""):
    """Hand-rolled WAV writer used as an independent oracle for read_wav.
    extra holds whole chunks to place between the fmt and data chunks."""
    data = pcm.astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", audio_format, channels, sample_rate,
                      sample_rate * 2 * channels, 2 * channels, bits)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += extra
    body += b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestWav:
    def test_one_second_of_silence(self, tmp_path):
        p = tmp_path / "s.wav"
        craft_wav(p, np.zeros(16000, dtype=np.int16))
        sig = read_wav(p)
        assert sig.sample_rate == 16000
        assert sig.samples.size == 16000
        np.testing.assert_array_equal(sig.samples, 0.0)

    def test_positive_full_scale_sample(self, tmp_path):
        p = tmp_path / "m.wav"
        craft_wav(p, np.array([32767], dtype=np.int16))
        assert read_wav(p).samples[0] == 0.999969482421875

    def test_stereo_averaged_before_normalization(self, tmp_path):
        p = tmp_path / "st.wav"
        craft_wav(p, np.array([32767, -32768], dtype=np.int16), channels=2)
        # mean(-0.5) / 32768
        assert read_wav(p).samples[0] == -1.52587890625e-05

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"RIFX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_wav(p)

    def test_non_pcm_codec_rejected(self, tmp_path):
        p = tmp_path / "f.wav"
        craft_wav(p, np.zeros(4, dtype=np.int16), audio_format=3)
        with pytest.raises(FormatError):
            read_wav(p)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        p = tmp_path / "b8.wav"
        craft_wav(p, np.zeros(4, dtype=np.int16), bits=8)
        with pytest.raises(FormatError):
            read_wav(p)

    def test_write_read_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = AudioSignal(rng.uniform(-1, 1, 2000), 8000)
        p = tmp_path / "rt.wav"
        write_wav(sig, p)
        back = read_wav(p)
        assert back.sample_rate == 8000
        np.testing.assert_allclose(back.samples, sig.samples,
                                   atol=1.0 / 32768)

    def test_output_always_in_range(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(5):
            p = tmp_path / f"r{i}.wav"
            craft_wav(p, rng.integers(-32768, 32768, 500).astype(np.int16))
            s = read_wav(p).samples
            assert s.min() >= -1.0 and s.max() <= 1.0


    def test_reads_from_a_pipe(self, tmp_path):
        # a pipe can neither be sized against a declared chunk size nor
        # seeked past a chunk read_wav does not use
        extras = {
            "plain": b"",
            "list": b"LIST" + struct.pack("<I", 4) + b"INFO",
            "odd": b"junk" + struct.pack("<I", 3) + b"abc\x00",  # pad byte
        }
        for name, extra in extras.items():
            path = tmp_path / f"{name}.wav"
            craft_wav(path, np.arange(-3000, 3000, dtype=np.int16),
                      extra=extra)
            fifo = tmp_path / f"{name}.fifo"
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes,
                                      args=(path.read_bytes(),), daemon=True)
            writer.start()
            got = read_wav(fifo)
            writer.join(timeout=10)
            assert not writer.is_alive()
            np.testing.assert_array_equal(got.samples,
                                          read_wav(path).samples)


class TestRvid:
    def test_single_pixel_round_trip(self, tmp_path):
        video = Video(np.array([[[[1, 2, 3]]]], dtype=np.uint8), 24, 1)
        p = tmp_path / "one.rvid"
        write_video(video, p)
        back = read_video(p)
        np.testing.assert_array_equal(back.frames, video.frames)
        assert (back.fps_num, back.fps_den) == (24, 1)

    def test_synthetic_clip_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        video = Video(rng.integers(0, 256, (24, 64, 64, 3), dtype=np.uint8),
                      30000, 1001)
        p = tmp_path / "clip.rvid"
        write_video(video, p)
        back = read_video(p)
        assert back.frames.tobytes() == video.frames.tobytes()
        assert back.fps == pytest.approx(video.fps)

    @pytest.mark.parametrize("frames, fps_num, fps_den", [
        ((1, 2, 2, 3), 2 ** 32, 1), ((1, 2, 2, 3), 24, 2 ** 33),
        ((1, 2 ** 32, 0, 3), 24, 1), ((1, 0, 2 ** 32, 3), 24, 1),
    ], ids=["fps_num", "fps_den", "height", "width"])
    def test_header_field_past_u32_leaves_no_file(self, frames, fps_num,
                                                  fps_den, tmp_path):
        video = Video(np.zeros(frames, np.uint8), fps_num, fps_den)
        with pytest.raises(ValidationError, match="below 2\\^32"):
            write_video(video, tmp_path / "big.rvid")
        assert not (tmp_path / "big.rvid").exists()

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        video = Video(rng.integers(0, 256, (10, 4, 4, 3), dtype=np.uint8), 24)
        p = tmp_path / "trunc.rvid"
        write_video(video, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-4 * 4 * 3])  # drop one frame
        with pytest.raises(FormatError):
            read_video(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        video = Video(np.zeros((1, 2, 2, 3), dtype=np.uint8), 24)
        p = tmp_path / "g.rvid"
        write_video(video, p)
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(FormatError):
            read_video(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "nope.rvid"
        p.write_bytes(b"VIDR" + b"\x00" * 20)
        with pytest.raises(FormatError):
            read_video(p)

    # the first pixel byte of every frame; 9, 10, 13 and 32 are ASCII
    # whitespace, which must not be taken for part of the header
    @pytest.mark.parametrize("first", [0, 9, 10, 13, 32, 255])
    def test_ppm_directory_round_trip(self, first, tmp_path):
        rng = np.random.default_rng(3)
        video = Video(rng.integers(0, 256, (5, 6, 7, 3), dtype=np.uint8),
                      25, 2)
        video.frames[:, 0, 0, 0] = first
        d = tmp_path / "frames"
        write_video_ppm(video, d)
        back = read_video(d)
        np.testing.assert_array_equal(back.frames, video.frames)
        assert (back.fps_num, back.fps_den) == (25, 2)

    @pytest.mark.parametrize("header", [b"P6\n-2 -2\n255\n",
                                        b"P6\n2 2\n-255\n",
                                        b"P6\n2 2\n255"])
    def test_ppm_bad_header_rejected(self, header, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "manifest.txt").write_text("fps 24 1\nf.ppm\n")
        (d / "f.ppm").write_bytes(header + bytes(12))
        with pytest.raises(FormatError):
            read_video(d)


def read_header(path):
    """The VideoHeader that open_video reads of path."""
    with open_video(path) as (header, _):
        return header


class TestFrameReads:
    """read_video(path, frames), and open_video's header and reads."""

    @staticmethod
    def write(kind, video, path):
        (write_video if kind == "rvid" else write_video_ppm)(video, path)

    @pytest.mark.parametrize("kind", ["rvid", "ppm"])
    def test_listed_frames_are_those_of_the_whole_read(self, kind,
                                                       tmp_path):
        frames = np.random.default_rng(5).integers(0, 256, (7, 5, 6, 3),
                                                   dtype=np.uint8)
        p = tmp_path / "v"
        self.write(kind, Video(frames, 30000, 1001), p)
        # one reader reads as often as it is asked, as read_video does
        with open_video(p) as (header, read):
            assert header == (7, 5, 6, 30000, 1001)
            for picked in ([0], [6], [2, 3, 4], [0, 1, 5, 6], [4, 2, 2],
                           range(7), np.arange(3, 5)):
                for part in (read(picked), read_video(p, picked)):
                    assert part.frames.tobytes() == frames[
                        list(picked)].tobytes()
                    assert (part.fps_num, part.fps_den) == (30000, 1001)
        for past in (7, -1):
            with pytest.raises(FormatError, match=(
                    f"^no frame {past} in a video of 7 frames$")):
                read_video(p, [0, past])

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: blob[:-1], "truncated file: RVID frames has 71 of 72 "
                                 "bytes"),
        (lambda blob: blob + b"\0", "trailing bytes after RVID frames"),
    ], ids=["truncated", "trailing"])
    def test_sizes_are_checked_before_any_frame(self, damage, message,
                                                tmp_path):
        p = tmp_path / "v.rvid"
        write_video(Video(np.ones((2, 3, 4, 3), np.uint8), 24), p)
        p.write_bytes(damage(p.read_bytes()))
        for read in (read_video, read_header,
                     lambda path: read_video(path, [0])):
            with pytest.raises(FormatError) as info:
                read(p)
            assert str(info.value) == message

    def test_an_rvid_cut_short_while_open_closes_its_file(self, tmp_path):
        # the size was checked when the reader opened; a frame read then
        # comes back short
        p = tmp_path / "v.rvid"
        write_video(Video(np.ones((2, 3, 4, 3), np.uint8), 24), p)
        with no_fd_leak():
            with pytest.raises(FormatError) as info:
                with open_video(p) as (_, read):
                    read([1])
                    os.truncate(p, p.stat().st_size - 36)
                    read()
            assert str(info.value) == ("truncated file: RVID frames has 36 "
                                       "of 72 bytes")

    def test_a_ppm_frame_of_another_size_closes_every_file(self, tmp_path):
        d = tmp_path / "frames"
        write_video_ppm(Video(np.zeros((3, 4, 5, 3), np.uint8), 24), d)
        (d / "frame_000002.ppm").write_bytes(b"P6\n5 3\n255\n" + bytes(45))
        with no_fd_leak():
            with pytest.raises(FormatError) as info:
                with open_video(d) as (_, read):
                    read([0, 1])
                    read()
            assert str(info.value) == "PPM frames have inconsistent dimensions"

    def test_a_ppm_frame_of_another_size_is_refused(self, tmp_path):
        d = tmp_path / "frames"
        write_video_ppm(Video(np.zeros((3, 4, 5, 3), np.uint8), 24), d)
        (d / "frame_000002.ppm").write_bytes(b"P6\n5 3\n255\n" + bytes(45))
        for picked in (None, [1, 2], [2]):
            with pytest.raises(FormatError,
                               match="PPM frames have inconsistent"):
                read_video(d, picked)
        assert read_video(d, [1]).frames.shape == (1, 4, 5, 3)

    def test_a_fifo_is_refused_before_it_is_opened(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with no_hang(5):
            for read in (read_video, read_header,
                         lambda path: read_video(path, [0])):
                with pytest.raises(FormatError) as info:
                    read(fifo)
                assert str(info.value) == (
                    f"{fifo} is not a regular file or a PPM directory")

    @pytest.mark.parametrize("name", ["manifest.txt", "frame_000000.ppm",
                                      "frame_000002.ppm"])
    def test_a_fifo_in_a_ppm_directory_is_refused_unopened(self, name,
                                                           tmp_path):
        d = tmp_path / "frames"
        write_video_ppm(Video(np.zeros((3, 4, 5, 3), np.uint8), 24), d)
        (d / name).unlink()
        os.mkfifo(d / name)
        reads = [read_video, lambda path: read_video(path, [2])]
        if name != "frame_000002.ppm":  # the header reads frame 0 alone
            reads.append(read_header)
        start = time.monotonic()
        with no_hang(5):
            for read in reads:
                with pytest.raises(FormatError) as info:
                    read(d)
                assert str(info.value) == f"{d / name} is not a regular file"
        assert time.monotonic() - start < 1

    def test_a_frame_read_holds_its_frames_once(self, tmp_path):
        # 30 of 96 128x96 frames, 1.1 MB of a 3.5 MB file
        path = tmp_path / "big.rvid"
        frames = np.random.default_rng(8).integers(0, 256, (96, 96, 128, 3),
                                                   dtype=np.uint8)
        write_video(Video(frames, 24), path)
        tracemalloc.start()
        try:
            video = read_video(path, range(10, 40))
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= frames[10:40].nbytes + MEMORY_SLACK
        assert video.frames.flags.writeable
        assert video.frames.tobytes() == frames[10:40].tobytes()


class TestEmbeddings:
    def test_minimal_file_layout(self, tmp_path):
        p = tmp_path / "e.tte"
        write_embeddings(AudioEmbeddings(np.zeros((1, 1, 1))), p)
        blob = p.read_bytes()
        assert len(blob) == 16 + 4
        assert blob[:4] == b"TTE1"
        assert struct.unpack("<3I", blob[4:16]) == (1, 1, 1)

    def test_large_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(24, 12, 768)).astype(np.float32)
        p = tmp_path / "big.tte"
        write_embeddings(AudioEmbeddings(values), p)
        back = read_embeddings(p)
        np.testing.assert_array_equal(back.values,
                                      values.astype(np.float64))

    def test_payload_length_mismatch_rejected(self, tmp_path):
        p = tmp_path / "short.tte"
        write_embeddings(AudioEmbeddings(np.zeros((2, 3, 4))), p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_embeddings(p)

    def test_nan_payload_rejected(self, tmp_path):
        p = tmp_path / "nan.tte"
        values = np.zeros((1, 1, 2), dtype="<f4")
        values[0, 0, 1] = np.nan
        p.write_bytes(b"TTE1" + struct.pack("<3I", 1, 1, 2) + values.tobytes())
        with pytest.raises(ValidationError):
            read_embeddings(p)

    def test_nan_rejected_on_construction(self):
        with pytest.raises(ValidationError):
            AudioEmbeddings(np.array([[[np.inf]]]))


class TestCondition:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(8, 4, 16)).astype(np.float32)
        p = tmp_path / "c.ttc"
        write_condition(ConditionFile(values), p)
        back = read_condition(p)
        np.testing.assert_array_equal(back.values, values.astype(np.float64))
        assert back.tokens_per_frame == 4

    @pytest.mark.filterwarnings("error")
    def test_value_past_the_float32_range_rejected(self, tmp_path):
        # finite as float64, so the container takes it; inf as float32
        cond = ConditionFile(np.full((1, 1, 2), 1e300))
        with pytest.raises(ValidationError):
            write_condition(cond, tmp_path / "big.ttc")
        assert not (tmp_path / "big.ttc").exists()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ttc"
        p.write_bytes(b"TTC2" + struct.pack("<3I", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_condition(p)


class TestNamedTensors:
    def test_round_trip_preserves_order_and_values(self, tmp_path):
        rng = np.random.default_rng(7)
        records = {
            "alpha": rng.normal(size=(3, 4)).astype(np.float32),
            "beta.bias": rng.normal(size=7).astype(np.float32),
            "scalar": np.float32(2.5),
        }
        p = tmp_path / "ck.bin"
        write_named_tensors(records, p)
        back = read_named_tensors(p)
        assert list(back) == list(records)
        for name in records:
            np.testing.assert_array_equal(
                back[name], np.asarray(records[name], dtype=np.float64))

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        write_named_tensors({"x": np.zeros(2, dtype=np.float32)}, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_named_tensors(p)

    def test_truncation_rejected(self, tmp_path):
        p = tmp_path / "t2.bin"
        write_named_tensors({"x": np.zeros(8, dtype=np.float32)}, p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_named_tensors(p)


class TestDomainTypes:
    def test_audio_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            AudioSignal(np.array([1.5]), 16000)

    def test_video_needs_rgb_frames(self):
        with pytest.raises(Exception):
            Video(np.zeros((2, 4, 4), dtype=np.uint8), 24)

    def test_video_duration(self):
        v = Video(np.zeros((48, 2, 2, 3), dtype=np.uint8), 24, 1)
        assert v.duration == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Damaged inputs
# ---------------------------------------------------------------------------

def _valid_inputs():
    """One small valid input per reader: kind -> (reader, {file name:
    bytes}). A "ppm" input is the directory that holds its files; any
    other input is its one file."""
    rng = np.random.default_rng(12)
    writes = {
        "rvid": (read_video, lambda d: write_video(
            Video(rng.integers(0, 256, (3, 4, 5, 3), dtype=np.uint8), 24),
            os.path.join(d, "v.rvid"))),
        "ppm": (read_video, lambda d: write_video_ppm(
            Video(rng.integers(0, 256, (2, 3, 4, 3), dtype=np.uint8), 24),
            d)),
        "wav": (read_wav, lambda d: craft_wav(
            pathlib.Path(d) / "a.wav",
            rng.integers(-2000, 2000, 400).astype(np.int16))),
        "tte1": (read_embeddings, lambda d: write_embeddings(
            AudioEmbeddings(rng.normal(size=(4, 2, 3))),
            os.path.join(d, "e.tte"))),
        "ttc1": (read_condition, lambda d: write_condition(
            ConditionFile(rng.normal(size=(4, 3, 2))),
            os.path.join(d, "c.ttc"))),
        "ttckpt1": (read_named_tensors, lambda d: write_named_tensors(
            {"mapper.0.weight": rng.normal(size=(3, 2)),
             "pooling.alpha_local": np.array(1.0),
             "meta.dims": np.arange(9.0)}, os.path.join(d, "k.ckpt"))),
    }
    inputs = {}
    for kind, (reader, write) in writes.items():
        with tempfile.TemporaryDirectory() as d:
            write(d)
            inputs[kind] = (reader, {
                path.name: path.read_bytes()
                for path in sorted(pathlib.Path(d).iterdir())})
    return inputs


VALID_INPUTS = _valid_inputs()
# A valid file costs several times its size while it is read, because
# the readers widen to float64: a 16-bit WAV sample becomes 8 bytes.
# read_wav holds the raw bytes and the widened samples, about 5 times
# the file (6 for stereo, whose channel mean is one more array);
# test_valid_wav_costs_under_seven_times_its_size pins that. A damaged
# input may cost no more than 16 times its size plus one READ_PIECE, the
# most that _read_exact asks for ahead of data it has not yet seen,
# whatever size a header claims.
MEMORY_MULTIPLE = 16
# what any read allocates whatever the input: the exception, its
# traceback and interpreter caches (about 5 KB measured)
MEMORY_SLACK = 64 * 1024


@pytest.mark.parametrize("channels", [1, 2])
def test_valid_wav_costs_under_seven_times_its_size(tmp_path, channels):
    # 4 s at 16 kHz: large enough that MEMORY_SLACK is a small share
    path = tmp_path / "long.wav"
    pcm = np.random.default_rng(3).integers(-32768, 32768, 64000 * channels)
    craft_wav(path, pcm, channels=channels)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        read_wav(path)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= 7 * size + MEMORY_SLACK


@pytest.mark.parametrize("write, count, spare", [
    (write_video, 96, 0), (write_video_ppm, 48, 3)], ids=["rvid", "ppm"])
def test_a_whole_read_holds_its_frames_once(tmp_path, write, count, spare):
    # 128x96 frames (3.5 MB of RVID): the frames are the one buffer read.
    # A PPM directory also holds its first frame's file and the one read.
    path = tmp_path / "big"
    frames = np.random.default_rng(8).integers(0, 256, (count, 96, 128, 3),
                                               dtype=np.uint8)
    write(Video(frames, 24), path)
    tracemalloc.start()
    try:
        video = read_video(path)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= frames.nbytes + spare * frames[0].nbytes + MEMORY_SLACK
    assert video.frames.flags.writeable
    np.testing.assert_array_equal(video.frames, frames)


@st.composite
def damaged(draw, blob):
    """blob truncated, or with one to four bits flipped (mostly within
    the first 32 bytes, where the headers are)."""
    if not blob or draw(st.booleans()):
        return blob[:draw(st.integers(0, max(len(blob) - 1, 0)))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.one_of(st.integers(0, min(31, len(out) - 1)),
                             st.integers(0, len(out) - 1)))
        out[pos] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
@settings(max_examples=120)
@given(data=st.data())
def test_damaged_input_fails_cleanly_in_bounded_memory(kind, data):
    reader, files = VALID_INPUTS[kind]
    files = dict(files)
    name = data.draw(st.sampled_from(sorted(files)))
    files[name] = data.draw(damaged(files[name]))
    with tempfile.TemporaryDirectory() as d:
        for fname, blob in files.items():
            with open(os.path.join(d, fname), "wb") as fh:
                fh.write(blob)
        tracemalloc.start()
        try:
            reader(d if kind == "ppm" else os.path.join(d, name))
        except (FormatError, ValidationError):
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    size = sum(len(blob) for blob in files.values())
    assert peak <= MEMORY_MULTIPLE * size + READ_PIECE + MEMORY_SLACK


# ---------------------------------------------------------------------------
# Writers accept only what their readers accept
# ---------------------------------------------------------------------------

# A u32 header field holds 0 to 2^32 - 1. A float64 rounds to a finite
# float32 only below 2^128 - 2^103, half a float32 step above the
# largest float32 (2^128 - 2^104).
U32_END = 2 ** 32
FLOAT32_END = 2.0 ** 128 - 2.0 ** 103
# header fields up to 2^40, with the edges of the u32 range, of twice a
# sample rate, and of the float32 values next to 2^32 (4,294,967,040 is
# the largest one below it)
HEADER_FIELDS = st.one_of(
    st.integers(1, 2 ** 40), st.integers(U32_END, 2 ** 40),
    st.sampled_from([2 ** 31 - 1, 2 ** 31, U32_END - 1, U32_END,
                     4_294_967_040, 4_294_967_041, 2 ** 40]))
# any finite float64, with the edges of the float32 range
WIDE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([FLOAT32_END, -FLOAT32_END,
                     np.nextafter(FLOAT32_END, 0), 1e300]))
ROUND_TRIP = settings(max_examples=40)


@st.composite
def sizes(draw, ndim, first_min=0):
    """A shape of ndim sizes up to 3; when one of them is 0, another may
    be a header field, as an empty array of any size costs nothing."""
    shape = [draw(st.integers(first_min if i == 0 else 0, 3))
             for i in range(ndim)]
    others = [i for i in range(ndim) if 0 in shape and i != shape.index(0)]
    if others and draw(st.booleans()):
        shape[draw(st.sampled_from(others))] = draw(HEADER_FIELDS)
    return tuple(shape)


def float_values(draw, shape):
    """Float64 values of shape in [-10, 10], half the time with one of
    them replaced by a WIDE_FLOATS value."""
    if math.prod(shape) == 0:
        return np.zeros(shape)
    values = draw(arrays(np.float64, shape, elements=st.floats(-10, 10)))
    if draw(st.booleans()):
        values.flat[draw(st.integers(0, values.size - 1))] = draw(WIDE_FLOATS)
    return values


def as_float32(values):
    """values as the float32 files store them, widened back."""
    return np.asarray(values, np.float32).astype(np.float64)


def round_trip(ok, write, read, path):
    """read(path) after write(path) wrote it, when ok; otherwise None,
    after write refused with ValidationError and left no file."""
    if not ok:
        with pytest.raises(ValidationError):
            write(path)
        assert not os.path.exists(path)
        return None
    write(path)
    return read(path)


@ROUND_TRIP
@given(samples=arrays(np.float64, st.integers(1, 6),
                      elements=st.floats(-1, 1)),
       rate=HEADER_FIELDS)
@example(samples=np.zeros(4), rate=2 ** 31)
def test_wav_round_trip_or_refusal(samples, rate):
    # the header holds the byte rate, twice the sample rate, as a u32
    with tempfile.TemporaryDirectory() as d:
        back = round_trip(2 * rate < U32_END,
                          lambda p: write_wav(AudioSignal(samples, rate), p),
                          read_wav, os.path.join(d, "a.wav"))
    if back is not None:
        assert back.sample_rate == rate
        pcm = np.clip(np.rint(samples * 32768), -32768, 32767)
        np.testing.assert_array_equal(back.samples, pcm / 32768)


@ROUND_TRIP
@given(shape=sizes(3, first_min=1), fps_num=HEADER_FIELDS,
       fps_den=HEADER_FIELDS, seed=st.integers(0, 9))
@example(shape=(1, 3, 0), fps_num=24, fps_den=1, seed=0)
def test_rvid_round_trip_or_refusal(shape, fps_num, fps_den, seed):
    frames = np.random.default_rng(seed).integers(0, 256, (*shape, 3),
                                                  dtype=np.uint8)
    video = Video(frames, fps_num, fps_den)
    # read_video refuses a header field of 0: an empty frame
    ok = max(*shape, fps_num, fps_den) < U32_END and min(shape) > 0
    with tempfile.TemporaryDirectory() as d:
        back = round_trip(ok, lambda p: write_video(video, p), read_video,
                          os.path.join(d, "v.rvid"))
    if back is not None:
        assert (back.fps_num, back.fps_den) == (fps_num, fps_den)
        assert back.frames.tobytes() == frames.tobytes()
        assert back.frames.shape == frames.shape


@pytest.mark.parametrize("container, write, read, first_min", [
    (AudioEmbeddings, write_embeddings, read_embeddings, 1),
    (ConditionFile, write_condition, read_condition, 0),
], ids=["TTE1", "TTC1"])
@ROUND_TRIP
@given(data=st.data())
def test_tensor3_round_trip_or_refusal(container, write, read, first_min,
                                       data):
    shape = data.draw(sizes(3, first_min))
    values = float_values(data.draw, shape)
    ok = max(shape) < U32_END and np.all(np.abs(values) < FLOAT32_END)
    with tempfile.TemporaryDirectory() as d:
        back = round_trip(ok, lambda p: write(container(values), p), read,
                          os.path.join(d, "t.bin"))
    if back is not None:
        assert back.values.shape == shape
        np.testing.assert_array_equal(back.values, as_float32(values))


@st.composite
def records(draw):
    names = draw(st.lists(st.text(max_size=4), max_size=3, unique=True))
    if names and draw(st.integers(0, 3)) == 0:
        # st.text() draws no lone surrogate, which has no UTF-8 encoding
        names[-1] += draw(st.characters(categories=["Cs"]))
    return {name: float_values(draw, draw(sizes(draw(st.integers(0, 3)))))
            for name in names}


@ROUND_TRIP
@given(records=records())
@example(records={"a": np.array([1.0]), "b": np.array([1e300])})
@example(records={"a": np.array(np.nan)})
@example(records={"a": np.zeros(1), "\ud800": np.zeros(1)})
def test_ttckpt1_round_trip_or_refusal(records):
    ok = all(not any(0xD800 <= ord(c) <= 0xDFFF for c in name)
             and max(values.shape, default=0) < U32_END
             and np.all(np.abs(values) < FLOAT32_END)
             for name, values in records.items())
    with tempfile.TemporaryDirectory() as d:
        back = round_trip(ok, lambda p: write_named_tensors(records, p),
                          read_named_tensors, os.path.join(d, "k.ckpt"))
    if back is not None:
        assert list(back) == list(records)
        for name, values in records.items():
            assert back[name].shape == values.shape
            np.testing.assert_array_equal(back[name], as_float32(values))


def test_ttckpt1_with_a_record_name_twice_rejected(tmp_path):
    # write_named_tensors takes a mapping, so only a crafted file can
    # hold a name twice
    def record(name, values):
        values = np.asarray(values, "<f4")
        return (struct.pack("<I", len(name)) + name
                + struct.pack("<2I", 1, values.size) + values.tobytes())

    path = tmp_path / "twice.ckpt"
    path.write_bytes(b"TTCKPT1" + struct.pack("<I", 2)
                     + record(b"a", [1]) + record(b"a", [2, 3]))
    with pytest.raises(FormatError, match="record 'a' appears twice"):
        read_named_tensors(path)
