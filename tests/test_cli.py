import argparse
import contextlib
import errno
import inspect
import io
import json
import multiprocessing
import os
import pathlib
import struct
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import reference_curve
from tempokit import (audio_analysis, av_align, cli, diffusion_toy,
                      media_io, motion_analysis, synthgen, tempo_tokens)
from tempokit.cli import build_parser, main
from tempokit.errors import (DurationError, FormatError, NumericError,
                             ValidationError)
from tempokit.media_io import (AudioEmbeddings, AudioSignal, Video,
                               read_condition, read_named_tensors,
                               read_video, read_wav, write_embeddings,
                               write_named_tensors, write_video, write_wav)
from tempokit.motion_analysis import FlowParams
from tempokit.peaks import PeakPickParams


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    assert main(["gen-synth", "--out", str(root / "c"), "--clips", "2",
                 "--seed", "5"]) == 0
    return root / "c"


class TestAvAlign:
    def test_synchronized_clip_scores_high(self, corpus_dir, capsys):
        code = main(["av-align", "--video", str(corpus_dir / "clip_0000.rvid"),
                     "--audio", str(corpus_dir / "clip_0000.wav")])
        out = capsys.readouterr().out
        assert code == 0
        score = float([ln for ln in out.splitlines()
                       if ln.startswith("score=")][0].split("=")[1])
        assert score >= 0.8

    def test_missing_file_exits_2(self, capsys):
        code = main(["av-align", "--video", "/nonexistent.rvid",
                     "--audio", "/nonexistent.wav"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_output_matches_schema(self, corpus_dir, capsys):
        code = main(["av-align", "--video", str(corpus_dir / "clip_0000.rvid"),
                     "--audio", str(corpus_dir / "clip_0000.wav"), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"score", "matched_audio", "matched_video",
                             "tolerance", "audio_peaks", "video_peaks",
                             "union_size", "vacuous"}
        assert isinstance(data["score"], float)
        assert isinstance(data["vacuous"], bool)

    def test_duration_mismatch_exits_3(self, corpus_dir, tmp_path, capsys):
        import struct
        wav = tmp_path / "short.wav"
        pcm = np.zeros(8000, dtype="<i2").tobytes()  # 0.5 s vs 4 s video
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(pcm)) + pcm)
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        code = main(["av-align", "--video", str(corpus_dir / "clip_0000.rvid"),
                     "--audio", str(wav)])
        assert code == 3

    def test_batch_mode_reads_stdin(self, corpus_dir, capsys, monkeypatch):
        lines = "\n".join(
            f"{corpus_dir / f'clip_{i:04d}.rvid'} "
            f"{corpus_dir / f'clip_{i:04d}.wav'}" for i in range(2))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        code = main(["av-align", "--batch"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("score=") == 3  # two clips plus the mean line
        assert "mean_score=" in out


def rescore_batch(corpus_dir, tmp_path, monkeypatch):
    """A --batch input that scores clip_0000 against 3 audios, and
    clip_0001 once. One audio is the first 2.1 s of clip_0000's, so the
    4-s video is truncated to 50 frames, before its last event (frame
    51). The files are linked into tmp_path, the working directory, so
    the names printed are the relative paths of the batch lines."""
    for i in range(2):
        for ext in ("rvid", "wav"):
            name = f"clip_{i:04d}.{ext}"
            (tmp_path / name).symlink_to(corpus_dir / name)
    audio = read_wav(corpus_dir / "clip_0000.wav")
    write_wav(AudioSignal(audio.samples[:33600], audio.sample_rate),
              tmp_path / "short.wav")
    monkeypatch.chdir(tmp_path)
    return ("clip_0000.rvid clip_0000.wav\n"
            "clip_0001.rvid clip_0001.wav\n"
            "clip_0000.rvid short.wav\n"
            "clip_0000.rvid clip_0001.wav\n")


# stdout for rescore_batch as printed when every line solved its own flow
RESCORE_TEXT = ("clip_0000.rvid score=1.000000\n"
                "clip_0001.rvid score=1.000000\n"
                "clip_0000.rvid score=1.000000\n"
                "clip_0000.rvid score=0.545455\n"
                "mean_score=0.886364\n")
RESCORE_JSON = {"clips": [
    {"video": "clip_0000.rvid", "score": 1.0, "matched_audio": 6,
     "matched_video": 6, "tolerance": 1, "audio_peaks": 6,
     "video_peaks": 6, "union_size": 6, "vacuous": False},
    {"video": "clip_0001.rvid", "score": 1.0, "matched_audio": 6,
     "matched_video": 6, "tolerance": 1, "audio_peaks": 6,
     "video_peaks": 6, "union_size": 6, "vacuous": False},
    {"video": "clip_0000.rvid", "score": 1.0, "matched_audio": 5,
     "matched_video": 5, "tolerance": 1, "audio_peaks": 5,
     "video_peaks": 5, "union_size": 5, "vacuous": False},
    {"video": "clip_0000.rvid", "score": 0.5454545454545454,
     "matched_audio": 6, "matched_video": 6, "tolerance": 1,
     "audio_peaks": 6, "video_peaks": 6, "union_size": 11, "vacuous": False},
], "mean_score": 0.8863636363636364}


class TestBatchSolvesEachVideoOnce:
    @pytest.mark.parametrize("flags, expected", [
        ([], RESCORE_TEXT),
        (["--json"], json.dumps(RESCORE_JSON, indent=2) + "\n"),
    ], ids=["text", "json"])
    def test_output_unchanged(self, flags, expected, corpus_dir, tmp_path,
                              monkeypatch, capsys):
        lines = rescore_batch(corpus_dir, tmp_path, monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        with pytest.warns(UserWarning, match="durations differ"):
            assert main(["av-align", "--batch"] + flags) == 0
        assert capsys.readouterr().out == expected

    def test_one_solve_per_distinct_video(self, corpus_dir, tmp_path,
                                          monkeypatch):
        # calls counted in a helper process would not reach this list; the
        # claims across processes are covered by TestFlowPlan and
        # TestParallelFlow
        monkeypatch.setattr(cli, "worker_count", lambda: 1)
        lines = rescore_batch(corpus_dir, tmp_path, monkeypatch)
        solved = []
        curve = motion_analysis.motion_curve

        def counting_curve(video, params=None, sources=None):
            solved.append((zlib.crc32(video.frames),
                           solved_pairs(sources).tolist()))
            return curve(video, params, sources)

        monkeypatch.setattr(motion_analysis, "motion_curve", counting_curve)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        with pytest.warns(UserWarning, match="durations differ"):
            assert main(["av-align", "--batch"]) == 0
        # the solved pairs of each video, each in one call, in order
        for i in range(2):
            frames = read_video(f"clip_{i:04d}.rvid").frames
            pairs = [k for crc, ks in solved if crc == zlib.crc32(frames)
                     for k in ks]
            assert pairs == solved_pairs(
                motion_analysis.pair_sources(frames)).tolist()
        assert sum(len(ks) for _, ks in solved) == len(
            {(crc, k) for crc, ks in solved for k in ks})

    def test_each_video_is_read_once_to_check_and_once_to_solve(
            self, corpus_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "worker_count", lambda: 1)
        lines = rescore_batch(corpus_dir, tmp_path, monkeypatch)
        reads = []
        monkeypatch.setattr(media_io, "read_video",
                            lambda path: reads.append(path) or read_video(
                                path))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        with pytest.warns(UserWarning, match="durations differ"):
            assert main(["av-align", "--batch"]) == 0
        assert capsys.readouterr().out == RESCORE_TEXT
        # the line checks, then the one flow range of each video
        assert reads == ["clip_0000.rvid", "clip_0001.rvid"] * 2

    def test_malformed_line_exits_2_with_error_line(self, corpus_dir,
                                                    monkeypatch, capsys):
        video = corpus_dir / "clip_0000.rvid"
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{video} {corpus_dir / 'clip_0000.wav'}\n{video}\n"))
        assert main(["av-align", "--batch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --batch line 2: expected 'video audio'" in captured.err
        assert "Traceback" not in captured.err


class TestChecksBeforeFlow:
    """Every batch line is checked, in input order, before any flow."""

    @pytest.fixture
    def solved(self, monkeypatch):
        calls = []
        curve = motion_analysis.motion_curve

        def counting_curve(video, params=None, sources=None):
            calls.append(video.frame_count)
            return curve(video, params, sources)

        monkeypatch.setattr(motion_analysis, "motion_curve", counting_curve)
        return calls

    def test_duration_beyond_policy_exits_3_before_any_flow(
            self, corpus_dir, tmp_path, monkeypatch, capsys, solved):
        audio = read_wav(corpus_dir / "clip_0000.wav")
        write_wav(AudioSignal(audio.samples[:16000], audio.sample_rate),
                  tmp_path / "one_second.wav")
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{corpus_dir / 'clip_0000.rvid'} {corpus_dir / 'clip_0000.wav'}"
            f"\n{corpus_dir / 'clip_0001.rvid'} {tmp_path / 'one_second.wav'}"
            "\n"))
        assert main(["av-align", "--batch"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: durations differ by 3.000s" in captured.err
        assert solved == []

    def test_short_video_is_the_first_error_reported(
            self, corpus_dir, tmp_path, monkeypatch, capsys, solved):
        write_video(Video(np.zeros((1, 8, 8, 3), np.uint8), 24),
                    tmp_path / "one_frame.rvid")
        write_video(Video(np.zeros((24, 2, 8, 3), np.uint8), 24),
                    tmp_path / "thin.rvid")
        wav = corpus_dir / "clip_0000.wav"
        for bad, message in [("one_frame", "needs at least 2 frames"),
                             ("thin", "at least 3x3")]:
            # the missing file on the line after it is never reached
            monkeypatch.setattr("sys.stdin", io.StringIO(
                f"{corpus_dir / 'clip_0000.rvid'} {wav}\n"
                f"{tmp_path / bad}.rvid {wav}\n"
                f"{tmp_path / 'missing.rvid'} {wav}\n"))
            assert main(["av-align", "--batch"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err
            assert "missing.rvid" not in captured.err
        assert solved == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--tolerance", "-1", "--tolerance -1 must be >= 0"),
        ("--onset-win", "0", "--onset-win 0 must be >= 1"),
    ])
    def test_bad_setting_exits_2_before_any_media_is_read(
            self, flag, value, message, corpus_dir, monkeypatch, capsys,
            solved):
        reads = []
        monkeypatch.setattr(media_io, "read_video",
                            lambda path: reads.append(path) or read_video(
                                path))
        assert main(["av-align", "--video", str(corpus_dir / "clip_0000.rvid"),
                     "--audio", str(corpus_dir / "clip_0000.wav"), flag,
                     value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert reads == [] and solved == []

    def test_onset_window_past_the_truncated_audio_exits_2_before_any_flow(
            self, corpus_dir, tmp_path, monkeypatch, capsys, solved):
        """The 4-s audio (64,000 samples) holds the 50,000-sample window,
        but scored against a 3-s video it is cut to 48,000 samples."""
        video = read_video(corpus_dir / "clip_0000.rvid")
        write_video(Video(video.frames[:72], 24), tmp_path / "three_s.rvid")
        wav = corpus_dir / "clip_0000.wav"
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"{corpus_dir / 'clip_0000.rvid'} {wav}\n"
            f"{tmp_path / 'three_s.rvid'} {wav}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["av-align", "--batch", "--onset-win", "50000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {wav} has 48000 samples to score, "
                                f"fewer than --onset-win 50000\n")
        assert solved == []

    def test_truncation_warns_once_per_line(self, corpus_dir, tmp_path,
                                            monkeypatch, capsys):
        lines = rescore_batch(corpus_dir, tmp_path, monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + lines))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["av-align", "--batch", "--flow-iterations",
                         "10"]) == 0
        truncations = [w for w in caught
                       if "durations differ" in str(w.message)]
        assert len(truncations) == 2  # short.wav is on 2 of 8 lines


@pytest.fixture(scope="module")
def mixed_clips(tmp_path_factory):
    """Two 1.5-s clips: 64x64 and 128x96."""
    root = tmp_path_factory.mktemp("mixed")
    for name, seed, size in [("small", 5, []),
                             ("large", 6, ["--width", "128", "--height",
                                           "96", "--kind", "flash"])]:
        assert main(["gen-synth", "--out", str(root / name), "--clips", "1",
                     "--seed", str(seed), "--duration", "1.5", "--events",
                     "3"] + size) == 0
    return {name: (str(root / name / "clip_0000.rvid"),
                   str(root / name / "clip_0000.wav"))
            for name in ("small", "large")}


def solved_pairs(sources):
    """The pairs k >= 1 that pair_sources marks as solved."""
    return np.flatnonzero(sources == np.arange(len(sources)))[1:]


def random_sources(rng, n, still, repeated):
    """pair_sources of n frames with random still and repeated shares: a
    repeat takes an earlier solved pair as its source."""
    sources = np.arange(n)
    draw = rng.random(n)
    sources[draw < still] = 0
    for k in np.flatnonzero(draw >= 1 - repeated):
        earlier = solved_pairs(sources[:k])
        if earlier.size:
            sources[k] = rng.choice(earlier)
    sources[0] = 0
    return sources


class TestFlowPlan:
    SHAPES = [("a", 96, 64, 64), ("b", 96, 96, 128), ("c", 2, 3, 3),
              ("d", 41, 64, 64), ("e", 7, 96, 128)]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7, 64])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_every_pair_solved_once_in_balanced_bins(self, workers, count):
        rng = np.random.default_rng([workers, count])
        # every pair solved, then random shares of still and repeated
        # pairs, then all still
        for still, repeated in [(0.0, 0.0), (0.0, 0.5), (0.3, 0.3),
                                (0.7, 0.0), (0.7, 0.2), (0.95, 0.0),
                                (1.0, 0.0)]:
            videos = {key: cli.CheckedVideo(
                n, 24.0, h, w, random_sources(rng, n, still, repeated), [])
                for key, n, h, w in self.SHAPES[:count]}
            self.check_claims(videos, workers)

    @staticmethod
    def check_claims(videos, workers):
        """Claim the flow jobs as solve_curves does: process 0 takes job
        0, then each process claims its next job from one counter once
        its last one is done. With a job's time its pixels, each
        process's bin of jobs ends within one job of every other's."""
        jobs = cli.flow_jobs(videos)
        assert [path for path, _ in jobs] == sorted(
            (path for path, _ in jobs), key=list(videos).index)
        for key, v in videos.items():
            pieces = [ks for path, ks in jobs if path == key]
            chunk = max(1, motion_analysis.PIXELS // (v.height * v.width))
            assert all(1 <= len(ks) <= chunk for ks in pieces)
            assert (np.concatenate(pieces).tolist() if pieces else []) == \
                solved_pairs(v.sources).tolist()
        counter = multiprocessing.Value("q", min(1, len(jobs)))
        claims = [cli._claims(counter, len(jobs)) for _ in range(workers)]
        bins = [[0] if jobs else []] + [[] for _ in range(workers - 1)]

        def cost(index):
            path, ks = jobs[index]
            return len(ks) * videos[path].height * videos[path].width

        loads = [sum(map(cost, done)) for done in bins]
        busy = set(range(workers))
        while busy:
            free = min(busy, key=lambda p: (loads[p], p))
            index = next(claims[free], None)
            if index is None:
                busy.discard(free)
            else:
                bins[free].append(index)
                loads[free] += cost(index)
        assert sorted(sum(bins, [])) == list(range(len(jobs)))
        assert max(loads) - min(loads) <= max(map(cost, range(len(jobs))),
                                              default=0)

    def test_jobs_are_the_stacks_motion_curve_solves(self, mixed_clips,
                                                     monkeypatch):
        stacks = []
        flow = motion_analysis.optical_flow

        def counting_flow(frame1, frame2, params=None):
            stacks.append(len(frame1))
            return flow(frame1, frame2, params)

        monkeypatch.setattr(motion_analysis, "optical_flow", counting_flow)
        for path, _ in mixed_clips.values():
            video = read_video(path)
            motion_analysis.motion_curve(video, FlowParams(iterations=1))
            jobs = cli.flow_jobs({path: cli.CheckedVideo.of(video)})
            assert stacks == [len(ks) for _, ks in jobs]
            stacks.clear()
        # align-distinct's shapes: 2 pairs a job at 64x64, 1 at 128x96
        videos = {key: cli.CheckedVideo(96, 24.0, h, w, np.arange(96), [])
                  for key, h, w in [("s0", 64, 64), ("s1", 64, 64),
                                    ("s2", 64, 64), ("big", 96, 128)]}
        jobs = [(key, ks.tolist()) for key, ks in cli.flow_jobs(videos)]
        assert jobs == [(key, [k, k + 1][:96 - k]) for key in ("s0", "s1",
                                                                "s2")
                        for k in range(1, 96, 2)] + [
            ("big", [k]) for k in range(1, 96)]

    def test_no_videos_no_bins(self):
        assert cli.flow_jobs({}) == []
        assert cli.solve_curves({}, FlowParams(), 4,
                                lambda: "onsets") == ({}, "onsets")
        assert multiprocessing.active_children() == []


def solve_log(monkeypatch, log, wait_for=0):
    """Make every process append "pid crc32 pair..." to log for each
    motion_curve call, and make this process's onset detection, which
    runs while helpers solve, wait until helpers have logged wait_for
    calls, so that they solve every job after the first."""
    curve, onsets = motion_analysis.motion_curve, audio_analysis.detect_onsets
    parent = os.getpid()

    def logged_curve(video, params=None, sources=None):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(" ".join(map(str, [os.getpid(), zlib.crc32(video.frames),
                                        *solved_pairs(sources)])) + "\n")
        return curve(video, params, sources)

    def waiting_onsets(*args, **kwargs):
        deadline = time.monotonic() + 60
        while (os.getpid() == parent and time.monotonic() < deadline
               and len(helper_lines(log, parent)) < wait_for):
            time.sleep(0.01)
        return onsets(*args, **kwargs)

    monkeypatch.setattr(motion_analysis, "motion_curve", logged_curve)
    monkeypatch.setattr(audio_analysis, "detect_onsets", waiting_onsets)
    log.touch()
    return parent


def helper_lines(log, parent):
    lines = log.read_text(encoding="ascii").splitlines()
    return [line for line in lines if int(line.split()[0]) != parent]


class TestParallelFlow:
    @pytest.fixture(autouse=True)
    def no_process_left(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("flags", [["--batch"], ["--batch", "--json"],
                                       [], ["--json"]],
                             ids=["batch", "batch-json", "pair", "pair-json"])
    def test_output_identical_at_1_and_2_workers(self, flags, mixed_clips,
                                                 monkeypatch, capsys):
        small, large = mixed_clips["small"], mixed_clips["large"]
        lines = (f"{small[0]} {small[1]}\n{large[0]} {large[1]}\n"
                 f"{small[0]} {large[1]}\n")
        argv = ["av-align", "--flow-iterations", "20"] + flags
        if "--batch" not in flags:
            argv += ["--video", large[0], "--audio", small[1]]
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "worker_count", lambda: workers)
            monkeypatch.setattr("sys.stdin", io.StringIO(lines))
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("score") == (4 if "--batch" in flags else 1)

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_every_solved_pair_once_across_processes(self, workers,
                                                     mixed_clips, tmp_path,
                                                     monkeypatch, capsys):
        log = tmp_path / "solves.log"
        parent = solve_log(monkeypatch, log)
        monkeypatch.setattr(cli, "worker_count", lambda: workers)
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(
            f"{video} {audio}\n" for video, audio in mixed_clips.values())))
        assert main(["av-align", "--batch", "--flow-iterations", "5"]) == 0
        capsys.readouterr()
        solves = [line.split() for line in log.read_text().splitlines()]
        # this process solves job 0 first
        videos = {video: cli.CheckedVideo.of(read_video(video))
                  for video, _ in mixed_clips.values()}
        mine = [ks for pid, _, *ks in solves if int(pid) == parent]
        assert mine[0] == [str(k) for k in cli.flow_jobs(videos)[0][1]]
        assert len({pid for pid, *_ in solves}) <= workers
        for video, _ in mixed_clips.values():
            frames = read_video(video).frames
            pairs = sorted(int(k) for _, crc, *ks in solves
                           if int(crc) == zlib.crc32(frames) for k in ks)
            assert pairs == solved_pairs(
                motion_analysis.pair_sources(frames)).tolist()

    def test_spawned_workers_give_the_serial_curves(self, mixed_clips):
        # spawn is the default start method on macOS; it and forkserver
        # (the Linux default from Python 3.14) pickle the work
        videos = {path: cli.CheckedVideo.of(read_video(path))
                  for path, _ in mixed_clips.values()}
        flow = FlowParams(iterations=20)
        default = multiprocessing.get_start_method()
        multiprocessing.set_start_method("spawn", force=True)
        try:
            spawned, _ = cli.solve_curves(videos, flow, 3, dict)
        finally:
            multiprocessing.set_start_method(default, force=True)
        for path in videos:
            assert np.array_equal(spawned[path], motion_analysis.motion_curve(
                read_video(path), flow))

    @staticmethod
    def fail_in_a_helper(fail, tmp_path, monkeypatch):
        """Run av-align at 2 workers on a clip of 4 jobs, where a
        helper's first read of a video calls fail(); this process waits
        to detect its onsets until it has."""
        failed = tmp_path / "failed"
        parent = os.getpid()

        def read_failing_in_a_helper(path):
            if os.getpid() == parent:
                return read_video(path)
            failed.write_text("")
            fail()

        onsets = audio_analysis.detect_onsets

        def waiting_onsets(*args, **kwargs):
            deadline = time.monotonic() + 60
            while not failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return onsets(*args, **kwargs)

        monkeypatch.setattr(media_io, "read_video", read_failing_in_a_helper)
        monkeypatch.setattr(audio_analysis, "detect_onsets", waiting_onsets)
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        return failed

    def test_worker_error_exits_with_its_code(self, mixed_clips, tmp_path,
                                              monkeypatch, capsys):
        def fail():
            raise NumericError("a helper failed")

        failed = self.fail_in_a_helper(fail, tmp_path, monkeypatch)
        video, audio = mixed_clips["large"]
        assert main(["av-align", "--video", video, "--audio", audio,
                     "--flow-iterations", "20"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a helper failed\n"
        assert failed.exists()

    def test_a_helper_that_dies_exits_2(self, mixed_clips, tmp_path,
                                        monkeypatch, capsys):
        failed = self.fail_in_a_helper(lambda: os._exit(7), tmp_path,
                                       monkeypatch)
        video, audio = mixed_clips["large"]
        assert main(["av-align", "--video", video, "--audio", audio,
                     "--flow-iterations", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a flow process exited with code 7\n"
        assert failed.exists()

    def test_an_error_here_stops_every_helper(self, mixed_clips,
                                              monkeypatch, capsys):
        # the helpers are still in their first job when this process fails
        parent, curve = os.getpid(), motion_analysis.motion_curve

        def stuck_in_a_helper(*args, **kwargs):
            deadline = time.monotonic() + 60
            while os.getpid() != parent and time.monotonic() < deadline:
                time.sleep(0.01)
            return curve(*args, **kwargs)

        def failing_onsets(*args, **kwargs):
            assert len(multiprocessing.active_children()) == 2
            raise DurationError("the audio changed")

        monkeypatch.setattr(motion_analysis, "motion_curve",
                            stuck_in_a_helper)
        monkeypatch.setattr(audio_analysis, "detect_onsets", failing_onsets)
        monkeypatch.setattr(cli, "worker_count", lambda: 3)
        video, audio = mixed_clips["small"]
        start = time.monotonic()
        assert main(["av-align", "--video", video, "--audio", audio]) == 3
        assert capsys.readouterr().err == "error: the audio changed\n"
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("change", ["fewer frames", "smaller frames",
                                        "rolled frames"])
    def test_video_changed_since_its_check_exits_2(self, change, mixed_clips,
                                                   monkeypatch, capsys):
        # the flow reads the file again; here that read finds it rewritten
        reads = []

        def read_a_changed_video(path):
            video = read_video(path)
            reads.append(path)
            if len(reads) == 1:
                return video
            frames = {"fewer frames": video.frames[:len(video.frames) // 2],
                      "smaller frames": video.frames[:, 1:],
                      "rolled frames": np.roll(video.frames, 7, axis=0),
                      }[change]
            return Video(frames, video.fps_num, video.fps_den)

        monkeypatch.setattr(cli, "worker_count", lambda: 1)
        monkeypatch.setattr(media_io, "read_video", read_a_changed_video)
        video, audio = mixed_clips["small"]
        assert main(["av-align", "--video", video, "--audio", audio,
                     "--flow-iterations", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {video} changed since it was checked\n"
        assert reads == [video, video]

    def test_a_process_holds_one_video_at_a_time(self, tmp_path):
        # 12-s clips, long enough that reading the 128x96 one peaks above
        # solving its flow; with the 64x64 one still alive, it would peak
        # about 1.3 times as high
        paths = []
        for size in ("64", "64"), ("128", "96"):
            out = tmp_path / "x".join(size)
            assert main(["gen-synth", "--out", str(out), "--clips", "1",
                         "--duration", "12", "--width", size[0], "--height",
                         size[1]]) == 0
            paths.append(str(out / "clip_0000.rvid"))
        checked = {path: cli.CheckedVideo.of(read_video(path))
                   for path in paths}
        flow = FlowParams(iterations=1)
        peaks = []
        for solved in (paths[1:], paths):
            tracemalloc.start()
            try:
                cli.solve_curves({path: checked[path] for path in solved},
                                 flow, 1, dict)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_onsets_are_detected_holding_no_frames(self, corpus_dir):
        path = str(corpus_dir / "clip_0000.rvid")
        video = {path: cli.CheckedVideo.of(read_video(path))}
        size = os.path.getsize(path)
        flow = FlowParams(iterations=1)
        cli.solve_curves(video, flow, 2, dict)  # first-use imports
        held = []
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cli.solve_curves(video, flow, 2, lambda: held.append(
                tracemalloc.get_traced_memory()[0] - start))
        finally:
            tracemalloc.stop()
        assert held[0] < size / 10

    def test_still_batch_starts_no_pool(self, mixed_clips, tmp_path,
                                        monkeypatch, capsys):
        lines = []
        for name, (video, audio) in mixed_clips.items():
            frames = read_video(video).frames
            still = tmp_path / f"{name}_still.rvid"
            write_video(Video(np.repeat(frames[-1:], len(frames), axis=0),
                              24), still)
            lines.append((str(still), audio))
        lines.append(lines[0])
        # scored with the curves motion_curve solves in this process
        scores = [av_align.av_align_from_media(read_video(video),
                                               read_wav(audio)).score
                  for video, audio in lines]
        expected = "".join(f"{video} score={score:.6f}\n"
                           for (video, _), score in zip(lines, scores))
        expected += f"mean_score={np.mean(scores):.6f}\n"
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_video(path)

        def no_helper(*args, **kwargs):
            raise AssertionError("a still batch started a helper")

        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Process", no_helper)
        monkeypatch.setattr(cli.media_io, "read_video", counting_read)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "".join(f"{video} {audio}\n" for video, audio in lines)))
        assert main(["av-align", "--batch"]) == 0
        assert capsys.readouterr().out == expected
        # each distinct video once, to check it: never to score or for flow
        assert reads == [lines[0][0], lines[1][0]]

    def test_repeats_take_their_flow_from_another_process(
            self, tmp_path, monkeypatch, capsys):
        # 4 frames held at the last and a 3-frame loop, 24 frames each:
        # 3 pairs to solve in each video, one job each
        pool = np.random.default_rng(9).integers(0, 256, (7, 32, 32, 3),
                                                 dtype=np.uint8)
        lines = ""
        for name, pattern in [("held", [3, 4, 5] + [6] * 21),
                              ("loop", [0, 1, 2] * 8)]:
            write_video(Video(pool[pattern], 24), tmp_path / f"{name}.rvid")
            write_wav(AudioSignal(np.random.default_rng(len(name)).uniform(
                -0.5, 0.5, 16000), 16000), tmp_path / f"{name}.wav")
            lines += f"{tmp_path / name}.rvid {tmp_path / name}.wav\n"
        held, loop = (str(tmp_path / f"{name}.rvid")
                      for name in ("held", "loop"))
        videos = {path: cli.CheckedVideo.of(read_video(path))
                  for path in (held, loop)}
        assert videos[loop].sources.tolist() == [0] + [1, 2, 3] * 7 + [1, 2]
        assert [(path, ks.tolist()) for path, ks in cli.flow_jobs(videos)] \
            == [(held, [1, 2, 3]), (loop, [1, 2, 3])]
        flow = FlowParams(iterations=20)
        # a helper solves the loop's job; this process fills its repeats
        log = tmp_path / "solves.log"
        parent = solve_log(monkeypatch, log, wait_for=1)
        curves, _ = cli.solve_curves(videos, flow, 2,
                                     lambda: audio_analysis.detect_onsets(
                                         read_wav(tmp_path / "loop.wav"),
                                         24))
        assert [line.split()[2:] for line in helper_lines(log, parent)] == [
            ["1", "2", "3"]]
        for path, curve in curves.items():
            assert curve.tobytes() == reference_curve(read_video(path),
                                                      flow).tobytes()
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(cli, "worker_count", lambda: workers)
            monkeypatch.setattr("sys.stdin", io.StringIO(lines))
            assert main(["av-align", "--batch", "--json",
                         "--flow-iterations", "20"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_this_process_runs_every_traced_align_stage(self, tmp_path,
                                                        monkeypatch, capsys):
        # perfbench's traced align runs record only this process's spans
        assert main(["gen-synth", "--out", str(tmp_path), "--clips", "1",
                     "--kind", "flash", "--duration", "2", "--events",
                     "3"]) == 0
        video, audio = (str(tmp_path / f"clip_0000.{ext}")
                        for ext in ("rvid", "wav"))
        assert len(cli.flow_jobs(
            {video: cli.CheckedVideo.of(read_video(video))})) == 2
        parent, calls = os.getpid(), []
        for module, name in [(motion_analysis, "motion_curve"),
                             (motion_analysis, "optical_flow"),
                             (audio_analysis, "detect_onsets"),
                             (av_align, "av_align_from_media")]:
            def counted(*args, _name=name, _fn=getattr(module, name),
                        **kwargs):
                if os.getpid() == parent:
                    calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        assert main(["av-align", "--video", video, "--audio", audio,
                     "--flow-iterations", "5"]) == 0
        capsys.readouterr()
        assert set(calls) == {"motion_curve", "optical_flow",
                              "detect_onsets", "av_align_from_media"}


class TestTokens:
    def test_windows_mode_reports_six_tokens(self, corpus_dir, tmp_path,
                                             capsys):
        out_file = tmp_path / "w.ttc"
        code = main(["tokens", "--audio", str(corpus_dir / "clip_0000.wav"),
                     "--toy-encoder", "--L", "24", "--out", str(out_file),
                     "--seed", "3"])
        assert code == 0
        assert "tokens_per_frame=6" in capsys.readouterr().out
        cond = read_condition(out_file)
        assert cond.tokens_per_frame == 6
        assert cond.frame_count == 24

    def test_vec_mode_reports_one_token(self, corpus_dir, tmp_path, capsys):
        out_file = tmp_path / "v.ttc"
        code = main(["tokens", "--audio", str(corpus_dir / "clip_0000.wav"),
                     "--toy-encoder", "--mode", "vec", "--out",
                     str(out_file), "--seed", "3"])
        assert code == 0
        assert "tokens_per_frame=1" in capsys.readouterr().out
        assert read_condition(out_file).tokens_per_frame == 1

    def test_round_trip_readback_stability(self, corpus_dir, tmp_path):
        out_file = tmp_path / "rt.ttc"
        main(["tokens", "--audio", str(corpus_dir / "clip_0000.wav"),
              "--toy-encoder", "--out", str(out_file), "--seed", "3"])
        first = out_file.read_bytes()
        from tempokit.media_io import write_condition
        write_condition(read_condition(out_file), out_file)
        assert out_file.read_bytes() == first

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code = main(["tokens", "--out", str(tmp_path / "x.ttc")])
        assert code == 2

    def test_embeddings_input_path(self, tmp_path, capsys):
        from tempokit.media_io import AudioEmbeddings, write_embeddings
        emb_file = tmp_path / "e.tte"
        rng = np.random.default_rng(0)
        write_embeddings(AudioEmbeddings(rng.normal(size=(8, 2, 12))),
                         emb_file)
        code = main(["tokens", "--embeddings", str(emb_file), "--out",
                     str(tmp_path / "o.ttc"), "--seed", "4"])
        assert code == 0
        assert "tokens_per_frame=5" in capsys.readouterr().out  # L=8 -> 4+1


class TestGenSynth:
    def test_default_clip_count_is_32(self):
        parser = build_parser()
        args = parser.parse_args(["gen-synth", "--out", "x"])
        assert int(args.clips) == 32

    def test_deterministic_with_fixed_seed(self, tmp_path):
        main(["gen-synth", "--out", str(tmp_path / "a"), "--clips", "2",
              "--seed", "8"])
        main(["gen-synth", "--out", str(tmp_path / "b"), "--clips", "2",
              "--seed", "8"])
        a = (tmp_path / "a" / "clip_0001.rvid").read_bytes()
        b = (tmp_path / "b" / "clip_0001.rvid").read_bytes()
        assert a == b

    def test_shifted_corpus_scores_lower(self, tmp_path, capsys):
        main(["gen-synth", "--out", str(tmp_path / "s0"), "--clips", "2",
              "--seed", "6"])
        main(["gen-synth", "--out", str(tmp_path / "s12"), "--clips", "2",
              "--seed", "6", "--shift", "12"])
        capsys.readouterr()  # drop the manifest lines
        scores = {}
        for name in ("s0", "s12"):
            base = tmp_path / name
            code = main(["av-align", "--video", str(base / "clip_0000.rvid"),
                         "--audio", str(base / "clip_0000.wav"), "--json"])
            assert code == 0
            scores[name] = json.loads(capsys.readouterr().out)["score"]
        assert scores["s12"] < scores["s0"]

    def test_tempo_seed_env_sets_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEMPO_SEED", "8")
        main(["gen-synth", "--out", str(tmp_path / "env"), "--clips", "2"])
        monkeypatch.delenv("TEMPO_SEED")
        main(["gen-synth", "--out", str(tmp_path / "flag"), "--clips", "2",
              "--seed", "8"])
        assert (tmp_path / "env" / "clip_0000.rvid").read_bytes() == \
            (tmp_path / "flag" / "clip_0000.rvid").read_bytes()

    @pytest.mark.parametrize("value", ["x", "-3", "1.5", ""])
    def test_tempo_seed_that_is_no_seed_exits_2(self, value, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("TEMPO_SEED", value)
        assert main(["gen-synth", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error: seed" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


START_UP_SCRIPT = """
import sys
from tempokit.cli import main
out = sys.argv[1]
clip = out + "/clip_0000"
assert main(["gen-synth", "--out", out, "--clips", "1", "--duration", "2",
             "--events", "3", "--seed", "6"]) == 0
assert main(["av-align", "--video", clip + ".rvid",
             "--audio", clip + ".wav"]) == 0
print("after-align", "scipy.special" in sys.modules)
assert main(["train-toy", "--corpus", out, "--steps", "2", "--ckpt",
             out + "/c.ckpt", "--seed", "6"]) == 0
assert main(["generate", "--ckpt", out + "/c.ckpt", "--audio",
             clip + ".wav", "--out", out + "/g.rvid", "--seed", "6"]) == 0
print("after-generate", "scipy.special" in sys.modules)
"""


class TestStartUp:
    def test_only_the_learning_commands_import_scipy_special(self, tmp_path):
        # a fresh interpreter, so that no other test has imported it
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", START_UP_SCRIPT, str(tmp_path / "c")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = [ln for ln in done.stdout.splitlines()
                 if ln.startswith("after-")]
        assert lines == ["after-align False", "after-generate True"]


class TestTrainAndGenerate:
    def test_zero_steps_checkpoint_equals_initialization(self, corpus_dir,
                                                         tmp_path, capsys):
        ckpt = tmp_path / "init.ckpt"
        code = main(["train-toy", "--corpus", str(corpus_dir), "--steps", "0",
                     "--ckpt", str(ckpt), "--seed", "4"])
        assert code == 0
        assert "steps=0" in capsys.readouterr().out
        comp = diffusion_toy.build_components(diffusion_toy.desk_train_dims(),
                                              4)
        expected = tmp_path / "expected.ckpt"
        diffusion_toy.save_checkpoint(comp, expected)
        assert ckpt.read_bytes() == expected.read_bytes()

    def test_rerun_same_seed_identical_checkpoint(self, corpus_dir, tmp_path):
        ckpts = []
        for name in ("r1.ckpt", "r2.ckpt"):
            path = tmp_path / name
            code = main(["train-toy", "--corpus", str(corpus_dir),
                         "--steps", "5", "--ckpt", str(path),
                         "--seed", "9"])
            assert code == 0
            ckpts.append(path.read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_loss_log_written(self, corpus_dir, tmp_path):
        log = tmp_path / "loss.txt"
        main(["train-toy", "--corpus", str(corpus_dir), "--steps", "4",
              "--ckpt", str(tmp_path / "c.ckpt"), "--loss-log", str(log),
              "--seed", "2"])
        values = [float(x) for x in log.read_text().split()]
        assert len(values) == 4
        assert all(np.isfinite(values))

    def test_numeric_blowup_exits_4(self, corpus_dir, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = main(["train-toy", "--corpus", str(corpus_dir),
                         "--steps", "300", "--lr", "1e9",
                         "--ckpt", str(tmp_path / "x.ckpt"), "--seed", "1"])
        assert code == 4

    def test_readme_recipe_trains_the_seed_27_corpus(self, tmp_path,
                                                     capsys):
        # plain SGD left this corpus with a non-finite loss at step 5,
        # after numpy overflow warnings
        corpus = tmp_path / "c27"
        assert main(["gen-synth", "--out", str(corpus), "--seed", "27"]) == 0
        log = tmp_path / "loss.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train-toy", "--corpus", str(corpus), "--steps",
                         "200", "--lr", "2e-3", "--lambda-l1", "0.5",
                         "--ckpt", str(tmp_path / "x.ckpt"), "--loss-log",
                         str(log), "--seed", "27"])
        assert code == 0
        assert capsys.readouterr().err == ""
        history = [float(x) for x in log.read_text().split()]
        assert len(history) == 200 and np.all(np.isfinite(history))
        assert np.mean(history[-20:]) < 0.5 * np.mean(history[:20])

    def test_generate_writes_expected_frames(self, corpus_dir, tmp_path,
                                             capsys):
        ckpt = tmp_path / "g.ckpt"
        main(["train-toy", "--corpus", str(corpus_dir), "--steps", "2",
              "--ckpt", str(ckpt), "--seed", "3"])
        out = tmp_path / "gen.rvid"
        code = main(["generate", "--ckpt", str(ckpt), "--audio",
                     str(corpus_dir / "clip_0001.wav"), "--out", str(out),
                     "--seed", "11"])
        assert code == 0
        video = read_video(out)
        assert video.frame_count == 24
        assert video.frames.shape[1:] == (64, 64, 3)

    def test_generate_seed_reproducibility(self, corpus_dir, tmp_path):
        ckpt = tmp_path / "s.ckpt"
        main(["train-toy", "--corpus", str(corpus_dir), "--steps", "2",
              "--ckpt", str(ckpt), "--seed", "3"])
        outs = []
        for name in ("o1.rvid", "o2.rvid"):
            path = tmp_path / name
            main(["generate", "--ckpt", str(ckpt), "--audio",
                  str(corpus_dir / "clip_0000.wav"), "--out", str(path),
                  "--seed", "12"])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_checkpoint_with_short_meta_dims_exits_2(self, corpus_dir,
                                                     tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train-toy", "--corpus", str(corpus_dir), "--steps", "0",
              "--ckpt", str(ckpt), "--seed", "3"])
        records = read_named_tensors(ckpt)
        records["meta.dims"] = records["meta.dims"][:5]
        write_named_tensors(records, ckpt)
        capsys.readouterr()
        code = main(["generate", "--ckpt", str(ckpt), "--audio",
                     str(corpus_dir / "clip_0000.wav"), "--out",
                     str(tmp_path / "o.rvid"), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: checkpoint meta.dims" in err


class TestConfigFile:
    def test_config_file_presets_flags(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tolerance=3\n")
        code = main(["--config", str(cfg), "av-align",
                     "--video", str(corpus_dir / "clip_0000.rvid"),
                     "--audio", str(corpus_dir / "clip_0000.wav"), "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 3

    def test_explicit_flag_beats_config(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tolerance=3\n")
        code = main(["--config", str(cfg), "av-align",
                     "--video", str(corpus_dir / "clip_0000.rvid"),
                     "--audio", str(corpus_dir / "clip_0000.wav"),
                     "--tolerance", "0", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0

    def test_unknown_flags_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["av-align", "--no-such-flag"])
        assert exc_info.value.code == 2

    def test_equals_form_config_is_applied(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("clips=2\n")
        out = tmp_path / "c"
        assert main([f"--config={cfg}", "gen-synth", "--out", str(out),
                     "--seed", "1"]) == 0
        manifest = (out / "manifest.txt").read_text().split("\n")
        assert len([line for line in manifest if line.strip()]) == 2

    @pytest.mark.parametrize("key", ["json", "toy_encoder", "help"])
    def test_a_switch_is_no_config_key(self, key, corpus_dir, tmp_path,
                                       capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}=0\n")
        code = main(["--config", str(cfg), "av-align",
                     "--video", str(corpus_dir / "clip_0000.rvid"),
                     "--audio", str(corpus_dir / "clip_0000.wav")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: unknown config keys: {key}\n"

    def test_batch_key_sets_only_the_train_toy_batch_size(
            self, corpus_dir, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("batch=1\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["--config", str(cfg), "av-align", "--json",
                     "--video", str(corpus_dir / "clip_0000.rvid"),
                     "--audio", str(corpus_dir / "clip_0000.wav")]) == 0
        assert json.loads(capsys.readouterr().out)["score"] == 1.0
        args = build_parser({"batch": "1"}).parse_args(
            ["train-toy", "--corpus", "c", "--ckpt", "k"])
        assert args.batch == 1


# av_align_from_media's keyword defaults, read like a config's fields
_ALIGN_DEFAULTS = types.SimpleNamespace(**{
    name: param.default for name, param in inspect.signature(
        av_align.av_align_from_media).parameters.items()})


@pytest.mark.parametrize("argv, library, fields", [
    (["av-align"], PeakPickParams(),
     {"threshold_k": "threshold_k", "smoothing": "smoothing"}),
    (["av-align"], FlowParams(),
     {"flow_alpha": "alpha", "flow_iterations": "iterations"}),
    (["av-align"], _ALIGN_DEFAULTS,
     {"tolerance": "tolerance", "onset_win": "onset_win"}),
    (["gen-synth", "--out", "o"], synthgen.SynthConfig(),
     {"width": "width", "height": "height", "fps": "fps",
      "duration": "duration", "sample_rate": "sample_rate",
      "events": "n_events", "kind": "event_kind", "shift": "shift_frames"}),
    (["train-toy", "--corpus", "c", "--ckpt", "k"],
     diffusion_toy.TrainConfig(),
     {"batch": "batch_videos", "frames": "frames_per_video",
      "steps": "steps", "lr": "learning_rate", "lambda_l1": "lambda_l1"}),
], ids=["peaks", "flow", "align", "gen-synth", "train-toy"])
def test_flag_defaults_are_the_library_defaults(argv, library, fields):
    """Each flag (by dest) defaults to the library field (by name) that
    it sets, so a command and a library call with no settings agree."""
    args = vars(build_parser().parse_args(argv))
    assert ({dest: args[dest] for dest in fields}
            == {dest: getattr(library, name) for dest, name in fields.items()})


@pytest.mark.parametrize("module, name, argv", [
    (synthgen, "corpus", ["gen-synth", "--out", "{tmp}/o", "--clips", "1"]),
    (tempo_tokens, "build_condition", [
        "tokens", "--audio", "{corpus}/clip_0000.wav", "--toy-encoder",
        "--out", "{tmp}/t.ttc"]),
], ids=["gen-synth", "tokens"])
@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 29.8 GiB"), "Unable to allocate 29.8 "
                                                 "GiB"),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_2(module, name, argv, exc, message,
                                       corpus_dir, tmp_path, monkeypatch,
                                       capsys):
    """A stand-in raises, as an array that cannot be allocated would: a
    real oversized request can be granted lazily and fill the host."""
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, out_of_memory)
    code = main([arg.format(tmp=tmp_path, corpus=corpus_dir) for arg in argv])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


BAD_INPUTS = {
    "non-int clip count": ["gen-synth", "--out", "{tmp}/o", "--clips", "abc"],
    "non-int flow iterations": ["av-align", "{clip}", "--flow-iterations",
                                "x"],
    "zero smoothing window": ["av-align", "{clip}", "--smoothing", "0"],
    "zero fps denominator": ["av-align", "{clip}", "--fps-override", "30/0"],
    "negative fps": ["av-align", "{clip}", "--fps-override", "-24"],
    "non-numeric fps": ["av-align", "{clip}", "--fps-override", "abc"],
    "decimal fps that rounds to 0": ["av-align", "{clip}", "--fps-override",
                                     "0.0004"],
    "config flag without a path": ["--config"],
    "config value of the wrong type": ["--config", "{tmp}/bad_value.cfg",
                                       "gen-synth", "--out", "{tmp}/o"],
    "unknown config key": ["--config={tmp}/bad_key.cfg", "gen-synth",
                           "--out", "{tmp}/o"],
    "config file not UTF-8": ["--config", "{tmp}/not_utf8.cfg", "gen-synth",
                              "--out", "{tmp}/o"],
    "non-int hidden size": ["train-toy", "--corpus", "{corpus}", "--ckpt",
                            "{tmp}/h.ckpt", "--hidden", "a"],
    "two hidden sizes": ["train-toy", "--corpus", "{corpus}", "--ckpt",
                         "{tmp}/h.ckpt", "--hidden", "8,8"],
    "av-align without inputs": ["av-align"],
    "av-align --video without --audio": [
        "av-align", "--video", "{corpus}/clip_0000.rvid"],
    "zero onset window": ["av-align", "{clip}", "--onset-win", "0"],
    "negative onset window": ["av-align", "{clip}", "--onset-win", "-5"],
    "checkpoint dims beyond the file": [
        "generate", "--ckpt", "{tmp}/huge_dims.ckpt", "--audio",
        "{corpus}/clip_0000.wav", "--out", "{tmp}/g.rvid"],
    "checkpoint dims past int64": [
        "generate", "--ckpt", "{tmp}/wrapping_dims.ckpt", "--audio",
        "{corpus}/clip_0000.wav", "--out", "{tmp}/g.rvid"],
    "checkpoint bias one entry short": [
        "generate", "--ckpt", "{tmp}/short_bias.ckpt", "--audio",
        "{corpus}/clip_0000.wav", "--out", "{tmp}/g.rvid"],
    "tokens without a source": ["tokens", "--out", "{tmp}/t.ttc"],
    "tokens audio without the toy encoder": [
        "tokens", "--audio", "{corpus}/clip_0000.wav", "--out",
        "{tmp}/t.ttc"],
    "tokens segment dim the mapper does not take": [
        "tokens", "--embeddings", "{tmp}/dim5.tte", "--out", "{tmp}/t.ttc"],
    "negative seed": ["gen-synth", "--out", "{tmp}/o", "--seed", "-1"],
    "checkpoint record name not UTF-8": [
        "generate", "--ckpt", "{tmp}/bad_name.ckpt", "--audio",
        "{corpus}/clip_0000.wav", "--out", "{tmp}/g.rvid"],
    "corpus manifest not ASCII": ["train-toy", "--corpus",
                                  "{tmp}/not_ascii.txt", "--ckpt",
                                  "{tmp}/n.ckpt"],
    "PPM manifest not UTF-8": ["av-align", "--video", "{tmp}/ppm",
                               "--audio", "{corpus}/clip_0000.wav"],
    "event line not an integer": ["train-toy", "--corpus",
                                  "{tmp}/bad_events.txt", "--ckpt",
                                  "{tmp}/n.ckpt"],
    "output path under a regular file": ["gen-synth", "--out",
                                         "{tmp}/bad_key.cfg/o"],
    "input path under a regular file": [
        "av-align", "--video", "{tmp}/bad_key.cfg/v.rvid", "--audio",
        "{corpus}/clip_0000.wav"],
    "NaN threshold k": ["av-align", "{clip}", "--threshold-k", "nan"],
    "NaN flow alpha": ["av-align", "{clip}", "--flow-alpha", "nan"],
    "NaN learning rate": ["train-toy", "--corpus", "{corpus}", "--ckpt",
                          "{tmp}/n.ckpt", "--lr", "nan"],
    "NaN L1 weight": ["train-toy", "--corpus", "{corpus}", "--ckpt",
                      "{tmp}/n.ckpt", "--lambda-l1", "nan"],
    "infinite threshold k": ["av-align", "{clip}", "--threshold-k", "inf"],
    "infinite flow alpha": ["av-align", "{clip}", "--flow-alpha", "inf"],
    "infinite learning rate": ["train-toy", "--corpus", "{corpus}",
                               "--ckpt", "{tmp}/n.ckpt", "--lr", "inf"],
    "NaN duration": ["gen-synth", "--out", "{tmp}/o", "--duration", "nan"],
    "infinite duration": ["gen-synth", "--out", "{tmp}/o", "--duration",
                          "inf"],
    "video name too long": ["av-align", "--video", "v" * 5000, "--audio",
                            "{corpus}/clip_0000.wav"],
    "checkpoint name too long": ["train-toy", "--corpus", "{corpus}",
                                 "--steps", "0", "--ckpt", "c" * 5000],
    "NUL in a --batch line": ["av-align", "--batch"],
    "NUL in a manifest row": ["train-toy", "--corpus", "{tmp}/nul_row.txt",
                              "--ckpt", "{tmp}/n.ckpt"],
    "NUL in a config value": ["--config", "{tmp}/nul_value.cfg", "train-toy",
                              "--corpus", "{corpus}", "--steps", "0",
                              "--ckpt", "{tmp}/n.ckpt"],
    "corpus frames not the codec's size": [
        "train-toy", "--corpus", "{wide}", "--ckpt", "{tmp}/n.ckpt"],
    "switch set from a config file": ["--config", "{tmp}/switch.cfg",
                                      "av-align", "{clip}"],
}


def test_decimal_fps_that_rounds_to_zero_says_so():
    with pytest.raises(ValidationError, match="'0.0004' rounds to 0"):
        cli._parse_fps("0.0004")


def lying_checkpoint(*dims):
    """A one-record TTCKPT1 file whose dims claim values it does not hold."""
    name = b"mapper.0.w"
    return (b"TTCKPT1" + struct.pack("<2I", 1, len(name)) + name
            + struct.pack(f"<{1 + len(dims)}I", len(dims), *dims))


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    """A one-clip 128x96 corpus: the desk codec takes 64x64 frames."""
    root = tmp_path_factory.mktemp("wide") / "c"
    assert main(["gen-synth", "--out", str(root), "--clips", "1",
                 "--width", "128", "--height", "96", "--duration", "1",
                 "--events", "2", "--seed", "3"]) == 0
    return root


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_with_error_line(argv, corpus_dir, wide_corpus,
                                           tmp_path, monkeypatch, capsys):
    (tmp_path / "bad_value.cfg").write_text("clips=abc\n")
    (tmp_path / "bad_key.cfg").write_text("no_such_flag=1\n")
    (tmp_path / "not_utf8.cfg").write_bytes(b"\xff\xfeclips=2\n")
    (tmp_path / "huge_dims.ckpt").write_bytes(
        lying_checkpoint(2 ** 20, 2 ** 20, 2 ** 20))
    (tmp_path / "wrapping_dims.ckpt").write_bytes(
        lying_checkpoint(0xFFFFFFFF, 0xFFFFFFFF))
    short_bias = tmp_path / "short_bias.ckpt"
    diffusion_toy.save_checkpoint(
        diffusion_toy.build_components(diffusion_toy.desk_train_dims(), 0),
        short_bias)
    records = read_named_tensors(short_bias)
    records["mapper.0.bias"] = records["mapper.0.bias"][:-1]
    write_named_tensors(records, short_bias)
    write_embeddings(AudioEmbeddings(np.zeros((4, 1, 5))),
                     tmp_path / "dim5.tte")
    (tmp_path / "bad_name.ckpt").write_bytes(
        b"TTCKPT1" + struct.pack("<2I", 1, 2) + b"\xff\xfe")
    (tmp_path / "not_ascii.txt").write_bytes(
        b"clip_\xe9.rvid clip.wav clip.events.txt\n")
    (tmp_path / "ppm").mkdir()
    (tmp_path / "ppm" / "manifest.txt").write_bytes(
        b"fps 24 1\nframe_\xff.ppm\n")
    (tmp_path / "x.events.txt").write_text("12\ntwelve\n")
    (tmp_path / "bad_events.txt").write_text(
        f"{corpus_dir}/clip_0000.rvid {corpus_dir}/clip_0000.wav "
        f"x.events.txt\n")
    (tmp_path / "nul_row.txt").write_text(
        f"{corpus_dir}/clip_0000.rvid\0 {corpus_dir}/clip_0000.wav "
        f"{corpus_dir}/clip_0000.events.txt\n")
    (tmp_path / "nul_value.cfg").write_text("loss_log=loss\0.txt\n")
    (tmp_path / "switch.cfg").write_text("json=0\n")
    clip = ["--video", str(corpus_dir / "clip_0000.rvid"),
            "--audio", str(corpus_dir / "clip_0000.wav")]
    # the stdin of the --batch rows: a valid line, then one with a NUL
    monkeypatch.setattr("sys.stdin", io.StringIO(
        " ".join(clip[1::2]) + "\n" + "\0 ".join(clip[1::2]) + "\n"))
    expanded = []
    for arg in argv:
        expanded += clip if arg == "{clip}" else [
            arg.format(tmp=tmp_path, corpus=corpus_dir, wide=wide_corpus)]
    try:
        code = main(expanded)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert any("error:" in line for line in err.splitlines())
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def desk_checkpoint(corpus_dir, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("desk") / "desk.ckpt"
    assert main(["train-toy", "--corpus", str(corpus_dir), "--steps", "2",
                 "--ckpt", str(ckpt), "--seed", "1"]) == 0
    return read_named_tensors(ckpt)


def generate_from(records, corpus_dir, tmp_path, capsys):
    """Exit code and stderr of generate from a checkpoint of records."""
    ckpt = tmp_path / "damaged.ckpt"
    write_named_tensors(records, ckpt)
    capsys.readouterr()
    code = main(["generate", "--ckpt", str(ckpt), "--audio",
                 str(corpus_dir / "clip_0000.wav"), "--out",
                 str(tmp_path / "g.rvid"), "--seed", "1"])
    return code, capsys.readouterr().err


# Every record of a desk checkpoint but schedule.betas: a schedule one
# step shorter is a valid schedule of 99 steps.
_DESK = diffusion_toy.build_components(diffusion_toy.desk_train_dims(), 0)
DESK_RECORDS = [name for name, _ in _DESK.mapper.arrays()
                + _DESK.pooling.arrays() + _DESK.denoiser.arrays()
                + _DESK.codec.arrays()] + ["meta.dims"]


@pytest.mark.parametrize("name", DESK_RECORDS)
def test_checkpoint_record_that_does_not_fit_exits_2(name, desk_checkpoint,
                                                      corpus_dir, tmp_path,
                                                      capsys):
    """The record one entry shorter on its last axis, or a 0-d record
    with shape (2,)."""
    records = dict(desk_checkpoint)
    arr = records[name]
    records[name] = np.full(2, arr) if arr.ndim == 0 else arr[..., :-1]
    code, err = generate_from(records, corpus_dir, tmp_path, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [
    {"mapper.4.weight": np.zeros((8, 8)), "mapper.4.bias": np.zeros(8)},
    {"pooling.typo": np.zeros(())},
], ids=["fifth mapper layer", "misspelled name"])
def test_checkpoint_record_the_model_does_not_read_exits_2(
        extra, desk_checkpoint, corpus_dir, tmp_path, capsys):
    code, err = generate_from({**desk_checkpoint, **extra}, corpus_dir,
                              tmp_path, capsys)
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("error: ")
    assert all(name in line for name in extra)
    assert not (tmp_path / "g.rvid").exists()


def _meta(dims, **changes):
    """dims with the named entries changed; fps_num and fps_den name the
    two entries after META_DIMS."""
    names = [*diffusion_toy.META_DIMS, "fps_num", "fps_den"]
    dims = dims.copy()
    for field, value in changes.items():
        dims[names.index(field)] = value
    return dims


@pytest.mark.parametrize("name, damage", [
    ("schedule.betas", lambda betas: betas.reshape(10, 10)),
    ("schedule.betas", lambda betas: np.full_like(betas, 1.5)),
    ("meta.dims", lambda dims: _meta(dims, time_dim=6)),
    ("meta.dims", lambda dims: _meta(dims, token_dim=4)),
    ("meta.dims", lambda dims: _meta(dims, frames_per_video=24.5)),
    ("meta.dims", lambda dims: _meta(dims, fps_num=2.0 ** 33)),
], ids=["betas 10x10", "betas of 1.5", "time_dim 6", "token_dim 4",
        "frames_per_video 24.5", "fps_num 2^33"])
def test_checkpoint_meta_or_schedule_that_does_not_fit_exits_2(
        name, damage, desk_checkpoint, corpus_dir, tmp_path, capsys):
    records = dict(desk_checkpoint)
    records[name] = damage(records[name])
    code, err = generate_from(records, corpus_dir, tmp_path, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


class FullStream(io.StringIO):
    """A stdout on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_that_cannot_be_written_exits_2(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr("sys.stdout", FullStream())
    code = main(["gen-synth", "--out", str(tmp_path / "o"), "--clips", "1",
                 "--duration", "1", "--events", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("name", ["codec.encoder", "denoiser.out_bias",
                                  "mapper.0.weight"])
def test_checkpoint_record_with_a_nan_exits_2(name, desk_checkpoint,
                                              corpus_dir, tmp_path, capsys):
    # the writer refuses NaN, so a marker value is written and replaced
    records = dict(desk_checkpoint)
    records[name] = records[name].copy()
    records[name].flat[0] = 12345.5
    ckpt = tmp_path / "nan.ckpt"
    write_named_tensors(records, ckpt)
    data = ckpt.read_bytes()
    marker = struct.pack("<f", 12345.5)
    assert data.count(marker) == 1
    ckpt.write_bytes(data.replace(marker, struct.pack("<f", np.nan)))
    capsys.readouterr()
    code = main(["generate", "--ckpt", str(ckpt), "--audio",
                 str(corpus_dir / "clip_0000.wav"), "--out",
                 str(tmp_path / "g.rvid"), "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: record {name!r} contains non-finite values\n")
    assert not (tmp_path / "g.rvid").exists()


# The CLI fuzz test starts each command from a valid command line of
# small sizes, then draws up to four flags of the command's parser, each
# with a value from its own choices, the paths below or FUZZ_VALUES: the
# edges of each type and text that is no number. TEMPO_SEED is drawn from
# FUZZ_VALUES too. No size drawn is above 3, so no example allocates
# more than a few MB. A NUL never reaches argv or the environment from a
# shell, so it is drawn only into the config file and stdin.
FUZZ_START = {
    "av-align": ["--video", "{video}", "--audio", "{audio}",
                 "--flow-iterations", "2"],
    "tokens": ["--embeddings", "{embeddings}", "--out", "{out}"],
    "gen-synth": ["--out", "{out}", "--clips", "1", "--duration", "1",
                  "--events", "2"],
    "train-toy": ["--corpus", "{corpus}", "--ckpt", "{out}", "--steps", "1",
                  "--frames", "4", "--batch", "2"],
    "generate": ["--ckpt", "{ckpt}", "--audio", "{audio}", "--out",
                 "{out}"],
}
FUZZ_VALUES = ["0", "-1", "1", "2", "3", "0.5", "nan", "inf", "-inf",
               "1e400", "", "é", "٣", "30000/1001", "1/0", "24/", "/", "x",
               "2,2,2", "8,8", "0,8,8"]
FUZZ_CONFIG_LINES = [b"seed=4", b"tolerance=2", b" steps = 2 ", b"clips=1",
                     b"kind=flash", b"mode=vec", b"# comment", b"clips=x",
                     b"no_such_key=1", b"loss_log=a\0b", b"hidden=8,8",
                     b"fps_override=1/0", b"=", b"width", b"out=o",
                     b"json=0", b"batch=1", b"toy_encoder=1", b"\xff=1"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The fuzz test's directory, its valid input files, the paths drawn
    for an input or an output flag, and the lines drawn into stdin."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    assert main(["gen-synth", "--out", str(corpus), "--clips", "1",
                 "--duration", "1", "--events", "2", "--seed", "2"]) == 0
    assert main(["train-toy", "--corpus", str(corpus), "--steps", "0",
                 "--ckpt", str(root / "desk.ckpt")]) == 0
    write_embeddings(AudioEmbeddings(np.zeros((4, 2, 12))), root / "e.tte")
    (root / "junk").write_bytes(b"RVID\1\0")
    inputs = {"video": str(corpus / "clip_0000.rvid"),
              "audio": str(corpus / "clip_0000.wav"),
              "embeddings": str(root / "e.tte"),
              "ckpt": str(root / "desk.ckpt"), "corpus": str(corpus)}
    bad = ["", str(root), str(root / "missing"), str(root / "junk"),
           str(root / "junk" / "o"), str(root / ("n" * 300))]
    batch = [f"{inputs['video']} {inputs['audio']}",
             f"{inputs['video']}\0 {inputs['audio']}", inputs["video"],
             f"{root / 'junk'} {inputs['audio']}", ""]
    return root, inputs, bad, batch


@st.composite
def command_lines(draw, command, files):
    """argv for command: maybe --config, FUZZ_START, and up to four drawn
    flags, which argparse lets override the start."""
    root, inputs, bad, _ = files
    # each command writes its own output, never onto an input file
    out = str(root / f"{command}.out")
    start = {**inputs, "out": out}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices[command]._actions if a.option_strings
               and not isinstance(a, argparse._HelpAction)]
    outputs = {"out", "loss_log"}
    if command == "train-toy":
        outputs.add("ckpt")
    argv = []
    config = draw(st.lists(st.sampled_from(FUZZ_CONFIG_LINES), max_size=2))
    if config:
        (root / "fuzz.cfg").write_bytes(b"\n".join(config) + b"\n")
        argv += ["--config", str(root / "fuzz.cfg")]
    argv += [command] + [arg.format(**start) for arg in FUZZ_START[command]]
    for action in draw(st.lists(st.sampled_from(actions), max_size=4,
                                unique=True)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs == 0:
            continue
        if action.dest in outputs:
            values = [out] + bad
        elif action.dest in inputs:
            values = sorted(inputs.values()) + bad
        else:
            values = list(action.choices or ()) + FUZZ_VALUES
        argv.append(draw(st.sampled_from(values)))
    return argv


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_command_line_fuzz_exits_cleanly(data, fuzz_files):
    """Any drawn command line exits 0, 2, 3 or 4 without a traceback,
    and a failure prints exactly one error line."""
    command = data.draw(st.sampled_from(sorted(FUZZ_START)))
    argv = data.draw(command_lines(command, fuzz_files))
    seed = data.draw(st.sampled_from([None, "7"])
                     | st.sampled_from(FUZZ_VALUES))
    stdin = "".join(line + "\n" for line in data.draw(
        st.lists(st.sampled_from(fuzz_files[3]), max_size=3)))
    env = {} if seed is None else {"TEMPO_SEED": seed}
    err = io.StringIO()
    with mock.patch.dict(os.environ, env), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            mock.patch.object(cli, "worker_count", lambda: 1), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
