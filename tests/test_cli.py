import io
import json
import multiprocessing
import struct
import warnings

import numpy as np
import pytest

from tempokit import cli, diffusion_toy, motion_analysis
from tempokit.cli import build_parser, main
from tempokit.errors import FormatError
from tempokit.media_io import (AudioSignal, Video, read_condition,
                               read_named_tensors, read_video, read_wav,
                               write_named_tensors, write_video, write_wav)
from tempokit.motion_analysis import FlowParams


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
        assert main(["av-align", "--batch"] + flags) == 0
        assert capsys.readouterr().out == expected

    def test_one_solve_per_distinct_video(self, corpus_dir, tmp_path,
                                          monkeypatch):
        # calls counted in a pool worker would not reach this list; the
        # split across workers is covered by TestFlowPlan
        monkeypatch.setattr(cli, "worker_count", lambda: 1)
        lines = rescore_batch(corpus_dir, tmp_path, monkeypatch)
        solved = []
        curve = motion_analysis.motion_curve

        def counting_curve(video, params=None):
            solved.append(video.frame_count)
            return curve(video, params)

        monkeypatch.setattr(motion_analysis, "motion_curve", counting_curve)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["av-align", "--batch"]) == 0
        assert solved == [96, 96]

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

        def counting_curve(video, params=None):
            calls.append(video.frame_count)
            return curve(video, params)

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


class TestFlowPlan:
    SHAPES = [("a", 96, 64, 64), ("b", 96, 96, 128), ("c", 2, 3, 3),
              ("d", 41, 64, 64), ("e", 7, 96, 128)]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7, 64])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_every_pair_solved_once_in_balanced_bins(self, workers, count):
        videos = self.SHAPES[:count]
        bins = cli.plan_flow(videos, workers)
        assert bins == cli.plan_flow(videos, workers)
        assert 1 <= len(bins) <= workers
        for key, n, _, _ in videos:
            ranges = sorted((start, stop) for ranges in bins
                            for k, start, stop in ranges if k == key)
            assert ranges[0][0] == 1 and ranges[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            assert all(start < stop for start, stop in ranges)
        size = {key: h * w for key, _, h, w in videos}
        share = sum((n - 1) * h * w for _, n, h, w in videos) / workers
        for ranges in bins:
            assert len({key for key, _, _ in ranges}) == len(ranges)
            cost = sum((stop - start) * size[key]
                       for key, start, stop in ranges)
            assert abs(cost - share) <= max(size.values())

    def test_align_distinct_shapes_split_without_cutting_a_video(self):
        videos = [("s0", 96, 64, 64), ("s1", 96, 64, 64),
                  ("s2", 96, 64, 64), ("big", 96, 96, 128)]
        assert cli.plan_flow(videos, 2) == [
            [("s0", 1, 96), ("s1", 1, 96), ("s2", 1, 96)],
            [("big", 1, 96)]]

    def test_no_videos_no_bins(self):
        assert cli.plan_flow([], 2) == []


class TestParallelFlow:
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

    def test_spawned_workers_give_the_serial_curves(self, mixed_clips):
        # spawn is the default start method on macOS; it and forkserver
        # (the Linux default from Python 3.14) pickle the work
        videos = [(path, *read_video(path).frames.shape[:3])
                  for path, _ in mixed_clips.values()]
        flow = FlowParams(iterations=20)
        default = multiprocessing.get_start_method()
        multiprocessing.set_start_method("spawn", force=True)
        try:
            spawned = cli.solve_curves(videos, flow, 3)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert multiprocessing.active_children() == []
        for path, _, _, _ in videos:
            assert np.array_equal(spawned[path], motion_analysis.motion_curve(
                read_video(path), flow))

    def test_worker_error_exits_with_its_code(self, mixed_clips, tmp_path,
                                              monkeypatch, capsys):
        broken = tmp_path / "broken.rvid"
        with open(mixed_clips["large"][0], "rb") as fh:
            broken.write_bytes(fh.read(100))
        with pytest.raises(FormatError) as raised:
            read_video(broken)
        plan = cli.plan_flow

        def plan_with_a_broken_worker(videos, workers):
            bins = plan(videos, workers)
            bins[1] = [(str(broken), start, stop)
                       for _, start, stop in bins[1]]
            return bins

        monkeypatch.setattr(cli, "plan_flow", plan_with_a_broken_worker)
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        video, audio = mixed_clips["large"]
        assert main(["av-align", "--video", video, "--audio", audio,
                     "--flow-iterations", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {raised.value}\n"
        assert multiprocessing.active_children() == []


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


BAD_INPUTS = {
    "non-int clip count": ["gen-synth", "--out", "{tmp}/o", "--clips", "abc"],
    "non-int flow iterations": ["av-align", "{clip}", "--flow-iterations",
                                "x"],
    "zero smoothing window": ["av-align", "{clip}", "--smoothing", "0"],
    "zero fps denominator": ["av-align", "{clip}", "--fps-override", "30/0"],
    "negative fps": ["av-align", "{clip}", "--fps-override", "-24"],
    "non-numeric fps": ["av-align", "{clip}", "--fps-override", "abc"],
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
        "tokens", "--audio", "{corpus}/clip_0000.wav", "--toy-encoder",
        "--dim", "5", "--out", "{tmp}/t.ttc"],
}


def lying_checkpoint(*dims):
    """A one-record TTCKPT1 file whose dims claim values it does not hold."""
    name = b"mapper.0.w"
    return (b"TTCKPT1" + struct.pack("<2I", 1, len(name)) + name
            + struct.pack(f"<{1 + len(dims)}I", len(dims), *dims))


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_with_error_line(argv, corpus_dir, tmp_path,
                                           capsys):
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
    clip = ["--video", str(corpus_dir / "clip_0000.rvid"),
            "--audio", str(corpus_dir / "clip_0000.wav")]
    expanded = []
    for arg in argv:
        expanded += clip if arg == "{clip}" else [
            arg.format(tmp=tmp_path, corpus=corpus_dir)]
    try:
        code = main(expanded)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert any("error:" in line for line in err.splitlines())
    assert "Traceback" not in err
