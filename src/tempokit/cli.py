"""Command-line front end.

Subcommands:
  av-align   score audio-video temporal alignment (file pair or --batch)
  tokens     export per-frame conditioning tokens as a TTC1 file
  gen-synth  write a synthetic audio-video corpus
  train-toy  train the adapter on a corpus, write a TTCKPT1 checkpoint
  generate   sample a video from a checkpoint and an audio file

av-align checks every pair (files, frame shapes, durations) before it
solves any flow. It then cuts the optical flow of the distinct videos
into jobs of motion_curve's own chunks, which one process per core in
its affinity mask (see worker_count; taskset restricts it) claims from
one shared counter, so a process that finishes early takes the next
job. The command's own process detects the audio onsets while the
other processes solve. Each distinct frame pair is solved once: a pair
whose two frames an earlier pair holds, byte for byte and in either
order, takes that pair's motion value, and a still pair has exactly
zero flow. The output is byte-identical for any number of processes.

Exit codes: 0 success, 2 format or input error, OSError or MemoryError,
3 duration mismatch beyond the truncation policy, 4 numeric failure
(non-finite loss). Each error class carries its code (tempokit.errors).

A plain-text config file (--config, key=value per line, keys mirror
long flag names with '-' or '_') can preset any flag that takes a value
and is not required; a switch such as --json is no key. Explicit flags
win. The TEMPO_SEED environment variable overrides the default seed 0
for commands that take one; a seed is a nonnegative integer.
"""

import argparse
import json
import os
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import (audio_analysis, av_align, diffusion_toy, media_io,
               motion_analysis, synthgen, tempo_tokens)
from .audio_analysis import toy_audio_features
from .errors import FormatError, TempokitError, ValidationError
from .motion_analysis import FlowParams
from .numerics import Rng
from .peaks import PeakPickParams


def _seed(args):
    """The command's seed: --seed, else TEMPO_SEED, else 0."""
    seed = args.seed
    if seed is None:
        seed = os.environ.get("TEMPO_SEED", "0")
    if not str(seed).isdecimal():
        raise ValidationError(f"seed {seed!r} is not a nonnegative integer")
    return int(seed)


def _parse_fps(text):
    """'30000/1001' or '29.97' -> (num, den), both positive."""
    try:
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
        else:
            value = float(text)
            num, den = ((int(value), 1) if value == int(value)
                        else (int(round(value * 1000)), 1000))
            if num == 0 < value:  # decimal rates are kept to 1/1000
                raise ValidationError(f"frame rate {text!r} rounds to 0")
    except (ValueError, OverflowError):
        raise ValidationError(f"bad frame rate {text!r}") from None
    if num <= 0 or den <= 0:
        raise ValidationError(f"frame rate {text!r} must be positive")
    return num, den


def _parse_hidden(text):
    """'64,64,64' -> three positive mapper hidden sizes."""
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        sizes = ()
    if len(sizes) != 3 or min(sizes) < 1:
        raise ValidationError(
            f"--hidden {text!r} must be three positive sizes, e.g. 64,64,64")
    return sizes


def _load_config_file(path):
    settings = {}
    for line in media_io.read_text_lines(path, "utf-8"):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        settings[key.strip().replace("-", "_")] = value.strip()
    return settings


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def worker_count():
    """Processes that solve av-align's flow: one per core this process
    may run on (its affinity mask, so taskset restricts it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class CheckedVideo(NamedTuple):
    """What av-align keeps of a video once its check passed: its sizes
    and pair sources, from which flow_jobs are made, one CRC-32 per frame
    (motion_analysis.frame_hashes), and the frame_count and fps that
    av_align_from_media reads when it is given the motion curve. No
    frame is kept; a flow job refuses a file that no longer has these
    sizes, or whose frames that the job uses no longer have these CRCs."""
    frame_count: int
    fps: float
    height: int
    width: int
    sources: np.ndarray
    crcs: list

    @classmethod
    def of(cls, video):
        crcs = motion_analysis.frame_hashes(video.frames)
        return cls(video.frame_count, video.fps, *video.frames.shape[1:3],
                   motion_analysis.pair_sources(video.frames, crcs), crcs)


class CheckedAudio(NamedTuple):
    """What av_align_from_media reads of an audio given its onsets."""
    duration: float
    sample_rate: int


def flow_jobs(videos):
    """The flow of videos (path -> CheckedVideo) as one list of jobs,
    (path, pairs): each video's solved pairs, in check order, cut into
    motion_curve's own chunks (motion_analysis.flow_chunks)."""
    return [(path, ks) for path, v in videos.items()
            for ks in motion_analysis.flow_chunks(v.sources, v.height,
                                                  v.width)]


def _claims(counter, total):
    """Job indices claimed from a shared counter until none is left."""
    while True:
        with counter.get_lock():
            job = counter.value
            counter.value = job + 1
        if job >= total:
            return
        yield job


def _solve_jobs(jobs, claimed, videos, flow):
    """{index: values} for the claimed indices into jobs, (path, pairs)
    of the videos (path -> CheckedVideo). Each video is read when a job
    first needs it, after the last one is freed, and refused if it
    changed since it was checked."""
    solved, path, video = {}, None, None
    for index in claimed:
        job_path, ks = jobs[index]
        checked = videos[job_path]
        if job_path != path:
            video = None  # free the last video before reading the next
            path, video = job_path, media_io.read_video(job_path)
        used = sorted({*(ks - 1), *ks})
        if (video.frames.shape[:3] != (checked.frame_count, checked.height,
                                       checked.width)
                or motion_analysis.frame_hashes(video.frames[used])
                != [checked.crcs[i] for i in used]):
            raise FormatError(f"{path} changed since it was checked")
        sources = np.zeros(checked.frame_count, dtype=np.intp)
        sources[ks] = ks
        solved[index] = motion_analysis.motion_curve(
            video, flow, sources=sources)[ks]
    return solved


def _help(conn, jobs, counter, videos, flow):
    """A helper process: solve claimed jobs and send ({index: values},
    None), or (None, the error) after leaving no job to claim."""
    try:
        result = _solve_jobs(jobs, _claims(counter, len(jobs)), videos,
                             flow), None
    except Exception as exc:  # the parent raises it in its own process
        with counter.get_lock():
            counter.value = len(jobs)
        result = None, exc
    conn.send(result)
    conn.close()


def solve_curves(videos, flow, workers, meanwhile):
    """Full-length motion curves of videos (path -> CheckedVideo), and
    what meanwhile() returns.

    This process and up to workers - 1 helper processes (at most one
    per job after the first) claim the flow_jobs from one counter. With
    helpers, this process solves job 0 first, then runs meanwhile,
    holding no frames, while they solve; without, it runs meanwhile
    first. Each pair then takes its source's value, which any process
    may have solved, so the curves are bit-identical for any number of
    workers and any start method. A helper's error is raised here, and
    no helper outlives the call."""
    jobs = flow_jobs(videos)
    solved, helpers = {}, []
    first, claimed = [], range(len(jobs))
    try:
        if min(workers, len(jobs)) > 1:
            import multiprocessing  # only a command that starts helpers pays
            counter = multiprocessing.Value("q", 1)
            first, claimed = [0], _claims(counter, len(jobs))
            for _ in range(min(workers, len(jobs)) - 1):
                reader, writer = multiprocessing.Pipe(duplex=False)
                helper = multiprocessing.Process(
                    target=_help, args=(writer, jobs, counter, videos, flow))
                helper.start()
                writer.close()
                helpers.append((helper, reader))
        solved.update(_solve_jobs(jobs, first, videos, flow))
        extra = meanwhile()
        solved.update(_solve_jobs(jobs, claimed, videos, flow))
        for helper, reader in helpers:
            try:
                part, error = reader.recv()
            except EOFError:
                helper.join()
                raise ChildProcessError(
                    f"a flow process exited with code {helper.exitcode}"
                ) from None
            if error is not None:
                raise error
            solved.update(part)
    except BaseException:
        for helper, _ in helpers:
            helper.terminate()
        raise
    finally:
        for helper, reader in helpers:
            helper.join()
            reader.close()
    curves = {path: np.zeros(v.frame_count) for path, v in videos.items()}
    for index, (path, ks) in enumerate(jobs):
        curves[path][ks] = solved[index]
    return {path: curves[path][v.sources]
            for path, v in videos.items()}, extra


def cmd_av_align(args):
    peaks = PeakPickParams(threshold_k=args.threshold_k,
                           smoothing=args.smoothing)
    flow = FlowParams(alpha=args.flow_alpha, iterations=args.flow_iterations)
    if args.tolerance < 0:
        raise ValidationError(f"--tolerance {args.tolerance} must be >= 0")
    if args.onset_win < 1:
        raise ValidationError(f"--onset-win {args.onset_win} must be >= 1")
    fps = None
    if args.fps_override:
        num, den = _parse_fps(args.fps_override)
        fps = num / den

    # Every pair is checked, in input order, before any flow is solved.
    # Each video (by path, as written) is read and checked once, and
    # only its CheckedVideo is kept: a video listed on several --batch
    # lines is solved once, and a repeat checks only the durations.
    pairs, videos, audios = [], {}, {}

    def check_pair(video_path, audio_path):
        if video_path not in videos:
            video = media_io.read_video(video_path)
            motion_analysis.check_video(video)
            videos[video_path] = CheckedVideo.of(video)
        video = videos[video_path]
        audio = media_io.read_wav(audio_path)
        audios[audio_path] = CheckedAudio(audio.duration, audio.sample_rate)
        # warns once here when the pair will be truncated
        _, audio = av_align._reconcile_durations(
            video.frame_count, audio, fps if fps is not None else video.fps)
        if audio.samples.size < args.onset_win:
            raise ValidationError(
                f"{audio_path} has {audio.samples.size} samples to score, "
                f"fewer than --onset-win {args.onset_win}")
        pairs.append((video_path, audio_path))

    if args.batch:
        for lineno, raw in enumerate(sys.stdin, 1):
            line = raw.strip()
            if not line:
                continue
            if "\0" in line:
                raise FormatError(f"--batch line {lineno} holds a NUL byte")
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"--batch line {lineno}: expected "
                                  f"'video audio', got {len(parts)} fields")
            check_pair(*parts)
    elif args.video is None or args.audio is None:
        raise ValidationError("av-align needs --video and --audio, or --batch")
    else:
        check_pair(args.video, args.audio)

    # The onsets of each audio against each frame count and frame rate
    # it is scored at, detected while the flow is solved elsewhere.
    keys = [(audio_path, videos[video_path].frame_count,
             fps if fps is not None else videos[video_path].fps)
            for video_path, audio_path in pairs]

    def detect_every_onset():
        onsets = {}
        for key in dict.fromkeys(keys):
            audio_path, frame_count, rate = key
            n_frames, audio = av_align._reconcile_durations(
                frame_count, media_io.read_wav(audio_path), rate)
            onsets[key] = audio_analysis.detect_onsets(
                audio, rate, peaks, n_frames=n_frames, win=args.onset_win)
        return onsets

    reports = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "durations differ", UserWarning)
        curves, onsets = solve_curves(videos, flow, worker_count(),
                                      detect_every_onset)
        for (video_path, audio_path), key in zip(pairs, keys):
            reports.append((video_path, av_align.av_align_from_media(
                videos[video_path], audios[audio_path],
                peak_params=peaks, flow_params=flow,
                tolerance=args.tolerance, fps_override=fps,
                onset_win=args.onset_win, motion=curves[video_path],
                onsets=onsets[key])))

    if not args.batch:
        report = reports[0][1]
        print(report.to_json() if args.json else report.to_text())
    elif args.json:
        print(json.dumps(
            {"clips": [{"video": name, **rep.to_dict()}
                       for name, rep in reports],
             "mean_score": (float(np.mean([r.score for _, r in reports]))
                            if reports else None)},
            indent=2))
    else:
        for name, rep in reports:
            print(f"{name} score={rep.score:.6f}")
        if reports:
            mean = np.mean([r.score for _, r in reports])
            print(f"mean_score={mean:.6f}")


def cmd_tokens(args):
    if bool(args.embeddings) == bool(args.audio):
        raise ValidationError(
            "exactly one of --embeddings or --audio is required")
    seed = _seed(args)

    if args.ckpt:
        comp = diffusion_toy.load_checkpoint(args.ckpt)
    else:
        comp = diffusion_toy.build_components(
            diffusion_toy.desk_train_dims(), seed)

    if args.embeddings:
        emb = media_io.read_embeddings(args.embeddings)
    else:
        if not args.toy_encoder:
            raise ValidationError("--audio requires --toy-encoder")
        audio = media_io.read_wav(args.audio)
        emb = toy_audio_features(audio, args.length, comp.dims.embed_layers,
                                 comp.dims.embed_dim)

    tokens = tempo_tokens.map_audio(emb, comp.mapper)
    if args.mode == "vec":
        cond = tempo_tokens.single_vector_condition(tokens)
    else:
        cond = tempo_tokens.build_condition(tokens, comp.pooling)
    media_io.write_condition(cond, args.out)
    print(f"tokens_per_frame={cond.tokens_per_frame}")


def cmd_gen_synth(args):
    seed = _seed(args)
    config = synthgen.SynthConfig(
        width=args.width, height=args.height, fps=args.fps,
        duration=args.duration, sample_rate=args.sample_rate,
        n_events=args.events, event_kind=args.kind,
        shift_frames=args.shift, seed=seed)
    manifest = synthgen.corpus(config, args.clips, args.out)
    print(f"manifest={manifest}")


def cmd_train_toy(args):
    seed = _seed(args)
    config = diffusion_toy.TrainConfig(
        batch_videos=args.batch, frames_per_video=args.frames,
        steps=args.steps, learning_rate=args.lr,
        lambda_l1=args.lambda_l1, seed=seed)
    clips = synthgen.read_corpus(os.path.join(args.corpus, "manifest.txt")
                                 if os.path.isdir(args.corpus)
                                 else args.corpus)
    dims = diffusion_toy.desk_train_dims()
    if args.hidden:
        dims.mapper_hidden = _parse_hidden(args.hidden)
    comp = diffusion_toy.build_components(dims, seed)
    items = [diffusion_toy.prepare_item(pair, comp.codec, dims.embed_layers,
                                        dims.embed_dim)
             for pair, _ in clips]
    history = diffusion_toy.train(items, config, comp.mapper, comp.pooling,
                                  comp.denoiser, comp.schedule)
    diffusion_toy.save_checkpoint(comp, args.ckpt)
    if args.loss_log:
        with open(args.loss_log, "w", encoding="ascii") as fh:
            fh.write("\n".join(f"{v:.10g}" for v in history) + "\n")
    if history:
        window = min(20, len(history))
        lead = float(np.mean(history[:window]))
        trail = float(np.mean(history[-window:]))
        print(f"steps={len(history)} lead{window}_mean={lead:.6f} "
              f"trail{window}_mean={trail:.6f} ratio={trail / lead:.4f}")
    else:
        print("steps=0 (checkpoint equals initialization)")


def cmd_generate(args):
    seed = _seed(args)
    comp = diffusion_toy.load_checkpoint(args.ckpt)
    audio = media_io.read_wav(args.audio)
    emb = toy_audio_features(audio, comp.dims.frames_per_video,
                             comp.dims.embed_layers, comp.dims.embed_dim)
    rng = Rng(seed).derive(diffusion_toy._KEY_GENERATE)
    video = diffusion_toy.generate(emb, comp.mapper, comp.pooling,
                                   comp.denoiser, comp.codec, comp.schedule,
                                   rng, fps=comp.dims.fps)
    media_io.write_video(video, args.out)
    print(f"frames={video.frame_count} size={video.frames.shape[2]}x"
          f"{video.frames.shape[1]} fps={video.fps:g}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """Subcommand parser that records the dest of every argument it
    defines that takes a value (not a switch such as --json or --help),
    so config keys can be matched against them."""

    def __init__(self, *args, **kwargs):
        self.dests = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs != 0:
            self.dests.add(action.dest)
        return action


def build_parser(config=None):
    """The tempokit parser; config (key -> text, from a --config file)
    presets flags of every subcommand that takes the key. Argparse
    converts the text with the flag's type, and explicit flags win."""
    parser = argparse.ArgumentParser(
        prog="tempokit",
        description="audio-conditioned video toolkit: alignment metric, "
                    "token export, synthetic data, toy training")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    p = sub.add_parser("av-align", help="score audio-video alignment")
    p.add_argument("--video", help="RVID file or PPM directory")
    p.add_argument("--audio", help="WAV file")
    p.add_argument("--tolerance", default=1, type=int,
                   help="match window in frames (default 1)")
    p.add_argument("--fps-override", default=None,
                   help="rational fps like 30000/1001")
    p.add_argument("--json", action="store_true")
    p.add_argument("--batch", action="store_true",
                   help="read 'video audio' path pairs from stdin")
    p.add_argument("--onset-win", default=1024, type=int)
    p.add_argument("--threshold-k", default=1.5, type=float)
    p.add_argument("--smoothing", default=5, type=int)
    p.add_argument("--flow-alpha", default=10.0, type=float)
    p.add_argument("--flow-iterations", default=100, type=int)
    p.set_defaults(func=cmd_av_align)

    p = sub.add_parser("tokens", help="export conditioning tokens (TTC1)")
    p.add_argument("--embeddings", help="TTE1 input file")
    p.add_argument("--audio", help="WAV input (with --toy-encoder)")
    p.add_argument("--toy-encoder", action="store_true")
    p.add_argument("--L", dest="length", default=24, type=int,
                   help="segments for the toy encoder")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("windows", "vec"), default="windows")
    p.add_argument("--ckpt", help="optional trained checkpoint")
    p.add_argument("--seed", default=None, type=int)
    p.set_defaults(func=cmd_tokens)

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--clips", default=32, type=int)
    p.add_argument("--shift", default=0, type=int)
    p.add_argument("--seed", default=None, type=int)
    p.add_argument("--width", default=64, type=int)
    p.add_argument("--height", default=64, type=int)
    p.add_argument("--fps", default=24, type=int)
    p.add_argument("--duration", default=4.0, type=float)
    p.add_argument("--sample-rate", default=16000, type=int)
    p.add_argument("--events", default=6, type=int)
    p.add_argument("--kind", choices=("bounce", "flash"), default="bounce")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train-toy", help="train the adapter on a corpus")
    p.add_argument("--corpus", required=True,
                   help="corpus directory or manifest path")
    p.add_argument("--steps", default=200, type=int)
    p.add_argument("--lr", default=2e-3, type=float)
    p.add_argument("--lambda-l1", dest="lambda_l1", default=0.5, type=float)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--loss-log", default=None)
    p.add_argument("--batch", default=8, type=int)
    p.add_argument("--frames", default=24, type=int)
    p.add_argument("--hidden", default=None,
                   help="mapper hidden sizes, e.g. 64,64,64")
    p.add_argument("--seed", default=None, type=int)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("generate", help="sample a video from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", default=None, type=int)
    p.set_defaults(func=cmd_generate)

    if config:
        commands = sub.choices.values()
        unknown = set(config).difference(*(p.dests for p in commands))
        if unknown:
            raise ValidationError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        for p in commands:
            p.set_defaults(**{key: value for key, value in config.items()
                              if key in p.dests})
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # first pass: only --config, which must be read before the real parse
    pre = argparse.ArgumentParser(prog="tempokit", add_help=False)
    pre.add_argument("--config")
    try:
        config_path = pre.parse_known_args(argv)[0].config
        config = _load_config_file(config_path) if config_path else None
        args = build_parser(config).parse_args(argv)
        args.func(args)
        return 0
    except (TempokitError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)  # 2 for OSError and MemoryError


if __name__ == "__main__":
    sys.exit(main())
