"""Command-line front end.

Subcommands:
  av-align   score audio-video temporal alignment (file pair or --batch)
  tokens     export per-frame conditioning tokens as a TTC1 file
  gen-synth  write a synthetic audio-video corpus
  train-toy  train the adapter on a corpus, write a TTCKPT1 checkpoint
  generate   sample a video from a checkpoint and an audio file

av-align checks every pair (files, frame shapes, durations) before it
solves any flow. It then splits the optical flow of the distinct videos
into frame-pair ranges across one process per core in its affinity mask
(see worker_count; taskset restricts it); the output is byte-identical
for any number of processes.

Exit codes: 0 success, 2 format or input error, 3 duration mismatch
beyond the truncation policy, 4 numeric failure (non-finite loss).

A plain-text config file (--config, key=value per line, keys mirror
long flag names with '-' or '_') can preset any flag; explicit flags
win. The TEMPO_SEED environment variable overrides the default seed
for commands that take one.
"""

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import (av_align, diffusion_toy, media_io, motion_analysis, synthgen,
               tempo_tokens)
from .audio_analysis import toy_audio_features
from .errors import (DurationError, FormatError, NumericError, ShapeError,
                     ValidationError)
from .media_io import Video
from .motion_analysis import FlowParams
from .numerics import Rng
from .peaks import PeakPickParams

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_DURATION = 3
EXIT_NUMERIC = 4
# The exit code of each error class that main reports as an error line.
EXIT_CODES = {
    FileNotFoundError: EXIT_FORMAT,
    IsADirectoryError: EXIT_FORMAT,
    FormatError: EXIT_FORMAT,
    ValidationError: EXIT_FORMAT,
    ShapeError: EXIT_FORMAT,
    DurationError: EXIT_DURATION,
    NumericError: EXIT_NUMERIC,
}


def _default_seed():
    try:
        return int(os.environ.get("TEMPO_SEED", "0"))
    except ValueError:
        return 0


def _parse_fps(text):
    """'30000/1001' or '29.97' -> (num, den), both positive."""
    try:
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
        else:
            value = float(text)
            num, den = ((int(value), 1) if value == int(value)
                        else (int(round(value * 1000)), 1000))
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ValidationError(f"config file {path} is not UTF-8") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
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


def plan_flow(videos, workers):
    """Deal the frame pairs of videos, (key, frame_count, height, width)
    tuples, into at most `workers` bins of about equal cost, counted as
    pairs x height x width.

    The pairs of all videos are laid end to end in the order given and
    cut at the pair boundaries nearest to each equal share. So every
    pair lands in exactly one bin, each bin's cost is within one pair of
    its share, and a bin holds at most one range of each video. A bin is
    a list of (key, start, stop) ranges, the pairs that end at frames
    start..stop-1 (1 <= start < stop <= frame_count); empty bins are
    dropped, so the first bin holds the first pair.
    """
    total = sum((n - 1) * h * w for _, n, h, w in videos)
    bounds = [0]
    for j in range(1, workers if total else 0):
        share = total * j / workers
        done = pairs = 0
        for _, n, h, w in videos:
            if done + (n - 1) * h * w >= share:
                break
            done += (n - 1) * h * w
            pairs += n - 1
        bounds.append(pairs + round((share - done) / (h * w)))
    bounds.append(sum(n - 1 for _, n, _, _ in videos))
    bins = [[] for _ in bounds[1:]]
    first = 0  # index of each video's first pair in the whole sequence
    for key, n, _, _ in videos:
        for ranges, lo, hi in zip(bins, bounds, bounds[1:]):
            lo, hi = max(lo, first), min(hi, first + n - 1)
            if lo < hi:
                ranges.append((key, lo - first + 1, hi - first + 1))
        first += n - 1
    return [ranges for ranges in bins if ranges]


def solve_ranges(ranges, flow):
    """The motion-curve pieces curve[start:stop] of the video file at
    each (path, start, stop) range. Pool workers run this too: it gets
    only paths, ranges and FlowParams, and returns float64 arrays."""
    pieces = []
    for path, start, stop in ranges:
        video = media_io.read_video(path)
        # the flow of a frame pair depends only on that pair
        part = Video(video.frames[start - 1:stop], video.fps_num,
                     video.fps_den)
        pieces.append(motion_analysis.motion_curve(part, flow)[1:])
    return pieces


def solve_curves(videos, flow, workers):
    """Full-length motion curves of videos, (path, frame_count, height,
    width) tuples, keyed by path: the flow is split by plan_flow, this
    process solves the first bin and a multiprocessing pool the rest.
    The curves are bit-identical for any number of workers."""
    bins = plan_flow(videos, workers)
    if len(bins) > 1:
        import multiprocessing  # only a command that starts a pool pays
        with multiprocessing.Pool(len(bins) - 1) as pool:
            pending = pool.starmap_async(
                solve_ranges, [(ranges, flow) for ranges in bins[1:]])
            results = [solve_ranges(bins[0], flow)] + pending.get()
    else:
        results = [solve_ranges(ranges, flow) for ranges in bins]
    curves = {path: np.zeros(n) for path, n, _, _ in videos}
    for ranges, pieces in zip(bins, results):
        for (path, start, stop), piece in zip(ranges, pieces):
            curves[path][start:stop] = piece
    return curves


def cmd_av_align(args):
    peaks = PeakPickParams(threshold_k=args.threshold_k,
                           smoothing=args.smoothing)
    flow = FlowParams(alpha=args.flow_alpha, iterations=args.flow_iterations)
    fps = None
    if args.fps_override:
        num, den = _parse_fps(args.fps_override)
        fps = num / den

    # Every pair is checked, in input order, before any flow is solved.
    # Only the shape of each video (by path, as written) is kept: a video
    # listed on several --batch lines has its flow solved once.
    pairs, shapes = [], {}

    def check_pair(video_path, audio_path):
        video = media_io.read_video(video_path)
        audio = media_io.read_wav(audio_path)
        motion_analysis.check_video(video)
        # warns once here when the pair will be truncated
        av_align._reconcile_durations(
            video, audio, fps if fps is not None else video.fps)
        pairs.append((video_path, audio_path))
        shapes.setdefault(video_path, video.frames.shape[:3])

    if args.batch:
        for lineno, raw in enumerate(sys.stdin, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"--batch line {lineno}: expected "
                                  f"'video audio', got {len(parts)} fields")
            check_pair(*parts)
    else:
        check_pair(args.video, args.audio)

    curves = solve_curves([(path, *shape) for path, shape in shapes.items()],
                          flow, worker_count())
    reports = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "durations differ", UserWarning)
        for video_path, audio_path in pairs:
            reports.append((video_path, av_align.av_align_from_media(
                media_io.read_video(video_path),
                media_io.read_wav(audio_path), peak_params=peaks,
                flow_params=flow, tolerance=args.tolerance, fps_override=fps,
                onset_win=args.onset_win, motion=curves[video_path])))

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
    return EXIT_OK


def cmd_tokens(args):
    if bool(args.embeddings) == bool(args.audio):
        raise ValidationError(
            "exactly one of --embeddings or --audio is required")
    seed = args.seed if args.seed is not None else _default_seed()

    if args.ckpt:
        comp = diffusion_toy.load_checkpoint(args.ckpt)
        mapper, pooling, dims = comp.mapper, comp.pooling, comp.dims
    else:
        dims = diffusion_toy.desk_train_dims()
        comp = diffusion_toy.build_components(dims, seed)
        mapper, pooling = comp.mapper, comp.pooling

    if args.embeddings:
        emb = media_io.read_embeddings(args.embeddings)
    else:
        if not args.toy_encoder:
            raise ValidationError("--audio requires --toy-encoder")
        audio = media_io.read_wav(args.audio)
        emb = toy_audio_features(audio, args.length, args.layers, args.dim)
    if emb.layers * emb.dim != mapper.in_dim:
        raise ValidationError(f"embeddings have segment dim "
                              f"{emb.layers * emb.dim}, mapper expects "
                              f"{mapper.in_dim}")

    tokens = tempo_tokens.map_audio(emb, mapper)
    if args.mode == "vec":
        cond = tempo_tokens.single_vector_condition(tokens)
    else:
        cond = tempo_tokens.build_condition(tokens, pooling)
    media_io.write_condition(cond, args.out)
    print(f"tokens_per_frame={cond.tokens_per_frame}")
    return EXIT_OK


def cmd_gen_synth(args):
    seed = args.seed if args.seed is not None else _default_seed()
    config = synthgen.SynthConfig(
        width=args.width, height=args.height, fps=args.fps,
        duration=args.duration, sample_rate=args.sample_rate,
        n_events=args.events, event_kind=args.kind,
        shift_frames=args.shift, seed=seed)
    manifest = synthgen.corpus(config, args.clips, args.out)
    print(f"manifest={manifest}")
    return EXIT_OK


def cmd_train_toy(args):
    seed = args.seed if args.seed is not None else _default_seed()
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
    config = diffusion_toy.TrainConfig(
        batch_videos=args.batch, frames_per_video=args.frames,
        steps=args.steps, learning_rate=args.lr,
        lambda_l1=args.lambda_l1, seed=seed)
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
    return EXIT_OK


def cmd_generate(args):
    seed = args.seed if args.seed is not None else _default_seed()
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """Subcommand parser that records the dest of every argument it
    defines, so config keys can be matched against them."""

    def __init__(self, *args, **kwargs):
        self.dests = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
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
    p.add_argument("--layers", default=2, type=int)
    p.add_argument("--dim", default=12, type=int)
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
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items()
                    if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
