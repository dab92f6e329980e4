"""Workload plans, set-up, timed jobs and output checks.

Every command goes through ``tempokit.cli.main(argv)`` in this process:
the same code as the console script, without interpreter start-up. A
workload's inputs come only from its seed; the program sees only the
generated files.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from tempokit import cli, diffusion_toy, media_io
from tempokit.av_align import av_align_score
from tempokit.errors import TempokitError

# A run is a sequence of rounds: equal units of work, each with its own
# inputs, drawn from the workload seed and the round index. The gated
# round time is a mean over the rounds of a run and the set-up time a
# median, so that the host's speed flipping between levels during a run
# moves them less than it moves one sample. Every run does at least
# ROUNDS_MIN rounds, and a traced run does exactly ROUNDS_MIN, so that
# its counters and digests repeat.
ROUNDS_MIN = 3
# Set-ups per round. They must write identical bytes; the last is used.
SETUP_REPS = 2
DISTINCT_SIZES = ("small", "small", "small", "large")  # align-distinct
TRAIN_STEPS = 50              # train-generate: one train-toy per round
CORPUS_CLIPS = 8              # train-generate: corpus clips per round
GENERATES = 4                 # train-generate: generate commands per round
DELAYS = (0, 1, 3, 12)
KINDS = ("bounce", "flash")
SIZES = {"small": (64, 64), "large": (128, 96)}
CLIP_FRAMES = 96              # gen-synth default: 4 s at 24 fps
TOLERANCE = 1
# A quarter of the README's --lr 2e-3. Plain SGD overshoots when the first
# loss is large: at 2e-3 train-toy exited 4 ("non-finite loss at step 8")
# on a 32-clip corpus, and at 1e-3 one 8-clip corpus in 95 jumped from a
# loss of 27 to 327 at step 2. At 5e-4 that corpus peaks at 66, and no
# loss rose above twice its first value on 150 other corpora. That
# defect belongs to the tests, not to a timing workload.
TRAIN_FLAGS = ["--lr", "5e-4", "--lambda-l1", "0.5"]


@dataclass
class SynthCall:
    """One gen-synth command, writing into <set-up dir>/<out>."""

    out: str
    seed: int
    clips: int = 1
    kind: str = "bounce"
    shift: int = 0
    size: str = "small"

    def argv(self, base):
        width, height = SIZES[self.size]
        return ["gen-synth", "--out", os.path.join(base, self.out),
                "--clips", str(self.clips), "--seed", str(self.seed),
                "--kind", self.kind, "--shift", str(self.shift),
                "--width", str(width), "--height", str(height)]


@dataclass
class AlignPair:
    video: str   # paths relative to the set-up dir
    audio: str
    delay: int


@dataclass
class Plan:
    """The inputs and commands of one round."""

    workload: str
    seed: int
    synth: list
    pairs: list = field(default_factory=list)
    train_seed: int = 0
    generate_seeds: list = field(default_factory=list)  # clips 0, 1, ...

    @property
    def clips_per_setup(self):
        return sum(call.clips for call in self.synth)


def _clip(out):
    return f"{out}/clip_0000"


def make_round(workload, seed, index):
    """Round index of a workload: same seed and index, same plan."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    plan = Plan(workload, seed, [])
    if workload == "align-distinct":
        for i, size in enumerate(DISTINCT_SIZES):
            call = SynthCall(f"pair{i}", rng.randrange(2 ** 31), 1,
                             rng.choice(KINDS), rng.choice(DELAYS), size)
            plan.synth.append(call)
            plan.pairs.append(AlignPair(f"{_clip(call.out)}.rvid",
                                        f"{_clip(call.out)}.wav", call.shift))
        return plan
    if workload == "align-rescore":
        clip_seed, kind = rng.randrange(2 ** 31), rng.choice(KINDS)
        # gen-synth draws the video independently of --shift, so every
        # variant shares the first variant's RVID.
        video = f"{_clip(f'd{DELAYS[0]:02d}')}.rvid"
        for delay in DELAYS:
            call = SynthCall(f"d{delay:02d}", clip_seed, 1, kind, delay)
            plan.synth.append(call)
            plan.pairs.append(AlignPair(video, f"{_clip(call.out)}.wav",
                                        delay))
        rng.shuffle(plan.pairs)
        return plan
    if workload == "train-generate":
        plan.synth.append(SynthCall("corpus", rng.randrange(2 ** 31),
                                    CORPUS_CLIPS))
        plan.train_seed = rng.randrange(2 ** 31)
        plan.generate_seeds = [rng.randrange(2 ** 31)
                               for _ in range(GENERATES)]
        return plan
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running commands and counting operations
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def add(self, attempted, failed, reasons):
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)


@dataclass
class CommandResult:
    code: int
    stdout: str
    stderr: str
    seconds: float


def run_cli(argv, stdin_text=None):
    """Run one tempokit command in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation
                code = -1
                print(f"{type(exc).__name__}: {exc}", file=err)
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return CommandResult(code, out.getvalue(), err.getvalue(), seconds)


def digest_files(base, paths):
    """SHA-256 over relative names and bytes of the given files."""
    h = hashlib.sha256()
    for rel in sorted(paths):
        h.update(rel.encode())
        with open(os.path.join(base, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _tree(base):
    return [os.path.relpath(os.path.join(d, f), base)
            for d, _, files in os.walk(base) for f in files]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class SetUp:
    base: str
    seconds: float
    digest: str


def set_up(plan, base, tally):
    """Run the plan's gen-synth commands into base; time only the
    commands. Each must exit 0 and leave its clips and manifest."""
    seconds = 0.0
    for call in plan.synth:
        result = run_cli(call.argv(base))
        seconds += result.seconds
        out = os.path.join(base, call.out)
        names = ["manifest.txt"] + [
            f"clip_{i:04d}{ext}" for i in range(call.clips)
            for ext in (".rvid", ".wav", ".events.txt")]
        ok = result.code == 0 and all(
            os.path.isfile(os.path.join(out, n)) for n in names)
        tally.record(ok, f"gen-synth {call.out}: exit {result.code} "
                         f"{result.stderr.strip()}")
    return SetUp(base, seconds, digest_files(base, _tree(base)))


def set_up_repeated(plan, work, tally, reps):
    """Set up reps times into fresh directories; keep only the last.
    Every repeat must write the same bytes."""
    runs = []
    for rep in range(reps):
        runs.append(set_up(plan, os.path.join(work, f"setup{rep}"), tally))
        if rep:
            shutil.rmtree(runs[-2].base)
            tally.record(runs[-1].digest == runs[0].digest,
                         f"set-up repeat {rep} wrote different bytes")
    return runs


# ---------------------------------------------------------------------------
# Alignment jobs
# ---------------------------------------------------------------------------

def _read_events(path):
    with open(path, encoding="ascii") as fh:
        return [int(line) for line in fh if line.strip()]


def expected_reports(plan, base):
    """The report each pair must get: av_align_score on the ground truth
    (event frames for video, those plus the delay, kept inside the clip,
    for audio)."""
    expected = []
    for pair in plan.pairs:
        events = _read_events(os.path.join(
            base, pair.video[:-len(".rvid")] + ".events.txt"))
        audio = [min(max(e + pair.delay, 0), CLIP_FRAMES - 1) for e in events]
        expected.append(av_align_score(audio, events, TOLERANCE).to_dict())
    return expected


@dataclass
class Job:
    """The commands of one timed job, as (label, index, CommandResult).
    They are checked after timing and tracing end, so that checks add
    no time and no spans."""

    base: str
    out: str
    results: list

    @property
    def seconds(self):
        return sum(r.seconds for _, _, r in self.results)

    def of(self, label):
        return [(i, r) for lab, i, r in self.results if lab == label]


@dataclass
class Checked:
    outputs_digest: str
    extra: dict


def check_align_output(plan, base, result, expected):
    """Count pairs whose report is wrong. Returns (failed, reasons,
    canonical reports)."""
    n = len(plan.pairs)
    if result.code != 0:
        return n, [f"av-align exit {result.code}: {result.stderr.strip()}"], []
    try:
        clips = json.loads(result.stdout)["clips"]
    except (ValueError, KeyError, TypeError) as exc:
        return n, [f"av-align output unreadable: {exc}"], []
    if len(clips) != n:
        return n, [f"{len(clips)} reports for {n} pairs"], []
    failed, reasons, canonical = 0, [], []
    for pair, clip, want in zip(plan.pairs, clips, expected):
        got = dict(clip)
        video = got.pop("video", None)
        if video != os.path.join(base, pair.video) or got != want:
            failed += 1
            reasons.append(f"{pair.video} + {pair.audio}: got {clip}, "
                           f"want {want}")
        canonical.append({"video": pair.video, "audio": pair.audio, **got})
    return failed, reasons, canonical


def _run_align(plan, base):
    lines = "".join(f"{os.path.join(base, p.video)} "
                    f"{os.path.join(base, p.audio)}\n" for p in plan.pairs)
    return [("align", 0, run_cli(["av-align", "--batch", "--json"], lines))]


def _check_align(plan, job, expected, tally):
    failed, reasons, canonical = check_align_output(
        plan, job.base, job.of("align")[0][1], expected)
    tally.add(len(plan.pairs), failed, reasons)
    blob = json.dumps(canonical, sort_keys=True).encode()
    return Checked(hashlib.sha256(blob).hexdigest(),
                   {"pairs": len(plan.pairs)})


# ---------------------------------------------------------------------------
# Train and generate job
# ---------------------------------------------------------------------------

FROZEN_PREFIXES = ("denoiser.", "codec.")


def frozen_digest(named_arrays):
    """Hash of the frozen backbone as stored in a checkpoint (float32)."""
    h = hashlib.sha256()
    for name, arr in sorted(named_arrays):
        if name.startswith(FROZEN_PREFIXES):
            h.update(name.encode())
            h.update(np.asarray(arr, dtype="<f4").tobytes())
    return h.hexdigest()


def expected_frozen_digest(seed):
    comp = diffusion_toy.build_components(diffusion_toy.desk_train_dims(),
                                          seed)
    return frozen_digest(comp.denoiser.arrays() + comp.codec.arrays())


def loss_ratio(history):
    window = min(20, len(history))
    return (sum(history[-window:]) / window) / (sum(history[:window]) / window)


def check_train_output(result, loss_log, ckpt, steps, frozen_want):
    """Reasons the train-toy command failed (empty when it passed), and
    the logged loss history."""
    if result.code != 0:
        return [f"train-toy exit {result.code}: {result.stderr.strip()}"], []
    reasons = []
    try:
        with open(loss_log, encoding="ascii") as fh:
            history = [float(v) for v in fh.read().split()]
    except (OSError, ValueError) as exc:
        return [f"loss log unreadable: {exc}"], []
    if len(history) != steps:
        reasons.append(f"{len(history)} losses logged for {steps} steps")
    if not history or not all(math.isfinite(v) for v in history):
        reasons.append("loss is not finite")
    try:
        got = frozen_digest(media_io.read_named_tensors(ckpt).items())
    except (OSError, TempokitError) as exc:
        return reasons + [f"checkpoint unreadable: {exc}"], history
    if got != frozen_want:
        reasons.append("frozen denoiser/codec changed during training")
    return reasons, history


def check_generated(path, dims):
    """Reasons a generated clip is wrong; empty when it is right."""
    try:
        video = media_io.read_video(path)
    except (OSError, TempokitError) as exc:
        return [f"{os.path.basename(path)} unreadable: {exc}"]
    shape = (dims.frames_per_video, dims.height, dims.width, 3)
    reasons = []
    if video.frames.shape != shape:
        reasons.append(f"frames {video.frames.shape}, want {shape}")
    if (video.fps_num, video.fps_den) != tuple(dims.fps):
        reasons.append(f"fps {video.fps_num}/{video.fps_den}, want "
                       f"{dims.fps[0]}/{dims.fps[1]}")
    return reasons


def _gen_name(i):
    return f"gen_{i:04d}.rvid"


def _run_train_generate(plan, base, out):
    """train-toy on the corpus, then one generate per listed corpus WAV
    from the checkpoint."""
    corpus = os.path.join(base, plan.synth[0].out)
    ckpt = os.path.join(out, "adapter.ckpt")
    results = [("train", 0, run_cli(
        ["train-toy", "--corpus", corpus, "--steps", str(TRAIN_STEPS),
         *TRAIN_FLAGS, "--ckpt", ckpt,
         "--loss-log", os.path.join(out, "loss.txt"),
         "--seed", str(plan.train_seed)]))]
    for i in range(len(plan.generate_seeds)):
        results.append(("generate", i, run_cli(_generate_argv(
            plan, base, ckpt, i, os.path.join(out, _gen_name(i))))))
    return results


def _generate_argv(plan, base, ckpt, i, path):
    return ["generate", "--ckpt", ckpt, "--audio",
            os.path.join(base, plan.synth[0].out, f"clip_{i:04d}.wav"),
            "--out", path, "--seed", str(plan.generate_seeds[i])]


def _check_train_generate(plan, job, frozen_want, tally):
    """Check the train and generate outputs. A repeat of the first
    generate, run here and untimed, must give the same bytes."""
    out = job.out
    ckpt = os.path.join(out, "adapter.ckpt")
    (_, train), = job.of("train")
    reasons, history = check_train_output(
        train, os.path.join(out, "loss.txt"), ckpt, TRAIN_STEPS, frozen_want)
    tally.record(not reasons, "train-toy: " + "; ".join(reasons))

    dims = diffusion_toy.desk_train_dims()
    outputs = ["adapter.ckpt", "loss.txt"]
    for i, result in job.of("generate"):
        name = _gen_name(i)
        reasons = ([f"generate exit {result.code}: {result.stderr.strip()}"]
                   if result.code != 0
                   else check_generated(os.path.join(out, name), dims))
        tally.record(not reasons, f"{name}: " + "; ".join(reasons))
        outputs.append(name)
    repeat = os.path.join(out, "repeat.rvid")
    again = run_cli(_generate_argv(plan, job.base, ckpt, 0, repeat))
    same = again.code == 0 and _same_bytes(
        repeat, os.path.join(out, _gen_name(0)))
    tally.record(same, "a repeated generate gave different bytes")

    existing = [name for name in outputs
                if os.path.isfile(os.path.join(out, name))]
    return Checked(digest_files(out, existing), {
        "train_s": train.seconds,
        "generate_s": [r.seconds for _, r in job.of("generate")],
        "loss_ratio": loss_ratio(history) if history else float("nan"),
    })


def _same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


# ---------------------------------------------------------------------------
# Entry points used by run.py
# ---------------------------------------------------------------------------

def prepare_checks(plan, base):
    """Reference values computed before the timed job (and before any
    tracing), from the ground truth and the seed only."""
    if plan.pairs:
        return expected_reports(plan, base)
    return expected_frozen_digest(plan.train_seed)


def run_job(plan, base, out):
    """Run the workload's timed commands; no checks, no output parsing."""
    os.makedirs(out, exist_ok=True)
    if plan.pairs:
        return Job(base, out, _run_align(plan, base))
    return Job(base, out, _run_train_generate(plan, base, out))


def check_job(plan, job, reference, tally):
    """Check every output of a job and digest them."""
    if plan.pairs:
        return _check_align(plan, job, reference, tally)
    return _check_train_generate(plan, job, reference, tally)


@dataclass
class Round:
    plan: Plan
    setups: list
    job: Job
    checked: Checked


def run_round(plan, work, tally, setup_reps=SETUP_REPS,
              traced=contextlib.nullcontext):
    """Set up one round's inputs, run its timed commands, check them and
    remove its files. traced() wraps the set-up and the job, but not the
    reference values or the checks."""
    with traced():
        setups = set_up_repeated(plan, work, tally, setup_reps)
    base = setups[-1].base
    reference = prepare_checks(plan, base)
    with traced():
        job = run_job(plan, base, os.path.join(work, "out"))
    checked = check_job(plan, job, reference, tally)
    shutil.rmtree(work)
    return Round(plan, setups, job, checked)
