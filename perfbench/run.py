"""tempokit benchmark: end-to-end metrics, or per-layer metrics traced
from outside the program.

    python3 perfbench/run.py --workload align-distinct --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a source checkout; it imports tempokit from
./src. Readable lines (host record, every metric with its unit, digests)
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md for
the workloads and metrics.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import host  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread. Every matrix here is small, one client runs at a time,
# and the host may be shared: extra BLAS threads only add variance (one
# thread narrowed the generate IQR from 0.169-0.204 s to 0.172-0.175 s)
# and would oversubscribe cores under a future process pool.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics (trace 0) and their units. Every run prints all
# that apply to its workload. GATED names the ones the JSON result
# carries, the same on every workload: round_s is the mean wall time of
# one round's timed commands, of which align_pairs_per_s,
# train_toy_steps_per_s and generate_clip_p50_s are printed breakdowns.
# job_s sums every round; synth_clips_per_s is the set-up half of setup_s.
UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
    "job_s": "s",
    "rounds": "count",
    "synth_clips_per_s": "clips/s",
    "align_pairs_per_s": "pairs/s",
    "train_toy_steps_per_s": "steps/s",
    "train_loss_ratio": "ratio",
    "generate_clip_p50_s": "s",
}
GATED = ["setup_s", "round_s", "peak_rss_mb"]
WORKLOADS = ["align-distinct", "align-rescore", "train-generate"]

# Per-layer metrics (trace 1): "<span>.<calls|s|self_s>" or a counter
# derived from the spans. Every traced run reports all of them; a layer
# the workload does not use reads 0.
_WRITE_LAYERS = ["media_io.write_video.s", "media_io.write_wav.s",
                 "media_io.bytes_written", "synthgen.generate.calls",
                 "synthgen.generate.s"]
_ALIGN_LAYERS = [
    "motion_analysis.optical_flow.calls", "motion_analysis.optical_flow.s",
    "motion_analysis.to_grayscale.s", "motion_analysis.motion_curve.self_s",
    "motion_analysis.flow.pixel_sweeps", "motion_analysis.flow.computed_MB",
    "motion_analysis.flow.Mpx_sweeps_per_s",
    "motion_analysis.flow.distinct_share",
    "audio_analysis.detect_onsets.self_s", "audio_analysis.stft_magnitude.s",
    "audio_analysis.spectral_flux.s", "peaks.pick_peaks.self_s",
    "peaks.moving_median.s", "peaks.moving_mad.s",
    "media_io.read_video.calls", "media_io.read_video.s",
    "media_io.read_wav.calls", "media_io.read_wav.s", "media_io.bytes_read",
    *_WRITE_LAYERS,
    "av_align.av_align_from_media.self_s", "av_align.av_align_score.s",
    "cli.main.self_s", "trace.overhead_s"]
_TRAIN_LAYERS = [
    *_WRITE_LAYERS,
    *(f"tempo_tokens.{op}.s" for op in (
        "window_stack", "condition_backward", "mapper_forward",
        "mapper_backward", "pool_forward", "pool_backward")),
    "diffusion_toy.total_loss_and_grads.calls",
    "diffusion_toy.total_loss_and_grads.self_s",
    "diffusion_toy.train.self_s", "diffusion_toy.forward_noise.s",
    "diffusion_toy.sample_step_noise.s",
    "diffusion_toy.DenoiserParams.predict.calls",
    "diffusion_toy.DenoiserParams.predict.s",
    "diffusion_toy.generate.self_s", "diffusion_toy.LatentCodec.encode.s",
    "diffusion_toy.LatentCodec.decode.s", "diffusion_toy.prepare_item.s",
    "diffusion_toy.build_components.s", "diffusion_toy.save_checkpoint.s",
    "diffusion_toy.load_checkpoint.s", "media_io.read_named_tensors.s",
    "media_io.write_named_tensors.s", "cli.main.self_s", "trace.overhead_s"]
PER_LAYER = list(dict.fromkeys(_ALIGN_LAYERS + _TRAIN_LAYERS))
_LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s",
                "overhead_s": "s", "bytes_read": "bytes",
                "bytes_written": "bytes", "pixel_sweeps": "count",
                "computed_MB": "MB", "Mpx_sweeps_per_s": "Mpx/s",
                "distinct_share": "ratio"}


def _spans_read_by(layers, *extra):
    return sorted({m.rpartition(".")[0] for m in layers
                   if m.rpartition(".")[2] in ("calls", "s", "self_s")}
                  | {"synthgen.corpus", *extra})


# Spans that must fire on each workload: every span a metric reads, and
# the callers that connect them.
EXPECTED_SPANS = {
    "align-distinct": _spans_read_by(_ALIGN_LAYERS,
                                     "motion_analysis.detect_motion_peaks"),
    "align-rescore": _spans_read_by(_ALIGN_LAYERS,
                                    "motion_analysis.detect_motion_peaks"),
    "train-generate": _spans_read_by(
        _TRAIN_LAYERS, "synthgen.read_corpus", "media_io.read_video",
        "media_io.read_wav", "audio_analysis.toy_audio_features",
        "audio_analysis.stft_magnitude"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(rounds, imports):
    """The trace-0 metrics, and a note per metric for the readable lines."""
    import workloads as wl
    plan = rounds[0].plan
    import_s = statistics.median(imports)
    setup_samples = [s.seconds for r in rounds for s in r.setups]
    setup_s = statistics.median(setup_samples)
    # A mean, not a median: the reference host's speed flips between two
    # levels about 1.7x apart, often from one round to the next, and the
    # median of such a sample jumps to whichever level holds more rounds.
    round_s = statistics.mean(r.job.seconds for r in rounds)
    metrics = {
        "setup_s": import_s + setup_s,
        "round_s": round_s,
        "peak_rss_mb": peak_rss_mb(),
        "job_s": sum(r.job.seconds for r in rounds),
        "rounds": len(rounds),
        "synth_clips_per_s": plan.clips_per_setup / setup_s,
    }
    notes = {"setup_s": f"imports {import_s:.3f} s (median of "
                        f"{len(imports)}) + median of "
                        f"{len(setup_samples)} set-ups",
             "round_s": f"mean of {len(rounds)} rounds, "
                        f"{len(rounds[0].job.results)} timed commands each",
             "synth_clips_per_s": f"{plan.clips_per_setup} clips per set-up"}
    if plan.pairs:
        metrics["align_pairs_per_s"] = len(plan.pairs) / round_s
        notes["align_pairs_per_s"] = (f"{len(plan.pairs)} pairs in one "
                                      "--batch call per round")
        return metrics, notes
    train_s = statistics.median(r.checked.extra["train_s"] for r in rounds)
    metrics["train_toy_steps_per_s"] = wl.TRAIN_STEPS / train_s
    notes["train_toy_steps_per_s"] = (f"{wl.TRAIN_STEPS} steps, whole "
                                      "train-toy command, median over rounds")
    metrics["train_loss_ratio"] = statistics.median(
        r.checked.extra["loss_ratio"] for r in rounds)
    notes["train_loss_ratio"] = ("trailing-20 over leading-20 mean loss, "
                                 "median over rounds")
    generate_s = [t for r in rounds for t in r.checked.extra["generate_s"]]
    metrics["generate_clip_p50_s"] = statistics.median(generate_s)
    notes["generate_clip_p50_s"] = _tail_note(generate_s)
    return metrics, notes


def _tail_note(samples):
    tail = spans.tail_percentile(samples)
    if tail is None:
        return f"n={len(samples)}, too few samples for a tail percentile"
    return f"n={len(samples)}, p{tail[0]}={tail[1]:.6g} s"


def per_layer(recorder, wrapper_s):
    """The trace-1 metrics, and the full span table. A span that never
    fired on this workload reads 0."""
    table = spans.layer_table(recorder)
    derived = {**spans.flow_counters(recorder, table),
               "media_io.bytes_read": recorder.counters["media_io.bytes_read"],
               "media_io.bytes_written":
                   recorder.counters["media_io.bytes_written"],
               "trace.overhead_s": spans.trace_overhead(recorder, table,
                                                        wrapper_s)}
    metrics = {}
    for name in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        else:
            span, _, key = name.rpartition(".")
            metrics[name] = table[span][key] if span in table else 0
    return metrics, table


def print_layer_table(table):
    print(f"{'span':<42} {'calls':>7} {'s':>10} {'self_s':>10} "
          f"{'p50_s':>10}  tail")
    for name in sorted(table):
        row = table[name]
        tail = spans.tail_percentile(row["durations"])
        tail_text = (f"p{tail[0]}={tail[1]:.3g} (n={tail[2]})" if tail
                     else f"n={row['calls']}")
        print(f"{name:<42} {row['calls']:>7} {row['s']:>10.4f} "
              f"{row['self_s']:>10.4f} "
              f"{statistics.median(row['durations']):>10.3g}  {tail_text}")


def import_seconds():
    """Seconds a fresh interpreter takes to import what run.py imports
    (numpy and tempokit, through workloads), not counting its own
    start. The run's own imports are one sample at one moment of the
    host, and the first run in a checkout also compiles the sources."""
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{HERE!r}, {SRC!r}]; import workloads; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    return float(done.stdout.split()[-1])


def run_rounds(args, work, tally, count=None, imports=None, **kwargs):
    """Rounds 0, 1, ... of the workload. With count, exactly that many.
    Otherwise at least ROUNDS_MIN, then more while one more round (at
    the median wall time of those so far) still ends within --seconds.
    With an imports list, an import time is sampled before each round."""
    import workloads as wl
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        if count is not None and k == count:
            break
        if count is None and k >= wl.ROUNDS_MIN and (
                time.perf_counter() - start + statistics.median(walls)
                > args.seconds):
            break
        began = time.perf_counter()
        if imports is not None:
            imports.append(import_seconds())
        plan = wl.make_round(args.workload, args.seed, k)
        rounds.append(wl.run_round(plan, os.path.join(work, f"round{k}"),
                                   tally, **kwargs))
        walls.append(time.perf_counter() - began)
    return rounds


def digests(rounds):
    """Input and output digests over the first ROUNDS_MIN rounds, which
    every run does, so that runs of a seed can be compared."""
    import workloads as wl
    first = rounds[:wl.ROUNDS_MIN]
    inputs = hashlib.sha256("".join(r.setups[-1].digest for r in first)
                            .encode()).hexdigest()
    outputs = hashlib.sha256("".join(r.checked.outputs_digest
                                     for r in first).encode()).hexdigest()
    return {"inputs": inputs, "outputs": outputs}


def timed_run(args, work, tally):
    """Rounds without tracing, for --seconds: the end-to-end metrics."""
    imports = []
    rounds = run_rounds(args, work, tally, imports=imports)
    metrics, notes = end_to_end(rounds, imports)
    samples = {"imports": imports,
               "setup_s": [s.seconds for r in rounds for s in r.setups],
               "round_s": [r.job.seconds for r in rounds],
               "rounds": [r.checked.extra for r in rounds]}
    return metrics, notes, digests(rounds), samples


def traced_run(args, work, tally):
    """ROUNDS_MIN traced rounds with one set-up each: the per-layer
    metrics. The reference values and the checks run untraced."""
    import workloads as wl
    wrapper_s = spans.wrapper_cost()
    recorder = spans.SpanRecorder()
    rounds = run_rounds(args, work, tally, wl.ROUNDS_MIN, setup_reps=1,
                        traced=lambda: spans.Tracing(recorder))
    spans.require_spans(recorder, EXPECTED_SPANS[args.workload])
    metrics, table = per_layer(recorder, wrapper_s)
    notes = {"trace.overhead_s": f"{len(recorder.spans)} spans, "
                                 f"{wrapper_s * 1e6:.3f} us per wrapper, "
                                 "plus after-hooks"}
    return metrics, notes, table, recorder.spans, digests(rounds)


def run(args):
    if not os.path.isfile(os.path.join(SRC, "tempokit", "__init__.py")):
        print(f"error: no tempokit sources under {SRC}; run from the root "
              "of a tempokit checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import workloads as wl  # imports numpy and tempokit: part of set-up
    first_import_s = time.perf_counter() - _T_START

    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = wl.Tally()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host.host_record({v: os.environ[v] for v in BLAS_ENV})}
    try:
        if args.trace:
            metrics, notes, table, rows, record["digests"] = traced_run(
                args, work, tally)
            units = {name: _LAYER_UNITS[name.rpartition(".")[2]]
                     for name in metrics}
            reported = PER_LAYER
            record["spans"] = {"fields": ["name", "start", "end", "parent",
                                          "request"], "rows": rows}
        else:
            metrics, notes, record["digests"], samples = timed_run(
                args, work, tally)
            notes["setup_s"] += f"; this process: {first_import_s:.3f} s"
            units = {name: UNITS[name] for name in metrics}
            reported = GATED
            record["samples"] = samples
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(record["host"], sort_keys=True))
    if args.trace:
        print_layer_table(table)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {_fmt(metrics[name])} {unit}{note}")
    print(f"metric error_rate = {_fmt(tally.failed / tally.attempted)} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for reason in tally.reasons[:20]:
        print(f"failed: {reason}")
    print(f"digest inputs={record['digests']['inputs']} "
          f"outputs={record['digests']['outputs']}")

    record.update(metrics=metrics, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.reasons)
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(
        OUT, f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(f"record {os.path.relpath(out_path, ROOT)}")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in reported},
    }))
    return 0


def main(argv=None):
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
