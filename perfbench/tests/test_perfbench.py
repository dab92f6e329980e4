"""Self-tests for the benchmark: percentile rule, self-time arithmetic,
tracing install/restore, and that tampered outputs count as failures."""

import json
import os
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from tempokit import audio_analysis, diffusion_toy  # noqa: E402
from tempokit import motion_analysis, peaks  # noqa: E402


# ---------------------------------------------------------------------------
# Tail percentile rule
# ---------------------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert spans.tail_percentile(list(range(19))) is None
    assert spans.tail_percentile(list(range(20))) == (50, 9, 20)
    assert spans.tail_percentile(list(range(100))) == (90, 89, 100)
    assert spans.tail_percentile(list(range(1000))) == (99, 989, 1000)


@pytest.mark.parametrize("n", range(20, 400, 7))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    samples = [float(i) for i in range(n)][::-1]
    percentile, value, count = spans.tail_percentile(samples)
    assert count == n
    assert sum(1 for s in samples if s > value) >= 10
    # one percentile higher would leave fewer than ten beyond
    rank_up = -(-(percentile + 1) * n // 100)
    assert n - rank_up < 10


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    tree = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],     # overlaps a: the union counts once
        ["a.x", 2.0, 3.0, 1, 1],
        ["late", 9.0, 12.0, 0, 1],  # clipped to the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_table_sums_calls_and_times():
    tree = [["f", 0.0, 2.0, -1, 0], ["g", 0.5, 1.0, 0, 0],
            ["f", 3.0, 4.0, -1, 0]]
    rec = spans.SpanRecorder()
    rec.spans.extend(tree)
    table = spans.layer_table(rec)
    assert table["f"]["calls"] == 2
    assert table["f"]["s"] == pytest.approx(3.0)
    assert table["f"]["self_s"] == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# Tracing from outside
# ---------------------------------------------------------------------------

def test_tracing_rebinds_imported_names_and_restores():
    original = peaks.pick_peaks
    rec = spans.SpanRecorder()
    with spans.Tracing(rec):
        assert motion_analysis.pick_peaks is not original
        assert audio_analysis.pick_peaks is motion_analysis.pick_peaks
        motion_analysis.detect_motion_peaks([0, 0, 5, 0, 0, 0, 0])
    assert peaks.pick_peaks is original
    assert motion_analysis.pick_peaks is original
    names = [s[0] for s in rec.spans]
    assert names[:2] == ["motion_analysis.detect_motion_peaks",
                         "peaks.pick_peaks"]
    assert rec.spans[1][3] == 0  # parent is the caller's span
    assert {"peaks.moving_median", "peaks.moving_mad"} <= set(names)


def test_request_roots_start_new_ids_that_children_inherit():
    rec = spans.SpanRecorder()
    child = rec.wrap("peaks.pick_peaks", lambda: None)
    root = rec.wrap("av_align.av_align_from_media", lambda: child())
    generate = rec.wrap("cli.main", lambda argv: child())
    child()
    root()
    root()
    generate(["generate", "--ckpt", "x"])
    generate(["av-align"])
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [
        ("peaks.pick_peaks", -1, 0),
        ("av_align.av_align_from_media", -1, 1), ("peaks.pick_peaks", 1, 1),
        ("av_align.av_align_from_media", -1, 2), ("peaks.pick_peaks", 3, 2),
        ("cli.main", -1, 3), ("peaks.pick_peaks", 5, 3),
        ("cli.main", -1, 0), ("peaks.pick_peaks", 7, 0),
    ]


def test_methods_are_traced_and_restored():
    comp = diffusion_toy.build_components(diffusion_toy.desk_train_dims(), 0)
    rec = spans.SpanRecorder()
    with spans.Tracing(rec):
        cond = comp.denoiser.arrays()  # not traced
        assert cond
        z = comp.codec.encode(comp.codec.decode(
            diffusion_toy.np.zeros((2, comp.codec.latent_dim))))
    assert z.shape == (2, comp.codec.latent_dim)
    assert [s[0] for s in rec.spans] == ["diffusion_toy.LatentCodec.decode",
                                         "diffusion_toy.LatentCodec.encode"]
    assert all(s[4] == 0 for s in rec.spans)
    assert diffusion_toy.LatentCodec.encode.__name__ == "encode"
    assert not hasattr(diffusion_toy.LatentCodec.encode, "__wrapped__")


def test_missing_span_fails_loudly():
    rec = spans.SpanRecorder()
    rec.spans.append(["a", 0.0, 1.0, -1, 0])
    spans.require_spans(rec, ["a"])
    with pytest.raises(RuntimeError, match="never fired: b"):
        spans.require_spans(rec, ["a", "b"])


def test_every_expected_span_and_metric_is_traced():
    traced = set(spans.expected_names())
    assert set(run.EXPECTED_SPANS) == set(run.WORKLOADS)
    for workload, names in run.EXPECTED_SPANS.items():
        assert set(names) <= traced, workload
    for metric in run.PER_LAYER:
        assert metric.rpartition(".")[2] in run._LAYER_UNITS


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == run.WORKLOADS
    assert [m["name"] for m in bench["end_to_end"]] == run.GATED
    assert [m["name"] for m in bench["per_layer"]] == run.PER_LAYER
    for metric in bench["end_to_end"]:
        assert metric["unit"] == run.UNITS[metric["name"]]
    for metric in bench["per_layer"]:
        key = metric["name"].rpartition(".")[2]
        assert metric["unit"] == run._LAYER_UNITS[key]


def test_idle_layers_read_zero():
    rec = spans.SpanRecorder()
    rec.spans.append(["cli.main", 0.0, 1.0, -1, 0])
    metrics, _ = run.per_layer(rec, 1e-6)
    assert list(metrics) == run.PER_LAYER
    assert metrics["cli.main.self_s"] == pytest.approx(1.0)
    assert metrics["motion_analysis.optical_flow.calls"] == 0
    assert metrics["tempo_tokens.window_stack.s"] == 0
    assert metrics["trace.overhead_s"] == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# After-hooks and the cost of tracing
# ---------------------------------------------------------------------------

def test_after_hook_time_is_left_out_of_self_time():
    def slow_hook(rec, args, kwargs, result):
        time.sleep(0.05)

    rec = spans.SpanRecorder()
    child = rec.wrap("child", lambda: None, after=slow_hook)
    parent = rec.wrap("parent", lambda: child())
    parent()
    table = spans.layer_table(rec)
    assert [s[0] for s in rec.spans] == ["parent", "child", spans.AFTER_SPAN]
    assert rec.spans[2][3] == 0  # the hook is a child of the caller
    assert table["parent"]["s"] >= 0.05
    assert table["parent"]["self_s"] < 0.01
    assert spans.trace_overhead(rec, table, 0.0) >= 0.05


def test_trace_overhead_counts_wrappers_and_hooks():
    rec = spans.SpanRecorder()
    rec.spans.extend([["f", 0.0, 1.0, -1, 0], ["g", 0.1, 0.2, 0, 0],
                      [spans.AFTER_SPAN, 0.2, 0.25, 0, 0]])
    table = spans.layer_table(rec)
    assert spans.trace_overhead(rec, table, 0.01) == pytest.approx(0.07)


def test_wrapper_cost_is_small_and_positive():
    cost = spans.wrapper_cost(calls=2000, repeats=3)
    assert 0.0 <= cost < 1e-3


def test_distinct_share_counts_each_video_once():
    def video(value, frames=5):
        return SimpleNamespace(frames=diffusion_toy.np.full((frames, 2, 2, 3),
                                                            value),
                               frame_count=frames)

    rec = spans.SpanRecorder()
    rec.flow_videos = [video(1), video(1), video(2), video(1)]
    table = {"motion_analysis.optical_flow": {"calls": 16, "s": 1.0}}
    counters = spans.flow_counters(rec, table)
    assert counters["motion_analysis.flow.distinct_share"] == 0.5


def test_renamed_function_fails_at_install():
    rec = spans.SpanRecorder()
    with pytest.raises(AttributeError):
        with spans.Tracing(rec, traced={"peaks": ["pick_peaks",
                                                   "no_such_function"]}):
            pass
    assert not hasattr(peaks.pick_peaks, "__wrapped__")


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def test_rounds_come_from_the_seed_and_index():
    for name in run.WORKLOADS:
        assert wl.make_round(name, 5, 2) == wl.make_round(name, 5, 2)
        assert wl.make_round(name, 5, 2) != wl.make_round(name, 6, 2)
        assert wl.make_round(name, 5, 2) != wl.make_round(name, 5, 3)


def test_rescore_lists_one_video_once_per_delay():
    plan = wl.make_round("align-rescore", 3, 0)
    assert len({pair.video for pair in plan.pairs}) == 1
    assert sorted(pair.delay for pair in plan.pairs) == list(wl.DELAYS)


def test_distinct_mix_is_fixed():
    for seed in range(5):
        plan = wl.make_round("align-distinct", seed, 0)
        sizes = [call.size for call in plan.synth]
        assert sizes.count("large") == 1 and sizes.count("small") == 3
        assert len({p.video for p in plan.pairs}) == len(plan.pairs)


def _args(seconds):
    return SimpleNamespace(workload="align-rescore", seed=1, seconds=seconds)


def _fake_rounds(monkeypatch, wall):
    made = []

    def fake_round(plan, work, tally, **kwargs):
        made.append(plan)
        time.sleep(wall)
        return SimpleNamespace(plan=plan)

    monkeypatch.setattr(wl, "run_round", fake_round)
    return made


def test_a_run_does_at_least_the_minimum_rounds(monkeypatch):
    made = _fake_rounds(monkeypatch, 0.0)
    rounds = run.run_rounds(_args(0.0), "unused", wl.Tally())
    assert len(rounds) == wl.ROUNDS_MIN
    assert made == [wl.make_round("align-rescore", 1, k)
                    for k in range(wl.ROUNDS_MIN)]


def test_a_run_stops_before_a_round_would_pass_the_deadline(monkeypatch):
    made = _fake_rounds(monkeypatch, 0.02)
    run.run_rounds(_args(0.25), "unused", wl.Tally())
    # rounds of 0.02 s: the last one starts no later than 0.23 s
    assert wl.ROUNDS_MIN < len(made) <= 12


def test_a_traced_run_does_exactly_the_count(monkeypatch):
    made = _fake_rounds(monkeypatch, 0.0)
    run.run_rounds(_args(100.0), "unused", wl.Tally(), count=2)
    assert len(made) == 2


def test_round_s_is_the_mean_round():
    plan = wl.make_round("align-rescore", 1, 0)

    def fake(seconds):
        return wl.Round(plan, [wl.SetUp("b", 0.5, "d")],
                        wl.Job("b", "o", [("align", 0, wl.CommandResult(
                            0, "", "", seconds))]), None)

    rounds = [fake(s) for s in (1.0, 9.0, 2.0, 3.0, 2.5)]
    metrics, _ = run.end_to_end(rounds, [0.25, 0.1, 0.3])
    assert metrics["round_s"] == pytest.approx(3.5)
    assert metrics["job_s"] == pytest.approx(17.5)
    assert metrics["setup_s"] == pytest.approx(0.75)
    assert metrics["align_pairs_per_s"] == pytest.approx(4 / 3.5)


# ---------------------------------------------------------------------------
# Fault injection: tampered outputs raise error_rate above 0
# ---------------------------------------------------------------------------

def _one_pair_plan(tmp_path, delay=3):
    plan = wl.Plan("align-distinct", 0, [],
                   [wl.AlignPair("p/clip_0000.rvid", "p/clip_0000.wav",
                                 delay)])
    os.makedirs(tmp_path / "p")
    (tmp_path / "p" / "clip_0000.events.txt").write_text("10\n20\n30\n")
    return plan


def _batch_output(base, plan, reports):
    return json.dumps({"clips": [
        {"video": os.path.join(base, p.video), **r}
        for p, r in zip(plan.pairs, reports)]})


def test_tampered_alignment_report_counts_as_failure(tmp_path):
    base = str(tmp_path)
    plan = _one_pair_plan(tmp_path)
    expected = wl.expected_reports(plan, base)
    good = wl.CommandResult(0, _batch_output(base, plan, expected), "", 1.0)
    assert wl.check_align_output(plan, base, good, expected)[0] == 0

    tampered = [dict(expected[0], score=expected[0]["score"] + 1e-9)]
    bad = wl.CommandResult(0, _batch_output(base, plan, tampered), "", 1.0)
    tally = wl.Tally()
    failed, reasons, _ = wl.check_align_output(plan, base, bad, expected)
    tally.add(len(plan.pairs), failed, reasons)
    assert tally.failed / tally.attempted > 0

    crashed = wl.CommandResult(2, "", "error: bad file", 1.0)
    assert wl.check_align_output(plan, base, crashed, expected)[0] == 1


def _checkpoint(tmp_path, seed):
    comp = diffusion_toy.build_components(diffusion_toy.desk_train_dims(),
                                          seed)
    path = str(tmp_path / "a.ckpt")
    diffusion_toy.save_checkpoint(comp, path)
    return comp, path


def test_tampered_loss_counts_as_failure(tmp_path):
    comp, ckpt = _checkpoint(tmp_path, 7)
    want = wl.expected_frozen_digest(7)
    ok = wl.CommandResult(0, "", "", 1.0)
    log = tmp_path / "loss.txt"

    log.write_text("2.0\n1.5\n1.0\n")
    reasons, history = wl.check_train_output(ok, str(log), ckpt, 3, want)
    assert reasons == [] and history == [2.0, 1.5, 1.0]

    log.write_text("2.0\nnan\n1.0\n")
    reasons, _ = wl.check_train_output(ok, str(log), ckpt, 3, want)
    assert reasons == ["loss is not finite"]
    tally = wl.Tally()
    tally.record(not reasons)
    assert tally.failed / tally.attempted > 0


def test_changed_frozen_backbone_counts_as_failure(tmp_path):
    comp, ckpt = _checkpoint(tmp_path, 7)
    comp.denoiser.out_bias += 1.0
    diffusion_toy.save_checkpoint(comp, ckpt)
    log = tmp_path / "loss.txt"
    log.write_text("1.0\n")
    reasons, _ = wl.check_train_output(wl.CommandResult(0, "", "", 1.0),
                                       str(log), ckpt, 1,
                                       wl.expected_frozen_digest(7))
    assert reasons == ["frozen denoiser/codec changed during training"]


def test_loss_ratio_uses_twenty_step_windows():
    history = [2.0] * 20 + [5.0] * 10 + [1.0] * 20
    assert wl.loss_ratio(history) == pytest.approx(0.5)
