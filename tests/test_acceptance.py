"""Acceptance gate: one test per shipping criterion.

Each test prints a PASS/FAIL line (run with -s to see them all) and
asserts the criterion at its stated tolerance. The training-dependent
criteria share one 32-clip corpus and one 200-step run.
"""

import time

import numpy as np
import pytest

from oracles import (flatten_grads, flatten_trainable, grad_check,
                     params_hash, write_trainable)
from tempokit import diffusion_toy as dt
from tempokit.av_align import av_align_from_media, av_align_score
from tempokit.media_io import (AudioEmbeddings, ConditionFile,
                               read_condition, read_embeddings,
                               read_named_tensors, read_video, write_condition,
                               write_embeddings, write_named_tensors,
                               write_video, Video)
from tempokit.motion_analysis import optical_flow, to_grayscale
from tempokit.numerics import Rng
from tempokit.synthgen import SynthConfig, corpus, generate, read_corpus
from tempokit.tempo_tokens import (build_condition, create_pooling,
                                   pool_forward, resolutions)

TRAIN_SEED = 3
TRAIN_CONFIG = dict(steps=200, learning_rate=2e-3, lambda_l1=0.5,
                    seed=TRAIN_SEED)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def brute_force_score(a, b, tol):
    a, b = sorted(set(int(x) for x in a)), sorted(set(int(x) for x in b))
    union = len(set(a) | set(b))
    if union == 0:
        return 1.0
    matched_a = sum(1 for x in a if any(abs(x - y) <= tol for y in b))
    matched_b = sum(1 for y in b if any(abs(y - x) <= tol for x in a))
    return (matched_a + matched_b) / (2.0 * union)


@pytest.fixture(scope="module")
def training_run(tmp_path_factory):
    """32-clip corpus, desk profile, 200 SGD steps; shared across the
    frozen-backbone and training-progress criteria."""
    root = tmp_path_factory.mktemp("acceptance_corpus")
    manifest = corpus(SynthConfig(seed=42), 32, root)
    clips = read_corpus(manifest)
    dims = dt.desk_train_dims()
    comp = dt.build_components(dims, TRAIN_SEED)
    hashes_before = {
        "denoiser": params_hash(comp.denoiser.arrays()),
        "codec": params_hash(comp.codec.arrays()),
        "mapper": params_hash(comp.mapper.arrays()),
        "pooling": params_hash(comp.pooling.arrays()),
    }
    items = [dt.prepare_item(pair, comp.codec, dims.embed_layers,
                             dims.embed_dim) for pair, _ in clips]
    config = dt.TrainConfig(**TRAIN_CONFIG)
    start = time.monotonic()
    history = dt.train(items, config, comp.mapper, comp.pooling,
                       comp.denoiser, comp.schedule)
    elapsed = time.monotonic() - start
    return comp, hashes_before, history, elapsed


def test_av_align_oracle_equivalence():
    """1000 random peak-set pairs match the brute-force double loop
    exactly, in under 5 seconds."""
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    exact = True
    for _ in range(1000):
        a = rng.integers(0, 100, rng.integers(0, 21))
        b = rng.integers(0, 100, rng.integers(0, 21))
        tol = int(rng.choice([0, 1, 3]))
        if av_align_score(a, b, tol).score != brute_force_score(a, b, tol):
            exact = False
            break
    elapsed = time.monotonic() - start
    report("alignment score equals brute-force oracle on 1000 random pairs",
           exact and elapsed < 5.0)


def test_av_align_sensitivity():
    """10 seeded synthetic clips: synchronized score >= 0.8 and a
    12-frame shift at most halves it, for every seed, within 60 s."""
    start = time.monotonic()
    ok = True
    for seed in range(10):
        synced, _ = generate(SynthConfig(seed=seed))
        shifted, _ = generate(SynthConfig(seed=seed, shift_frames=12))
        score0 = av_align_from_media(synced.video, synced.audio).score
        score12 = av_align_from_media(shifted.video, shifted.audio).score
        if not (score0 >= 0.8 and score12 <= 0.5 * score0):
            ok = False
            break
    elapsed = time.monotonic() - start
    report("alignment sensitivity: sync >= 0.8, 12-frame shift <= half",
           ok and elapsed < 60.0)


def test_av_align_formula_properties():
    """Symmetry, range, identical-set unity, tolerance monotonicity."""
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(300):
        a = rng.integers(0, 80, rng.integers(0, 18))
        b = rng.integers(0, 80, rng.integers(0, 18))
        fwd = av_align_score(a, b, 1).score
        rev = av_align_score(b, a, 1).score
        same = av_align_score(a, a, 0).score if len(a) else 1.0
        ok &= fwd == rev
        ok &= 0.0 <= fwd <= 1.0
        ok &= same == 1.0
        prev = -1
        for tol in (0, 1, 2, 3):
            rep = av_align_score(a, b, tol)
            matched = rep.matched_audio + rep.matched_video
            ok &= matched >= prev
            prev = matched
    report("alignment formula properties (symmetry/range/unity/monotone)",
           bool(ok))


def test_window_resolution_structure():
    """24 segments give 5 window resolutions and 6 tokens per frame."""
    rng = Rng(1)
    tokens = AudioEmbeddings(rng.normal((24, 2, 8)))
    pooling = create_pooling(16, 16, 16, rng.derive(2))
    cond = build_condition(tokens, pooling)
    report("24 segments -> 5 resolutions and 6 tokens per frame",
           resolutions(24) == 5 and cond.tokens_per_frame == 6)


def test_gradient_correctness():
    """Analytic gradients of the full training loss match central
    differences within 1e-4 on a 2-frame, 4-d latent batch, under 30 s."""
    dims = dt.ModelDims(embed_layers=1, embed_dim=3, token_dim=2,
                        mapper_hidden=(5, 4, 3), pool_hidden=3, pool_cross=2,
                        latent_dim=4, attn_dim=3, value_dim=3,
                        denoiser_hidden=5, time_dim=4, timesteps=10,
                        width=8, height=8, denoiser_out_bias=1.5,
                        frames_per_video=2)
    comp = dt.build_components(dims, seed=7)
    rng = Rng(99)
    batch = [(rng.normal((2, dims.latent_dim)),
              rng.normal((2, dims.embed_layers, dims.embed_dim)))]
    noises = [dt.sample_step_noise(batch[0][0], comp.schedule, rng)]

    def f(flat):
        write_trainable(flat, comp.mapper, comp.pooling)
        loss, grads = dt.total_loss_and_grads(
            batch, noises, comp.mapper, comp.pooling, comp.denoiser,
            comp.schedule, 0.05)
        return loss, flatten_grads(grads, comp.mapper, comp.pooling)

    start = time.monotonic()
    err = grad_check(f, flatten_trainable(comp.mapper, comp.pooling),
                     1e-5)
    elapsed = time.monotonic() - start
    report(f"training-loss gradients vs finite differences "
           f"(max rel err {err:.2e})", err <= 1e-4 and elapsed < 30.0)


def test_frozen_backbone_protocol(training_run):
    """200 steps leave denoiser and codec hashes unchanged while the
    mapper and pooling hashes move."""
    comp, before, _, _ = training_run
    frozen_ok = (params_hash(comp.denoiser.arrays()) == before["denoiser"]
                 and params_hash(comp.codec.arrays()) == before["codec"])
    moved = (params_hash(comp.mapper.arrays()) != before["mapper"]
             and params_hash(comp.pooling.arrays()) != before["pooling"])
    report("frozen backbone: denoiser/codec unchanged, adapter updated",
           frozen_ok and moved)


def test_training_progress(training_run):
    """Trailing-20-step mean loss <= 0.7x the leading-20-step mean after
    200 SGD steps on the 32-clip corpus, inside 10 minutes."""
    _, _, history, elapsed = training_run
    lead = float(np.mean(history[:20]))
    trail = float(np.mean(history[-20:]))
    ratio = trail / lead
    report(f"training progress: trail/lead ratio {ratio:.3f} <= 0.7",
           len(history) == 200 and ratio <= 0.7 and elapsed < 600.0)


def test_attentive_pooling_contracts():
    """Distribution sums to 1 within 1e-12; one segment returns its own
    token; constant tokens give the uniform distribution."""
    rng = Rng(5)
    pooling = create_pooling(6, 16, 16, rng.derive(1))
    ok = True
    for trial in range(25):
        tokens = AudioEmbeddings(rng.normal((int(rng.integers(1, 12)), 2, 3)))
        _, p, _ = pool_forward(tokens.flat, pooling)
        ok &= abs(p.sum() - 1.0) < 1e-12

    single = AudioEmbeddings(rng.normal((1, 2, 3)))
    pooled, p, _ = pool_forward(single.flat, pooling)
    ok &= np.allclose(pooled, single.flat[0], atol=1e-12)
    ok &= p.tolist() == [1.0]

    constant = AudioEmbeddings(np.tile(rng.normal((1, 2, 3)), (7, 1, 1)))
    _, p, _ = pool_forward(constant.flat, pooling)
    ok &= np.allclose(p, 1.0 / 7.0, atol=1e-12)
    report("attentive pooling: unit mass, identity at L=1, uniform on "
           "constants", bool(ok))


def test_optical_flow_contracts():
    """Zero flow on identical frames (exact); a 1-px ramp translation
    recovers interior mean u in [0.7, 1.3]."""
    rng = np.random.default_rng(11)
    frame = rng.uniform(0, 1, (32, 32))
    flow_same = optical_flow(frame, frame)
    zero_ok = (np.all(flow_same.u == 0.0) and np.all(flow_same.v == 0.0))

    x = np.arange(64)
    ramp = np.clip(x * 4, 0, 255).astype(np.uint8)
    f1 = to_grayscale(np.stack([np.repeat(ramp[None, :], 64, 0)] * 3, -1))
    ramp_shifted = np.clip((x - 1) * 4, 0, 255).astype(np.uint8)
    f2 = to_grayscale(
        np.stack([np.repeat(ramp_shifted[None, :], 64, 0)] * 3, -1))
    mean_u = optical_flow(f1, f2).u[8:-8, 8:-8].mean()
    report(f"optical flow: exact zero on identical frames, ramp mean u "
           f"{mean_u:.3f} in [0.7, 1.3]",
           zero_ok and 0.7 <= mean_u <= 1.3)


def test_format_round_trips(tmp_path):
    """100 random instances per format survive write -> read bit-exactly."""
    rng = np.random.default_rng(13)
    ok = True

    for i in range(100):
        frames = rng.integers(0, 256, (int(rng.integers(1, 6)),
                                       int(rng.integers(2, 10)),
                                       int(rng.integers(2, 10)), 3),
                              dtype=np.uint8)
        video = Video(frames, int(rng.integers(1, 61)), int(rng.integers(1, 4)))
        path = tmp_path / "v.rvid"
        write_video(video, path)
        back = read_video(path)
        ok &= (back.frames.tobytes() == frames.tobytes()
               and back.fps_num == video.fps_num
               and back.fps_den == video.fps_den)

    for i in range(100):
        values = rng.normal(size=(int(rng.integers(1, 7)),
                                  int(rng.integers(1, 5)),
                                  int(rng.integers(1, 17)))
                            ).astype(np.float32)
        path = tmp_path / "e.tte"
        write_embeddings(AudioEmbeddings(values), path)
        ok &= np.array_equal(read_embeddings(path).values,
                             values.astype(np.float64))

    for i in range(100):
        values = rng.normal(size=(int(rng.integers(1, 7)),
                                  int(rng.integers(1, 7)),
                                  int(rng.integers(1, 17)))
                            ).astype(np.float32)
        path = tmp_path / "c.ttc"
        write_condition(ConditionFile(values), path)
        ok &= np.array_equal(read_condition(path).values,
                             values.astype(np.float64))

    for i in range(100):
        records = {}
        for r in range(int(rng.integers(1, 5))):
            shape = tuple(int(s) for s in
                          rng.integers(1, 6, int(rng.integers(1, 4))))
            records[f"param.{i}.{r}"] = rng.normal(size=shape).astype(
                np.float32)
        path = tmp_path / "k.ckpt"
        write_named_tensors(records, path)
        back = read_named_tensors(path)
        ok &= list(back) == list(records)
        ok &= all(np.array_equal(back[k], records[k].astype(np.float64))
                  for k in records)

    report("format round-trips: 100 random instances per container",
           bool(ok))
