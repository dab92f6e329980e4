import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (flatten_grads, flatten_trainable, grad_check,
                     params_hash, write_trainable)
from tempokit import diffusion_toy as dt
from tempokit.audio_analysis import (spectral_flux, stft_magnitude,
                                     toy_audio_features)
from tempokit.errors import NumericError, ShapeError, ValidationError
from tempokit.media_io import AudioEmbeddings
from tempokit.motion_analysis import motion_curve
from tempokit.numerics import Rng
from tempokit.synthgen import SynthConfig, generate as synth_generate
from tempokit.tempo_tokens import (build_condition, condition_backward,
                                   condition_values, map_audio,
                                   mapper_backward, mapper_forward,
                                   pool_backward, pool_forward)

TINY = dt.ModelDims(embed_layers=1, embed_dim=3, token_dim=2,
                    mapper_hidden=(5, 4, 3), pool_hidden=3, pool_cross=2,
                    latent_dim=4, attn_dim=3, value_dim=3, denoiser_hidden=5,
                    time_dim=4, timesteps=10, width=8, height=8,
                    denoiser_out_bias=1.5, frames_per_video=2)


def tiny_batch(n_items=2, frames=3, seed=11):
    rng = Rng(seed)
    return [(rng.normal((frames, TINY.latent_dim)),
             rng.normal((frames, TINY.embed_layers, TINY.embed_dim)))
            for _ in range(n_items)]


def zero_denoiser(dims):
    """Frozen denoiser whose weights are all zero: it predicts zero."""
    den = dt.build_components(dims, seed=0).denoiser
    return dt.DenoiserParams(*(np.zeros_like(arr) for _, arr in den.arrays()),
                             time_dim=dims.time_dim)


def item_noises(batch, schedule, rng):
    return [dt.sample_step_noise(latents, schedule, rng)
            for latents, _ in batch]


def batch_loss(batch, comp, lambda_l1, rng, denoiser=None):
    noises = item_noises(batch, comp.schedule, rng)
    loss, _ = dt.total_loss_and_grads(batch, noises, comp.mapper,
                                      comp.pooling,
                                      denoiser or comp.denoiser,
                                      comp.schedule, lambda_l1)
    return loss, noises


@pytest.fixture(scope="module")
def trained():
    """Desk-profile components trained for 200 steps on 16 clips."""
    dims = dt.desk_train_dims()
    comp = dt.build_components(dims, seed=3)
    pairs = [synth_generate(SynthConfig(seed=1000 + i))[0] for i in range(16)]
    items = [dt.prepare_item(p, comp.codec, dims.embed_layers,
                             dims.embed_dim) for p in pairs]
    config = dt.TrainConfig(steps=200, learning_rate=2e-3, lambda_l1=0.5,
                            seed=3)
    history = dt.train(items, config, comp.mapper, comp.pooling,
                       comp.denoiser, comp.schedule)
    return comp, pairs, items, history


class TestSchedule:
    def test_default_schedule_shape_and_bounds(self):
        sched = dt.make_schedule()
        assert sched.timesteps == 100
        assert sched.betas[0] == pytest.approx(1e-4)
        assert sched.betas[-1] == pytest.approx(0.02)
        assert np.all((sched.betas > 0) & (sched.betas < 1))

    def test_cumulative_alphas_strictly_decrease(self):
        sched = dt.make_schedule()
        assert np.all(np.diff(sched.alpha_bars) < 0)


class TestForwardNoise:
    def test_zero_noise_scales_by_sqrt_alpha_bar(self):
        sched = dt.make_schedule()
        z0 = np.array([2.0, -4.0])
        got = dt.forward_noise(z0, 50, np.zeros(2), sched)
        np.testing.assert_allclose(got,
                                   np.sqrt(sched.alpha_bars[49]) * z0)

    def test_first_step_barely_moves_clean_input(self):
        sched = dt.make_schedule()
        z0 = np.ones(8)
        z1 = dt.forward_noise(z0, 1, np.zeros(8), sched)
        assert np.linalg.norm(z1 - z0) / np.linalg.norm(z0) <= 1e-3

    def test_final_step_correlation_matches_schedule_product(self):
        # the expected correlation is sqrt(1 - alpha_bar_T), straight
        # from the cumulative schedule product
        rng = Rng(5)
        for timesteps, floor in ((100, None), (400, 0.9)):
            sched = dt.make_schedule(timesteps)
            z0 = rng.normal(20000)
            eps = rng.normal(20000)
            zt = dt.forward_noise(z0, timesteps, eps, sched)
            corr = np.corrcoef(zt, eps)[0, 1]
            expected = np.sqrt(1.0 - sched.alpha_bars[-1])
            assert corr == pytest.approx(expected, abs=0.02)
            if floor is not None:
                assert corr > floor

    def test_variance_contract(self):
        sched = dt.make_schedule()
        rng = Rng(7)
        z0 = rng.normal(10000)
        eps = rng.normal(10000)
        for t in (1, 37, 100):
            zt = dt.forward_noise(z0, t, eps, sched)
            abar = sched.alpha_bars[t - 1]
            expected = abar * z0.var() + (1 - abar)
            assert zt.var() == pytest.approx(expected, rel=0.10)

    def test_out_of_range_t_rejected(self):
        sched = dt.make_schedule()
        for t in (0, 101):
            with pytest.raises(ValidationError):
                dt.forward_noise(np.zeros(2), t, np.zeros(2), sched)

    def test_shape_mismatch_rejected(self):
        sched = dt.make_schedule()
        with pytest.raises(ShapeError):
            dt.forward_noise(np.zeros(2), 1, np.zeros(3), sched)


class TestCodec:
    def test_encoder_rows_orthonormal(self):
        codec = dt.create_codec(16, 16, 6, Rng(9))
        gram = codec.encoder @ codec.encoder.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_decode_encode_is_projection(self):
        codec = dt.create_codec(8, 8, 5, Rng(10))
        rng = Rng(11)
        z = rng.normal((3, 5))
        once = codec.encode(codec.decode(z))
        # decoding quantizes to uint8, so project in latent space instead
        flat = rng.normal((2, 8 * 8 * 3))
        projected = (flat @ codec.encoder.T) @ codec.encoder
        twice = (projected @ codec.encoder.T) @ codec.encoder
        np.testing.assert_allclose(projected, twice, atol=1e-10)
        assert once.shape == z.shape

    def test_decode_shape_and_dtype(self):
        codec = dt.create_codec(8, 6, 4, Rng(12))
        frames = codec.decode(np.zeros((3, 4)))
        assert frames.shape == (3, 6, 8, 3)
        assert frames.dtype == np.uint8


class TestCldmLoss:
    """The denoising term of total_loss_and_grads (lambda = 0)."""

    def test_zero_denoiser_loss_is_mean_eps_norm(self):
        comp = dt.build_components(TINY, seed=2)
        batch = tiny_batch()
        loss, noises = batch_loss(batch, comp, 0.0, Rng(13),
                                  zero_denoiser(TINY))
        expected = np.mean([(eps * eps).sum() / eps.shape[0]
                            for _, eps in noises])
        assert loss == pytest.approx(expected, rel=1e-14)

    def test_zero_denoiser_loss_is_about_latent_dim(self):
        dims = dataclasses.replace(TINY, latent_dim=16)
        comp = dt.build_components(dims, seed=3)
        rng = Rng(17)
        batch = [(rng.normal((24, dims.latent_dim)),
                  rng.normal((24, dims.embed_layers, dims.embed_dim)))
                 for _ in range(8)]
        loss, _ = batch_loss(batch, comp, 0.0, Rng(19), zero_denoiser(dims))
        # the prediction is zero, so the loss is the mean squared norm of
        # unit-normal eps: latent_dim up to sampling error
        assert loss == pytest.approx(dims.latent_dim, rel=0.15)

    def test_fixed_seed_is_bit_identical(self):
        comp = dt.build_components(TINY, seed=2)
        batch = tiny_batch()
        runs = []
        for _ in range(2):
            noises = item_noises(batch, comp.schedule, Rng(23))
            runs.append(dt.total_loss_and_grads(
                batch, noises, comp.mapper, comp.pooling, comp.denoiser,
                comp.schedule, 0.1))
        (loss_a, grads_a), (loss_b, grads_b) = runs
        assert loss_a == loss_b
        for name in grads_a:
            assert grads_a[name].tobytes() == grads_b[name].tobytes()

    def test_condition_frame_count_must_match(self):
        comp = dt.build_components(TINY, seed=2)
        batch = [(np.zeros((3, TINY.latent_dim)),
                  np.zeros((2, TINY.embed_layers, TINY.embed_dim)))]
        with pytest.raises(ShapeError):
            batch_loss(batch, comp, 0.0, Rng(29))


class TestTotalLoss:
    def test_zero_lambda_equals_predict_on_built_conditions(self):
        comp = dt.build_components(TINY, seed=6)
        batch = tiny_batch(seed=31)
        total, noises = batch_loss(batch, comp, 0.0, Rng(37))
        expected = 0.0
        for (latents, emb), (t, eps) in zip(batch, noises):
            tokens = map_audio(AudioEmbeddings(emb), comp.mapper)
            cond = build_condition(tokens, comp.pooling)
            z_t = dt.forward_noise(latents, t, eps, comp.schedule)
            resid = comp.denoiser.predict(z_t, t, cond.values) - eps
            expected += (resid * resid).sum() / latents.shape[0]
        assert total == pytest.approx(expected / len(batch), rel=1e-12)

    def test_decomposes_into_cldm_plus_regularization(self):
        from tempokit.tempo_tokens import mapper_forward

        comp = dt.build_components(TINY, seed=8)
        batch = tiny_batch(seed=41)
        lam = 0.7
        total, _ = batch_loss(batch, comp, lam, Rng(43))
        cldm, _ = batch_loss(batch, comp, 0.0, Rng(43))
        reg = 0.0
        for _, emb in batch:
            flat_in = emb.reshape(emb.shape[0], -1)
            tokens, _ = mapper_forward(flat_in, comp.mapper)
            reg += lam / tokens.shape[0] * np.abs(tokens).sum()
        reg /= len(batch)
        assert total == pytest.approx(cldm + reg, abs=1e-12)

    def test_zero_tokens_have_zero_regularization(self):
        comp = dt.build_components(TINY, seed=9)
        for _, bias in comp.mapper.layers:
            bias[:] = 0.0
        batch = [(Rng(47).normal((3, TINY.latent_dim)),
                  np.zeros((3, TINY.embed_layers, TINY.embed_dim)))]
        with_reg, _ = batch_loss(batch, comp, 5.0, Rng(53))
        without, _ = batch_loss(batch, comp, 0.0, Rng(53))
        assert with_reg == without


class TestGradients:
    def test_total_loss_gradients_match_finite_differences(self):
        comp = dt.build_components(TINY, seed=7)
        rng = Rng(99)
        batch = [(rng.normal((2, TINY.latent_dim)),
                  rng.normal((2, TINY.embed_layers, TINY.embed_dim)))]
        noises = [dt.sample_step_noise(batch[0][0], comp.schedule, rng)]

        def f(flat):
            write_trainable(flat, comp.mapper, comp.pooling)
            loss, grads = dt.total_loss_and_grads(
                batch, noises, comp.mapper, comp.pooling, comp.denoiser,
                comp.schedule, 0.05)
            return loss, flatten_grads(grads, comp.mapper, comp.pooling)

        flat0 = flatten_trainable(comp.mapper, comp.pooling)
        assert grad_check(f, flat0, 1e-5) <= 1e-4

    def test_batch_permutation_invariance(self):
        comp = dt.build_components(TINY, seed=13)
        batch = tiny_batch(n_items=3, seed=67)
        rng = Rng(71)
        noises = [dt.sample_step_noise(latents, comp.schedule, rng)
                  for latents, _ in batch]
        loss_fwd, _ = dt.total_loss_and_grads(batch, noises, comp.mapper,
                                              comp.pooling, comp.denoiser,
                                              comp.schedule, 0.2)
        perm = [2, 0, 1]
        loss_perm, _ = dt.total_loss_and_grads(
            [batch[i] for i in perm], [noises[i] for i in perm],
            comp.mapper, comp.pooling, comp.denoiser, comp.schedule, 0.2)
        assert loss_fwd == pytest.approx(loss_perm, abs=1e-12)


def per_clip_loss_and_grads(batch, noises, mapper, pooling, denoiser,
                            schedule, lambda_l1):
    """Oracle: total_loss_and_grads as a loop of one-clip passes, summing
    each clip's loss and gradients into running totals in batch order."""
    grads = {name: np.zeros_like(arr)
             for name, arr in mapper.arrays() + pooling.arrays()}
    total = 0.0
    for (latents, embeddings), (t, eps) in zip(batch, noises):
        latents = np.asarray(latents, dtype=np.float64)
        length = latents.shape[0]
        flat_in = np.asarray(embeddings, dtype=np.float64).reshape(length, -1)
        tokens_flat, mapper_cache = mapper_forward(flat_in, mapper)
        pooled, _, pool_cache = pool_forward(tokens_flat, pooling)
        cond = condition_values(tokens_flat, pooled)

        z_t = dt.forward_noise(latents, t, eps, schedule)
        pred, cache = dt._denoiser_forward(denoiser, z_t, t, cond)
        resid = pred - eps
        reg = lambda_l1 / length * np.abs(tokens_flat).sum()
        total += (resid * resid).sum() / length + reg

        d_cond = dt._denoiser_backward_to_cond(denoiser,
                                               2.0 * resid / length, cache)
        d_tokens, d_pooled = condition_backward(d_cond, length)
        d_tokens_pool, pool_grads = pool_backward(d_pooled, pool_cache,
                                                  pooling)
        d_tokens += d_tokens_pool
        d_tokens += lambda_l1 / length * np.sign(tokens_flat)
        _, mapper_grads = mapper_backward(d_tokens, mapper_cache, mapper)
        for name, grad in {**pool_grads, **mapper_grads}.items():
            grads[name] += grad
    total /= len(batch)
    return total, {name: grad / len(batch) for name, grad in grads.items()}


class TestStackedPass:
    """total_loss_and_grads runs the batch as one stacked pass; every
    figure must equal the per-clip loop bit for bit."""

    @pytest.mark.parametrize("profile", ["tiny", "desk"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_clip_loop(self, profile, seed):
        dims = TINY if profile == "tiny" else dt.desk_train_dims()
        frames = 3 if profile == "tiny" else dims.frames_per_video
        comp = dt.build_components(dims, seed=seed)
        rng = Rng(seed).derive(9)
        batch = [(rng.normal((frames, dims.latent_dim)),
                  rng.normal((frames, dims.embed_layers, dims.embed_dim)))
                 for _ in range(3)]
        noises = item_noises(batch, comp.schedule, rng)
        args = (batch, noises, comp.mapper, comp.pooling, comp.denoiser,
                comp.schedule, 0.5)
        loss, grads = dt.total_loss_and_grads(*args)
        want_loss, want_grads = per_clip_loss_and_grads(*args)
        assert loss == want_loss
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert grads[name].shape == want.shape, name
            assert np.all(grads[name] == want), name

    def test_items_of_different_lengths_are_rejected(self):
        comp = dt.build_components(TINY, seed=2)
        batch = tiny_batch(n_items=1, frames=3) + tiny_batch(n_items=1,
                                                              frames=4)
        with pytest.raises(ShapeError, match="differ in length"):
            batch_loss(batch, comp, 0.0, Rng(29))

    @pytest.mark.parametrize("clips", [1, 3])
    def test_each_clip_of_a_stack_gives_the_one_clip_bytes(self, clips):
        comp = dt.build_components(dt.desk_train_dims(), seed=4)
        rng = Rng(12)
        stack = rng.normal((clips, 24, comp.mapper.in_dim))
        tokens, _ = mapper_forward(stack, comp.mapper)
        pooled, p, _ = pool_forward(tokens, comp.pooling)
        for b in range(clips):
            one_tokens, _ = mapper_forward(stack[b], comp.mapper)
            one_pooled, one_p, _ = pool_forward(one_tokens, comp.pooling)
            assert tokens[b].tobytes() == one_tokens.tobytes()
            assert pooled[b].tobytes() == one_pooled.tobytes()
            assert p[b].tobytes() == one_p.tobytes()


# A 20-step desk-profile run on a 4-clip synthetic corpus, in a fresh
# interpreter with one BLAS thread: OpenBLAS splits some products across
# threads, and the split changes their rounding.
DESK_GOLDEN_SCRIPT = """
import hashlib
import numpy as np
from oracles import params_hash
from tempokit import diffusion_toy as dt
from tempokit.synthgen import SynthConfig, generate
dims = dt.desk_train_dims()
comp = dt.build_components(dims, seed=0)
items = [dt.prepare_item(generate(SynthConfig(seed=2000 + i))[0], comp.codec,
                         dims.embed_layers, dims.embed_dim) for i in range(4)]
config = dt.TrainConfig(steps=20, learning_rate=2e-3, lambda_l1=0.5, seed=0)
history = dt.train(items, config, comp.mapper, comp.pooling, comp.denoiser,
                   comp.schedule)
print(hashlib.sha256(np.array(history, dtype=np.float64).tobytes())
      .hexdigest())
print(params_hash(comp.mapper.arrays() + comp.pooling.arrays()))
"""


class TestSeedDeterminism:
    def test_desk_run_matches_its_golden_bytes(self):
        # the loss history and trained parameters as computed by the
        # per-clip loop before training stacked its clips: any change to
        # the order of a sum shows here
        src = pathlib.Path(dt.__file__).resolve().parents[1]
        tests = pathlib.Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{tests}",
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", DESK_GOLDEN_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=300).stdout.split()
        assert out == [
            "3b8618d6e2587c39aad9e28847a2f979790f18676832e58d1828163659afea79",
            "32acf037ee2364968569e6c18fa788a90a99ffec4505b802700a28ecd6e06667",
        ]


class TestTrain:
    def test_zero_steps_change_nothing(self):
        comp = dt.build_components(TINY, seed=21)
        before = params_hash(comp.mapper.arrays() + comp.pooling.arrays())
        items = [dt.TrainItem(Rng(73).normal((6, TINY.latent_dim)),
                              Rng(74).normal((6, 1, 3)))]
        config = dt.TrainConfig(batch_videos=1, frames_per_video=2, steps=0,
                                learning_rate=1e-3, lambda_l1=0.1, seed=0)
        history = dt.train(items, config, comp.mapper, comp.pooling,
                           comp.denoiser, comp.schedule)
        assert history == []
        after = params_hash(comp.mapper.arrays() + comp.pooling.arrays())
        assert before == after

    def test_training_is_deterministic(self):
        histories = []
        for _ in range(2):
            comp = dt.build_components(TINY, seed=22)
            items = [dt.TrainItem(Rng(75).normal((6, TINY.latent_dim)),
                                  Rng(76).normal((6, 1, 3)))]
            config = dt.TrainConfig(batch_videos=2, frames_per_video=2,
                                    steps=10, learning_rate=1e-3,
                                    lambda_l1=0.1, seed=5)
            histories.append(dt.train(items, config, comp.mapper,
                                      comp.pooling, comp.denoiser,
                                      comp.schedule))
        assert histories[0] == histories[1]

    def test_frozen_parameters_untouched_and_trainables_move(self):
        comp = dt.build_components(TINY, seed=23)
        frozen_before = (params_hash(comp.denoiser.arrays()),
                         params_hash(comp.codec.arrays()))
        mapper_before = params_hash(comp.mapper.arrays())
        items = [dt.TrainItem(Rng(77).normal((6, TINY.latent_dim)),
                              Rng(78).normal((6, 1, 3)))]
        config = dt.TrainConfig(batch_videos=2, frames_per_video=2, steps=10,
                                learning_rate=1e-3, lambda_l1=0.1, seed=6)
        dt.train(items, config, comp.mapper, comp.pooling, comp.denoiser,
                 comp.schedule)
        assert params_hash(comp.denoiser.arrays()) == frozen_before[0]
        assert params_hash(comp.codec.arrays()) == frozen_before[1]
        assert params_hash(comp.mapper.arrays()) != mapper_before

    @pytest.mark.parametrize("scale, step_norm", [(1, 15.7226), (100, 1000)])
    def test_steps_longer_than_the_norm_limit_are_clipped(self, scale,
                                                          step_norm):
        comp = dt.build_components(TINY, seed=25)
        items = [dt.TrainItem(Rng(81).normal((6, TINY.latent_dim)),
                              scale * Rng(82).normal((6, 1, 3)))]
        before = flatten_trainable(comp.mapper, comp.pooling)
        config = dt.TrainConfig(batch_videos=2, frames_per_video=2, steps=1,
                                learning_rate=1e-3, lambda_l1=0.1, seed=8)
        dt.train(items, config, comp.mapper, comp.pooling, comp.denoiser,
                 comp.schedule)
        moved = flatten_trainable(comp.mapper, comp.pooling) - before
        assert np.linalg.norm(moved) / 1e-3 == pytest.approx(step_norm,
                                                             rel=1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_step_info(self):
        # Clipped steps are at most learning_rate * MAX_GRAD_NORM long, so
        # it takes a rate whose first step overflows the next forward.
        comp = dt.build_components(TINY, seed=24)
        items = [dt.TrainItem(Rng(79).normal((6, TINY.latent_dim)),
                              Rng(80).normal((6, 1, 3)))]
        config = dt.TrainConfig(batch_videos=2, frames_per_video=2,
                                steps=500, learning_rate=1e300,
                                lambda_l1=0.1, seed=7)
        with pytest.raises(NumericError, match="step"):
            dt.train(items, config, comp.mapper, comp.pooling, comp.denoiser,
                     comp.schedule)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        comp = dt.build_components(TINY, seed=31)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dt.save_checkpoint(comp, p1)
        loaded = dt.load_checkpoint(p1)
        dt.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_dims_match(self, tmp_path):
        comp = dt.build_components(TINY, seed=32)
        path = tmp_path / "c.ckpt"
        dt.save_checkpoint(comp, path)
        loaded = dt.load_checkpoint(path)
        assert loaded.dims.latent_dim == TINY.latent_dim
        assert loaded.dims.mapper_hidden == TINY.mapper_hidden
        assert loaded.dims.timesteps == TINY.timesteps
        assert loaded.schedule.betas.size == TINY.timesteps

    def test_checkpoint_magic(self, tmp_path):
        comp = dt.build_components(TINY, seed=33)
        path = tmp_path / "d.ckpt"
        dt.save_checkpoint(comp, path)
        assert path.read_bytes()[:7] == b"TTCKPT1"


# Meta entries up to 2^40, with the edges of float32 rounding next to
# 2^32: from 2^32 - 128 on a whole number rounds up to 2^32, and below
# it to at most 4,294,967,040.
META_ENTRIES = st.one_of(
    st.integers(1, 2 ** 40),
    st.sampled_from([2 ** 32 - 129, 2 ** 32 - 128, 4_294_967_040,
                     4_294_967_041, 2 ** 32 - 1, 2 ** 32, 2 ** 40]))
TINY_COMPONENTS = dt.build_components(TINY, seed=34)


# frames_per_video and fps size no tensor, so any value of them leaves
# the records of a checkpoint fitting together
@settings(max_examples=40)
@given(entries=st.tuples(META_ENTRIES, META_ENTRIES, META_ENTRIES))
@example(entries=(2, 2 ** 33, 1))
@example(entries=(2, 2 ** 32 - 1, 1))
def test_meta_dims_round_trip_or_refusal(entries):
    frames, fps_num, fps_den = entries
    comp = dataclasses.replace(TINY_COMPONENTS, dims=dataclasses.replace(
        TINY, frames_per_video=frames, fps=(fps_num, fps_den)))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "k.ckpt")
        if max(entries) >= 2 ** 32 - 128:
            with pytest.raises(ValidationError, match="below 2\\^32"):
                dt.save_checkpoint(comp, path)
            assert not os.path.exists(path)
            return
        dt.save_checkpoint(comp, path)
        loaded = dt.load_checkpoint(path)
    assert (loaded.dims.frames_per_video, *loaded.dims.fps) == tuple(
        int(np.float32(v)) for v in entries)


class TestGenerate:
    def test_shape_and_determinism(self):
        comp = dt.build_components(TINY, seed=41)
        emb_rng = Rng(81)
        emb = AudioEmbeddings(emb_rng.normal(
            (5, TINY.embed_layers, TINY.embed_dim)))
        a = dt.generate(emb, comp.mapper, comp.pooling, comp.denoiser,
                        comp.codec, comp.schedule, Rng(83), fps=(24, 1))
        b = dt.generate(emb, comp.mapper, comp.pooling, comp.denoiser,
                        comp.codec, comp.schedule, Rng(83), fps=(24, 1))
        assert a.frame_count == 5
        assert a.frames.shape == (5, TINY.height, TINY.width, 3)
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_matches_pre_batching_golden_run(self, trained):
        # loss history and sampled frames of this run as computed by the
        # per-frame denoiser loops the batched forward/backward replaced
        comp, pairs, _, history = trained
        golden = {0: 32.10337417094181, 1: 23.376648854741145,
                  49: 19.138351310991972, 99: 12.494952618248385,
                  199: 11.591146940149684}
        for step, value in golden.items():
            assert history[step] == pytest.approx(value, rel=1e-9)
        emb = toy_audio_features(pairs[0].audio, 24, 2, 12)
        video = dt.generate(emb, comp.mapper, comp.pooling, comp.denoiser,
                            comp.codec, comp.schedule,
                            Rng(0).derive(dt._KEY_GENERATE))
        assert hashlib.sha256(video.frames.tobytes()).hexdigest() == (
            "84c568017a739c1433b59665301b98e69852e43fd60dfbf40971fa6c051212d7")

    def test_training_reduces_loss_on_synthetic_corpus(self, trained):
        _, _, _, history = trained
        lead = np.mean(history[:20])
        trail = np.mean(history[-20:])
        assert trail < lead

    def test_generated_motion_tracks_conditioning_flux(self, trained):
        comp, pairs, _, _ = trained
        dims = comp.dims
        correlations = []
        for clip, seed in ((0, 0), (1, 1), (2, 2)):
            pair = pairs[clip]
            emb = toy_audio_features(pair.audio, 24, dims.embed_layers,
                                     dims.embed_dim)
            video = dt.generate(emb, comp.mapper, comp.pooling, comp.denoiser,
                                comp.codec, comp.schedule,
                                Rng(seed).derive(6), fps=(24, 1))
            curve = motion_curve(video)
            hop = round(pair.audio.sample_rate / 24)
            flux = spectral_flux(stft_magnitude(pair.audio, 1024, hop))
            segment_flux = np.array(
                [s.sum() for s in np.array_split(flux, 24)])
            correlations.append(
                np.corrcoef(curve[1:], segment_flux[1:24])[0, 1])
        assert all(r > 0 for r in correlations)
        assert np.mean(correlations) > 0.15
