import numpy as np
import pytest

from oracles import gelu, grad_check, window_average
from tempokit.errors import ShapeError, ValidationError
from tempokit.media_io import AudioEmbeddings, ConditionFile
from tempokit.numerics import Rng, softmax
from tempokit.tempo_tokens import (MapperParams, PoolingParams,
                                   build_condition, condition_backward,
                                   create_mapper, create_pooling, map_audio,
                                   mapper_backward, mapper_forward,
                                   pool_backward, pool_forward, resolutions,
                                   single_vector_condition, window_bounds,
                                   window_half_widths, window_matrix)


def small_mapper(seed=0, in_dim=6, out_dim=4):
    return create_mapper(in_dim, out_dim, hidden=(5, 4, 3),
                         rng=Rng(seed).derive(1))


def small_pooling(seed=0, token_dim=4):
    return create_pooling(token_dim, hidden=3, cross_dim=2,
                          rng=Rng(seed).derive(2))


def scalar_tokens(values):
    return AudioEmbeddings(
        np.asarray(values, dtype=np.float64).reshape(-1, 1, 1))


class TestMapAudio:
    def test_zero_embeddings_zero_bias_gives_zero_tokens(self):
        mapper = small_mapper()
        for _, bias in mapper.layers:
            bias[:] = 0.0
        emb = AudioEmbeddings(np.zeros((5, 2, 3)))
        np.testing.assert_array_equal(map_audio(emb, mapper).values, 0.0)

    def test_output_shape_contract(self):
        mapper = small_mapper()
        for length in (1, 3, 9):
            emb = AudioEmbeddings(np.ones((length, 2, 3)))
            assert map_audio(emb, mapper).values.shape == (length, 2, 2)

    def test_tokens_share_the_embeddings_container(self):
        tokens = map_audio(AudioEmbeddings(np.ones((3, 2, 3))), small_mapper())
        assert type(tokens) is AudioEmbeddings
        assert tokens.flat.shape == (3, 4)

    def test_matches_hand_composed_layer_chain(self):
        mapper = small_mapper(seed=4)
        rng = np.random.default_rng(0)
        emb = AudioEmbeddings(rng.normal(size=(1, 2, 3)))
        x = emb.values.reshape(1, 6)
        for i, (weight, bias) in enumerate(mapper.layers):
            x = x @ weight.T + bias
            if i < 3:
                x = gelu(x)
        got = map_audio(emb, mapper).values.reshape(1, 4)
        np.testing.assert_allclose(got, x, atol=1e-12)

    def test_segmentwise_weight_sharing_permutes_with_input(self):
        mapper = small_mapper(seed=5)
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(6, 2, 3))
        perm = rng.permutation(6)
        base = map_audio(AudioEmbeddings(emb), mapper).values
        permuted = map_audio(AudioEmbeddings(emb[perm]), mapper).values
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            map_audio(AudioEmbeddings(np.ones((2, 3, 3))), small_mapper())

    def test_mapper_requires_four_layers(self):
        with pytest.raises(ValidationError):
            MapperParams(small_mapper().layers[:3])

    @pytest.mark.parametrize("index, layer", [
        (0, (np.zeros(5), np.zeros(5))),
        (0, (np.zeros((5, 6)), np.zeros(4))),
        (0, (np.zeros((5, 6)), np.zeros((5, 1)))),
        (1, (np.zeros((4, 6)), np.zeros(4))),
    ], ids=["1-d weight", "short bias", "2-d bias", "no chain"])
    def test_mapper_layers_must_fit(self, index, layer):
        layers = small_mapper().layers
        layers[index] = layer
        with pytest.raises(ShapeError):
            MapperParams(layers)

    def test_layers_are_float64_pairs(self):
        mapper = MapperParams([(np.ones((5, 6), np.float32), [0] * 5),
                               *small_mapper().layers[1:]])
        assert all(weight.dtype == bias.dtype == np.float64
                   for weight, bias in mapper.layers)

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (3, 2, 7)])
    def test_forward_rejects_an_input_of_the_wrong_width(self, shape):
        with pytest.raises(ShapeError, match="in_dim 6"):
            mapper_forward(np.zeros(shape), small_mapper())


class TestWindows:
    def test_resolution_counts(self):
        assert resolutions(24) == 5
        assert resolutions(1) == 1
        assert resolutions(16) == 5

    def test_half_widths_are_powers_of_two(self):
        assert window_half_widths(24) == [1, 2, 4, 8, 16]

    def test_single_segment_window_is_exact(self):
        tokens = scalar_tokens([2.0, 4.0, 8.0])
        np.testing.assert_array_equal(window_average(tokens, 2, 2), [[4.0]])

    def test_constant_tokens_average_to_constant(self):
        tokens = AudioEmbeddings(np.full((7, 2, 3), 1.25))
        np.testing.assert_allclose(window_average(tokens, 1, 7), 1.25)

    def test_hand_mean(self):
        tokens = scalar_tokens([1.0, 3.0, 5.0])
        assert window_average(tokens, 1, 3)[0, 0] == 3.0

    def test_out_of_range_rejected(self):
        tokens = scalar_tokens([1.0, 2.0])
        with pytest.raises(ValidationError):
            window_average(tokens, 0, 1)
        with pytest.raises(ValidationError):
            window_average(tokens, 2, 3)

    def test_left_clamped_edge_window(self):
        # first frame, half-width 2, 8 segments: average of segments 1..3
        assert window_bounds(1, 2, 8) == (1, 3)
        tokens = scalar_tokens(np.arange(1.0, 9.0))
        lo, hi = window_bounds(1, 2, 8)
        assert window_average(tokens, lo, hi)[0, 0] == 2.0

    def test_windows_clamp_correct_and_contain_center(self):
        for length in (1, 2, 5, 16, 24, 31):
            for center in range(1, length + 1):
                for half in window_half_widths(length):
                    lo, hi = window_bounds(center, half, length)
                    assert 1 <= lo <= center <= hi <= length

    def test_largest_window_spans_everything_at_power_of_two(self):
        for length in (2, 8, 16):
            widest = window_half_widths(length)[-1]
            for center in range(1, length + 1):
                assert window_bounds(center, widest, length) == (1, length)


class TestAttentivePool:
    def test_single_segment_returns_input(self):
        pooling = small_pooling()
        tokens = AudioEmbeddings(np.array([[[1.0, -2.0], [0.5, 3.0]]]))
        pooled, p, _ = pool_forward(tokens.flat, pooling)
        np.testing.assert_array_equal(p, [1.0])
        np.testing.assert_allclose(pooled, tokens.flat[0], atol=1e-12)

    def test_identical_tokens_give_uniform_attention(self):
        pooling = small_pooling(seed=3, token_dim=2)
        tokens = AudioEmbeddings(np.tile(np.array([[[0.3, -1.2]]]), (5, 1, 1)))
        pooled, p, _ = pool_forward(tokens.flat, pooling)
        np.testing.assert_allclose(p, 0.2, atol=1e-12)
        np.testing.assert_allclose(pooled, tokens.flat[0], atol=1e-12)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(61)
        pooling = small_pooling(seed=8)
        for _ in range(20):
            tokens = AudioEmbeddings(rng.normal(size=(6, 2, 2)))
            _, p, _ = pool_forward(tokens.flat, pooling)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)

    def test_matches_direct_formula_evaluation(self):
        """Independent oracle: evaluate the potentials with plain loops."""
        pooling = small_pooling(seed=9)
        rng = np.random.default_rng(67)
        tokens = AudioEmbeddings(rng.normal(size=(3, 2, 2)))
        flat = tokens.flat

        local = np.array([
            pooling.local_score @ np.maximum(pooling.local_proj @ a, 0.0)
            for a in flat])
        cross = np.zeros(3)
        for u in range(3):
            xu = pooling.cross_left @ flat[u]
            for i in range(3):
                yi = pooling.cross_right @ flat[i]
                nx, ny = np.linalg.norm(xu), np.linalg.norm(yi)
                if nx >= 1e-12 and ny >= 1e-12:
                    cross[u] += (xu @ yi) / (nx * ny)
        p_expected = softmax(float(pooling.alpha_local) * local
                             + float(pooling.alpha_cross) * cross)
        pooled_expected = (p_expected[:, None] * flat).sum(axis=0)

        pooled, p, _ = pool_forward(tokens.flat, pooling)
        np.testing.assert_allclose(p, p_expected, atol=1e-10)
        np.testing.assert_allclose(pooled.reshape(-1), pooled_expected,
                                   atol=1e-10)

    def test_zero_tokens_guarded(self):
        pooling = small_pooling()
        tokens = AudioEmbeddings(np.zeros((4, 2, 2)))
        pooled, p, _ = pool_forward(tokens.flat, pooling)
        np.testing.assert_allclose(p, 0.25, atol=1e-12)
        np.testing.assert_array_equal(pooled, 0.0)


class TestBuildCondition:
    def test_24_segments_give_6_tokens_per_frame(self):
        rng = np.random.default_rng(71)
        tokens = AudioEmbeddings(rng.normal(size=(24, 2, 2)))
        cond = build_condition(tokens, small_pooling())
        assert cond.tokens_per_frame == 6
        assert cond.frame_count == 24

    def test_single_segment_gives_two_tokens_per_frame(self):
        tokens = AudioEmbeddings(np.ones((1, 2, 2)))
        cond = build_condition(tokens, small_pooling())
        assert cond.tokens_per_frame == 2  # one window plus the attentive

    def test_constant_tokens_make_every_entry_the_constant(self):
        tokens = AudioEmbeddings(np.full((16, 1, 3), 0.75))
        cond = build_condition(tokens, small_pooling(token_dim=3))
        np.testing.assert_allclose(cond.values, 0.75, atol=1e-12)

    def test_window_entries_match_window_average(self):
        rng = np.random.default_rng(73)
        tokens = AudioEmbeddings(rng.normal(size=(8, 2, 2)))
        cond = build_condition(tokens, small_pooling())
        for frame in (1, 4, 8):
            for k, half in enumerate(window_half_widths(8)):
                lo, hi = window_bounds(frame, half, 8)
                expected = window_average(tokens, lo, hi).reshape(-1)
                np.testing.assert_allclose(cond.values[frame - 1, k],
                                           expected, atol=1e-12)

    def test_attentive_token_shared_across_frames(self):
        rng = np.random.default_rng(79)
        tokens = AudioEmbeddings(rng.normal(size=(6, 2, 2)))
        cond = build_condition(tokens, small_pooling())
        for frame in range(6):
            np.testing.assert_array_equal(cond.values[frame, -1],
                                          cond.values[0, -1])


class TestWindowOperator:
    def test_backward_matches_loop_scatter(self):
        # reference: scatter each window's gradient evenly over its
        # segments; the matrix form sums in another order
        rng = np.random.default_rng(87)
        for length in (1, 5, 24):
            d_values = rng.normal(size=(length, resolutions(length) + 1, 3))
            expected = np.zeros((length, 3))
            for i in range(1, length + 1):
                for k, half in enumerate(window_half_widths(length)):
                    lo, hi = window_bounds(i, half, length)
                    expected[lo - 1:hi] += d_values[i - 1, k] / (hi - lo + 1)
            d_flat, d_pooled = condition_backward(d_values, length)
            np.testing.assert_allclose(d_flat, expected, rtol=1e-13,
                                       atol=1e-13)
            np.testing.assert_array_equal(d_pooled, d_values[:, -1].sum(0))

    def test_matrix_is_cached_and_read_only(self):
        matrix = window_matrix(6)
        assert window_matrix(6) is matrix
        assert matrix.shape == (6, resolutions(6), 6)
        np.testing.assert_allclose(matrix.sum(axis=2), 1.0, atol=1e-15)
        with pytest.raises(ValueError):
            matrix[0, 0, 0] = 1.0


class TestSingleVector:
    def test_constant_tokens(self):
        tokens = AudioEmbeddings(np.full((5, 1, 2), 3.5))
        cond = single_vector_condition(tokens)
        np.testing.assert_allclose(cond.values, 3.5)

    def test_equals_global_window_average(self):
        rng = np.random.default_rng(89)
        tokens = AudioEmbeddings(rng.normal(size=(9, 2, 2)))
        cond = single_vector_condition(tokens)
        expected = window_average(tokens, 1, 9).reshape(-1)
        for frame in range(9):
            np.testing.assert_allclose(cond.values[frame, 0], expected,
                                       atol=1e-12)

    def test_one_token_per_frame(self):
        tokens = AudioEmbeddings(np.zeros((4, 1, 2)))
        assert single_vector_condition(tokens).tokens_per_frame == 1


class TestGradients:
    def test_mapper_gradients_match_finite_differences(self):
        mapper = small_mapper(seed=11)
        rng = np.random.default_rng(97)
        x = rng.normal(size=(3, 6))
        probe = rng.normal(size=(3, 4))

        arrays = mapper.arrays()
        sizes = [arr.size for _, arr in arrays]

        def f(flat):
            offset = 0
            for (_, arr), size in zip(arrays, sizes):
                arr.flat[:] = flat[offset:offset + size]
                offset += size
            out, cache = mapper_forward(x, mapper)
            _, grads = mapper_backward(probe, cache, mapper)
            value = float((out * probe).sum())
            flat_grad = np.concatenate([grads[name].ravel()
                                        for name, _ in arrays])
            return value, flat_grad

        flat0 = np.concatenate([arr.ravel() for _, arr in arrays])
        assert grad_check(f, flat0, 1e-5) <= 1e-4

    def test_pooling_gradients_match_finite_differences(self):
        pooling = small_pooling(seed=13)
        rng = np.random.default_rng(101)
        tokens = rng.normal(size=(5, 4))
        probe = rng.normal(size=4)

        arrays = pooling.arrays()
        sizes = [arr.size for _, arr in arrays]

        def f(flat):
            offset = 0
            for (_, arr), size in zip(arrays, sizes):
                arr.flat[:] = flat[offset:offset + size]
                offset += size
            pooled, _, cache = pool_forward(tokens, pooling)
            _, grads = pool_backward(probe, cache, pooling)
            value = float(pooled @ probe)
            flat_grad = np.concatenate([np.asarray(grads[name]).ravel()
                                        for name, _ in arrays])
            return value, flat_grad

        flat0 = np.concatenate([arr.ravel() for _, arr in arrays])
        assert grad_check(f, flat0, 1e-5) <= 1e-4

    def test_pooling_input_gradient(self):
        pooling = small_pooling(seed=17)
        rng = np.random.default_rng(103)
        tokens0 = rng.normal(size=(4, 4))
        probe = rng.normal(size=4)

        def f(flat):
            tokens = flat.reshape(4, 4)
            pooled, _, cache = pool_forward(tokens, pooling)
            d_tokens, _ = pool_backward(probe, cache, pooling)
            return float(pooled @ probe), d_tokens.ravel()

        assert grad_check(f, tokens0.ravel(), 1e-6) <= 1e-4


class TestConditioningSequenceType:
    def test_requires_three_dims(self):
        with pytest.raises(ShapeError):
            ConditionFile(np.zeros((2, 3)))

    def test_pooling_param_shapes_validated(self):
        with pytest.raises(ShapeError):
            PoolingParams(local_proj=np.zeros((3, 4)),
                          local_score=np.zeros(2),
                          cross_left=np.zeros((2, 4)),
                          cross_right=np.zeros((2, 4)))
