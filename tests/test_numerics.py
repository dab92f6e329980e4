import numpy as np
import pytest

from oracles import gelu, grad_check
from tempokit.errors import NumericError, ShapeError, ValidationError
from tempokit.numerics import Rng, gelu_grad, normal_cdf, softmax


class TestGelu:
    def test_zero(self):
        assert gelu(np.array(0.0)) == 0.0

    def test_saturation(self):
        assert abs(gelu(np.array(100.0)) - 100.0) < 1e-9

    def test_unit_value_against_normal_cdf(self):
        # Phi(1) = 0.8413447460685429 to 16 digits
        assert abs(gelu(np.array(1.0)) - 0.8413447461) < 1e-9

    def test_gradient_matches_finite_differences(self):
        x = np.linspace(-4, 4, 101)
        h = 1e-6
        numeric = (gelu(x + h) - gelu(x - h)) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x, normal_cdf(x)), numeric,
                                   atol=1e-8)


class TestSoftmax:
    def test_constant_input_is_uniform(self):
        np.testing.assert_allclose(softmax(np.array([2.5, 2.5, 2.5])),
                                   [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_single_entry(self):
        np.testing.assert_array_equal(softmax(np.array([42.0])), [1.0])

    def test_closed_form_pair(self):
        np.testing.assert_allclose(softmax(np.array([0.0, np.log(3.0)])),
                                   [0.25, 0.75], atol=1e-12)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValidationError):
            softmax(np.array([]))

    def test_scalar_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.float64(1.0))

    def test_each_row_of_a_stack_is_its_own_softmax(self):
        rows = np.random.default_rng(2).normal(size=(3, 5)) * 10
        stacked = softmax(rows)
        for row, got in zip(rows, stacked):
            assert got.tobytes() == softmax(row).tobytes()

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 20)) * 10
            p = softmax(v)
            assert abs(p.sum() - 1.0) < 1e-12
            shift = rng.normal() * 100
            np.testing.assert_allclose(p, softmax(v + shift), atol=1e-12)

    def test_large_inputs_stay_finite(self):
        p = softmax(np.array([1e4, 1e4 - 5.0]))
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) < 1e-12


class TestGradCheck:
    def test_square_function(self):
        def f(x):
            return float(x[0] ** 2), np.array([2.0 * x[0]])

        assert grad_check(f, np.array([3.0]), 1e-5) <= 1e-8

    def test_constant_function(self):
        def f(x):
            return 1.5, np.zeros_like(x)

        assert grad_check(f, np.array([0.3, -2.0]), 1e-5) == 0.0

    def test_wrong_gradient_detected(self):
        def f(x):
            return float(x[0] ** 2), np.array([2.5 * x[0]])

        assert grad_check(f, np.array([3.0]), 1e-5) > 0.1

    def test_non_finite_value_raises(self):
        def f(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(NumericError):
            grad_check(f, np.array([1.0]), 1e-5)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValidationError):
            grad_check(lambda x: (0.0, np.zeros_like(x)), np.zeros(1), 0.0)


class TestRng:
    def test_same_seed_reproduces_bytes(self):
        a = Rng(123).normal((64, 3))
        b = Rng(123).normal((64, 3))
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        assert Rng(1).normal(16).tobytes() != Rng(2).normal(16).tobytes()

    def test_derived_streams_are_independent(self):
        root = Rng(9)
        a = root.derive(1).normal(16)
        b = root.derive(2).normal(16)
        assert a.tobytes() != b.tobytes()
        # deriving again reproduces the same child stream
        np.testing.assert_array_equal(a, Rng(9).derive(1).normal(16))
