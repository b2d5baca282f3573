import numpy as np
import pytest

from lunet.layers import ReLU
from lunet.tensor import Rng, check_shape, sigmoid


class TestCheckShape:
    def test_degenerate_dim_rejected(self):
        with pytest.raises(ValueError):
            check_shape([2, 0])

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            check_shape([2, 2, 2, 2])
        with pytest.raises(ValueError):
            check_shape([])


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(
            ReLU().forward(np.array([-1.0, 0.0, 2.0])), [0, 0, 2])

    def test_sigmoid_at_zero(self):
        np.testing.assert_array_equal(sigmoid(np.array([0.0])), [0.5])
        # edge and wide inputs, element by element against the two-branch
        # formula: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 745.0, -745.0,
                          709.8, -709.8, 5e-324, -5e-324])
        x = np.concatenate([edges] + [Rng(1).normal([200]) * k for k in (1, 10, 800)])
        got = sigmoid(x)
        for xi, gi in zip(x, got):
            one = np.array([xi])
            want = 1.0 / (1.0 + np.exp(-one)) if xi >= 0 else np.exp(one) / (1.0 + np.exp(one))
            np.testing.assert_array_equal([gi], want)

    def test_sigmoid_takes_float64_only(self):
        # it sets the sign bit of each element through a uint64 view
        with pytest.raises(TypeError, match="float32"):
            sigmoid(np.zeros(4, np.float32))

    def test_ranges(self):
        x = np.linspace(-30, 30, 201)
        assert np.all(ReLU().forward(x) >= 0)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))


class TestRng:
    def test_zero_std_gives_mean(self):
        out = Rng(1).normal([4], mean=2.5, std=0.0)
        np.testing.assert_array_equal(out, [2.5] * 4)

    def test_same_seed_identical(self):
        a = Rng(9).normal([3, 3], 0.0, 1.0)
        b = Rng(9).normal([3, 3], 0.0, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            Rng(1).normal([2], 0.0, -1.0)

    def test_law_of_large_numbers(self):
        draws = Rng(123).normal([100000], 0.0, 1.0)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02
