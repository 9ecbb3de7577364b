import warnings

import numpy as np
import numpy.testing as npt
import pytest

from busarrival import numkit


class TestSigmoid:
    def test_symmetry_point(self):
        npt.assert_array_equal(numkit.sigmoid(np.array([0.0])), [0.5])

    def test_saturation(self):
        assert abs(numkit.sigmoid(np.array([1e9]))[0] - 1.0) < 1e-12
        assert numkit.sigmoid(np.array([-1e9]))[0] >= 0.0
        assert np.all(np.isfinite(numkit.sigmoid(np.array([-1e308, 1e308]))))

    def test_derivative_at_zero_matches_finite_difference(self):
        h = 1e-6
        fd = (numkit.sigmoid(np.array([h])) - numkit.sigmoid(np.array([-h]))) / (2 * h)
        assert abs(fd[0] - 0.25) < 1e-8

    def test_complement_identity(self):
        x = numkit.make_rng(0).uniform(-50, 50, size=2000)
        npt.assert_allclose(numkit.sigmoid(x) + numkit.sigmoid(-x), 1.0,
                            atol=1e-12)

    def test_monotone(self):
        x = np.linspace(-30, 30, 5000)
        assert np.all(np.diff(numkit.sigmoid(x)) > 0)

    def test_branch_free_form_matches_masked_formula(self):
        x = np.linspace(-700, 700, 200_001)
        masked = np.empty_like(x)
        pos = x >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        masked[~pos] = ex / (1.0 + ex)
        got = numkit.sigmoid(x)
        assert np.all(got > 0)
        assert np.max(np.abs(got - masked) / masked) <= 1e-15


class TestSigmoidContract:
    def test_in_place_equals_fresh_bitwise(self):
        x = numkit.make_rng(3).uniform(-800, 800, size=(7, 33))
        fresh = numkit.sigmoid(x.copy())
        assert numkit.sigmoid(x, out=x) is x
        assert x.tobytes() == fresh.tobytes()

    def test_scalar_and_zero_d_inputs(self):
        # x >= 0 takes the 1 / (1 + exp(-x)) form the branch-free one used
        assert numkit.sigmoid(0.0) == 0.5
        assert numkit.sigmoid(np.float64(2.0)) == 1.0 / (1.0 + np.exp(-2.0))
        assert numkit.sigmoid(np.array(3.0)) == 1.0 / (1.0 + np.exp(-3.0))
        e = np.exp(-1.5)
        assert abs(numkit.sigmoid(-1.5) - e / (1.0 + e)) <= 1e-15 * e / (1.0 + e)
        npt.assert_array_equal(numkit.sigmoid([0.0, 2.0, -1.5]),
                               numkit.sigmoid(np.array([0.0, 2.0, -1.5])))

    def test_extremes_finite_and_positive_under_error_filter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numkit.sigmoid(np.array([-1e308, 1e308]))
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        assert got[1] == 1.0

    def test_nothing_warns(self):
        x = np.concatenate([[-np.inf, -1e308, -746.0, -710.0, 0.0, 710.0,
                             1e308, np.inf], np.linspace(-800, 800, 1001)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            numkit.sigmoid(x)
            numkit.sigmoid(x.copy(), out=np.empty_like(x))
            for v in (-1e308, 0.0, 1e308):
                numkit.sigmoid(v)
                numkit.sigmoid(np.array(v))
        assert caught == []


def test_tanh_is_odd():
    x = numkit.make_rng(1).uniform(-20, 20, size=2000)
    npt.assert_allclose(np.tanh(-x), -np.tanh(x), atol=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        theta = np.array([1.0, -2.0, 3.0])
        state = numkit.init_adam(theta)
        numkit.adam_step(theta, np.zeros(3), state)
        npt.assert_array_equal(theta, [1.0, -2.0, 3.0])
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        for g in (0.5, -3.0, 1e4):
            theta = np.array([0.0])
            state = numkit.init_adam(theta, lr=1e-3)
            numkit.adam_step(theta, np.array([g]), state)
            expect = -1e-3 * g / (abs(g) + numkit.ADAM_EPS)
            npt.assert_allclose(theta, [expect], rtol=1e-12)

    def test_converges_on_quadratic(self):
        theta = np.array([0.0])
        state = numkit.init_adam(theta, lr=0.05)
        for _ in range(500):
            numkit.adam_step(theta, 2.0 * (theta - 3.0), state)
        assert abs(theta[0] - 3.0) < 0.05

    def test_scale_aware_first_step(self, monkeypatch):
        # with eps ~ 0 the first update magnitude is lr for any gradient scale
        monkeypatch.setattr(numkit, "ADAM_EPS", 1e-300)
        for g in (1e-6, 1.0, 1e6):
            theta = np.array([0.0])
            state = numkit.init_adam(theta, lr=0.01)
            numkit.adam_step(theta, np.array([g]), state)
            npt.assert_allclose(abs(theta[0]), 0.01, rtol=1e-9)

    def test_shape_mismatch_raises(self):
        theta = np.zeros(3)
        state = numkit.init_adam(theta)
        with pytest.raises(ValueError):
            numkit.adam_step(theta, np.zeros(4), state)
        with pytest.raises(ValueError):
            numkit.adam_step(np.zeros(4), np.zeros(4), state)


class TestRng:
    def test_equal_seeds_identical(self):
        a = numkit.make_rng(1234).uniform(size=64)
        b = numkit.make_rng(1234).uniform(size=64)
        npt.assert_array_equal(a, b)

    def test_unequal_seeds_differ_early(self):
        for s in (0, 1, 7, 42, 2**40):
            a = numkit.make_rng(s).uniform(size=16)
            b = numkit.make_rng(s + 1).uniform(size=16)
            assert np.any(a != b)

    def test_spawned_streams(self):
        a = numkit.spawn_rng(5, 2, 3).normal(size=8)
        b = numkit.spawn_rng(5, 2, 3).normal(size=8)
        c = numkit.spawn_rng(5, 2, 4).normal(size=8)
        npt.assert_array_equal(a, b)
        assert np.any(a != c)


class TestFiniteDiff:
    def test_quadratic(self):
        g = numkit.finite_diff_grad(lambda v: float(v[0] ** 2),
                                    np.array([3.0]), h=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant(self):
        g = numkit.finite_diff_grad(lambda v: 7.5, np.arange(4.0))
        npt.assert_array_equal(g, np.zeros(4))

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            numkit.finite_diff_grad(lambda v: float("nan"), np.zeros(2))

    def test_bad_step_raises(self):
        with pytest.raises(ValueError):
            numkit.finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)


def test_xavier_uniform_bounds():
    rng = numkit.make_rng(9)
    w = numkit.xavier_uniform(rng, 20, 30)
    limit = np.sqrt(6.0 / 50)
    assert w.shape == (20, 30)
    assert np.all(np.abs(w) <= limit)
    assert np.std(w) > 0

