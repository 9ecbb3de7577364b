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


def test_tanh_is_odd():
    x = numkit.make_rng(1).uniform(-20, 20, size=2000)
    npt.assert_allclose(np.tanh(-x), -np.tanh(x), atol=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = numkit.init_adam(params)
        numkit.adam_step(params, {"w": np.zeros(3)}, state)
        npt.assert_array_equal(params["w"], [1.0, -2.0, 3.0])
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        for g in (0.5, -3.0, 1e4):
            params = {"w": np.array([0.0])}
            state = numkit.init_adam(params, lr=1e-3)
            numkit.adam_step(params, {"w": np.array([g])}, state)
            expect = -1e-3 * g / (abs(g) + state.eps)
            npt.assert_allclose(params["w"], [expect], rtol=1e-12)

    def test_converges_on_quadratic(self):
        params = {"w": np.array([0.0])}
        state = numkit.init_adam(params, lr=0.05)
        for _ in range(500):
            grad = {"w": 2.0 * (params["w"] - 3.0)}
            numkit.adam_step(params, grad, state)
        assert abs(params["w"][0] - 3.0) < 0.05

    def test_scale_aware_first_step(self):
        # with eps ~ 0 the first update magnitude is lr for any gradient scale
        for g in (1e-6, 1.0, 1e6):
            params = {"w": np.array([0.0])}
            state = numkit.init_adam(params, lr=0.01, eps=1e-300)
            numkit.adam_step(params, {"w": np.array([g])}, state)
            npt.assert_allclose(abs(params["w"][0]), 0.01, rtol=1e-9)

    def test_shape_mismatch_raises(self):
        params = {"w": np.zeros(3)}
        state = numkit.init_adam(params)
        with pytest.raises(ValueError):
            numkit.adam_step(params, {"w": np.zeros(4)}, state)
        with pytest.raises(ValueError):
            numkit.adam_step({"x": np.zeros(3)}, {"x": np.zeros(3)}, state)


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


def test_flatten_roundtrip():
    rng = numkit.make_rng(3)
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
    vec, layout = numkit.flatten_params(params)
    assert vec.size == 10
    vec2 = vec * 2.0
    numkit.write_flat_params(params, vec2, layout)
    npt.assert_array_equal(params["a"].ravel(), vec2[:6])
    npt.assert_array_equal(params["b"], vec2[6:])
