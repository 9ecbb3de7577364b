import numpy as np
import numpy.testing as npt
import pytest

from busarrival.gru import GruParams, gru_backward, gru_forward, init_gru
from busarrival.numkit import (finite_diff_grad, flatten_params, make_rng,
                               sigmoid, write_flat_params)


def zero_gru(hidden, inp, use_bias=False):
    p = init_gru(make_rng(0), hidden, inp, use_bias)
    for v in p.as_dict().values():
        v[...] = 0.0
    return p


class TestForward:
    def test_zero_weights_halve_state(self):
        p = zero_gru(5, 3)
        h_prev = make_rng(1).normal(size=5)
        h, cache = gru_forward(p, h_prev, np.ones(3))
        npt.assert_array_equal(cache.z, np.full(5, 0.5))
        npt.assert_array_equal(cache.r, np.full(5, 0.5))
        npt.assert_array_equal(cache.h_tilde, np.zeros(5))
        npt.assert_array_equal(h, 0.5 * h_prev)

    def test_zero_state_zero_weights(self):
        p = zero_gru(4, 2)
        h, _ = gru_forward(p, np.zeros(4), make_rng(2).normal(size=2))
        npt.assert_array_equal(h, np.zeros(4))

    def test_matches_straight_line_transcription(self):
        # independent re-derivation of the cell wiring, written out flat;
        # reuses sigmoid (tested on its own) so the comparison is bit-exact
        rng = make_rng(11)
        p = init_gru(rng, 4, 3)
        h_prev = rng.normal(size=4)
        u = rng.normal(size=3)
        z = sigmoid(p.wz @ u + p.uz @ h_prev)
        r = sigmoid(p.wr @ u + p.ur @ h_prev)
        h_tilde = np.tanh(r * (p.u @ h_prev) + p.w @ u)
        expect = z * h_prev + (1.0 - z) * h_tilde
        h, _ = gru_forward(p, h_prev, u)
        npt.assert_array_equal(h, expect)
        naive = (1.0 / (1.0 + np.exp(-(p.wz @ u + p.uz @ h_prev))) * h_prev
                 + (1.0 - 1.0 / (1.0 + np.exp(-(p.wz @ u + p.uz @ h_prev))))
                 * np.tanh(1.0 / (1.0 + np.exp(-(p.wr @ u + p.ur @ h_prev)))
                           * (p.u @ h_prev) + p.w @ u))
        npt.assert_allclose(h, naive, atol=1e-14)

    def test_dim_mismatch_raises(self):
        p = init_gru(make_rng(0), 4, 3)
        with pytest.raises(ValueError):
            gru_forward(p, np.zeros(4), np.zeros(2))
        with pytest.raises(ValueError):
            gru_forward(p, np.zeros(5), np.zeros(3))
        with pytest.raises(ValueError):
            gru_forward(p, np.zeros((4, 2)), np.zeros((3, 5)))

    def test_deterministic(self):
        rng = make_rng(4)
        p = init_gru(rng, 6, 2)
        h_prev, u = rng.normal(size=6), rng.normal(size=2)
        h1, _ = gru_forward(p, h_prev, u)
        h2, _ = gru_forward(p, h_prev, u)
        npt.assert_array_equal(h1, h2)


class TestGateInvariants:
    def test_gate_range_and_convexity(self):
        # scales stay below float64 saturation (tanh rounds to exactly +/-1
        # for pre-activations beyond ~19)
        rng = make_rng(23)
        checked = 0
        for _ in range(40):
            p = init_gru(rng, 6, 4)
            for v in p.as_dict().values():
                v *= rng.uniform(0.5, 2.0)
            for _ in range(25):
                h_prev = rng.normal(scale=1.5, size=6)
                u = rng.normal(scale=1.5, size=4)
                h, c = gru_forward(p, h_prev, u)
                assert np.all((c.z > 0) & (c.z < 1))
                assert np.all((c.r > 0) & (c.r < 1))
                assert np.all((c.h_tilde > -1) & (c.h_tilde < 1))
                lo = np.minimum(h_prev, c.h_tilde)
                hi = np.maximum(h_prev, c.h_tilde)
                assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)
                checked += 1
        assert checked == 1000


class TestBackward:
    def test_zero_dh_gives_zero_grads(self):
        rng = make_rng(5)
        p = init_gru(rng, 4, 3)
        _, cache = gru_forward(p, rng.normal(size=4), rng.normal(size=3))
        g, dh_prev, du = gru_backward(p, cache, np.zeros(4))
        for v in g.as_dict().values():
            npt.assert_array_equal(v, np.zeros_like(v))
        npt.assert_array_equal(dh_prev, np.zeros(4))
        npt.assert_array_equal(du, np.zeros(3))

    def test_zero_weights_pass_half_gradient(self):
        p = zero_gru(4, 3)
        rng = make_rng(6)
        _, cache = gru_forward(p, rng.normal(size=4), rng.normal(size=3))
        dh = rng.normal(size=4)
        _, dh_prev, _ = gru_backward(p, cache, dh)
        npt.assert_array_equal(dh_prev, 0.5 * dh)

    @pytest.mark.parametrize("hidden", [1, 4, 8])
    @pytest.mark.parametrize("inp", [1, 5])
    @pytest.mark.parametrize("use_bias", [False, True])
    def test_gradients_match_finite_differences(self, hidden, inp, use_bias):
        # >= 24 seeded configurations in total across the parametrization
        for seed in range(4):
            rng = make_rng(1000 * hidden + 10 * inp + seed)
            p = init_gru(rng, hidden, inp, use_bias)
            h_prev = rng.normal(size=hidden)
            u = rng.normal(size=inp)
            h, cache = gru_forward(p, h_prev, u)
            g, dh_prev, du = gru_backward(p, cache, h)  # loss = ||h||^2/2
            params = p.as_dict()
            vec, layout = flatten_params(params)

            def f(v):
                write_flat_params(params, v, layout)
                hh, _ = gru_forward(p, h_prev, u)
                return 0.5 * float(np.sum(hh * hh))

            fd = finite_diff_grad(f, vec.copy())
            write_flat_params(params, vec, layout)
            analytic, _ = flatten_params(g.as_dict())
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            assert np.max(rel) < 1e-4

            fd_h = finite_diff_grad(
                lambda v: 0.5 * float(np.sum(gru_forward(p, v, u)[0] ** 2)),
                h_prev.copy())
            rel = np.abs(dh_prev - fd_h) / np.maximum(1.0, np.abs(fd_h))
            assert np.max(rel) < 1e-4
            fd_u = finite_diff_grad(
                lambda v: 0.5 * float(np.sum(gru_forward(p, h_prev, v)[0] ** 2)),
                u.copy())
            rel = np.abs(du - fd_u) / np.maximum(1.0, np.abs(fd_u))
            assert np.max(rel) < 1e-4

    def test_batched_agrees_with_per_vector(self):
        rng = make_rng(8)
        p = init_gru(rng, 5, 3)
        H = rng.normal(size=(5, 4))
        U = rng.normal(size=(3, 4))
        hb, cb = gru_forward(p, H, U)
        dh = rng.normal(size=(5, 4))
        gb, dhp_b, du_b = gru_backward(p, cb, dh)
        acc = p.zeros_like()
        for i in range(4):
            h1, c1 = gru_forward(p, H[:, i], U[:, i])
            npt.assert_allclose(hb[:, i], h1, atol=1e-15)
            g1, dhp1, du1 = gru_backward(p, c1, dh[:, i])
            npt.assert_allclose(dhp_b[:, i], dhp1, atol=1e-14)
            npt.assert_allclose(du_b[:, i], du1, atol=1e-14)
            for k, v in g1.as_dict().items():
                acc.as_dict()[k] += v
        for k, v in gb.as_dict().items():
            npt.assert_allclose(v, acc.as_dict()[k], atol=1e-13)

    def test_dh_shape_mismatch_raises(self):
        rng = make_rng(9)
        p = init_gru(rng, 4, 3)
        _, cache = gru_forward(p, rng.normal(size=4), rng.normal(size=3))
        with pytest.raises(ValueError):
            gru_backward(p, cache, np.zeros(5))


def test_param_count_and_validate():
    p = init_gru(make_rng(0), 4, 3)
    assert p.param_count() == 3 * 4 * 3 + 3 * 4 * 4
    p.validate()
    bad = GruParams(wz=np.zeros((4, 3)), wr=np.zeros((4, 3)), w=np.zeros((4, 3)),
                    uz=np.zeros((4, 4)), ur=np.zeros((3, 4)), u=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        bad.validate()
