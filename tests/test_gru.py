import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from busarrival import gru
from busarrival.gru import GruParams, gru_backward, gru_forward, gru_size, init_gru
from busarrival.numkit import ONE, finite_diff_grad, make_rng, sigmoid


def step(p, h_prev, u):
    """One GRU step on vectors: a T = 1, B = 1 chain whose input is all
    context, so that backward returns the input gradient too."""
    states, cache = gru_forward(p, h_prev[:, None], np.zeros((1, 0, 1)),
                                ctx=u[:, None])
    return states[0, :, 0], cache


def step_backward(p, cache, dh):
    """(parameter gradients, dL/dh_prev, dL/du) of a :func:`step`."""
    g, dh_prev, du = gru_backward(p, cache, dh[None, :, None])
    return g, dh_prev[:, 0], du[:, 0]


def gate(cache, name):
    return getattr(cache, name)[0, :, 0]


def with_ones_row(xs):
    """``xs`` (T, D_x, B) with a constant row of ones appended to each
    step's input: the weight column that reads it is a gate bias, so the
    affine cases of the tests below check what a bias would compute."""
    return np.concatenate([xs, np.ones((xs.shape[0], 1, xs.shape[2]))], axis=1)


def zero_gru(hidden, inp):
    p = init_gru(make_rng(0), hidden, inp)
    for v in p.as_dict().values():
        v[...] = 0.0
    return p


class TestForward:
    def test_zero_weights_halve_state(self):
        p = zero_gru(5, 3)
        h_prev = make_rng(1).normal(size=5)
        h, cache = step(p, h_prev, np.ones(3))
        npt.assert_array_equal(gate(cache, "z"), np.full(5, 0.5))
        npt.assert_array_equal(gate(cache, "r"), np.full(5, 0.5))
        npt.assert_array_equal(gate(cache, "h_tilde"), np.zeros(5))
        npt.assert_array_equal(h, 0.5 * h_prev)

    def test_zero_state_zero_weights(self):
        p = zero_gru(4, 2)
        h, _ = step(p, np.zeros(4), make_rng(2).normal(size=2))
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
        h, _ = step(p, h_prev, u)
        npt.assert_array_equal(h, expect)
        naive = (1.0 / (1.0 + np.exp(-(p.wz @ u + p.uz @ h_prev))) * h_prev
                 + (1.0 - 1.0 / (1.0 + np.exp(-(p.wz @ u + p.uz @ h_prev))))
                 * np.tanh(1.0 / (1.0 + np.exp(-(p.wr @ u + p.ur @ h_prev)))
                           * (p.u @ h_prev) + p.w @ u))
        npt.assert_allclose(h, naive, atol=1e-14)

    def test_dim_mismatch_raises(self):
        p = init_gru(make_rng(0), 4, 3)
        with pytest.raises(ValueError):
            step(p, np.zeros(4), np.zeros(2))
        with pytest.raises(ValueError):
            step(p, np.zeros(5), np.zeros(3))
        with pytest.raises(ValueError):
            gru_forward(p, np.zeros((4, 2)), np.zeros((1, 3, 5)))
        with pytest.raises(ValueError):
            gru_forward(p, np.zeros((4, 2)), np.zeros((1, 1, 2)),
                        ctx=np.zeros((2, 5)))
        with pytest.raises(ValueError):
            gru_forward(p, np.zeros(4), np.zeros((1, 3, 1)))

    def test_deterministic(self):
        rng = make_rng(4)
        p = init_gru(rng, 6, 2)
        h_prev, u = rng.normal(size=6), rng.normal(size=2)
        h1, _ = step(p, h_prev, u)
        h2, _ = step(p, h_prev, u)
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
                h, c = step(p, h_prev, u)
                z, r, h_tilde = gate(c, "z"), gate(c, "r"), gate(c, "h_tilde")
                assert np.all((z > 0) & (z < 1))
                assert np.all((r > 0) & (r < 1))
                assert np.all((h_tilde > -1) & (h_tilde < 1))
                lo = np.minimum(h_prev, h_tilde)
                hi = np.maximum(h_prev, h_tilde)
                assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)
                checked += 1
        assert checked == 1000


class TestBackward:
    def test_zero_dh_gives_zero_grads(self):
        rng = make_rng(5)
        p = init_gru(rng, 4, 3)
        _, cache = step(p, rng.normal(size=4), rng.normal(size=3))
        g, dh_prev, du = step_backward(p, cache, np.zeros(4))
        for v in g.as_dict().values():
            npt.assert_array_equal(v, np.zeros_like(v))
        npt.assert_array_equal(dh_prev, np.zeros(4))
        npt.assert_array_equal(du, np.zeros(3))

    def test_zero_weights_pass_half_gradient(self):
        p = zero_gru(4, 3)
        rng = make_rng(6)
        _, cache = step(p, rng.normal(size=4), rng.normal(size=3))
        dh = rng.normal(size=4)
        _, dh_prev, _ = step_backward(p, cache, dh)
        npt.assert_array_equal(dh_prev, 0.5 * dh)

    @pytest.mark.parametrize("hidden", [1, 4, 8])
    @pytest.mark.parametrize("inp", [1, 5])
    @pytest.mark.parametrize("affine", [False, True])
    def test_gradients_match_finite_differences(self, hidden, inp, affine):
        # >= 24 seeded configurations in total across the parametrization;
        # an affine step's input ends in a constant 1 (see with_ones_row)
        for seed in range(4):
            rng = make_rng(1000 * hidden + 10 * inp + seed)
            p = init_gru(rng, hidden, inp + affine)
            h_prev = rng.normal(size=hidden)
            u = rng.normal(size=inp)
            if affine:
                u = np.append(u, 1.0)
            h, cache = step(p, h_prev, u)
            g, dh_prev, du = step_backward(p, cache, h)  # loss = ||h||^2/2
            fd = finite_diff_grad(
                lambda _: 0.5 * float(np.sum(step(p, h_prev, u)[0] ** 2)), p.theta)
            rel = np.abs(g.theta - fd) / np.maximum(1.0, np.abs(fd))
            assert np.max(rel) < 1e-4

            fd_h = finite_diff_grad(
                lambda v: 0.5 * float(np.sum(step(p, v, u)[0] ** 2)),
                h_prev.copy())
            rel = np.abs(dh_prev - fd_h) / np.maximum(1.0, np.abs(fd_h))
            assert np.max(rel) < 1e-4
            fd_u = finite_diff_grad(
                lambda v: 0.5 * float(np.sum(step(p, h_prev, v)[0] ** 2)),
                u.copy())
            rel = np.abs(du - fd_u) / np.maximum(1.0, np.abs(fd_u))
            assert np.max(rel) < 1e-4

    def test_batched_agrees_with_per_vector(self):
        rng = make_rng(8)
        p = init_gru(rng, 5, 3)
        H = rng.normal(size=(5, 4))
        U = rng.normal(size=(3, 4))
        hb, cb = gru_forward(p, H, np.zeros((1, 0, 4)), ctx=U)
        dh = rng.normal(size=(5, 4))
        gb, dhp_b, du_b = gru_backward(p, cb, dh[None])
        acc = {k: np.zeros_like(v) for k, v in p.as_dict().items()}
        for i in range(4):
            h1, c1 = step(p, H[:, i], U[:, i])
            npt.assert_allclose(hb[0, :, i], h1, atol=1e-15)
            g1, dhp1, du1 = step_backward(p, c1, dh[:, i])
            npt.assert_allclose(dhp_b[:, i], dhp1, atol=1e-14)
            npt.assert_allclose(du_b[:, i], du1, atol=1e-14)
            for k, v in g1.as_dict().items():
                acc[k] += v
        for k, v in gb.as_dict().items():
            npt.assert_allclose(v, acc[k], atol=1e-13)

    def test_dh_shape_mismatch_raises(self):
        rng = make_rng(9)
        p = init_gru(rng, 4, 3)
        _, cache = step(p, rng.normal(size=4), rng.normal(size=3))
        with pytest.raises(ValueError):
            step_backward(p, cache, np.zeros(5))


def reference_chain(p, h0, xs, ctx, reverse, dstates):
    """Oracle: a per-step unroll of the six-matrix equations in the gru
    module docstring, with per-step BPTT. Returns the states (T, H, B), the
    parameter gradients by name, dL/dh0 and dL/dctx."""
    n = len(xs)
    order = list(range(n - 1, -1, -1) if reverse else range(n))
    states, steps = [None] * n, {}
    h = h0
    for t in order:
        u = xs[t] if ctx is None else np.concatenate([xs[t], ctx])
        z = 1.0 / (1.0 + np.exp(-(p.wz @ u + p.uz @ h)))
        r = 1.0 / (1.0 + np.exp(-(p.wr @ u + p.ur @ h)))
        uh = p.u @ h
        h_tilde = np.tanh(p.w @ u + r * uh)
        steps[t] = (u, h, z, r, uh, h_tilde)
        h = z * h + (1.0 - z) * h_tilde
        states[t] = h
    grads = {k: np.zeros_like(v) for k, v in p.as_dict().items()}
    dh = np.zeros_like(h0)
    du = 0.0
    for t in reversed(order):
        u, h_prev, z, r, uh, h_tilde = steps[t]
        dh = dh + dstates[t]
        da_z = dh * (h_prev - h_tilde) * z * (1.0 - z)
        da_h = dh * (1.0 - z) * (1.0 - h_tilde ** 2)
        da_r = da_h * uh * r * (1.0 - r)
        for name, da, back in (("z", da_z, da_z), ("r", da_r, da_r),
                               ("", da_h, da_h * r)):
            grads["w" + name] += da @ u.T
            grads["u" + name] += back @ h_prev.T
        du = du + p.wz.T @ da_z + p.wr.T @ da_r + p.w.T @ da_h
        dh = (dh * z + p.uz.T @ da_z + p.ur.T @ da_r + p.u.T @ (da_h * r))
    dctx = None if ctx is None else du[xs.shape[1]:]
    return np.stack(states), grads, dh, dctx


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("steps", [1, 7, 31])
@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("with_ctx", [False, True])
def test_sequence_kernel_matches_per_step_oracle(steps, batch, reverse,
                                                 affine, with_ctx):
    rng = make_rng(100 * steps + batch)
    hidden, d_x, d_ctx = 5, 3, 4 if with_ctx else 0
    p = init_gru(rng, hidden, d_x + affine + d_ctx)
    for v in p.as_dict().values():
        v += rng.normal(scale=0.3, size=v.shape)
    h0 = rng.normal(size=(hidden, batch))
    xs = rng.normal(size=(steps, d_x, batch))
    if affine:
        xs = with_ones_row(xs)
    ctx = rng.normal(size=(d_ctx, batch)) if with_ctx else None
    dstates = rng.normal(size=(steps, hidden, batch))

    states, cache = gru_forward(p, h0, xs, ctx=ctx, reverse=reverse)
    g, dh0, dctx = gru_backward(p, cache, dstates)
    want_states, want_g, want_dh0, want_dctx = reference_chain(
        p, h0, xs, ctx, reverse, dstates)

    assert_rel_close(states, want_states)
    for name, v in g.as_dict().items():
        assert_rel_close(v, want_g[name])
    assert set(g.as_dict()) == set(want_g)
    assert_rel_close(dh0, want_dh0)
    if with_ctx:
        assert_rel_close(dctx, want_dctx)
    else:
        assert dctx is None


@pytest.mark.parametrize("steps", [1, 7, 31])
@pytest.mark.parametrize("batch", [1, 32, 240])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("with_ctx", [False, True])
def test_forward_only_states_match_training_states(steps, batch, reverse,
                                                   affine, with_ctx):
    rng = make_rng(100 * steps + batch)
    hidden, d_x, d_ctx = 5, 3, 4 if with_ctx else 0
    p = init_gru(rng, hidden, d_x + affine + d_ctx)
    for v in p.as_dict().values():
        v += rng.normal(scale=0.3, size=v.shape)
    h0 = rng.normal(size=(hidden, batch))
    xs = rng.normal(size=(steps, d_x, batch))
    if affine:
        xs = with_ones_row(xs)
    ctx = rng.normal(size=(d_ctx, batch)) if with_ctx else None
    want, _ = gru_forward(p, h0, xs, ctx=ctx, reverse=reverse)
    got, cache = gru_forward(p, h0, xs, ctx=ctx, reverse=reverse,
                             keep_cache=False)
    assert cache is None
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, gru._scratch.buf)


def indexed_chain(p, h0, xs, ctx, reverse, dstates):
    """The kernel as it ran with per-step indexing and ``np.matmul(out=)``
    products, in fresh arrays: the states in input order with h0 where the
    chain starts (T+1, H, B), the gate block, the weight gradients, dL/dh0
    and dL/dctx. Every numpy call is the kernel's, in its order."""
    n, d, b = xs.shape
    hid = p.hidden_size
    gates = np.matmul(p.w_stack[:, :d], xs)
    if ctx is not None:
        gates += p.w_stack[:, d:] @ ctx
    hs = np.empty((n + 1, hid, b))
    hs[n if reverse else 0] = h0
    rec = np.empty((3 * hid, b))
    out = 0 if reverse else 1
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h_prev, h, g = hs[t + 1 - out], hs[t + out], gates[t]
        np.matmul(p.u_stack, h_prev, out=rec)
        zr = g[:2 * hid]
        zr += rec[:2 * hid]
        sigmoid(zr, out=zr)
        rec[2 * hid:] *= zr[hid:]
        cand = g[2 * hid:]
        cand += rec[2 * hid:]
        np.tanh(cand, out=cand)
        z = zr[:hid]
        np.multiply(z, h_prev, out=h)
        np.subtract(ONE, z, out=rec[:hid])
        rec[:hid] *= cand
        h += rec[:hid]

    z, r, h_tilde = gates[:, :hid], gates[:, hid:2 * hid], gates[:, 2 * hid:]
    h_prev = hs[1:] if reverse else hs[:-1]
    delta = np.empty((n, 3 * hid, b))
    dcand, dh_all, tmp = (np.empty((n, hid, b)) for _ in range(3))
    gate_delta = delta.reshape(n, 3, hid, b)
    d_z, d_r, d_cand = gate_delta[:, 0], gate_delta[:, 1], gate_delta[:, 2]
    np.subtract(1.0, z, out=dcand)
    np.subtract(h_prev, h_tilde, out=d_z)
    d_z *= z
    d_z *= dcand
    np.multiply(h_tilde, h_tilde, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    dcand *= tmp
    np.matmul(p.u_stack[2 * hid:], h_prev, out=d_r)
    d_r *= dcand
    np.subtract(1.0, r, out=tmp)
    tmp *= r
    d_r *= tmp
    np.multiply(dcand, r, out=d_cand)
    dh = np.zeros((hid, b))
    zdh = tmp[0]
    for t in (range(n) if reverse else range(n - 1, -1, -1)):
        dh_t = dh_all[t]
        np.add(dh, dstates[t], out=dh_t)
        gate_delta[t] *= dh_t
        np.multiply(dh_t, z[t], out=zdh)
        np.matmul(p.u_stack.T, delta[t], out=dh)
        dh += zdh
    g = GruParams(np.empty_like(p.theta), hid, p.input_size)
    np.dot(np.ascontiguousarray(delta.transpose(1, 0, 2)).reshape(3 * hid, n * b),
           np.ascontiguousarray(h_prev.transpose(0, 2, 1)).reshape(n * b, hid),
           out=g.u_stack)
    np.multiply(dh_all, dcand, out=d_cand)
    g.w_stack[:, :d] = np.matmul(delta, xs.transpose(0, 2, 1)).sum(axis=0)
    dctx = None
    if ctx is not None:
        delta_sum = delta.sum(axis=0)
        g.w_stack[:, d:] = delta_sum @ ctx.T
        dctx = p.w_stack[:, d:].T @ delta_sum
    return hs, gates, g, dh, dctx


@pytest.mark.parametrize("steps", [1, 7, 31])
@pytest.mark.parametrize("batch", [1, 2, 7, 32, 240])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("with_ctx", [False, True])
@pytest.mark.parametrize("keep_cache", [True, False])
def test_step_loops_match_indexed_loops(steps, batch, reverse, affine,
                                        with_ctx, keep_cache):
    # bitwise: the kernel's step loops against the per-step indexed form,
    # at the EDB decoder's sizes (H = 19, four inputs, a 39-row context)
    rng = make_rng(1000 * steps + batch)
    hidden, d_x, d_ctx = 19, 4, 39 if with_ctx else 0
    p = init_gru(rng, hidden, d_x + affine + d_ctx)
    p.theta += rng.normal(scale=0.3, size=p.theta.size)
    h0 = rng.normal(size=(hidden, batch))
    xs = rng.normal(size=(steps, d_x, batch))
    if affine:
        xs = with_ones_row(xs)
    ctx = rng.normal(size=(d_ctx, batch)) if with_ctx else None
    dstates = rng.normal(size=(steps, hidden, batch))
    hs, gates, want_g, want_dh0, want_dctx = indexed_chain(
        p, h0, xs, ctx, reverse, dstates)

    states, cache = gru_forward(p, h0, xs, ctx=ctx, reverse=reverse,
                                keep_cache=keep_cache)
    npt.assert_array_equal(states, hs[:-1] if reverse else hs[1:])
    if not keep_cache:
        assert cache is None
        return
    npt.assert_array_equal(cache.hs, hs)
    npt.assert_array_equal(cache.gates, gates)
    g, dh0, dctx = gru_backward(p, cache, dstates)
    npt.assert_array_equal(g.theta, want_g.theta)
    npt.assert_array_equal(dh0, want_dh0)
    if with_ctx:
        npt.assert_array_equal(dctx, want_dctx)
    else:
        assert dctx is None


@pytest.mark.parametrize("shapes, forward_only", [
    pytest.param(shapes, forward_only,
                 id=f"shapes{i}" + ("-forward_only" if forward_only else ""))
    for forward_only in (False, True)
    for i, shapes in enumerate((((7, 32), (3, 5)), ((4, 6), (4, 6))))])
@pytest.mark.parametrize("reverse", [False, True])
def test_interleaved_calls_match_fresh_calls(shapes, reverse, forward_only):
    # forward A, forward B, backward B, backward A on one GruParams, against
    # each batch run alone; (T, B) differ in the first case, not the second.
    # With forward_only, forward-only calls of A and B run between the
    # forwards and the backwards, in the work buffer backward uses.
    rng = make_rng(31)
    hidden, d_x, d_ctx = 5, 3, 4
    p = init_gru(rng, hidden, d_x + d_ctx)
    batches = [(rng.normal(size=(hidden, b)), rng.normal(size=(t, d_x, b)),
                rng.normal(size=(d_ctx, b)), rng.normal(size=(t, hidden, b)))
               for t, b in shapes]

    def fresh(h0, xs, ctx, dstates):
        states, cache = gru_forward(p, h0, xs, ctx=ctx, reverse=reverse)
        g, dh0, dctx = gru_backward(p, cache, dstates)
        return [a.copy() for a in (states, g.theta, dh0, dctx)]

    want = [fresh(*batch) for batch in batches]
    buf = gru._scratch.buf              # at its largest size from here on
    forwards = [gru_forward(p, h0, xs, ctx=ctx, reverse=reverse)
                for h0, xs, ctx, _ in batches]
    only = [gru_forward(p, h0, xs, ctx=ctx, reverse=reverse, keep_cache=False)
            for h0, xs, ctx, _ in batches] if forward_only else []
    backwards = {i: gru_backward(p, forwards[i][1], batches[i][3])
                 for i in (1, 0)}
    for (states, cache), expect in zip(only, want):
        assert cache is None
        assert states.tobytes() == expect[0].tobytes()
    got = [[forwards[i][0], backwards[i][0].theta, backwards[i][1],
            backwards[i][2], forwards[i][1].gates, forwards[i][1].hs]
           + ([only[i][0]] if forward_only else []) for i in (0, 1)]
    kept = [[a.copy() for a in arrays] for arrays in got]
    for batch in batches:
        fresh(*batch)
    assert gru._scratch.buf is buf
    for arrays, expect, before in zip(got, want, kept):
        for a, w in zip(arrays, expect):
            assert a.tobytes() == w.tobytes()
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(a, buf)


def test_threads_keep_their_own_work_buffers():
    # more threads than cores, switching often: a buffer shared between
    # threads would mix one chain's deltas into another's gradients
    rng = make_rng(41)
    p = init_gru(rng, 6, 5)
    jobs = [(rng.normal(size=(6, b)), rng.normal(size=(t, 5, b)),
             rng.normal(size=(t, 6, b))) for t, b in ((9, 8), (4, 3), (12, 5))]

    def run(job):
        # forward-only calls in both directions between a training call's
        # forward and backward, on the thread's cached step views
        h0, xs, dstates = job
        _, cache = gru_forward(p, h0, xs)
        only = [gru_forward(p, h0, xs, reverse=reverse, keep_cache=False)[0]
                for reverse in (False, True)]
        g, dh0, _ = gru_backward(p, cache, dstates)
        return b"".join(a.tobytes() for a in (g.theta, dh0, *only))

    want = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(run, jobs * 40, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 40


def cached_arrays(entry):
    if isinstance(entry, np.ndarray):
        yield entry
    else:
        for item in entry:
            yield from cached_arrays(item)


@pytest.mark.parametrize("reverse", [False, True])
def test_forward_only_views_follow_the_regrown_buffer(reverse):
    # B = 1, then 240, which regrows the work buffer, then 1 twice: a thread
    # of its own starts with no buffer. Views cached before the regrow point
    # into the old buffer and must be dropped with it; the last call reuses
    # the views the one before made.
    rng = make_rng(53)
    hidden, d_x, d_ctx, steps = 5, 3, 4, 7
    p = init_gru(rng, hidden, d_x + d_ctx)
    chains = [(rng.normal(size=(hidden, b)), rng.normal(size=(steps, d_x, b)),
               rng.normal(size=(d_ctx, b))) for b in (1, 240, 1, 1)]

    def run():
        got, entries = [], []
        for h0, xs, ctx in chains:
            want, _ = gru_forward(p, h0, xs, ctx=ctx, reverse=reverse)
            states, cache = gru_forward(p, h0, xs, ctx=ctx, reverse=reverse,
                                        keep_cache=False)
            assert cache is None
            got.append((states.tobytes(), want.tobytes()))
            entries.append(gru._scratch.chains[steps, hidden, xs.shape[2],
                                                 reverse])
        buf = gru._scratch.buf
        shared = [np.shares_memory(a, buf)
                  for entry in gru._scratch.chains.values()
                  for a in cached_arrays(entry)]
        return got, entries, sorted(gru._scratch.chains), shared

    with ThreadPoolExecutor(max_workers=1) as pool:
        got, entries, keys, shared = pool.submit(run).result(timeout=60)
    for states, want in got:
        assert states == want
    assert entries[3] is entries[2] and entries[2] is not entries[0]
    assert keys == [(steps, hidden, 1, reverse), (steps, hidden, 240, reverse)]
    assert shared and all(shared)


def test_stacked_gates_are_views():
    p = init_gru(make_rng(3), 4, 3)
    p.ur[1, 2] = 7.0
    assert p.u_stack[5, 2] == 7.0
    assert p.w_stack.shape == (12, 3) and p.u_stack.shape == (12, 4)
    p.theta[...] = np.arange(p.theta.size)
    assert p.wz[0, 0] == 0 and p.u_stack[0, 0] == 36 and p.u[-1, -1] == p.theta.size - 1


def test_param_count_and_validate():
    p = init_gru(make_rng(0), 4, 3)
    assert gru_size(4, 3) == p.theta.size == 3 * 4 * 3 + 3 * 4 * 4
    with pytest.raises(ValueError):
        GruParams(np.zeros(p.theta.size - 1), 4, 3)
    with pytest.raises(ValueError):
        GruParams(np.zeros(p.theta.size), 3, 4)


def test_forward_only_view_cache_is_bounded():
    # more widths than the cap, widest first so the work buffer never
    # regrows: the cache is emptied when full, and states stay bitwise those
    # of the training path
    rng = make_rng(59)
    hidden, d_x, steps = 3, 2, 4
    p = init_gru(rng, hidden, d_x)
    widths = range(gru.MAX_CHAIN_VIEWS + 9, 0, -1)

    def run():
        sizes, same = [], []
        for b in widths:
            h0, xs = rng.normal(size=(hidden, b)), rng.normal(size=(steps, d_x, b))
            want, _ = gru_forward(p, h0, xs)
            got, _ = gru_forward(p, h0, xs, keep_cache=False)
            same.append(got.tobytes() == want.tobytes())
            sizes.append(len(gru._scratch.chains))
        return sizes, same

    with ThreadPoolExecutor(max_workers=1) as pool:
        sizes, same = pool.submit(run).result(timeout=60)
    assert all(same)
    assert sizes == [*range(1, gru.MAX_CHAIN_VIEWS + 1), *range(1, 10)]
