"""GRU sequence kernel with exact hand-derived gradients.

State update per step, from ``h_prev`` (``h0`` before the first step):

    z = sigmoid(Wz u + Uz h_prev + bz)
    r = sigmoid(Wr u + Ur h_prev + br)
    h_tilde = tanh(W u + r * (U h_prev) + b)
    h = z * h_prev + (1 - z) * h_tilde

Biases are optional and off by default. A step's input is ``u = [xs[t];
ctx]``: that step's data, then an optional context shared by every step
(the decoders append e_a to each section's inputs). A chain consumes
``xs`` first to last, or last to first with ``reverse=True``.

The kernel runs whole chains (Appleyard, Kocisky & Blunsom,
arXiv:1604.01946). :class:`GruParams` stacks the gates: ``w_stack``
(3H x D) holds rows [Wz; Wr; W], ``u_stack`` (3H x H) [Uz; Ur; U],
``b_stack`` [bz; br; b]; all three are views into one flat vector
``theta``, and the nine named arrays, row views into them made when read,
name each gate's blocks in ``params()``. The input projections of all steps
are one batched product and ``W_ctx ctx`` is computed once per chain.
Each step makes only in-place numpy calls into buffers allocated once per
call: one ``u_stack @ h_prev`` product into a (3H, B) buffer forward and
one ``u_stack.T @ delta`` into ``dh`` back, with the gate activations
(``sigmoid(x, out=x)``, ``tanh``) written over their pre-activations. z, r
and h_tilde live in the (T, 3H, B) projection block, which is the cache,
and ``h_prev`` is read from the states array. Backward's work blocks come
from one grow-only buffer per thread, reused rather than re-allocated each
call (:func:`_scratch_blocks`), and so does the projection block of a
forward-only call (``keep_cache=False``), which keeps no cache; the states,
a kept cache, dL/dh0, dL/dctx and the weight gradients never do.
Backward writes the weight gradients into a GruParams laid out as the
weights, so a caller can hand it views into its own flat gradient vector.
Weight gradients are single contractions over steps and batch. The only
input gradient is the one on ``ctx``, ``W_ctx^T sum_t delta_t``: the
per-step inputs are data.

Arrays are column batches: ``xs`` is (T, D_x, B), ``h0`` (H, B), ``ctx``
(C, B) with D_x + C = D, the states (T, H, B), ``states[t]`` being the
state after consuming ``xs[t]`` in either direction. Weight gradients are
summed over the batch, so scaled upstream gradients give mean-loss ones.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .numkit import ONE, sigmoid, xavier_uniform


# the named gate views of each stack in GruParams.w_stack, u_stack, b_stack
_GATE_NAMES = (("wz", "wr", "w"), ("uz", "ur", "u"), ("bz", "br", "b"))

# per thread, because threads may run chains at once (train_bank's pool);
# not per GruParams, which would keep a buffer alive in every trained model
_scratch = threading.local()


def _scratch_blocks(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Contiguous blocks of the given shapes, carved one after another out
    of this thread's grow-only work buffer; they hold garbage and are
    overwritten by the thread's next call."""
    sizes = [math.prod(s) for s in shapes]
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < sum(sizes):
        buf = _scratch.buf = np.empty(sum(sizes))
    starts = itertools.accumulate(sizes, initial=0)
    return [buf[i:i + n].reshape(s) for i, n, s in zip(starts, sizes, shapes)]


def gru_size(hidden: int, inp: int, use_bias: bool = False) -> int:
    """Parameter count of a GRU: three gates of (input + hidden [+ 1]) columns."""
    return 3 * hidden * (inp + hidden + (1 if use_bias else 0))


class GruParams:
    """GRU weights as views into one flat vector ``theta``, which holds
    ``w_stack``, ``u_stack`` and ``b_stack`` one after another, gate blocks
    stacked row-wise as [z; r; candidate]."""

    def __init__(self, theta: np.ndarray, hidden: int, inp: int,
                 use_bias: bool = False):
        size = gru_size(hidden, inp, use_bias)
        if theta.shape != (size,):
            raise ValueError(f"GRU({hidden}, {inp}, use_bias={use_bias}) has {size} "
                             f"parameters, not shape {theta.shape}")
        self.theta = theta
        n_w, n_u = 3 * hidden * inp, 3 * hidden * hidden
        self.w_stack = theta[:n_w].reshape(3 * hidden, inp)
        self.u_stack = theta[n_w:n_w + n_u].reshape(3 * hidden, hidden)
        self.b_stack = theta[n_w + n_u:] if use_bias else None

    def __getattr__(self, name: str):
        # the named gate views wz, wr, w, uz, ur, u, bz, br and b, made only
        # when read (None for biases the chain does not have)
        if name in itertools.chain(*_GATE_NAMES):
            return self.as_dict().get(name)
        raise AttributeError(name)

    @property
    def hidden_size(self) -> int:
        return self.u_stack.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_stack.shape[1]

    @property
    def use_bias(self) -> bool:
        return self.b_stack is not None

    def as_dict(self, prefix: str = "") -> dict:
        """The named gate views in order wz, wr, w, uz, ur, u[, bz, br, b]."""
        stacks = (self.w_stack, self.u_stack, self.b_stack)
        return {prefix + name: view for names, stack in zip(_GATE_NAMES, stacks)
                if stack is not None
                for name, view in zip(names, np.split(stack, 3))}

    def param_count(self) -> int:
        return self.theta.size


def init_gru(rng: np.random.Generator, hidden: int, inp: int,
             use_bias: bool = False) -> GruParams:
    """Glorot-uniform GRU parameters, biases zero when enabled."""
    p = GruParams(np.zeros(gru_size(hidden, inp, use_bias)), hidden, inp, use_bias)
    for stack, cols in ((p.w_stack, inp), (p.u_stack, hidden)):
        for mat in np.split(stack, 3):
            mat[...] = xavier_uniform(rng, hidden, cols)
    return p


@dataclass
class GruCache:
    """Forward intermediates of one chain, read by :func:`gru_backward`."""

    xs: np.ndarray
    ctx: np.ndarray | None
    gates: np.ndarray   # (T, 3H, B): z, r, h_tilde per step
    hs: np.ndarray      # (T+1, H, B): states in input order, h0 where the chain starts
    reverse: bool

    @property
    def states(self) -> np.ndarray:
        return self.hs[:-1] if self.reverse else self.hs[1:]

    @property
    def h_prev(self) -> np.ndarray:
        return self.hs[1:] if self.reverse else self.hs[:-1]

    @property
    def z(self) -> np.ndarray:
        return self.gates[:, :self.hs.shape[1]]

    @property
    def r(self) -> np.ndarray:
        h = self.hs.shape[1]
        return self.gates[:, h:2 * h]

    @property
    def h_tilde(self) -> np.ndarray:
        return self.gates[:, 2 * self.hs.shape[1]:]


def gru_forward(params: GruParams, h0: np.ndarray, xs: np.ndarray,
                ctx: np.ndarray | None = None, reverse: bool = False,
                keep_cache: bool = True) -> tuple[np.ndarray, GruCache | None]:
    """Run one chain from ``h0``; returns the states (T, H, B) and the cache,
    or None with ``keep_cache=False``, which runs the gates in this thread's
    work buffer for a pass that is not backpropagated."""
    if xs.ndim != 3 or h0.ndim != 2:
        raise ValueError("inputs must be (T, D, B) and the state (H, B)")
    n, d, b = xs.shape
    hid = params.hidden_size
    if d + (0 if ctx is None else ctx.shape[0]) != params.input_size:
        raise ValueError(f"input size {d} plus context != expected {params.input_size}")
    if h0.shape[0] != hid:
        raise ValueError(f"state size {h0.shape[0]} != expected {hid}")
    if h0.shape[1] != b or (ctx is not None and ctx.shape[1:] != (b,)):
        raise ValueError("inputs, context and state must have matching batch shape")
    gates = np.matmul(params.w_stack[:, :d], xs, out=None if keep_cache else
                      _scratch_blocks((n, 3 * hid, b))[0])
    if ctx is not None:
        gates += params.w_stack[:, d:] @ ctx
    if params.use_bias:
        gates += params.b_stack[:, None]
    hs = np.empty((n + 1, hid, b))
    hs[n if reverse else 0] = h0
    rec = np.empty((3 * hid, b))
    rec_z, rec_zr, rec_cand = rec[:hid], rec[:2 * hid], rec[2 * hid:]
    u_stack = params.u_stack
    out = 0 if reverse else 1       # hs[t + out] is the state after step t
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h_prev, h, g = hs[t + 1 - out], hs[t + out], gates[t]
        np.matmul(u_stack, h_prev, out=rec)
        zr = g[:2 * hid]
        zr += rec_zr
        sigmoid(zr, out=zr)
        rec_cand *= zr[hid:]
        cand = g[2 * hid:]
        cand += rec_cand
        np.tanh(cand, out=cand)
        z = zr[:hid]
        np.multiply(z, h_prev, out=h)
        np.subtract(ONE, z, out=rec_z)
        rec_z *= cand
        h += rec_z
    return hs[out:n + out], (GruCache(xs=xs, ctx=ctx, gates=gates, hs=hs,
                                      reverse=reverse) if keep_cache else None)


def gru_backward(params: GruParams, cache: GruCache, dstates: np.ndarray,
                 out: GruParams | None = None
                 ) -> tuple[GruParams, np.ndarray, np.ndarray | None]:
    """Exact BPTT through a chain run by :func:`gru_forward`.

    ``dstates[t]`` is the loss gradient on ``states[t]``. Returns the
    parameter gradients summed over steps and batch, written into ``out``
    (laid out as ``params``; a new one when None), dL/dh0 and dL/dctx (None
    for a chain without context).
    """
    if dstates.shape != cache.states.shape:
        raise ValueError(f"dstates shape {dstates.shape} != states shape "
                         f"{cache.states.shape}")
    if out is None:
        out = GruParams(np.empty_like(params.theta), params.hidden_size,
                        params.input_size, params.use_bias)
    n, hid, b = dstates.shape
    z, r, h_tilde, h_prev = cache.z, cache.r, cache.h_tilde, cache.h_prev
    # per gate and step, dL/d(pre-activation) = dL/dh * delta, built in place;
    # the candidate rows hold the gradient on U h_prev until the loop ends,
    # then the one on the input projection, which lacks the factor r
    delta, dcand, dh_all, tmp, delta_t = _scratch_blocks(
        (n, 3 * hid, b), (n, hid, b), (n, hid, b), (n, hid, b), (3 * hid, n, b))
    gate_delta = delta.reshape(n, 3, hid, b)
    d_z, d_r, d_cand = gate_delta[:, 0], gate_delta[:, 1], gate_delta[:, 2]
    np.subtract(1.0, z, out=dcand)
    np.subtract(h_prev, h_tilde, out=d_z)
    d_z *= z
    d_z *= dcand
    np.multiply(h_tilde, h_tilde, out=tmp)      # tanh' = 1 - h_tilde^2
    np.subtract(1.0, tmp, out=tmp)
    dcand *= tmp
    np.matmul(params.u_stack[2 * hid:], h_prev, out=d_r)
    d_r *= dcand
    np.subtract(1.0, r, out=tmp)                # sigmoid' = r (1 - r)
    tmp *= r
    d_r *= tmp
    np.multiply(dcand, r, out=d_cand)
    dh = np.zeros((hid, b))
    zdh = tmp[0]
    u_t = params.u_stack.T
    for t in (range(n) if cache.reverse else range(n - 1, -1, -1)):
        dh_t = dh_all[t]
        np.add(dh, dstates[t], out=dh_t)
        gate_delta[t] *= dh_t
        np.multiply(dh_t, z[t], out=zdh)
        np.matmul(u_t, delta[t], out=dh)
        dh += zdh
    # the contraction over steps and batch as one product of (3H, T B) by
    # (T B, H) copies, which is what np.tensordot does in fresh arrays
    h_prev_t = tmp.reshape(n, b, hid)
    np.copyto(delta_t, delta.transpose(1, 0, 2))
    np.copyto(h_prev_t, h_prev.transpose(0, 2, 1))
    np.dot(delta_t.reshape(3 * hid, n * b), h_prev_t.reshape(n * b, hid),
           out=out.u_stack)
    np.multiply(dh_all, dcand, out=d_cand)
    d = cache.xs.shape[1]
    g_w = out.w_stack
    g_w[:, :d] = np.matmul(delta, cache.xs.transpose(0, 2, 1)).sum(axis=0)
    delta_sum = delta.sum(axis=0)
    dctx = None
    if cache.ctx is not None:
        g_w[:, d:] = delta_sum @ cache.ctx.T
        dctx = params.w_stack[:, d:].T @ delta_sum
    if params.use_bias:
        out.b_stack[...] = delta_sum.sum(axis=1)
    return out, dh, dctx
