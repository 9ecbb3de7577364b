"""GRU sequence kernel with exact hand-derived gradients.

State update per step, from ``h_prev`` (``h0`` before the first step):

    z = sigmoid(Wz u + Uz h_prev)
    r = sigmoid(Wr u + Ur h_prev)
    h_tilde = tanh(W u + r * (U h_prev))
    h = z * h_prev + (1 - z) * h_tilde

A step's input is ``u = [xs[t]; ctx]``: that step's data, then an optional
context shared by every step (the decoders append e_a to each section's
inputs). A chain consumes ``xs`` first to last, or last to first with
``reverse=True``.

The kernel runs whole chains (Appleyard, Kocisky & Blunsom,
arXiv:1604.01946). :class:`GruParams` stacks the gates: ``w_stack``
(3H x D) holds rows [Wz; Wr; W] and ``u_stack`` (3H x H) [Uz; Ur; U];
both are views into one flat vector ``theta``, and the six named arrays,
row views into them made when read, name each gate's blocks in
``params()``. The input projections of all steps are one batched product
and ``W_ctx ctx`` is computed once per chain.
Each step makes only in-place numpy calls into buffers allocated once per
call (``np.dot(u_stack, h_prev, out)`` forward, ``np.dot(u_stack.T, delta,
out)`` back, the gate activations written over their pre-activations), and
a forward step's ``h_prev`` is the state view the step before wrote (h0's
row first): a one-column step costs what its numpy calls cost. z, r and
h_tilde live in the (T, 3H, B) projection block, which is the cache.
Backward's work blocks come from one grow-only buffer per thread, reused
rather than re-allocated each call (:func:`_scratch_blocks`), and so do the
projection block and ``rec`` of a forward-only call (``keep_cache=False``),
which keeps no cache and reuses its per-step views, made once per (T, H, B,
direction) and kept per thread, for up to ``MAX_CHAIN_VIEWS`` shapes (a new
shape past them evicts the oldest), until the buffer regrows. The buffer
keeps the size of the widest call the thread has run; ``seq2seq`` runs
forward-only chains in passes of ``seq2seq.PASS_COLS`` columns (a last one
up to 3 wider), which bounds it: 3.3 MB at most in a full-scale training
run, where whole 240-column validation blocks took it to 6.3 MB. The
states, a kept cache, dL/dh0, dL/dctx and the weight gradients never come
from it.
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


# the named gate views of each stack in GruParams.w_stack and u_stack
_GATE_NAMES = (("wz", "wr", "w"), ("uz", "ur", "u"))

# per thread, because threads may run chains at once (train_bank's pool);
# not per GruParams, which would keep a buffer alive in every trained model
_scratch = threading.local()
# forward-only shapes whose step views a thread keeps; a serve run uses ~24
MAX_CHAIN_VIEWS = 64


def _scratch_blocks(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Contiguous blocks of the given shapes, carved one after another out
    of this thread's grow-only work buffer; they hold garbage and are
    overwritten by the thread's next call."""
    sizes = [math.prod(s) for s in shapes]
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < sum(sizes):
        buf = _scratch.buf = np.empty(sum(sizes))
        _scratch.chains = {}    # views into the old buffer go with it
    starts = itertools.accumulate(sizes, initial=0)
    return [buf[i:i + n].reshape(s) for i, n, s in zip(starts, sizes, shapes)]


def gru_size(hidden: int, inp: int) -> int:
    """Parameter count of a GRU: three gates of (input + hidden) columns."""
    return 3 * hidden * (inp + hidden)


class GruParams:
    """GRU weights as views into one flat vector ``theta``, which holds
    ``w_stack`` and ``u_stack`` one after the other, gate blocks stacked
    row-wise as [z; r; candidate]."""

    def __init__(self, theta: np.ndarray, hidden: int, inp: int):
        size = gru_size(hidden, inp)
        if theta.shape != (size,):
            raise ValueError(f"GRU({hidden}, {inp}) has {size} parameters, "
                             f"not shape {theta.shape}")
        self.theta = theta
        n_w = 3 * hidden * inp
        self.w_stack = theta[:n_w].reshape(3 * hidden, inp)
        self.u_stack = theta[n_w:].reshape(3 * hidden, hidden)

    def __getattr__(self, name: str):
        # the named gate views wz, wr, w, uz, ur and u, made only when read
        if name in itertools.chain(*_GATE_NAMES):
            return self.as_dict()[name]
        raise AttributeError(name)

    @property
    def hidden_size(self) -> int:
        return self.u_stack.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_stack.shape[1]

    def as_dict(self, prefix: str = "") -> dict:
        """The named gate views in order wz, wr, w, uz, ur, u."""
        stacks = (self.w_stack, self.u_stack)
        return {prefix + name: view for names, stack in zip(_GATE_NAMES, stacks)
                for name, view in zip(names, np.split(stack, 3))}


def init_gru(rng: np.random.Generator, hidden: int, inp: int) -> GruParams:
    """Glorot-uniform GRU parameters."""
    p = GruParams(np.zeros(gru_size(hidden, inp)), hidden, inp)
    for stack, cols in ((p.w_stack, inp), (p.u_stack, hidden)):
        for mat in np.split(stack, 3):
            mat[...] = xavier_uniform(rng, hidden, cols)
    return p


@dataclass
class GruCache:
    """Forward intermediates of one chain, read by :func:`gru_backward`; the
    arrays after ``reverse`` are views into ``hs`` and ``gates``, indexed by
    step t in input order."""

    xs: np.ndarray
    ctx: np.ndarray | None
    gates: np.ndarray   # (T, 3H, B): z, r, h_tilde per step
    hs: np.ndarray      # (T+1, H, B): states in input order, h0 where the chain starts
    reverse: bool
    states: np.ndarray  # the state after step t
    h_prev: np.ndarray  # the state step t reads
    z: np.ndarray
    r: np.ndarray
    h_tilde: np.ndarray


def gru_forward(params: GruParams, h0: np.ndarray, xs: np.ndarray,
                ctx: np.ndarray | None = None, reverse: bool = False,
                keep_cache: bool = True) -> tuple[np.ndarray, GruCache | None]:
    """Run one chain from ``h0``; returns the states (T, H, B) and the cache,
    or None with ``keep_cache=False``, which runs the gates in this thread's
    work buffer for a pass that is not backpropagated."""
    if xs.ndim != 3 or h0.ndim != 2:
        raise ValueError("inputs must be (T, D, B) and the state (H, B)")
    n, d, b = xs.shape
    w_stack, u_stack = params.w_stack, params.u_stack
    hid = u_stack.shape[1]
    if d + (0 if ctx is None else ctx.shape[0]) != w_stack.shape[1]:
        raise ValueError(f"input size {d} plus context != expected {w_stack.shape[1]}")
    if h0.shape[0] != hid:
        raise ValueError(f"state size {h0.shape[0]} != expected {hid}")
    if h0.shape[1] != b or (ctx is not None and ctx.shape[1:] != (b,)):
        raise ValueError("inputs, context and state must have matching batch shape")
    if keep_cache:
        gates, rec = np.matmul(w_stack[:, :d], xs), np.empty((3 * hid, b))
        z, r, h_tilde = gates[:, :hid], gates[:, hid:2 * hid], gates[:, 2 * hid:]
        steps = (gates[:, :2 * hid], z, r, h_tilde)     # zipped in run order
        step_views = zip(*[a[::-1] for a in steps] if reverse else steps)
        rec_z, rec_zr, rec_cand = rec[:hid], rec[:2 * hid], rec[2 * hid:]
    else:   # the work blocks and step views of a shape, carved once per buffer
        key = (n, hid, b, reverse)
        if key not in getattr(_scratch, "chains", ()):
            gates, rec = _scratch_blocks((n, 3 * hid, b), (3 * hid, b))
            if len(_scratch.chains) >= MAX_CHAIN_VIEWS:
                # the oldest shape goes: in a one-thread train, an earlier bank's
                del _scratch.chains[next(iter(_scratch.chains))]
            steps = [(g[:2 * hid], *np.split(g, 3))
                     for g in (gates[::-1] if reverse else gates)]
            _scratch.chains[key] = (gates, rec, steps, rec[:hid], rec[:2 * hid],
                                    rec[2 * hid:])
        gates, rec, step_views, rec_z, rec_zr, rec_cand = _scratch.chains[key]
        np.matmul(w_stack[:, :d], xs, out=gates)
    if ctx is not None:
        gates += w_stack[:, d:] @ ctx
    hs = np.empty((n + 1, hid, b))
    h_prev = hs[n if reverse else 0]        # then the state the last step wrote
    h_prev[...] = h0
    states = hs[:-1] if reverse else hs[1:]
    # local names and a positional out, even for a += b: the lookup and the
    # keyword cost up to a fifth of a one-column call
    add, dot, multiply, subtract, tanh, sig = (np.add, np.dot, np.multiply,
                                               np.subtract, np.tanh, sigmoid)
    for h, (zr, z_t, r_t, cand) in zip(states[::-1] if reverse else states, step_views):
        dot(u_stack, h_prev, rec)
        add(zr, rec_zr, zr)
        sig(zr, zr)
        multiply(rec_cand, r_t, rec_cand)
        add(cand, rec_cand, cand)
        tanh(cand, cand)
        multiply(z_t, h_prev, h)
        subtract(ONE, z_t, rec_z)
        multiply(rec_z, cand, rec_z)
        add(h, rec_z, h)
        h_prev = h
    return states, (GruCache(xs, ctx, gates, hs, reverse, states,
                             hs[1:] if reverse else hs[:-1], z, r, h_tilde)
                    if keep_cache else None)


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
                        params.input_size)
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
    steps = (dh_all, dstates, gate_delta, z, delta)
    if not cache.reverse:       # last step first
        steps = [a[::-1] for a in steps]
    add, dot, multiply = np.add, np.dot, np.multiply
    for dh_t, dstate, gate_delta_t, z_t, delta_step in zip(*steps):
        add(dh, dstate, dh_t)
        multiply(gate_delta_t, dh_t, gate_delta_t)
        multiply(dh_t, z_t, zdh)
        dot(u_t, delta_step, dh)
        add(dh, zdh, dh)
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
    dctx = None
    if cache.ctx is not None:
        delta_sum = delta.sum(axis=0)
        g_w[:, d:] = delta_sum @ cache.ctx.T
        dctx = params.w_stack[:, d:].T @ delta_sum
    return out, dh, dctx
