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
``b_stack`` [bz; br; b]; the nine named arrays are row views into them,
so optimizer steps and checkpoints still see six matrices. The input
projections of all steps are one batched product and ``W_ctx ctx`` is
computed once per chain. Each step makes one ``u_stack @ h_prev`` product
forward and one ``u_stack.T @ delta`` back; z, r and h_tilde are computed
in place in the (T, 3H, B) projection block, which is the cache, and
``h_prev`` is read from the states array. Weight gradients are single
contractions over steps and batch. The only input gradient is the one on
``ctx``, ``W_ctx^T sum_t delta_t``: the per-step inputs are data.

Arrays are column batches: ``xs`` is (T, D_x, B), ``h0`` (H, B), ``ctx``
(C, B) with D_x + C = D, the states (T, H, B), ``states[t]`` being the
state after consuming ``xs[t]`` in either direction. Weight gradients are
summed over the batch, so scaled upstream gradients give mean-loss ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import dsigmoid_from_output, dtanh_from_output, sigmoid, xavier_uniform


class GruParams:
    """GRU weights, gate blocks stacked row-wise as [z; r; candidate]."""

    def __init__(self, wz, wr, w, uz, ur, u, bz=None, br=None, b=None):
        h, d = np.shape(wz)
        for name, mat, shape in (("wr", wr, (h, d)), ("w", w, (h, d)),
                                 ("uz", uz, (h, h)), ("ur", ur, (h, h)),
                                 ("u", u, (h, h))):
            if np.shape(mat) != shape:
                raise ValueError(f"{name} has shape {np.shape(mat)}, expected {shape}")
        biases = (bz, br, b)
        if any(v is not None for v in biases):
            for name, v in zip(("bz", "br", "b"), biases):
                if v is None or np.shape(v) != (h,):
                    raise ValueError(f"bias {name} must have shape ({h},)")
        self.w_stack = np.concatenate([wz, wr, w])
        self.u_stack = np.concatenate([uz, ur, u])
        self.b_stack = np.concatenate(biases) if bz is not None else None
        self.wz, self.wr, self.w = np.split(self.w_stack, 3)
        self.uz, self.ur, self.u = np.split(self.u_stack, 3)
        self.bz, self.br, self.b = (np.split(self.b_stack, 3) if bz is not None
                                    else (None, None, None))

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
        d = {prefix + "wz": self.wz, prefix + "wr": self.wr, prefix + "w": self.w,
             prefix + "uz": self.uz, prefix + "ur": self.ur, prefix + "u": self.u}
        if self.use_bias:
            d.update({prefix + "bz": self.bz, prefix + "br": self.br,
                      prefix + "b": self.b})
        return d

    def param_count(self) -> int:
        return sum(p.size for p in self.as_dict().values())


def init_gru(rng: np.random.Generator, hidden: int, inp: int,
             use_bias: bool = False) -> GruParams:
    """Glorot-uniform GRU parameters, biases zero when enabled."""
    mk = xavier_uniform
    biases = ({"bz": np.zeros(hidden), "br": np.zeros(hidden), "b": np.zeros(hidden)}
              if use_bias else {})
    return GruParams(
        wz=mk(rng, hidden, inp), wr=mk(rng, hidden, inp), w=mk(rng, hidden, inp),
        uz=mk(rng, hidden, hidden), ur=mk(rng, hidden, hidden),
        u=mk(rng, hidden, hidden), **biases)


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
                ctx: np.ndarray | None = None, reverse: bool = False
                ) -> tuple[np.ndarray, GruCache]:
    """Run one chain from ``h0``; returns the states (T, H, B) and the cache."""
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
    gates = np.matmul(params.w_stack[:, :d], xs)
    if ctx is not None:
        gates += params.w_stack[:, d:] @ ctx
    if params.use_bias:
        gates += params.b_stack[:, None]
    hs = np.empty((n + 1, hid, b))
    hs[n if reverse else 0] = h0
    out = 0 if reverse else 1       # hs[t + out] is the state after step t
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h_prev, h, g = hs[t + 1 - out], hs[t + out], gates[t]
        rec = params.u_stack @ h_prev
        zr = g[:2 * hid]
        zr += rec[:2 * hid]
        zr[...] = sigmoid(zr)
        cand = g[2 * hid:]
        cand += zr[hid:] * rec[2 * hid:]
        np.tanh(cand, out=cand)
        np.multiply(zr[:hid], h_prev, out=h)
        h += (1.0 - zr[:hid]) * cand
    cache = GruCache(xs=xs, ctx=ctx, gates=gates, hs=hs, reverse=reverse)
    return cache.states, cache


def gru_backward(params: GruParams, cache: GruCache, dstates: np.ndarray
                 ) -> tuple[GruParams, np.ndarray, np.ndarray | None]:
    """Exact BPTT through a chain run by :func:`gru_forward`.

    ``dstates[t]`` is the loss gradient on ``states[t]``. Returns the
    parameter gradients summed over steps and batch, dL/dh0 and dL/dctx
    (None for a chain without context).
    """
    if dstates.shape != cache.states.shape:
        raise ValueError(f"dstates shape {dstates.shape} != states shape "
                         f"{cache.states.shape}")
    n, hid, b = dstates.shape
    z, r, h_tilde, h_prev = cache.z, cache.r, cache.h_tilde, cache.h_prev
    # per gate and step, dL/d(pre-activation) = dL/dh * delta, built in place;
    # the candidate rows hold the gradient on U h_prev until the loop ends,
    # then the one on the input projection, which lacks the factor r
    delta = np.empty((n, 3, hid, b))
    d_z, d_r, d_cand = delta[:, 0], delta[:, 1], delta[:, 2]
    dcand = 1.0 - z
    np.subtract(h_prev, h_tilde, out=d_z)
    d_z *= z
    d_z *= dcand
    dcand *= dtanh_from_output(h_tilde)
    np.matmul(params.u, h_prev, out=d_r)
    d_r *= dcand
    d_r *= dsigmoid_from_output(r)
    np.multiply(dcand, r, out=d_cand)
    dh_all = np.empty_like(dstates)
    dh = np.zeros((hid, b))
    u_t = params.u_stack.T
    for t in (range(n) if cache.reverse else range(n - 1, -1, -1)):
        np.add(dh, dstates[t], out=dh_all[t])
        delta[t] *= dh_all[t]
        dh = dh_all[t] * z[t] + u_t @ delta[t].reshape(3 * hid, b)
    delta = delta.reshape(n, 3 * hid, b)
    g_u = np.tensordot(delta, h_prev, axes=([0, 2], [0, 2]))
    np.multiply(dh_all, dcand, out=d_cand)
    d = cache.xs.shape[1]
    g_w = np.empty_like(params.w_stack)
    g_w[:, :d] = np.matmul(delta, cache.xs.transpose(0, 2, 1)).sum(axis=0)
    delta_sum = delta.sum(axis=0)
    dctx = None
    if cache.ctx is not None:
        g_w[:, d:] = delta_sum @ cache.ctx.T
        dctx = params.w_stack[:, d:].T @ delta_sum
    g_b = delta_sum.sum(axis=1)
    grads = GruParams(*np.split(g_w, 3), *np.split(g_u, 3),
                      *(np.split(g_b, 3) if params.use_bias else ()))
    return grads, dh, dctx
