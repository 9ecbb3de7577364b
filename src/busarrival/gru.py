"""GRU cell with exact hand-derived gradients.

State update per step:

    z = sigmoid(Wz u + Uz h_prev)
    r = sigmoid(Wr u + Ur h_prev)
    h_tilde = tanh(W u + r * (U h_prev))
    h = z * h_prev + (1 - z) * h_tilde

Bias vectors are optional and off by default. All functions accept states
and inputs either as vectors ``(H,)`` or as column batches ``(H, B)``; in
batched form the weight gradients from :func:`gru_backward` are summed over
the batch axis, so scaling the upstream ``dh`` produces mean-loss gradients.
``seq2seq`` unrolls these steps into whole chains: the encoder and each
decoder direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import dsigmoid_from_output, dtanh_from_output, sigmoid, xavier_uniform


@dataclass
class GruParams:
    """The six GRU weight matrices (hidden x input and hidden x hidden)."""

    wz: np.ndarray
    wr: np.ndarray
    w: np.ndarray
    uz: np.ndarray
    ur: np.ndarray
    u: np.ndarray
    bz: np.ndarray | None = None
    br: np.ndarray | None = None
    b: np.ndarray | None = None

    @property
    def hidden_size(self) -> int:
        return self.wz.shape[0]

    @property
    def input_size(self) -> int:
        return self.wz.shape[1]

    @property
    def use_bias(self) -> bool:
        return self.bz is not None

    def as_dict(self, prefix: str = "") -> dict:
        d = {prefix + "wz": self.wz, prefix + "wr": self.wr, prefix + "w": self.w,
             prefix + "uz": self.uz, prefix + "ur": self.ur, prefix + "u": self.u}
        if self.use_bias:
            d.update({prefix + "bz": self.bz, prefix + "br": self.br,
                      prefix + "b": self.b})
        return d

    def zeros_like(self) -> "GruParams":
        return GruParams(
            *(np.zeros_like(m) for m in (self.wz, self.wr, self.w,
                                         self.uz, self.ur, self.u)),
            *((np.zeros_like(b) for b in (self.bz, self.br, self.b))
              if self.use_bias else (None, None, None)))

    def param_count(self) -> int:
        return sum(p.size for p in self.as_dict().values())

    def validate(self) -> None:
        h, d = self.wz.shape
        for name, mat, shape in (("wr", self.wr, (h, d)), ("w", self.w, (h, d)),
                                 ("uz", self.uz, (h, h)), ("ur", self.ur, (h, h)),
                                 ("u", self.u, (h, h))):
            if mat.shape != shape:
                raise ValueError(f"{name} has shape {mat.shape}, expected {shape}")
        if self.use_bias:
            for name, b in (("bz", self.bz), ("br", self.br), ("b", self.b)):
                if b is None or b.shape != (h,):
                    raise ValueError(f"bias {name} must have shape ({h},)")


def init_gru(rng: np.random.Generator, hidden: int, inp: int,
             use_bias: bool = False) -> GruParams:
    """Glorot-uniform GRU parameters, biases zero when enabled."""
    mk = xavier_uniform
    params = GruParams(
        wz=mk(rng, hidden, inp), wr=mk(rng, hidden, inp), w=mk(rng, hidden, inp),
        uz=mk(rng, hidden, hidden), ur=mk(rng, hidden, hidden),
        u=mk(rng, hidden, hidden))
    if use_bias:
        params.bz = np.zeros(hidden)
        params.br = np.zeros(hidden)
        params.b = np.zeros(hidden)
    return params


@dataclass
class GruCache:
    """Forward intermediates needed by the backward pass."""

    u_in: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    uh: np.ndarray      # U @ h_prev, needed for the reset-gate gradient
    h_tilde: np.ndarray
    h: np.ndarray


def _add_bias(a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    if b is None:
        return a
    return a + (b if a.ndim == 1 else b[:, None])


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Vector case: rank-1 outer product; batch case: summed over columns.
    if a.ndim == 1:
        return np.outer(a, b)
    return a @ b.T


def _bias_grad(da: np.ndarray) -> np.ndarray:
    return da if da.ndim == 1 else da.sum(axis=1)


def gru_forward(params: GruParams, h_prev: np.ndarray,
                u: np.ndarray) -> tuple[np.ndarray, GruCache]:
    """One GRU step; returns the new state and the cache for backprop."""
    if u.shape[0] != params.input_size:
        raise ValueError(f"input size {u.shape[0]} != expected {params.input_size}")
    if h_prev.shape[0] != params.hidden_size:
        raise ValueError(f"state size {h_prev.shape[0]} != expected {params.hidden_size}")
    if u.ndim != h_prev.ndim or (u.ndim == 2 and u.shape[1] != h_prev.shape[1]):
        raise ValueError("input and state must have matching batch shape")
    z = sigmoid(_add_bias(params.wz @ u + params.uz @ h_prev, params.bz))
    r = sigmoid(_add_bias(params.wr @ u + params.ur @ h_prev, params.br))
    uh = params.u @ h_prev
    h_tilde = np.tanh(_add_bias(params.w @ u + r * uh, params.b))
    h = z * h_prev + (1.0 - z) * h_tilde
    return h, GruCache(u_in=u, h_prev=h_prev, z=z, r=r, uh=uh,
                       h_tilde=h_tilde, h=h)


def gru_backward(params: GruParams, cache: GruCache,
                 dh: np.ndarray) -> tuple[GruParams, np.ndarray, np.ndarray]:
    """Exact gradients of one GRU step.

    Given dL/dh for the step's output, returns (parameter gradients,
    dL/dh_prev, dL/du). Summing the returned parameter gradients over an
    unrolled sequence yields full BPTT.
    """
    if dh.shape != cache.h.shape:
        raise ValueError(f"dh shape {dh.shape} != state shape {cache.h.shape}")
    g = params.zeros_like()
    u_in, h_prev = cache.u_in, cache.h_prev
    z, r, h_tilde, uh = cache.z, cache.r, cache.h_tilde, cache.uh

    dz = dh * (h_prev - h_tilde)
    dh_prev = dh * z
    dh_tilde = dh * (1.0 - z)

    da_h = dh_tilde * dtanh_from_output(h_tilde)
    g.w += _outer(da_h, u_in)
    du = params.w.T @ da_h
    dr = da_h * uh
    duh = da_h * r
    g.u += _outer(duh, h_prev)
    dh_prev = dh_prev + params.u.T @ duh

    da_r = dr * dsigmoid_from_output(r)
    g.wr += _outer(da_r, u_in)
    g.ur += _outer(da_r, h_prev)
    du += params.wr.T @ da_r
    dh_prev = dh_prev + params.ur.T @ da_r

    da_z = dz * dsigmoid_from_output(z)
    g.wz += _outer(da_z, u_in)
    g.uz += _outer(da_z, h_prev)
    du += params.wz.T @ da_z
    dh_prev = dh_prev + params.uz.T @ da_z

    if params.use_bias:
        g.b += _bias_grad(da_h)
        g.br += _bias_grad(da_r)
        g.bz += _bias_grad(da_z)
    return g, dh_prev, du

