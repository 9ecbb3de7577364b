"""Dense float64 numeric helpers: activations, Adam, seeded RNG, finite differences.

Everything here operates on plain ``numpy.ndarray`` values in float64. All
randomness in the package flows through :func:`make_rng` / :func:`spawn_rng`
so that a single master seed reproduces every downstream draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function; saturates instead of overflowing.

    Branch-free: with e = exp(-|x|) <= 1 it is 1 / (1 + e) for x >= 0 and
    e / (1 + e) below, the two overflow-free forms, bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def dsigmoid_from_output(s):
    """Derivative of the logistic function expressed via its output s."""
    return s * (1.0 - s)


def dtanh_from_output(t):
    """Derivative of tanh expressed via its output t."""
    return 1.0 - t * t


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; equal seeds give bit-identical streams."""
    return np.random.default_rng(int(seed))


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from (seed, *key).

    Used for counter-style seeding: the stream depends only on the integer
    tuple, never on call order elsewhere in the program.
    """
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Glorot-uniform initialized (rows, cols) matrix."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


@dataclass
class AdamState:
    """Optimizer state over a named set of parameter arrays."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params: dict, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One bias-corrected Adam update; mutates params and state in place."""
    if set(params) != set(state.m):
        raise ValueError("parameter names do not match optimizer state")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name!r} shape {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        p -= state.lr * mhat / (np.sqrt(vhat) + state.eps)


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    Second-order accurate; the package's independent oracle for every
    hand-derived backward pass.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def flatten_params(params: dict) -> tuple[np.ndarray, list]:
    """Pack a named parameter dict into one flat vector plus a layout spec."""
    layout = [(name, p.shape) for name, p in params.items()]
    vec = np.concatenate([p.ravel() for p in params.values()]) if params else np.zeros(0)
    return vec, layout


def write_flat_params(params: dict, vec: np.ndarray, layout: list) -> None:
    """Scatter a flat vector back into the arrays of a parameter dict."""
    off = 0
    for name, shape in layout:
        n = int(np.prod(shape))
        params[name][...] = vec[off:off + n].reshape(shape)
        off += n
    if off != vec.size:
        raise ValueError("flat vector length does not match layout")
