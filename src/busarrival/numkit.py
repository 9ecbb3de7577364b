"""Dense float64 numeric helpers: activations, Adam, seeded RNG, finite differences.

Everything here operates on plain ``numpy.ndarray`` values in float64. All
randomness in the package flows through :func:`make_rng` / :func:`spawn_rng`
so that a single master seed reproduces every downstream draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Read-only 0-d float64 operands: a ufunc converts a Python float operand on
# every call, about 0.4 us of a one-column call's 1 us.
ONE, _EXP_CAP = np.array(1.0), np.array(709.0)
ONE.flags.writeable = _EXP_CAP.flags.writeable = False
_neg, _min, _exp, _add, _recip = np.negative, np.minimum, np.exp, np.add, np.reciprocal


def sigmoid(x, out=None):
    """Logistic function 1 / (1 + exp(-x)), written into ``out`` when given
    (``out=x`` computes in place) and into a new array otherwise.

    Five in-place ufunc calls by module-level names, out positional but for
    ``np.minimum``'s (numpy deprecates a third argument there), and no
    temporaries. The exponent is capped at 709, so exp never overflows: x
    below -709 gives a tiny positive value, not 0, and large positive x gives 1.
    """
    if out is None:
        x = out = np.array(x, dtype=np.float64)
    _neg(x, out)
    _min(out, _EXP_CAP, out=out)
    _exp(out, out)
    _add(out, ONE, out)
    return _recip(out, out)


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


# Adam's decay rates and epsilon: Kingma & Ba's defaults (arXiv:1412.6980).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Optimizer state over one flat parameter vector."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam(theta: np.ndarray, lr: float = 1e-3) -> AdamState:
    return AdamState(lr=lr, m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update (Kingma & Ba, arXiv:1412.6980) of a
    flat parameter vector; mutates theta and state in place."""
    if not theta.shape == grad.shape == state.m.shape:
        raise ValueError(f"parameter shape {theta.shape}, gradient shape "
                         f"{grad.shape} and optimizer state shape "
                         f"{state.m.shape} differ")
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    mhat = m / (1.0 - ADAM_BETA1 ** t)
    vhat = v / (1.0 - ADAM_BETA2 ** t)
    theta -= state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    Second-order accurate; the package's independent oracle for every
    hand-derived backward pass. A contiguous float64 x is perturbed in
    place, one coordinate at a time, and restored, so ``f`` may read it
    through views (a model's ``theta``) instead of its argument.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
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

