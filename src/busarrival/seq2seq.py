"""Encoder-decoder GRU models over route sections, with exact BPTT training.

Two decoder variants share one encoder design:

* EDU: a single left-to-right GRU chain over the remaining sections.
* EDB: two GRU chains, left-to-right and right-to-left, whose states are
  concatenated per step. The reverse chain is what lets a prediction for a
  near section react to what the previous bus experienced further down the
  route (congestion spreading backward along the route).

The encoder consumes the traversed sections in order m, m-1, ..., 1, each
step seeing ``(z_current, z_prev_week)``. Its final state, a one-hot of the
position within the model's bank, and the normalized query time are
concatenated into the context ``e_a``, which (a) seeds the decoder state(s)
through one linear+tanh embed and (b) is appended to every decoder step
input alongside that section's four exogenous values. A linear map turns
each decoder state into one normalized travel time.

Examples reach the model as blocks: the normalized inputs and targets of
examples at one position m, one column per example. Training stacks and
checks each m's examples once and gathers every minibatch out of a block;
a single query is a block of one.

Positions m are covered by a bank of models, 5 consecutive positions per
model starting at m=3 (the last bank absorbs any remainder). Decoder hidden
sizes default to 32 (EDU) and 19 per direction (EDB), which keeps the EDB
decoder's parameter count just under the EDU decoder's.
"""

from __future__ import annotations

import base64
import json
import math
import os
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dataprep import (AT_LEAST_1, DEC_Z_PV, DEC_Z_PW, FIRST_POSITION,
                       POSITIVE, DataError, NormStats, TrainingExample,
                       check_ranges, fit_normalizer, split_week)
from .gru import GruParams, gru_backward, gru_forward, gru_size, init_gru
from .numkit import adam_step, init_adam, spawn_rng

KIND_EDU = "edu"
KIND_EDB = "edb"
BANK_WIDTH = 5
DEFAULT_HIDDEN_ENC = 32
DEFAULT_HIDDEN_DEC = {KIND_EDU: 32, KIND_EDB: 19}
CHECKPOINT_FORMAT_VERSION = 3
CHAINS = ("enc", "dec_fwd", "dec_bwd")
# the constructor arguments that fix the layout of EdModel.theta
DIMS = ("kind", "m_lo", "m_hi", "n_sections", "hidden_enc", "hidden_dec")
# The largest hidden size, 16 times the default 32: an EDB model of 512 holds
# 4.2 M weights (34 MB) and training keeps four more vectors of that size. A
# size past numpy's limits would fail with a message that names no key.
MAX_HIDDEN = 512
_HIDDEN_SIZE = (lambda v: 1 <= v <= MAX_HIDDEN, f"in [1, {MAX_HIDDEN}]")
_HIDDEN_SIZES = dict.fromkeys(DIMS[-2:], _HIDDEN_SIZE)
# the params() names of the embed and output maps
_MAP_NAMES = {"w_embed": "embed.w", "w_out": "out.w"}
# per column of a decoder block (K, 4, N), whether it holds travel times;
# the others hold entry times
_DEC_TRAVEL = np.isin(np.arange(4), (DEC_Z_PV, DEC_Z_PW))[:, None]
# Columns per forward-only pass (see _forward_only). A pass's GRU work blocks,
# states and predictions grow with its width, and a thread keeps its work
# buffer at the widest size it has met: whole 240-column validation blocks
# took it to 6.3 MB in full-scale training, 3.3 MB with these passes. On the
# benchmark's training workloads, passes of 128 columns lowered peak RSS by
# 6-8% and left iteration_s where it was; passes of 64 lowered it 1-2 MB
# further but cost 3-4% of iteration_s, the per-step numpy calls of more
# passes.
# Passes start at multiples of 128, which the column tiles of BLAS kernels
# divide, so each column meets the kernel it meets in one whole-block pass
# and keeps its bits.
PASS_COLS = 128


class CoverageError(ValueError):
    """Queried position is outside the trained bank coverage."""


class NonFiniteLossError(ValueError):
    """A training batch or a validation pass produced a NaN or infinite loss."""


class NonFiniteGradientError(ValueError):
    """A training batch with a finite loss produced a NaN or infinite gradient."""


class EdModel:
    """One bank's model. Every parameter lives in the flat float64 vector
    ``theta``; the GRU chains ``enc``, ``dec_fwd`` and ``dec_bwd`` (EDB
    only), ``w_embed`` (hidden_dec x ctx_len) and ``w_out``
    (dec_state_width) are views into it, laid out in :meth:`params` order
    by :meth:`views`."""

    def __init__(self, kind: str, m_lo: int, m_hi: int, n_sections: int,
                 hidden_enc: int, hidden_dec: int,
                 norm: NormStats | None = None, theta: np.ndarray | None = None):
        self.kind, self.m_lo, self.m_hi = kind, m_lo, m_hi
        self.n_sections = n_sections
        self.hidden_enc, self.hidden_dec = hidden_enc, hidden_dec
        # the dims are checked before theta is sized from them
        check_ranges(self, _HIDDEN_SIZES)
        if kind not in (KIND_EDU, KIND_EDB):
            raise ValueError(f"unknown model kind {kind!r}")
        if not FIRST_POSITION <= m_lo <= m_hi <= n_sections - 1:
            raise ValueError("bank range must lie within [3, n_sections-1]")
        self.norm = norm if norm is not None else NormStats.identity()
        size = sum(n for _, _, n in self._layout())
        self.theta = np.zeros(size) if theta is None else theta
        if self.theta.dtype != np.float64 or self.theta.shape != (size,):
            raise ValueError(f"theta must be float64 of shape ({size},), got "
                             f"{self.theta.dtype} of shape {self.theta.shape}")
        self.__dict__.update(vars(self.views(self.theta)))

    def __reduce__(self):
        # pickles as theta plus dimensions, so the views are rebuilt on load
        return (EdModel, (*self.dims().values(), self.norm, self.theta))

    def dims(self) -> dict:
        """The :data:`DIMS` constructor arguments, by name."""
        return {name: getattr(self, name) for name in DIMS}

    @property
    def bank_width(self) -> int:
        return self.m_hi - self.m_lo + 1

    @property
    def ctx_len(self) -> int:
        return self.hidden_enc + self.bank_width + 1

    @property
    def dec_state_width(self) -> int:
        return self.hidden_dec * (2 if self.kind == KIND_EDB else 1)

    def _layout(self) -> list[tuple[str, tuple[int, ...], int]]:
        """(block, dims, size) of each block of ``theta`` in order: the GRU
        chains, whose dims are (hidden, input), then the embed and output
        maps, whose dims are their shapes."""
        hd, ctx = self.hidden_dec, self.ctx_len
        blocks = {"enc": (self.hidden_enc, 2), "dec_fwd": (hd, 4 + ctx),
                  "dec_bwd": (hd, 4 + ctx) if self.kind == KIND_EDB else None,
                  "w_embed": (hd, ctx), "w_out": (self.dec_state_width,)}
        return [(name, dims, gru_size(*dims) if name in CHAINS
                 else math.prod(dims)) for name, dims in blocks.items() if dims]

    def views(self, vec: np.ndarray) -> SimpleNamespace:
        """Every block of the flat ``vec`` laid out as ``theta``, by attribute
        name: GruParams for the chains, arrays for the maps, None for
        ``dec_bwd`` when this model does not have it."""
        out = {"dec_bwd": None}
        off = 0
        for name, dims, size in self._layout():
            part = vec[off:off + size]
            out[name] = (GruParams(part, *dims) if name in CHAINS
                         else part.reshape(dims))
            off += size
        return SimpleNamespace(**out)

    def params(self) -> dict:
        """Named views into ``theta``, in its order; writing them updates the model."""
        d = {}
        for name, _, _ in self._layout():
            part = getattr(self, name)
            d.update(part.as_dict(name + ".") if name in CHAINS
                     else {_MAP_NAMES[name]: part})
        return d

    def param_name(self, index: int) -> str:
        """Name of the :meth:`params` entry that holds ``theta[index]``."""
        params = self.params()
        ends = np.cumsum([p.size for p in params.values()])
        return list(params)[int(np.searchsorted(ends, index, side="right"))]


def bank_layout(n_sections: int) -> list[tuple[int, int]]:
    """The :func:`bank_range` of each m in [3, n_sections-1], in order."""
    if n_sections - 1 < FIRST_POSITION:
        raise ValueError("route too short for any covered position")
    return list(dict.fromkeys(bank_range(n_sections, m)
                              for m in range(FIRST_POSITION, n_sections)))


def bank_range(n_sections: int, m: int) -> tuple[int, int]:
    """The ``(m_lo, m_hi)`` of the bank that covers m: banks are
    ``BANK_WIDTH`` positions wide from m=3, a remainder widens the last one
    (28-33 for a 34-section route), and a route of fewer coverable positions
    has one short bank. Found by arithmetic, so a large route builds no layout."""
    first_m, width, last_m = FIRST_POSITION, BANK_WIDTH, n_sections - 1
    if not first_m <= m <= last_m:
        raise CoverageError(f"position m={m} is not covered; models span m in "
                            f"[{first_m}, {last_m}]")
    last_bank = max(1, (last_m - first_m + 1) // width) - 1
    bank = min((m - first_m) // width, last_bank)
    m_lo = first_m + bank * width
    return m_lo, last_m if bank == last_bank else m_lo + width - 1


def new_model(kind: str, m_lo: int, m_hi: int, n_sections: int,
              rng: np.random.Generator, hidden_enc: int = DEFAULT_HIDDEN_ENC,
              hidden_dec: int | None = None, norm: NormStats | None = None) -> EdModel:
    if hidden_dec is None:
        hidden_dec = DEFAULT_HIDDEN_DEC[kind]
    model = EdModel(kind, m_lo, m_hi, n_sections, hidden_enc, hidden_dec, norm)
    for chain in CHAINS:
        p = getattr(model, chain)
        if p is not None:
            p.theta[...] = init_gru(rng, p.hidden_size, p.input_size).theta
    model.w_embed[...] = (rng.uniform(-1, 1, model.w_embed.shape)
                          * np.sqrt(6.0 / (hidden_dec + model.ctx_len)))
    limit = np.sqrt(6.0 / (model.dec_state_width + 1))
    model.w_out[...] = rng.uniform(-limit, limit, model.w_out.shape)
    return model


# ---------------------------------------------------------------------------
# Forward and backward passes over blocks (examples that share m, one column
# each): a minibatch is gathered out of a block, a query is a block of one

@dataclass
class Block:
    """N examples at position m, normalized for a model and stacked column
    per example: enc (m, 2, N), dec (K, 4, N), t_c (N,), targets (K, N)."""

    m: int
    enc: np.ndarray
    dec: np.ndarray
    t_c: np.ndarray
    targets: np.ndarray | None      # None when stacked with targets=False

    @property
    def n(self) -> int:
        return self.t_c.size

    def take(self, cols) -> "Block":
        """The examples at ``cols``, in that order, in contiguous arrays."""
        return Block(self.m, *(None if a is None else a.take(cols, axis=-1)
                               for a in (self.enc, self.dec, self.t_c, self.targets)))


def stack_block(model: EdModel, exs: list[TrainingExample],
                targets: bool = True) -> Block:
    """One block of ``exs``, which must share one m inside the model's bank;
    with ``targets=False`` its targets are None, for a pass that reads none."""
    m = exs[0].m
    if any(ex.m != m for ex in exs):
        raise ValueError("a block must share one current position m")
    if any(ex.enc.shape != (m, 2) or ex.dec.shape != (ex.k, 4) for ex in exs):
        raise ValueError(f"examples need an ({m}, 2) encoder sequence and a "
                         "(K, 4) decoder sequence for K targets")
    if exs[0].k < 1:
        raise ValueError("decoder needs at least one step; empty queries "
                         "should not reach the model")
    if not model.m_lo <= m <= model.m_hi:
        raise CoverageError(f"position m={m} outside model bank "
                            f"[{model.m_lo}, {model.m_hi}]")
    norm = model.norm
    # what np.stack(..., axis=-1) makes, without its Python-level set-up
    enc = np.concatenate([ex.enc[..., None] for ex in exs], axis=2)   # (m, 2, N)
    dec = np.concatenate([ex.dec[..., None] for ex in exs], axis=2,
                         dtype=np.float64)                            # (K, 4, N)
    if not (np.isfinite(enc).all() and np.isfinite(dec).all()):
        raise ValueError("unresolved (non-finite) inputs")
    # each column's norm_travel or norm_tod, as one subtract and one divide
    dec -= np.where(_DEC_TRAVEL, norm.travel_mean, norm.tod_min)
    dec /= np.where(_DEC_TRAVEL, norm.travel_std, norm.tod_max - norm.tod_min)
    tc_n = norm.norm_tod(np.array([ex.t_c for ex in exs]))
    targets_n = norm.norm_travel(np.concatenate(
        [ex.targets[:, None] for ex in exs], axis=1)) if targets else None
    return Block(m, norm.norm_travel(enc), dec, tc_n, targets_n)


def stack_blocks(model: EdModel, examples: list[TrainingExample]) -> list[Block]:
    """One block per position m of ``examples``, in order of first appearance."""
    return [stack_block(model, [ex for ex in examples if ex.m == m])
            for m in dict.fromkeys(ex.m for ex in examples)]


def _forward(model: EdModel, blk: Block, keep_cache: bool = True):
    """Normalized predictions (K, N) for a block, plus the intermediates
    :func:`_batch_step` backpropagates through (their GRU caches None with
    ``keep_cache=False``, see :func:`gru_forward`).

    The context ``e_a`` is [final encoder state; one-hot(m); normalized T_c].
    """
    he = model.hidden_enc
    enc_states, enc_cache = gru_forward(model.enc, np.zeros((he, blk.n)), blk.enc,
                                        keep_cache=keep_cache)
    e_a = np.zeros((model.ctx_len, blk.n))
    e_a[:he] = enc_states[-1]
    e_a[he + blk.m - model.m_lo] = 1.0
    e_a[-1] = blk.t_c
    h0 = model.w_embed @ e_a
    np.tanh(h0, out=h0)
    states, fwd_cache = gru_forward(model.dec_fwd, h0, blk.dec, ctx=e_a,
                                    keep_cache=keep_cache)
    bwd_cache = None
    if model.kind == KIND_EDB:
        bwd_states, bwd_cache = gru_forward(model.dec_bwd, h0, blk.dec, ctx=e_a,
                                            reverse=True, keep_cache=keep_cache)
        states = np.concatenate([states, bwd_states], axis=1)
    y = model.w_out @ states                               # (K, N)
    return y, (e_a, enc_cache, h0, states, fwd_cache, bwd_cache)


def _forward_only(model: EdModel, blk: Block) -> np.ndarray:
    """Normalized predictions (K, N) of a block, by forward-only passes over
    contiguous copies of ``PASS_COLS`` of its columns. A last pass of fewer
    than 4 columns joins the pass before it: BLAS runs such narrow products
    (the output map's, for one) by other kernels than a wide block's last
    columns meet, and their bits differ."""
    starts = range(0, max(blk.n - 3, 1), PASS_COLS)
    if len(starts) == 1:
        return _forward(model, blk, keep_cache=False)[0]
    y = np.empty((blk.dec.shape[0], blk.n))
    for lo, hi in zip(starts, [*starts[1:], blk.n]):
        y[:, lo:hi] = _forward(model, blk.take(range(lo, hi)), keep_cache=False)[0]
    return y


def predict_example(model: EdModel, ex: TrainingExample) -> np.ndarray:
    """Per-section travel-time predictions (seconds) for one example."""
    y = _forward_only(model, stack_block(model, [ex], targets=False))
    return model.norm.denorm_travel(y[:, 0])


def _batch_step(model: EdModel, blk: Block) -> tuple[float, np.ndarray]:
    """Loss and exact mean-loss gradient of a block, laid out as ``model.theta``."""
    y, (e_a, enc_cache, h0, states, fwd_cache, bwd_cache) = _forward(model, blk)
    k, b = y.shape
    resid = y - blk.targets
    batch_loss = float(np.mean(resid ** 2))
    dy = (2.0 / (k * b)) * resid

    grad = np.empty_like(model.theta)     # every element is written below
    g = model.views(grad)
    g.w_out[...] = np.tensordot(states, dy, axes=([0, 2], [0, 1]))
    dstates = model.w_out[:, None] * dy[:, None, :]        # (K, width, B)

    hd = model.hidden_dec
    _, dh0, de_a = gru_backward(model.dec_fwd, fwd_cache, dstates[:, :hd],
                                out=g.dec_fwd)
    if model.kind == KIND_EDB:
        _, dh0_bwd, de_a_bwd = gru_backward(model.dec_bwd, bwd_cache,
                                            dstates[:, hd:], out=g.dec_bwd)
        dh0 = dh0 + dh0_bwd
        de_a = de_a + de_a_bwd

    ds0 = dh0 * (1.0 - h0 ** 2)
    g.w_embed[...] = ds0 @ e_a.T
    de_a += model.w_embed.T @ ds0

    denc = np.zeros_like(enc_cache.states)
    denc[-1] = de_a[:model.hidden_enc]
    gru_backward(model.enc, enc_cache, denc, out=g.enc)
    return batch_loss, grad


def model_loss(model: EdModel, ex: TrainingExample) -> float:
    """Training loss of one example (MSE over normalized targets)."""
    return mean_loss(model, [stack_block(model, [ex])])


def model_backward(model: EdModel, ex: TrainingExample) -> tuple[float, np.ndarray]:
    """Exact gradient of one example's loss w.r.t. ``model.theta``."""
    return _batch_step(model, stack_block(model, [ex]))


def mean_loss(model: EdModel, blocks: list[Block]) -> float:
    """Mean example loss over ``blocks``, each run by :func:`_forward_only`
    and reduced as one (K, N) array."""
    n = sum(blk.n for blk in blocks)
    if not n:
        raise ValueError("mean_loss over an empty example set")
    total = 0.0
    for blk in blocks:
        y = _forward_only(model, blk)
        total += float(np.sum(np.mean((y - blk.targets) ** 2, axis=0)))
    return total / n


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainConfig:
    """Training settings; each one's default is the CLI's default."""

    batch_size: int = 32
    lr: float = 3e-3
    max_epochs: int = 30
    patience: int = 6
    hidden_enc: int = DEFAULT_HIDDEN_ENC
    hidden_dec_edu: int = DEFAULT_HIDDEN_DEC[KIND_EDU]
    hidden_dec_edb: int = DEFAULT_HIDDEN_DEC[KIND_EDB]
    seed: int = 0

    def __post_init__(self):
        check_ranges(self, {
            "lr": POSITIVE,
            **dict.fromkeys(("batch_size", "max_epochs", "patience"), AT_LEAST_1),
            **dict.fromkeys(("hidden_enc", "hidden_dec_edu", "hidden_dec_edb"),
                            _HIDDEN_SIZE)})

    def hidden_dec(self, kind: str) -> int:
        return self.hidden_dec_edu if kind == KIND_EDU else self.hidden_dec_edb


def train_model(model: EdModel, train_ex: list[TrainingExample],
                val_ex: list[TrainingExample], cfg: TrainConfig,
                rng: np.random.Generator) -> list[dict]:
    """Minibatch Adam with early stopping on validation loss.

    The examples are stacked and checked once, one block per position m, and
    each batch gathers its columns out of one block, so it runs as
    matrix-shaped GRU steps; batch order and composition are shuffled per
    epoch from ``rng``. With a validation set, training stops when
    :func:`run_summary` of the history says so and the best epoch's weights
    are restored (they are also restored when the epoch budget runs out). Each
    history entry holds the epoch's mean training loss, its validation loss
    (None without a validation set) and ``grad_norm``, the mean over its
    batches of the gradient's Euclidean norm.
    """
    if not train_ex:
        raise ValueError("no training examples")
    blocks = sorted(stack_blocks(model, train_ex), key=lambda blk: blk.m)
    val_blocks = stack_blocks(model, val_ex)
    state = init_adam(model.theta, lr=cfg.lr)
    bank = f"{model.kind} bank m={model.m_lo}-{model.m_hi}"
    history: list[dict] = []
    best_theta = None
    for epoch in range(cfg.max_epochs):
        batches = []
        for blk in blocks:
            order = rng.permutation(blk.n)
            batches += [(blk, order[lo:lo + cfg.batch_size])
                        for lo in range(0, blk.n, cfg.batch_size)]
        rng.shuffle(batches)
        total, norm_sum = 0.0, 0.0
        for index, (blk, cols) in enumerate(batches):
            batch_loss, grad = _batch_step(model, blk.take(cols))
            if not np.isfinite(batch_loss):
                raise NonFiniteLossError(
                    f"{bank}: training loss is {batch_loss} at epoch {epoch}, "
                    f"batch {index}")
            finite = np.isfinite(grad)
            if not finite.all():
                bad = model.param_name(int(np.argmin(finite)))
                raise NonFiniteGradientError(
                    f"{bank}: gradient of {bad} is not finite at epoch {epoch}, "
                    f"batch {index}")
            adam_step(model.theta, grad, state)
            total += batch_loss * len(cols)
            norm_sum += float(np.linalg.norm(grad))
        entry = {"epoch": epoch, "train_loss": total / len(train_ex),
                 "val_loss": None, "grad_norm": norm_sum / len(batches)}
        if val_blocks:
            entry["val_loss"] = val_loss = mean_loss(model, val_blocks)
            if not math.isfinite(val_loss):
                raise NonFiniteLossError(
                    f"{bank}: validation loss is {val_loss} at epoch {epoch}")
        history.append(entry)
        summary = run_summary(history, cfg.patience)
        if summary["best_epoch"] == epoch:
            best_theta = model.theta.copy()
        if summary["stopped"] == "patience":
            break
    if best_theta is not None:
        model.theta[...] = best_theta
    return history


def run_summary(history: list[dict], patience: int) -> dict:
    """The :func:`train_model` run of ``history``: its epochs, why it stopped
    ("patience" once ``patience`` epochs pass after the first lowest validation
    loss, else "max_epochs"), that best epoch (or None) and each grad_norm."""
    vals = [h["val_loss"] for h in history if h["val_loss"] is not None]
    best = int(np.argmin(vals)) if vals else None
    stopped = ("patience" if best is not None and len(vals) - 1 - best >= patience
               else "max_epochs")
    return {"epochs": len(history), "stopped": stopped, "best_epoch": best,
            "grad_norm": [h["grad_norm"] for h in history]}


@dataclass
class ModelBank:
    """Ordered models of one kind, one per bank of :func:`bank_layout`; it
    may hold just the banks that trained, or that its queries need."""

    kind: str
    n_sections: int
    models: list[EdModel]

    def model_for(self, m: int) -> EdModel:
        for mo in self.models:
            if mo.m_lo <= m <= mo.m_hi:
                return mo
        bank_range(self.n_sections, m)      # raises the error naming the span
        raise CoverageError(f"no bank owns position m={m}")


@dataclass
class BankTrainResult:
    bank: ModelBank    # the trained models: a bank without examples has none
    histories: dict    # every (m_lo, m_hi) -> per-epoch history, [] if skipped
    summaries: dict    # trained (m_lo, m_hi) -> run_summary, examples, validation_week, wall_s


def train_bank(kind: str, examples: list[TrainingExample], n_sections: int,
               cfg: TrainConfig, pool=None) -> BankTrainResult:
    """Train one model per bank on its own examples.

    Each bank validates on the newest week of its examples, its summary's
    ``validation_week`` (None when they hold one week: no early stopping).
    A bank without examples gets no model and no summary. With ``pool`` (a
    concurrent.futures executor) banks train in parallel, with the same
    results: each derives its RNGs from (seed, kind, bank index).
    """
    layout = bank_layout(n_sections)
    jobs = [(kind, n_sections, cfg, idx, m_lo, m_hi,
             [ex for ex in examples if m_lo <= ex.m <= m_hi])
            for idx, (m_lo, m_hi) in enumerate(layout)]
    # both maps return the results in job order
    models, histories, summaries = zip(*(map if pool is None else pool.map)(
        _train_one_bank, *zip(*jobs)))
    return BankTrainResult(bank=ModelBank(kind, n_sections,
                                          [mo for mo in models if mo is not None]),
                           histories=dict(zip(layout, histories)),
                           summaries={r: s for r, s in zip(layout, summaries) if s})


def _train_one_bank(kind, n_sections, cfg, idx, m_lo, m_hi, exs):
    if not exs:
        return None, [], None
    start = time.perf_counter()
    kind_tag = 0 if kind == KIND_EDU else 1
    init_rng = spawn_rng(cfg.seed, 10 + kind_tag, idx)
    model = new_model(kind, m_lo, m_hi, n_sections, init_rng,
                      hidden_enc=cfg.hidden_enc, hidden_dec=cfg.hidden_dec(kind))
    # duplicating a lone example leaves the pooled statistics unchanged
    model.norm = fit_normalizer(exs if len(exs) >= 2 else exs * 2)
    val_week = split_week(ex.week for ex in exs)
    train_ex = [ex for ex in exs if ex.week != val_week]
    val_ex = [ex for ex in exs if ex.week == val_week]
    shuffle_rng = spawn_rng(cfg.seed, 20 + kind_tag, idx)
    history = train_model(model, train_ex, val_ex, cfg, shuffle_rng)
    return model, history, {**run_summary(history, cfg.patience),
                            "examples": len(train_ex), "validation_week": val_week,
                            "wall_s": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# Bank-level prediction

@dataclass
class PredictionResult:
    m: int
    t_c: float
    sections: np.ndarray       # predicted section numbers m+1..N_s
    travel_s: np.ndarray       # per-section predicted travel times
    cumulative_s: np.ndarray   # running sums of travel_s
    arrival_s: np.ndarray      # T_c + cumulative, clock seconds


def predict(bank: ModelBank, ex: TrainingExample) -> PredictionResult:
    """Route a query to its bank model and predict all remaining sections."""
    if ex.k != bank.n_sections - ex.m:
        raise ValueError(f"query at m={ex.m} has K={ex.k} decoder steps, but "
                         f"a route of {bank.n_sections} sections leaves "
                         f"{bank.n_sections - ex.m}")
    travel = predict_example(bank.model_for(ex.m), ex)
    cum = np.add.accumulate(travel)     # np.cumsum, without its wrapper
    return PredictionResult(
        m=ex.m, t_c=ex.t_c,
        sections=np.arange(ex.m + 1, bank.n_sections + 1),
        travel_s=travel, cumulative_s=cum, arrival_s=ex.t_c + cum)


# ---------------------------------------------------------------------------
# Checkpoints

def save_model_json(model: EdModel, path) -> None:
    """Write a format-3 checkpoint: the dims, ``norm`` and ``theta`` as the
    base64 text of its little-endian float64 bytes."""
    theta = base64.b64encode(model.theta.astype("<f8", copy=False).tobytes())
    doc = {"format_version": CHECKPOINT_FORMAT_VERSION, **model.dims(),
           "norm": model.norm.to_dict(), "theta": theta.decode("ascii")}
    with open(path, "w") as f:
        f.write(json.dumps(doc))    # the C encoder; json.dump runs the Python one
        f.write("\n")


def load_model_json(path) -> EdModel:
    """Read a checkpoint; malformed or non-finite contents raise DataError."""
    try:
        with open(path) as f:
            doc = json.load(f)
        version = doc.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"format_version {version!r}, but this reads "
                             f"{CHECKPOINT_FORMAT_VERSION}; retrain the bank "
                             "with `busarrival train`")
        # a dim of another JSON type (true, 5.0) would load or fail unnamed
        for name in DIMS:
            want, what = (str, "string") if name == "kind" else (int, "integer")
            if type(doc[name]) is not want:
                raise ValueError(f"{name} must be a JSON {what}, got {doc[name]!r}")
        # numpy would convert strings and booleans; JSON numbers are int or float
        if not set(map(type, doc["norm"].values())) <= {int, float}:
            raise ValueError("norm fields must be numbers")
        try:    # a list, number or null is a TypeError; binascii.Error a ValueError
            raw = base64.b64decode(doc["theta"], validate=True)
        except (TypeError, ValueError) as e:
            raise ValueError(f"theta must be a base64 string: {e}") from e
        if len(raw) % 8:
            raise ValueError(f"theta holds {len(raw)} bytes, not whole float64 values")
        model = EdModel(**{name: doc[name] for name in DIMS},
                        norm=NormStats.from_dict(doc["norm"]),
                        theta=np.frombuffer(raw, "<f8").astype(np.float64))
        if not np.isfinite(model.theta).all():
            raise ValueError("non-finite weights")
        if not model.norm.travel_std > 0:
            raise ValueError("travel_std must be positive")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise DataError(f"{path}: malformed checkpoint: "
                        f"{type(e).__name__}: {e}") from e
    return model


def checkpoint_path(ckpt_dir, kind: str, m_lo: int, m_hi: int) -> str:
    return os.path.join(str(ckpt_dir), f"{kind}_bank_{m_lo:02d}_{m_hi:02d}.json")


def save_bank(bank: ModelBank, out_dir) -> list:
    paths = [checkpoint_path(out_dir, mo.kind, mo.m_lo, mo.m_hi) for mo in bank.models]
    for model, path in zip(bank.models, paths):
        save_model_json(model, path)
    return paths


def load_bank(ckpt_dir, kind: str, n_sections: int, positions=None) -> ModelBank:
    """The models of ``kind`` of the banks that cover ``positions`` (every
    bank when None), each read from its checkpoint in ``ckpt_dir``, which
    must hold what its file name says: that kind and bank range, on a route
    of ``n_sections``. An uncovered position raises CoverageError before
    any checkpoint is read."""
    ranges = (bank_layout(n_sections) if positions is None
              else sorted({bank_range(n_sections, m) for m in positions}))
    models = []
    for m_lo, m_hi in ranges:
        path = checkpoint_path(ckpt_dir, kind, m_lo, m_hi)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"missing checkpoint for {kind} bank {m_lo}-{m_hi}: {path}")
        model = load_model_json(path)
        got = (model.kind, model.m_lo, model.m_hi, model.n_sections)
        if got != (kind, m_lo, m_hi, n_sections):
            raise DataError(f"{path}: holds the {got[0]} model of bank "
                            f"{got[1]}-{got[2]} on {got[3]} sections, not the "
                            f"{kind} model of bank {m_lo}-{m_hi} on {n_sections}")
        models.append(model)
    return ModelBank(kind, n_sections, models)
