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

Positions m are covered by a bank of models, 5 consecutive positions per
model starting at m=3 (the last bank absorbs any remainder). Decoder hidden
sizes default to 32 (EDU) and 19 per direction (EDB), which keeps the EDB
decoder's parameter count just under the EDU decoder's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataprep import (DEC_TE_PV, DEC_TE_PW, DEC_Z_PV, DEC_Z_PW, DataError,
                       NormStats, TrainingExample, fit_normalizer)
from .gru import GruParams, gru_backward, gru_forward, init_gru
from .numkit import adam_step, init_adam, spawn_rng

KIND_EDU = "edu"
KIND_EDB = "edb"
FIRST_POSITION = 3          # models start at section 3
BANK_WIDTH = 5
DEFAULT_HIDDEN_ENC = 32
DEFAULT_HIDDEN_DEC = {KIND_EDU: 32, KIND_EDB: 19}
CHECKPOINT_FORMAT_VERSION = 1
# Examples per forward pass in mean_loss. On a 2-vCPU VM, whole 240-example
# validation sets made multi-MB GRU caches that left peak RSS 10-15% higher,
# and varying from run to run, than chunks of 64 (5-8% slower training).
LOSS_CHUNK = 64


class CoverageError(ValueError):
    """Queried position is outside the trained bank coverage."""


class NonFiniteLossError(ValueError):
    """A training batch produced a NaN or infinite loss."""


class NonFiniteGradientError(ValueError):
    """A training batch with a finite loss produced a NaN or infinite gradient."""


@dataclass
class EdModel:
    kind: str
    m_lo: int
    m_hi: int
    n_sections: int
    enc: GruParams
    dec_fwd: GruParams
    dec_bwd: GruParams | None
    w_embed: np.ndarray          # (hidden_dec, ctx_len)
    w_out: np.ndarray            # (dec_state_width,)
    b_embed: np.ndarray | None = None
    b_out: np.ndarray | None = None
    norm: NormStats = field(default_factory=NormStats.identity)

    @property
    def bank_width(self) -> int:
        return self.m_hi - self.m_lo + 1

    @property
    def hidden_enc(self) -> int:
        return self.enc.hidden_size

    @property
    def hidden_dec(self) -> int:
        return self.dec_fwd.hidden_size

    @property
    def ctx_len(self) -> int:
        return self.hidden_enc + self.bank_width + 1

    @property
    def dec_state_width(self) -> int:
        return self.hidden_dec * (2 if self.kind == KIND_EDB else 1)

    @property
    def use_bias(self) -> bool:
        return self.b_embed is not None

    def validate(self) -> None:
        if self.kind not in (KIND_EDU, KIND_EDB):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not FIRST_POSITION <= self.m_lo <= self.m_hi <= self.n_sections - 1:
            raise ValueError("bank range must lie within [3, n_sections-1]")
        if (self.kind == KIND_EDB) != (self.dec_bwd is not None):
            raise ValueError("bidirectional models need dec_bwd, others must not have it")
        if self.enc.input_size != 2:
            raise ValueError("encoder input must be (z_current, z_prev_week)")
        want_in = 4 + self.ctx_len
        if self.dec_fwd.input_size != want_in:
            raise ValueError(f"decoder input size {self.dec_fwd.input_size}, "
                             f"expected {want_in}")
        if self.dec_bwd is not None and (
                self.dec_bwd.input_size != want_in
                or self.dec_bwd.hidden_size != self.hidden_dec):
            raise ValueError("reverse decoder dims must match forward decoder")
        if self.w_embed.shape != (self.hidden_dec, self.ctx_len):
            raise ValueError("embed shape mismatch")
        if self.w_out.shape != (self.dec_state_width,):
            raise ValueError("output map shape mismatch")
        if ((self.b_embed is not None and self.b_embed.shape != (self.hidden_dec,))
                or (self.b_out is not None and self.b_out.shape != (1,))):
            raise ValueError("bias shape mismatch")

    def params(self) -> dict:
        """Live parameter arrays, in a fixed order; mutating them updates the model."""
        d = {}
        d.update(self.enc.as_dict("enc."))
        d.update(self.dec_fwd.as_dict("dec_fwd."))
        if self.dec_bwd is not None:
            d.update(self.dec_bwd.as_dict("dec_bwd."))
        d["embed.w"] = self.w_embed
        if self.b_embed is not None:
            d["embed.b"] = self.b_embed
        d["out.w"] = self.w_out
        if self.b_out is not None:
            d["out.b"] = self.b_out
        return d

    def clone_weights(self) -> dict:
        return {k: v.copy() for k, v in self.params().items()}

    def load_weights(self, weights: dict) -> None:
        for k, v in self.params().items():
            v[...] = weights[k]


def decoder_param_count(model: EdModel) -> int:
    """Learnable count of the decoder head: GRU chain(s) plus the output map.

    The append embed is part of the context block shared by both variants
    and is excluded; including it would not change which default sizes pass
    the parity check.
    """
    n = model.dec_fwd.param_count() + model.w_out.size
    if model.dec_bwd is not None:
        n += model.dec_bwd.param_count()
    if model.b_out is not None:
        n += model.b_out.size
    return n


def bi_hidden_for_parity(hidden_enc: int = DEFAULT_HIDDEN_ENC,
                         edu_hidden: int = DEFAULT_HIDDEN_DEC[KIND_EDU],
                         bank_width: int = BANK_WIDTH,
                         use_bias: bool = False) -> int:
    """Largest per-direction EDB hidden size whose decoder stays within the
    EDU decoder's parameter count."""
    d_in = 4 + hidden_enc + bank_width + 1
    bias = 3 if use_bias else 0
    edu_count = 3 * edu_hidden * d_in + 3 * edu_hidden ** 2 + bias * edu_hidden + edu_hidden
    for h in range(edu_hidden, 0, -1):
        edb_count = 2 * (3 * h * d_in + 3 * h * h + bias * h) + 2 * h
        if edb_count <= edu_count:
            return h
    return 1


def bank_layout(n_sections: int, first_m: int = FIRST_POSITION,
                width: int = BANK_WIDTH) -> list[tuple[int, int]]:
    """Contiguous position ranges covering m in [first_m, n_sections-1].

    Full ``width``-wide banks; a remainder widens the last bank (28-33 for a
    34-section route). Routes with fewer than ``width`` coverable positions
    get a single short bank.
    """
    last_m = n_sections - 1
    span = last_m - first_m + 1
    if span < 1:
        raise ValueError("route too short for any covered position")
    n_full = span // width
    if n_full == 0:
        return [(first_m, last_m)]
    banks = [(first_m + i * width, first_m + (i + 1) * width - 1)
             for i in range(n_full)]
    banks[-1] = (banks[-1][0], last_m)
    return banks


def new_model(kind: str, m_lo: int, m_hi: int, n_sections: int,
              rng: np.random.Generator, hidden_enc: int = DEFAULT_HIDDEN_ENC,
              hidden_dec: int | None = None, use_bias: bool = False,
              norm: NormStats | None = None) -> EdModel:
    if hidden_dec is None:
        hidden_dec = DEFAULT_HIDDEN_DEC[kind]
    ctx_len = hidden_enc + (m_hi - m_lo + 1) + 1
    dec_in = 4 + ctx_len
    state_width = hidden_dec * (2 if kind == KIND_EDB else 1)
    limit = np.sqrt(6.0 / (state_width + 1))
    model = EdModel(
        kind=kind, m_lo=m_lo, m_hi=m_hi, n_sections=n_sections,
        enc=init_gru(rng, hidden_enc, 2, use_bias),
        dec_fwd=init_gru(rng, hidden_dec, dec_in, use_bias),
        dec_bwd=init_gru(rng, hidden_dec, dec_in, use_bias) if kind == KIND_EDB else None,
        w_embed=rng.uniform(-1, 1, (hidden_dec, ctx_len))
                * np.sqrt(6.0 / (hidden_dec + ctx_len)),
        w_out=rng.uniform(-limit, limit, state_width),
        b_embed=np.zeros(hidden_dec) if use_bias else None,
        b_out=np.zeros(1) if use_bias else None,
        norm=norm if norm is not None else NormStats.identity())
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Forward and backward passes (batched over examples that share m; B may be 1)

def _normalize_batch(model: EdModel, exs: list[TrainingExample]):
    m = exs[0].m
    if any(ex.m != m for ex in exs):
        raise ValueError("a forward batch must share one current position m")
    if any(ex.enc.shape != (m, 2) or ex.dec.shape != (ex.k, 4) for ex in exs):
        raise ValueError(f"examples need an ({m}, 2) encoder sequence and a "
                         "(K, 4) decoder sequence for K targets")
    if not model.m_lo <= m <= model.m_hi:
        raise CoverageError(f"position m={m} outside model bank "
                            f"[{model.m_lo}, {model.m_hi}]")
    norm = model.norm
    enc = np.stack([ex.enc for ex in exs], axis=2)        # (m, 2, B)
    dec = np.stack([ex.dec for ex in exs], axis=2)        # (K, 4, B)
    enc_n = norm.norm_travel(enc)
    dec_n = np.empty_like(dec)
    dec_n[:, DEC_Z_PV] = norm.norm_travel(dec[:, DEC_Z_PV])
    dec_n[:, DEC_Z_PW] = norm.norm_travel(dec[:, DEC_Z_PW])
    dec_n[:, DEC_TE_PV] = norm.norm_tod(dec[:, DEC_TE_PV])
    dec_n[:, DEC_TE_PW] = norm.norm_tod(dec[:, DEC_TE_PW])
    tc_n = norm.norm_tod(np.array([ex.t_c for ex in exs]))
    onehot = np.zeros(model.bank_width)
    onehot[m - model.m_lo] = 1.0
    targets_n = norm.norm_travel(np.stack([ex.targets for ex in exs], axis=1))
    return enc_n, dec_n, onehot, tc_n, targets_n


def _embed(model: EdModel, e_a: np.ndarray) -> np.ndarray:
    s = model.w_embed @ e_a
    if model.b_embed is not None:
        s = s + model.b_embed[:, None]
    return np.tanh(s)


def _forward(model: EdModel, exs: list[TrainingExample]):
    """Normalized predictions (K, B) and targets for a same-m batch, plus the
    intermediates :func:`_batch_step` backpropagates through.

    The context ``e_a`` is [final encoder state; one-hot(m); normalized T_c].
    """
    enc_n, dec_n, onehot, tc_n, targets_n = _normalize_batch(model, exs)
    k, _, b = dec_n.shape
    if k < 1:
        raise ValueError("decoder needs at least one step; empty queries "
                         "should not reach the model")
    enc_states, enc_cache = gru_forward(
        model.enc, np.zeros((model.hidden_enc, b)), enc_n)
    e_a = np.concatenate([enc_states[-1], np.repeat(onehot[:, None], b, axis=1),
                          tc_n[None, :]], axis=0)
    h0 = _embed(model, e_a)
    states, fwd_cache = gru_forward(model.dec_fwd, h0, dec_n, ctx=e_a)
    bwd_cache = None
    if model.kind == KIND_EDB:
        bwd_states, bwd_cache = gru_forward(model.dec_bwd, h0, dec_n, ctx=e_a,
                                            reverse=True)
        states = np.concatenate([states, bwd_states], axis=1)
    y = model.w_out @ states                               # (K, B)
    if model.b_out is not None:
        y = y + model.b_out[0]
    return y, targets_n, (e_a, enc_cache, h0, states, fwd_cache, bwd_cache)


def predict_example(model: EdModel, ex: TrainingExample) -> np.ndarray:
    """Per-section travel-time predictions (seconds) for one example."""
    y, _, _ = _forward(model, [ex])
    return model.norm.denorm_travel(y[:, 0])


def loss(pred_norm: np.ndarray, targets_norm: np.ndarray) -> float:
    """Mean squared error over normalized components."""
    pred_norm = np.asarray(pred_norm, dtype=np.float64)
    targets_norm = np.asarray(targets_norm, dtype=np.float64)
    if pred_norm.shape != targets_norm.shape:
        raise ValueError("prediction/target length mismatch")
    if pred_norm.size < 1:
        raise ValueError("loss needs at least one component")
    return float(np.mean((pred_norm - targets_norm) ** 2))


def _batch_step(model: EdModel, exs: list[TrainingExample]
                ) -> tuple[float, dict]:
    """Loss and exact mean-loss gradients for a same-m batch of examples."""
    y, targets_n, (e_a, enc_cache, h0, states, fwd_cache,
                   bwd_cache) = _forward(model, exs)
    k, b = y.shape
    resid = y - targets_n
    batch_loss = float(np.mean(resid ** 2))
    dy = (2.0 / (k * b)) * resid

    grads = dict.fromkeys(model.params())                  # keeps parameter order
    grads["out.w"] = np.tensordot(states, dy, axes=([0, 2], [0, 1]))
    if model.b_out is not None:
        grads["out.b"] = np.array([dy.sum()])
    dstates = model.w_out[:, None] * dy[:, None, :]        # (K, width, B)

    hd = model.hidden_dec
    g, dh0, de_a = gru_backward(model.dec_fwd, fwd_cache, dstates[:, :hd])
    grads.update(g.as_dict("dec_fwd."))
    if model.kind == KIND_EDB:
        g, dh0_bwd, de_a_bwd = gru_backward(model.dec_bwd, bwd_cache,
                                            dstates[:, hd:])
        grads.update(g.as_dict("dec_bwd."))
        dh0 = dh0 + dh0_bwd
        de_a = de_a + de_a_bwd

    ds0 = dh0 * (1.0 - h0 ** 2)
    grads["embed.w"] = ds0 @ e_a.T
    if model.b_embed is not None:
        grads["embed.b"] = ds0.sum(axis=1)
    de_a += model.w_embed.T @ ds0

    denc = np.zeros_like(enc_cache.states)
    denc[-1] = de_a[:model.hidden_enc]
    g, _, _ = gru_backward(model.enc, enc_cache, denc)
    grads.update(g.as_dict("enc."))
    return batch_loss, grads


def model_loss(model: EdModel, ex: TrainingExample) -> float:
    """Training loss of one example (MSE over normalized targets)."""
    y, targets_n, _ = _forward(model, [ex])
    return loss(y[:, 0], targets_n[:, 0])


def model_backward(model: EdModel, ex: TrainingExample) -> tuple[float, dict]:
    """Exact gradient of one example's loss w.r.t. every model parameter."""
    return _batch_step(model, [ex])


def mean_loss(model: EdModel, examples: list[TrainingExample]) -> float:
    if not examples:
        raise ValueError("mean_loss over an empty example set")
    by_m: dict[int, list[TrainingExample]] = {}
    for ex in examples:
        by_m.setdefault(ex.m, []).append(ex)
    total = 0.0
    for exs in by_m.values():
        for lo in range(0, len(exs), LOSS_CHUNK):
            y, targets_n, _ = _forward(model, exs[lo:lo + LOSS_CHUNK])
            total += float(np.sum(np.mean((y - targets_n) ** 2, axis=0)))
    return total / len(examples)


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainConfig:
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 60
    patience: int = 5
    hidden_enc: int = DEFAULT_HIDDEN_ENC
    hidden_dec_edu: int = DEFAULT_HIDDEN_DEC[KIND_EDU]
    hidden_dec_edb: int = DEFAULT_HIDDEN_DEC[KIND_EDB]
    use_bias: bool = False
    seed: int = 0

    def hidden_dec(self, kind: str) -> int:
        return self.hidden_dec_edu if kind == KIND_EDU else self.hidden_dec_edb


def train_model(model: EdModel, train_ex: list[TrainingExample],
                val_ex: list[TrainingExample], cfg: TrainConfig,
                rng: np.random.Generator) -> list[dict]:
    """Minibatch Adam with early stopping on validation loss.

    Batches are drawn within one current-position group so each batch runs
    as matrix-shaped GRU steps; batch order and composition are shuffled
    per epoch from ``rng``. With a validation set, training stops after
    ``patience`` epochs without improvement and the best weights are
    restored (they are also restored when the epoch budget runs out).
    """
    if not train_ex:
        raise ValueError("no training examples")
    params = model.params()
    state = init_adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                      eps=cfg.eps)
    by_m: dict[int, list[TrainingExample]] = {}
    for ex in train_ex:
        by_m.setdefault(ex.m, []).append(ex)
    bank = f"{model.kind} bank m={model.m_lo}-{model.m_hi}"
    history: list[dict] = []
    best_val = np.inf
    best_weights = None
    bad_epochs = 0
    for epoch in range(cfg.max_epochs):
        batches = []
        for m in sorted(by_m):
            exs = by_m[m]
            order = rng.permutation(len(exs))
            for lo in range(0, len(exs), cfg.batch_size):
                batches.append([exs[i] for i in order[lo:lo + cfg.batch_size]])
        rng.shuffle(batches)
        total, count = 0.0, 0
        for index, batch in enumerate(batches):
            batch_loss, grads = _batch_step(model, batch)
            if not np.isfinite(batch_loss):
                raise NonFiniteLossError(
                    f"{bank}: training loss is {batch_loss} at epoch {epoch}, "
                    f"batch {index}")
            bad = next((name for name, g in grads.items()
                        if not np.isfinite(g).all()), None)
            if bad is not None:
                raise NonFiniteGradientError(
                    f"{bank}: gradient of {bad} is not finite at epoch {epoch}, "
                    f"batch {index}")
            adam_step(params, grads, state)
            total += batch_loss * len(batch)
            count += len(batch)
        entry = {"epoch": epoch, "train_loss": total / count, "val_loss": None}
        if val_ex:
            val_loss = mean_loss(model, val_ex)
            entry["val_loss"] = val_loss
            if val_loss < best_val:
                best_val = val_loss
                best_weights = model.clone_weights()
                bad_epochs = 0
            else:
                bad_epochs += 1
        history.append(entry)
        if val_ex and bad_epochs >= cfg.patience:
            break
    if best_weights is not None:
        model.load_weights(best_weights)
    return history


@dataclass
class ModelBank:
    """Ordered models covering every position m in [3, n_sections-1]."""

    kind: str
    n_sections: int
    models: list[EdModel]

    def validate(self) -> None:
        expect = bank_layout(self.n_sections)
        got = [(mo.m_lo, mo.m_hi) for mo in self.models]
        if got != expect:
            raise ValueError(f"bank ranges {got} do not tile {expect}")
        for mo in self.models:
            if mo.kind != self.kind:
                raise ValueError("mixed model kinds in one bank")
            mo.validate()

    def model_for(self, m: int) -> EdModel:
        if not FIRST_POSITION <= m <= self.n_sections - 1:
            raise CoverageError(
                f"position m={m} is not covered; models span m in "
                f"[{FIRST_POSITION}, {self.n_sections - 1}] over banks "
                f"{[(mo.m_lo, mo.m_hi) for mo in self.models]}")
        for mo in self.models:
            if mo.m_lo <= m <= mo.m_hi:
                return mo
        raise CoverageError(f"no bank owns position m={m}")


@dataclass
class BankTrainResult:
    bank: ModelBank
    histories: dict    # (m_lo, m_hi) -> per-epoch history
    skipped: list      # (m_lo, m_hi) ranges with no training examples


def _split_val(examples: list[TrainingExample]
               ) -> tuple[list[TrainingExample], list[TrainingExample]]:
    weeks = sorted({ex.week for ex in examples})
    if len(weeks) < 2:
        return examples, []
    val_week = weeks[-1]
    return ([ex for ex in examples if ex.week != val_week],
            [ex for ex in examples if ex.week == val_week])


def train_bank(kind: str, examples: list[TrainingExample], n_sections: int,
               cfg: TrainConfig, pool=None) -> BankTrainResult:
    """Train one model per bank on its own examples.

    The last training week serves as the validation split. Banks without
    examples are reported as skipped and keep their initial weights. When
    ``pool`` (a concurrent.futures executor) is given, banks train in
    parallel; results are identical either way because every bank derives
    its own RNG from (seed, kind, bank index).
    """
    layout = bank_layout(n_sections)
    jobs = []
    for idx, (m_lo, m_hi) in enumerate(layout):
        exs = [ex for ex in examples if m_lo <= ex.m <= m_hi]
        jobs.append((idx, m_lo, m_hi, exs))
    models: list[EdModel | None] = [None] * len(layout)
    histories = {}
    skipped = []
    if pool is None:
        results = [_train_one_bank(kind, n_sections, cfg, *job) for job in jobs]
    else:
        results = list(pool.map(_train_one_bank,
                                *zip(*[(kind, n_sections, cfg, *job)
                                       for job in jobs])))
    for idx, model, history, was_skipped in results:
        models[idx] = model
        m_range = (model.m_lo, model.m_hi)
        histories[m_range] = history
        if was_skipped:
            skipped.append(m_range)
    bank = ModelBank(kind=kind, n_sections=n_sections, models=models)
    bank.validate()
    return BankTrainResult(bank=bank, histories=histories, skipped=skipped)


def _train_one_bank(kind, n_sections, cfg, idx, m_lo, m_hi, exs):
    kind_tag = 0 if kind == KIND_EDU else 1
    init_rng = spawn_rng(cfg.seed, 10 + kind_tag, idx)
    model = new_model(kind, m_lo, m_hi, n_sections, init_rng,
                      hidden_enc=cfg.hidden_enc,
                      hidden_dec=cfg.hidden_dec(kind), use_bias=cfg.use_bias)
    if not exs:
        return idx, model, [], True
    # duplicating a lone example leaves the pooled statistics unchanged
    model.norm = fit_normalizer(exs if len(exs) >= 2 else exs * 2)
    train_ex, val_ex = _split_val(exs)
    shuffle_rng = spawn_rng(cfg.seed, 20 + kind_tag, idx)
    history = train_model(model, train_ex, val_ex, cfg, shuffle_rng)
    return idx, model, history, False


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
    model = bank.model_for(ex.m)
    for arr in (ex.enc, ex.dec):
        if not np.all(np.isfinite(arr)):
            raise ValueError("query has unresolved (non-finite) inputs")
    travel = predict_example(model, ex)
    cum = np.cumsum(travel)
    return PredictionResult(
        m=ex.m, t_c=ex.t_c,
        sections=np.arange(ex.m + 1, bank.n_sections + 1),
        travel_s=travel, cumulative_s=cum, arrival_s=ex.t_c + cum)


# ---------------------------------------------------------------------------
# Checkpoints

def _gru_to_json(p: GruParams) -> dict:
    d = {k: {"shape": list(v.shape), "data": v.ravel().tolist()}
         for k, v in p.as_dict().items()}
    return d


def _gru_from_json(d: dict) -> GruParams:
    arrs = {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"])
            for k, v in d.items()}
    return GruParams(wz=arrs["wz"], wr=arrs["wr"], w=arrs["w"],
                     uz=arrs["uz"], ur=arrs["ur"], u=arrs["u"],
                     bz=arrs.get("bz"), br=arrs.get("br"), b=arrs.get("b"))


def save_model_json(model: EdModel, path) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": model.kind,
        "m_lo": model.m_lo, "m_hi": model.m_hi,
        "n_sections": model.n_sections,
        "hidden_enc": model.hidden_enc, "hidden_dec": model.hidden_dec,
        "use_bias": model.use_bias,
        "norm": model.norm.to_dict(),
        "weights": {"enc": _gru_to_json(model.enc),
                    "dec_fwd": _gru_to_json(model.dec_fwd),
                    "dec_bwd": (_gru_to_json(model.dec_bwd)
                                if model.dec_bwd is not None else None),
                    "embed.w": {"shape": list(model.w_embed.shape),
                                "data": model.w_embed.ravel().tolist()},
                    "embed.b": (model.b_embed.tolist()
                                if model.b_embed is not None else None),
                    "out.w": {"shape": list(model.w_out.shape),
                              "data": model.w_out.ravel().tolist()},
                    "out.b": (model.b_out.tolist()
                              if model.b_out is not None else None)},
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def load_model_json(path) -> EdModel:
    """Read a checkpoint; malformed or non-finite contents raise DataError."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format: "
                             f"{doc.get('format_version')!r}")
        w = doc["weights"]
        emb = w["embed.w"]
        out = w["out.w"]
        model = EdModel(
            kind=doc["kind"], m_lo=doc["m_lo"], m_hi=doc["m_hi"],
            n_sections=doc["n_sections"],
            enc=_gru_from_json(w["enc"]),
            dec_fwd=_gru_from_json(w["dec_fwd"]),
            dec_bwd=(_gru_from_json(w["dec_bwd"])
                     if w["dec_bwd"] is not None else None),
            w_embed=np.array(emb["data"], dtype=np.float64).reshape(emb["shape"]),
            w_out=np.array(out["data"], dtype=np.float64).reshape(out["shape"]),
            b_embed=np.array(w["embed.b"]) if w["embed.b"] is not None else None,
            b_out=np.array(w["out.b"]) if w["out.b"] is not None else None,
            norm=NormStats.from_dict(doc["norm"]))
        model.validate()
        if not all(np.all(np.isfinite(v)) for v in model.params().values()):
            raise ValueError("non-finite weights")
        if not model.norm.travel_std > 0:
            raise ValueError("travel_std must be positive")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise DataError(f"{path}: malformed checkpoint: "
                        f"{type(e).__name__}: {e}") from e
    return model


def checkpoint_filename(kind: str, m_lo: int, m_hi: int) -> str:
    return f"{kind}_bank_{m_lo:02d}_{m_hi:02d}.json"


def save_bank(bank: ModelBank, out_dir) -> list:
    import os
    paths = []
    for model in bank.models:
        path = os.path.join(str(out_dir),
                            checkpoint_filename(model.kind, model.m_lo, model.m_hi))
        save_model_json(model, path)
        paths.append(path)
    return paths


def load_bank(ckpt_dir, kind: str, n_sections: int) -> ModelBank:
    import os
    models = []
    for m_lo, m_hi in bank_layout(n_sections):
        path = os.path.join(str(ckpt_dir), checkpoint_filename(kind, m_lo, m_hi))
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"missing checkpoint for {kind} bank {m_lo}-{m_hi}: {path}")
        models.append(load_model_json(path))
    bank = ModelBank(kind=kind, n_sections=n_sections, models=models)
    bank.validate()
    return bank
