"""Sub-route evaluation: MAPE/MAE, paired Z-tests, naive baselines, grids.

A sub-route query fixes a current position ``i`` and destination section
``j`` and compares predicted vs. true cumulative travel time over sections
i+1..j. The grid sweeps i over {5, 10, ...} and j upward in steps of 5,
with the route end clamped to the last section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .dataprep import DEC_Z_PV, SECONDS_PER_DAY, TrainingExample, TripRecord, write_csv

DEFAULT_I_VALUES = (5, 10, 15, 20, 25, 30)
DEFAULT_J_STEP = 5
DEFAULT_ALPHA = 0.1
MIN_Z_TEST_SAMPLES = 30
# A trip may run past midnight, not past the next one: the historical-mean
# table spans every time bin a training trip entered, so this bounds its size.
MAX_ENTRY_S = 2 * SECONDS_PER_DAY


def mae(predicted, actual) -> float:
    """Mean absolute error in seconds."""
    predicted, actual = (np.asarray(x, dtype=np.float64) for x in (predicted, actual))
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ValueError("need matching, non-empty prediction/actual arrays")
    return float(np.mean(np.abs(predicted - actual)))


def mape(predicted, actual) -> float:
    """Mean absolute percentage error; actual values must be positive."""
    predicted, actual = (np.asarray(x, dtype=np.float64) for x in (predicted, actual))
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ValueError("need matching, non-empty prediction/actual arrays")
    if np.any(actual <= 0):
        raise ValueError("MAPE requires positive actual values")
    return float(np.mean(np.abs(predicted - actual) / actual) * 100.0)


@dataclass
class ZTestResult:
    z: float
    significant: bool | None     # None when there were too few samples
    direction: str | None        # "a" or "b": whose mean error is lower
    n: int
    status: str                  # "ok", "degenerate", "insufficient_samples"


def paired_z_test(errors_a, errors_b, alpha: float = DEFAULT_ALPHA) -> ZTestResult:
    """Two-sided paired Z-test on per-query error differences a - b.

    Refuses to decide below ``MIN_Z_TEST_SAMPLES`` samples. A zero-variance
    nonzero difference is reported significant by convention with z = +/-inf.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha: must be in (0, 1), got {alpha!r}")
    a, b = (np.asarray(x, dtype=np.float64) for x in (errors_a, errors_b))
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired test needs two equal-length 1-D samples")
    n = a.size
    if n < MIN_Z_TEST_SAMPLES:
        return ZTestResult(math.nan, None, None, n, "insufficient_samples")
    d = a - b
    mean_d, sd = float(np.mean(d)), float(np.std(d, ddof=1))
    if sd == 0.0:
        if mean_d == 0.0:
            return ZTestResult(0.0, False, None, n, "ok")
        return ZTestResult(math.copysign(math.inf, mean_d), True,
                           "a" if mean_d < 0 else "b", n, "degenerate")
    z = mean_d / (sd / math.sqrt(n))
    significant = abs(z) > NormalDist().inv_cdf(1.0 - alpha / 2.0)
    direction = ("a" if mean_d < 0 else "b") if significant else None
    return ZTestResult(z=z, significant=significant, direction=direction,
                       n=n, status="ok")


# ---------------------------------------------------------------------------
# Naive baselines

def baseline_persistence(ex: TrainingExample) -> np.ndarray:
    """Per-section prediction = closest previous bus's travel time there.

    Sections that fell back to previous-week inputs use those values, which
    is exactly what the stored decoder sequence carries.
    """
    pred = ex.dec[:, DEC_Z_PV].copy()
    if not np.all(np.isfinite(pred)):
        raise ValueError("unresolved previous-bus inputs")
    return pred


@dataclass
class HistMeanModel:
    """Training means per (section, weekday, time-of-day bin) in ``table[s - 1,
    weekday, bin]``. A bin no trip entered, and the last one, which serves all
    later times, hold the (section, weekday) mean, or the section's."""

    bin_s: float
    table: np.ndarray    # (sections, 7, time bins + the padding bin)

    def section_mean(self, section: int, weekday: int, t: float) -> float:
        b, pad = int(t // self.bin_s), self.table.shape[2] - 1
        return self.table.item(section - 1, weekday, b if 0 <= b < pad else pad)


def fit_hist_mean(train_trips: list[TripRecord], bin_s: float = 1800.0
                  ) -> HistMeanModel:
    if not train_trips:
        raise ValueError("no training trips")
    travel = np.array([t.travel_times for t in train_trips], dtype=np.float64)
    entry = np.array([t.entry_times for t in train_trips], dtype=np.float64)
    for row, sec in np.argwhere(~((entry >= 0) & (entry < MAX_ENTRY_S)))[:1]:
        raise ValueError(f"trip {train_trips[row].trip_id} enters section {sec + 1} "
                         f"at {entry[row, sec]} s, outside [0, {MAX_ENTRY_S:.0f})")
    n_s, bins = travel.shape[1], int(entry.max() // bin_s) + 2
    # flat (section, weekday) and (section, weekday, bin) keys, a row per trip
    cell = np.arange(n_s) * 7 + np.array([[t.weekday] for t in train_trips])
    key = cell * bins + (entry // bin_s).astype(np.int64)

    def means(keys, size) -> tuple[np.ndarray, np.ndarray]:
        # bincount adds in input order, as a loop over the trips would: same bits
        counts = np.bincount(keys.ravel(), minlength=size)
        sums = np.bincount(keys.ravel(), travel.ravel(), size)
        return sums / np.maximum(counts, 1), counts > 0

    by_bin, seen_bin = means(key, n_s * 7 * bins)
    by_day, seen_day = means(cell, n_s * 7)
    by_day = np.where(seen_day, by_day, np.repeat(means(cell // 7, n_s)[0], 7))
    table = np.where(seen_bin, by_bin, np.repeat(by_day, bins))
    return HistMeanModel(bin_s, table.reshape(n_s, 7, bins))


def baseline_hist_mean(model: HistMeanModel, ex: TrainingExample) -> np.ndarray:
    """Bin-mean predictions, propagating the expected entry time forward."""
    pred, t = np.empty(ex.k), ex.t_c
    for idx in range(ex.k):
        pred[idx] = model.section_mean(ex.m + 1 + idx, ex.day_index % 7, t)
        t += pred[idx]
    return pred


# ---------------------------------------------------------------------------
# Grid evaluation

def grid_j_values(i: int, n_sections: int, step: int = DEFAULT_J_STEP
                  ) -> list[int]:
    """Destinations i+step, i+2*step, ... with the route end as the last j."""
    return [*range(i + step, n_sections, step), n_sections]


@dataclass
class GridRow:
    i: int
    j: int
    method: str
    n: int
    mae_s: float
    mape_pct: float
    sig_vs_edu: str
    sig_vs_edb: str


@dataclass
class QueryRecord:
    i: int
    j: int
    method: str
    day_index: int
    trip_id: int
    predicted_s: float
    true_s: float


def evaluate_grid(methods: dict, examples: list[TrainingExample],
                  n_sections: int, i_values=DEFAULT_I_VALUES,
                  j_step: int = DEFAULT_J_STEP, alpha: float = DEFAULT_ALPHA
                  ) -> tuple[list[GridRow], list[QueryRecord]]:
    """Cumulative-travel-time comparison over the (i, j) grid.

    ``methods`` maps a method name to a callable giving an example's K
    per-section travel-time predictions (seconds), K = n_sections - i;
    another count raises ValueError naming the method. Each report row
    carries paired Z-test outcomes against the "edu" and "edb" methods:
    "better"/"worse"/"ns" (not significant), "n<30", or "-" when the
    comparison does not apply.
    """
    rows: list[GridRow] = []
    queries: list[QueryRecord] = []
    for i in i_values:
        exs, k = [ex for ex in examples if ex.m == i], n_sections - i
        truth_k = np.array([ex.targets for ex in exs]).reshape(len(exs), k)
        preds = {name: [fn(ex) for ex in exs] for name, fn in methods.items()}
        for name, p in preds.items():
            if any(np.shape(v) != (k,) for v in p):
                raise ValueError(f"method {name!r} at i={i}: expected {k} values per query")
            preds[name] = np.array(p, dtype=np.float64).reshape(len(exs), k)
        for j in grid_j_values(i, n_sections, j_step):
            # a row's sum over its first j - i columns has np.sum's bits
            truth = truth_k[:, :j - i].sum(axis=1)
            cum = {name: p[:, :j - i].sum(axis=1) for name, p in preds.items()}
            abs_err = {name: np.abs(cum[name] - truth) for name in methods}
            for name in methods:
                queries += [QueryRecord(i, j, name, ex.day_index, ex.trip_id, p, t)
                            for ex, p, t in zip(exs, cum[name].tolist(), truth.tolist())]
                if not exs:
                    rows.append(GridRow(i, j, name, 0, math.nan, math.nan, "-", "-"))
                    continue
                rows.append(GridRow(i, j, name, len(exs), mae(cum[name], truth),
                                    mape(cum[name], truth),
                                    _sig_flag(name, "edu", abs_err, alpha),
                                    _sig_flag(name, "edb", abs_err, alpha)))
    return rows, queries


def _sig_flag(name: str, ref: str, abs_err: dict, alpha: float) -> str:
    if name == ref or ref not in abs_err:
        return "-"
    res = paired_z_test(abs_err[name], abs_err[ref], alpha=alpha)
    if res.status == "insufficient_samples":
        return "n<30"
    if not res.significant:
        return "ns"
    return "better" if res.direction == "a" else "worse"


def verdict(rows: list[GridRow]) -> dict:
    """Per method, against EDU and EDB when each is another of the rows'
    methods: the (i, j) pairs of lower MAPE and the better/worse flags."""
    mape_of = {(r.i, r.j, r.method): r.mape_pct for r in rows}
    out = {r.method: {} for r in rows}
    for name, refs in out.items():
        own = [r for r in rows if r.method == name]
        for ref in sorted({"edu", "edb"} & out.keys() - {name}):
            flags = [getattr(r, f"sig_vs_{ref}") for r in own]
            refs[f"vs_{ref}"] = {
                "mape_below": sum(r.mape_pct < mape_of[r.i, r.j, ref] for r in own),
                "better": flags.count("better"), "worse": flags.count("worse")}
    return out


REPORT_CSV_HEADER = ["i", "j", "method", "n", "mae_s", "mape_pct",
                     "sig_vs_edu", "sig_vs_edb"]
QUERY_CSV_HEADER = ["i", "j", "method", "day", "trip_id", "predicted_s",
                    "true_s"]


def save_report_csv(rows: list[GridRow], path) -> None:
    write_csv(path, REPORT_CSV_HEADER, (
        [r.i, r.j, r.method, r.n, f"{r.mae_s:.6f}", f"{r.mape_pct:.6f}",
         r.sig_vs_edu, r.sig_vs_edb] for r in rows))


def save_query_log_csv(queries: list[QueryRecord], path) -> None:
    write_csv(path, QUERY_CSV_HEADER, (
        [q.i, q.j, q.method, q.day_index, q.trip_id, f"{q.predicted_s:.6f}",
         f"{q.true_s:.6f}"] for q in queries))
