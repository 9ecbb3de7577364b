"""Trip storage, GPS-trace interpolation, and training-example construction.

A route is split into ``n_sections`` uniform sections numbered 1..N_s. A trip
stores, per section, the clock time it entered the section and the time it
took to traverse it (dwell included). A training example freezes what was
knowable at the moment a bus finished section ``m`` (query time ``T_c``):

* encoder sequence, shape (m, 2): columns ``[z_current, z_prev_week]``,
  ordered from section m down to section 1;
* decoder sequence, shape (K, 4) with K = N_s - m: columns
  ``[z_prev_bus, z_prev_week, entry_prev_bus, entry_prev_week]`` for
  sections m+1..N_s;
* targets, shape (K,): the current trip's travel times over sections
  m+1..N_s.

"Previous bus" is resolved per section: the same-day trip that most recently
entered that section strictly before ``T_c`` (robust to overtaking and
bunching). "Previous week" is the same-weekday trip exactly 7 days earlier
with the closest start time.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86400.0

# Column layout of TrainingExample.dec rows.
DEC_Z_PV, DEC_Z_PW, DEC_TE_PV, DEC_TE_PW = 0, 1, 2, 3
# Column layout of TrainingExample.enc rows.
ENC_Z_CUR, ENC_Z_PW = 0, 1


class DataError(ValueError):
    """Malformed or insufficient input data."""


class PartialTripError(DataError):
    """A GPS trace does not cover the whole route."""


@dataclass(frozen=True)
class RouteSpec:
    n_sections: int
    section_length_m: float = 800.0

    def __post_init__(self):
        if self.n_sections < 4:
            raise ValueError("a route needs at least 4 sections")
        if self.section_length_m <= 0:
            raise ValueError("section length must be positive")

    @property
    def length_m(self) -> float:
        return self.n_sections * self.section_length_m


@dataclass
class TripRecord:
    """One bus trip: per-section entry times and travel times (seconds).

    ``entry_times[n-1]`` and ``travel_times[n-1]`` describe section ``n``
    (sections are 1-based in every public interface). ``day_index`` is an
    absolute calendar day with day 0 a Monday, so ``weekday == day_index % 7``.
    """

    trip_id: int
    day_index: int
    weekday: int
    entry_times: np.ndarray
    travel_times: np.ndarray

    @property
    def start_time(self) -> float:
        return float(self.entry_times[0])

    @property
    def n_sections(self) -> int:
        return len(self.entry_times)

    def entry(self, section: int) -> float:
        return float(self.entry_times[section - 1])

    def travel(self, section: int) -> float:
        return float(self.travel_times[section - 1])

    def validate(self) -> None:
        e, z = self.entry_times, self.travel_times
        if len(e) != len(z):
            raise DataError(f"trip {self.trip_id}: entry/travel length mismatch")
        if not np.all(z > 0):
            raise DataError(f"trip {self.trip_id}: non-positive travel time")
        if not np.all(np.diff(e) > 0):
            raise DataError(f"trip {self.trip_id}: entry times not increasing")
        if not np.allclose(e[1:], e[:-1] + z[:-1], atol=1e-6):
            raise DataError(f"trip {self.trip_id}: entry times inconsistent "
                            "with travel times")
        if self.weekday != self.day_index % 7:
            raise DataError(f"trip {self.trip_id}: weekday does not match day index")


@dataclass
class TrainingExample:
    """One (position m, query time T_c) snapshot; see module docstring."""

    m: int
    t_c: float
    day_index: int
    trip_id: int
    enc: np.ndarray                      # (m, 2)
    dec: np.ndarray                      # (K, 4)
    targets: np.ndarray                  # (K,)
    prev_trip_ids: np.ndarray            # (K,) int, -1 where fallback used
    pw_trip_id: int
    fallback_mask: np.ndarray            # (K,) bool

    @property
    def k(self) -> int:
        return len(self.targets)

    @property
    def week(self) -> int:
        return self.day_index // 7

    def validate(self, n_sections: int) -> None:
        if self.enc.shape != (self.m, 2):
            raise DataError("encoder sequence shape mismatch")
        k = n_sections - self.m
        if self.dec.shape != (k, 4) or self.targets.shape != (k,):
            raise DataError("decoder sequence / target shape mismatch")
        for arr in (self.enc, self.dec, self.targets):
            if not np.all(np.isfinite(arr)):
                raise DataError("non-finite value in training example")
        if np.any(self.enc <= 0) or np.any(self.targets <= 0):
            raise DataError("travel times must be positive")
        entries = self.dec[:, [DEC_TE_PV, DEC_TE_PW]]
        if np.any(entries < 0) or np.any(entries >= SECONDS_PER_DAY):
            raise DataError("entry times must lie in [0, 86400)")
        real = ~self.fallback_mask
        if np.any(self.dec[real, DEC_TE_PV] >= self.t_c):
            raise DataError("previous-bus entry time not before T_c")


@dataclass
class SkipRecord:
    day_index: int
    trip_id: int
    m: int
    reason: str


class _CountingIndex:
    """Sorted (entry_time, trip_id) pairs with a counted predecessor search.

    ``comparisons`` counts key comparisons so tests can assert the
    O(log n)-per-query behavior directly.
    """

    def __init__(self, keys: list[tuple[float, int]]):
        self.keys = sorted(keys)
        self.comparisons = 0

    def predecessor(self, t: float) -> tuple[float, int] | None:
        """Largest (entry, trip_id) with entry strictly below t; ties on
        entry resolve to the largest trip_id by the sort order."""
        lo, hi = 0, len(self.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            self.comparisons += 1
            if self.keys[mid][0] < t:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return None
        return self.keys[lo - 1]


class TripDataset:
    """Immutable collection of trips with per-(day, section) entry indexes."""

    def __init__(self, trips: list[TripRecord], route: RouteSpec):
        for t in trips:
            if t.n_sections != route.n_sections:
                raise DataError(f"trip {t.trip_id} has {t.n_sections} sections, "
                                f"route has {route.n_sections}")
            t.validate()
        self.route = route
        self.trips = sorted(trips, key=lambda t: (t.day_index, t.start_time, t.trip_id))
        self.by_day: dict[int, list[TripRecord]] = {}
        self.by_id: dict[int, TripRecord] = {}
        for t in self.trips:
            self.by_day.setdefault(t.day_index, []).append(t)
            if t.trip_id in self.by_id:
                raise DataError(f"duplicate trip id {t.trip_id}")
            self.by_id[t.trip_id] = t
        self._section_index: dict[tuple[int, int], _CountingIndex] = {}
        self._start_index: dict[int, list[tuple[float, int]]] = {}

    def __len__(self) -> int:
        return len(self.trips)

    def days(self) -> list[int]:
        return sorted(self.by_day)

    def weeks(self) -> list[int]:
        return sorted({d // 7 for d in self.by_day})

    def section_index(self, day: int, section: int) -> _CountingIndex:
        key = (day, section)
        if key not in self._section_index:
            trips = self.by_day.get(day, [])
            self._section_index[key] = _CountingIndex(
                [(t.entry(section), t.trip_id) for t in trips])
        return self._section_index[key]

    def start_index(self, day: int) -> list[tuple[float, int]]:
        if day not in self._start_index:
            self._start_index[day] = sorted(
                (t.start_time, t.trip_id) for t in self.by_day.get(day, []))
        return self._start_index[day]


def closest_prev_trip_at_section(dataset: TripDataset, day: int, section: int,
                                 t_c: float, brute_force: bool = False
                                 ) -> TripRecord | None:
    """Most recent same-day trip that entered ``section`` strictly before t_c.

    Ties on entry time go to the larger trip id (the later dispatch). Returns
    None when no trip qualifies; absence is a valid result.
    """
    if not 1 <= section <= dataset.route.n_sections:
        raise ValueError(f"section {section} outside route")
    if brute_force:
        best = None
        for t in dataset.by_day.get(day, []):
            e = t.entry(section)
            if e < t_c and (best is None or (e, t.trip_id) > (best.entry(section), best.trip_id)):
                best = t
        return best
    hit = dataset.section_index(day, section).predecessor(t_c)
    return dataset.by_id[hit[1]] if hit is not None else None


def closest_prev_week_trip(dataset: TripDataset, day_index: int,
                           start_time: float, brute_force: bool = False
                           ) -> TripRecord | None:
    """Trip from exactly 7 days earlier with the closest start time.

    Same weekday by construction. Ties on |start difference| go to the
    earlier trip.
    """
    prev_day = day_index - 7
    if brute_force:
        best, best_key = None, None
        for t in dataset.by_day.get(prev_day, []):
            key = (abs(t.start_time - start_time), t.start_time, t.trip_id)
            if best_key is None or key < best_key:
                best, best_key = t, key
        return best
    starts = dataset.start_index(prev_day)
    if not starts:
        return None
    lo, hi = 0, len(starts)
    while lo < hi:
        mid = (lo + hi) // 2
        if starts[mid][0] < start_time:
            lo = mid + 1
        else:
            hi = mid
    # Candidates straddle the insertion point; the tie-break needs both.
    cands = starts[max(0, lo - 1):lo + 1]
    best = min(cands, key=lambda s: (abs(s[0] - start_time), s[0], s[1]))
    return dataset.by_id[best[1]]


def build_example(dataset: TripDataset, trip: TripRecord, m: int,
                  pw: TripRecord | None, t_c: float | None = None,
                  fallback: str = "previous_week", brute_force: bool = False
                  ) -> TrainingExample | str:
    """The example for ``trip`` at position m, or the reason it is skipped.

    ``pw`` is the trip's previous-week match (see
    :func:`closest_prev_week_trip`). ``t_c`` defaults to the moment the trip
    finished section m; another query time re-resolves the previous-bus
    inputs as of that time while the encoder sequence and targets stay the
    trip's own. ``fallback`` is applied as in :func:`build_examples`.
    """
    if fallback not in ("previous_week", "skip"):
        raise ValueError(f"unknown fallback policy {fallback!r}")
    n_s = dataset.route.n_sections
    if not 1 <= m <= n_s - 1:
        raise ValueError(f"position m={m} outside [1, {n_s - 1}]")
    if pw is None:
        return "no_previous_week_trip"
    if t_c is None:
        t_c = trip.entry(m + 1)
    k = n_s - m
    enc = np.empty((m, 2))
    enc[:, ENC_Z_CUR] = trip.travel_times[m - 1::-1]
    enc[:, ENC_Z_PW] = pw.travel_times[m - 1::-1]
    dec = np.empty((k, 4))
    prev_ids = np.full(k, -1, dtype=np.int64)
    fb = np.zeros(k, dtype=bool)
    for i in range(k):
        sec = m + 1 + i
        prev = closest_prev_trip_at_section(dataset, trip.day_index, sec,
                                            t_c, brute_force=brute_force)
        if prev is None:
            if fallback == "skip":
                return "no_previous_bus"
            fb[i] = True
            dec[i, DEC_Z_PV] = pw.travel(sec)
            dec[i, DEC_TE_PV] = pw.entry(sec)
        else:
            prev_ids[i] = prev.trip_id
            dec[i, DEC_Z_PV] = prev.travel(sec)
            dec[i, DEC_TE_PV] = prev.entry(sec)
        dec[i, DEC_Z_PW] = pw.travel(sec)
        dec[i, DEC_TE_PW] = pw.entry(sec)
    ex = TrainingExample(
        m=m, t_c=t_c, day_index=trip.day_index, trip_id=trip.trip_id,
        enc=enc, dec=dec, targets=trip.travel_times[m:].copy(),
        prev_trip_ids=prev_ids, pw_trip_id=pw.trip_id, fallback_mask=fb)
    ex.validate(n_s)
    return ex


def build_examples(dataset: TripDataset, positions: range | list | None = None,
                   days: list[int] | None = None, fallback: str = "previous_week",
                   brute_force: bool = False
                   ) -> tuple[list[TrainingExample], list[SkipRecord]]:
    """Construct one example per (trip, m); skipped combinations are reported.

    ``fallback`` controls sections with no previous bus before T_c:
    ``"previous_week"`` substitutes the previous-week travel and entry times
    for that section, ``"skip"`` drops the example. A missing previous-week
    trip always skips the example (those inputs are mandatory at both the
    encoder and the decoder).
    """
    if fallback not in ("previous_week", "skip"):
        raise ValueError(f"unknown fallback policy {fallback!r}")
    if len(dataset) == 0:
        raise DataError("empty dataset")
    if positions is None:
        positions = range(3, dataset.route.n_sections)
    day_set = set(days) if days is not None else None

    examples: list[TrainingExample] = []
    skips: list[SkipRecord] = []
    for trip in dataset.trips:
        if day_set is not None and trip.day_index not in day_set:
            continue
        pw = closest_prev_week_trip(dataset, trip.day_index, trip.start_time,
                                    brute_force=brute_force)
        for m in positions:
            ex = build_example(dataset, trip, m, pw, None, fallback, brute_force)
            if isinstance(ex, str):
                skips.append(SkipRecord(trip.day_index, trip.trip_id, m, ex))
            else:
                examples.append(ex)
    return examples, skips


# ---------------------------------------------------------------------------
# Feature normalization

@dataclass
class NormStats:
    """Two feature families: z-scored travel times, min-max times of day."""

    travel_mean: float
    travel_std: float
    tod_min: float
    tod_max: float

    @classmethod
    def identity(cls) -> "NormStats":
        return cls(0.0, 1.0, 0.0, 1.0)

    def norm_travel(self, x):
        return (np.asarray(x, dtype=np.float64) - self.travel_mean) / self.travel_std

    def denorm_travel(self, x):
        return np.asarray(x, dtype=np.float64) * self.travel_std + self.travel_mean

    def norm_tod(self, x):
        return (np.asarray(x, dtype=np.float64) - self.tod_min) / (self.tod_max - self.tod_min)

    def denorm_tod(self, x):
        return np.asarray(x, dtype=np.float64) * (self.tod_max - self.tod_min) + self.tod_min

    def to_dict(self) -> dict:
        return {"travel_mean": self.travel_mean, "travel_std": self.travel_std,
                "tod_min": self.tod_min, "tod_max": self.tod_max}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(d["travel_mean"], d["travel_std"], d["tod_min"], d["tod_max"])


def fit_normalizer(examples: list[TrainingExample]) -> NormStats:
    """Pool travel-time and time-of-day statistics over training examples."""
    if len(examples) < 2:
        raise ValueError("need at least 2 examples to fit a normalizer")
    travel = np.concatenate([np.concatenate([ex.enc.ravel(),
                                             ex.dec[:, DEC_Z_PV],
                                             ex.dec[:, DEC_Z_PW],
                                             ex.targets]) for ex in examples])
    tod = np.concatenate([np.concatenate([ex.dec[:, DEC_TE_PV],
                                          ex.dec[:, DEC_TE_PW],
                                          [ex.t_c]]) for ex in examples])
    std = float(np.std(travel))
    if std == 0.0:
        warnings.warn("zero-variance travel times; clamping std to 1")
        std = 1.0
    span_lo, span_hi = float(np.min(tod)), float(np.max(tod))
    if span_hi == span_lo:
        warnings.warn("zero-span times of day; clamping span to 1")
        span_hi = span_lo + 1.0
    return NormStats(float(np.mean(travel)), std, span_lo, span_hi)


# ---------------------------------------------------------------------------
# GPS trace interpolation

def interpolate_trip(timestamps, distances, route: RouteSpec, trip_id: int,
                     day_index: int, tolerance_m: float = 10.0
                     ) -> tuple[TripRecord, list[int]]:
    """Turn a (timestamp, distance-along-route) trace into a TripRecord.

    Section boundary crossing times come from linear interpolation between
    the bracketing samples. Samples that move backwards are dropped; indexes
    of samples backing up by more than ``tolerance_m`` are returned so the
    caller can report them.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    dist = np.asarray(distances, dtype=np.float64)
    if ts.shape != dist.shape or ts.ndim != 1 or ts.size < 2:
        raise DataError("trace needs matching 1-D timestamp/distance arrays")
    keep_t, keep_d, rejected = [], [], []
    last = -np.inf
    for i in range(ts.size):
        if dist[i] > last:
            keep_t.append(ts[i])
            keep_d.append(dist[i])
            last = dist[i]
        elif dist[i] < last - tolerance_m:
            rejected.append(i)
    keep_t = np.asarray(keep_t)
    keep_d = np.asarray(keep_d)
    if keep_d.size < 2 or keep_d[0] > 0.0 or keep_d[-1] < route.length_m:
        raise PartialTripError(
            f"trip {trip_id}: trace covers [{keep_d[0] if keep_d.size else 'nan'}, "
            f"{keep_d[-1] if keep_d.size else 'nan'}] m of a "
            f"{route.length_m:.0f} m route")
    boundaries = np.arange(route.n_sections + 1) * route.section_length_m
    crossings = np.interp(boundaries, keep_d, keep_t)
    entry = crossings[:-1]
    travel = np.diff(crossings)
    if not np.all(travel > 0):
        raise DataError(f"trip {trip_id}: zero travel time across a section")
    record = TripRecord(trip_id=trip_id, day_index=day_index,
                        weekday=day_index % 7, entry_times=entry,
                        travel_times=travel)
    record.validate()
    return record, rejected


# ---------------------------------------------------------------------------
# File formats

TRIP_CSV_HEADER = ["trip_id", "day", "weekday", "section", "entry_time_s",
                   "travel_time_s"]
TRACE_CSV_HEADER = ["trip_id", "timestamp_s", "route_distance_m"]
SKIP_CSV_HEADER = ["day", "trip_id", "m", "reason"]


def save_trips_csv(trips: list[TripRecord], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(TRIP_CSV_HEADER)
        for t in trips:
            for sec in range(1, t.n_sections + 1):
                w.writerow([t.trip_id, t.day_index, t.weekday, sec,
                            f"{t.entry(sec):.6f}", f"{t.travel(sec):.6f}"])


def load_trips_csv(path, route: RouteSpec) -> TripDataset:
    rows: dict[int, dict] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != TRIP_CSV_HEADER:
            raise DataError(f"unexpected trip CSV header: {header}")
        for lineno, row in enumerate(reader, start=2):
            try:
                trip_id, day, weekday, sec = (int(row[0]), int(row[1]),
                                              int(row[2]), int(row[3]))
                entry, travel = float(row[4]), float(row[5])
            except (ValueError, IndexError) as e:
                raise DataError(f"{path}: malformed row {lineno}: {row}") from e
            r = rows.setdefault(trip_id, {"day": day, "weekday": weekday,
                                          "entry": {}, "travel": {}})
            r["entry"][sec] = entry
            r["travel"][sec] = travel
    if not rows:
        raise DataError(f"{path}: no trip rows")
    trips = []
    for trip_id, r in rows.items():
        secs = sorted(r["entry"])
        if secs != list(range(1, route.n_sections + 1)):
            raise DataError(f"trip {trip_id}: sections {secs[:3]}... do not "
                            f"cover 1..{route.n_sections}")
        trips.append(TripRecord(
            trip_id=trip_id, day_index=r["day"], weekday=r["weekday"],
            entry_times=np.array([r["entry"][s] for s in secs]),
            travel_times=np.array([r["travel"][s] for s in secs])))
    return TripDataset(trips, route)


def load_trace_csv(path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Read GPS traces: trip_id -> (timestamps, route distances), file order.

    Feed each trip's arrays to :func:`interpolate_trip` to get TripRecords.
    """
    traces: dict[int, tuple[list, list]] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != TRACE_CSV_HEADER:
            raise DataError(f"unexpected trace CSV header: {header}")
        for lineno, row in enumerate(reader, start=2):
            try:
                trip_id, ts, dist = int(row[0]), float(row[1]), float(row[2])
            except (ValueError, IndexError) as e:
                raise DataError(f"{path}: malformed row {lineno}: {row}") from e
            t, d = traces.setdefault(trip_id, ([], []))
            t.append(ts)
            d.append(dist)
    return {k: (np.asarray(t), np.asarray(d)) for k, (t, d) in traces.items()}


def save_skip_report_csv(skips: list[SkipRecord], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(SKIP_CSV_HEADER)
        for s in skips:
            w.writerow([s.day_index, s.trip_id, s.m, s.reason])


def save_examples_jsonl(examples: list[TrainingExample], path) -> None:
    with open(path, "w") as f:
        for ex in examples:
            f.write(json.dumps({
                "m": ex.m, "t_c": ex.t_c, "day": ex.day_index,
                "trip_id": ex.trip_id, "enc": ex.enc.tolist(),
                "dec": ex.dec.tolist(), "targets": ex.targets.tolist(),
                "prev_trip_ids": ex.prev_trip_ids.tolist(),
                "pw_trip_id": ex.pw_trip_id,
                "fallback": ex.fallback_mask.astype(int).tolist()}))
            f.write("\n")


def load_examples_jsonl(path) -> list[TrainingExample]:
    examples = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                examples.append(TrainingExample(
                    m=d["m"], t_c=d["t_c"], day_index=d["day"],
                    trip_id=d["trip_id"], enc=np.array(d["enc"]),
                    dec=np.array(d["dec"]), targets=np.array(d["targets"]),
                    prev_trip_ids=np.array(d["prev_trip_ids"], dtype=np.int64),
                    pw_trip_id=d["pw_trip_id"],
                    fallback_mask=np.array(d["fallback"], dtype=bool)))
            except (KeyError, TypeError, ValueError) as e:
                # TypeError: valid JSON that is not an object, e.g. [1, 2]
                raise DataError(f"{path}:{lineno}: malformed example: "
                                f"{type(e).__name__}: {e}") from e
    return examples


def example_key(ex: TrainingExample) -> tuple:
    """Hashable identity of an example, for set-equality comparisons."""
    return (ex.m, ex.day_index, ex.trip_id, round(ex.t_c, 9),
            ex.enc.round(9).tobytes(), ex.dec.round(9).tobytes(),
            ex.targets.round(9).tobytes(), ex.prev_trip_ids.tobytes(),
            ex.pw_trip_id, ex.fallback_mask.tobytes())
