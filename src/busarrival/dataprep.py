"""Trip storage and training-example construction.

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
with the closest start time. Both search one sort per (day, section) of the
dataset's rows (:meth:`TripDataset.day_order`) for all of a day's trips at
once, in the one resolver that ``prepare``, ``predict`` and ``evaluate`` share.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

SECONDS_PER_DAY = 86400.0
# The first position m that examples are built for and models cover.
FIRST_POSITION = 3
# The most sections a route may have: about 30 times the paper's 34, and small
# enough that the per-trip arrays and the bank layout stay small; a larger
# count would allocate before any check named it.
MAX_SECTIONS = 1000
# The most weeks a simulation may cover: ten years, 65 times the paper's 8.
# The simulator allocates every week's trips at once, so a larger count
# would run out of memory before any check named it.
MAX_WEEKS = 520
# The most congestion events a simulated day may average, 125 times the default
# 8: the simulator builds all days' events at once, and numpy's draw overflows.
MAX_EVENTS_PER_DAY = 1000
# A section with no previous bus before T_c: use previous-week inputs (the
# default) or skip the example.
FALLBACK_POLICIES = ("previous_week", "skip")

# Column layout of TrainingExample.dec rows.
DEC_Z_PV, DEC_Z_PW, DEC_TE_PV, DEC_TE_PW = 0, 1, 2, 3
# Column layout of TrainingExample.enc rows.
ENC_Z_CUR, ENC_Z_PW = 0, 1


class DataError(ValueError):
    """Malformed or insufficient input data."""


# (test, what a value must be) rules for check_ranges.
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
POSITIVE = (lambda v: v > 0, "> 0")
NON_NEGATIVE = (lambda v: v >= 0, ">= 0")


def check_ranges(settings, rules: dict) -> None:
    """Raise ValueError ``"<name>: must be <rule>, got <value>"`` for the first
    attribute of ``settings`` named in ``rules`` whose value fails its test.
    Reads with getattr: ``vars(settings)`` would materialize ``__dict__`` and
    slow later attribute reads (``simulate_dataset`` ~25% on CPython 3.11)."""
    for name, (test, rule) in rules.items():
        value = getattr(settings, name)
        if not test(value):
            raise ValueError(f"{name}: must be {rule}, got {value!r}")


@dataclass(frozen=True)
class RouteSpec:
    n_sections: int
    section_length_m: float = 800.0

    def __post_init__(self):
        check_ranges(self, {"n_sections": (lambda v: 4 <= v <= MAX_SECTIONS,
                                           f"in [4, {MAX_SECTIONS}]"),
                            "section_length_m": POSITIVE})


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

    def entry(self, section: int) -> float:
        return float(self.entry_times[section - 1])

    def travel(self, section: int) -> float:
        return float(self.travel_times[section - 1])


def trip_arrays(trips: list[TripRecord], n_sections: int) -> tuple:
    """``(ids, day, weekday, entry, travel)`` of ``trips`` of ``n_sections``
    sections, row i for ``trips[i]``, as :func:`check_trips` takes them."""
    return (*(np.array([getattr(t, name) for t in trips], dtype=np.int64)
              for name in ("trip_id", "day_index", "weekday")),
            *(np.array([getattr(t, name) for t in trips]).reshape(len(trips),
                                                                  n_sections)
              for name in ("entry_times", "travel_times")))


def check_trips(ids, day, weekday, e, z) -> None:
    """Raise DataError for the first trip, in row order, that is not valid,
    with the message of the first check it fails. The entry times ``e`` and
    travel times ``z`` are (trips × sections), the others one per trip."""
    fails = [(~(z > 0).all(axis=1), "non-positive travel time"),
             (~(np.diff(e) > 0).all(axis=1), "entry times not increasing"),
             (~np.isclose(e[:, 1:], e[:, :-1] + z[:, :-1], atol=1e-6).all(axis=1),
              "entry times inconsistent with travel times"),
             (~((day >= 0) & (day < 7 * MAX_WEEKS)),
              f"day index outside [0, {7 * MAX_WEEKS})"),
             (weekday != day % 7, "weekday does not match day index"),
             # examples mark "no previous bus" with id -1
             (ids < 0, "negative trip id")]
    bad = np.any([mask for mask, _ in fails], axis=0)
    if bad.any():
        row = int(np.argmax(bad))
        message = next(message for mask, message in fails if mask[row])
        error = DataError(f"trip {ids[row]}: {message}")
        error.row = row         # a file reader names the line the row came from
        raise error


@dataclass(slots=True)
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

    @property
    def k(self) -> int:
        return len(self.targets)

    @property
    def fallback_mask(self) -> np.ndarray:
        """Read-only (K,) bool, True where no previous bus was found."""
        mask = self.prev_trip_ids == -1
        mask.flags.writeable = False
        return mask

    @property
    def week(self) -> int:
        return self.day_index // 7

    def validate(self, n_sections: int) -> None:
        """Raise DataError unless this is a valid example; with ``t_c`` of
        shape (n,), a leading axis of n on every array and lists of n ids
        (or None), a block of n."""
        lead, m, k = np.shape(self.t_c), self.m, n_sections - self.m
        if self.enc.shape != (*lead, m, 2):
            raise DataError("encoder sequence shape mismatch")
        if self.dec.shape != (*lead, k, 4) or self.targets.shape != (*lead, k):
            raise DataError("decoder sequence / target shape mismatch")
        if self.prev_trip_ids.shape != (*lead, k):
            raise DataError("previous-trip ids / fallback mask shape mismatch")
        bad = self.prev_trip_ids[self.prev_trip_ids < -1]
        if bad.size:
            raise DataError(f"previous-trip ids must be -1 (no previous bus) "
                            f"or a trip id, got {bad.flat[0]}")
        for name, end in (("day_index", 7 * MAX_WEEKS), ("trip_id", 2 ** 63),
                          ("pw_trip_id", 2 ** 63)):
            values = getattr(self, name)
            bad = [v for v in (values if isinstance(values, list) else [values])
                   if v is not None and not 0 <= v < end]
            if bad:
                raise DataError(f"{name} must lie in [0, {end}), got {bad[0]}")
        t_c = np.asarray(self.t_c)
        bad = t_c[~((t_c >= 0) & (t_c < SECONDS_PER_DAY))]      # NaN too
        if bad.size:
            raise DataError(f"query time T_c must be finite and lie in "
                            f"[0, 86400), got {bad.flat[0]}")
        for arr in (self.enc, self.dec, self.targets):
            if not np.isfinite(arr).all():
                raise DataError("non-finite value in training example")
        if (self.enc <= 0).any() or (self.targets <= 0).any():
            raise DataError("travel times must be positive")
        entries = self.dec[..., [DEC_TE_PV, DEC_TE_PW]]
        if (entries < 0).any() or (entries >= SECONDS_PER_DAY).any():
            raise DataError("entry times must lie in [0, 86400)")
        if ((self.dec[..., DEC_TE_PV] >= t_c[..., None])
                & (self.prev_trip_ids >= 0)).any():
            raise DataError("previous-bus entry time not before T_c")


def split_week(weeks) -> int | None:
    """The week a split sets aside, the newest of ``weeks``, or None when
    they hold one: the trips' test week and each bank's validation week."""
    weeks = set(weeks)
    return max(weeks) if len(weeks) > 1 else None


@dataclass
class SkipRecord:
    day_index: int
    trip_id: int
    m: int
    reason: str


class TripDataset:
    """Immutable collection of trips as rows sorted by (day, start time,
    trip_id): ``ids`` and ``day``, one per trip, and ``entry`` and ``travel``
    (trips × sections); ``trips[i]`` is the TripRecord view of row i."""

    def __init__(self, trips: list[TripRecord], route: RouteSpec):
        """The dataset of ``trips`` in any order; the first bad one raises DataError."""
        n_s = route.n_sections
        for i, t in enumerate(trips):
            n = len(t.entry_times)
            if not n == len(t.travel_times) == n_s:
                check_trips(*trip_arrays(trips[:i], n_s))  # earlier faults first
                if n != n_s:
                    raise DataError(f"trip {t.trip_id} has {n} sections, route has {n_s}")
                raise DataError(f"trip {t.trip_id}: entry/travel length mismatch")
        self._index(route, *trip_arrays(trips, n_s))

    @classmethod
    def from_arrays(cls, route, ids, day, weekday, entry, travel) -> TripDataset:
        """The dataset of the trips in the rows of arrays :func:`check_trips` takes."""
        dataset = cls.__new__(cls)
        dataset._index(route, ids, day, weekday, entry, travel)
        return dataset

    def _index(self, route, ids, day, weekday, e, z) -> None:
        # the first invalid trip in row order raises its own message
        check_trips(ids, day, weekday, e, z)
        order = np.lexsort((ids, e[:, 0], day))
        self.route = route
        self.ids, self.day = ids[order], day[order]
        self.entry, self.travel = e[order], z[order]
        self.trips = [TripRecord(*fields) for fields in zip(
            self.ids.tolist(), self.day.tolist(), weekday[order].tolist(),
            self.entry, self.travel)]
        self._rows: dict[int, int] = {}
        for row, trip_id in enumerate(self.ids.tolist()):
            if self._rows.setdefault(trip_id, row) != row:
                raise DataError(f"duplicate trip id {trip_id}")
        self._orders: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def days(self) -> list[int]:
        return np.unique(self.day).tolist()

    def row_of(self, trip_id: int) -> int:
        """The row of trip ``trip_id``; DataError if there is none."""
        try:
            return self._rows[trip_id]
        except KeyError:
            raise DataError(f"no trip with id {trip_id}") from None

    def day_rows(self, day: int) -> slice:
        """The rows of ``day``'s trips, empty on a day without trips."""
        return slice(bisect.bisect_left(self.day, day), bisect.bisect_right(self.day, day))

    def day_order(self, day: int) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, order)`` for ``day``: ``keys[c]`` holds the day's entry
        times at section c + 1 in ascending ``(entry time, trip_id)`` order,
        the one sort and tie rule of both searches, and ``order[c, 1:]`` the
        rows of those trips, after a -1 in ``order[c, 0]``."""
        if day not in self._orders:
            rows = self.day_rows(day)
            entry, ids = self.entry[rows].T, self.ids[rows]
            sort = np.lexsort((np.broadcast_to(ids, entry.shape), entry))
            order = np.full((entry.shape[0], len(ids) + 1), -1, dtype=np.int64)
            order[:, 1:] = rows.start + sort
            self._orders[day] = np.take_along_axis(entry, sort, axis=1), order
        return self._orders[day]

    def prev_rows(self, day: int, col: int, t_c):
        """Per query time (any shape), the row of the trip of ``day`` that
        last entered section col + 1 strictly before it, the larger trip id
        on equal entry, or -1."""
        keys, order = self.day_order(day)
        # searchsorted counts the keys below t_c; order[col, 0] is the -1
        return order[col, np.searchsorted(keys[col], t_c)]

    def _scan(self, day: int, col: int, queries, best) -> np.ndarray:
        """Per query, the row ``best`` picks of ``day``'s (entry, trip id, row) keys."""
        rows = self.day_rows(day)
        keys = list(zip(self.entry[rows, col].tolist(), self.ids[rows].tolist(),
                        range(rows.start, rows.stop)))
        found = [best(keys, q)[2] for q in np.ravel(queries).tolist()]
        return np.array(found, dtype=np.int64).reshape(np.shape(queries))

    def scan_prev_rows(self, day: int, col: int, t_c) -> np.ndarray:
        """:meth:`prev_rows` by a scan: the largest key before each query time."""
        return self._scan(day, col, t_c, lambda keys, tc: max(
            (key for key in keys if key[0] < tc), default=(0, 0, -1)))

    def prev_week_rows(self, day: int, starts):
        """Per start time (any shape), the row of the trip of day - 7 with
        the closest start, the earlier trip on equal distance and the
        smaller trip id on equal starts, or -1."""
        keys, order = self.day_order(day - 7)
        keys = np.r_[-np.inf, keys[0], np.inf]            # keys[j] is of order[0, j]
        last = np.searchsorted(keys, starts) - 1          # the last start before
        first = np.searchsorted(keys, keys[last])         # of its equal starts
        return order[0, np.where(starts - keys[first] <= keys[last + 1] - starts,
                                 first, last + 1)]

    def scan_prev_week_rows(self, day: int, starts) -> np.ndarray:
        """:meth:`prev_week_rows` by a scan: the least (|start difference|, key)."""
        return self._scan(day - 7, 0, starts, lambda keys, start: min(
            keys, default=(0, 0, -1), key=lambda key: (abs(key[0] - start), *key)))


def closest_prev_trip_at_section(dataset: TripDataset, day: int, section: int,
                                 t_c: float, brute_force: bool = False
                                 ) -> TripRecord | None:
    """The trip of :meth:`TripDataset.prev_rows` (with ``brute_force``, of
    its scan) at ``section``, or None when no trip entered it before t_c."""
    if not 1 <= section <= dataset.route.n_sections:
        raise ValueError(f"section {section} outside route")
    search = dataset.scan_prev_rows if brute_force else dataset.prev_rows
    row = search(day, section - 1, t_c)
    return dataset.trips[row] if row >= 0 else None


def closest_prev_week_trip(dataset: TripDataset, day_index: int,
                           start_time: float, brute_force: bool = False
                           ) -> TripRecord | None:
    """The trip of :meth:`TripDataset.prev_week_rows` (with ``brute_force``,
    of its scan), or None when no trip ran 7 days earlier."""
    search = dataset.scan_prev_week_rows if brute_force else dataset.prev_week_rows
    row = search(day_index, start_time)
    return dataset.trips[row] if row >= 0 else None


def _assemble(dataset: TripDataset, rows: np.ndarray, positions: list[int],
              t_c: np.ndarray | None, fallback: str, brute_force: bool
              ) -> list[list[TrainingExample | str]]:
    """The decoder-input resolver of both builders: per row of ``rows`` and
    position, the example at query time ``t_c[row, position]`` (by default
    when the trip finished section m), or why it is skipped. Per day, one
    search finds the previous-week trips and one per section the previous
    buses (the index, or with ``brute_force`` the scans); per position, the
    kept trips' fresh arrays are validated once and split into examples, so
    no two examples share memory."""
    n_s = dataset.route.n_sections
    if fallback not in FALLBACK_POLICIES:
        raise ValueError(f"unknown fallback policy {fallback!r}")
    for m in positions:
        if not 1 <= m <= n_s - 1:
            raise ValueError(f"position m={m} outside [1, {n_s - 1}]")
    trip_day, travel = dataset.day[rows], dataset.travel[rows]
    t_c = dataset.entry[rows][:, positions] if t_c is None else t_c
    # the dataset rows of each previous bus and previous-week trip, -1 for none
    prev = np.full((n_s, len(rows), len(positions)), -1, dtype=np.int32)
    pw = np.full(len(rows), -1, dtype=np.int64)
    search, week_search = ((dataset.scan_prev_rows, dataset.scan_prev_week_rows)
                           if brute_force else (dataset.prev_rows, dataset.prev_week_rows))
    for day in set(trip_day.tolist()):
        on_day = trip_day == day
        pw[on_day] = week_search(day, dataset.entry[rows[on_day], 0])
        for col in range(min(positions, default=n_s), n_s):
            prev[col, on_day] = search(day, col, t_c[on_day])
    has_pw = pw >= 0
    # the last row stands in for a missing previous-week trip; its rows are skipped
    pw_entry, pw_travel = dataset.entry[pw], dataset.travel[pw]
    days, ids, pw_ids = (a.tolist() for a in (trip_day, dataset.ids[rows], dataset.ids[pw]))
    out = [[("no_previous_bus" if h else "no_previous_week_trip")] * len(positions)
           for h in has_pw.tolist()]
    for j, m in enumerate(positions):
        keep = np.flatnonzero(has_pw & ((prev[m:, :, j] >= 0).all(axis=0)
                                        if fallback == "skip" else True))
        found = prev[m:, keep, j].T                   # (kept trips, K)
        have = found >= 0
        enc = np.empty((len(keep), m, 2))
        enc[..., ENC_Z_CUR] = travel[keep, m - 1::-1]
        enc[..., ENC_Z_PW] = pw_travel[keep, m - 1::-1]
        dec = np.empty((*found.shape, 4))
        # previous-week values everywhere, then the previous bus where one exists
        dec[..., DEC_Z_PV] = dec[..., DEC_Z_PW] = pw_travel[keep, m:]
        dec[..., DEC_TE_PV] = dec[..., DEC_TE_PW] = pw_entry[keep, m:]
        prev_ids = np.full(found.shape, -1, dtype=np.int64)
        r, c = np.nonzero(have)
        dec[r, c, DEC_Z_PV] = dataset.travel[found[r, c], c + m]
        dec[r, c, DEC_TE_PV] = dataset.entry[found[r, c], c + m]
        prev_ids[r, c] = dataset.ids[found[r, c]]
        targets, tcs = travel[keep, m:], t_c[keep, j]
        # one validation for the block; each example is one of its rows
        TrainingExample(m, tcs, None, None, enc, dec, targets, prev_ids,
                        None).validate(n_s)
        for i, tc, e, d, tg, pid in zip(keep.tolist(), tcs.tolist(), enc, dec,
                                        targets, prev_ids):
            out[i][j] = TrainingExample(m, tc, days[i], ids[i], e, d, tg, pid,
                                        pw_ids[i])
    return out


def build_example(dataset: TripDataset, trip_id: int, m: int,
                  t_c: float | None = None,
                  fallback: str = FALLBACK_POLICIES[0]) -> TrainingExample | str:
    """The example for trip ``trip_id`` at position m, or why it is skipped:
    the one-trip, one-position case of :func:`build_examples`. ``t_c``
    defaults to the moment the trip finished section m; another query time
    re-resolves the previous-bus inputs as of that time, while the encoder
    sequence and targets stay the trip's own."""
    return _assemble(dataset, np.array([dataset.row_of(trip_id)]), [m],
                     None if t_c is None else np.array([[t_c]], dtype=float),
                     fallback, brute_force=False)[0][0]


def build_examples(dataset: TripDataset, positions: range | list | None = None,
                   days: list[int] | None = None,
                   fallback: str = FALLBACK_POLICIES[0],
                   brute_force: bool = False
                   ) -> tuple[list[TrainingExample], list[SkipRecord]]:
    """Construct one example per (trip, m), in that order, as one block per
    position m; skipped combinations are reported.

    ``fallback`` controls sections with no previous bus before T_c:
    ``"previous_week"`` substitutes the previous-week travel and entry times
    for that section, ``"skip"`` drops the example. A missing previous-week
    trip always skips the example (those inputs are mandatory at both the
    encoder and the decoder).
    """
    if len(dataset) == 0:
        raise DataError("empty dataset")
    positions = list(range(FIRST_POSITION, dataset.route.n_sections)
                     if positions is None else positions)
    rows = np.flatnonzero(np.isin(dataset.day, dataset.day if days is None else list(days)))
    out = _assemble(dataset, rows, positions, None, fallback, brute_force)
    return ([ex for row in out for ex in row if not isinstance(ex, str)],
            [SkipRecord(day, trip_id, m, ex) for day, trip_id, row in zip(
                dataset.day[rows].tolist(), dataset.ids[rows].tolist(), out)
             for m, ex in zip(positions, row) if isinstance(ex, str)])


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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(d["travel_mean"], d["travel_std"], d["tod_min"], d["tod_max"])


def fit_normalizer(examples: list[TrainingExample]) -> NormStats:
    """Pool travel-time and time-of-day statistics over training examples."""
    if len(examples) < 2:
        raise ValueError("need at least 2 examples to fit a normalizer")
    # the pieces in example order, which fixes the bits of the mean and std
    travel = np.concatenate([piece for ex in examples for piece in (
        ex.enc.ravel(), ex.dec[:, DEC_Z_PV], ex.dec[:, DEC_Z_PW], ex.targets)])
    tod = np.concatenate([piece for ex in examples for piece in (
        ex.dec[:, DEC_TE_PV], ex.dec[:, DEC_TE_PW], [ex.t_c])])
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
# File formats

TRIP_CSV_HEADER = ["trip_id", "day", "weekday", "section", "entry_time_s",
                   "travel_time_s"]
# The rows of a trips CSV as np.loadtxt reads them.
TRIP_DTYPE = np.dtype([("trip_id", np.int64), ("day", np.int64),
                       ("weekday", np.int64), ("section", np.int64),
                       ("entry", np.float64), ("travel", np.float64)])
SKIP_CSV_HEADER = ["day", "trip_id", "m", "reason"]
# Examples per block of save_examples_jsonl. A block's formatted text is held
# at once, so this bounds the writer's memory: about 6 MB at 34 sections.
WRITE_CHUNK = 1024
# Lines per chunk of load_examples_jsonl. A chunk's lines and stacked copies are
# held at once: at 34 sections, 1,024 lines peaked 2 MB higher than 256.
READ_CHUNK = 256


def write_csv(path, header: list[str], rows) -> None:
    """A CSV file of ``header``, then ``rows``, each line ended by "\\n"."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def save_trips_csv(trips: list[TripRecord], path) -> None:
    """write_csv's bytes, one string per trip: no field (a number) is quoted."""
    with open(path, "w", newline="") as f:
        f.write(",".join(TRIP_CSV_HEADER) + "\n")
        for t in trips:
            head = "%d,%d,%d," % (t.trip_id, t.day_index, t.weekday)
            f.write("".join("%s%d,%.6f,%.6f\n" % (head, sec, e, z) for sec, e, z in zip(
                itertools.count(1), t.entry_times.tolist(), t.travel_times.tolist())))


def _malformed(path, lineno: int, line: str) -> DataError:
    return DataError(f"{path}: malformed row {lineno}: {next(csv.reader([line]), [])}")


def _example_days(path, text: str, trip_id: int) -> set[int]:
    """The day of ``trip_id``'s first row in a trips CSV's ``text`` and the
    day a week before, found by one search for the row's start; reads no
    other line."""
    start = text.find(f"\n{trip_id},") + 1     # the header line is never a row
    if not start:
        raise DataError(f"{path}: no trip {trip_id}")
    end = text.find("\n", start)
    line = text[start:] if end < 0 else text[start:end]
    try:
        day = int(line.split(",")[1])
    except (ValueError, IndexError) as e:
        raise _malformed(path, text.count("\n", 0, start) + 1, line) from e
    return {day, day - 7}


def _read_rows(lines: list[str], days) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a trips CSV's data ``lines`` on ``days`` (all if None) as
    TRIP_DTYPE records, by one ``np.loadtxt`` call, and the indices of the
    lines kept; ValueError if a line read is malformed."""
    if "" in lines:                     # np.loadtxt would skip a blank line
        raise ValueError("blank row")
    kept = np.arange(len(lines))
    csv_format = {"delimiter": ",", "comments": None, "ndmin": 1}
    with warnings.catch_warnings():
        # older numpy reads "7.9" as the integer 7, with only this warning
        warnings.simplefilter("error", DeprecationWarning)
        if days is not None and lines:
            kept = np.flatnonzero(np.isin(np.loadtxt(
                lines, np.int64, usecols=1, **csv_format), list(days)))
            lines = [lines[i] for i in kept]
        # np.loadtxt warns when it reads no rows
        return (np.loadtxt(lines, TRIP_DTYPE, **csv_format) if lines
                else np.empty(0, TRIP_DTYPE)), kept


def _sort_trip_rows(path, rows: np.ndarray, kept: np.ndarray):
    """``rows`` sorted by trip and section, the start of each trip's run in
    them and, per trip, the index of its first row. Raises DataError naming
    ``path:line`` for the first row whose day or weekday differs from its
    trip's first row, or that repeats a section; ``kept`` maps rows to lines
    as :func:`_read_rows` does."""
    # the sort is stable, so of two rows that tie the earlier one comes first
    order = np.lexsort((rows["section"], rows["trip_id"]))
    s = rows[order]
    new_trip = np.ones(rows.size, dtype=bool)
    new_trip[1:] = s["trip_id"][1:] != s["trip_id"][:-1]
    starts = np.flatnonzero(new_trip)
    first = np.minimum.reduceat(order, starts)
    lead = np.empty_like(order)                     # per row, its trip's first
    lead[order] = first[np.cumsum(new_trip) - 1]
    moved = rows[["day", "weekday"]] != rows[["day", "weekday"]][lead]
    repeat = np.zeros(rows.size, dtype=bool)
    repeat[order[1:]] = ~new_trip[1:] & (s["section"][1:] == s["section"][:-1])
    if (moved | repeat).any():
        k = int(np.argmax(moved | repeat))
        (trip_id, day, weekday, sec, _, _), head = rows[k], rows[lead[k]]
        where = f"{path}:{2 + kept[k]}: trip {trip_id}"
        if moved[k]:
            raise DataError(f"{where} has day {day}, weekday {weekday}; its "
                            f"earlier rows say day {head['day']}, weekday "
                            f"{head['weekday']}")
        raise DataError(f"{where} repeats section {sec}")
    return s, starts, first


def load_trips_csv(path, route: RouteSpec,
                   for_trip: int | None = None) -> TripDataset:
    """The trips of a trips CSV, or only those of the two days an example of
    trip ``for_trip`` reads, its own and the day a week before: rows of
    other days are read no further than their day, and every check applies
    to the rows kept. The rows kept are parsed as a whole and checked as
    arrays; an error names the first line at fault."""
    with open(path) as f:
        text = f.read()
    header, *lines = text.split("\n")
    header = next(csv.reader([header]), None) if header else None
    if header != TRIP_CSV_HEADER:
        raise DataError(f"{path}: unexpected trip CSV header: {header}")
    if lines[-1:] == [""]:
        lines.pop()                     # after the newline ending the last row
    days = None if for_trip is None else _example_days(path, text, for_trip)
    del text            # the lines hold the same characters; keep one copy
    try:
        rows, kept = _read_rows(lines, days)
    except ValueError as e:
        # a re-scan, one line at a time, finds the first malformed line
        for i, line in enumerate(lines):
            try:
                _read_rows([line], days)
            except ValueError:
                # a fault in the rows before it comes first
                _sort_trip_rows(path, *_read_rows(lines[:i], days))
                raise _malformed(path, i + 2, line) from e
        raise DataError(f"{path}: {e}") from e
    if not rows.size:
        raise DataError(f"{path}: no trip rows")
    s, starts, first = _sort_trip_rows(path, rows, kept)
    n_s = route.n_sections
    ends = np.r_[starts[1:], rows.size]
    # distinct sections cover 1..N exactly when N of them run from 1 to N
    bad = ((ends - starts != n_s) | (s["section"][starts] != 1)
           | (s["section"][ends - 1] != n_s))
    if bad.any():
        t = np.flatnonzero(bad)[np.argmin(first[bad])]
        secs = s["section"][starts[t]:ends[t]][:3].tolist()
        raise DataError(f"{path}:{2 + kept[first[t]]}: trip {s['trip_id'][starts[t]]}: "
                        f"sections {secs}... do not cover 1..{n_s}")
    # one row per trip, in order of first appearance, to name the first bad one
    s = s.reshape(-1, n_s)[np.argsort(first)]
    try:
        return TripDataset.from_arrays(route, *(s[c][:, 0] for c in (
            "trip_id", "day", "weekday")), s["entry"], s["travel"])
    except DataError as e:      # check_trips names the trip by its first line
        raise DataError(f"{path}:{2 + kept[np.sort(first)[e.row]]}: {e}") from e


def save_skip_report_csv(skips: list[SkipRecord], path) -> None:
    write_csv(path, SKIP_CSV_HEADER,
              ([s.day_index, s.trip_id, s.m, s.reason] for s in skips))


def _json_lists(arrays: list[np.ndarray], width: int | None,
                derive=lambda flat: flat) -> list[str]:
    """``json.dumps(derive(a).tolist())`` for each of ``arrays``, all of one
    dtype and 1-D (``width`` None) or with ``width`` columns, formatting each
    distinct value of a column once; ``derive`` maps all values at once.
    Values are told apart by their bit patterns, so -0.0 stays apart from
    0.0, and one ``json.dumps`` writes a column's distinct values, so JSON's
    own rules write NaN, Infinity and exponents."""
    flat = derive(np.concatenate(arrays, axis=None)).reshape(-1, width or 1)
    pieces = np.empty(flat.shape, dtype=object)
    for c in range(flat.shape[1]):
        keys, inv = np.unique(flat[:, c].view(f"u{flat.itemsize}"),
                              return_inverse=True)
        texts = json.dumps(keys.view(flat.dtype).tolist())[1:-1].split(", ")
        sep = "], [" if width and c == width - 1 else ", "
        pieces[:, c] = np.array([t + sep for t in texts], dtype=object)[inv]
    pieces = pieces.ravel().tolist()
    # each list's text drops the separator after its last value
    cut, open_, close = (-4, "[[", "]]") if width else (-2, "[", "]")
    out, start = [], 0
    for end in np.cumsum([a.size for a in arrays]).tolist():
        out.append(open_ + "".join(pieces[start:end])[:cut] + close
                   if end > start else "[]")
        start = end
    return out


def save_examples_jsonl(examples: list[TrainingExample], path) -> None:
    """One JSON object per example and line, the bytes that ``json.dumps``
    of each example's dict writes, built in blocks of at most
    ``WRITE_CHUNK`` consecutive examples whose arrays share their dtypes."""
    dtypes = lambda ex: (ex.enc.dtype, ex.dec.dtype, ex.targets.dtype,
                         ex.prev_trip_ids.dtype)
    with open(path, "w") as f:
        for _, run in itertools.groupby(examples, dtypes):
            run = list(run)
            for lo in range(0, len(run), WRITE_CHUNK):
                block = run[lo:lo + WRITE_CHUNK]
                scalars = json.dumps([
                    v for ex in block for v in (ex.m, ex.t_c, ex.day_index,
                                                ex.trip_id, ex.pw_trip_id)])
                scalars = scalars[1:-1].split(", ")
                fields = zip(
                    zip(*[iter(scalars)] * 5),
                    _json_lists([ex.enc for ex in block], 2),
                    _json_lists([ex.dec for ex in block], 4),
                    _json_lists([ex.targets for ex in block], None),
                    _json_lists([ex.prev_trip_ids for ex in block], None),
                    # the fallback entries: 1 where no previous bus was found
                    _json_lists([ex.prev_trip_ids for ex in block], None,
                                lambda ids: (ids == -1).view(np.int8)))
                f.writelines(
                    f'{{"m": {m}, "t_c": {tc}, "day": {day}, "trip_id": {tid}, '
                    f'"enc": {enc}, "dec": {dec}, "targets": {tg}, '
                    f'"prev_trip_ids": {pid}, "pw_trip_id": {pw}, '
                    f'"fallback": {fb}}}\n'
                    for (m, tc, day, tid, pw), enc, dec, tg, pid, fb in fields)


def _has_bool(value) -> bool:
    return type(value) is bool or (type(value) is list and any(map(_has_bool, value)))


def _parse_example(line: str) -> tuple[TrainingExample, list[int]]:
    """The example of one JSON line and its ``fallback`` entries; ValueError
    names the first field not of its JSON type (a boolean is neither an
    integer nor a number)."""
    d = json.loads(line)
    for name in ("m", "t_c", "day", "trip_id", "pw_trip_id"):
        if type(d[name]) is not int and (name != "t_c" or type(d[name]) is not float):
            what = "number" if name == "t_c" else "integer"
            raise ValueError(f"{name} must be a JSON {what}, got {d[name]!r}")
    for name in ("prev_trip_ids", "fallback"):
        if not set(map(type, d[name])) <= {int}:
            raise ValueError(f"{name} must hold integers")
    if not set(d["fallback"]) <= {0, 1}:
        raise ValueError("fallback entries must be 0 or 1")
    # numpy reads true and false among numbers as 1 and 0; no key holds a "u"
    # and only "fallback" an "f", so a line of no "u" and one "f" holds neither.
    # Searching for the two literals instead took 16 times as long per line
    maybe_bool = "u" in line or line.find("f", line.find("f") + 1) >= 0
    enc, dec, targets = (np.array(d[name]) for name in ("enc", "dec", "targets"))
    for name, values in (("enc", enc), ("dec", dec), ("targets", targets)):
        if values.dtype.kind not in "if" or maybe_bool and _has_bool(d[name]):
            raise ValueError(f"{name} must hold numbers")
    return TrainingExample(
        m=d["m"], t_c=d["t_c"], day_index=d["day"], trip_id=d["trip_id"],
        # K = 0 is written as [], which numpy reads as shape (0,)
        enc=enc, dec=dec if d["dec"] != [] else np.empty((0, 4)), targets=targets,
        prev_trip_ids=np.array(d["prev_trip_ids"], dtype=np.int64),
        pw_trip_id=d["pw_trip_id"]), d["fallback"]


def _parse_block(lines: list[bytes]) -> list[TrainingExample]:
    """The examples of UTF-8 JSON ``lines``, validated as one block per
    (m, K), whose ``fallback`` entries must be 1 exactly where the
    previous-trip id is -1."""
    parsed, groups = [_parse_example(line.decode()) for line in lines], {}
    for ex, fallback in parsed:
        groups.setdefault((ex.m, ex.k), []).append((ex, fallback))
    for (m, k), group in groups.items():
        column = lambda name: [getattr(ex, name) for ex, _ in group]
        block = TrainingExample(
            m, np.array(column("t_c")), column("day_index"), column("trip_id"),
            *(np.stack(column(name)) for name in ("enc", "dec", "targets",
                                                  "prev_trip_ids")),
            column("pw_trip_id"))
        block.validate(m + k)
        # ValueError for lists of unequal lengths; a line alone has one shape
        if not np.array_equal(np.array([fb for _, fb in group]), block.fallback_mask):
            raise DataError("fallback entries must be 1 exactly where "
                            "prev_trip_ids is -1")
    return [ex for ex, _ in parsed]


def load_examples_jsonl(path) -> list[TrainingExample]:
    """Examples from JSON lines, in file order, checked in chunks of
    ``READ_CHUNK`` non-blank lines, as one block per (m, K); a chunk that fails
    is read again line by line, so DataError names the first faulty path:line.
    A (trip_id, m) may appear once: a repeat's DataError names both lines."""
    # TypeError: JSON that is no object; OverflowError: past int64;
    # UnicodeDecodeError, a ValueError: a line that is not UTF-8
    examples, faults = [], (KeyError, TypeError, ValueError, OverflowError)
    first_line: dict[tuple[int, int], int] = {}
    with open(path, "rb") as f:
        lines = ((n, line) for n, line in enumerate(f, start=1) if line.strip())
        while chunk := list(itertools.islice(lines, READ_CHUNK)):
            try:
                block = _parse_block([line for _, line in chunk])
            except faults:
                block = None
            for i, (lineno, line) in enumerate(chunk):
                try:
                    ex = block[i] if block else _parse_block([line])[0]
                except faults as e:
                    raise DataError(f"{path}:{lineno}: malformed example: "
                                    f"{type(e).__name__}: {e}") from e
                first = first_line.setdefault((ex.trip_id, ex.m), lineno)
                if first != lineno:
                    raise DataError(f"{path}:{lineno}: repeated example: trip "
                                    f"{ex.trip_id} at m={ex.m} is also on line {first}")
                examples.append(ex)
    return examples


def example_key(ex: TrainingExample) -> tuple:
    """Hashable identity of an example, for set-equality comparisons."""
    return (ex.m, ex.day_index, ex.trip_id, round(ex.t_c, 9),
            ex.enc.round(9).tobytes(), ex.dec.round(9).tobytes(),
            ex.targets.round(9).tobytes(), ex.prev_trip_ids.tobytes(),
            ex.pw_trip_id)
