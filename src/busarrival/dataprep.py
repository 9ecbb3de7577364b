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
with the closest start time. Both searches use one sort per (day, section)
(:meth:`TripDataset.day_order`). The builders resolve all requested trips
at once, one ``searchsorted`` per (day, section), and validate each
position's block once; ``prepare``, ``predict`` and ``evaluate`` share this
one resolver.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

SECONDS_PER_DAY = 86400.0
# The first position m that examples are built for and models cover.
FIRST_POSITION = 3
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
        check_ranges(self, {"n_sections": (lambda v: v >= 4, ">= 4"),
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
             (weekday != day % 7, "weekday does not match day index"),
             # examples mark "no previous bus" with id -1
             (ids < 0, "negative trip id")]
    bad = np.any([mask for mask, _ in fails], axis=0)
    if bad.any():
        row = int(np.argmax(bad))
        message = next(message for mask, message in fails if mask[row])
        raise DataError(f"trip {ids[row]}: {message}")


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
        """Raise DataError unless this is a valid example; with ``t_c`` of
        shape (n,) and a leading axis of n on every array, a block of n."""
        lead, m, k = np.shape(self.t_c), self.m, n_sections - self.m
        if self.enc.shape != (*lead, m, 2):
            raise DataError("encoder sequence shape mismatch")
        if self.dec.shape != (*lead, k, 4) or self.targets.shape != (*lead, k):
            raise DataError("decoder sequence / target shape mismatch")
        if (self.prev_trip_ids.shape != (*lead, k)
                or self.fallback_mask.shape != (*lead, k)):
            raise DataError("previous-trip ids / fallback mask shape mismatch")
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
                & ~self.fallback_mask).any():
            raise DataError("previous-bus entry time not before T_c")


@dataclass
class SkipRecord:
    day_index: int
    trip_id: int
    m: int
    reason: str


class TripDataset:
    """Immutable collection of trips, sorted by (day, start time, trip_id)
    and also held as arrays: ``entry`` and ``travel`` (trips × sections) and
    ``ids``, row i for ``trips[i]``."""

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
        """The dataset of the trips in the rows of the arrays
        :func:`trip_arrays` returns; its TripRecords are views of its rows."""
        dataset = cls.__new__(cls)
        dataset._index(route, ids, day, weekday, entry, travel)
        return dataset

    def _index(self, route, ids, day, weekday, e, z) -> None:
        # the first invalid trip in row order raises its own message
        check_trips(ids, day, weekday, e, z)
        order = np.lexsort((ids, e[:, 0], day))
        self.route = route
        self.entry, self.travel, self.ids = e[order], z[order], ids[order]
        self.trips = [TripRecord(*fields) for fields in zip(
            self.ids.tolist(), day[order].tolist(), weekday[order].tolist(),
            self.entry, self.travel)]
        self.by_day: dict[int, list[TripRecord]] = {}
        self.by_id: dict[int, TripRecord] = {}
        self._first: dict[int, int] = {}        # day -> row of its first trip
        for i, t in enumerate(self.trips):
            self.by_day.setdefault(t.day_index, []).append(t)
            self._first.setdefault(t.day_index, i)
            if t.trip_id in self.by_id:
                raise DataError(f"duplicate trip id {t.trip_id}")
            self.by_id[t.trip_id] = t
        self._orders: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.trips)

    def days(self) -> list[int]:
        return sorted(self.by_day)

    def day_order(self, day: int) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, order)`` for ``day``: ``keys[c]`` holds the day's entry
        times at section c + 1 in ascending ``(entry time, trip_id)`` order,
        the one sort and tie rule of both searches, and ``order[c, 1:]`` the
        rows of those trips, after a -1 in ``order[c, 0]``."""
        if day not in self._orders:
            lo = self._first.get(day, 0)
            day_rows = slice(lo, lo + len(self.by_day.get(day, [])))
            entry, ids = self.entry[day_rows].T, self.ids[day_rows]
            rows = np.lexsort((np.broadcast_to(ids, entry.shape), entry))
            order = np.full((entry.shape[0], len(ids) + 1), -1, dtype=np.int64)
            order[:, 1:] = lo + rows
            self._orders[day] = np.take_along_axis(entry, rows, axis=1), order
        return self._orders[day]

    def prev_rows(self, day: int, col: int, t_c):
        """Per query time (any shape), the row of the trip of ``day`` that
        last entered section col + 1 strictly before it, the larger trip id
        on equal entry, or -1."""
        keys, order = self.day_order(day)
        # searchsorted counts the keys below t_c; order[col, 0] is the -1
        return order[col, np.searchsorted(keys[col], t_c)]

    def scan_prev_rows(self, day: int, col: int, t_c) -> np.ndarray:
        """:meth:`prev_rows` by the reference search, a scan without the index:
        the day's largest (entry time, trip id) before each query time."""
        lo = self._first.get(day, 0)
        keys = [(t.entry(col + 1), t.trip_id, lo + i)
                for i, t in enumerate(self.by_day.get(day, []))]
        found = [max((key for key in keys if key[0] < tc), default=(0, 0, -1))[2]
                 for tc in np.ravel(t_c).tolist()]
        return np.array(found, dtype=np.int64).reshape(np.shape(t_c))


def closest_prev_trip_at_section(dataset: TripDataset, day: int, section: int,
                                 t_c: float, brute_force: bool = False
                                 ) -> TripRecord | None:
    """Most recent same-day trip that entered ``section`` strictly before t_c.

    Ties on entry time go to the larger trip id (the later dispatch). Returns
    None when no trip qualifies; absence is a valid result.
    """
    if not 1 <= section <= dataset.route.n_sections:
        raise ValueError(f"section {section} outside route")
    search = dataset.scan_prev_rows if brute_force else dataset.prev_rows
    row = search(day, section - 1, t_c)
    return dataset.trips[row] if row >= 0 else None


def closest_prev_week_trip(dataset: TripDataset, day_index: int,
                           start_time: float, brute_force: bool = False
                           ) -> TripRecord | None:
    """Trip from exactly 7 days earlier with the closest start time.

    Same weekday by construction. Ties on |start difference| go to the
    earlier trip, and on equal starts to the smaller trip id.
    """
    prev_day = day_index - 7
    if brute_force:
        return min(dataset.by_day.get(prev_day, []), default=None, key=lambda t: (
            abs(t.start_time - start_time), t.start_time, t.trip_id))
    keys, order = dataset.day_order(prev_day)
    starts = keys[0]
    i = int(np.searchsorted(starts, start_time))
    # candidates: the first of the equal latest starts before start_time (the
    # smallest trip id among them) and the first start at or after it
    cands = [int(np.searchsorted(starts, starts[i - 1]))] if i else []
    cands += [i] if i < len(starts) else []
    best = min(cands, default=None, key=lambda j: abs(starts[j] - start_time))
    return None if best is None else dataset.trips[order[0, best + 1]]


def _assemble(dataset: TripDataset, trips: list[TripRecord],
              pws: list[TripRecord | None], positions: list[int],
              t_c: np.ndarray | None, fallback: str, brute_force: bool
              ) -> list[list[TrainingExample | str]]:
    """The decoder-input resolver of both builders: per trip and position,
    the example at query time ``t_c[trip, position]`` (by default when the
    trip finished section m) given the previous-week match ``pws[trip]``,
    or why it is skipped. Per day, one search per section over all of that
    day's query times (the index, or with ``brute_force`` the scan) finds the
    previous buses; per position, fresh arrays of the trips it keeps are
    validated once and split into rows, so no two examples share memory."""
    n_s, n = dataset.route.n_sections, len(trips)
    if fallback not in FALLBACK_POLICIES:
        raise ValueError(f"unknown fallback policy {fallback!r}")
    for m in positions:
        if not 1 <= m <= n_s - 1:
            raise ValueError(f"position m={m} outside [1, {n_s - 1}]")
    _, trip_day, _, entry, travel = trip_arrays(trips, n_s)
    t_c = entry[:, positions] if t_c is None else t_c
    # the dataset row of each previous bus, -1 where there is none
    prev = np.full((n_s, n, len(positions)), -1, dtype=np.int32)
    search = dataset.scan_prev_rows if brute_force else dataset.prev_rows
    for day in set(trip_day.tolist()):
        on_day = trip_day == day
        for col in range(min(positions, default=n_s), n_s):
            prev[col, on_day] = search(day, col, t_c[on_day])
    has_pw = np.array([pw is not None for pw in pws])
    # a trip with no previous-week match stands in for it; its rows are skipped
    pws = [pw or t for pw, t in zip(pws, trips)]
    *_, pw_entry, pw_travel = trip_arrays(pws, n_s)
    out = [[("no_previous_bus" if h else "no_previous_week_trip")] * len(positions)
           for h in has_pw.tolist()]
    for j, m in enumerate(positions):
        keep = np.flatnonzero(has_pw & ((prev[m:, :, j] >= 0).all(axis=0)
                                        if fallback == "skip" else True))
        rows = prev[m:, keep, j].T                    # (kept trips, K)
        have = rows >= 0
        enc = np.empty((len(keep), m, 2))
        enc[..., ENC_Z_CUR] = travel[keep, m - 1::-1]
        enc[..., ENC_Z_PW] = pw_travel[keep, m - 1::-1]
        dec = np.empty((*rows.shape, 4))
        # previous-week values everywhere, then the previous bus where one exists
        dec[..., DEC_Z_PV] = dec[..., DEC_Z_PW] = pw_travel[keep, m:]
        dec[..., DEC_TE_PV] = dec[..., DEC_TE_PW] = pw_entry[keep, m:]
        prev_ids = np.full(rows.shape, -1, dtype=np.int64)
        r, c = np.nonzero(have)
        dec[r, c, DEC_Z_PV] = dataset.travel[rows[r, c], c + m]
        dec[r, c, DEC_TE_PV] = dataset.entry[rows[r, c], c + m]
        prev_ids[r, c] = dataset.ids[rows[r, c]]
        targets, mask, tcs = travel[keep, m:], ~have, t_c[keep, j]
        # one validation for the block; each example is one of its rows
        TrainingExample(m, tcs, None, None, enc, dec, targets, prev_ids, None,
                        mask).validate(n_s)
        for i, tc, e, d, tg, pid, fm in zip(keep.tolist(), tcs.tolist(), enc, dec,
                                             targets, prev_ids, mask):
            out[i][j] = TrainingExample(m, tc, trips[i].day_index, trips[i].trip_id,
                                        e, d, tg, pid, pws[i].trip_id, fm)
    return out


def build_example(dataset: TripDataset, trip: TripRecord, m: int,
                  pw: TripRecord | None, t_c: float | None = None,
                  fallback: str = FALLBACK_POLICIES[0]) -> TrainingExample | str:
    """The example for ``trip`` at position m, or the reason it is skipped:
    the one-trip, one-position case of :func:`build_examples`.

    ``pw`` is the trip's previous-week match (see
    :func:`closest_prev_week_trip`). ``t_c`` defaults to the moment the trip
    finished section m; another query time re-resolves the previous-bus
    inputs as of that time while the encoder sequence and targets stay the
    trip's own. ``fallback`` is applied as in :func:`build_examples`.
    """
    return _assemble(dataset, [trip], [pw], [m],
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
    day_set = None if days is None else set(days)
    trips = [t for t in dataset.trips if day_set is None or t.day_index in day_set]
    pws = [closest_prev_week_trip(dataset, t.day_index, t.start_time, brute_force)
           for t in trips]
    rows = _assemble(dataset, trips, pws, positions, None, fallback, brute_force)
    return ([ex for row in rows for ex in row if not isinstance(ex, str)],
            [SkipRecord(t.day_index, t.trip_id, m, ex) for t, row in zip(trips, rows)
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


def _example_days(path, lines: list[str], trip_id: int) -> set[int]:
    """The day of ``trip_id``'s first row in a trips CSV's data ``lines`` and
    the day a week before; reads other lines no further than their start."""
    prefix = f"{trip_id},"
    for lineno, line in enumerate(lines, start=2):
        if line.startswith(prefix):
            try:
                day = int(line.split(",")[1])
            except (ValueError, IndexError) as e:
                raise _malformed(path, lineno, line) from e
            return {day, day - 7}
    raise ValueError(f"unknown trip id {trip_id}")


def _read_rows(lines: list[str], days) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of a trips CSV's data ``lines`` on ``days`` (all if None) as
    TRIP_DTYPE records, by one ``np.loadtxt`` call, and the indices of the
    lines kept (None for all); ValueError if a line read is malformed."""
    if "" in lines:                     # np.loadtxt would skip a blank line
        raise ValueError("blank row")
    kept, csv_format = None, {"delimiter": ",", "comments": None, "ndmin": 1}
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


def _sort_trip_rows(path, rows: np.ndarray, kept: np.ndarray | None):
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
        where = f"{path}:{2 + (k if kept is None else kept[k])}: trip {trip_id}"
        if moved[k]:
            raise DataError(f"{where} has day {day}, weekday {weekday}; its "
                            f"earlier rows say day {head['day']}, weekday "
                            f"{head['weekday']}")
        raise DataError(f"{where} repeats section {sec}")
    return s, starts, first


def load_trips_csv(path, route: RouteSpec, days=None,
                   for_trip: int | None = None) -> TripDataset:
    """The trips of a trips CSV, or only those of ``days`` when given, or of
    the two days an example of trip ``for_trip`` reads, its own and the day
    a week before: rows of other days are read no further than their day,
    and every check applies to the rows kept. The rows kept are parsed as a
    whole and checked as arrays; an error names the first line at fault."""
    with open(path) as f:
        header, *lines = f.read().split("\n")
    header = next(csv.reader([header]), None) if header else None
    if header != TRIP_CSV_HEADER:
        raise DataError(f"unexpected trip CSV header: {header}")
    if lines[-1:] == [""]:
        lines.pop()                     # after the newline ending the last row
    if for_trip is not None:
        days = _example_days(path, lines, for_trip)
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
        raise DataError(f"trip {s['trip_id'][starts[t]]}: sections {secs}... "
                        f"do not cover 1..{n_s}")
    # one row per trip, in order of first appearance, to name the first bad one
    s = s.reshape(-1, n_s)[np.argsort(first)]
    return TripDataset.from_arrays(route, *(s[c][:, 0] for c in (
        "trip_id", "day", "weekday")), s["entry"], s["travel"])


def save_skip_report_csv(skips: list[SkipRecord], path) -> None:
    write_csv(path, SKIP_CSV_HEADER,
              ([s.day_index, s.trip_id, s.m, s.reason] for s in skips))


def _json_lists(arrays: list[np.ndarray], width: int | None) -> list[str]:
    """``json.dumps(a.tolist())`` for each of ``arrays``, all of one dtype
    and 1-D (``width`` None) or with ``width`` columns, formatting each
    distinct value of a column once. Values are told apart by their bit
    patterns, so -0.0 stays apart from 0.0, and one ``json.dumps`` writes a
    column's distinct values, so JSON's own rules write NaN, Infinity and
    exponents."""
    flat = np.concatenate(arrays, axis=None).reshape(-1, width or 1)
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
                    _json_lists([ex.fallback_mask.astype(int) for ex in block],
                                None))
                f.writelines(
                    f'{{"m": {m}, "t_c": {tc}, "day": {day}, "trip_id": {tid}, '
                    f'"enc": {enc}, "dec": {dec}, "targets": {tg}, '
                    f'"prev_trip_ids": {pid}, "pw_trip_id": {pw}, '
                    f'"fallback": {fb}}}\n'
                    for (m, tc, day, tid, pw), enc, dec, tg, pid, fb in fields)


def _has_bool(value) -> bool:
    return type(value) is bool or (type(value) is list and any(map(_has_bool, value)))


def _parse_example(line: str) -> TrainingExample:
    """The example of one JSON line; ValueError names the first field not of
    its JSON type (a boolean is neither an integer nor a number)."""
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
    # and only "fallback" an "f", so a line of no "u" and one "f" holds neither
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
        pw_trip_id=d["pw_trip_id"], fallback_mask=np.array(d["fallback"], dtype=bool))


def _parse_block(lines: list[str]) -> list[TrainingExample]:
    """The examples of JSON ``lines``, validated as one block per (m, K)."""
    examples, groups = [_parse_example(line) for line in lines], {}
    for ex in examples:
        groups.setdefault((ex.m, ex.k), []).append(ex)
    for (m, k), group in groups.items():
        TrainingExample(m, np.array([ex.t_c for ex in group]), None, None, *(
            np.stack([getattr(ex, name) for ex in group]) for name in (
                "enc", "dec", "targets", "prev_trip_ids")), None,
            np.stack([ex.fallback_mask for ex in group])).validate(m + k)
    return examples


def load_examples_jsonl(path) -> list[TrainingExample]:
    """Examples from JSON lines, in file order, checked in chunks of
    ``READ_CHUNK`` non-blank lines, as one block per (m, K); a chunk that fails
    is read again line by line, so DataError names the first faulty path:line."""
    # TypeError: JSON that is no object; OverflowError: past int64
    examples, faults = [], (KeyError, TypeError, ValueError, OverflowError)
    with open(path) as f:
        lines = ((n, line) for n, line in enumerate(f, start=1) if line.strip())
        while chunk := list(itertools.islice(lines, READ_CHUNK)):
            try:
                examples += _parse_block([line for _, line in chunk])
            except faults:
                for lineno, line in chunk:
                    try:
                        examples += _parse_block([line])
                    except faults as e:
                        raise DataError(f"{path}:{lineno}: malformed example: "
                                        f"{type(e).__name__}: {e}") from e
    return examples


def example_key(ex: TrainingExample) -> tuple:
    """Hashable identity of an example, for set-equality comparisons."""
    return (ex.m, ex.day_index, ex.trip_id, round(ex.t_c, 9),
            ex.enc.round(9).tobytes(), ex.dec.round(9).tobytes(),
            ex.targets.round(9).tobytes(), ex.prev_trip_ids.tobytes(),
            ex.pw_trip_id, ex.fallback_mask.tobytes())
