"""Synthetic AVL dataset generator.

Per trip and section, travel time is a product of independent factors:

    base(section) * peak(entry time) * weekday(day) * event(section, entry) * noise

Noise is lognormal with unit mean and is seeded per (day, trip) with one
draw per section, so the same draws apply whether or not events are enabled.
The base trajectory (everything except the event factor) is chained first
using its own entry times; event factors are then applied on top at the
perturbed entry times. Sections whose traversal never intersects an event
footprint therefore match the no-event run bit for bit.

All trips of all service days run in lockstep, one pass per section over
(day, trip) lanes, each day's events laid out as (slot, day) arrays. Arrays
only add, subtract, multiply, divide, compare and take minima; exp and pow
are libm's scalar calls per lane, as numpy's SIMD loops may round otherwise.

Congestion events start at an origin section and spread to lower-numbered
sections over time, which is what makes a previous bus's travel times over
downstream sections informative about the current bus's upcoming sections.
Service runs Monday through Saturday; Sundays carry no trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataprep import (AT_LEAST_1, NON_NEGATIVE, POSITIVE, SECONDS_PER_DAY,
                       RouteSpec, TripRecord, check_ranges, write_csv)
from .numkit import spawn_rng

_DISPATCH_STREAM, _EVENT_STREAM, _NOISE_STREAM = 1, 2, 3
MIN_HEADWAY_S = 60.0
# Trip ids are day * TRIP_ID_STRIDE + k, so a day holds at most this many.
TRIP_ID_STRIDE = 1000
_DECAY = (lambda v: 0 < v <= 1, "in (0, 1]")


@dataclass
class CongestionEvent:
    """A slowdown that spreads from its origin toward lower section numbers."""

    origin_section: int
    onset_s: float
    duration_s: float
    severity: float          # multiplicative factor >= 1 at the origin
    upstream_speed_spm: float  # sections per minute the front moves upstream
    decay: float = 1.0       # per-section attenuation of (severity - 1)

    def __post_init__(self):
        check_ranges(self, {"severity": AT_LEAST_1, "decay": _DECAY,
                            "upstream_speed_spm": POSITIVE})

    def lift(self, section: int) -> float:
        """``severity - 1``, times ``decay`` per section upstream of the origin."""
        back = self.origin_section - section
        return (self.severity - 1.0) * self.decay ** back if back >= 0 else 0.0

    def factor(self, section: int, t: float) -> float:
        """Travel-time multiplier for a bus entering ``section`` at time t
        (or at each time of an array t)."""
        return _front_factor(t, self.origin_section - section, self.onset_s,
                             self.duration_s, self.upstream_speed_spm,
                             self.lift(section))[()]


def _front_factor(t, back, onset, duration, speed, lift):
    """``1 + lift`` if a front, set off at ``onset`` at ``speed`` sections a
    minute for ``duration``, covers at time ``t`` the section ``back`` sections
    upstream of its origin, else 1.0; scalars and arrays alike (+ - * / only)."""
    hit = ((onset <= t) & (t <= onset + duration) & (0 <= back)
           & (back <= speed * (t - onset) / 60.0))
    return np.where(hit, 1.0 + lift, 1.0)


@dataclass
class SimConfig:
    """Simulation settings; each one's default is the CLI's default."""

    route: RouteSpec = field(default_factory=lambda: RouteSpec(34, 800.0))
    weeks: int = 8
    trips_per_day: int = 40
    first_dispatch_s: float = 6 * 3600.0
    headway_mean_s: float = 1260.0
    headway_jitter_s: float = 240.0
    morning_peak_h: float = 8.5
    evening_peak_h: float = 18.0
    peak_amplitude: float = 0.40
    peak_width_h: float = 1.5
    weekday_multipliers: tuple = (1.03, 0.99, 1.00, 1.02, 1.07, 0.92)  # Mon-Sat
    events_per_day: float = 8.0
    event_severity_range: tuple = (1.6, 2.8)
    event_duration_range_s: tuple = (1800.0, 5400.0)
    event_speed_range_spm: tuple = (0.3, 1.5)
    event_decay: float = 0.93
    event_factor_cap: float = 5.0   # combined slowdown saturates
    noise_cv: float = 0.08
    seed: int = 0

    def __post_init__(self):
        ordered = (lambda v: len(v) == 2 and 0 < v[0] <= v[1],
                   "two ordered values > 0")
        check_ranges(self, {
            "weeks": AT_LEAST_1,
            "trips_per_day": (lambda v: 1 <= v <= TRIP_ID_STRIDE,
                              f"in [1, {TRIP_ID_STRIDE}]"),
            "first_dispatch_s": (lambda v: 0 <= v < SECONDS_PER_DAY,
                                 "in [0, 86400)"),
            "headway_mean_s": POSITIVE, "headway_jitter_s": NON_NEGATIVE,
            "peak_amplitude": NON_NEGATIVE, "peak_width_h": POSITIVE,
            "weekday_multipliers": (lambda v: len(v) == 6 and min(v) > 0,
                                    "6 values > 0 (Mon-Sat)"),
            "events_per_day": NON_NEGATIVE,
            "event_severity_range": (lambda v: len(v) == 2
                                     and 1 <= v[0] <= v[1],
                                     "two ordered values >= 1"),
            "event_duration_range_s": ordered, "event_speed_range_spm": ordered,
            "event_decay": _DECAY,
            "event_factor_cap": AT_LEAST_1, "noise_cv": NON_NEGATIVE})
        # the latest the last dispatch can be (a headway is >= MIN_HEADWAY_S)
        last = self.first_dispatch_s + (self.trips_per_day - 1) * max(
            MIN_HEADWAY_S, self.headway_mean_s + self.headway_jitter_s)
        if last >= SECONDS_PER_DAY:
            raise ValueError("first_dispatch_s + (trips_per_day - 1) * "
                             "(headway_mean_s + headway_jitter_s): must be < "
                             f"86400 (midnight), got {last!r}")

    def resolve_base_profile(self) -> np.ndarray:
        """Per-section free-flow travel seconds."""
        s = np.arange(self.route.n_sections)
        return 100.0 + 25.0 * np.sin(4.0 * np.pi * s / len(s))


def peak_multiplier(cfg: SimConfig, t_s):
    """Time-of-day multiplier, flat with morning and evening bumps, at t_s or
    at each time of an array t_s."""
    h = np.asarray(t_s) / 3600.0
    qs = zip(((h - cfg.morning_peak_h) / cfg.peak_width_h).ravel().tolist(),
             ((h - cfg.evening_peak_h) / cfg.peak_width_h).ravel().tolist())
    bumps = [math.exp(-0.5 * m ** 2) + math.exp(-0.5 * e ** 2) for m, e in qs]
    return 1.0 + cfg.peak_amplitude * np.reshape(bumps, h.shape)


def _day_events(cfg: SimConfig, day: int) -> list[CongestionEvent]:
    if cfg.events_per_day <= 0:
        return []
    rng = spawn_rng(cfg.seed, _EVENT_STREAM, day)
    n = int(rng.poisson(cfg.events_per_day))
    service_span = (cfg.first_dispatch_s,
                    cfg.first_dispatch_s + cfg.trips_per_day * cfg.headway_mean_s)
    return [CongestionEvent(
        origin_section=int(rng.integers(2, cfg.route.n_sections + 1)),
        onset_s=float(rng.uniform(*service_span)),
        duration_s=float(rng.uniform(*cfg.event_duration_range_s)),
        severity=float(rng.uniform(*cfg.event_severity_range)),
        upstream_speed_spm=float(rng.uniform(*cfg.event_speed_range_spm)),
        decay=cfg.event_decay) for _ in range(n)]


def _event_slots(per_day: list[list[CongestionEvent]], n_sections: int):
    """(4 + sections, slot, day, 1): origin, onset, duration, speed and lifts
    of each day's j-th event in log order in slot j, else of one that never hits."""
    n, never = max(map(len, per_day)), CongestionEvent(0, np.inf, 0.0, 1.0, 1.0)
    rows = [[[ev.origin_section, ev.onset_s, ev.duration_s, ev.upstream_speed_spm,
              *map(ev.lift, range(1, n_sections + 1))]
             for ev in evs + [never] * (n - len(evs))] for evs in per_day]
    return np.reshape(rows, (len(per_day), n, 4 + n_sections)).T[..., None]


def _day_lanes(cfg: SimConfig, day: int) -> tuple[np.ndarray, np.ndarray]:
    """A day's dispatch times and (trip, section) unit-mean lognormal noise."""
    rng = spawn_rng(cfg.seed, _DISPATCH_STREAM, day)
    jitter = rng.uniform(-cfg.headway_jitter_s, cfg.headway_jitter_s,
                         size=cfg.trips_per_day)
    headways = np.maximum(MIN_HEADWAY_S, cfg.headway_mean_s + jitter)
    sigma = np.sqrt(np.log1p(cfg.noise_cv ** 2))    # a sigma of 0 draws 1.0 exactly
    return (cfg.first_dispatch_s + np.concatenate([[0.0], np.cumsum(headways[:-1])]),
            np.array([spawn_rng(cfg.seed, _NOISE_STREAM, day, k).lognormal(
                mean=-0.5 * sigma * sigma, sigma=sigma, size=cfg.route.n_sections)
                for k in range(cfg.trips_per_day)]))


def simulate_dataset(cfg: SimConfig
                     ) -> tuple[list[TripRecord], list[tuple[int, CongestionEvent]]]:
    """Generate all trips plus the ground-truth event log, deterministically.

    Raises ValueError naming the first trip that enters a section at or
    after midnight, and the config keys that move service earlier."""
    base = cfg.resolve_base_profile()
    days = [day for day in range(cfg.weeks * 7) if day % 7 != 6]  # no Sundays
    per_day = [_day_events(cfg, day) for day in days]
    event_log = [(day, ev) for day, evs in zip(days, per_day) for ev in evs]
    origin, onset, duration, speed, *lifts = _event_slots(per_day, len(base))
    # lanes are (day, trip); a day's own settings are (day, 1) columns
    wd_mult = np.array([[cfg.weekday_multipliers[day % 7]] for day in days])
    e0, noise = map(np.array, zip(*(_day_lanes(cfg, day) for day in days)))
    e = e0.copy()
    entries, z = np.empty((2, len(base)) + e.shape)
    for s, lift in enumerate(lifts):
        # the event-free trajectory, which also fixes the peak-factor timings
        z0 = base[s] * peak_multiplier(cfg, e0) * wd_mult * noise[..., s]
        e0 += z0
        entries[s] = e
        f = np.ones(e.shape)
        for factor in _front_factor(e, origin - (s + 1), onset, duration, speed, lift):
            f *= factor     # slot by slot: each day's events in log order
        np.multiply(z0, np.minimum(f, cfg.event_factor_cap), out=z[s])
        e += z[s]
    entries, z = (np.ascontiguousarray(a.transpose(1, 2, 0)) for a in (entries, z))
    for i, k, sec in np.argwhere(entries >= SECONDS_PER_DAY)[:1]:
        raise ValueError(
            f"trip {days[i] * TRIP_ID_STRIDE + k} (day {days[i]}) enters "
            f"section {sec + 1} at {entries[i, k, sec]:.1f} s, past midnight: "
            "lower simulator.trips_per_day, simulator.headway_mean_s or "
            "simulator.first_dispatch_s")
    return [TripRecord(day * TRIP_ID_STRIDE + k, day, day % 7, entries[i, k], z[i, k])
            for i, day in enumerate(days) for k in range(cfg.trips_per_day)], event_log


def split_train_test(trips: list[TripRecord]
                     ) -> tuple[list[TripRecord], list[TripRecord]]:
    """Split by calendar week: last observed week is the test set."""
    weeks = sorted({t.day_index // 7 for t in trips})
    if len(weeks) < 2:
        raise ValueError("need at least 2 weeks of data to split")
    return ([t for t in trips if t.day_index // 7 != weeks[-1]],
            [t for t in trips if t.day_index // 7 == weeks[-1]])


EVENTS_CSV_HEADER = ["day", "origin_section", "onset_s", "duration_s",
                     "severity", "upstream_speed"]


def save_events_csv(event_log: list[tuple[int, CongestionEvent]], path) -> None:
    write_csv(path, EVENTS_CSV_HEADER, (
        [day, ev.origin_section, f"{ev.onset_s:.3f}", f"{ev.duration_s:.3f}",
         f"{ev.severity:.6f}", f"{ev.upstream_speed_spm:.6f}"]
        for day, ev in event_log))
