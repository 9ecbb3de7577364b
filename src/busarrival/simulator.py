"""Synthetic AVL dataset generator.

Per trip and section, travel time is a product of independent factors:

    base(section) * peak(entry time) * weekday(day) * event(section, entry) * noise

Noise is lognormal with unit mean and is seeded per (day, trip) with one
draw per section, so the same draws apply whether or not events are enabled.
The base trajectory (everything except the event factor) is chained first
using its own entry times; event factors are then applied on top at the
perturbed entry times. Sections whose traversal never intersects an event
footprint therefore match the no-event run bit for bit.

Congestion events start at an origin section and spread to lower-numbered
sections over time, which is what makes a previous bus's travel times over
downstream sections informative about the current bus's upcoming sections.
Service runs Monday through Saturday; Sundays carry no trips.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataprep import (AT_LEAST_1, NON_NEGATIVE, POSITIVE, SECONDS_PER_DAY,
                       RouteSpec, TripRecord, check_ranges)
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

    def factor(self, section: int, t: float) -> float:
        """Travel-time multiplier for a bus entering ``section`` at time t."""
        if not self.onset_s <= t <= self.onset_s + self.duration_s:
            return 1.0
        back = self.origin_section - section
        if back < 0:
            return 1.0
        reach = self.upstream_speed_spm * (t - self.onset_s) / 60.0
        if back > reach:
            return 1.0
        return 1.0 + (self.severity - 1.0) * self.decay ** back


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
        n = self.route.n_sections
        s = np.arange(n)
        return 100.0 + 25.0 * np.sin(4.0 * np.pi * s / n)


def peak_multiplier(cfg: SimConfig, t_s: float) -> float:
    """Time-of-day multiplier: flat base with morning and evening bumps."""
    h = t_s / 3600.0
    bm = math.exp(-0.5 * ((h - cfg.morning_peak_h) / cfg.peak_width_h) ** 2)
    be = math.exp(-0.5 * ((h - cfg.evening_peak_h) / cfg.peak_width_h) ** 2)
    return 1.0 + cfg.peak_amplitude * (bm + be)


def _day_events(cfg: SimConfig, day: int) -> list[CongestionEvent]:
    if cfg.events_per_day <= 0:
        return []
    rng = spawn_rng(cfg.seed, _EVENT_STREAM, day)
    n = int(rng.poisson(cfg.events_per_day))
    events = []
    service_span = (cfg.first_dispatch_s,
                    cfg.first_dispatch_s + cfg.trips_per_day * cfg.headway_mean_s)
    for _ in range(n):
        events.append(CongestionEvent(
            origin_section=int(rng.integers(2, cfg.route.n_sections + 1)),
            onset_s=float(rng.uniform(*service_span)),
            duration_s=float(rng.uniform(*cfg.event_duration_range_s)),
            severity=float(rng.uniform(*cfg.event_severity_range)),
            upstream_speed_spm=float(rng.uniform(*cfg.event_speed_range_spm)),
            decay=cfg.event_decay))
    return events


def _event_factor(events: list[CongestionEvent], section: int, t: float,
                  cap: float) -> float:
    f = 1.0
    for ev in events:
        f *= ev.factor(section, t)
    return min(f, cap)


def _noise(cfg: SimConfig, day: int, trip_k: int) -> np.ndarray:
    rng = spawn_rng(cfg.seed, _NOISE_STREAM, day, trip_k)
    if cfg.noise_cv == 0.0:
        return np.ones(cfg.route.n_sections)
    sigma = np.sqrt(np.log1p(cfg.noise_cv ** 2))
    return rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma,
                         size=cfg.route.n_sections)


def simulate_dataset(cfg: SimConfig
                     ) -> tuple[list[TripRecord], list[tuple[int, CongestionEvent]]]:
    """Generate all trips plus the ground-truth event log, deterministically.

    Raises ValueError naming the first trip that enters a section at or
    after midnight, and the config keys that move service earlier."""
    base = cfg.resolve_base_profile()
    n_s = cfg.route.n_sections
    trips: list[TripRecord] = []
    event_log: list[tuple[int, CongestionEvent]] = []
    for day in range(cfg.weeks * 7):
        weekday = day % 7
        if weekday == 6:  # no Sunday service
            continue
        wd_mult = cfg.weekday_multipliers[weekday]
        events = _day_events(cfg, day)
        event_log.extend((day, ev) for ev in events)
        rng = spawn_rng(cfg.seed, _DISPATCH_STREAM, day)
        headways = np.maximum(
            MIN_HEADWAY_S, cfg.headway_mean_s + rng.uniform(-cfg.headway_jitter_s,
                                                   cfg.headway_jitter_s,
                                                   size=cfg.trips_per_day))
        dispatches = cfg.first_dispatch_s + np.concatenate(
            [[0.0], np.cumsum(headways[:-1])])
        for k in range(cfg.trips_per_day):
            noise = _noise(cfg, day, k)
            # event-free trajectory, also fixes the peak-factor timings
            z0 = np.empty(n_s)
            e = dispatches[k]
            for s in range(n_s):
                z0[s] = base[s] * peak_multiplier(cfg, e) * wd_mult * noise[s]
                e += z0[s]
            entries = np.empty(n_s)
            z = np.empty(n_s)
            e = dispatches[k]
            for s in range(n_s):
                entries[s] = e
                z[s] = z0[s] * _event_factor(events, s + 1, e, cfg.event_factor_cap)
                e += z[s]
            trip_id = day * TRIP_ID_STRIDE + k
            if entries[-1] >= SECONDS_PER_DAY:
                sec = int(np.argmax(entries >= SECONDS_PER_DAY))
                raise ValueError(
                    f"trip {trip_id} (day {day}) enters section {sec + 1} at "
                    f"{entries[sec]:.1f} s, past midnight: lower "
                    "simulator.trips_per_day, simulator.headway_mean_s or "
                    "simulator.first_dispatch_s")
            trips.append(TripRecord(trip_id=trip_id, day_index=day,
                                    weekday=weekday, entry_times=entries,
                                    travel_times=z))
    return trips, event_log


def no_event_config(cfg: SimConfig) -> SimConfig:
    """Counterfactual twin of a config: same seed and streams, no events."""
    return replace(cfg, events_per_day=0.0)


def split_train_test(trips: list[TripRecord]
                     ) -> tuple[list[TripRecord], list[TripRecord]]:
    """Split by calendar week: last observed week is the test set."""
    weeks = sorted({t.day_index // 7 for t in trips})
    if len(weeks) < 2:
        raise ValueError("need at least 2 weeks of data to split")
    test_week = weeks[-1]
    train = [t for t in trips if t.day_index // 7 != test_week]
    test = [t for t in trips if t.day_index // 7 == test_week]
    return train, test


EVENTS_CSV_HEADER = ["day", "origin_section", "onset_s", "duration_s",
                     "severity", "upstream_speed"]


def save_events_csv(event_log: list[tuple[int, CongestionEvent]], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(EVENTS_CSV_HEADER)
        for day, ev in event_log:
            w.writerow([day, ev.origin_section, f"{ev.onset_s:.3f}",
                        f"{ev.duration_s:.3f}", f"{ev.severity:.6f}",
                        f"{ev.upstream_speed_spm:.6f}"])
