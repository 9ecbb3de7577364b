import math
import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from busarrival import simulator
from busarrival.dataprep import SECONDS_PER_DAY, RouteSpec, TripDataset
from busarrival.numkit import spawn_rng
from busarrival.simulator import (CongestionEvent, SimConfig, peak_multiplier,
                                  save_events_csv, simulate_dataset,
                                  split_train_test)


def quiet_config(**kw):
    """No noise, no peaks, no events, flat weekdays unless overridden."""
    defaults = dict(route=RouteSpec(6, 800.0), weeks=2, trips_per_day=4,
                    peak_amplitude=0.0, weekday_multipliers=(1.0,) * 6,
                    events_per_day=0.0, noise_cv=0.0, seed=3)
    defaults.update(kw)
    return SimConfig(**defaults)


def reference_factor(ev, section, t):
    """The multiplier of one event, as a per-trip loop computes it."""
    if not ev.onset_s <= t <= ev.onset_s + ev.duration_s:
        return 1.0
    back = ev.origin_section - section
    if not 0 <= back <= ev.upstream_speed_spm * (t - ev.onset_s) / 60.0:
        return 1.0
    return 1.0 + (ev.severity - 1.0) * ev.decay ** back


def reference_peak(cfg, t_s):
    h = t_s / 3600.0
    bm = math.exp(-0.5 * ((h - cfg.morning_peak_h) / cfg.peak_width_h) ** 2)
    be = math.exp(-0.5 * ((h - cfg.evening_peak_h) / cfg.peak_width_h) ** 2)
    return 1.0 + cfg.peak_amplitude * (bm + be)


def reference_simulate(cfg):
    """Straight-line transcription of the simulator as one trip, then one
    section, at a time: the oracle the lockstep simulator must match bit for
    bit. Event draws come from the simulator's own per-day generator."""
    base = cfg.resolve_base_profile()
    n_s = cfg.route.n_sections
    trips, event_log = [], []
    for day in range(cfg.weeks * 7):
        weekday = day % 7
        if weekday == 6:
            continue
        wd_mult = cfg.weekday_multipliers[weekday]
        events = simulator._day_events(cfg, day)
        event_log.extend((day, ev) for ev in events)
        rng = spawn_rng(cfg.seed, simulator._DISPATCH_STREAM, day)
        jitter = rng.uniform(-cfg.headway_jitter_s, cfg.headway_jitter_s,
                             size=cfg.trips_per_day)
        headways = np.maximum(simulator.MIN_HEADWAY_S, cfg.headway_mean_s + jitter)
        dispatches = cfg.first_dispatch_s + np.concatenate(
            [[0.0], np.cumsum(headways[:-1])])
        for k in range(cfg.trips_per_day):
            rng = spawn_rng(cfg.seed, simulator._NOISE_STREAM, day, k)
            if cfg.noise_cv == 0.0:
                noise = np.ones(n_s)
            else:
                sigma = np.sqrt(np.log1p(cfg.noise_cv ** 2))
                noise = rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma,
                                      size=n_s)
            z0 = np.empty(n_s)
            e = dispatches[k]
            for s in range(n_s):
                z0[s] = base[s] * reference_peak(cfg, e) * wd_mult * noise[s]
                e += z0[s]
            entries, z = np.empty(n_s), np.empty(n_s)
            e = dispatches[k]
            for s in range(n_s):
                entries[s] = e
                f = 1.0
                for ev in events:
                    f *= reference_factor(ev, s + 1, e)
                z[s] = z0[s] * min(f, cfg.event_factor_cap)
                e += z[s]
            trip_id = day * simulator.TRIP_ID_STRIDE + k
            if entries[-1] >= SECONDS_PER_DAY:
                sec = int(np.argmax(entries >= SECONDS_PER_DAY))
                raise ValueError(
                    f"trip {trip_id} (day {day}) enters section {sec + 1} at "
                    f"{entries[sec]:.1f} s, past midnight: lower "
                    "simulator.trips_per_day, simulator.headway_mean_s or "
                    "simulator.first_dispatch_s")
            trips.append((trip_id, day, weekday, entries, z))
    return trips, event_log


FULL_ROUTE = dict(route=RouteSpec(34, 800.0), weeks=3, trips_per_day=40, seed=3)


class TestLockstepMatchesPerTripLoop:
    @pytest.mark.parametrize("cfg", [
        SimConfig(**FULL_ROUTE),
        SimConfig(**FULL_ROUTE, events_per_day=0.0),
        SimConfig(**FULL_ROUTE, noise_cv=0.0),
        SimConfig(**FULL_ROUTE, peak_amplitude=0.0),
        SimConfig(**{**FULL_ROUTE, "trips_per_day": 1}),
        # fast fronts and many events: products of several lifts, and caps
        SimConfig(route=RouteSpec(12, 800.0), weeks=2, trips_per_day=9, seed=6,
                  events_per_day=12.0, event_speed_range_spm=(5.0, 50.0)),
    ], ids=["3-weeks-34-sections", "no-events", "no-noise", "no-peaks",
            "one-trip-a-day", "crowded-events"])
    def test_trips_and_event_log_are_bitwise_equal(self, cfg):
        want, want_log = reference_simulate(cfg)
        trips, log = simulate_dataset(cfg)
        assert [(t.trip_id, t.day_index, t.weekday) for t in trips] == [
            w[:3] for w in want]
        for t, (*_, entries, z) in zip(trips, want):
            assert np.array_equal(t.entry_times, entries)
            assert np.array_equal(t.travel_times, z)
        assert log == want_log

    def test_a_day_without_events(self):
        cfg = SimConfig(route=RouteSpec(20, 800.0), weeks=2, trips_per_day=20,
                        events_per_day=0.5, seed=4)
        trips, log = simulate_dataset(cfg)
        event_days = {day for day, _ in log}
        assert event_days and len(event_days) < len({t.day_index for t in trips})
        want, want_log = reference_simulate(cfg)
        assert log == want_log
        for t, (*_, entries, z) in zip(trips, want, strict=True):
            assert np.array_equal(t.entry_times, entries)
            assert np.array_equal(t.travel_times, z)

    def test_past_midnight_gives_the_same_error(self):
        # dispatches fit before midnight, but the trips run past it
        cfg = SimConfig(weeks=1, trips_per_day=3, headway_mean_s=600.0,
                        first_dispatch_s=84000.0, seed=2)
        with pytest.raises(ValueError) as want:
            reference_simulate(cfg)
        with pytest.raises(ValueError) as got:
            simulate_dataset(cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("trip 0 (day 0) enters section ")

    def test_factor_on_an_array_of_times_equals_scalar_calls(self):
        ev = CongestionEvent(origin_section=9, onset_s=1000.0, duration_s=2400.0,
                             severity=2.3, upstream_speed_spm=0.7, decay=0.93)
        times = np.linspace(900.0, 3600.0, 271)
        for section in range(1, 12):
            got = ev.factor(section, times)
            assert got.shape == times.shape
            scalar = [ev.factor(section, t) for t in times.tolist()]
            assert np.array_equal(got, scalar)
            assert scalar == [reference_factor(ev, section, t)
                              for t in times.tolist()]
            assert 1.0 < got.max() if section <= 9 else got.max() == 1.0

    def test_peak_multiplier_on_an_array_equals_scalar_calls(self):
        cfg = SimConfig()
        times = np.linspace(5 * 3600.0, 23 * 3600.0, 997).reshape(997, 1)
        got = peak_multiplier(cfg, times)
        assert got.shape == times.shape
        assert np.array_equal(got[:, 0], [reference_peak(cfg, t)
                                          for t in times[:, 0].tolist()])


class TestDeterminismAndShape:
    def test_identical_configs_identical_datasets(self):
        cfg = SimConfig(route=RouteSpec(8, 800.0), weeks=2, trips_per_day=6,
                        seed=11)
        a, ea = simulate_dataset(cfg)
        b, eb = simulate_dataset(cfg)
        assert len(a) == len(b) == 2 * 6 * 6
        for ta, tb in zip(a, b):
            assert ta.trip_id == tb.trip_id
            npt.assert_array_equal(ta.entry_times, tb.entry_times)
            npt.assert_array_equal(ta.travel_times, tb.travel_times)
        assert [(d, e.onset_s) for d, e in ea] == [(d, e.onset_s) for d, e in eb]

    def test_different_seeds_differ(self):
        a, _ = simulate_dataset(quiet_config(noise_cv=0.1, seed=1))
        b, _ = simulate_dataset(quiet_config(noise_cv=0.1, seed=2))
        assert any(np.any(ta.travel_times != tb.travel_times)
                   for ta, tb in zip(a, b))

    def test_no_sunday_service(self):
        trips, _ = simulate_dataset(quiet_config())
        assert all(t.weekday != 6 for t in trips)
        assert {t.day_index % 7 for t in trips} == {0, 1, 2, 3, 4, 5}

    def test_trips_are_chain_consistent(self):
        cfg = SimConfig(route=RouteSpec(10, 800.0), weeks=2, trips_per_day=5,
                        seed=7)
        trips, _ = simulate_dataset(cfg)
        TripDataset(trips, cfg.route)  # validates every trip


class TestFactors:
    def test_all_multipliers_one_gives_base_profile(self):
        cfg = quiet_config()
        base = cfg.resolve_base_profile()
        trips, _ = simulate_dataset(cfg)
        for t in trips:
            npt.assert_allclose(t.travel_times, base, rtol=1e-12)

    def test_single_event_doubles_affected_section(self):
        cfg = quiet_config(weeks=1, trips_per_day=1)
        clean, _ = simulate_dataset(cfg)
        trip = clean[0]
        origin = 4
        event = CongestionEvent(origin_section=origin,
                                onset_s=trip.entry(origin) - 100.0,
                                duration_s=3600.0, severity=2.0,
                                upstream_speed_spm=1e9, decay=0.5)
        assert event.factor(origin, trip.entry(origin)) == 2.0
        # factor decays per section moving away from the origin
        assert event.factor(origin - 1, trip.entry(origin)) == 1.5
        assert event.factor(origin + 1, trip.entry(origin)) == 1.0
        assert event.factor(origin, event.onset_s - 1.0) == 1.0

    def test_event_front_moves_upstream_over_time(self):
        ev = CongestionEvent(origin_section=10, onset_s=0.0, duration_s=3600.0,
                             severity=2.0, upstream_speed_spm=1.0, decay=1.0)
        assert ev.factor(8, 60.0) == 1.0     # front has moved 1 section
        assert ev.factor(8, 121.0) == 2.0    # now 2 sections upstream
        assert ev.factor(10, 30.0) == 2.0

    def test_event_locality_against_counterfactual(self):
        cfg = quiet_config(weeks=1, trips_per_day=3, noise_cv=0.05,
                           peak_amplitude=0.3, events_per_day=1.5, seed=5)
        with_events, log = simulate_dataset(cfg)
        without, _ = simulate_dataset(replace(cfg, events_per_day=0.0))
        assert log, "seed must produce at least one event"
        by_day = {}
        for day, ev in log:
            by_day.setdefault(day, []).append(ev)
        touched_total = 0
        for te, tn in zip(with_events, without):
            events = by_day.get(te.day_index, [])
            touched = np.array([
                any(ev.factor(sec, te.entry(sec)) != 1.0 for ev in events)
                for sec in range(1, len(te.entry_times) + 1)])
            touched_total += touched.sum()
            npt.assert_array_equal(te.travel_times[~touched],
                                   tn.travel_times[~touched])
            if touched.any():
                assert np.all(te.travel_times[touched]
                              > tn.travel_times[touched])
        assert touched_total > 0

    def test_peak_multiplier_shape(self):
        cfg = quiet_config(peak_amplitude=0.5)
        assert peak_multiplier(quiet_config(), 8.5 * 3600) == 1.0
        assert peak_multiplier(cfg, 8.5 * 3600) > 1.4
        assert peak_multiplier(cfg, 3 * 3600) < 1.1

    def test_weekday_seasonality(self):
        mults = (1.2, 1.0, 1.0, 1.0, 1.0, 0.8)
        cfg = quiet_config(weeks=6, trips_per_day=10, noise_cv=0.05,
                           weekday_multipliers=mults, seed=13)
        trips, _ = simulate_dataset(cfg)
        ratios = {}
        for wd in range(6):
            z = np.concatenate([t.travel_times for t in trips
                                if t.weekday == wd])
            ratios[wd] = (np.mean(z), np.std(z) / np.sqrt(len(z)))
        for wd in range(6):
            expect = ratios[1][0] * mults[wd] / mults[1]
            got, se = ratios[wd]
            assert abs(got - expect) < 3 * se + 3 * ratios[1][1]


class TestUpstreamCorrelation:
    def test_events_create_anticausal_correlation(self):
        cfg = SimConfig(route=RouteSpec(20, 800.0), weeks=3, trips_per_day=20,
                        events_per_day=6.0, noise_cv=0.08, seed=4)
        with_events, _ = simulate_dataset(cfg)
        without, _ = simulate_dataset(replace(cfg, events_per_day=0.0))

        def corr(trips):
            by_day = {}
            for t in trips:
                by_day.setdefault(t.day_index, []).append(t)
            xs, ys = [], []
            for day_trips in by_day.values():
                day_trips.sort(key=lambda t: t.start_time)
                for prev, cur in zip(day_trips, day_trips[1:]):
                    for sec in range(1, len(cur.entry_times) - 3):
                        xs.append(prev.travel(sec + 3))  # downstream, earlier bus
                        ys.append(cur.travel(sec))       # upstream, current bus
            return float(np.corrcoef(xs, ys)[0, 1])

        c_ev, c_no = corr(with_events), corr(without)
        assert c_ev > 0
        assert c_ev > c_no + 0.05


class TestSplit:
    def test_eight_weeks_split_seven_one(self):
        cfg = quiet_config(weeks=8, trips_per_day=2)
        trips, _ = simulate_dataset(cfg)
        train, test = split_train_test(trips)
        assert {t.day_index // 7 for t in train} == set(range(7))
        assert {t.day_index // 7 for t in test} == {7}

    def test_two_weeks(self):
        trips, _ = simulate_dataset(quiet_config(weeks=2, trips_per_day=2))
        train, test = split_train_test(trips)
        assert {t.day_index // 7 for t in train} == {0}
        assert {t.day_index // 7 for t in test} == {1}

    def test_partition_properties(self):
        trips, _ = simulate_dataset(quiet_config(weeks=3, trips_per_day=3))
        train, test = split_train_test(trips)
        ids = {t.trip_id for t in trips}
        assert {t.trip_id for t in train} | {t.trip_id for t in test} == ids
        assert not ({t.trip_id for t in train} & {t.trip_id for t in test})

    def test_single_week_raises(self):
        trips, _ = simulate_dataset(quiet_config(weeks=1, trips_per_day=2))
        with pytest.raises(ValueError):
            split_train_test(trips)


def test_events_csv(tmp_path):
    cfg = quiet_config(events_per_day=2.0, seed=2)
    _, log = simulate_dataset(cfg)
    path = tmp_path / "events.csv"
    save_events_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "day,origin_section,onset_s,duration_s,severity,upstream_speed"
    assert len(lines) == len(log) + 1


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(weeks=0)
    with pytest.raises(ValueError):
        SimConfig(weekday_multipliers=(1.0,) * 7)
    with pytest.raises(ValueError, match="headway_mean_s: must be > 0"):
        SimConfig(headway_mean_s=0.0)
    with pytest.raises(ValueError, match="event_speed_range_spm: must be two "
                                         "ordered values > 0"):
        SimConfig(event_speed_range_spm=(1.5, 0.3))
    # 21600 + 29 * (2400 + 240) s: the last trip would leave after midnight
    with pytest.raises(ValueError, match=re.escape(
            "first_dispatch_s + (trips_per_day - 1) * (headway_mean_s + "
            "headway_jitter_s): must be < 86400 (midnight), got 98160.0")):
        SimConfig(trips_per_day=30, headway_mean_s=2400.0)
    SimConfig(trips_per_day=30, headway_mean_s=1990.0)  # 21600 + 29 * 2230 fits
    with pytest.raises(ValueError):
        CongestionEvent(1, 0.0, 10.0, severity=0.5, upstream_speed_spm=1.0)
