import re

import numpy as np
import numpy.testing as npt
import pytest

from busarrival.dataprep import RouteSpec, TripDataset
from busarrival.simulator import (CongestionEvent, SimConfig, no_event_config,
                                  peak_multiplier, save_events_csv,
                                  simulate_dataset, split_train_test)


def quiet_config(**kw):
    """No noise, no peaks, no events, flat weekdays unless overridden."""
    defaults = dict(route=RouteSpec(6, 800.0), weeks=2, trips_per_day=4,
                    peak_amplitude=0.0, weekday_multipliers=(1.0,) * 6,
                    events_per_day=0.0, noise_cv=0.0, seed=3)
    defaults.update(kw)
    return SimConfig(**defaults)


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
        without, _ = simulate_dataset(no_event_config(cfg))
        assert log, "seed must produce at least one event"
        by_day = {}
        for day, ev in log:
            by_day.setdefault(day, []).append(ev)
        touched_total = 0
        for te, tn in zip(with_events, without):
            events = by_day.get(te.day_index, [])
            touched = np.array([
                any(ev.factor(sec, te.entry(sec)) != 1.0 for ev in events)
                for sec in range(1, te.n_sections + 1)])
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
        without, _ = simulate_dataset(no_event_config(cfg))

        def corr(trips):
            by_day = {}
            for t in trips:
                by_day.setdefault(t.day_index, []).append(t)
            xs, ys = [], []
            for day_trips in by_day.values():
                day_trips.sort(key=lambda t: t.start_time)
                for prev, cur in zip(day_trips, day_trips[1:]):
                    for sec in range(1, cur.n_sections - 3):
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
