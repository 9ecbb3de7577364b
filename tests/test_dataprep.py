import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from busarrival import dataprep
from busarrival.dataprep import (DEC_TE_PV, DEC_TE_PW, DEC_Z_PV, DEC_Z_PW,
                                 DataError, PartialTripError, RouteSpec,
                                 TripDataset, build_example, build_examples,
                                 closest_prev_trip_at_section,
                                 closest_prev_week_trip, example_key,
                                 fit_normalizer, interpolate_trip)
from busarrival.numkit import make_rng
from conftest import make_example, make_trip


def random_day_trips(rng, day, n_trips, n_sections, headway=300.0,
                     bunching=True):
    """Trips with heavy headway jitter so entry orders invert across sections."""
    trips = []
    start = 6 * 3600.0
    for k in range(n_trips):
        start += rng.uniform(30.0, headway)
        travel = rng.uniform(40.0, 400.0, size=n_sections)
        trips.append(make_trip(day * 1000 + k, day, start, travel))
    if bunching:
        return trips
    return trips


class TestTripRecord:
    def test_chain_consistency(self):
        t = make_trip(1, 0, 21600.0, [100.0, 120.0, 90.0, 80.0, 70.0, 60.0])
        t.validate()
        rebuilt = t.entry_times[0] + np.concatenate(
            [[0.0], np.cumsum(t.travel_times[:-1])])
        npt.assert_allclose(rebuilt, t.entry_times, atol=1e-6)

    def test_validation_rejects_bad_trips(self):
        t = make_trip(1, 0, 0.0, [10.0, 10.0, 10.0, 10.0])
        t.travel_times[2] = -1.0
        with pytest.raises(DataError):
            t.validate()
        t2 = make_trip(2, 0, 0.0, [10.0] * 4)
        t2.entry_times[1] = 999.0
        with pytest.raises(DataError):
            t2.validate()
        with pytest.raises(DataError, match="negative trip id"):
            make_trip(-1, 0, 0.0, [10.0] * 4).validate()


class TestInterpolation:
    def test_constant_speed(self):
        route = RouteSpec(5, 800.0)
        v = 8.0  # m/s
        ts = np.arange(0.0, 600.0, 7.0)
        dist = ts * v
        trip, rejected = interpolate_trip(ts, dist, route, trip_id=1, day_index=0)
        npt.assert_allclose(trip.travel_times, 800.0 / v, atol=1e-9)
        assert rejected == []

    def test_samples_exactly_at_boundaries(self):
        route = RouteSpec(4, 100.0)
        ts = np.array([10.0, 30.0, 70.0, 90.0, 140.0])
        dist = np.array([0.0, 100.0, 200.0, 300.0, 400.0])
        trip, _ = interpolate_trip(ts, dist, route, trip_id=1, day_index=0)
        npt.assert_array_equal(trip.entry_times, ts[:-1])
        npt.assert_array_equal(trip.travel_times, np.diff(ts))

    def test_two_speed_trace_hand_computed(self):
        # 3 sections of 100 m; 10 m/s for the first 150 m, then 5 m/s
        route = RouteSpec(4, 100.0)
        ts = np.array([0.0, 15.0, 65.0])
        dist = np.array([0.0, 150.0, 400.0])
        trip, _ = interpolate_trip(ts, dist, route, trip_id=1, day_index=0)
        # crossings: 0 m @0s, 100 m @10s, 200 m @25s, 300 m @45s, 400 m @65s
        npt.assert_allclose(trip.entry_times, [0.0, 10.0, 25.0, 45.0])
        npt.assert_allclose(trip.travel_times, [10.0, 15.0, 20.0, 20.0])

    def test_partial_trace_rejected(self):
        route = RouteSpec(4, 100.0)
        with pytest.raises(PartialTripError):
            interpolate_trip([0.0, 10.0], [0.0, 250.0], route, 1, 0)
        with pytest.raises(PartialTripError):
            interpolate_trip([0.0, 10.0], [50.0, 400.0], route, 1, 0)

    def test_nonmonotone_samples_reported(self):
        route = RouteSpec(4, 100.0)
        ts = np.array([0.0, 10.0, 12.0, 20.0, 40.0])
        dist = np.array([0.0, 120.0, 80.0, 240.0, 400.0])  # 40 m backwards
        trip, rejected = interpolate_trip(ts, dist, route, 1, 0,
                                          tolerance_m=10.0)
        assert rejected == [2]
        assert trip.n_sections == 4


class TestClosestPrevTrip:
    def test_picks_most_recent(self, small_route):
        a = make_trip(1, 0, 9 * 3600.0, [60.0] * 6)
        b = make_trip(2, 0, 9 * 3600.0 + 1200.0, [60.0] * 6)
        ds = TripDataset([a, b], small_route)
        hit = closest_prev_trip_at_section(ds, 0, 1, 9.5 * 3600.0)
        assert hit.trip_id == 2

    def test_none_before_first_entry(self, small_route):
        a = make_trip(1, 0, 9 * 3600.0, [60.0] * 6)
        ds = TripDataset([a], small_route)
        assert closest_prev_trip_at_section(ds, 0, 1, 8 * 3600.0) is None

    def test_strictly_before(self, small_route):
        a = make_trip(1, 0, 9 * 3600.0, [60.0] * 6)
        ds = TripDataset([a], small_route)
        assert closest_prev_trip_at_section(ds, 0, 1, 9 * 3600.0) is None

    def test_tie_prefers_larger_trip_id(self, small_route):
        a = make_trip(1, 0, 9 * 3600.0, [60.0] * 6)
        b = make_trip(7, 0, 9 * 3600.0, [70.0] * 6)
        ds = TripDataset([a, b], small_route)
        for brute in (False, True):
            hit = closest_prev_trip_at_section(ds, 0, 1, 10 * 3600.0,
                                               brute_force=brute)
            assert hit.trip_id == 7

    def test_matches_brute_force_under_bunching(self):
        route = RouteSpec(8, 500.0)
        rng = make_rng(77)
        trips = random_day_trips(rng, 0, 50, 8)
        ds = TripDataset(trips, route)
        for _ in range(200):
            sec = int(rng.integers(1, 9))
            t_c = float(rng.uniform(6 * 3600.0, 12 * 3600.0))
            fast = closest_prev_trip_at_section(ds, 0, sec, t_c)
            slow = closest_prev_trip_at_section(ds, 0, sec, t_c,
                                                brute_force=True)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.trip_id == slow.trip_id


class TestClosestPrevWeek:
    def test_closest_start(self, small_route):
        a = make_trip(1, 0, 8 * 3600.0, [60.0] * 6)
        b = make_trip(2, 0, 9 * 3600.0, [60.0] * 6)
        cur = make_trip(3, 7, 8 * 3600.0 + 2400.0, [60.0] * 6)  # 08:40
        ds = TripDataset([a, b, cur], small_route)
        hit = closest_prev_week_trip(ds, 7, cur.start_time)
        assert hit.trip_id == 2

    def test_empty_previous_week(self, small_route):
        cur = make_trip(1, 7, 8 * 3600.0, [60.0] * 6)
        ds = TripDataset([cur], small_route)
        assert closest_prev_week_trip(ds, 7, cur.start_time) is None

    def test_tie_prefers_earlier(self, small_route):
        a = make_trip(1, 0, 8 * 3600.0, [60.0] * 6)
        b = make_trip(2, 0, 10 * 3600.0, [60.0] * 6)
        cur = make_trip(3, 7, 9 * 3600.0, [60.0] * 6)
        ds = TripDataset([a, b, cur], small_route)
        assert closest_prev_week_trip(ds, 7, cur.start_time).trip_id == 1

    def test_equal_starts_prefer_smaller_id(self, small_route):
        a = make_trip(1, 0, 8 * 3600.0, [60.0] * 6)
        b = make_trip(2, 0, 8 * 3600.0, [70.0] * 6)
        cur = make_trip(3, 7, 8 * 3600.0 + 50.0, [60.0] * 6)
        ds = TripDataset([a, b, cur], small_route)
        for brute in (False, True):
            hit = closest_prev_week_trip(ds, 7, cur.start_time, brute_force=brute)
            assert hit.trip_id == 1

    def test_matches_brute_force(self):
        route = RouteSpec(5, 500.0)
        rng = make_rng(5)
        trips = []
        for day in (0, 7, 14):
            trips.extend(random_day_trips(rng, day, 20, 5))
        ds = TripDataset(trips, route)
        for _ in range(300):
            day = int(rng.choice([7, 14]))
            start = float(rng.uniform(5 * 3600.0, 11 * 3600.0))
            fast = closest_prev_week_trip(ds, day, start)
            slow = closest_prev_week_trip(ds, day, start, brute_force=True)
            assert fast.trip_id == slow.trip_id


class TestBuildExamples:
    def test_same_week_yields_no_examples(self, small_route):
        trips = [make_trip(1, 0, 21600.0, [60.0] * 6),
                 make_trip(2, 1, 21600.0, [60.0] * 6)]
        ds = TripDataset(trips, small_route)
        examples, skips = build_examples(ds)
        assert examples == []
        assert {s.reason for s in skips} == {"no_previous_week_trip"}
        assert len(skips) == 2 * 3  # 2 trips x m in {3,4,5}

    def test_two_week_toy_counts_and_fallback(self, small_route):
        trips = [make_trip(d, d, 21600.0 + 60 * d, [60.0 + d] * 6)
                 for d in range(12) if d % 7 != 6]
        ds = TripDataset(trips, small_route)
        examples, skips = build_examples(ds, positions=[3, 4, 5])
        week2 = [t for t in trips if t.day_index >= 7]
        assert len(examples) == 3 * len(week2)
        # one trip per day: no previous bus exists, so every decoder row
        # falls back to previous-week values
        for ex in examples:
            assert ex.fallback_mask.all()
            assert (ex.prev_trip_ids == -1).all()
            pw = ds.by_id[ex.pw_trip_id]
            npt.assert_array_equal(ex.dec[:, DEC_Z_PV], ex.dec[:, DEC_Z_PW])
            npt.assert_array_equal(ex.dec[:, DEC_Z_PW],
                                   pw.travel_times[ex.m:])

    def test_field_layout_matches_hand_selection(self, small_route):
        # two buses on day 7 so real previous-bus inputs exist
        pw = make_trip(1, 0, 21600.0, [100.0, 110.0, 120.0, 130.0, 140.0, 150.0])
        early = make_trip(10, 7, 21000.0, [90.0] * 6)
        cur = make_trip(11, 7, 23000.0, [80.0, 81.0, 82.0, 83.0, 84.0, 85.0])
        ds = TripDataset([pw, early, cur], small_route)
        examples, _ = build_examples(ds, positions=[4])
        ex = [e for e in examples if e.trip_id == 11][0]
        assert ex.m == 4 and ex.k == 2
        assert ex.t_c == cur.entry(5)
        # encoder rows run from section m down to 1
        npt.assert_array_equal(ex.enc[:, 0], [83.0, 82.0, 81.0, 80.0])
        npt.assert_array_equal(ex.enc[:, 1], [130.0, 120.0, 110.0, 100.0])
        # decoder rows cover sections 5 and 6 of the earlier bus + prev week
        npt.assert_array_equal(ex.dec[:, DEC_Z_PV], [90.0, 90.0])
        npt.assert_array_equal(ex.dec[:, DEC_TE_PV],
                               [early.entry(5), early.entry(6)])
        npt.assert_array_equal(ex.dec[:, DEC_Z_PW], [140.0, 150.0])
        npt.assert_array_equal(ex.dec[:, DEC_TE_PW],
                               [pw.entry(5), pw.entry(6)])
        npt.assert_array_equal(ex.targets, [84.0, 85.0])
        npt.assert_array_equal(ex.prev_trip_ids, [10, 10])

    def test_temporal_sanity(self):
        route = RouteSpec(8, 500.0)
        rng = make_rng(3)
        trips = []
        for day in (0, 1, 7, 8):
            trips.extend(random_day_trips(rng, day, 12, 8))
        ds = TripDataset(trips, route)
        examples, _ = build_examples(ds)
        assert examples
        for ex in examples:
            real = ~ex.fallback_mask
            assert np.all(ex.dec[real, DEC_TE_PV] < ex.t_c)

    def test_skip_policy(self, small_route):
        trips = [make_trip(d, d, 21600.0, [60.0] * 6) for d in (0, 7)]
        ds = TripDataset(trips, small_route)
        examples, skips = build_examples(ds, fallback="skip")
        assert examples == []
        assert {s.reason for s in skips} >= {"no_previous_bus"}

    def test_indexed_equals_brute_force(self):
        route = RouteSpec(8, 500.0)
        rng = make_rng(21)
        trips = []
        for day in (0, 1, 7, 8):
            trips.extend(random_day_trips(rng, day, 15, 8))
        ds = TripDataset(trips, route)
        fast, _ = build_examples(ds)
        slow, _ = build_examples(ds, brute_force=True)
        assert {example_key(e) for e in fast} == {example_key(e) for e in slow}

    def test_single_example_builder_matches_batch_builder(self):
        route = RouteSpec(8, 500.0)
        rng = make_rng(23)
        trips = []
        for day in (0, 1, 7, 8):
            trips.extend(random_day_trips(rng, day, 10, 8))
        ds = TripDataset(trips, route)
        for fallback in ("previous_week", "skip"):
            examples, skips = build_examples(ds, fallback=fallback)
            built = {}
            for trip in ds.trips:
                pw = closest_prev_week_trip(ds, trip.day_index, trip.start_time)
                for m in range(3, 8):
                    built[(trip.trip_id, m)] = build_example(
                        ds, trip, m, pw, fallback=fallback)
            assert len(built) == len(examples) + len(skips)
            for ex in examples:
                assert example_key(built[(ex.trip_id, ex.m)]) == example_key(ex)
            for skip in skips:
                assert built[(skip.trip_id, skip.m)] == skip.reason

    def test_query_time_override(self, small_route):
        pw = make_trip(1, 0, 21600.0, [100.0, 110.0, 120.0, 130.0, 140.0, 150.0])
        early = make_trip(10, 7, 21000.0, [90.0] * 6)
        cur = make_trip(11, 7, 23000.0, [80.0, 81.0, 82.0, 83.0, 84.0, 85.0])
        ds = TripDataset([pw, early, cur], small_route)
        # before the earlier bus reaches section 5 nothing is known about it
        t_c = early.entry(5) - 1.0
        ex = build_example(ds, cur, 4, pw, t_c)
        assert ex.t_c == t_c and ex.fallback_mask.all()
        npt.assert_array_equal(ex.dec[:, DEC_Z_PV], [140.0, 150.0])
        npt.assert_array_equal(ex.targets, [84.0, 85.0])
        assert build_example(ds, cur, 4, pw, t_c, fallback="skip") == \
            "no_previous_bus"
        assert build_example(ds, cur, 4, None) == "no_previous_week_trip"

    def test_empty_dataset_raises(self, small_route):
        with pytest.raises(DataError):
            build_examples(TripDataset([], small_route))

    def test_bad_position_raises(self, small_route):
        ds = TripDataset([make_trip(1, 0, 21600.0, [60.0] * 6)], small_route)
        with pytest.raises(ValueError):
            build_examples(ds, positions=[6])


class TestComplexity:
    def test_indexed_query_is_logarithmic(self):
        class CountingTime(float):
            """Query time that counts the ordering comparisons made with it.

            ``==`` is not counted: a tuple comparison also calls it once per
            probe, before the ordering test."""
            count = 0

            def __lt__(self, other):
                CountingTime.count += 1
                return float(self) < other

            def __gt__(self, other):
                CountingTime.count += 1
                return float(self) > other

        route = RouteSpec(4, 500.0)
        rng = make_rng(9)
        for n in (64, 512, 4096):
            starts = rng.uniform(0, 1e5, size=n)
            ds = TripDataset([make_trip(i, 0, float(s), [60.0] * 4)
                              for i, s in enumerate(starts)], route)
            queries = rng.uniform(0, 1e5, size=200)
            CountingTime.count = 0
            for q in queries:
                closest_prev_trip_at_section(ds, 0, 2, CountingTime(q))
            per_query = CountingTime.count / len(queries)
            assert 0 < per_query <= np.log2(n) + 2


class TestNormalizer:
    def test_constant_feature_normalizes_to_zero(self, small_route):
        trips = [make_trip(d, d, 21600.0, [60.0] * 6) for d in (0, 1, 7, 8)]
        ds = TripDataset(trips, small_route)
        examples, _ = build_examples(ds)
        with pytest.warns(UserWarning):
            norm = fit_normalizer(examples)
        assert norm.travel_std == 1.0
        npt.assert_array_equal(norm.norm_travel(examples[0].targets),
                               np.zeros(examples[0].k))

    def test_round_trip(self, toy_norm):
        rng = make_rng(4)
        x = rng.uniform(10, 500, size=100)
        npt.assert_allclose(toy_norm.denorm_travel(toy_norm.norm_travel(x)), x,
                            atol=1e-9)
        t = rng.uniform(0, 86400, size=100)
        npt.assert_allclose(toy_norm.denorm_tod(toy_norm.norm_tod(t)), t,
                            atol=1e-9)

    def test_matches_two_pass_computation(self):
        route = RouteSpec(6, 500.0)
        rng = make_rng(6)
        trips = []
        for day in (0, 7):
            trips.extend(random_day_trips(rng, day, 6, 6))
        ds = TripDataset(trips, route)
        examples, _ = build_examples(ds)
        norm = fit_normalizer(examples)
        vals = []
        for ex in examples:
            vals.extend(ex.enc.ravel().tolist())
            vals.extend(ex.dec[:, DEC_Z_PV].tolist())
            vals.extend(ex.dec[:, DEC_Z_PW].tolist())
            vals.extend(ex.targets.tolist())
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(norm.travel_mean - mean) < 1e-9
        assert abs(norm.travel_std - var ** 0.5) < 1e-9

    def test_too_few_examples(self):
        with pytest.raises(ValueError):
            fit_normalizer([])


class TestCsvFormats:
    def test_trip_roundtrip(self, tmp_path, small_route):
        rng = make_rng(2)
        trips = random_day_trips(rng, 0, 5, 6)
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv(trips, path)
        header = path.read_text().splitlines()[0]
        assert header == "trip_id,day,weekday,section,entry_time_s,travel_time_s"
        ds = dataprep.load_trips_csv(path, small_route)
        assert len(ds) == 5
        for t in trips:
            got = ds.by_id[t.trip_id]
            npt.assert_allclose(got.entry_times, t.entry_times, atol=1e-6)
            npt.assert_allclose(got.travel_times, t.travel_times, atol=1e-6)

    def test_malformed_row_reports_line(self, tmp_path, small_route):
        path = tmp_path / "bad.csv"
        path.write_text("trip_id,day,weekday,section,entry_time_s,travel_time_s\n"
                        "1,0,0,1,100.0,60.0\n"
                        "1,0,0,two,xxx,60.0\n")
        with pytest.raises(DataError, match="row 3"):
            dataprep.load_trips_csv(path, small_route)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:3] + [rows[2]] + rows[3:],
         "trip 0 repeats section 2"),
        (lambda rows: rows[:3] + [rows[3].replace("0,0,0,3,", "0,1,1,3,", 1)]
         + rows[4:], "trip 0 has day 1, weekday 1; its earlier rows say day 0"),
    ])
    def test_inconsistent_trip_rows_rejected(self, tmp_path, small_route,
                                             edit, message):
        trips = [make_trip(0, 0, 21600.0, [60.0] * 6),
                 make_trip(1, 0, 22000.0, [60.0] * 6)]
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv(trips, path)
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(rows)))
        with pytest.raises(DataError, match=re.escape(f"{path}:4: {message}")):
            dataprep.load_trips_csv(path, small_route)

    def test_wrong_header_rejected(self, tmp_path, small_route):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            dataprep.load_trips_csv(path, small_route)

    def test_example_id_and_mask_shapes_checked(self):
        ex = make_example(make_rng(3), 5, 8)
        ex.validate(8)
        for name in ("prev_trip_ids", "fallback_mask"):
            bad = replace(ex, **{name: getattr(ex, name)[:-1]})
            with pytest.raises(DataError, match="fallback mask shape mismatch"):
                bad.validate(8)

    def test_invalid_jsonl_example_reports_line(self, tmp_path):
        rng = make_rng(13)
        good, bad = make_example(rng, 3, 8), make_example(rng, 5, 8)
        bad.targets[0] = -bad.targets[0]
        path = tmp_path / "ex.jsonl"
        dataprep.save_examples_jsonl([good, bad], path)
        with pytest.raises(DataError, match=re.escape(f"{path}:2: ")
                           + ".*travel times must be positive"):
            dataprep.load_examples_jsonl(path)

    def test_examples_jsonl_roundtrip(self, tmp_path):
        rng = make_rng(13)
        examples = [make_example(rng, m, 8, trip_id=i)
                    for i, m in enumerate((3, 5, 7))]
        path = tmp_path / "ex.jsonl"
        dataprep.save_examples_jsonl(examples, path)
        loaded = dataprep.load_examples_jsonl(path)
        assert len(loaded) == 3
        for a, b in zip(examples, loaded):
            assert example_key(a) == example_key(b)

    def test_trace_csv_load_and_interpolate(self, tmp_path):
        route = RouteSpec(4, 100.0)
        path = tmp_path / "trace.csv"
        path.write_text("trip_id,timestamp_s,route_distance_m\n"
                        "5,0.0,0.0\n5,40.0,400.0\n"
                        "6,100.0,0.0\n6,120.0,150.0\n6,180.0,400.0\n")
        traces = dataprep.load_trace_csv(path)
        assert set(traces) == {5, 6}
        trip, _ = dataprep.interpolate_trip(*traces[5], route, trip_id=5,
                                            day_index=0)
        npt.assert_allclose(trip.travel_times, 10.0)

    def test_trace_csv_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="header"):
            dataprep.load_trace_csv(path)

    def test_skip_report(self, tmp_path):
        skips = [dataprep.SkipRecord(0, 1, 3, "no_previous_week_trip")]
        path = tmp_path / "skips.csv"
        dataprep.save_skip_report_csv(skips, path)
        assert path.read_text() == ("day,trip_id,m,reason\n"
                                    "0,1,3,no_previous_week_trip\n")
