import json
import re
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from busarrival import dataprep
from busarrival.dataprep import (DEC_TE_PV, DEC_TE_PW, DEC_Z_PV, DEC_Z_PW,
                                 DataError, NormStats, RouteSpec, SkipRecord,
                                 TrainingExample, TripDataset,
                                 build_example, build_examples,
                                 closest_prev_trip_at_section,
                                 closest_prev_week_trip, example_key,
                                 fit_normalizer)
from busarrival.numkit import make_rng
from conftest import (FALLBACK_MISMATCH, assert_same_examples, denorm_tod,
                      make_example, make_trip, reference_load_examples_jsonl)


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


def tied_day_trips(rng, day, n_trips, n_sections):
    """Bunched trips; some repeat an earlier trip's start and first sections,
    so their entry times tie exactly there, and the later one has the larger
    trip id."""
    trips = []
    start = 6 * 3600.0
    for k in range(n_trips):
        travel = rng.uniform(40.0, 400.0, size=n_sections)
        if trips and rng.random() < 0.4:
            twin = trips[int(rng.integers(len(trips)))]
            shared = int(rng.integers(1, n_sections))
            travel[:shared] = twin.travel_times[:shared]
            trips.append(make_trip(day * 1000 + k, day, twin.start_time, travel))
        else:
            start += rng.uniform(30.0, 300.0)
            trips.append(make_trip(day * 1000 + k, day, start, travel))
    return trips


def reference_example(ds, trip, m, pw, t_c, fallback):
    """One example from the scalar brute-force searches, one section at a
    time: the per-example oracle for the block builder."""
    if pw is None:
        return "no_previous_week_trip"
    n_s = ds.route.n_sections
    dec = np.column_stack([pw.travel_times[m:], pw.travel_times[m:],
                           pw.entry_times[m:], pw.entry_times[m:]])
    prev_ids = np.full(n_s - m, -1, dtype=np.int64)
    for i, sec in enumerate(range(m + 1, n_s + 1)):
        prev = closest_prev_trip_at_section(ds, trip.day_index, sec, t_c,
                                            brute_force=True)
        if prev is not None:
            prev_ids[i] = prev.trip_id
            dec[i, DEC_Z_PV], dec[i, DEC_TE_PV] = prev.travel(sec), prev.entry(sec)
        elif fallback == "skip":
            return "no_previous_bus"
    enc = np.column_stack([trip.travel_times[m - 1::-1], pw.travel_times[m - 1::-1]])
    return TrainingExample(m, t_c, trip.day_index, trip.trip_id, enc, dec,
                           trip.travel_times[m:].copy(), prev_ids, pw.trip_id)


def reference_examples(ds, fallback):
    examples, skips = [], []
    for trip in ds.trips:
        pw = closest_prev_week_trip(ds, trip.day_index, trip.start_time,
                                    brute_force=True)
        for m in range(3, ds.route.n_sections):
            ex = reference_example(ds, trip, m, pw, trip.entry(m + 1), fallback)
            if isinstance(ex, str):
                skips.append(SkipRecord(trip.day_index, trip.trip_id, m, ex))
            else:
                examples.append(ex)
    return examples, skips


def tied_dataset(seed, days=(0, 1, 7, 8, 9), n_trips=14):
    """Day 9 has no day 2 before it, so its trips have no previous week."""
    rng = make_rng(seed)
    trips = [t for day in days for t in tied_day_trips(rng, day, n_trips, 8)]
    return TripDataset(trips, RouteSpec(8, 500.0))


class TestTripRecord:
    def test_chain_consistency(self, small_route):
        t = make_trip(1, 0, 21600.0, [100.0, 120.0, 90.0, 80.0, 70.0, 60.0])
        TripDataset([t], small_route)
        rebuilt = t.entry_times[0] + np.concatenate(
            [[0.0], np.cumsum(t.travel_times[:-1])])
        npt.assert_allclose(rebuilt, t.entry_times, atol=1e-6)

    def test_validation_rejects_bad_trips(self):
        route = RouteSpec(4, 500.0)
        t = make_trip(1, 0, 0.0, [10.0, 10.0, 10.0, 10.0])
        t.travel_times[2] = -1.0
        with pytest.raises(DataError):
            TripDataset([t], route)
        t2 = make_trip(2, 0, 0.0, [10.0] * 4)
        t2.entry_times[1] = 999.0
        with pytest.raises(DataError):
            TripDataset([t2], route)
        with pytest.raises(DataError, match="negative trip id"):
            TripDataset([make_trip(-1, 0, 0.0, [10.0] * 4)], route)


def break_trip(trip, check):
    """``trip`` edited to fail one of the seven checks TripDataset makes of a trip."""
    if check == "length":
        trip.travel_times = trip.travel_times[:-1]
    elif check == "travel":
        trip.travel_times[1] = -1.0
    elif check == "increasing":
        trip.entry_times[2] = trip.entry_times[1]
    elif check == "consistent":
        trip.entry_times[3] += 5.0
    elif check == "weekday":
        trip.weekday = (trip.weekday + 1) % 7
    elif check == "day":
        trip.day_index += 7 * dataprep.MAX_WEEKS        # the same weekday
    else:
        trip.trip_id = -trip.trip_id
    return trip


class TestTripDataset:
    def test_unknown_trip_id_is_named(self, small_route):
        ds = TripDataset([make_trip(1, 0, 21600.0, [60.0] * 6)], small_route)
        with pytest.raises(DataError, match="^no trip with id 999$"):
            ds.row_of(999)
        with pytest.raises(DataError, match="^no trip with id 999$"):
            build_example(ds, 999, 4)

    @pytest.mark.parametrize("check, message", [
        ("length", "entry/travel length mismatch"),
        ("travel", "non-positive travel time"),
        ("increasing", "entry times not increasing"),
        ("consistent", "entry times inconsistent with travel times"),
        ("weekday", "weekday does not match day index"),
        ("day", "day index outside [0, 3640)"),
        ("negative-id", "negative trip id"),
    ])
    def test_first_bad_trip_in_input_order_is_named(self, small_route, check,
                                                    message):
        # trip 5 comes first in the input, trip 3 first in (day, start) order
        trips = [make_trip(1, 1, 21600.0, [60.0] * 6),
                 break_trip(make_trip(5, 1, 22000.0, [60.0] * 6), check),
                 make_trip(2, 0, 23000.0, [60.0] * 6),
                 break_trip(make_trip(3, 0, 21000.0, [60.0] * 6), check)]
        first = trips[1].trip_id
        with pytest.raises(DataError, match=re.escape(f"trip {first}: {message}")):
            TripDataset(trips, small_route)
        if check != "length":                   # arrays hold one length
            with pytest.raises(DataError, match=re.escape(f"trip {first}: {message}")):
                TripDataset.from_arrays(small_route,
                                        *dataprep.trip_arrays(trips, 6))
        for trip in (trips[1], trips[3]):
            with pytest.raises(DataError,
                               match=re.escape(f"trip {trip.trip_id}: {message}")):
                TripDataset([trip], small_route)

    def test_wrong_section_count_after_a_bad_trip(self, small_route):
        trips = [break_trip(make_trip(5, 1, 22000.0, [60.0] * 6), "weekday"),
                 make_trip(3, 0, 21000.0, [60.0] * 7)]
        with pytest.raises(DataError, match="trip 5: weekday"):
            TripDataset(trips, small_route)
        with pytest.raises(DataError, match="trip 3 has 7 sections, route has 6"):
            TripDataset(trips[1:], small_route)

    def test_from_arrays_matches_the_trip_list(self, small_route):
        rng = make_rng(34)
        trips = [t for day in (8, 0, 7) for t in random_day_trips(rng, day, 4, 6)]
        want = TripDataset(trips, small_route)
        got = TripDataset.from_arrays(small_route, *dataprep.trip_arrays(trips, 6))
        for name in ("entry", "travel", "ids", "day"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        fields = lambda t: (t.trip_id, t.day_index, t.weekday)
        assert [fields(t) for t in got.trips] == [fields(t) for t in want.trips]
        assert {type(v) for t in got.trips for v in fields(t)} == {int}
        assert got.days() == want.days() == [0, 7, 8]
        assert [got.row_of(t.trip_id) for t in trips] == \
            [want.row_of(t.trip_id) for t in trips]
        # the trips are views of the dataset's rows
        for i, t in enumerate(got.trips):
            assert np.shares_memory(t.entry_times, got.entry[i])
            assert np.shares_memory(t.travel_times, got.travel[i])

    def test_duplicate_trip_id_rejected(self, small_route):
        trips = [make_trip(1, 0, 21600.0, [60.0] * 6),
                 make_trip(2, 0, 22000.0, [60.0] * 6),
                 make_trip(1, 7, 21000.0, [60.0] * 6)]
        with pytest.raises(DataError, match="duplicate trip id 1"):
            TripDataset(trips, small_route)
        with pytest.raises(DataError, match="duplicate trip id 1"):
            TripDataset.from_arrays(small_route, *dataprep.trip_arrays(trips, 6))

    def test_arrays_follow_the_sorted_trips(self, small_route):
        rng = make_rng(31)
        trips = [t for day in (8, 0, 7) for t in random_day_trips(rng, day, 4, 6)]
        ds = TripDataset(trips[::-1], small_route)
        fields = lambda t: (t.trip_id, t.day_index, t.weekday,
                            t.entry_times.tobytes(), t.travel_times.tobytes())
        assert [fields(t) for t in ds.trips] == [fields(t) for t in sorted(
            trips, key=lambda t: (t.day_index, t.start_time, t.trip_id))]
        npt.assert_array_equal(ds.entry, [t.entry_times for t in ds.trips])
        npt.assert_array_equal(ds.travel, [t.travel_times for t in ds.trips])
        npt.assert_array_equal(ds.ids, [t.trip_id for t in ds.trips])


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


class TestReferenceScan:
    def test_brute_force_never_reads_the_index(self, monkeypatch):
        ds = tied_dataset(37)

        def day_order(self, day):
            raise AssertionError("the index was read")

        monkeypatch.setattr(TripDataset, "day_order", day_order)
        examples, _ = build_examples(ds, brute_force=True)
        assert examples
        trip = ds.trips[ds.day_rows(8)][-1]
        assert closest_prev_trip_at_section(ds, 8, 5, trip.entry(6),
                                            brute_force=True) is not None
        assert closest_prev_week_trip(ds, 8, trip.start_time,
                                      brute_force=True) is not None
        starts = ds.entry[ds.day_rows(8), 0]
        assert (ds.scan_prev_week_rows(8, starts) >= 0).all()
        # the patch is in force: the indexed searches do read it
        with pytest.raises(AssertionError, match="the index was read"):
            build_examples(ds)
        with pytest.raises(AssertionError, match="the index was read"):
            ds.prev_week_rows(8, starts)

    def test_scan_equals_prev_rows(self):
        ds = tied_dataset(38)
        rng = make_rng(39)
        found = missing = 0
        for day in (*ds.days(), 3):             # day 3 has no trips
            for col in range(ds.route.n_sections):
                # every entry time at the section, which the strictly-before
                # rule excludes, and times between, before and after them
                entries = ds.entry[ds.day_rows(day), col].tolist()
                t_c = np.array([*entries, *rng.uniform(6 * 3600.0, 10 * 3600.0, 20),
                                0.0, 86399.0]).reshape(-1, 1)
                got = ds.scan_prev_rows(day, col, t_c)
                assert got.shape == t_c.shape
                npt.assert_array_equal(got, ds.prev_rows(day, col, t_c))
                found, missing = found + (got >= 0).sum(), missing + (got < 0).sum()
        assert found and missing

    def test_scan_equals_prev_week_rows(self):
        ds = tied_dataset(38)
        # every start time (some repeat), 1 s either side of each, midpoints
        # between neighbours, and the ends of the day
        starts = np.unique(ds.entry[:, 0])
        queries = np.concatenate([starts, starts - 1.0, starts + 1.0,
                                  (starts[1:] + starts[:-1]) / 2, [0.0, 86399.0]])
        found = missing = 0
        for day in (*ds.days(), 3):     # days 0, 1, 3 and 9 have no previous week
            got = ds.scan_prev_week_rows(day, queries)
            npt.assert_array_equal(got, ds.prev_week_rows(day, queries))
            found, missing = found + (got >= 0).sum(), missing + (got < 0).sum()
        assert found and missing


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
            pw = ds.trips[ds.row_of(ex.pw_trip_id)]
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
                for m in range(3, 8):
                    built[(trip.trip_id, m)] = build_example(
                        ds, trip.trip_id, m, fallback=fallback)
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
        ex = build_example(ds, 11, 4, t_c)
        assert ex.t_c == t_c and ex.fallback_mask.all() and ex.pw_trip_id == 1
        npt.assert_array_equal(ex.dec[:, DEC_Z_PV], [140.0, 150.0])
        npt.assert_array_equal(ex.targets, [84.0, 85.0])
        assert build_example(ds, 11, 4, t_c, fallback="skip") == \
            "no_previous_bus"
        without_pw = TripDataset([early, cur], small_route)
        assert build_example(without_pw, 11, 4) == "no_previous_week_trip"

    @pytest.mark.parametrize("days", [[6], [100], []],
                             ids=["sunday", "outside", "none"])
    def test_days_without_trips_give_nothing(self, days):
        assert build_examples(tied_dataset(37), days=days) == ([], [])

    def test_empty_dataset_raises(self, small_route):
        with pytest.raises(DataError):
            build_examples(TripDataset([], small_route))

    def test_bad_position_raises(self, small_route):
        ds = TripDataset([make_trip(1, 0, 21600.0, [60.0] * 6)], small_route)
        with pytest.raises(ValueError):
            build_examples(ds, positions=[6])


class TestBlockBuilder:
    @pytest.mark.parametrize("fallback", ["previous_week", "skip"])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_matches_per_example_reference(self, seed, fallback):
        ds = tied_dataset(seed)
        ref, ref_skips = reference_examples(ds, fallback)
        # the data exercise the tie rule: a chosen previous bus shares its
        # entry time at that section with another trip of the day
        assert any(sum(t.entry(sec) == ds.trips[ds.row_of(pid)].entry(sec)
                       for t in ds.trips[ds.day_rows(ex.day_index)]) > 1
                   for ex in ref for sec, pid in zip(
                       range(ex.m + 1, 9), ex.prev_trip_ids) if pid >= 0)
        assert {s.reason for s in ref_skips} >= {"no_previous_week_trip"}
        for brute_force in (False, True):
            built, skips = build_examples(ds, fallback=fallback,
                                          brute_force=brute_force)
            assert [example_key(e) for e in built] == [example_key(e) for e in ref]
            assert [vars(s) for s in skips] == [vars(s) for s in ref_skips]

    def test_query_time_override_matches_reference(self):
        ds = tied_dataset(33)
        rng = make_rng(34)
        for _ in range(200):
            trip = ds.trips[int(rng.integers(len(ds)))]
            m = int(rng.integers(3, 8))
            t_c = float(rng.choice([rng.uniform(6 * 3600.0, 8 * 3600.0),
                                    ds.trips[int(rng.integers(len(ds)))].entry(m + 1)]))
            pw = closest_prev_week_trip(ds, trip.day_index, trip.start_time,
                                        brute_force=True)
            for fallback in ("previous_week", "skip"):
                got = build_example(ds, trip.trip_id, m, t_c, fallback=fallback)
                want = reference_example(ds, trip, m, pw, t_c, fallback)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert example_key(got) == example_key(want)

    def test_jsonl_bytes_match_reference(self, tmp_path):
        ds = tied_dataset(35)
        built, _ = build_examples(ds)
        ref, _ = reference_examples(ds, "previous_week")
        dataprep.save_examples_jsonl(built, tmp_path / "built.jsonl")
        dataprep.save_examples_jsonl(ref, tmp_path / "ref.jsonl")
        assert (tmp_path / "built.jsonl").read_bytes() == \
            (tmp_path / "ref.jsonl").read_bytes()

    def test_examples_share_no_memory(self):
        ds = tied_dataset(36, days=(0, 7))
        examples, _ = build_examples(ds)
        single = build_example(ds, ds.trips[ds.day_rows(7)][0].trip_id, 4)
        trips = [(t.entry_times.copy(), t.travel_times.copy()) for t in ds.trips]
        keys = [example_key(e) for e in examples]

        def shift(ex, step):
            # the fallback mask is derived from the previous-trip ids
            for arr in (ex.enc, ex.dec, ex.targets, ex.prev_trip_ids):
                arr += step

        for i, ex in enumerate([*examples, single]):
            shift(ex, 1)
            now = [example_key(e) for e in examples]
            assert now[:i] + now[i + 1:] == keys[:i] + keys[i + 1:]
            assert i == len(examples) or now[i] != keys[i]
            for t, (entry, travel) in zip(ds.trips, trips):
                npt.assert_array_equal(t.entry_times, entry)
                npt.assert_array_equal(t.travel_times, travel)
            shift(ex, -1)
        # the dataset's cached day arrays are untouched as well
        assert [example_key(e) for e in build_examples(ds)[0]] == keys


def reference_example_line(ex):
    return json.dumps({
        "m": ex.m, "t_c": ex.t_c, "day": ex.day_index,
        "trip_id": ex.trip_id, "enc": ex.enc.tolist(),
        "dec": ex.dec.tolist(), "targets": ex.targets.tolist(),
        "prev_trip_ids": ex.prev_trip_ids.tolist(),
        "pw_trip_id": ex.pw_trip_id,
        "fallback": ex.fallback_mask.astype(int).tolist()}) + "\n"


def reference_save_examples_jsonl(examples, path):
    """One ``json.dumps`` per example: the oracle for the block writer."""
    with open(path, "w") as f:
        f.writelines(map(reference_example_line, examples))


class TestJsonlWriter:
    """save_examples_jsonl formats each distinct value once per block; its
    bytes must be those of one json.dumps per example."""

    @staticmethod
    def assert_matches_reference(examples, tmp_path):
        dataprep.save_examples_jsonl(examples, tmp_path / "new.jsonl")
        reference_save_examples_jsonl(examples, tmp_path / "ref.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == \
            (tmp_path / "ref.jsonl").read_bytes()

    @pytest.mark.parametrize("fallback", ["previous_week", "skip"])
    def test_built_examples(self, tmp_path, fallback):
        examples, _ = build_examples(tied_dataset(37), fallback=fallback)
        assert any(ex.fallback_mask.any() for ex in examples) == \
            (fallback == "previous_week")
        self.assert_matches_reference(examples, tmp_path)

    def test_across_block_boundaries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataprep, "WRITE_CHUNK", 3)
        examples, _ = build_examples(tied_dataset(38, days=(0, 7)))
        assert len(examples) > dataprep.WRITE_CHUNK
        self.assert_matches_reference(examples, tmp_path)

    def test_special_values_and_dtypes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataprep, "WRITE_CHUNK", 2)
        rng = make_rng(39)
        examples = [make_example(rng, m, 8, trip_id=i)
                    for i, m in enumerate((3, 5, 6, 7))]
        examples[0].enc[:3, 0] = [-0.0, 0.0, -0.0]
        examples[0].dec[0] = [np.nan, np.inf, -np.inf, 1e-7]
        examples[1].targets[:] = [1e16, 5e-324, -5e-324]
        examples[1].t_c = float("-inf")
        examples[2].dec[:, 0] = -0.0
        examples[3].prev_trip_ids[:] = -1
        # integer arrays, as loading a file of whole numbers gives, write
        # as integers, also in a block next to float arrays
        ints = make_example(rng, 4, 8, trip_id=9)
        ints.enc, ints.dec, ints.targets = (
            a.astype(np.int64) for a in (ints.enc, ints.dec, ints.targets))
        examples.insert(1, ints)
        self.assert_matches_reference(examples, tmp_path)
        assert '"enc": [[-0.0, ' in (tmp_path / "new.jsonl").read_text()

    def test_no_decoder_sections(self, tmp_path):
        rng = make_rng(40)
        examples = [make_example(rng, m, 8, trip_id=i)
                    for i, m in enumerate((8, 6, 8))]
        assert examples[0].k == 0 and examples[0].dec.shape == (0, 4)
        self.assert_matches_reference(examples, tmp_path)
        first = (tmp_path / "new.jsonl").read_text().splitlines()[0]
        assert '"dec": [], "targets": [], "prev_trip_ids": [], ' in first

    def test_no_examples_writes_empty_file(self, tmp_path):
        self.assert_matches_reference([], tmp_path)
        assert (tmp_path / "new.jsonl").read_bytes() == b""


# One field of a written example line set to a value of the wrong JSON type,
# and the message that names it.
WRONGLY_TYPED = [
    ("prev_trip_ids", -0.3, "ValueError: prev_trip_ids must hold integers"),
    ("fallback", 0.5, "ValueError: fallback must hold integers"),
    ("fallback", 2, "ValueError: fallback entries must be 0 or 1"),
    ("m", 3.0, "ValueError: m must be a JSON integer, got 3.0"),
    ("trip_id", 7000.5, "ValueError: trip_id must be a JSON integer, got 7000.5"),
    ("trip_id", "7000", "ValueError: trip_id must be a JSON integer, got '7000'"),
    ("day", 7.5, "ValueError: day must be a JSON integer, got 7.5"),
    ("pw_trip_id", "x", "ValueError: pw_trip_id must be a JSON integer, got 'x'"),
    ("enc", "all true", "ValueError: enc must hold numbers"),
    ("dec", True, "ValueError: dec must hold numbers"),
    ("dec", False, "ValueError: dec must hold numbers"),
    ("fallback", True, "ValueError: fallback must hold integers"),
    ("prev_trip_ids", False, "ValueError: prev_trip_ids must hold integers"),
    ("targets", "7.5", "ValueError: targets must hold numbers"),
    ("prev_trip_ids", 2 ** 63, "OverflowError: "),
]
WRONGLY_TYPED_IDS = [
    "prev_trip_id_decimal", "fallback_half", "fallback_two", "m_float",
    "trip_id_decimal", "trip_id_string", "day_decimal", "pw_trip_id_string",
    "enc_all_true", "dec_one_true", "dec_one_false", "fallback_true",
    "prev_trip_id_false", "targets_string", "prev_trip_id_past_int64"]


BELOW_MINUS_ONE = "previous-trip ids must be -1 (no previous bus) or a trip id, got"


def example_lines(rng, n):
    """``n`` JSON lines of valid examples of 8 sections, m from 3 to 7."""
    return [reference_example_line(make_example(rng, int(rng.integers(3, 8)), 8,
                                                trip_id=i)) for i in range(n)]


def mixed_lines(rng, n):
    """``n`` example lines of 6 and 8 sections at every m, K = 0 included,
    some with previous buses and fallbacks, some with integers for numbers,
    and blank lines among them."""
    lines = []
    for i in range(n):
        n_s = (6, 8)[i % 2]
        ex = make_example(rng, int(rng.integers(1, n_s + 1)), n_s,
                          day_index=int(rng.integers(7, 21)), trip_id=i)
        ex.prev_trip_ids[:] = rng.integers(-1, 3, ex.k)
        doc = json.loads(reference_example_line(ex))
        if i % 5 == 0:       # JSON integers: int64 arrays and an int T_c
            doc.update(t_c=int(doc["t_c"]), enc=np.trunc(ex.enc).astype(int).tolist(),
                       targets=np.trunc(ex.targets).astype(int).tolist())
        lines.append(json.dumps(doc) + "\n")
        if i % 37 == 0:
            lines.append(("\n", "  \n", "\t\n")[i % 3])
    return lines


class TestBlockLoader:
    """load_examples_jsonl validates each chunk as one block per (m, K); it
    must give the per-line reference loader's examples and errors."""

    @staticmethod
    def assert_loads_as_reference(path):
        loaded = dataprep.load_examples_jsonl(path)
        assert_same_examples(loaded, reference_load_examples_jsonl(path))
        return loaded

    def test_built_examples(self, tmp_path):
        examples, _ = build_examples(tied_dataset(39, days=(0, 1, 2, 7, 8, 9, 14)))
        assert len(examples) > dataprep.READ_CHUNK
        path = tmp_path / "ex.jsonl"
        dataprep.save_examples_jsonl(examples, path)
        loaded = self.assert_loads_as_reference(path)
        assert [example_key(e) for e in loaded] == [example_key(e) for e in examples]

    @pytest.mark.parametrize("read_chunk", [None, 1, 10 ** 6])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_mixed_lines(self, tmp_path, monkeypatch, read_chunk, shuffle):
        rng = make_rng(40)
        lines = mixed_lines(rng, 700)
        assert len(lines) > 2 * dataprep.READ_CHUNK
        if shuffle:
            lines = [lines[i] for i in rng.permutation(len(lines))]
        if read_chunk is not None:
            monkeypatch.setattr(dataprep, "READ_CHUNK", read_chunk)
        path = tmp_path / "ex.jsonl"
        path.write_text("".join(lines))
        loaded = self.assert_loads_as_reference(path)
        assert len(loaded) == 700
        assert {ex.k for ex in loaded} == set(range(8))
        assert {ex.enc.dtype.kind for ex in loaded} == {"i", "f"}
        assert {type(ex.t_c) for ex in loaded} == {int, float}
        assert any(ex.fallback_mask.any() for ex in loaded)

    @staticmethod
    def assert_names_line(path, bad_index, message):
        with pytest.raises(DataError) as want:
            reference_load_examples_jsonl(path)
        with pytest.raises(DataError) as got:
            dataprep.load_examples_jsonl(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(
            f"{path}:{bad_index + 1}: malformed example: {message}")

    @pytest.mark.parametrize("field, value, message", WRONGLY_TYPED,
                             ids=WRONGLY_TYPED_IDS)
    def test_wrongly_typed_field_past_the_first_chunk(self, tmp_path, field,
                                                      value, message):
        lines = example_lines(make_rng(41), dataprep.READ_CHUNK + 40)
        bad = dataprep.READ_CHUNK + 17
        doc = json.loads(lines[bad])
        if value == "all true":
            doc[field] = np.full(np.shape(doc[field]), True).tolist()
        elif isinstance(doc[field], list):
            row = doc[field][0] if field in ("enc", "dec") else doc[field]
            row[0] = value
        else:
            doc[field] = value
        lines[bad] = json.dumps(doc) + "\n"
        path = tmp_path / "ex.jsonl"
        path.write_text("".join(lines))
        self.assert_names_line(path, bad, message)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(t_c=float("nan")),
         "DataError: query time T_c must be finite and lie in [0, 86400), got nan"),
        (lambda d: d.update(dec=np.reshape(d["dec"], (-1, 2)).tolist()),
         "DataError: decoder sequence / target shape mismatch"),
        (lambda d: d.update(enc=d["enc"][1:]),
         "DataError: encoder sequence shape mismatch"),
        (lambda d: d.update(prev_trip_ids=d["prev_trip_ids"][1:]),
         "DataError: previous-trip ids / fallback mask shape mismatch"),
        (lambda d: d["targets"].__setitem__(0, -d["targets"][0]),
         "DataError: travel times must be positive"),
        (lambda d: d["dec"][0].__setitem__(DEC_TE_PV, d["t_c"]),
         "DataError: previous-bus entry time not before T_c"),
        (lambda d: d.pop("enc"), "KeyError: 'enc'"),
        (lambda d: d["fallback"].__setitem__(0, 1 - d["fallback"][0]),
         f"DataError: {FALLBACK_MISMATCH}"),
        (lambda d: d.update(fallback=d["fallback"][1:]),
         f"DataError: {FALLBACK_MISMATCH}"),
        (lambda d: d["prev_trip_ids"].__setitem__(0, -2),
         f"DataError: {BELOW_MINUS_ONE} -2"),
        # a day past MAX_WEEKS would set aside week 1428571428571428571428
        (lambda d: d.update(day=10 ** 22),
         f"DataError: day_index must lie in [0, 3640), got {10 ** 22}"),
        (lambda d: d.update(trip_id=-5),
         f"DataError: trip_id must lie in [0, {2 ** 63}), got -5"),
        (lambda d: d.update(pw_trip_id=10 ** 22),
         f"DataError: pw_trip_id must lie in [0, {2 ** 63}), got {10 ** 22}"),
    ], ids=["nan_t_c", "dec_shape", "enc_shape", "ids_shape", "negative_target",
            "prev_bus_at_t_c", "missing_key", "fallback_flipped", "fallback_shape",
            "prev_trip_id_below_minus_one", "day_past_max_weeks", "negative_trip_id",
            "pw_trip_id_past_int64"])
    def test_invalid_line_past_the_first_chunk(self, tmp_path, edit, message):
        lines = example_lines(make_rng(42), dataprep.READ_CHUNK + 40)
        bad = dataprep.READ_CHUNK + 5
        doc = json.loads(lines[bad])
        edit(doc)
        lines[bad] = json.dumps(doc) + "\n"
        path = tmp_path / "ex.jsonl"
        path.write_text("".join(lines))
        self.assert_names_line(path, bad, message)

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]\n", "TypeError: "), ("{\n", "JSONDecodeError: ")])
    def test_line_that_is_no_example_past_the_first_chunk(self, tmp_path, text,
                                                          message):
        lines = example_lines(make_rng(43), dataprep.READ_CHUNK + 40)
        bad = dataprep.READ_CHUNK + 30
        lines[bad] = text
        path = tmp_path / "ex.jsonl"
        path.write_text("".join(lines))
        self.assert_names_line(path, bad, message)

    def test_line_that_is_not_utf8_past_the_first_chunk(self, tmp_path):
        lines = [line.encode() for line in
                 example_lines(make_rng(45), dataprep.READ_CHUNK + 40)]
        bad = dataprep.READ_CHUNK + 12
        lines[bad] = lines[bad][:30] + b"\xff" + lines[bad][30:]
        path = tmp_path / "ex.jsonl"
        path.write_bytes(b"".join(lines))
        self.assert_names_line(path, bad, "UnicodeDecodeError: 'utf-8' codec "
                                          "can't decode byte 0xff in position 30")

    def test_first_of_two_bad_lines_in_different_chunks_is_named(self, tmp_path):
        lines = example_lines(make_rng(44), 3 * dataprep.READ_CHUNK)
        first, second = dataprep.READ_CHUNK + 9, 2 * dataprep.READ_CHUNK + 3
        for i, field in ((first, "targets"), (second, "enc")):
            doc = json.loads(lines[i])
            doc[field] = [-1.0] * len(doc[field])
            lines[i] = json.dumps(doc) + "\n"
        path = tmp_path / "ex.jsonl"
        path.write_text("".join(lines))
        self.assert_names_line(path, first, "DataError: ")


    @pytest.mark.parametrize("n, first, repeat", [
        (3, 0, 3), (dataprep.READ_CHUNK + 40, 5, dataprep.READ_CHUNK + 9)],
        ids=["first-chunk", "past-the-first-chunk"])
    def test_repeated_example_names_both_lines(self, tmp_path, n, first, repeat):
        lines = example_lines(make_rng(45), n)
        lines.insert(repeat, lines[first])
        path = tmp_path / "ex.jsonl"
        path.write_text("".join(lines))
        m = json.loads(lines[first])["m"]
        with pytest.raises(DataError) as info:
            dataprep.load_examples_jsonl(path)
        assert str(info.value) == (f"{path}:{repeat + 1}: repeated example: trip "
                                   f"{first} at m={m} is also on line {first + 1}")

    def test_repeat_before_a_faulty_line_is_named_first(self, tmp_path):
        # the chunk fails as a block, and its lines are read in order
        lines = example_lines(make_rng(46), 40)
        lines[20] = lines[3]
        lines[30] = "{\n"
        path = tmp_path / "ex.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=f"ex.jsonl:21: repeated example: "
                                            f"trip 3 at m=\\d is also on line 4$"):
            dataprep.load_examples_jsonl(path)


class TestComplexity:
    """The indexed searches are ``np.searchsorted`` over per-section sorted
    keys. Counting those calls, and Python-level comparisons with the query
    time, catches a linear scan: a scan makes no ``searchsorted`` call, and a
    Python one compares the query time with every key."""

    @staticmethod
    def count_searches(monkeypatch):
        calls = []
        real = np.searchsorted

        def counting(keys, values, *args, **kwargs):
            calls.append((len(keys), np.size(values)))
            return real(keys, values, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        return calls

    def test_indexed_query_is_logarithmic(self, monkeypatch):
        class CountingTime(float):
            """Query time that counts the ordering comparisons made with it."""
            count = 0

            def __lt__(self, other):
                CountingTime.count += 1
                return float(self) < other

            def __gt__(self, other):
                CountingTime.count += 1
                return float(self) > other

        calls = self.count_searches(monkeypatch)
        route = RouteSpec(4, 500.0)
        rng = make_rng(9)
        for n in (64, 512, 4096):
            starts = rng.uniform(0, 1e5, size=n)
            ds = TripDataset([make_trip(i, 0, float(s), [60.0] * 4)
                              for i, s in enumerate(starts)], route)
            queries = rng.uniform(0, 1e5, size=200)
            CountingTime.count = 0
            calls.clear()
            for q in queries:
                closest_prev_trip_at_section(ds, 0, 2, CountingTime(q))
            # one binary search over the section's n keys per query
            assert calls == [(n, 1)] * len(queries)
            assert CountingTime.count / len(queries) <= np.log2(n) + 2

    def test_block_builder_searches_once_per_section(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        for n_trips in (5, 40):
            ds = tied_dataset(37, days=(0, 7), n_trips=n_trips)
            calls.clear()
            examples, skips = build_examples(ds, days=[7])
            # previous week: two searches over the day's start times, among
            # day 0's (padded by two ends); previous bus: one search per
            # decoder section (4..8) over all (trip, m) query times
            assert calls == [(n_trips + 2, n_trips)] * 2 + [(n_trips, n_trips * 5)] * 5
            assert len(examples) + len(skips) == n_trips * 5


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
        npt.assert_allclose(denorm_tod(toy_norm, toy_norm.norm_tod(t)), t,
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

    def test_zero_span_times_of_day_clamp_to_one(self):
        rng = make_rng(47)
        examples = [make_example(rng, 4, 8, trip_id=i) for i in range(3)]
        for ex in examples:
            ex.dec[:, [DEC_TE_PV, DEC_TE_PW]] = 30000.0
            ex.t_c = 30000.0
        with pytest.warns(UserWarning,
                          match="zero-span times of day; clamping span to 1"):
            norm = fit_normalizer(examples)
        assert (norm.tod_min, norm.tod_max) == (30000.0, 30001.0)
        assert norm.travel_std > 0

    def test_bitwise_equal_to_per_example_concatenation(self):
        examples, _ = build_examples(tied_dataset(41))
        per_example = NormStats(*reference_normalizer_pools(examples))
        assert fit_normalizer(examples) == per_example


def reference_normalizer_pools(examples):
    """The pooled statistics from one concatenation per example and family:
    the oracle for fit_normalizer."""
    travel = np.concatenate([np.concatenate([ex.enc.ravel(), ex.dec[:, DEC_Z_PV],
                                             ex.dec[:, DEC_Z_PW], ex.targets])
                             for ex in examples])
    tod = np.concatenate([np.concatenate([ex.dec[:, DEC_TE_PV],
                                          ex.dec[:, DEC_TE_PW], [ex.t_c]])
                          for ex in examples])
    return (float(np.mean(travel)), float(np.std(travel)),
            float(np.min(tod)), float(np.max(tod)))


# (fault, for_trip, message) of test_trips_file_error_names_path_and_line
TRIPS_FILE_FAULTS = [
    ("header", None, "{path}: unexpected trip CSV header: ['a', 'b']"),
    ("header", 7000, "{path}: unexpected trip CSV header: ['a', 'b']"),
    ("sections", None, "{path}:20: trip 7000: sections [1, 2, 4]... do not "
                       "cover 1..6"),
    ("sections", 7000, "{path}:20: trip 7000: sections [1, 2, 4]... do not "
                       "cover 1..6"),
    *[(check, for_trip, f"{{path}}:26: trip {trip_id}: {message}")
      for for_trip in (None, 7000) for check, trip_id, message in [
          ("travel", 7001, "non-positive travel time"),
          ("increasing", 7001, "entry times not increasing"),
          ("consistent", 7001, "entry times inconsistent with travel times"),
          ("weekday", 7001, "weekday does not match day index"),
          ("negative-id", -7001, "negative trip id")]],
    # trip 7001 on day 3640 is on no day a read for trip 7000 keeps
    *[("day", for_trip, "{path}:26: trip 7001: day index outside [0, 3640)")
      for for_trip in (None, 7001)],
    ("unknown-trip", 999999, "{path}: no trip 999999"),
]


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
            got = ds.trips[ds.row_of(t.trip_id)]
            npt.assert_allclose(got.entry_times, t.entry_times, atol=1e-6)
            npt.assert_allclose(got.travel_times, t.travel_times, atol=1e-6)

    def test_trip_csv_bytes_match_write_csv(self, tmp_path):
        # the rows as csv.writer writes them, and values that round at the
        # sixth decimal, carry into the integer part or print -0.000000
        rng = make_rng(45)
        trips = [t for day in (0, 1, 7) for t in random_day_trips(rng, day, 4, 6)]
        trips.append(make_trip(10 ** 12, 20, 86399.9999995,
                               [0.0000005, 1e-9, 2.5e-7, 123456.1234565, 7.0, 1.0]))
        trips[-1].travel_times[-1] = -0.0
        dataprep.save_trips_csv(trips, tmp_path / "new.csv")
        dataprep.write_csv(tmp_path / "ref.csv", dataprep.TRIP_CSV_HEADER, (
            [t.trip_id, t.day_index, t.weekday, sec, f"{e:.6f}", f"{z:.6f}"]
            for t in trips for sec, e, z in zip(
                range(1, 7), t.entry_times.tolist(), t.travel_times.tolist())))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert b",-0.000000\n" in (tmp_path / "new.csv").read_bytes()

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

    def test_shuffled_rows_load_as_sorted(self, tmp_path, small_route):
        rng = make_rng(32)
        trips = [t for day in (0, 1, 7) for t in random_day_trips(rng, day, 5, 6)]
        path, shuffled = tmp_path / "trips.csv", tmp_path / "shuffled.csv"
        dataprep.save_trips_csv(trips, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        shuffled.write_text(header + "".join(rows[i] for i in
                                             rng.permutation(len(rows))))
        for for_trip in (None, trips[-1].trip_id):          # days 7 and 0
            a = dataprep.load_trips_csv(path, small_route, for_trip=for_trip)
            b = dataprep.load_trips_csv(shuffled, small_route, for_trip=for_trip)
            for name in ("entry", "travel", "ids"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert ([(t.trip_id, t.day_index, t.weekday) for t in a.trips]
                    == [(t.trip_id, t.day_index, t.weekday) for t in b.trips])

    def test_days_keep_the_trips_of_a_full_load(self, tmp_path, small_route):
        rng = make_rng(33)
        trips = [t for day in (0, 1, 7, 8) for t in random_day_trips(rng, day, 4, 6)]
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv(trips, path)
        full = dataprep.load_trips_csv(path, small_route)
        # a read for a trip keeps its day and the day a week before, if any
        for trip in (trips[-1], trips[4], trips[0]):         # days 8, 1 and 0
            days = {trip.day_index, trip.day_index - 7}
            got = dataprep.load_trips_csv(path, small_route, for_trip=trip.trip_id)
            want = TripDataset([t for t in full.trips if t.day_index in days],
                               small_route)
            for name in ("entry", "travel", "ids"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_header_only_file_has_no_trip_rows(self, tmp_path, small_route):
        path = tmp_path / "trips.csv"
        path.write_text(",".join(dataprep.TRIP_CSV_HEADER) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"{path}: no trip rows")):
                dataprep.load_trips_csv(path, small_route)

    def test_blank_row_is_malformed(self, tmp_path, small_route):
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv([make_trip(0, 0, 21600.0, [60.0] * 6)], path)
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(rows[:3] + ["\n"] + rows[3:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"{path}: malformed row 4: []")):
                dataprep.load_trips_csv(path, small_route)

    def test_inconsistent_row_before_a_malformed_one_is_named(
            self, tmp_path, small_route):
        trips = [make_trip(0, 0, 21600.0, [60.0] * 6)]
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv(trips, path)
        rows = path.read_text().splitlines(keepends=True)
        rows[3] = rows[2]                                   # repeats section 2
        rows[5] = rows[5].replace(",4,", ",four,")
        path.write_text("".join(rows))
        with pytest.raises(DataError, match=re.escape(
                f"{path}:4: trip 0 repeats section 2")):
            dataprep.load_trips_csv(path, small_route)

    @pytest.mark.parametrize("for_trip", [None, 0])
    @pytest.mark.parametrize("column", ["trip_id", "day", "section"])
    def test_decimal_in_an_integer_column_is_malformed(self, tmp_path, small_route,
                                                       column, for_trip):
        # numpy versions that only warn on "7.9" for an integer read it as 7
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv([make_trip(0, 0, 21600.0, [60.0] * 6)], path)
        rows = path.read_text().splitlines(keepends=True)
        fields = rows[3].split(",")
        fields[dataprep.TRIP_CSV_HEADER.index(column)] += ".9"
        rows[3] = ",".join(fields)
        path.write_text("".join(rows))
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed row 4: [")):
            dataprep.load_trips_csv(path, small_route, for_trip=for_trip)

    def test_wrong_header_rejected(self, tmp_path, small_route):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            dataprep.load_trips_csv(path, small_route)

    @pytest.mark.parametrize("fault, for_trip, message", TRIPS_FILE_FAULTS, ids=[
        f"{fault}-{'whole-file' if for_trip is None else f'for-trip-{for_trip}'}"
        for fault, for_trip, _ in TRIPS_FILE_FAULTS])
    def test_trips_file_error_names_path_and_line(self, tmp_path, small_route,
                                                  fault, for_trip, message):
        # six rows a trip from line 2: trips 0 and 1 (day 0), 1000 (day 1),
        # 7000 and 7001 (day 7); a read for trip 7000 skips day 1's rows, and
        # its errors still name the lines of the file
        trips = [make_trip(i, i // 1000, 21600.0 + 400.0 * (i % 1000), [60.0] * 6)
                 for i in (0, 1, 1000, 7000, 7001)]
        if fault not in ("header", "sections", "unknown-trip"):
            break_trip(trips[-1], fault)
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv(trips, path)
        lines = path.read_text().splitlines(keepends=True)
        if fault == "header":
            lines[0] = "a,b\n"
        elif fault == "sections":
            del lines[21]                       # trip 7000's section 3
        path.write_text("".join(lines))
        with pytest.raises(DataError) as info:
            dataprep.load_trips_csv(path, small_route, for_trip=for_trip)
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("row, rest, message", [
        ("7000,seven,7,0,21600.000000,60.000000\n", True,
         "['7000', 'seven', '7', '0', '21600.000000', '60.000000']"),
        ("7000,", False, "['7000', '']"),
    ], ids=["day-not-a-number", "last-line-without-a-day"])
    def test_first_row_of_the_trip_read_names_its_line(self, tmp_path, small_route,
                                                        row, rest, message):
        # trip 7000's first row, line 14 after trips 0 and 700, gives the
        # days a read for it keeps; the rows after it are never reached
        trips = [make_trip(i, i // 1000, 21600.0 + 400.0 * (i % 1000), [60.0] * 6)
                 for i in (0, 700, 7000)]
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv(trips, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:13] + [row] + (lines[14:] if rest else [])))
        with pytest.raises(DataError) as info:
            dataprep.load_trips_csv(path, small_route, for_trip=7000)
        assert str(info.value) == f"{path}: malformed row 14: {message}"

    def test_trip_id_that_begins_another_is_found_by_its_own_rows(
            self, tmp_path, small_route):
        # trip 7000's rows come first, and "7000," does not start trip 700's
        trips = [make_trip(i, i // 1000, 21600.0 + 400.0 * (i % 1000), [60.0] * 6)
                 for i in (7000, 700, 0)]
        path = tmp_path / "trips.csv"
        dataprep.save_trips_csv(trips, path)
        ds = dataprep.load_trips_csv(path, small_route, for_trip=700)
        assert sorted(ds.ids.tolist()) == [0, 700]
        with pytest.raises(DataError, match=re.escape(f"{path}: no trip 70")):
            dataprep.load_trips_csv(path, small_route, for_trip=70)

    def test_example_id_and_mask_shapes_checked(self):
        ex = make_example(make_rng(3), 5, 8)
        ex.validate(8)
        bad = replace(ex, prev_trip_ids=ex.prev_trip_ids[:-1])
        with pytest.raises(DataError, match="fallback mask shape mismatch"):
            bad.validate(8)
        # the mask is derived, so it has the ids' shape
        assert bad.fallback_mask.shape == bad.prev_trip_ids.shape

    def test_fallback_mask_is_derived_and_read_only(self):
        ex = make_example(make_rng(4), 3, 8)
        ex.prev_trip_ids[[1, 3]] = -1
        assert ex.fallback_mask.tolist() == [False, True, False, True, False]
        with pytest.raises(ValueError, match="read-only"):
            ex.fallback_mask[0] = True
        with pytest.raises(AttributeError):
            ex.fallback_mask = np.ones(5, dtype=bool)
        assert ex.prev_trip_ids.tolist() == [0, -1, 0, -1, 0]
        assert not hasattr(ex, "__dict__")

    def test_previous_trip_id_below_minus_one_refused(self):
        ex = make_example(make_rng(5), 4, 8)
        ex.prev_trip_ids[2] = -7
        block = TrainingExample(4, np.array([ex.t_c] * 2), None, None,
                                *(np.stack([getattr(ex, f)] * 2) for f in (
                                    "enc", "dec", "targets", "prev_trip_ids")),
                                None)
        for example in (ex, block):
            with pytest.raises(DataError, match=re.escape(f"{BELOW_MINUS_ONE} -7")):
                example.validate(8)

    def test_invalid_jsonl_example_reports_line(self, tmp_path):
        rng = make_rng(13)
        good, bad = make_example(rng, 3, 8), make_example(rng, 5, 8)
        bad.targets[0] = -bad.targets[0]
        path = tmp_path / "ex.jsonl"
        dataprep.save_examples_jsonl([good, bad], path)
        with pytest.raises(DataError, match=re.escape(f"{path}:2: ")
                           + ".*travel times must be positive"):
            dataprep.load_examples_jsonl(path)

    @pytest.mark.parametrize("field, value, message", WRONGLY_TYPED,
                             ids=WRONGLY_TYPED_IDS)
    def test_wrongly_typed_jsonl_field_reports_line(self, tmp_path, field,
                                                    value, message):
        # one field of a written line edited; a list field's first entry
        rng = make_rng(18)
        path = tmp_path / "ex.jsonl"
        dataprep.save_examples_jsonl([make_example(rng, 3, 8),
                                      make_example(rng, 5, 8)], path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        if value == "all true":
            doc[field] = np.full(np.shape(doc[field]), True).tolist()
        elif isinstance(doc[field], list):
            # the first number of a list, or of the first row of a 2-D one
            row = doc[field][0] if field in ("enc", "dec") else doc[field]
            row[0] = value
        else:
            doc[field] = value
        path.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:2: malformed example: {message}")):
            dataprep.load_examples_jsonl(path)

    @pytest.mark.parametrize("t_c", [float("nan"), float("inf"), -1.0, 86400.0])
    def test_query_time_outside_the_day_rejected(self, t_c):
        ex = replace(make_example(make_rng(16), 5, 8), t_c=t_c)
        with pytest.raises(DataError, match=re.escape(
                f"T_c must be finite and lie in [0, 86400), got {t_c}")):
            ex.validate(8)
        block = TrainingExample(5, np.array([30000.0, t_c]), None, None,
                                *(np.stack([getattr(ex, f)] * 2) for f in (
                                    "enc", "dec", "targets", "prev_trip_ids")),
                                None)
        with pytest.raises(DataError, match="T_c must be finite"):
            block.validate(8)

    def test_nan_query_time_in_jsonl_reports_line(self, tmp_path):
        rng = make_rng(17)
        path = tmp_path / "ex.jsonl"
        dataprep.save_examples_jsonl([make_example(rng, 3, 8),
                                      make_example(rng, 5, 8)], path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["t_c"] = float("nan")
        path.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
        assert '"t_c": NaN' in path.read_text()
        with pytest.raises(DataError, match=re.escape(f"{path}:2: ")
                           + ".*T_c must be finite"):
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

    def test_examples_jsonl_roundtrip_without_targets(self, tmp_path):
        # K = 0 is saved as "dec": [], which must load back as shape (0, 4)
        ex = make_example(make_rng(14), 8, 8)
        path = tmp_path / "ex.jsonl"
        dataprep.save_examples_jsonl([ex], path)
        [loaded] = dataprep.load_examples_jsonl(path)
        assert loaded.dec.shape == (0, 4)
        assert example_key(loaded) == example_key(ex)
        # a decoder sequence of the wrong shape is still rejected, not reshaped
        dataprep.save_examples_jsonl([make_example(make_rng(15), 6, 8)], path)
        doc = json.loads(path.read_text())
        doc["dec"] = np.reshape(doc["dec"], (4, 2)).tolist()
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(DataError, match="decoder sequence / target shape"):
            dataprep.load_examples_jsonl(path)

    def test_skip_report(self, tmp_path):
        skips = [dataprep.SkipRecord(0, 1, 3, "no_previous_week_trip")]
        path = tmp_path / "skips.csv"
        dataprep.save_skip_report_csv(skips, path)
        assert path.read_text() == ("day,trip_id,m,reason\n"
                                    "0,1,3,no_previous_week_trip\n")
