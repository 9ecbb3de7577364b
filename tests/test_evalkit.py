import math

import numpy as np
import numpy.testing as npt
import pytest

from busarrival import evalkit
from busarrival.dataprep import (DEC_Z_PV, RouteSpec, TripDataset,
                                 build_examples)
from busarrival.evalkit import (baseline_hist_mean, baseline_persistence,
                                evaluate_grid, fit_hist_mean, grid_j_values,
                                mae, mape, paired_z_test)
from busarrival.numkit import make_rng
from busarrival.simulator import SimConfig, simulate_dataset, split_train_test
from conftest import make_example, make_trip


class TestMae:
    def test_perfect(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_signed_errors(self):
        assert mae([110.0, 70.0], [100.0, 100.0]) == 20.0

    def test_matches_recomputation(self):
        rng = make_rng(0)
        p, a = rng.uniform(50, 500, 64), rng.uniform(50, 500, 64)
        assert abs(mae(p, a) - sum(abs(x - y) for x, y in zip(p, a)) / 64) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mae([], [])

    def test_translation_detecting(self):
        rng = make_rng(1)
        a = rng.uniform(100, 200, 50)
        p = a + rng.uniform(1, 20, 50)  # every error already positive
        c = 7.5
        assert abs(mae(p + c, a) - (mae(p, a) + c)) < 1e-12


class TestMape:
    def test_ten_percent(self):
        assert abs(mape([110.0], [100.0]) - 10.0) < 1e-12

    def test_perfect(self):
        assert mape([5.0, 9.0], [5.0, 9.0]) == 0.0

    def test_matches_recomputation(self):
        rng = make_rng(2)
        p, a = rng.uniform(50, 500, 64), rng.uniform(50, 500, 64)
        expect = 100.0 * sum(abs(x - y) / y for x, y in zip(p, a)) / 64
        assert abs(mape(p, a) - expect) < 1e-10

    def test_scale_invariant(self):
        rng = make_rng(3)
        p, a = rng.uniform(50, 500, 64), rng.uniform(50, 500, 64)
        assert abs(mape(p, a) - mape(3.7 * p, 3.7 * a)) < 1e-9

    def test_nonpositive_truth_raises(self):
        with pytest.raises(ValueError):
            mape([1.0], [0.0])


class TestPairedZTest:
    def test_identical_samples(self):
        d = np.full(40, 3.0)
        res = paired_z_test(d, d)
        assert res.z == 0.0 and res.significant is False

    def test_constant_difference_degenerate(self):
        a = np.full(40, 5.0)
        b = np.full(40, 7.0)
        res = paired_z_test(a, b)
        assert res.status == "degenerate"
        assert res.significant and res.direction == "a"
        assert res.z == -math.inf

    def test_decision_matches_table_value(self):
        # the implementation derives its critical value from the normal
        # inverse CDF; this check pins the published two-sided 0.1 value
        rng = make_rng(4)
        decisions = []
        for shift in (0.0, 0.05, 0.2, 0.5, -0.3):
            d = rng.normal(loc=shift, scale=1.0, size=100)
            a = np.abs(rng.normal(size=100)) + np.maximum(d, 0)
            b = a - d
            res = paired_z_test(a, b)
            z_ref = np.mean(d) / (np.std(d, ddof=1) / np.sqrt(100))
            assert abs(res.z - z_ref) < 1e-12
            assert res.significant == (abs(z_ref) > 1.645)
            decisions.append(res.significant)
        assert any(decisions) and not all(decisions)

    def test_insufficient_samples(self):
        res = paired_z_test(np.ones(29), np.zeros(29))
        assert res.status == "insufficient_samples"
        assert res.significant is None

    def test_swap_symmetry(self):
        rng = make_rng(5)
        a = rng.uniform(0, 10, 60)
        b = rng.uniform(0, 10, 60)
        r1 = paired_z_test(a, b)
        r2 = paired_z_test(b, a)
        assert abs(r1.z + r2.z) < 1e-12
        assert r1.significant == r2.significant

    def test_direction_reports_lower_error_side(self):
        rng = make_rng(6)
        b = rng.uniform(5, 10, 80)
        a = b - rng.uniform(1, 2, 80)  # a clearly lower
        res = paired_z_test(a, b)
        assert res.significant and res.direction == "a"


class TestBaselines:
    def test_persistence_zero_error_when_prev_identical(self):
        ex = make_example(make_rng(7), 4, 10)
        ex.dec[:, DEC_Z_PV] = ex.targets
        pred = baseline_persistence(ex)
        npt.assert_array_equal(pred, ex.targets)

    def test_persistence_uses_stored_fallback_values(self):
        ex = make_example(make_rng(8), 4, 10)
        ex.fallback_mask[2] = True
        pred = baseline_persistence(ex)
        npt.assert_array_equal(pred, ex.dec[:, DEC_Z_PV])

    def test_persistence_mae_hand_sum(self, small_route):
        pw = make_trip(1, 0, 21600.0, [100.0] * 6)
        prev = make_trip(10, 7, 21000.0, [90.0] * 6)
        cur = make_trip(11, 7, 23000.0, [80.0] * 6)
        ds = TripDataset([pw, prev, cur], small_route)
        examples, _ = build_examples(ds, positions=[3])
        ex = [e for e in examples if e.trip_id == 11][0]
        pred = baseline_persistence(ex)
        # |90-80| per section over K=3 sections, cumulative errors 10,20,30
        assert mae(np.cumsum(pred), np.cumsum(ex.targets)) == 20.0

    def test_hist_mean_constant_dataset_exact(self, small_route):
        trips = [make_trip(d * 10, d, 21600.0, [60.0] * 6)
                 for d in (0, 1, 7, 8)]
        model = fit_hist_mean(trips)
        ex_trips = TripDataset(trips, small_route)
        examples, _ = build_examples(ex_trips, positions=[3])
        pred = baseline_hist_mean(model, examples[0])
        npt.assert_allclose(pred, 60.0, atol=1e-12)

    def test_hist_mean_bin_values(self, small_route):
        # two Mondays, same bin: means are averages; a Tuesday query at an
        # unseen bin falls back to the weekday mean
        t1 = make_trip(1, 0, 21600.0, [100.0] * 6)
        t2 = make_trip(2, 0, 21700.0, [140.0] * 6)
        model = fit_hist_mean([t1, t2], bin_s=1800.0)
        assert model.section_mean(1, 0, 21650.0) == 120.0
        assert model.section_mean(1, 0, 80000.0) == 120.0  # weekday fallback
        assert model.section_mean(1, 3, 21650.0) == 120.0  # section fallback

    def test_hist_mean_propagates_entry_time(self, small_route):
        # section means differ by bin; the predicted entry time must move
        # into the later bin as predictions accumulate
        t1 = make_trip(1, 0, 21600.0, [1000.0] * 6)
        model = fit_hist_mean([t1], bin_s=1800.0)
        ex = make_example(make_rng(9), 3, 6, day_index=7)    # a Monday, as t1
        ex.t_c = 21600.0
        pred = baseline_hist_mean(model, ex)
        assert pred.shape == (3,)
        npt.assert_allclose(pred, 1000.0)

    def test_unresolved_inputs_raise(self):
        ex = make_example(make_rng(10), 4, 10)
        ex.dec[0, DEC_Z_PV] = np.nan
        with pytest.raises(ValueError):
            baseline_persistence(ex)

    def test_fit_hist_mean_empty_raises(self):
        with pytest.raises(ValueError):
            fit_hist_mean([])

    def test_fit_hist_mean_matches_straight_loop(self):
        trips, events = simulate_dataset(SimConfig(
            route=RouteSpec(10, 500.0), weeks=2, trips_per_day=8, seed=3))
        assert events
        for bin_s in (1800.0, 700.0):
            got = fit_hist_mean(trips, bin_s=bin_s)
            want = reference_hist_mean(trips, bin_s)
            for name in ("by_bin", "by_weekday", "by_section"):
                got_means, want_means = getattr(got, name), getattr(want, name)
                assert got_means.keys() == want_means.keys()
                assert all(np.float64(got_means[k]).tobytes()
                           == np.float64(v).tobytes() for k, v in want_means.items())


def reference_hist_mean(trips, bin_s):
    """The per-key means by one dict update per trip and section, in order."""
    sums, counts = {}, {}
    for trip in trips:
        for sec in range(1, len(trip.entry_times) + 1):
            z = trip.travel(sec)
            for key in ((sec, trip.weekday, int(trip.entry(sec) // bin_s)),
                        (sec, trip.weekday), (sec,)):
                sums[key] = sums.get(key, 0.0) + z
                counts[key] = counts.get(key, 0) + 1
    means = {k: sums[k] / counts[k] for k in sums}
    return evalkit.HistMeanModel(
        bin_s=bin_s, by_bin={k: v for k, v in means.items() if len(k) == 3},
        by_weekday={k: v for k, v in means.items() if len(k) == 2},
        by_section={k[0]: v for k, v in means.items() if len(k) == 1})


class TestGrid:
    def test_j_values_clamp_to_route_end(self):
        assert grid_j_values(30, 34) == [34]
        assert grid_j_values(5, 34) == [10, 15, 20, 25, 30, 34]
        assert grid_j_values(25, 34) == [30, 34]
        total = sum(len(grid_j_values(i, 34)) for i in (5, 10, 15, 20, 25, 30))
        assert total == 21

    def test_perfect_predictor_scores_zero(self):
        rng = make_rng(11)
        examples = [make_example(rng, 5, 12, trip_id=i) for i in range(40)]
        rows, queries = evaluate_grid({"truth": lambda ex: ex.targets},
                                      examples, 12, i_values=(5,))
        assert rows and all(r.mae_s == 0.0 and r.mape_pct == 0.0 for r in rows)
        assert all(q.predicted_s == q.true_s for q in queries)

    def test_rows_recomputable_from_query_log(self):
        rng = make_rng(12)
        examples = [make_example(rng, 5, 12, trip_id=i) for i in range(35)]
        methods = {"noisy": lambda ex: ex.targets * 1.07,
                   "edu": lambda ex: ex.targets + 12.0}
        rows, queries = evaluate_grid(methods, examples, 12, i_values=(5,))
        for row in rows:
            qs = [q for q in queries
                  if (q.i, q.j, q.method) == (row.i, row.j, row.method)]
            assert len(qs) == row.n
            assert abs(row.mae_s - mae([q.predicted_s for q in qs],
                                       [q.true_s for q in qs])) < 1e-9
            assert abs(row.mape_pct - mape([q.predicted_s for q in qs],
                                           [q.true_s for q in qs])) < 1e-9

    def test_significance_flags(self):
        rng = make_rng(13)
        examples = [make_example(rng, 5, 12, trip_id=i) for i in range(60)]
        methods = {"edu": lambda ex: ex.targets + 30.0,
                   "edb": lambda ex: ex.targets + 1.0}
        rows, _ = evaluate_grid(methods, examples, 12, i_values=(5,))
        edb_rows = [r for r in rows if r.method == "edb"]
        edu_rows = [r for r in rows if r.method == "edu"]
        assert all(r.sig_vs_edu == "better" and r.sig_vs_edb == "-"
                   for r in edb_rows)
        assert all(r.sig_vs_edb == "worse" and r.sig_vs_edu == "-"
                   for r in edu_rows)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        examples = [make_example(make_rng(14), 5, 12, trip_id=i)
                    for i in range(40)]
        methods = {"edu": lambda ex: ex.targets + 30.0,
                   "edb": lambda ex: ex.targets + 1.0}
        with pytest.raises(ValueError, match=r"alpha: must be in \(0, 1\)"):
            evaluate_grid(methods, examples, 12, i_values=(5,), alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            paired_z_test(np.ones(5), np.zeros(5), alpha=alpha)

    def test_empty_cell_marked(self):
        rows, _ = evaluate_grid({"edu": lambda ex: ex.targets}, [], 12,
                                i_values=(5,))
        assert all(r.n == 0 and math.isnan(r.mae_s) for r in rows)

    def test_mae_grows_with_horizon_on_simulated_data(self):
        cfg = SimConfig(route=RouteSpec(20, 800.0), weeks=3, trips_per_day=15,
                        events_per_day=3.0, seed=6)
        trips, _ = simulate_dataset(cfg)
        ds = TripDataset(trips, cfg.route)
        train, test = split_train_test(trips)
        test_days = {t.day_index for t in test}
        examples, _ = build_examples(ds, positions=[5, 10],
                                     days=sorted(test_days))
        hist = fit_hist_mean(train)
        methods = {"persistence": baseline_persistence,
                   "hist_mean": lambda ex: baseline_hist_mean(hist, ex)}
        rows, _ = evaluate_grid(methods, examples, 20, i_values=(5, 10))
        for method in methods:
            for i in (5, 10):
                maes = [r.mae_s for r in rows
                        if r.method == method and r.i == i]
                inversions = sum(1 for a, b in zip(maes, maes[1:]) if b < a)
                assert inversions <= 1, (method, i, maes)


def test_report_csv_format(tmp_path):
    rows = [evalkit.GridRow(i=5, j=10, method="edu", n=3, mae_s=1.5,
                            mape_pct=2.5, sig_vs_edu="-", sig_vs_edb="ns")]
    queries = [evalkit.QueryRecord(i=5, j=10, method="edu", day_index=7,
                                   trip_id=3, predicted_s=10.0, true_s=12.0)]
    rp = tmp_path / "report.csv"
    qp = tmp_path / "queries.csv"
    evalkit.save_report_csv(rows, rp)
    evalkit.save_query_log_csv(queries, qp)
    assert rp.read_text().splitlines()[0] == \
        "i,j,method,n,mae_s,mape_pct,sig_vs_edu,sig_vs_edb"
    assert qp.read_text().splitlines()[1] == "5,10,edu,7,3,10.000000,12.000000"
