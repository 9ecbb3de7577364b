"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The directional-
reproduction criterion trains both model kinds on the full-scale synthetic
dataset and dominates the suite's runtime (a few minutes; its own budget is
30 wall-clock minutes).
"""

import hashlib
import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from busarrival import cli
from busarrival.dataprep import (RouteSpec, TripDataset, build_examples,
                                 example_key)
from busarrival.evalkit import (baseline_hist_mean, baseline_persistence,
                                evaluate_grid, fit_hist_mean, mae, mape,
                                paired_z_test)
from busarrival.gru import gru_forward, init_gru
from busarrival.numkit import finite_diff_grad, make_rng
from busarrival.seq2seq import (TrainConfig, bank_layout, model_backward,
                                model_loss, new_model, predict,
                                predict_example, train_bank)
from busarrival.simulator import SimConfig, simulate_dataset, split_train_test
from conftest import decoder_param_count, make_example


def report(criterion, detail):
    print(f"\n[acceptance] PASS {criterion}: {detail}")


def test_c01_gradient_exactness_toy_models(toy_norm):
    """Every parameter gradient matches central finite differences at 1e-4
    relative tolerance for EDU and EDB toy models (N_s=8, hidden <= 8, m=3),
    over >= 20 seeded cases, in under 60 s."""
    start = time.time()
    n_s, m = 8, 3
    worst = 0.0
    cases = 0
    for kind in ("edu", "edb"):
        for seed in range(10):
            rng = make_rng(100 + seed)
            hidden_enc = int(rng.integers(2, 9))
            hidden_dec = int(rng.integers(2, 9 if kind == "edu" else 7))
            model = new_model(kind, 3, n_s - 1, n_s, rng,
                              hidden_enc=hidden_enc, hidden_dec=hidden_dec,
                              norm=toy_norm)
            ex = make_example(rng, m, n_s)
            _, grad = model_backward(model, ex)
            fd = finite_diff_grad(lambda _: model_loss(model, ex), model.theta)
            rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(np.max(rel)))
            assert np.max(rel) < 1e-4, (kind, seed)
            cases += 1
    elapsed = time.time() - start
    assert cases == 20
    assert elapsed < 60.0
    report("criterion 1 (gradient exactness)",
           f"20 cases, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_c02_cell_level_checks():
    """Zero-weight forward identity is exact; gate range and the convex
    state combination hold over 10^4 random evaluations."""
    p = init_gru(make_rng(0), 6, 3)
    for v in p.as_dict().values():
        v[...] = 0.0
    h_prev = make_rng(1).normal(size=6)
    h, _ = gru_forward(p, h_prev[:, None], np.ones((1, 3, 1)))
    npt.assert_array_equal(h[0, :, 0], 0.5 * h_prev)

    rng = make_rng(2)
    evaluations = 0
    while evaluations < 10_000:
        params = init_gru(rng, 5, 3)
        for v in params.as_dict().values():
            v *= rng.uniform(0.5, 2.0)
        for _ in range(50):
            hp = rng.normal(scale=1.5, size=5)
            u = rng.normal(scale=1.5, size=3)
            states, c = gru_forward(params, hp[:, None], u[None, :, None])
            h, h_tilde = states[0, :, 0], c.h_tilde[0, :, 0]
            assert np.all((c.z > 0) & (c.z < 1))
            assert np.all((c.r > 0) & (c.r < 1))
            lo = np.minimum(hp, h_tilde)
            hi = np.maximum(hp, h_tilde)
            assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)
            evaluations += 1
    report("criterion 2 (cell-level checks)",
           f"zero-weight identity exact; invariants held on {evaluations} "
           "evaluations")


def test_c03_dataprep_oracle_equivalence():
    """Indexed predecessor and previous-week searches match brute-force
    scans on >= 10^4 randomized queries over a bunching-heavy dataset, and
    the example builder is set-equal under brute force, within 120 s."""
    from busarrival.dataprep import (closest_prev_trip_at_section,
                                     closest_prev_week_trip)
    start = time.time()
    cfg = SimConfig(route=RouteSpec(12, 800.0), weeks=2, trips_per_day=30,
                    headway_mean_s=240.0, headway_jitter_s=200.0,
                    events_per_day=10.0, noise_cv=0.3, seed=33)
    trips, _ = simulate_dataset(cfg)
    ds = TripDataset(trips, cfg.route)
    # bunching check: at least one entry-order inversion must exist
    inversions = 0
    for day in ds.days():
        day_trips = sorted(ds.trips[ds.day_rows(day)], key=lambda t: t.start_time)
        for a, b in zip(day_trips, day_trips[1:]):
            if np.any(b.entry_times < a.entry_times):
                inversions += 1
    assert inversions > 0, "dataset not bunching-heavy"

    rng = make_rng(34)
    days = ds.days()
    queries = 0
    for _ in range(9_000):
        day = int(rng.choice(days))
        sec = int(rng.integers(1, 13))
        t_c = float(rng.uniform(5.5 * 3600, 10 * 3600))
        fast = closest_prev_trip_at_section(ds, day, sec, t_c)
        slow = closest_prev_trip_at_section(ds, day, sec, t_c, brute_force=True)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.trip_id == slow.trip_id
        queries += 1
    for _ in range(1_500):
        day = int(rng.choice(days))
        start_t = float(rng.uniform(5.5 * 3600, 10 * 3600))
        fast = closest_prev_week_trip(ds, day, start_t)
        slow = closest_prev_week_trip(ds, day, start_t, brute_force=True)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.trip_id == slow.trip_id
        queries += 1
    assert queries >= 10_000

    fast_ex, _ = build_examples(ds)
    slow_ex, _ = build_examples(ds, brute_force=True)
    assert {example_key(e) for e in fast_ex} == {example_key(e) for e in slow_ex}
    elapsed = time.time() - start
    assert elapsed < 120.0
    report("criterion 3 (data-prep oracle equivalence)",
           f"{queries} queries, {len(fast_ex)} examples set-equal, "
           f"{inversions} bunching inversions, {elapsed:.1f}s")


def test_c05_anticausal_mechanism(toy_norm):
    """d(first prediction)/d(last decoder input) is exactly zero for EDU and
    exceeds 1e-8 in magnitude for EDB on a seeded instance."""
    from dataclasses import replace
    rng = make_rng(44)
    ex = make_example(rng, 4, 10)
    h = 1e-4

    def first_pred_derivs(model):
        out = []
        for col in range(4):
            up, down = ex.dec.copy(), ex.dec.copy()
            up[-1, col] += h
            down[-1, col] -= h
            out.append((predict_example(model, replace(ex, dec=up))[0]
                        - predict_example(model, replace(ex, dec=down))[0])
                       / (2 * h))
        return out

    edu = new_model("edu", 3, 7, 10, make_rng(45), hidden_enc=6, hidden_dec=5,
                    norm=toy_norm)
    edb = new_model("edb", 3, 7, 10, make_rng(45), hidden_enc=6, hidden_dec=4,
                    norm=toy_norm)
    edu_derivs = first_pred_derivs(edu)
    edb_derivs = first_pred_derivs(edb)
    assert all(d == 0.0 for d in edu_derivs)
    edb_mag = max(abs(d) for d in edb_derivs)
    assert edb_mag > 1e-8
    report("criterion 5 (anti-causal mechanism)",
           f"EDU derivative exactly 0; EDB |derivative| = {edb_mag:.2e}")


def test_c06_metric_correctness():
    """MAPE/MAE/Z-test unit examples pass exactly; the Z decision agrees
    with the standard normal critical value 1.645 at alpha = 0.1."""
    assert mae([110.0, 70.0], [100.0, 100.0]) == 20.0
    assert abs(mape([110.0], [100.0]) - 10.0) < 1e-12
    assert mape([5.0], [5.0]) == 0.0

    d = np.full(50, 0.0)
    assert paired_z_test(d, d).z == 0.0
    res = paired_z_test(np.full(50, 1.0), np.full(50, 3.0))
    assert res.status == "degenerate" and res.significant

    rng = make_rng(55)
    agree = 0
    for _ in range(200):
        diff = rng.normal(loc=rng.uniform(-0.3, 0.3), size=60)
        base = np.abs(rng.normal(size=60)) + 5.0
        res = paired_z_test(base + diff, base)
        z_ref = np.mean(diff) / (np.std(diff, ddof=1) / math.sqrt(60))
        assert res.significant == (abs(z_ref) > 1.645)
        agree += 1
    report("criterion 6 (metric correctness)",
           f"unit examples exact; {agree} Z decisions match the 1.645 "
           "critical value")


def test_c07_variable_length_contract(toy_norm):
    """For every m in [3, 33] with N_s=34: prediction length is 34 - m and
    exactly one of the 6 bank models owns m."""
    from test_seq2seq import zero_bank
    n_s = 34
    layout = bank_layout(n_s)
    assert len(layout) == 6
    bank = zero_bank("edu", n_s, toy_norm)
    rng = make_rng(66)
    for m in range(3, n_s):
        ex = make_example(rng, m, n_s)
        assert len(predict(bank, ex).travel_s) == n_s - m
        owners = [mo for mo in bank.models if mo.m_lo <= m <= mo.m_hi]
        assert len(owners) == 1
    report("criterion 7 (variable-length contract)",
           "all 31 positions route to exactly one of 6 banks with K = 34 - m")


def test_c08_pipeline_determinism(tmp_path):
    """Two full pipeline runs with one master seed produce byte-identical
    trips, examples, skip reports, checkpoints and report CSVs."""
    cfg = {"route": {"n_sections": 8, "section_length_m": 500.0},
           "simulator": {"weeks": 3, "trips_per_day": 6, "events_per_day": 3.0},
           "training": {"max_epochs": 3, "hidden_enc": 6,
                        "hidden_dec_edu": 6, "hidden_dec_edb": 4}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def pipeline(root):
        root.mkdir()
        argv = lambda *a: [str(x) for x in a]
        assert cli.main(argv("simulate", "--config", cfg_path, "--seed", 7,
                             "--out", root / "sim")) == 0
        assert cli.main(argv("prepare", "--config", cfg_path, "--seed", 7,
                             "--trips", root / "sim" / "trips.csv",
                             "--out", root / "prep")) == 0
        assert cli.main(argv("train", "--config", cfg_path, "--seed", 7,
                             "--trips", root / "sim" / "trips.csv",
                             "--out", root / "ckpt", "--threads", 1)) == 0
        assert cli.main(argv("evaluate", "--config", cfg_path, "--seed", 7,
                             "--checkpoints", root / "ckpt",
                             "--trips", root / "sim" / "trips.csv",
                             "--out", root / "rep")) == 0
        digests = {}
        for sub in ("sim", "prep", "ckpt", "rep"):
            for p in sorted((root / sub).glob("*")):
                if (p.suffix in (".json", ".csv", ".jsonl")
                        and p.name != "manifest.json"):
                    digests[f"{sub}/{p.name}"] = hashlib.sha256(
                        p.read_bytes()).hexdigest()
        return digests

    d1 = pipeline(tmp_path / "run1")
    d2 = pipeline(tmp_path / "run2")
    assert d1 == d2 and len(d1) >= 8
    assert {"sim/trips.csv", "prep/examples.jsonl", "prep/skipped.csv"} <= d1.keys()
    report("criterion 8 (determinism)",
           f"{len(d1)} artifacts byte-identical across two runs")


def test_c09_overfit_sanity(toy_norm):
    """Single-example training reaches loss < 1e-3 for both kinds."""
    losses = {}
    for kind in ("edu", "edb"):
        ex = make_example(make_rng(77), 4, 8)
        cfg = TrainConfig(max_epochs=500, lr=5e-3, hidden_enc=8,
                          hidden_dec_edu=8, hidden_dec_edb=6, seed=2)
        result = train_bank(kind, [ex], 8, cfg)
        losses[kind] = model_loss(result.bank.model_for(4), ex)
        assert losses[kind] < 1e-3
    report("criterion 9 (overfit sanity)",
           f"final losses edu={losses['edu']:.2e}, edb={losses['edb']:.2e}")


def test_c10_parameter_parity(toy_norm):
    """EDB decoder parameter count does not exceed the EDU decoder's and is
    within 10% of it at the default sizes, for every bank of the 34-section
    route."""
    ratios = []
    for m_lo, m_hi in bank_layout(34):
        edu = new_model("edu", m_lo, m_hi, 34, make_rng(0), norm=toy_norm)
        edb = new_model("edb", m_lo, m_hi, 34, make_rng(0), norm=toy_norm)
        n_edu, n_edb = decoder_param_count(edu), decoder_param_count(edb)
        assert n_edb <= n_edu
        assert n_edb >= 0.9 * n_edu
        ratios.append(n_edb / n_edu)
    report("criterion 10 (parameter parity)",
           f"EDB/EDU decoder parameter ratios {min(ratios):.3f}-{max(ratios):.3f}")


def test_c04_directional_reproduction_edb_beats_edu():
    """On the full-scale synthetic dataset with upstream-propagating
    congestion (N_s=34, 800 m sections, 40 trips/day, 8 weeks, fixed seed),
    trained EDB beats trained EDU on MAE for at least 2/3 of the 21 (i, j)
    grid pairs, with the paired Z-test at alpha=0.1 significant in EDB's
    favor on at least half of those wins. Budget: 30 minutes."""
    start = time.time()
    sim = SimConfig(seed=0)
    assert sim.route.n_sections == 34
    assert sim.route.section_length_m == 800.0
    assert sim.trips_per_day == 40 and sim.weeks == 8
    assert sim.events_per_day > 0
    trips, events = simulate_dataset(sim)
    assert events
    ds = TripDataset(trips, sim.route)
    train_trips, test_trips = split_train_test(trips)
    train_days = sorted({t.day_index for t in train_trips})
    test_days = sorted({t.day_index for t in test_trips})

    train_ex, _ = build_examples(ds, days=train_days)
    i_values = (5, 10, 15, 20, 25, 30)
    test_ex, _ = build_examples(ds, positions=list(i_values), days=test_days)

    tcfg = TrainConfig(lr=3e-3, max_epochs=30, patience=6, seed=0)
    banks = {kind: train_bank(kind, train_ex, 34, tcfg).bank
             for kind in ("edu", "edb")}

    hist = fit_hist_mean(train_trips)
    methods = {
        "edu": lambda ex: predict(banks["edu"], ex).travel_s,
        "edb": lambda ex: predict(banks["edb"], ex).travel_s,
        "persistence": baseline_persistence,
        "hist_mean": lambda ex: baseline_hist_mean(hist, ex),
    }
    for kind in ("edu", "edb"):
        preds = np.concatenate([methods[kind](ex) for ex in test_ex[::37]])
        assert np.all(np.isfinite(preds)) and np.all(preds > 0)

    rows, _ = evaluate_grid(methods, test_ex, 34, i_values=i_values)
    by = {(r.i, r.j, r.method): r for r in rows}
    pairs = sorted({(r.i, r.j) for r in rows})
    assert len(pairs) == 21
    wins = [(i, j) for i, j in pairs
            if by[(i, j, "edb")].mae_s < by[(i, j, "edu")].mae_s]
    sig_wins = [(i, j) for i, j in wins
                if by[(i, j, "edb")].sig_vs_edu == "better"]
    elapsed = time.time() - start
    assert elapsed < 1800.0, f"runtime {elapsed:.0f}s exceeds 30 min"
    assert len(wins) >= math.ceil(len(pairs) * 2 / 3), \
        f"EDB won only {len(wins)}/{len(pairs)} grid pairs"
    assert len(sig_wins) >= math.ceil(len(wins) / 2), \
        f"only {len(sig_wins)} of {len(wins)} wins were significant"
    report("criterion 4 (directional reproduction)",
           f"EDB beat EDU on {len(wins)}/21 pairs "
           f"({len(sig_wins)} significant) in {elapsed / 60:.1f} min")
