"""Command-line pipeline: simulate -> prepare -> train -> predict -> evaluate.

Configuration lives in one JSON document with full defaults; command-line
flags override file values. Every command writes a manifest recording the
master seed and a hash of the effective configuration, and is idempotent:
identical inputs and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import hashlib
import json
import os
import sys

from . import dataprep, evalkit, seq2seq, simulator
from .dataprep import RouteSpec

DEFAULT_CONFIG = {
    "seed": 0,
    "route": {"n_sections": 34, "section_length_m": 800.0},
    "simulator": {
        "weeks": 8,
        "trips_per_day": 40,
        "first_dispatch_s": 21600.0,
        "headway_mean_s": 1260.0,
        "headway_jitter_s": 240.0,
        "morning_peak_h": 8.5,
        "evening_peak_h": 18.0,
        "peak_amplitude": 0.40,
        "peak_width_h": 1.5,
        "weekday_multipliers": [1.03, 0.99, 1.00, 1.02, 1.07, 0.92],
        "events_per_day": 8.0,
        "event_severity_range": [1.6, 2.8],
        "event_duration_range_s": [1800.0, 5400.0],
        "event_speed_range_spm": [0.3, 1.5],
        "event_decay": 0.93,
        "event_factor_cap": 5.0,
        "noise_cv": 0.08,
    },
    "dataprep": {"fallback": "previous_week"},
    "training": {
        "batch_size": 32,
        "lr": 3e-3,
        "max_epochs": 30,
        "patience": 6,
        "hidden_enc": 32,
        "hidden_dec_edu": 32,
        "hidden_dec_edb": 19,
        "use_bias": False,
    },
    "evaluation": {"i_values": [5, 10, 15, 20, 25, 30], "j_step": 5,
                   "alpha": 0.1},
}


def load_config(path: str | None, seed_override: int | None = None) -> dict:
    """Defaults, overlaid with the config file, overlaid with flag overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as f:
            try:
                user = json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: invalid JSON at line {e.lineno}, "
                                 f"column {e.colno}: {e.msg}") from e
        for section, values in user.items():
            if section not in cfg:
                raise ValueError(f"{path}: unknown config section {section!r}")
            if isinstance(cfg[section], dict):
                for key, v in values.items():
                    if key not in cfg[section]:
                        raise ValueError(
                            f"{path}: unknown key {section}.{key!r}")
                    cfg[section][key] = v
            else:
                cfg[section] = values
    if seed_override is not None:
        cfg["seed"] = seed_override
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _route(cfg: dict) -> RouteSpec:
    return RouteSpec(int(cfg["route"]["n_sections"]),
                     float(cfg["route"]["section_length_m"]))


def _sim_config(cfg: dict) -> simulator.SimConfig:
    s = cfg["simulator"]
    return simulator.SimConfig(
        route=_route(cfg), weeks=int(s["weeks"]),
        trips_per_day=int(s["trips_per_day"]),
        first_dispatch_s=float(s["first_dispatch_s"]),
        headway_mean_s=float(s["headway_mean_s"]),
        headway_jitter_s=float(s["headway_jitter_s"]),
        morning_peak_h=float(s["morning_peak_h"]),
        evening_peak_h=float(s["evening_peak_h"]),
        peak_amplitude=float(s["peak_amplitude"]),
        peak_width_h=float(s["peak_width_h"]),
        weekday_multipliers=tuple(s["weekday_multipliers"]),
        events_per_day=float(s["events_per_day"]),
        event_severity_range=tuple(s["event_severity_range"]),
        event_duration_range_s=tuple(s["event_duration_range_s"]),
        event_speed_range_spm=tuple(s["event_speed_range_spm"]),
        event_decay=float(s["event_decay"]),
        event_factor_cap=float(s["event_factor_cap"]),
        noise_cv=float(s["noise_cv"]), seed=int(cfg["seed"]))


def _train_config(cfg: dict) -> seq2seq.TrainConfig:
    t = cfg["training"]
    return seq2seq.TrainConfig(
        batch_size=int(t["batch_size"]), lr=float(t["lr"]),
        max_epochs=int(t["max_epochs"]), patience=int(t["patience"]),
        hidden_enc=int(t["hidden_enc"]),
        hidden_dec_edu=int(t["hidden_dec_edu"]),
        hidden_dec_edb=int(t["hidden_dec_edb"]),
        use_bias=bool(t["use_bias"]), seed=int(cfg["seed"]))


def _write_manifest(out_dir: str, command: str, cfg: dict, outputs: list,
                    **fields) -> None:
    manifest = {"command": command, "seed": cfg["seed"],
                "config_sha256": config_hash(cfg),
                "outputs": sorted(os.path.basename(p) for p in outputs), **fields}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    trips, events = simulator.simulate_dataset(_sim_config(cfg))
    trips_path = os.path.join(args.out, "trips.csv")
    events_path = os.path.join(args.out, "events.csv")
    dataprep.save_trips_csv(trips, trips_path)
    simulator.save_events_csv(events, events_path)
    _write_manifest(args.out, "simulate", cfg, [trips_path, events_path])
    print(f"simulate: {len(trips)} trips, {len(events)} events -> {args.out}")
    return 0


def cmd_prepare(args) -> int:
    cfg = load_config(args.config, args.seed)
    route = _route(cfg)
    dataset = dataprep.load_trips_csv(args.trips, route)
    examples, skips = dataprep.build_examples(
        dataset, fallback=cfg["dataprep"]["fallback"],
        brute_force=args.brute_force)
    os.makedirs(args.out, exist_ok=True)
    ex_path = os.path.join(args.out, "examples.jsonl")
    skip_path = os.path.join(args.out, "skipped.csv")
    dataprep.save_examples_jsonl(examples, ex_path)
    dataprep.save_skip_report_csv(skips, skip_path)
    _write_manifest(args.out, "prepare", cfg, [ex_path, skip_path])
    print(f"prepare: {len(examples)} examples, {len(skips)} skipped")
    for m_lo, m_hi in seq2seq.bank_layout(route.n_sections):
        n = sum(1 for ex in examples if m_lo <= ex.m <= m_hi)
        print(f"  bank m={m_lo}-{m_hi}: {n} examples")
    return 0


def _kinds(kind_flag: str) -> list[str]:
    return [seq2seq.KIND_EDU, seq2seq.KIND_EDB] if kind_flag == "both" else [kind_flag]


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    route = _route(cfg)
    tcfg = _train_config(cfg)
    examples = dataprep.load_examples_jsonl(args.examples)
    if not examples:
        raise ValueError(f"{args.examples}: no training examples")
    for ex in examples:
        if ex.m + ex.k != route.n_sections:
            raise dataprep.DataError(
                f"{args.examples}: the example of trip {ex.trip_id} at m={ex.m} "
                f"spans {ex.m + ex.k} sections, the route has {route.n_sections}")
    if args.overfit:
        examples = examples[:1]
        tcfg.max_epochs = max(tcfg.max_epochs, 800)
    held_out = seq2seq.split_week(examples)
    train_ex = [ex for ex in examples if ex.week != held_out]
    if not any(seq2seq.FIRST_POSITION <= ex.m <= route.n_sections - 1
               for ex in train_ex):
        raise ValueError("no examples fall inside any coverable bank")
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    loss_rows = []
    pool = None
    if args.threads > 1:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=args.threads)
    try:
        for kind in _kinds(args.kind):
            result = seq2seq.train_bank(kind, train_ex, route.n_sections,
                                        tcfg, pool=pool)
            outputs.extend(seq2seq.save_bank(result.bank, args.out))
            for (m_lo, m_hi), history in sorted(result.histories.items()):
                for h in history:
                    loss_rows.append([kind, f"{m_lo}-{m_hi}", h["epoch"],
                                      f"{h['train_loss']:.8f}",
                                      "" if h["val_loss"] is None
                                      else f"{h['val_loss']:.8f}"])
            for m_range in result.skipped:
                print(f"train: skipped {kind} bank m={m_range[0]}-{m_range[1]} "
                      "(no examples)", file=sys.stderr)
    finally:
        if pool is not None:
            pool.shutdown()
    loss_path = os.path.join(args.out, "loss_curves.csv")
    with open(loss_path, "w", newline="") as f:
        import csv as _csv
        w = _csv.writer(f, lineterminator="\n")
        w.writerow(["kind", "bank", "epoch", "train_loss", "val_loss"])
        w.writerows(loss_rows)
    outputs.append(loss_path)
    _write_manifest(args.out, "train", cfg, outputs, held_out_week=held_out,
                    validation_week=seq2seq.split_week(train_ex))
    print(f"train: wrote {len(outputs) - 1} checkpoints -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config, args.seed)
    route = _route(cfg)
    dataset = dataprep.load_trips_csv(args.trips, route)
    if args.trip_id not in dataset.by_id:
        raise ValueError(f"unknown trip id {args.trip_id}")
    bank = seq2seq.load_bank(args.checkpoints, args.kind, route.n_sections)
    trip = dataset.by_id[args.trip_id]
    pw = dataprep.closest_prev_week_trip(dataset, trip.day_index,
                                         trip.start_time)
    ex = dataprep.build_example(dataset, trip, args.m, pw, args.tc,
                                cfg["dataprep"]["fallback"])
    if isinstance(ex, str):
        raise ValueError(f"could not assemble inputs for trip {args.trip_id} "
                         f"at m={args.m}: {ex}")
    if args.tc is not None:
        print(f"predict: overriding T_c {trip.entry(args.m + 1):.1f}s -> "
              f"{args.tc:.1f}s (previous-bus inputs re-resolved)",
              file=sys.stderr)
    result = seq2seq.predict(bank, ex)
    writer = sys.stdout
    print("section,predicted_travel_s,cumulative_s,arrival_s", file=writer)
    for sec, z, c, a in zip(result.sections, result.travel_s,
                            result.cumulative_s, result.arrival_s):
        print(f"{sec},{z:.3f},{c:.3f},{a:.3f}", file=writer)
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.seed)
    route = _route(cfg)
    dataset = dataprep.load_trips_csv(args.trips, route)
    train_trips, test_trips = simulator.split_train_test(dataset.trips)
    test_week = test_trips[0].day_index // 7
    manifest_path = os.path.join(args.checkpoints, "manifest.json")
    try:
        with open(manifest_path) as f:
            held_out = json.load(f).get("held_out_week")
    except (OSError, ValueError, AttributeError) as e:
        raise dataprep.DataError(
            f"{manifest_path}: cannot read the training manifest: {e}") from e
    if held_out != test_week:
        raise dataprep.DataError(
            f"{manifest_path}: training held out week {held_out}, not week "
            f"{test_week}, the week evaluate scores")
    ecfg = cfg["evaluation"]
    i_values = [i for i in ecfg["i_values"] if i <= route.n_sections - 1]
    test_days = sorted({t.day_index for t in test_trips})
    examples, _ = dataprep.build_examples(
        dataset, positions=i_values, days=test_days,
        fallback=cfg["dataprep"]["fallback"])
    methods = {}
    for kind in _kinds(args.kind):
        bank = seq2seq.load_bank(args.checkpoints, kind, route.n_sections)
        methods[kind] = (lambda ex, b=bank: seq2seq.predict(b, ex).travel_s)
    hist = evalkit.fit_hist_mean(train_trips)
    methods["persistence"] = evalkit.baseline_persistence
    methods["hist_mean"] = (lambda ex: evalkit.baseline_hist_mean(hist, ex))
    rows, queries = evalkit.evaluate_grid(
        methods, examples, route.n_sections, i_values=i_values,
        j_step=int(ecfg["j_step"]), alpha=float(ecfg["alpha"]))
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.csv")
    query_path = os.path.join(args.out, "queries.csv")
    evalkit.save_report_csv(rows, report_path)
    evalkit.save_query_log_csv(queries, query_path)
    _write_manifest(args.out, "evaluate", cfg, [report_path, query_path],
                    test_week=test_week)
    print(f"evaluate: {len(rows)} grid rows over {len(examples)} test queries "
          f"-> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="busarrival",
        description="Section-level bus travel time prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config)")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="max worker processes for per-bank training")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate a synthetic trip dataset")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prepare", help="build training examples from trips")
    common(p)
    p.add_argument("--trips", required=True, help="trip CSV")
    p.add_argument("--brute-force", action="store_true",
                   help="use the quadratic reference search instead of indexes")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser(
        "train",
        help="train per-bank models",
        description="Trains one model per bank per kind. The newest week in "
                    "the examples file is held out entirely (it is the "
                    "pipeline's test week); the newest remaining week serves "
                    "as the early-stopping validation split.")
    common(p)
    p.add_argument("--examples", required=True, help="examples JSONL")
    p.add_argument("--kind", choices=["edu", "edb", "both"], default="both")
    p.add_argument("--overfit", action="store_true",
                   help="fit the first example only (sanity mode)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict remaining sections for a trip")
    common(p, out=False)
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--trip-id", type=int, required=True, dest="trip_id")
    p.add_argument("--m", type=int, required=True,
                   help="current position (last completed section)")
    p.add_argument("--tc", type=float, default=None,
                   help="override the query time (seconds since midnight)")
    p.add_argument("--kind", choices=["edu", "edb"], default="edb")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="grid evaluation on the test week")
    common(p)
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--kind", choices=["edu", "edb", "both"], default="both")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
