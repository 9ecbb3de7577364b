"""Command-line pipeline: simulate -> prepare -> train -> predict -> evaluate.

Configuration lives in one JSON document whose defaults are those of
SimConfig, TrainConfig and evalkit; command-line flags override file values.
Every command writes a manifest recording the master seed and a hash of the
effective configuration, and is idempotent: identical inputs and seed give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from collections import Counter
from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage
from types import SimpleNamespace

import numpy as np

from . import dataprep, evalkit, seq2seq, simulator
from .dataprep import RouteSpec, check_ranges


def _fields(settings) -> dict:
    """A config section: a dataclass's settings other than route and seed."""
    return {k: v for k, v in vars(settings).items() if k not in ("route", "seed")}


DEFAULT_CONFIG = {
    "seed": simulator.SimConfig().seed,
    "route": _fields(simulator.SimConfig().route),
    "simulator": _fields(simulator.SimConfig()),
    "dataprep": {"fallback": dataprep.FALLBACK_POLICIES[0]},
    "training": _fields(seq2seq.TrainConfig()),
    "evaluation": {"i_values": evalkit.DEFAULT_I_VALUES,
                   "j_step": evalkit.DEFAULT_J_STEP,
                   "alpha": evalkit.DEFAULT_ALPHA},
}
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "an array", tuple: "an array",
               dict: "an object"}
# Range rules of the sections that no settings dataclass checks.
_RULES = {
    "dataprep": {"fallback": (dataprep.FALLBACK_POLICIES.__contains__,
                              "one of " + ", ".join(dataprep.FALLBACK_POLICIES))},
    "evaluation": {"i_values": (lambda v: v and len(set(v)) == len(v)
                                and min(v) >= dataprep.FIRST_POSITION,
                                "one or more distinct positions >= "
                                f"{dataprep.FIRST_POSITION}"),
                   "j_step": dataprep.AT_LEAST_1,
                   "alpha": (lambda v: 0 < v < 1, "in (0, 1)")}}


def _merge(default, value, where: str, key: str = ""):
    """``value`` over ``default``, whose JSON type it must have (an integer
    passes for a number); objects merge by key, array items are checked
    against the default's first item."""
    want, got = _JSON_TYPES[type(default)], _JSON_TYPES.get(type(value), "null")
    if (got != want and (want, got) != ("a number", "an integer")
            or got == "a number" and not math.isfinite(value)):
        raise ValueError(f"{where}: {key or 'top level'}: expected {want}, "
                         f"got {json.dumps(value)}")
    if got == "an array":
        return tuple(_merge(default[0], v, where, f"{key}[{i}]")
                     for i, v in enumerate(value))
    if got != "an object":
        return value
    prefix = f"{key}." if key else ""
    unknown = sorted(value.keys() - default.keys())
    if unknown:
        raise ValueError(f"{where}: unknown config key {prefix}{unknown[0]}")
    return {k: _merge(d, value.get(k, d), where, prefix + k)
            for k, d in default.items()}


def load_config(path: str | None, seed_override: int | None = None) -> dict:
    """Defaults, overlaid with the config file, overlaid with flag overrides.

    A value of the wrong JSON type or out of range raises ValueError naming
    ``<path>: section.key``, so a command rejects a bad file before any work.
    """
    where, user = path or "default config", {}
    if path is not None:
        with open(path) as f:
            try:
                user = json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: invalid JSON at line {e.lineno}, "
                                 f"column {e.colno}: {e.msg}") from e
    cfg = _merge(DEFAULT_CONFIG, user, where)
    if seed_override is not None:
        cfg["seed"] = seed_override
    if cfg["seed"] < 0:  # numpy's seeding error would name neither flag nor key
        name = f"{where}: seed" if seed_override is None else "--seed"
        raise ValueError(f"{name}: must be >= 0, got {cfg['seed']}")
    for section, check in (
            ("route", _route), ("simulator", _sim_config),
            ("training", _train_config),
            *((s, lambda c, s=s: check_ranges(SimpleNamespace(**c[s]),
                                              _RULES[s])) for s in _RULES)):
        try:
            check(cfg)
        except ValueError as e:
            raise ValueError(f"{where}: {section}.{e}") from e
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _route(cfg: dict) -> RouteSpec:
    return RouteSpec(**cfg["route"])


def _sim_config(cfg: dict) -> simulator.SimConfig:
    return simulator.SimConfig(route=_route(cfg), seed=cfg["seed"],
                               **cfg["simulator"])


def _train_config(cfg: dict) -> seq2seq.TrainConfig:
    return seq2seq.TrainConfig(seed=cfg["seed"], **cfg["training"])


def _write_manifest(out_dir: str, command: str, cfg: dict, outputs: list,
                    **fields) -> None:
    manifest = {"command": command, "seed": cfg["seed"],
                "config_sha256": config_hash(cfg),
                "outputs": sorted(os.path.basename(p) for p in outputs),
                "peak_rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / 1024, **fields}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _timed(stage_s: dict, stage: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its wall seconds recorded as ``stage_s[stage]``."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    stage_s[stage] = time.perf_counter() - start
    return out


def cmd_simulate(args, cfg: dict) -> int:
    stage_s = {}
    trips, events = _timed(stage_s, "simulate", simulator.simulate_dataset,
                           _sim_config(cfg))
    os.makedirs(args.out, exist_ok=True)
    trips_path = os.path.join(args.out, "trips.csv")
    events_path = os.path.join(args.out, "events.csv")
    _timed(stage_s, "write_trips", dataprep.save_trips_csv, trips, trips_path)
    _timed(stage_s, "write_events", simulator.save_events_csv, events, events_path)
    _write_manifest(args.out, "simulate", cfg, [trips_path, events_path], stage_s=stage_s)
    print(f"simulate: {len(trips)} trips, {len(events)} events -> {args.out}")
    return 0


def cmd_prepare(args, cfg: dict) -> int:
    route = _route(cfg)
    stage_s = {}
    dataset = _timed(stage_s, "load_trips", dataprep.load_trips_csv, args.trips, route)
    examples, skips = _timed(stage_s, "build_examples", dataprep.build_examples,
                             dataset, fallback=cfg["dataprep"]["fallback"],
                             brute_force=args.brute_force)
    os.makedirs(args.out, exist_ok=True)
    ex_path = os.path.join(args.out, "examples.jsonl")
    skip_path = os.path.join(args.out, "skipped.csv")
    _timed(stage_s, "write_examples", dataprep.save_examples_jsonl, examples, ex_path)
    _timed(stage_s, "write_skips", dataprep.save_skip_report_csv, skips, skip_path)
    masks = {}
    for ex in examples:
        masks.setdefault(ex.m, []).append(ex.fallback_mask)
    _write_manifest(
        args.out, "prepare", cfg, [ex_path, skip_path],
        stage_s=stage_s,
        examples=len(examples),
        skips_by_reason=dict(Counter(s.reason for s in skips)),
        # per m, the share of decoder sections with no previous bus
        fallback_share_by_m={m: float(np.concatenate(v).mean())
                             for m, v in masks.items()})
    print(f"prepare: {len(examples)} examples, {len(skips)} skipped")
    for m_lo, m_hi in seq2seq.bank_layout(route.n_sections):
        n = sum(1 for ex in examples if m_lo <= ex.m <= m_hi)
        print(f"  bank m={m_lo}-{m_hi}: {n} examples")
    return 0


def _kinds(kind_flag: str) -> list[str]:
    return [seq2seq.KIND_EDU, seq2seq.KIND_EDB] if kind_flag == "both" else [kind_flag]


def _run_summary(history: list[dict], patience: int, wall_s: float) -> dict:
    """One bank's training run: epochs run, why training stopped, the best
    epoch (None without validation), each epoch's gradient norm and the
    bank's wall seconds."""
    vals = [h["val_loss"] for h in history]
    best = None if vals[0] is None else int(np.argmin(vals))
    # training stops once `patience` epochs have passed without improvement
    stopped = ("patience" if best is not None and len(vals) - 1 - best >= patience
               else "max_epochs")
    return {"epochs": len(history), "stopped": stopped, "best_epoch": best,
            "grad_norm": [h["grad_norm"] for h in history], "wall_s": wall_s}


def cmd_train(args, cfg: dict) -> int:
    route = _route(cfg)
    tcfg = _train_config(cfg)
    stage_s = {}
    examples = _timed(stage_s, "load_examples", dataprep.load_examples_jsonl,
                      args.examples)
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
    held_out = seq2seq.split_week(ex.week for ex in examples)
    train_ex = [ex for ex in examples if ex.week != held_out]
    if not any(seq2seq.FIRST_POSITION <= ex.m <= route.n_sections - 1
               for ex in train_ex):
        raise ValueError("no examples fall inside any coverable bank")
    validation_week = seq2seq.split_week(ex.week for ex in train_ex)
    if validation_week is None:
        print(f"train: held-out week {held_out} leaves one training week, so "
              "nothing is validated and early stopping is off",
              file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    outputs, loss_rows, runs = [], [], {}
    pool = (concurrent.futures.ProcessPoolExecutor(max_workers=args.threads)
            if args.threads > 1 else None)
    try:
        for kind in _kinds(args.kind):
            start = time.perf_counter()
            result = seq2seq.train_bank(kind, train_ex, route.n_sections,
                                        tcfg, pool=pool)
            wall = time.perf_counter() - start
            trained = sum(len(h) * result.examples[r]
                          for r, h in result.histories.items())
            runs[kind] = {"wall_s": wall, "examples_per_s": trained / wall,
                          "banks": {f"{lo}-{hi}": _run_summary(h, tcfg.patience,
                                                               result.wall_s[lo, hi])
                                    for (lo, hi), h in sorted(result.histories.items())
                                    if h}}
            outputs.extend(seq2seq.save_bank(result.bank, args.out))
            loss_rows += [[kind, f"{m_lo}-{m_hi}", h["epoch"], f"{h['train_loss']:.8f}",
                           "" if h["val_loss"] is None else f"{h['val_loss']:.8f}"]
                          for (m_lo, m_hi), history in sorted(result.histories.items())
                          for h in history]
            for (m_lo, m_hi), n in result.examples.items():
                if not n:
                    print(f"train: skipped {kind} bank m={m_lo}-{m_hi} "
                          "(no examples)", file=sys.stderr)
    finally:
        if pool is not None:
            pool.shutdown()
    loss_path = os.path.join(args.out, "loss_curves.csv")
    dataprep.write_csv(loss_path, ["kind", "bank", "epoch", "train_loss",
                                   "val_loss"], loss_rows)
    outputs.append(loss_path)
    _write_manifest(args.out, "train", cfg, outputs, held_out_week=held_out,
                    validation_week=validation_week, training=runs, stage_s=stage_s,
                    peak_rss_children_mb=getrusage(RUSAGE_CHILDREN).ru_maxrss / 1024)
    print(f"train: wrote {len(outputs) - 1} checkpoints -> {args.out}")
    return 0


def cmd_predict(args, cfg: dict) -> int:
    route = _route(cfg)
    m_range = seq2seq.bank_range(route.n_sections, args.m)
    dataset = dataprep.load_trips_csv(args.trips, route, for_trip=args.trip_id)
    # one query needs only the checkpoint of the bank that covers m
    bank = seq2seq.ModelBank(args.kind, route.n_sections, [seq2seq.load_bank_model(
        args.checkpoints, args.kind, m_range, route.n_sections)])
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
    print("section,predicted_travel_s,cumulative_s,arrival_s")
    for sec, z, c, a in zip(result.sections, result.travel_s,
                            result.cumulative_s, result.arrival_s):
        print(f"{sec},{z:.3f},{c:.3f},{a:.3f}")
    return 0


def cmd_evaluate(args, cfg: dict) -> int:
    route = _route(cfg)
    ecfg = cfg["evaluation"]
    i_values = [i for i in ecfg["i_values"] if i <= route.n_sections - 1]
    if not i_values:
        raise ValueError(f"{args.config or 'default config'}: evaluation.i_values: must "
                         f"hold a position < {route.n_sections}, got {list(ecfg['i_values'])}")
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
        j_step=ecfg["j_step"], alpha=ecfg["alpha"])
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
        if args.threads < 1:
            raise ValueError(f"--threads: must be >= 1, got {args.threads}")
        return args.func(args, load_config(args.config, args.seed))
    except (ValueError, OSError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
