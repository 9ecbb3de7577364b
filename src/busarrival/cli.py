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
import contextlib
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
        with open(path, encoding="utf-8") as f:
            try:
                user = json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: invalid JSON at line {e.lineno}, "
                                 f"column {e.colno}: {e.msg}") from e
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: not UTF-8 text at byte {e.start + 1}") from e
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
                             dataset, fallback=cfg["dataprep"]["fallback"])
    os.makedirs(args.out, exist_ok=True)
    ex_path = os.path.join(args.out, "examples.jsonl")
    skip_path = os.path.join(args.out, "skipped.csv")
    _timed(stage_s, "write_examples", dataprep.save_examples_jsonl, examples, ex_path)
    _timed(stage_s, "write_skips", dataprep.save_skip_report_csv, skips, skip_path)
    fallbacks, sections, banks = Counter(), Counter(), Counter()
    for ex in examples:
        fallbacks[ex.m] += int(np.count_nonzero(ex.fallback_mask))
        sections[ex.m] += ex.k
        banks[seq2seq.bank_range(route.n_sections, ex.m)] += 1
    _write_manifest(
        args.out, "prepare", cfg, [ex_path, skip_path],
        stage_s=stage_s,
        examples=len(examples),
        skips_by_reason=dict(Counter(s.reason for s in skips)),
        # per m, the share of decoder sections with no previous bus
        fallback_share_by_m={m: fallbacks[m] / n for m, n in sections.items()})
    print(f"prepare: {len(examples)} examples, {len(skips)} skipped")
    for m_lo, m_hi in seq2seq.bank_layout(route.n_sections):
        print(f"  bank m={m_lo}-{m_hi}: {banks[m_lo, m_hi]} examples")
    return 0


def _kinds(kind_flag: str) -> list[str]:
    return [seq2seq.KIND_EDU, seq2seq.KIND_EDB] if kind_flag == "both" else [kind_flag]


def _split(trips_path, dataset) -> tuple[list, list, int]:
    """Training and test trips, and the test week: the trips file's newest."""
    try:
        train, test = simulator.split_train_test(dataset.trips)
    except ValueError as e:
        raise ValueError(f"{trips_path}: {e}") from e
    return train, test, test[0].day_index // 7


def cmd_train(args, cfg: dict) -> int:
    route = _route(cfg)
    tcfg = _train_config(cfg)
    stage_s = {}
    dataset = _timed(stage_s, "load_trips", dataprep.load_trips_csv, args.trips, route)
    train_trips, _, held_out = _split(args.trips, dataset)
    train_ex, _ = _timed(stage_s, "build_examples", dataprep.build_examples, dataset,
                         days={t.day_index for t in train_trips},
                         fallback=cfg["dataprep"]["fallback"])
    if not train_ex:
        raise ValueError(f"{args.trips}: no training examples outside held-out week {held_out}")
    os.makedirs(args.out, exist_ok=True)
    # a run that fails partway leaves no manifest, which evaluate refuses
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(args.out, "manifest.json"))
    outputs, loss_rows, runs, walls = [], [], {}, {}
    # the executor starts all its workers at once, and a kind maps one job per bank
    workers = min(args.threads, len(seq2seq.bank_layout(route.n_sections)))
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else contextlib.nullcontext()) as pool:
        for kind in _kinds(args.kind):
            result = _timed(walls, kind, seq2seq.train_bank, kind, train_ex,
                            route.n_sections, tcfg, pool=pool)
            trained = sum(s["epochs"] * s["examples"] for s in result.summaries.values())
            runs[kind] = {"wall_s": walls[kind], "examples_per_s": trained / walls[kind],
                          "banks": {f"{lo}-{hi}": summary for (lo, hi), summary
                                    in sorted(result.summaries.items())}}
            # a bank without examples has no model: evaluate and predict refuse it
            outputs += seq2seq.save_bank(result.bank, args.out)
            loss_rows += [[kind, f"{m_lo}-{m_hi}", h["epoch"], f"{h['train_loss']:.8f}",
                           "" if h["val_loss"] is None else f"{h['val_loss']:.8f}"]
                          for (m_lo, m_hi), history in sorted(result.histories.items())
                          for h in history]
            for (lo, hi), summary in sorted(result.summaries.items()):
                if summary["validation_week"] is None:
                    print(f"train: {kind} bank m={lo}-{hi} has examples in one week only, so "
                          "nothing is validated and early stopping is off", file=sys.stderr)
            for lo, hi in sorted(result.histories.keys() - result.summaries.keys()):
                print(f"train: skipped {kind} bank m={lo}-{hi} (no examples)", file=sys.stderr)
    loss_path = os.path.join(args.out, "loss_curves.csv")
    dataprep.write_csv(loss_path, ["kind", "bank", "epoch", "train_loss",
                                   "val_loss"], loss_rows)
    outputs.append(loss_path)
    _write_manifest(args.out, "train", cfg, outputs, held_out_week=held_out,
                    training=runs, stage_s=stage_s,
                    peak_rss_children_mb=pool and getrusage(RUSAGE_CHILDREN).ru_maxrss / 1024)
    print(f"train: wrote {len(outputs) - 1} checkpoints -> {args.out}")
    return 0


def cmd_predict(args, cfg: dict) -> int:
    route = _route(cfg)
    # one query needs only the checkpoint of the bank that covers m
    bank = seq2seq.load_bank(args.checkpoints, args.kind, route.n_sections, [args.m])
    dataset = dataprep.load_trips_csv(args.trips, route, for_trip=args.trip_id)
    ex = dataprep.build_example(dataset, args.trip_id, args.m, args.tc,
                                cfg["dataprep"]["fallback"])
    if isinstance(ex, str):
        raise ValueError(f"could not assemble inputs for trip {args.trip_id} "
                         f"at m={args.m}: {ex}")
    if args.tc is not None:
        t_c = dataset.entry[dataset.row_of(args.trip_id), args.m]
        print(f"predict: overriding T_c {t_c:.1f}s -> {args.tc:.1f}s "
              "(previous-bus inputs re-resolved)", file=sys.stderr)
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
    stage_s = {}
    dataset = _timed(stage_s, "load_trips", dataprep.load_trips_csv, args.trips, route)
    train_trips, test_trips, test_week = _split(args.trips, dataset)
    manifest_path = os.path.join(args.checkpoints, "manifest.json")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        held_out, listed = manifest.get("held_out_week"), set(manifest.get("outputs", ()))
    except (OSError, ValueError, AttributeError, TypeError) as e:
        raise dataprep.DataError(
            f"{manifest_path}: cannot read the training manifest: {e}") from e
    if held_out != test_week:
        raise dataprep.DataError(
            f"{manifest_path}: training held out week {held_out}, not week "
            f"{test_week}, the week evaluate scores")
    examples, _ = _timed(
        stage_s, "build_examples", dataprep.build_examples,
        dataset, positions=i_values, days={t.day_index for t in test_trips},
        fallback=cfg["dataprep"]["fallback"])
    # only the banks that score a query, as in predict
    banks = _timed(stage_s, "load_checkpoints", lambda: [seq2seq.load_bank(
        args.checkpoints, kind, route.n_sections, i_values)
        for kind in _kinds(args.kind)])
    for mo in (mo for bank in banks for mo in bank.models):
        path = seq2seq.checkpoint_path(args.checkpoints, mo.kind, mo.m_lo, mo.m_hi)
        if os.path.basename(path) not in listed:
            raise dataprep.DataError(f"{path}: not among the outputs that {manifest_path} "
                                     "lists, so another training run wrote it")
    methods = {bank.kind: (lambda ex, b=bank: seq2seq.predict(b, ex).travel_s)
               for bank in banks}
    hist = evalkit.fit_hist_mean(train_trips)
    methods["persistence"] = evalkit.baseline_persistence
    methods["hist_mean"] = (lambda ex: evalkit.baseline_hist_mean(hist, ex))
    rows, queries = _timed(
        stage_s, "evaluate_grid", evalkit.evaluate_grid,
        methods, examples, route.n_sections, i_values=i_values,
        j_step=ecfg["j_step"], alpha=ecfg["alpha"])
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.csv")
    query_path = os.path.join(args.out, "queries.csv")
    _timed(stage_s, "write_reports", lambda: (
        evalkit.save_report_csv(rows, report_path),
        evalkit.save_query_log_csv(queries, query_path)))
    _write_manifest(args.out, "evaluate", cfg, [report_path, query_path],
                    test_week=test_week, stage_s=stage_s,
                    verdict=evalkit.verdict(rows))
    print(f"evaluate: {len(rows)} grid rows over {len(examples)} test queries "
          f"-> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="busarrival",
        description="Section-level bus travel time prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True, threads=None):
        p.add_argument("--config", default=None, help="JSON config file")
        if out:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed (overrides config)")
            p.add_argument("--out", required=True, help="output directory")
        if threads:
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                           help=threads)

    p = sub.add_parser("simulate", help="generate a synthetic trip dataset")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prepare", help="build training examples from trips")
    common(p)
    p.add_argument("--trips", required=True, help="trip CSV")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser(
        "train",
        help="train per-bank models",
        description="Trains one model per bank per kind. The newest week in the trips "
                    "file is held out entirely (it is the week evaluate scores); each bank "
                    "early-stops on the newest week of its own examples.")
    common(p, threads="max worker processes for per-bank training, one per bank at most")
    p.add_argument("--trips", required=True, help="trip CSV")
    p.add_argument("--kind", choices=["edu", "edb", "both"], default="both")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict remaining sections for a trip")
    common(p, out=False, threads="unused: predict runs in one process")
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
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads: must be >= 1, got {args.threads}")
        return args.func(args, load_config(args.config, getattr(args, "seed", None)))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
