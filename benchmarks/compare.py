"""Compare two sets of benchmark results: a parent commit and a change.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --out DIR`` wrote, one per
(workload, seed). For every workload and metric the table gives each
side's median and quartiles over its runs. End-to-end metrics carry the
bound from BENCHMARK.json and are marked:

* WORSE       the change's median is worse than the parent's by more than
              the bound;
* unresolved  either side's spread (quartile distance / median) exceeds the
              bound, unless every change run beats every parent run; not
              applied to setup_s, which each run measures only three times;
* better      the change wins at least 9 of 10 seed-matched pairs and the
              medians differ by more than the parent's quartile distance;
* same        otherwise.

The workloads' own figures have no bound and are marked better, worse or
"~" by the same pair rule. Output fingerprints (from the untraced runs)
and work counts (from the traced runs, ``--trace 1``) are compared per
seed. The exit status is 1 when any bounded metric is WORSE
or unresolved, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, trace: int = 0) -> dict:
    """workload -> seed -> result of the untraced (or traced) runs."""
    out: dict = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        r = json.loads(path.read_text())
        out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound: float | None,
            spread_gated: bool = True) -> str:
    """``parent``/``change`` map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(list(parent.values()))
    cq1, cmed, cq3 = quartiles(list(change.values()))
    worse_by = sign * (pmed - cmed) / abs(pmed)
    if better == "higher":
        separated = min(change.values()) > max(parent.values())
    else:
        separated = max(change.values()) < min(parent.values())
    pairs = [s for s in parent if s in change]
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in pairs)
    gain = (bool(pairs) and wins >= 0.9 * len(pairs)
            and sign * (cmed - pmed) > (pq3 - pq1))
    if bound is not None:
        spread = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed))
        if worse_by > bound:
            return "WORSE"
        if spread_gated and spread > bound and not separated:
            return "unresolved"
        return "better" if gain else "same"
    lose = (bool(pairs) and len(pairs) - wins >= 0.9 * len(pairs)
            and sign * (pmed - cmed) > (pq3 - pq1))
    return "better" if gain else ("worse" if lose else "~")


def rows(parent: dict, change: dict, bench: dict):
    gated = {m["name"]: m for m in bench["end_to_end"]}
    for workload in sorted(set(parent) | set(change)):
        p, c = parent.get(workload, {}), change.get(workload, {})
        if not p or not c:
            yield workload, "(results)", "", "", "", "", "missing on one side"
            continue
        any_run = next(iter(p.values()))
        names = list(gated) + sorted(any_run.get("detail", {}))
        for name in names:
            if name in gated:
                get = lambda r: r["end_to_end"][name]["value"]
                unit, better, bound = (gated[name]["unit"], gated[name]["better"],
                                       gated[name]["bound"])
            else:
                get = lambda r: r["detail"][name]["value"]
                detail = any_run["detail"][name]
                unit, better = detail["unit"], detail["better"]
                bound = None
            pv = {s: get(r) for s, r in p.items()}
            cv = {s: get(r) for s, r in c.items()}
            pq1, pmed, pq3 = quartiles(list(pv.values()))
            cq1, cmed, cq3 = quartiles(list(cv.values()))
            yield (workload, name, unit,
                   f"{pmed:.4g} [{pq1:.4g}, {pq3:.4g}] n={len(pv)}",
                   f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] n={len(cv)}",
                   f"{100.0 * (cmed - pmed) / abs(pmed):+.1f}%",
                   verdict(pv, cv, better, bound, name != "setup_s")
                   + ("" if bound is None else f" (bound {bound:.0%})"))


def outputs(sides: dict):
    """``sides`` maps fingerprint and work to the (parent, change) results
    they are read from."""
    for key, (parent, change) in sides.items():
        for workload in sorted(set(parent) & set(change)):
            seeds = sorted(set(parent[workload]) & set(change[workload]))
            differ = [s for s in seeds
                      if parent[workload][s][key] != change[workload][s][key]]
            if not seeds:
                state = "not compared: no seed run on both sides"
            elif differ:
                state = f"DIFFER on seeds {differ} of {len(seeds)} common seeds"
            else:
                state = f"identical on {len(seeds)} common seeds"
            yield workload, key, state


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("error: no *-trace0.json results in one of the directories", file=sys.stderr)
        return 2
    table = list(rows(parent, change, bench))
    print("| workload | metric | unit | parent median [q1, q3] | change median [q1, q3] "
          "| change | verdict |")
    print("|---|---|---|---|---|---|---|")
    for row in table:
        print("| " + " | ".join(row) + " |")
    print()
    sides = {"fingerprint": (parent, change),
             "work": (load(args.parent, 1), load(args.change, 1))}
    for workload, key, state in outputs(sides):
        print(f"{workload} {key}: {state}")
    failing = [r for r in table if r[-1].startswith(("WORSE", "unresolved"))]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
