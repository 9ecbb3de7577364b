"""Run one busarrival benchmark workload and print its result.

    python3 benchmarks/run.py --workload serve --seed 3 --seconds 12 --trace 0

Run from the root of a checkout: the program under test is imported from
``src/`` next to this directory, never from an installed copy. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full result
(environment, stage detail, output fingerprint, work counts) is also
written to ``--out`` for ``compare.py``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3
SETUP_PROBES = 25      # reference-kernel timings before each set-up


def pin_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    return {"git_sha": git_sha(ROOT), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed}


def parse_args(argv):
    from workloads import SCALES, WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring window; every workload runs its minimum "
                        "iterations even past it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="default")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "results",
                   help="directory that receives the full result JSON")
    return p.parse_args(argv)


def measure(wl, seconds: float, tracer, ledger):
    """Iterate until the next iteration would overrun ``seconds``.

    With a tracer, each round is one untraced then one traced iteration of
    the same index; the pair gives the tracing overhead.
    """
    from workloads import Sampler
    plain, traced, summaries = Sampler(), Sampler(), []
    start = perf_counter()
    while True:
        wl.iteration(plain.iterations, ledger, plain)
        plain.iterations += 1
        if tracer is not None:
            for model in wl.models():
                tracer.register_model(model)
            with tracer.installed():
                first = tracer.begin()
                wl.iteration(traced.iterations, ledger, traced)
            traced.iterations += 1
            summaries.append(tracer.summary(first))
        rounds = plain.iterations
        elapsed = perf_counter() - start
        if rounds >= wl.min_iterations and elapsed * (rounds + 1) / rounds > seconds:
            return plain, traced, summaries


def run(args) -> dict:
    import tracing
    import workloads

    workdir = ROOT / ".bench_out" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times, setup_ref = [], workloads.Sampler()
        for _ in range(SETUPS):
            for _ in range(SETUP_PROBES):
                setup_ref.probe()
            wl, seconds = workloads.timed(workloads.make, args.workload, args.scale,
                                          args.seed, workdir)
            setup_times.append(seconds)
        ledger = workloads.Ledger()
        tracer = tracing.Tracer() if args.trace else None
        sampler, traced, summaries = measure(wl, args.seconds, tracer, ledger)
        outcome = wl.finish(sampler, ledger)
        if tracer is not None:
            tracer.write_spans(args.out / f"{args.workload}-seed{args.seed}.spans.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "setup_s": workloads.metric(statistics.median(setup_times) * setup_ref.scale(),
                                    "s", "lower"),
        "peak_rss_mb": workloads.metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "lower"),
        "iteration_s": workloads.metric(sampler.seconds(), "s", "lower"),
        "items_per_s": workloads.metric(sampler.rate(*wl.headline), "1/s", "higher"),
    }
    work = {}
    if tracer is not None:
        overhead = traced.seconds() / sampler.seconds() - 1.0
        metrics = tracing.layer_metrics(summaries, overhead, traced.scale())
        work = tracing.work_counts(summaries[0])
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in end_to_end.items()}
    outcome["detail"].update({
        "reference_kernel_ms": workloads.metric(
            workloads.trimmed_mean(sampler.reference) * 1e3, "ms", "lower"),
        "raw_iteration_s": workloads.metric(sampler.raw_seconds(), "s", "lower"),
    })
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "seconds": args.seconds, "iterations": sampler.iterations,
        "setup_s_each": setup_times,
        "environment": environment(args.seed),
        "correct": ledger.failed == 0, "attempted": ledger.attempted,
        "failed": ledger.failed, "failed_ops_ratio": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "stage_s": {stage: sampler.seconds((stage,)) for stage in sampler.stages()},
        "samples_s": sampler.samples,
        "reference_s": sampler.reference,
        "work": work,
        **outcome,
    }


def main(argv=None) -> int:
    if not (SRC / "busarrival" / "__init__.py").is_file():
        print(f"error: no busarrival sources at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import busarrival
    if Path(busarrival.__file__).resolve().parent != SRC / "busarrival":
        print(f"error: busarrival imported from {busarrival.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    result = run(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (args.out / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for key in ("environment", "stage_s", "detail", "work", "fingerprint"):
        print(f"{key}: {json.dumps(result.get(key), sort_keys=True)}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
