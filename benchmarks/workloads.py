"""The four benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one caller: each call into the
program starts after the previous one returned. Constructing a workload is
its set-up (inputs made from the seed); :meth:`iteration` makes one fixed
sequence of timed calls and checks what they returned; :meth:`finish` runs
the one-off checks and reports the workload's own figures. Only calls into
the program sit inside timed regions; the checks do not.

Every timed call belongs to a stage. A stage's time is the sum of its
call times per iteration, reported at a reference speed; see
:class:`Sampler` for why.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from busarrival import cli, dataprep, evalkit, seq2seq, simulator
from busarrival.dataprep import RouteSpec, TripDataset, example_key
from busarrival.numkit import spawn_rng

# Route size and service day are the paper's full-scale config. The default
# scale keeps 3 of its 8 weeks so that 92 runs (22 per workload and 4 more)
# fit in an hour; per-example work is unchanged because each (day, section)
# index holds the same 40 trips. "tiny" is for the benchmark's own tests.
SCALES = {
    "tiny": {"n_sections": 8, "trips_per_day": 10, "weeks": 3},
    "default": {"n_sections": 34, "trips_per_day": 40, "weeks": 3},
}
KINDS = (seq2seq.KIND_EDU, seq2seq.KIND_EDB)
# Fixed work per training call: early stopping never ends it sooner.
EPOCHS = 2
J_STEP = 5
ALPHA = 0.1


def sim_config(scale: str, seed: int) -> simulator.SimConfig:
    s = SCALES[scale]
    return simulator.SimConfig(route=RouteSpec(s["n_sections"], 800.0),
                               weeks=s["weeks"], trips_per_day=s["trips_per_day"],
                               seed=seed)


def train_config(seed: int) -> seq2seq.TrainConfig:
    """The CLI's default training settings with a fixed epoch count."""
    return seq2seq.TrainConfig(batch_size=32, lr=3e-3, max_epochs=EPOCHS,
                               patience=EPOCHS, seed=seed)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


def metric(value, unit: str, better: str) -> dict:
    return {"value": value, "unit": unit, "better": better}


class Ledger:
    """Operations attempted and failed; every failed check fails the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# The reference kernel runs once per this much time, between the program's
# calls; up to REFERENCE_BURST times in a row after a long call.
REFERENCE_EVERY_S = 0.02
REFERENCE_BURST = 8
# Its typical duration on a 2-vCPU Firecracker VM (Python 3.11, numpy 2.4);
# times are reported at this reference speed.
REFERENCE_NOMINAL_S = 0.0005
# Over runs of the same code the workloads' times moved by 0.6 to 1.2 times
# as much as the kernel's, in log terms; 7/8 is in the middle of that range.
SPEED_EXPONENT = 0.875
_REF_RNG = np.random.default_rng(12345)
_REF_W = _REF_RNG.uniform(-0.3, 0.3, (3, 32, 42))
_REF_U = _REF_RNG.uniform(-0.3, 0.3, (3, 32, 32))
_REF_X = _REF_RNG.uniform(-1.0, 1.0, (42, 32))


def reference_kernel() -> float:
    """Fixed work that belongs to the benchmark, not the program: GRU-like
    steps on one column and on a batch of 32, and a Python dict loop, the
    mix the program's calls are made of."""
    total = 0.0
    for x in (_REF_X[:, :1], _REF_X):
        h = np.zeros((32, x.shape[1]))
        for _ in range(4):
            z = 1.0 / (1.0 + np.exp(-(_REF_W[0] @ x + _REF_U[0] @ h)))
            r = 1.0 / (1.0 + np.exp(-(_REF_W[1] @ x + _REF_U[1] @ h)))
            h = z * h + (1.0 - z) * np.tanh(_REF_W[2] @ x + r * (_REF_U[2] @ h))
        total += float(h.sum())
    acc: dict[int, float] = {}
    for i in range(300):
        acc[i % 31] = acc.get(i % 31, 0.0) + i * 0.5
    return total + acc[0]


def trimmed_mean(xs) -> float:
    """Mean of the fastest nine tenths of the reference timings: drops the
    machine's stalls. Never applied to the program's own call times."""
    xs = sorted(xs)
    return statistics.fmean(xs[:max(1, math.ceil(0.9 * len(xs)))])


class Sampler:
    """Timed calls into the program, grouped by stage.

    On a 2-vCPU Firecracker VM the speed switches between two levels about 2x
    apart (another tenant contending for the core) within milliseconds, and
    the share of time at each drifts over tens of seconds, so raw times
    move by 8-35% between runs. Between the program's calls the sampler
    times a fixed reference kernel (:func:`reference_kernel`, with the
    garbage collector off and its caches warm), which slows down with the
    machine. A stage's time per iteration is the sum of all its call times
    divided by the iterations, scaled by (REFERENCE_NOMINAL_S / trimmed mean
    of the reference times) ** SPEED_EXPONENT: seconds at the reference
    speed. Every call counts in full, so garbage collection and slow paths
    the program causes stay in the figure.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}     # stage -> seconds per call
        self.items: dict[str, int] = {}               # stage -> items, all iterations
        self.iterations = 0
        self.reference: list[float] = []
        self._last_reference = -math.inf

    def probe(self) -> None:
        """Time one run of the reference kernel."""
        gc.disable()
        try:
            reference_kernel()          # warm the caches the last call cooled
            _, seconds = timed(reference_kernel)
        finally:
            gc.enable()
        self.reference.append(seconds)
        self._last_reference = perf_counter()

    def call(self, stage: str, fn, *args, **kwargs):
        since = perf_counter() - self._last_reference
        for _ in range(int(min(REFERENCE_BURST, since / REFERENCE_EVERY_S))):
            self.probe()
        out, seconds = timed(fn, *args, **kwargs)
        self.samples.setdefault(stage, []).append(seconds)
        return out

    def count(self, stage: str, items: int) -> None:
        self.items[stage] = self.items.get(stage, 0) + items

    def stages(self) -> list[str]:
        return list(self.samples)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return (REFERENCE_NOMINAL_S / trimmed_mean(self.reference)) ** SPEED_EXPONENT

    def raw_seconds(self, stages=None) -> float:
        """Measured seconds per iteration spent in ``stages`` (all if None)."""
        return sum(sum(xs) for stage, xs in self.samples.items()
                   if stages is None or stage in stages) / self.iterations

    def seconds(self, stages=None) -> float:
        """Seconds per iteration in ``stages`` at the reference speed."""
        return self.raw_seconds(stages) * self.scale()

    def rate(self, item_stage: str, stages=None) -> float:
        """Items of ``item_stage`` per second in ``stages``, reference speed."""
        return self.items[item_stage] / self.iterations / self.seconds(
            stages or (item_stage,))

    def raw(self, stage: str) -> list[float]:
        return self.samples[stage]


class Prepare:
    """simulate -> trips CSV round trip -> build_examples -> JSONL + skip CSV
    -> JSONL read back. Only the simulator and dataprep do work here.

    Examples are built, written and read one service day per call, so the
    calls are short; concatenated in day order they are exactly what one
    call over all days gives.
    """

    min_iterations = 1
    headline = ("build_examples", ("load_trips_csv", "build_examples", "save_examples"))

    def __init__(self, scale: str, seed: int, workdir: Path):
        self.cfg = sim_config(scale, seed)
        self.seed = seed
        self.workdir = workdir
        trips, _ = simulator.simulate_dataset(self.cfg)
        reference = workdir / "reference_trips.csv"
        dataprep.save_trips_csv(trips, reference)
        self.reference_digest = sha256(reference)
        self.jsonl_digest = None
        self.last = None

    def models(self):
        return []

    def iteration(self, index: int, ledger: Ledger, sampler: Sampler) -> None:
        trips_path = self.workdir / "trips.csv"
        trips, _ = sampler.call("simulate", simulator.simulate_dataset, self.cfg)
        sampler.count("simulate", len(trips))
        sampler.call("save_trips_csv", dataprep.save_trips_csv, trips, trips_path)
        dataset = sampler.call("load_trips_csv", dataprep.load_trips_csv,
                               trips_path, self.cfg.route)
        examples, skips, loaded, digest = [], [], [], hashlib.sha256()
        for day in dataset.days():
            ex, sk = sampler.call("build_examples", dataprep.build_examples,
                                  dataset, days=[day], fallback="previous_week")
            ex_path = self.workdir / f"examples_{day}.jsonl"
            sampler.call("save_examples", self._save, ex, sk, ex_path,
                         self.workdir / f"skipped_{day}.csv")
            loaded += sampler.call("load_examples", dataprep.load_examples_jsonl, ex_path)
            examples += ex
            skips += sk
            digest.update(ex_path.read_bytes())
        sampler.count("build_examples", len(examples))
        sampler.count("load_examples", len(loaded))
        ledger.ops(3 + 3 * len(dataset.days()))

        ledger.check(sha256(trips_path) == self.reference_digest,
                     f"iteration {index}: trips CSV differs from the set-up copy")
        self.jsonl_digest = self.jsonl_digest or digest.hexdigest()
        ledger.check(digest.hexdigest() == self.jsonl_digest,
                     f"iteration {index}: examples JSONL differs between iterations")
        n_positions = self.cfg.route.n_sections - 3
        ledger.check(len(examples) + len(skips) == len(trips) * n_positions,
                     f"iteration {index}: examples + skips != trips x positions")
        self.last = (dataset, examples, skips, loaded)

    @staticmethod
    def _save(examples, skips, ex_path, skip_path):
        dataprep.save_examples_jsonl(examples, ex_path)
        dataprep.save_skip_report_csv(skips, skip_path)

    def finish(self, sampler: Sampler, ledger: Ledger) -> dict:
        dataset, examples, skips, loaded = self.last
        ledger.check([example_key(e) for e in loaded] == [example_key(e) for e in examples],
                     "JSONL round trip does not give back identical examples")
        whole, _ = dataprep.build_examples(dataset)
        ledger.check([example_key(e) for e in whole] == [example_key(e) for e in examples],
                     "per-day build_examples differs from one call over all days")
        days = sorted({e.day_index for e in examples})
        day = days[int(spawn_rng(self.seed, 50).integers(len(days)))]
        fast, fast_skips = dataprep.build_examples(dataset, days=[day])
        slow, slow_skips = dataprep.build_examples(dataset, days=[day], brute_force=True)
        ledger.check({example_key(e) for e in fast} == {example_key(e) for e in slow}
                     and [vars(s) for s in fast_skips] == [vars(s) for s in slow_skips],
                     f"day {day}: indexed build_examples != brute force")
        return {
            "detail": {
                "simulate_trips_per_s": metric(sampler.rate("simulate"), "trips/s",
                                               "higher"),
                "prepare_examples_per_s": metric(sampler.rate(*self.headline),
                                                 "examples/s", "higher"),
                "examples_load_per_s": metric(sampler.rate("load_examples"),
                                              "examples/s", "higher"),
            },
            "fingerprint": {"trips": len(dataset), "examples": len(examples),
                            "skips": len(skips),
                            "examples_jsonl_sha256": self.jsonl_digest,
                            "trips_csv_sha256": self.reference_digest,
                            "brute_force_day": day},
        }


class Train:
    """train_bank for EDU, then EDB, on one bank's examples, fixed epochs.

    One call per position m of the bank: batches are drawn within one m
    anyway, so the minibatches are those of a whole-bank call, in short
    calls.
    """

    min_iterations = 2           # the second one checks bitwise repeatability

    def __init__(self, bank_index: int, scale: str, seed: int, workdir: Path):
        self.headline = ("train", tuple(f"train_{kind}" for kind in KINDS))
        cfg = sim_config(scale, seed)
        self.n_sections = cfg.route.n_sections
        self.tcfg = train_config(seed)
        self.bank = seq2seq.bank_layout(self.n_sections)[bank_index]
        trips, _ = simulator.simulate_dataset(cfg)
        m_lo, m_hi = self.bank
        examples, _ = dataprep.build_examples(
            TripDataset(trips, cfg.route), positions=range(m_lo, m_hi + 1))
        self.by_m = {m: [e for e in examples if e.m == m] for m in range(m_lo, m_hi + 1)}
        val_week = max(e.week for e in examples)
        self.n_train = {m: sum(e.week != val_week for e in exs)
                        for m, exs in self.by_m.items()}
        self.first_losses = None

    def models(self):
        return []

    def iteration(self, index: int, ledger: Ledger, sampler: Sampler) -> None:
        losses = {}
        for kind in KINDS:
            for m, exs in self.by_m.items():
                result = sampler.call(f"train_{kind}", seq2seq.train_bank, kind, exs,
                                      self.n_sections, self.tcfg, pool=None)
                items = self.n_train[m] * EPOCHS
                sampler.count(f"train_{kind}", items)
                sampler.count("train", items)
                ledger.ops(1)
                history = result.histories[self.bank]
                pairs = [[h["train_loss"], h["val_loss"]] for h in history]
                losses[f"{kind}_m{m}"] = pairs
                ledger.check(len(history) == EPOCHS
                             and all(math.isfinite(x) for pair in pairs for x in pair),
                             f"iteration {index} {kind} m={m}: missing or non-finite losses")
                ledger.check(pairs[0][0] > pairs[-1][0],
                             f"iteration {index} {kind} m={m}: epoch-0 loss does not "
                             "exceed last-epoch loss")
        self.first_losses = self.first_losses or losses
        ledger.check(losses == self.first_losses,
                     f"iteration {index}: losses differ from the first iteration")

    def finish(self, sampler: Sampler, ledger: Ledger) -> dict:
        return {
            "detail": {f"train_{kind}_examples_per_s": metric(
                sampler.rate(f"train_{kind}"), "examples/s", "higher") for kind in KINDS},
            "fingerprint": {"bank": list(self.bank),
                            "examples": sum(len(exs) for exs in self.by_m.values()),
                            "train_examples_per_epoch": sum(self.n_train.values()),
                            "losses": self.first_losses},
        }


class Serve:
    """Forward pass only: closed-loop predict, evaluate_grid, CLI predict.

    Banks are seeded, untrained models: inference cost does not depend on
    the weight values, and training here would only inflate set-up.
    Iteration k serves one whole test day, days taken in a seeded rotation.
    """

    min_iterations = 1
    headline = ("predict", None)

    def __init__(self, scale: str, seed: int, workdir: Path):
        cfg = sim_config(scale, seed)
        self.seed = seed
        self.n_sections = n = cfg.route.n_sections
        self.trips_path = workdir / "trips.csv"
        self.ckpt_dir = workdir / "checkpoints"
        self.ckpt_dir.mkdir(exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(
            '{"seed": %d, "route": {"n_sections": %d, "section_length_m": 800.0}}'
            % (seed, n))
        trips, _ = simulator.simulate_dataset(cfg)
        dataprep.save_trips_csv(trips, self.trips_path)
        # Queries come from the CSV, as in `busarrival evaluate`, so the CLI
        # calls see the very same inputs as the library calls.
        dataset = dataprep.load_trips_csv(self.trips_path, cfg.route)
        train_trips, test_trips = simulator.split_train_test(dataset.trips)
        self.i_values = [i for i in evalkit.DEFAULT_I_VALUES if i <= n - 1]
        examples, self.skips = dataprep.build_examples(dataset, positions=self.i_values)
        test_week = test_trips[0].day_index // 7
        train_ex = [e for e in examples if e.week != test_week]
        self.queries: dict[int, list] = {}
        for e in sorted(examples, key=lambda e: (e.day_index, e.m, e.trip_id)):
            if e.week == test_week:
                self.queries.setdefault(e.day_index, []).append(e)
        days = sorted(self.queries)
        shift = int(spawn_rng(seed, 60).integers(len(days)))
        self.days = days[shift:] + days[:shift]
        for tag, kind in enumerate(KINDS):
            models = []
            for idx, (m_lo, m_hi) in enumerate(seq2seq.bank_layout(n)):
                norm = dataprep.fit_normalizer(
                    [e for e in train_ex if m_lo <= e.m <= m_hi])
                models.append(seq2seq.new_model(kind, m_lo, m_hi, n,
                                                spawn_rng(seed, 30 + tag, idx),
                                                norm=norm))
            seq2seq.save_bank(seq2seq.ModelBank(kind, n, models), self.ckpt_dir)
        self.banks = {kind: seq2seq.load_bank(self.ckpt_dir, kind, n) for kind in KINDS}
        self.hist = evalkit.fit_hist_mean(train_trips)
        self.first_pass: dict[str, list] = {}

    def models(self):
        return [m for bank in self.banks.values() for m in bank.models]

    def pairs_per_method(self) -> int:
        """(i, j) grid pairs evaluate_grid reports per method: 21 at 34 sections."""
        return sum(len(evalkit.grid_j_values(i, self.n_sections, J_STEP))
                   for i in self.i_values)

    def _cli_predict(self, ex, kind: str, expected, ledger: Ledger,
                     sampler: Sampler) -> None:
        argv = ["predict", "--config", str(self.config_path),
                "--checkpoints", str(self.ckpt_dir), "--trips", str(self.trips_path),
                "--trip-id", str(ex.trip_id), "--m", str(ex.m), "--kind", kind,
                "--threads", "1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sampler.call("cli_predict", cli.main, argv)
        sampler.count("cli_predict", 1)
        lines = out.getvalue().splitlines()
        want = [f"{z:.3f}" for z in expected.travel_s]
        got = [line.split(",")[1] for line in lines[1:]]
        ledger.check(code == 0 and len(lines) == ex.k + 1 and got == want,
                     f"cli predict {kind} trip {ex.trip_id} m={ex.m}: exit {code}, "
                     f"{len(lines)} lines, expected {ex.k + 1} matching the library")

    def iteration(self, index: int, ledger: Ledger, sampler: Sampler) -> None:
        day = self.days[index % len(self.days)]
        queries = self.queries[day]
        results = {kind: [sampler.call("predict", seq2seq.predict, self.banks[kind], ex)
                          for ex in queries]
                   for kind in KINDS}
        sampler.count("predict", len(KINDS) * len(queries))
        ledger.ops(len(KINDS) * len(queries))
        for kind in KINDS:
            for ex, r in zip(queries, results[kind]):
                ledger.check(len(r.travel_s) == ex.k
                             and bool(np.all(np.isfinite(r.travel_s)))
                             and np.array_equal(r.cumulative_s, np.cumsum(r.travel_s)),
                             f"{kind} prediction for trip {ex.trip_id} at m={ex.m}: not "
                             "K finite values, or cumulative_s != cumsum(travel_s)")
        if index == 0:
            self.first_pass = results

        methods = {kind: (lambda ex, b=self.banks[kind]: seq2seq.predict(b, ex).travel_s)
                   for kind in KINDS}
        methods["persistence"] = evalkit.baseline_persistence
        methods["hist_mean"] = lambda ex: evalkit.baseline_hist_mean(self.hist, ex)
        rows = []
        for i in self.i_values:
            at_i = [e for e in queries if e.m == i]
            got, _ = sampler.call("evaluate", evalkit.evaluate_grid, methods, at_i,
                                  self.n_sections, i_values=[i], j_step=J_STEP,
                                  alpha=ALPHA)
            ledger.ops(1)
            sampler.count("evaluate", len(at_i))
            ledger.check(all(r.n == len(at_i) and math.isfinite(r.mae_s) for r in got),
                         f"day {day} i={i}: evaluate_grid rows not finite over "
                         f"{len(at_i)} queries")
            rows += got
        pairs = self.pairs_per_method()
        ledger.check(all(sum(r.method == name for r in rows) == pairs for name in methods),
                     f"day {day}: evaluate_grid did not give {pairs} (i, j) pairs "
                     "per method")

        slot = int(spawn_rng(self.seed, 70, index).integers(len(queries)))
        for kind in KINDS:
            self._cli_predict(queries[slot], kind, results[kind][slot], ledger, sampler)

    def finish(self, sampler: Sampler, ledger: Ledger) -> dict:
        day = self.days[0]
        for kind in KINDS:
            again = [seq2seq.predict(self.banks[kind], ex) for ex in self.queries[day]]
            ledger.check(all(np.array_equal(a.travel_s, b.travel_s)
                             for a, b in zip(again, self.first_pass[kind])),
                         f"day {day} {kind}: a second pass predicts different values")
        lat = np.array(sampler.raw("predict")) * (1e3 * sampler.scale())
        p50, p99 = np.percentile(lat, [50, 99])
        return {
            "detail": {
                "predict_ms_p50": metric(float(p50), "ms", "lower"),
                "predict_ms_p99": metric(float(p99), "ms", "lower"),
                "predict_samples": metric(int(lat.size), "count", "higher"),
                "evaluate_queries_per_s": metric(sampler.rate("evaluate"),
                                                 "queries/s", "higher"),
                "cli_predict_s_p50": metric(
                    statistics.median(sampler.raw("cli_predict")) * sampler.scale(),
                    "s", "lower"),
            },
            "fingerprint": {"first_day": day,
                            "prediction_sums": {
                                kind: float(sum(r.travel_s.sum() for r in results))
                                for kind, results in self.first_pass.items()},
                            "queries_per_day": {str(d): len(q)
                                                for d, q in self.queries.items()},
                            "skips": len(self.skips)},
        }


def make(name: str, scale: str, seed: int, workdir: Path):
    if name == "prepare":
        return Prepare(scale, seed, workdir)
    if name == "train_decoder_heavy":
        return Train(0, scale, seed, workdir)
    if name == "train_encoder_heavy":
        return Train(-1, scale, seed, workdir)
    if name == "serve":
        return Serve(scale, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("prepare", "train_decoder_heavy", "train_encoder_heavy", "serve")
