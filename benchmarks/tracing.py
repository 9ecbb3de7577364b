"""Span tracing around the public functions of the busarrival modules.

The tracer wraps module attributes from outside the package, so nothing
under ``src/`` knows about it. Spans live in memory as
``[name, start, end, parent]`` rows and are written out when the run ends.
Each GRU span is attributed to a chain (``enc``, ``dec_fwd`` or
``dec_bwd``) by the identity of its ``params`` argument; models are
registered as they are created or loaded.
"""

from __future__ import annotations

import csv
import functools
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

from busarrival import cli, dataprep, evalkit, gru, numkit, seq2seq, simulator

CHAINS = ("enc", "dec_fwd", "dec_bwd")


# (span name, [(owner, attribute), ...]) for every traced boundary. A
# function imported by name into another module is patched there too,
# because the importing module calls its own reference.
TRACED = [
    ("simulator.simulate_dataset", [(simulator, "simulate_dataset")]),
    ("dataprep.build_examples", [(dataprep, "build_examples")]),
    ("dataprep.closest_prev_trip_at_section",
     [(dataprep, "closest_prev_trip_at_section")]),
    ("dataprep.closest_prev_week_trip", [(dataprep, "closest_prev_week_trip")]),
    ("dataprep.TrainingExample.validate", [(dataprep.TrainingExample, "validate")]),
    ("dataprep.load_trips_csv", [(dataprep, "load_trips_csv")]),
    ("dataprep.save_examples_jsonl", [(dataprep, "save_examples_jsonl")]),
    ("dataprep.load_examples_jsonl", [(dataprep, "load_examples_jsonl")]),
    ("gru.gru_forward", [(gru, "gru_forward"), (seq2seq, "gru_forward")]),
    ("gru.gru_backward", [(gru, "gru_backward"), (seq2seq, "gru_backward")]),
    ("numkit.sigmoid", [(numkit, "sigmoid"), (gru, "sigmoid")]),
    ("numkit.adam_step", [(numkit, "adam_step"), (seq2seq, "adam_step")]),
    ("seq2seq.train_model", [(seq2seq, "train_model")]),
    ("seq2seq.mean_loss", [(seq2seq, "mean_loss")]),
    ("seq2seq.predict", [(seq2seq, "predict")]),
    ("seq2seq.save_bank", [(seq2seq, "save_bank")]),
    ("seq2seq.load_bank", [(seq2seq, "load_bank")]),
    ("evalkit.evaluate_grid", [(evalkit, "evaluate_grid")]),
    ("evalkit.baseline_persistence", [(evalkit, "baseline_persistence")]),
    ("evalkit.baseline_hist_mean", [(evalkit, "baseline_hist_mean")]),
    ("evalkit.paired_z_test", [(evalkit, "paired_z_test")]),
    ("cli.main", [(cli, "main")]),
]


# Spans that have traced children get a self time; the rest report busy time.
WITH_CHILDREN = ("dataprep.build_examples", "seq2seq.train_model",
                 "seq2seq.mean_loss", "seq2seq.predict", "evalkit.evaluate_grid",
                 "cli.main", *(f"gru.gru_forward.{c}" for c in CHAINS))
BYTE_COUNTED = ("dataprep.save_examples_jsonl", "dataprep.load_examples_jsonl")
PER_CHAIN = ("gru.gru_forward", "gru.gru_backward")


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run emits, with its unit."""
    names = []
    for span, _ in TRACED:
        for full in ([f"{span}.{c}" for c in CHAINS] if span in PER_CHAIN else [span]):
            names.append((f"{full}.busy_s", "s"))
            if full in WITH_CHILDREN:
                names.append((f"{full}.self_s", "s"))
            names.append((f"{full}.calls", "count"))
            if full in BYTE_COUNTED:
                names.append((f"{full}.bytes", "bytes"))
    names.append(("trace.overhead_ratio", "ratio"))
    return names


class Tracer:
    """Records nested spans while installed; one tracer per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.byte_counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._chains: dict[int, str] = {}
        self._keep: list = []              # keeps registered params alive

    def register_model(self, model) -> None:
        for chain in CHAINS:
            params = getattr(model, chain)
            if params is not None:
                self._chains[id(params)] = chain
                self._keep.append(params)

    def _span(self, fn, name, chain_arg: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if chain_arg:
                label = f"{name}.{self._chains.get(id(args[0]), 'other')}"
            idx = len(self.spans)
            self.spans.append([label, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
                if name in BYTE_COUNTED:
                    path = args[1] if name.endswith("save_examples_jsonl") else args[0]
                    self.byte_counts[name] = (self.byte_counts.get(name, 0)
                                              + os.path.getsize(path))
        return wrapper

    def _registering(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            self.register_model(model)
            return model
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr in ((seq2seq, "new_model"), (seq2seq, "load_model_json")):
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._registering(getattr(owner, attr)))
            for name, targets in TRACED:
                original = getattr(*targets[0])
                wrapped = self._span(original, name, name in PER_CHAIN)
                for owner, attr in targets:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def begin(self) -> int:
        """Start a traced iteration; returns the index its spans start at."""
        self.byte_counts = {}
        return len(self.spans)

    def summary(self, first: int) -> dict[str, float]:
        """Busy time, self time, calls and bytes per span name, from span
        index ``first`` (see :meth:`begin`) on."""
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: dict[int, float] = {}
        for idx in range(first, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + (end - start)
        own: dict[str, float] = {}
        for idx in range(first, len(self.spans)):
            name, start, end, _ = self.spans[idx]
            own[name] = own.get(name, 0.0) + (end - start) - child.get(idx, 0.0)
        out = {}
        for name in busy:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
        out.update({f"{name}.bytes": n for name, n in self.byte_counts.items()})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["index", "name", "start_s", "end_s", "parent"])
            for idx, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([idx, name, f"{start:.9f}", f"{end:.9f}", parent])


def work_counts(summary: dict) -> dict[str, int]:
    """Calls per boundary in one traced iteration, for the boundaries called.

    Counted from the calls the program made, so they repeat exactly across
    runs of one commit and move when a change makes fewer or more calls.
    """
    return {name: n for name, n in sorted(summary.items()) if name.endswith(".calls")}


def layer_metrics(per_iteration: list[dict], overhead_ratio: float,
                  scale: float) -> dict:
    """Per-layer metrics, in the result-line shape, from per-iteration summaries.

    Times are medians over traced iterations, multiplied by ``scale`` (to
    the reference speed, as the end-to-end times); calls and bytes are those
    of the first traced iteration, so they repeat exactly across runs. A
    boundary the workload never calls reads zero calls and zero time.
    """
    out = {}
    for name, unit in layer_metric_names():
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name.endswith((".calls", ".bytes")):
            value = per_iteration[0].get(name, 0)
        else:
            value = statistics.median(s.get(name, 0.0) for s in per_iteration) * scale
        out[name] = {"value": value, "unit": unit}
    return out
