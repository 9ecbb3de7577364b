"""Tests of the benchmark itself, run at the tiny scale (8 sections, 3 weeks).

    python3 -m pytest benchmarks/selftest.py -q

The file name keeps these tests out of the repository's default test
collection; name the file to run them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _path in (str(ROOT / "src"), str(BENCH_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from busarrival import dataprep, seq2seq  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, tmp_path, workload: str, trace: int = 0) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny", "--out", str(tmp_path)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(capsys, tmp_path, workload, trace):
    result = bench(capsys, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0
    written = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    called = {name: m["value"] for name, m in result["metrics"].items()
              if name.endswith(".calls") and m["value"] > 0}
    assert written["work"] == (called if trace else {})
    assert all(n > 0 for n in written["work"].values())


def test_benchmark_json_lists_the_tracer_metrics():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == \
        tracing.layer_metric_names()


def test_corrupted_prediction_fails_the_run(capsys, tmp_path, monkeypatch):
    original = seq2seq.predict

    def corrupted(bank, ex):
        r = original(bank, ex)
        return dataclasses.replace(r, cumulative_s=r.cumulative_s + 1.0)

    monkeypatch.setattr(seq2seq, "predict", corrupted)
    result = bench(capsys, tmp_path, "serve")
    assert not result["correct"] and result["failed"] > 0


def test_unrepeatable_prediction_fails_the_run(capsys, tmp_path, monkeypatch):
    original = seq2seq.predict
    calls = []

    def drifting(bank, ex):
        r = original(bank, ex)
        calls.append(1)
        travel = r.travel_s + 1e-9 * len(calls)
        return dataclasses.replace(r, travel_s=travel, cumulative_s=np.cumsum(travel))

    monkeypatch.setattr(seq2seq, "predict", drifting)
    result = bench(capsys, tmp_path, "serve")
    assert not result["correct"] and result["failed"] > 0
    written = json.loads((tmp_path / "serve-seed3-trace0.json").read_text())
    assert any("second pass" in f for f in written["failures"])


def test_lossy_examples_file_fails_the_run(capsys, tmp_path, monkeypatch):
    original = dataprep.load_examples_jsonl
    monkeypatch.setattr(dataprep, "load_examples_jsonl", lambda path: original(path)[:-1])
    result = bench(capsys, tmp_path, "prepare")
    assert not result["correct"] and result["failed"] > 0


def test_unrepeatable_training_fails_the_run(capsys, tmp_path, monkeypatch):
    original = seq2seq.train_bank
    calls = []

    def drifting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        for history in result.histories.values():
            for h in history:
                h["val_loss"] += 1e-12 * len(calls)
        return result

    monkeypatch.setattr(seq2seq, "train_bank", drifting)
    result = bench(capsys, tmp_path, "train_decoder_heavy")
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "prepare", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write_results(directory: Path, iteration_s: list[float]) -> None:
    directory.mkdir()
    for seed, value in enumerate(iteration_s):
        end_to_end = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                      for m in BENCH["end_to_end"]}
        end_to_end["iteration_s"]["value"] = value
        (directory / f"serve-seed{seed}-trace0.json").write_text(json.dumps({
            "workload": "serve", "seed": seed, "end_to_end": end_to_end,
            "detail": {}, "fingerprint": {"x": seed}}))


def test_compare_marks_a_regression_beyond_the_bound(tmp_path, capsys):
    _write_results(tmp_path / "parent", [1.00, 1.01, 0.99, 1.02, 1.00])
    _write_results(tmp_path / "same", [1.01, 1.00, 1.00, 0.99, 1.02])
    _write_results(tmp_path / "slow", [1.40, 1.41, 1.39, 1.42, 1.40])
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "same")]) == 0
    assert "WORSE" not in capsys.readouterr().out
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "slow")]) == 1
    out = capsys.readouterr().out
    assert "| serve | iteration_s | s |" in out and "WORSE" in out
    assert "serve fingerprint: identical on 5 common seeds" in out
