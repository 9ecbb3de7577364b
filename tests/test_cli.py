import argparse
import builtins
import concurrent.futures
import csv
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from busarrival import cli, dataprep, evalkit, seq2seq
from busarrival.dataprep import RouteSpec, load_examples_jsonl, load_trips_csv


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "route": {"n_sections": 8, "section_length_m": 500.0},
        "simulator": {"weeks": 3, "trips_per_day": 5, "events_per_day": 2.0,
                      "headway_mean_s": 900.0},
        "training": {"max_epochs": 2, "hidden_enc": 6, "hidden_dec_edu": 6,
                     "hidden_dec_edb": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


class TestConfig:
    def test_defaults(self):
        cfg = cli.load_config(None)
        assert cfg["route"]["n_sections"] == 34
        assert cfg["training"]["batch_size"] == 32
        assert cfg["seed"] == 0

    def test_file_overlays_defaults(self, tiny_config):
        cfg = cli.load_config(str(tiny_config))
        assert cfg["route"]["n_sections"] == 8
        assert cfg["simulator"]["noise_cv"] == 0.08  # untouched default

    def test_seed_flag_wins(self, tiny_config):
        cfg = cli.load_config(str(tiny_config), seed_override=99)
        assert cfg["seed"] == 99

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"training": {"learning_rate": 1}}')
        with pytest.raises(ValueError, match="learning_rate"):
            cli.load_config(str(path))

    def test_removed_use_bias_key_rejected(self, tmp_path, capsys):
        # models have no biases, so the key is gone, even set to false
        path = tmp_path / "old.json"
        path.write_text('{"training": {"use_bias": false}}')
        out = tmp_path / "ckpt"
        assert run(["train", "--config", path, "--trips",
                    tmp_path / "trips.csv", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unknown config key training.use_bias\n")
        assert not out.exists()

    def test_config_that_is_not_utf8_fails_by_name(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": 1, "route": {"n_sections": 8}}\n\xff\n')
        out = tmp_path / "sim"
        assert run(["simulate", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text at byte 41\n")
        assert not out.exists()

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": }')
        with pytest.raises(ValueError, match="line 1"):
            cli.load_config(str(path))

    def test_hash_stable_under_key_order(self):
        a = cli.config_hash({"a": 1, "b": 2})
        b = cli.config_hash({"b": 2, "a": 1})
        assert a == b

    def test_default_hash_pinned(self):
        # the defaults come from SimConfig/TrainConfig/evalkit; a changed
        # default changes every manifest's config_sha256
        assert cli.config_hash(cli.load_config(None)) == \
            "6fc605751bfd6bd9c35526a71ccd83a9c73a7824da307dc11eec725a93eadbb9"

    @pytest.mark.parametrize("doc, name", [
        ({"training": {"lr": True}}, "training.lr"),
        ({"simulator": {"weeks": 2.9}}, "simulator.weeks"),
        ({"route": 5}, "route"),
        ({"training": {"batch_size": -1}}, "training.batch_size"),
        ({"evaluation": {"alpha": 1.5}}, "evaluation.alpha"),
        ({"seed": "abc"}, "seed"),
        ([1, 2], "top level"),
        ({"training": {"batch_size": 0}}, "training.batch_size"),
        ({"training": {"lr": 0}}, "training.lr"),
        ({"evaluation": {"j_step": 0}}, "evaluation.j_step"),
        ({"dataprep": {"fallback": "Skip"}}, "dataprep.fallback"),
        ({"simulator": {"event_severity_range": [2.8, 1.6]}},
         "simulator.event_severity_range"),
    ])
    def test_bad_value_fails_by_name(self, tmp_path, capsys, doc, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sim"
        assert run(["simulate", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {name}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("doc, flags, message", [
        ({"seed": -1}, [], "{path}: seed: must be >= 0, got -1"),
        ({}, ["--seed", "-1"], "--seed: must be >= 0, got -1"),
        ({"simulator": {"trips_per_day": 30, "headway_mean_s": 2400.0}}, [],
         "{path}: simulator.first_dispatch_s + (trips_per_day - 1) * "
         "(headway_mean_s + headway_jitter_s): must be < 86400 (midnight), "
         "got 98160.0"),
        ({"route": {"n_sections": 8},
          "simulator": {"trips_per_day": 40, "headway_mean_s": 1650.0,
                        "headway_jitter_s": 0.0}}, [],
         "trip 39 (day 0) enters section 6 at 86490.1 s, past midnight: "
         "lower simulator.trips_per_day, simulator.headway_mean_s or "
         "simulator.first_dispatch_s"),
        ({"route": {"n_sections": 4},
          "simulator": {"weeks": 1, "trips_per_day": 1001,
                        "headway_mean_s": 60.0, "headway_jitter_s": 0.0}}, [],
         "{path}: simulator.trips_per_day: must be in [1, 1000], got 1001"),
        ({"route": {"n_sections": 10**22}}, [],
         "{path}: route.n_sections: must be in [4, 1000], got 10000000000000000000000"),
        ({"evaluation": {"i_values": [2, 5]}}, [],
         "{path}: evaluation.i_values: must be one or more distinct positions "
         ">= 3, got (2, 5)"),
        ({"evaluation": {"i_values": [5, 5]}}, [],
         "{path}: evaluation.i_values: must be one or more distinct positions "
         ">= 3, got (5, 5)"),
        ({"evaluation": {"i_values": []}}, [],
         "{path}: evaluation.i_values: must be one or more distinct positions "
         ">= 3, got ()"),
    ], ids=["seed-in-file", "seed-flag", "service-past-midnight",
            "trip-past-midnight", "trip-ids-collide", "route-too-long",
            "i-values-below-3", "i-values-repeated", "i-values-empty"])
    def test_out_of_range_fails_by_name(self, tmp_path, capsys, doc, flags,
                                        message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sim"
        assert run(["simulate", "--config", path, *flags, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key, low, bound", [
        ("simulate", "simulator.weeks", 1, dataprep.MAX_WEEKS),
        # at 10**6 the simulator built a million events a day and ran out of
        # memory; at 10**22 numpy's Poisson draw failed without naming the key
        ("simulate", "simulator.events_per_day", 0, dataprep.MAX_EVENTS_PER_DAY),
        ("train", "training.hidden_enc", 1, seq2seq.MAX_HIDDEN),
        ("train", "training.hidden_dec_edu", 1, seq2seq.MAX_HIDDEN),
        ("train", "training.hidden_dec_edb", 1, seq2seq.MAX_HIDDEN),
    ], ids=["simulate-simulator.weeks-520", "simulate-simulator.events_per_day-1000",
            "train-training.hidden_enc-512", "train-training.hidden_dec_edu-512",
            "train-training.hidden_dec_edb-512"])
    def test_huge_size_fails_by_name(self, tmp_path, command, key, low, bound):
        # the command runs in a child process under a 1 GB address-space
        # limit, so a size that allocates before its check fails this test
        # rather than the test run
        section, name = key.split(".")
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({section: {name: 10**22}}))
        inputs = ["--trips", tmp_path / "trips.csv"] if command == "train" else []
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "busarrival.cli", command, "--config", path,
             *inputs, "--out", tmp_path / "out"], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": src,
                             "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (2**30, 2**30)))
        assert (proc.returncode, proc.stderr) == (
            2, f"error: {path}: {key}: must be in [{low}, {bound}], got {10**22}\n")
        assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_row_counts_and_manifest(self, tmp_path, tiny_config):
        out = tmp_path / "sim"
        assert run(["simulate", "--config", tiny_config, "--out", out]) == 0
        lines = (out / "trips.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 6 * 5 * 8  # header + weeks*days*trips*sections
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 0
        assert len(manifest["config_sha256"]) == 64
        assert "events.csv" in manifest["outputs"]
        assert sorted(manifest["stage_s"]) == ["simulate", "write_events",
                                               "write_trips"]
        assert all(v >= 0 for v in manifest["stage_s"].values())

    def test_same_seed_identical_digests(self, tmp_path, tiny_config):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", tiny_config, "--out", d1])
        run(["simulate", "--config", tiny_config, "--out", d2])
        assert digest(d1 / "trips.csv") == digest(d2 / "trips.csv")
        assert digest(d1 / "events.csv") == digest(d2 / "events.csv")

    def test_seed_changes_output(self, tmp_path, tiny_config):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", tiny_config, "--out", d1])
        run(["simulate", "--config", tiny_config, "--seed", 5, "--out", d2])
        assert digest(d1 / "trips.csv") != digest(d2 / "trips.csv")


def assert_threads_rejected(capsys, argv, out, threads):
    capsys.readouterr()
    assert run([*argv, "--threads", threads, "--out", out]) == 2
    printed, err = capsys.readouterr()
    assert err == f"error: --threads: must be >= 1, got {threads}\n"
    assert printed == ""
    assert not out.exists()


def test_each_command_takes_the_flags_it_reads():
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    flags = {name: {flag for action in p._actions for flag in action.option_strings
                    if flag not in ("-h", "--help")}
             for name, p in commands.items()}
    state = {"--config", "--seed", "--out"}
    assert flags == {
        "simulate": state,
        "prepare": state | {"--trips"},
        "train": state | {"--threads", "--trips", "--kind"},
        # --threads, unread, stays while the benchmark's serve workload passes it
        "predict": {"--config", "--threads", "--checkpoints", "--trips",
                    "--trip-id", "--m", "--tc", "--kind"},
        "evaluate": state | {"--checkpoints", "--trips", "--kind"},
    }
    assert sum(map(len, flags.values())) == 27


@pytest.mark.parametrize("argv, unread", [
    (["simulate", "--out", "sim"], ["--threads", "1"]),
    (["prepare", "--trips", "trips.csv", "--out", "prep"], ["--threads", "1"]),
    (["prepare", "--trips", "trips.csv", "--out", "prep"], ["--brute-force"]),
    (["evaluate", "--checkpoints", "ckpt", "--trips", "trips.csv", "--out", "rep"],
     ["--threads", "1"]),
    (["predict", "--checkpoints", "ckpt", "--trips", "trips.csv", "--trip-id", "1",
      "--m", "3"], ["--seed", "1"]),
    (["train", "--trips", "trips.csv", "--out", "ckpt"],
     ["--examples", "examples.jsonl"]),
], ids=["simulate-threads", "prepare-threads", "prepare-brute-force",
        "evaluate-threads", "predict-seed", "train-examples"])
def test_flag_a_command_does_not_read_is_unrecognized(tmp_path, monkeypatch,
                                                      capsys, argv, unread):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + unread)
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {' '.join(unread)}\n")
    assert not list(tmp_path.iterdir())


@pytest.fixture
def sim_dir(tmp_path, tiny_config):
    out = tmp_path / "sim"
    run(["simulate", "--config", tiny_config, "--out", out])
    return out


class TestPrepare:
    def test_outputs_and_counts(self, tmp_path, tiny_config, sim_dir, capsys):
        out = tmp_path / "prep"
        assert run(["prepare", "--config", tiny_config,
                    "--trips", sim_dir / "trips.csv", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "bank m=3-7" in printed
        examples = load_examples_jsonl(out / "examples.jsonl")
        # first week has no previous-week trips: 2 of 3 weeks usable
        assert len(examples) == 2 * 6 * 5 * 5  # weeks*days*trips*positions
        skips = (out / "skipped.csv").read_text().splitlines()
        assert len(skips) == 1 + 1 * 6 * 5 * 5
        # the manifest reports counts and stage times (times not checked)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["stage_s"]) == {"load_trips", "build_examples",
                                            "write_examples", "write_skips"}
        assert manifest["examples"] == len(examples)
        assert manifest["skips_by_reason"] == {"no_previous_week_trip": 150}
        shares = manifest["fallback_share_by_m"]
        assert sorted(shares, key=int) == ["3", "4", "5", "6", "7"]
        for m, share in shares.items():
            masks = [ex.fallback_mask for ex in examples if ex.m == int(m)]
            assert share == np.concatenate(masks).mean()
        assert 0 < max(shares.values()) < 1

    def test_two_week_minimum_round_trips(self, tmp_path, capsys):
        cfg = tmp_path / "two_weeks.json"
        cfg.write_text(json.dumps({
            "route": {"n_sections": 8, "section_length_m": 500.0},
            "simulator": {"weeks": 2, "trips_per_day": 4}}))
        run(["simulate", "--config", cfg, "--out", tmp_path / "sim"])
        assert run(["prepare", "--config", cfg,
                    "--trips", tmp_path / "sim" / "trips.csv",
                    "--out", tmp_path / "prep"]) == 0
        examples = load_examples_jsonl(tmp_path / "prep" / "examples.jsonl")
        assert examples and all(ex.day_index >= 7 for ex in examples)
        skips = (tmp_path / "prep" / "skipped.csv").read_text().splitlines()[1:]
        assert all(int(row.split(",")[0]) < 7 for row in skips)

    def test_empty_trips_file_fails(self, tmp_path, tiny_config, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("trip_id,day,weekday,section,entry_time_s,travel_time_s\n")
        code = run(["prepare", "--config", tiny_config, "--trips", bad,
                    "--out", tmp_path / "x"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_row_reports_line(self, tmp_path, tiny_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("trip_id,day,weekday,section,entry_time_s,travel_time_s\n"
                       "1,0,0,1,oops,60\n")
        code = run(["prepare", "--config", tiny_config, "--trips", bad,
                    "--out", tmp_path / "x"])
        assert code == 2
        assert "row 2" in capsys.readouterr().err


@pytest.fixture
def prep_dir(tmp_path, tiny_config, sim_dir):
    out = tmp_path / "prep"
    run(["prepare", "--config", tiny_config, "--trips", sim_dir / "trips.csv",
         "--out", out])
    return out


class TestTrain:
    def test_kind_flag_limits_checkpoints(self, tmp_path, tiny_config, sim_dir):
        out = tmp_path / "ckpt"
        assert run(["train", "--config", tiny_config, "--trips",
                    sim_dir / "trips.csv", "--out", out,
                    "--kind", "edb", "--threads", 1]) == 0
        names = sorted(p.name for p in out.glob("*.json")
                       if p.name != "manifest.json")
        assert names == ["edb_bank_03_07.json"]

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, tmp_path, tiny_config, sim_dir,
                                        capsys, threads):
        assert_threads_rejected(
            capsys, ["train", "--config", tiny_config, "--trips",
                     sim_dir / "trips.csv"], tmp_path / "ckpt", threads)

    def test_checkpoints_deterministic(self, tmp_path, tiny_config, sim_dir):
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        for d in (d1, d2):
            run(["train", "--config", tiny_config, "--trips",
                 sim_dir / "trips.csv", "--out", d, "--kind", "edu",
                 "--threads", 1])
        assert digest(d1 / "edu_bank_03_07.json") == \
            digest(d2 / "edu_bank_03_07.json")

    def test_trips_train_as_the_examples_file_did(self, tmp_path, tiny_config):
        # the reference: prepare's examples file, read back, less the newest
        # week, trained bank by bank; four weeks leave week 2 to validate on
        cfg = json.loads(tiny_config.read_text())
        cfg["simulator"]["weeks"] = 4
        cfg["training"].update(max_epochs=4, patience=1)
        config = tmp_path / "four_weeks.json"
        config.write_text(json.dumps(cfg))
        sim, prep, out, ref = (tmp_path / d for d in ("sim", "prep", "ckpt", "ref"))
        run(["simulate", "--config", config, "--out", sim])
        run(["prepare", "--config", config, "--trips", sim / "trips.csv",
             "--out", prep])
        assert run(["train", "--config", config, "--trips", sim / "trips.csv",
                    "--out", out, "--threads", 1]) == 0
        examples = load_examples_jsonl(prep / "examples.jsonl")
        held_out = max(ex.week for ex in examples)
        train_ex = [ex for ex in examples if ex.week != held_out]
        tcfg = cli._train_config(cli.load_config(str(config)))
        ref.mkdir()
        rows = ["kind,bank,epoch,train_loss,val_loss"]
        for kind in ("edu", "edb"):
            result = seq2seq.train_bank(kind, train_ex, 8, tcfg)
            seq2seq.save_bank(result.bank, ref)
            rows += [f"{kind},{lo}-{hi},{h['epoch']},{h['train_loss']:.8f},"
                     + ("" if h["val_loss"] is None else f"{h['val_loss']:.8f}")
                     for (lo, hi), history in sorted(result.histories.items())
                     for h in history]
        assert not any(row.endswith(",") for row in rows)  # each epoch validated
        (ref / "loss_curves.csv").write_text("\n".join(rows) + "\n")
        names = sorted(p.name for p in ref.iterdir())
        assert names == ["edb_bank_03_07.json", "edu_bank_03_07.json",
                         "loss_curves.csv"]
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_two_weeks_leave_no_training_examples(self, tmp_path, capsys):
        # week 1 is held out, and week 0 has no previous week to build from
        cfg = tmp_path / "two_weeks.json"
        cfg.write_text(json.dumps({
            "route": {"n_sections": 8, "section_length_m": 500.0},
            "simulator": {"weeks": 2, "trips_per_day": 6}}))
        sim, out = tmp_path / "sim", tmp_path / "ckpt"
        run(["simulate", "--config", cfg, "--out", sim])
        capsys.readouterr()
        assert run(["train", "--config", cfg, "--trips", sim / "trips.csv",
                    "--out", out, "--kind", "edu", "--threads", 1]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {sim / 'trips.csv'}: no training examples outside "
            "held-out week 1\n"))
        assert not out.exists()

    def test_bank_without_examples_is_skipped(self, tmp_path, tiny_config,
                                              capsys):
        # 13 sections make banks 3-7 and 8-12; with buses 90 s apart and no
        # fallback to the previous week, only the last positions find a
        # previous bus in every section ahead, so bank 3-7 has no examples
        cfg = json.loads(tiny_config.read_text())
        cfg["route"]["n_sections"] = 13
        cfg["simulator"].update(headway_mean_s=90.0, headway_jitter_s=0.0,
                                events_per_day=0.0)
        cfg["dataprep"] = {"fallback": "skip"}
        config = tmp_path / "thirteen.json"
        config.write_text(json.dumps(cfg))
        sim, out = tmp_path / "sim", tmp_path / "ckpt"
        run(["simulate", "--config", config, "--out", sim])
        capsys.readouterr()
        assert run(["train", "--config", config, "--trips", sim / "trips.csv",
                    "--out", out, "--kind", "edu", "--threads", 1]) == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "train: skipped edu bank m=3-7 (no examples)")
        # the skipped bank has no checkpoint and no run summary
        assert not (out / "edu_bank_03_07.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["training"]["edu"]["banks"]) == ["8-12"]
        # evaluate refuses to score the skipped bank, and scores the other
        for i_values, code in (([5, 10], 2), ([10], 0)):
            cfg["evaluation"] = {"i_values": i_values}
            config.write_text(json.dumps(cfg))
            assert run(["evaluate", "--config", config, "--checkpoints", out,
                        "--trips", sim / "trips.csv", "--out", tmp_path / "rep",
                        "--kind", "edu"]) == code
            err = capsys.readouterr().err
            assert err == ("" if code == 0 else "error: missing checkpoint for edu "
                           f"bank 3-7: {out / 'edu_bank_03_07.json'}\n")

    def test_examples_for_another_route_rejected(self, tmp_path, tiny_config,
                                                 sim_dir, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["route"]["n_sections"] = 12
        other = tmp_path / "twelve.json"
        other.write_text(json.dumps(cfg))
        out = tmp_path / "ckpt"
        assert run(["train", "--config", other, "--trips",
                    sim_dir / "trips.csv", "--out", out, "--kind", "edu",
                    "--threads", 1]) == 2
        err = capsys.readouterr().err
        assert "do not cover 1..12" in err
        assert not out.exists()

    def test_manifest_records_held_out_and_validation_weeks(
            self, tiny_config, ckpt_dir):
        manifest = json.loads((ckpt_dir / "manifest.json").read_text())
        # examples cover weeks 1 and 2 (week 0 has no previous week); with
        # week 2 held out, week 1 alone is left, so no bank validates
        assert manifest["held_out_week"] == 2
        assert "validation_week" not in manifest
        for kind in ("edu", "edb"):
            assert manifest["training"][kind]["banks"]["3-7"]["validation_week"] is None

    def test_single_training_week_is_reported(self, tmp_path, tiny_config,
                                               sim_dir, capsys):
        assert run(["train", "--config", tiny_config, "--trips",
                    sim_dir / "trips.csv", "--out", tmp_path / "ckpt",
                    "--kind", "edu", "--threads", 1]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if "early stopping is off" in line] \
            == ["train: edu bank m=3-7 has examples in one week only, so nothing "
                "is validated and early stopping is off"]

    def test_each_bank_records_its_own_validation_week(self, tmp_path, tiny_config,
                                                        capsys):
        # buses 90 s apart and no fallback to the previous week: week 3 is
        # held out, and of weeks 1 and 2 bank 3-7's examples fall in week 1
        # alone, so that bank validates on nothing while bank 8-12 does
        cfg = json.loads(tiny_config.read_text())
        cfg["seed"] = 3
        cfg["route"]["n_sections"] = 13
        cfg["simulator"].update(weeks=4, headway_mean_s=90.0, headway_jitter_s=30.0)
        cfg["dataprep"] = {"fallback": "skip"}
        cfg["training"].update(max_epochs=3, patience=1)
        config = tmp_path / "thirteen.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "ckpt"
        run(["simulate", "--config", config, "--out", tmp_path / "sim"])
        capsys.readouterr()
        assert run(["train", "--config", config, "--trips",
                    tmp_path / "sim" / "trips.csv", "--out", out,
                    "--kind", "edu", "--threads", 1]) == 0
        assert capsys.readouterr().err == (
            "train: edu bank m=3-7 has examples in one week only, so nothing "
            "is validated and early stopping is off\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert "validation_week" not in manifest
        assert {bank: summary["validation_week"] for bank, summary
                in manifest["training"]["edu"]["banks"].items()} == \
            {"3-7": None, "8-12": 2}

    def test_manifest_reports_each_run(self, tmp_path, tiny_config):
        # four weeks: week 3 is held out and week 2 validates, so early
        # stopping is on
        cfg = json.loads(tiny_config.read_text())
        cfg["simulator"]["weeks"] = 4
        cfg["training"].update(max_epochs=30, patience=1)
        config = tmp_path / "four_weeks.json"
        config.write_text(json.dumps(cfg))
        run(["simulate", "--config", config, "--out", tmp_path / "sim"])
        run(["prepare", "--config", config, "--trips", tmp_path / "sim" / "trips.csv",
             "--out", tmp_path / "prep"])
        out = tmp_path / "ckpt"
        assert run(["train", "--config", config, "--trips",
                    tmp_path / "sim" / "trips.csv", "--out", out,
                    "--threads", 1]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["held_out_week"] == 3
        lines = (out / "loss_curves.csv").read_text().splitlines()
        assert lines[0] == "kind,bank,epoch,train_loss,val_loss"
        examples = load_examples_jsonl(tmp_path / "prep" / "examples.jsonl")
        n_train = sum(ex.week < 2 for ex in examples)
        assert set(manifest["training"]) == {"edu", "edb"}
        for kind, summary in manifest["training"].items():
            val = [float(row.split(",")[4]) for row in lines[1:]
                   if row.startswith(f"{kind},3-7,")]
            assert list(summary["banks"]) == ["3-7"]
            bank = summary["banks"]["3-7"]
            assert bank["validation_week"] == 2
            assert bank["epochs"] == len(val) == len(bank["grad_norm"])
            assert bank["best_epoch"] == int(np.argmin(val))
            stopped_early = len(val) < 30 or len(val) - 1 - bank["best_epoch"] >= 1
            assert bank["stopped"] == ("patience" if stopped_early else "max_epochs")
            assert all(g > 0 for g in bank["grad_norm"])
            assert all(b["wall_s"] > 0 for b in summary["banks"].values())
            assert summary["wall_s"] > 0
            assert summary["examples_per_s"] * summary["wall_s"] == \
                pytest.approx(len(val) * n_train)
        # this seed stops one kind early and runs the other to the end
        assert {summary["banks"]["3-7"]["stopped"] for summary
                in manifest["training"].values()} == {"patience", "max_epochs"}

    def test_manifest_records_each_banks_examples(self, tmp_path, tiny_config):
        # 13 sections make banks 3-7 and 8-12; with buses 200 s apart and no
        # fallback to the previous week, fewer early positions find a previous
        # bus in every section ahead, so the first bank has fewer examples
        cfg = json.loads(tiny_config.read_text())
        cfg["route"]["n_sections"] = 13
        cfg["simulator"].update(headway_mean_s=200.0, headway_jitter_s=0.0,
                                events_per_day=0.0)
        cfg["dataprep"] = {"fallback": "skip"}
        cfg["training"]["max_epochs"] = 1
        config = tmp_path / "thirteen.json"
        config.write_text(json.dumps(cfg))
        sim, prep, out = tmp_path / "sim", tmp_path / "prep", tmp_path / "ckpt"
        run(["simulate", "--config", config, "--out", sim])
        run(["prepare", "--config", config, "--trips", sim / "trips.csv",
             "--out", prep])
        assert run(["train", "--config", config, "--trips", sim / "trips.csv",
                    "--out", out, "--threads", 1]) == 0
        examples = load_examples_jsonl(prep / "examples.jsonl")
        held_out = max(ex.week for ex in examples)
        want = {f"{lo}-{hi}": sum(lo <= ex.m <= hi and ex.week != held_out
                                  for ex in examples)
                for lo, hi in ((3, 7), (8, 12))}
        assert 0 < want["3-7"] < want["8-12"]
        training = json.loads((out / "manifest.json").read_text())["training"]
        for kind in ("edu", "edb"):
            assert {bank: summary["examples"] for bank, summary
                    in training[kind]["banks"].items()} == want

    def test_manifest_reports_load_time_and_memory(self, ckpt_dir):
        manifest = json.loads((ckpt_dir / "manifest.json").read_text())
        assert list(manifest["stage_s"]) == ["build_examples", "load_trips"]
        assert all(v > 0 for v in manifest["stage_s"].values())
        assert manifest["peak_rss_mb"] > 0
        # one bank: no worker pool, so no child's memory to report
        assert manifest["peak_rss_children_mb"] is None

    def test_manifest_reports_the_pool_workers_memory(self, tmp_path, tiny_config):
        # 13 sections make two banks, so --threads 2 runs two worker processes
        # and --threads 1 none
        config, sim = route_of(tmp_path, tiny_config, 13)
        for threads in (2, 1):
            out = tmp_path / f"ckpt{threads}"
            assert run(["train", "--config", config, "--trips", sim / "trips.csv",
                        "--out", out, "--kind", "edu", "--threads", threads]) == 0
            peak = json.loads((out / "manifest.json").read_text())["peak_rss_children_mb"]
            assert peak > 0 if threads == 2 else peak is None

    @pytest.mark.parametrize("sections, threads, workers", [
        (8, 4, None), (13, 1, None), (13, 64, 2), (18, 2, 2)])
    def test_pool_starts_at_most_one_worker_per_bank(
            self, tmp_path, tiny_config, monkeypatch, sections, threads, workers):
        # the executor starts all its workers at its first job; a stand-in
        # records the count and runs the jobs here, starting no process
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        config, sim = route_of(tmp_path, tiny_config, sections)
        out = tmp_path / "ckpt"
        assert run(["train", "--config", config, "--trips", sim / "trips.csv",
                    "--out", out, "--threads", threads]) == 0
        assert started == ([] if workers is None else [workers])
        banks = json.loads((out / "manifest.json").read_text())["training"]["edb"]["banks"]
        assert len(banks) == len(seq2seq.bank_layout(sections))

    def test_manifest_reports_runs_without_validation(self, ckpt_dir):
        bank = json.loads((ckpt_dir / "manifest.json").read_text())[
            "training"]["edb"]["banks"]["3-7"]
        assert (bank["epochs"], bank["stopped"], bank["best_epoch"]) == \
            (2, "max_epochs", None)

    def test_loss_curves_format(self, tmp_path, tiny_config, sim_dir):
        out = tmp_path / "ckpt"
        run(["train", "--config", tiny_config, "--trips",
             sim_dir / "trips.csv", "--out", out, "--kind", "edu",
             "--threads", 1])
        lines = (out / "loss_curves.csv").read_text().splitlines()
        assert lines[0] == "kind,bank,epoch,train_loss,val_loss"
        assert lines[1].startswith("edu,3-7,0,")


def route_of(tmp_path, tiny_config, sections):
    """The tiny config on a route of ``sections`` sections, trained for one
    epoch, and the directory of its simulation."""
    cfg = json.loads(tiny_config.read_text())
    cfg["route"]["n_sections"] = sections
    cfg["training"]["max_epochs"] = 1
    config, sim = tmp_path / f"sections_{sections}.json", tmp_path / "sim"
    config.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", config, "--out", sim]) == 0
    return config, sim


@pytest.fixture
def ckpt_dir(tmp_path, tiny_config, sim_dir):
    out = tmp_path / "ckpt"
    run(["train", "--config", tiny_config, "--trips",
         sim_dir / "trips.csv", "--out", out, "--threads", 1])
    return out


class TestPredict:
    def test_boundary_row_count(self, tiny_config, sim_dir, ckpt_dir, capsys):
        # trip 14000 = first trip of day 14 (test week); m = N_s - 1 = 7
        assert run(["predict", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--trip-id", 14000, "--m", 7]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "section,predicted_travel_s,cumulative_s,arrival_s"
        assert len(lines) == 2
        assert lines[1].startswith("8,")

    def test_predictions_positive(self, tiny_config, sim_dir, ckpt_dir, capsys):
        run(["predict", "--config", tiny_config, "--checkpoints", ckpt_dir,
             "--trips", sim_dir / "trips.csv", "--trip-id", 14001, "--m", 4])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 4
        values = np.array([[float(x) for x in l.split(",")] for l in lines])
        assert np.all(values[:, 1] > 0)
        np.testing.assert_allclose(np.cumsum(values[:, 1]), values[:, 2],
                                   atol=1e-3)

    def test_unknown_trip_rejected(self, tiny_config, sim_dir, ckpt_dir,
                                   capsys):
        assert run(["predict", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--trip-id", 999999, "--m", 4]) == 2
        assert capsys.readouterr().err == (
            f"error: {sim_dir / 'trips.csv'}: no trip 999999\n")

    def test_out_of_coverage_m_explains_banks(self, tiny_config, sim_dir,
                                              ckpt_dir, capsys):
        assert run(["predict", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--trip-id", 14000, "--m", 2]) == 2
        assert "m=2" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, tiny_config, sim_dir, ckpt_dir,
                                        capsys, threads):
        capsys.readouterr()
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4,
                            "--threads", threads) == 2
        assert capsys.readouterr() == (
            "", f"error: --threads: must be >= 1, got {threads}\n")

    def test_threads_are_accepted_and_unused(self, tiny_config, sim_dir,
                                             ckpt_dir, capsys):
        outputs = []
        for extra in ([], ["--threads", 1]):
            capsys.readouterr()
            assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4,
                                *extra) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def predict(self, config, ckpt_dir, sim_dir, trip_id, m, *extra):
        return run(["predict", "--config", config, "--checkpoints", ckpt_dir,
                    "--trips", sim_dir / "trips.csv", "--trip-id", trip_id,
                    "--m", m, *extra])

    @pytest.mark.parametrize("tc", ["nan", "inf", "-1", "86400"])
    def test_query_time_outside_the_day_rejected(self, tiny_config, sim_dir,
                                                  ckpt_dir, capsys, tc):
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4,
                            "--tc", tc) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: query time T_c must be finite and lie in [0, 86400), "
            f"got {float(tc)}"]

    def test_tc_at_default_matches_plain_query(self, tiny_config, sim_dir,
                                               ckpt_dir, capsys):
        ds = load_trips_csv(sim_dir / "trips.csv", RouteSpec(8, 500.0))
        trip = ds.trips[ds.row_of(14001)]
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4) == 0
        plain = capsys.readouterr().out
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4,
                            "--tc", repr(trip.entry(5))) == 0
        assert capsys.readouterr().out == plain

    def test_early_tc_follows_fallback_policy(self, tmp_path, tiny_config,
                                              sim_dir, ckpt_dir, capsys):
        # at 100 s after midnight no bus has entered any section yet
        skip_config = tmp_path / "skip.json"
        cfg = json.loads(tiny_config.read_text())
        cfg["dataprep"] = {"fallback": "skip"}
        skip_config.write_text(json.dumps(cfg))
        assert self.predict(skip_config, ckpt_dir, sim_dir, 14001, 4,
                            "--tc", 100) == 2
        assert "no_previous_bus" in capsys.readouterr().err
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4,
                            "--tc", 100) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 4

    @pytest.mark.parametrize("kind", ["edu", "edb"])
    def test_output_matches_whole_file_load(self, tiny_config, sim_dir,
                                            ckpt_dir, capsys, kind):
        # predict keeps only the query trip's day and the day a week before;
        # its output must be what the example built from every trip gives
        full = load_trips_csv(sim_dir / "trips.csv", RouteSpec(8, 500.0))
        bank = seq2seq.load_bank(ckpt_dir, kind, 8)
        for trip_id, m in ((14001, 4), (7003, 3), (14004, 6)):
            trip = full.trips[full.row_of(trip_id)]
            for tc in (None, trip.entry(m + 1) - 200.0):
                ex = dataprep.build_example(full, trip_id, m, tc, "previous_week")
                r = seq2seq.predict(bank, ex)
                expect = "section,predicted_travel_s,cumulative_s,arrival_s\n"
                expect += "".join(
                    f"{sec},{z:.3f},{c:.3f},{a:.3f}\n" for sec, z, c, a in
                    zip(r.sections, r.travel_s, r.cumulative_s, r.arrival_s))
                extra = ["--kind", kind] + ([] if tc is None else ["--tc", repr(tc)])
                assert self.predict(tiny_config, ckpt_dir, sim_dir, trip_id, m,
                                    *extra) == 0
                assert capsys.readouterr().out == expect

    def test_rows_of_other_days_are_not_read(self, tmp_path, tiny_config,
                                             sim_dir, ckpt_dir, capsys):
        lines = (sim_dir / "trips.csv").read_text().splitlines(keepends=True)
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4) == 0
        plain = capsys.readouterr().out
        # a malformed row on day 1 is not read; one on day 7 is
        broken = tmp_path / "broken"
        broken.mkdir()
        for day, code in ((1, 0), (7, 2)):
            row = next(i for i, line in enumerate(lines)
                       if line.split(",")[1] == str(day))
            fields = lines[row].split(",")
            fields[4] = "not-a-time"
            (broken / "trips.csv").write_text(
                "".join(lines[:row] + [",".join(fields)] + lines[row + 1:]))
            assert self.predict(tiny_config, ckpt_dir, broken, 14001, 4) == code
            out, err = capsys.readouterr()
            assert (out == plain) if code == 0 else f"malformed row {row + 1}" in err

    @pytest.mark.parametrize("prefix", ["0", "+", " "])
    def test_trip_id_is_read_as_an_integer(self, tmp_path, tiny_config, sim_dir,
                                           ckpt_dir, capsys, prefix):
        # trip 14001's rows write its id as "014001", "+14001" or " 14001"
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4) == 0
        plain = capsys.readouterr().out
        padded = tmp_path / "padded"
        padded.mkdir()
        text = (sim_dir / "trips.csv").read_text()
        assert text.count("\n14001,") == 8
        (padded / "trips.csv").write_text(text.replace("\n14001,", f"\n{prefix}14001,"))
        assert self.predict(tiny_config, ckpt_dir, padded, 14001, 4) == 0
        assert capsys.readouterr().out == plain

    def test_trips_file_is_opened_once(self, tiny_config, sim_dir, ckpt_dir,
                                      monkeypatch):
        trips, opened, real_open = str(sim_dir / "trips.csv"), [], builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == trips:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4) == 0
        assert len(opened) == 1

    def test_malformed_checkpoint_reports_path(self, tiny_config, sim_dir,
                                               ckpt_dir, capsys):
        path = ckpt_dir / "edb_bank_03_07.json"
        doc = json.loads(path.read_text())
        del doc["theta"]
        path.write_text(json.dumps(doc))
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4) == 2
        assert str(path) in capsys.readouterr().err

    def test_missing_covering_checkpoint_names_bank(self, tiny_config, sim_dir,
                                                    ckpt_dir, capsys):
        (ckpt_dir / "edb_bank_03_07.json").unlink()
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4) == 2
        assert "missing checkpoint for edb bank 3-7" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("m_lo", 4, "malformed checkpoint"),
        ("n_sections", 9, "holds the edb model of bank 3-7 on 9 sections, not "
                          "the edb model of bank 3-7 on 8"),
    ], ids=["m_lo", "n_sections"])
    def test_checkpoint_must_hold_the_bank_its_name_says(
            self, tiny_config, sim_dir, ckpt_dir, capsys, field, value, message):
        path = ckpt_dir / "edb_bank_03_07.json"
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["edu", "edb"])
    def test_reads_only_the_covering_checkpoint(self, tmp_path, capsys, kind):
        # 13 sections make two banks, 3-7 and 8-12, of seeded untrained models
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "route": {"n_sections": 13, "section_length_m": 500.0},
            "simulator": {"weeks": 2, "trips_per_day": 4}}))
        sim, ckpt = tmp_path / "sim", tmp_path / "ckpt"
        assert run(["simulate", "--config", config, "--out", sim]) == 0
        capsys.readouterr()
        ckpt.mkdir()
        norm = dataprep.NormStats(130.0, 40.0, 0.0, 86400.0)
        seq2seq.save_bank(seq2seq.ModelBank(kind, 13, [
            seq2seq.new_model(kind, lo, hi, 13, np.random.default_rng(lo),
                              hidden_enc=4, hidden_dec=3, norm=norm)
            for lo, hi in seq2seq.bank_layout(13)]), ckpt)
        for m, other in ((4, "08_12"), (9, "03_07")):
            assert self.predict(config, ckpt, sim, 7001, m, "--kind", kind) == 0
            plain = capsys.readouterr().out
            assert len(plain.splitlines()) == 1 + 13 - m
            saved = (ckpt / f"{kind}_bank_{other}.json").read_bytes()
            (ckpt / f"{kind}_bank_{other}.json").unlink()
            assert self.predict(config, ckpt, sim, 7001, m, "--kind", kind) == 0
            assert capsys.readouterr().out == plain
            (ckpt / f"{kind}_bank_{other}.json").write_bytes(saved)
        # the other bank's checkpoint under this bank's name
        shutil.copy(ckpt / f"{kind}_bank_08_12.json", ckpt / f"{kind}_bank_03_07.json")
        assert self.predict(config, ckpt, sim, 7001, 4, "--kind", kind) == 2
        assert (f"{kind}_bank_03_07.json: holds the {kind} model of bank 8-12"
                in capsys.readouterr().err)


def test_every_manifest_reports_peak_rss(tmp_path, tiny_config, sim_dir,
                                         prep_dir, ckpt_dir):
    out = tmp_path / "rep"
    assert run(["evaluate", "--config", tiny_config, "--checkpoints", ckpt_dir,
                "--trips", sim_dir / "trips.csv", "--out", out, "--kind", "edu"]) == 0
    for directory in (sim_dir, prep_dir, ckpt_dir, out):
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["peak_rss_mb"] > 0


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_one_week_trips_file_is_named(tmp_path, capsys, command):
    cfg = tmp_path / "one_week.json"
    cfg.write_text(json.dumps({
        "route": {"n_sections": 8, "section_length_m": 500.0},
        "simulator": {"weeks": 1, "trips_per_day": 4}}))
    sim, out = tmp_path / "sim", tmp_path / "out"
    run(["simulate", "--config", cfg, "--out", sim])
    capsys.readouterr()
    inputs = ["--checkpoints", tmp_path / "ckpt"] if command == "evaluate" else []
    assert run([command, "--config", cfg, "--trips", sim / "trips.csv", *inputs,
                "--out", out]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {sim / 'trips.csv'}: need at least 2 weeks of data to split\n"))
    assert not out.exists()


@pytest.mark.parametrize("command", ["prepare", "train", "evaluate"])
def test_trip_outside_the_service_day_is_named(tmp_path, tiny_config, sim_dir,
                                               capsys, command):
    # trip 8000's rows moved 30,000 s earlier, so it starts before midnight
    lines = (sim_dir / "trips.csv").read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("8000,"))
    for i, line in enumerate(lines):
        if line.startswith("8000,"):
            fields = line.split(",")
            fields[4] = f"{float(fields[4]) - 30000.0:.6f}"
            lines[i] = ",".join(fields)
    trips, out = tmp_path / "trips.csv", tmp_path / "out"
    trips.write_text("".join(lines))
    capsys.readouterr()
    inputs = ["--checkpoints", tmp_path / "ckpt"] if command == "evaluate" else []
    assert run([command, "--config", tiny_config, "--trips", trips, *inputs,
                "--out", out]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {trips}:{first + 1}: trip 8000: entry time outside [0, 86400)\n"))
    assert not out.exists()


def test_trips_file_that_is_not_utf8_is_named(tmp_path, tiny_config, sim_dir, capsys):
    lines = (sim_dir / "trips.csv").read_bytes().splitlines(keepends=True)
    lines[9] = lines[9].replace(b".", b"\xff", 1)
    trips = tmp_path / "trips.csv"
    trips.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run(["prepare", "--config", tiny_config, "--trips", trips,
                "--out", tmp_path / "prep"]) == 2
    assert capsys.readouterr() == ("", f"error: {trips}:10: not UTF-8 text\n")


class TestEvaluate:
    def test_report_audit_and_clamp(self, tmp_path, tiny_config, sim_dir,
                                    ckpt_dir):
        out = tmp_path / "rep"
        assert run(["evaluate", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--out", out]) == 0
        report = (out / "report.csv").read_text().splitlines()
        queries = (out / "queries.csv").read_text().splitlines()
        assert report[0] == "i,j,method,n,mae_s,mape_pct,sig_vs_edu,sig_vs_edb"
        # grid for i=5 on an 8-section route clamps j to the route end
        assert all(row.split(",")[1] == "8" for row in report[1:])
        # recompute one row from the per-query log
        row = report[1].split(",")
        i, j, method, n = int(row[0]), int(row[1]), row[2], int(row[3])
        qs = [q.split(",") for q in queries[1:]]
        qs = [q for q in qs if (int(q[0]), int(q[1]), q[2]) == (i, j, method)]
        assert len(qs) == n
        errs = [abs(float(q[5]) - float(q[6])) for q in qs]
        assert abs(float(row[4]) - sum(errs) / len(errs)) < 1e-5

    def test_i_values_past_the_route_fail_by_name(self, tmp_path, capsys,
                                                   tiny_config, ckpt_dir):
        # positions past the route's last one are dropped; none left is an error
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({**json.loads(tiny_config.read_text()),
                                   "evaluation": {"i_values": [8, 12]}}))
        out = tmp_path / "rep"
        capsys.readouterr()
        # the check comes before any work: the trips file is never opened
        assert run(["evaluate", "--config", cfg, "--checkpoints", ckpt_dir,
                    "--trips", tmp_path / "no_trips.csv", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: evaluation.i_values: must hold a position < 8, "
            "got [8, 12]\n")
        assert not out.exists()

    def test_manifest_records_test_week(self, tmp_path, tiny_config, sim_dir,
                                        ckpt_dir):
        out = tmp_path / "rep"
        assert run(["evaluate", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--out", out, "--kind", "edu"]) == 0
        assert json.loads((out / "manifest.json").read_text())["test_week"] == 2

    @pytest.mark.parametrize("field", ["mape_below", "better", "worse"])
    def test_manifest_records_the_verdict(self, tmp_path, tiny_config, sim_dir,
                                          ckpt_dir, field):
        out = tmp_path / "rep"
        assert run(["evaluate", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv", "--out", out]) == 0
        # recomputed from the report: per method, each other model kind's counts
        with open(out / "report.csv") as f:
            report = list(csv.DictReader(f))
        mape = {(r["i"], r["j"], r["method"]): float(r["mape_pct"]) for r in report}
        want = {}
        for r in report:
            for ref in {"edu", "edb"} - {r["method"]}:
                hit = (float(r["mape_pct"]) < mape[r["i"], r["j"], ref]
                       if field == "mape_below" else r[f"sig_vs_{ref}"] == field)
                counts = want.setdefault(r["method"], {})
                counts[f"vs_{ref}"] = counts.get(f"vs_{ref}", 0) + hit
        verdict = json.loads((out / "manifest.json").read_text())["verdict"]
        assert set(verdict) == {"edu", "edb", "persistence", "hist_mean"}
        assert {method: {ref: c[field] for ref, c in refs.items()}
                for method, refs in verdict.items()} == want

    @pytest.mark.parametrize("stage, module, name", [
        ("load_trips", dataprep, "load_trips_csv"),
        ("build_examples", dataprep, "build_examples"),
        ("load_checkpoints", seq2seq, "load_model_json"),
        ("evaluate_grid", evalkit, "evaluate_grid"),
        ("write_reports", evalkit, "save_query_log_csv"),
    ])
    def test_manifest_times_each_stage(self, tmp_path, tiny_config, sim_dir,
                                       ckpt_dir, monkeypatch, stage, module, name):
        # the work a stage times, slowed down, shows in that stage's time
        delay, work = 0.25, getattr(module, name)

        def slowed(*args, **kwargs):
            time.sleep(delay)
            return work(*args, **kwargs)

        monkeypatch.setattr(module, name, slowed)
        out = tmp_path / "rep"
        assert run(["evaluate", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--out", out, "--kind", "edu"]) == 0
        stage_s = json.loads((out / "manifest.json").read_text())["stage_s"]
        assert list(stage_s) == sorted(["load_trips", "build_examples",
                                        "load_checkpoints", "evaluate_grid",
                                        "write_reports"])
        assert stage_s[stage] >= delay
        assert all(v >= 0 for v in stage_s.values())

    def test_refuses_checkpoints_trained_on_the_test_week(self, tmp_path,
                                                           tiny_config, ckpt_dir,
                                                           capsys):
        # the checkpoints held out week 2 of three and trained on weeks 0
        # and 1; the newest week of a two-week trips file is week 1
        cfg = json.loads(tiny_config.read_text())
        cfg["simulator"]["weeks"] = 2
        two_weeks = tmp_path / "two_weeks.json"
        two_weeks.write_text(json.dumps(cfg))
        sim = tmp_path / "sim2"
        run(["simulate", "--config", two_weeks, "--out", sim])
        capsys.readouterr()
        assert run(["evaluate", "--config", tiny_config, "--checkpoints", ckpt_dir,
                    "--trips", sim / "trips.csv", "--out", tmp_path / "rep",
                    "--kind", "edu"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt_dir / "manifest.json") in err and "week 1" in err
        assert not (tmp_path / "rep").exists()

    def test_refuses_checkpoints_its_manifest_does_not_list(self, tmp_path,
                                                            tiny_config, capsys):
        # a second, EDU-only run into the same directory leaves the first
        # run's EDB checkpoints behind, and its manifest does not list them
        cfg = json.loads(tiny_config.read_text())
        cfg["seed"] = 1
        cfg["route"]["n_sections"] = 13
        cfg["simulator"]["trips_per_day"] = 8
        cfg["training"]["max_epochs"] = 1
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(cfg))
        cfg["training"]["max_epochs"] = 2
        second.write_text(json.dumps(cfg))
        trips, ck, rep = tmp_path / "sim" / "trips.csv", tmp_path / "ck", tmp_path / "rep"
        run(["simulate", "--config", first, "--out", tmp_path / "sim"])
        assert run(["train", "--config", first, "--trips", trips, "--out", ck,
                    "--threads", 1]) == 0
        assert run(["train", "--config", second, "--trips", trips, "--out", ck,
                    "--kind", "edu", "--threads", 1]) == 0
        assert (ck / "edb_bank_03_07.json").exists()
        capsys.readouterr()
        assert run(["evaluate", "--config", second, "--checkpoints", ck,
                    "--trips", trips, "--out", rep]) == 2
        assert capsys.readouterr().err == (
            f"error: {ck / 'edb_bank_03_07.json'}: not among the outputs that "
            f"{ck / 'manifest.json'} lists, so another training run wrote it\n")
        assert not rep.exists()
        # the checkpoints that run wrote are scored
        assert run(["evaluate", "--config", second, "--checkpoints", ck,
                    "--trips", trips, "--out", rep, "--kind", "edu"]) == 0

    def test_refuses_checkpoints_of_a_run_that_failed(self, tmp_path, tiny_config,
                                                       sim_dir, ckpt_dir, monkeypatch,
                                                       capsys):
        # a second run, with another seed, rewrites the EDU checkpoints and
        # then fails on EDB, beside the first run's EDB checkpoints
        real_train_bank = seq2seq.train_bank

        def failing_edb(kind, *args, **kwargs):
            if kind == seq2seq.KIND_EDB:
                raise seq2seq.NonFiniteLossError("edb: non-finite loss")
            return real_train_bank(kind, *args, **kwargs)

        monkeypatch.setattr(seq2seq, "train_bank", failing_edb)
        edu = (ckpt_dir / "edu_bank_03_07.json").read_bytes()
        assert run(["train", "--config", tiny_config, "--trips", sim_dir / "trips.csv",
                    "--out", ckpt_dir, "--seed", 7, "--threads", 1]) == 2
        assert (ckpt_dir / "edu_bank_03_07.json").read_bytes() != edu
        assert (ckpt_dir / "edb_bank_03_07.json").exists()
        capsys.readouterr()
        out = tmp_path / "rep"
        assert run(["evaluate", "--config", tiny_config, "--checkpoints", ckpt_dir,
                    "--trips", sim_dir / "trips.csv", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {ckpt_dir / 'manifest.json'}: cannot read the training manifest: ")
        assert not out.exists()

    def test_idempotent(self, tmp_path, tiny_config, sim_dir, ckpt_dir):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            run(["evaluate", "--config", tiny_config, "--checkpoints",
                 ckpt_dir, "--trips", sim_dir / "trips.csv", "--out", d])
        assert digest(d1 / "report.csv") == digest(d2 / "report.csv")
        assert digest(d1 / "queries.csv") == digest(d2 / "queries.csv")

    def test_checkpoints_without_a_manifest_rejected(self, tmp_path, tiny_config,
                                                     sim_dir, ckpt_dir, capsys):
        manifest = ckpt_dir / "manifest.json"
        manifest.unlink()
        out = tmp_path / "rep"
        capsys.readouterr()
        assert run(["evaluate", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: cannot read the training manifest: ")
        assert not out.exists()

    def test_missing_checkpoint_reported(self, tmp_path, tiny_config, sim_dir,
                                         ckpt_dir, capsys):
        (ckpt_dir / "edb_bank_03_07.json").unlink()
        assert run(["evaluate", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--out", tmp_path / "r"]) == 2
        assert "3-7" in capsys.readouterr().err
