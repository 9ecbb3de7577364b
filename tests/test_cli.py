import hashlib
import json

import numpy as np
import pytest

from busarrival import cli
from busarrival.dataprep import (RouteSpec, example_key, load_examples_jsonl,
                                 load_trips_csv)


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

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": }')
        with pytest.raises(ValueError, match="line 1"):
            cli.load_config(str(path))

    def test_hash_stable_under_key_order(self):
        a = cli.config_hash({"a": 1, "b": 2})
        b = cli.config_hash({"b": 2, "a": 1})
        assert a == b


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

    def test_brute_force_equivalent(self, tmp_path, tiny_config, sim_dir):
        fast, slow = tmp_path / "fast", tmp_path / "slow"
        run(["prepare", "--config", tiny_config, "--trips",
             sim_dir / "trips.csv", "--out", fast])
        run(["prepare", "--config", tiny_config, "--trips",
             sim_dir / "trips.csv", "--out", slow, "--brute-force"])
        a = {example_key(e) for e in load_examples_jsonl(fast / "examples.jsonl")}
        b = {example_key(e) for e in load_examples_jsonl(slow / "examples.jsonl")}
        assert a == b

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
    def test_kind_flag_limits_checkpoints(self, tmp_path, tiny_config, prep_dir):
        out = tmp_path / "ckpt"
        assert run(["train", "--config", tiny_config, "--examples",
                    prep_dir / "examples.jsonl", "--out", out,
                    "--kind", "edb", "--threads", 1]) == 0
        names = sorted(p.name for p in out.glob("*.json")
                       if p.name != "manifest.json")
        assert names == ["edb_bank_03_07.json"]

    def test_checkpoints_deterministic(self, tmp_path, tiny_config, prep_dir):
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        for d in (d1, d2):
            run(["train", "--config", tiny_config, "--examples",
                 prep_dir / "examples.jsonl", "--out", d, "--kind", "edu",
                 "--threads", 1])
        assert digest(d1 / "edu_bank_03_07.json") == \
            digest(d2 / "edu_bank_03_07.json")

    def test_overfit_mode_converges(self, tmp_path, tiny_config, prep_dir):
        out = tmp_path / "ckpt"
        assert run(["train", "--config", tiny_config, "--examples",
                    prep_dir / "examples.jsonl", "--out", out,
                    "--kind", "edu", "--overfit", "--threads", 1]) == 0
        rows = (out / "loss_curves.csv").read_text().splitlines()[1:]
        final_loss = float(rows[-1].split(",")[3])
        assert final_loss < 1e-3

    def test_non_object_example_line_reports_path_and_line(
            self, tmp_path, tiny_config, prep_dir, capsys):
        lines = (prep_dir / "examples.jsonl").read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], "[1, 2]", *lines[1:]]) + "\n")
        code = run(["train", "--config", tiny_config, "--examples", bad,
                    "--out", tmp_path / "ckpt", "--kind", "edu",
                    "--threads", 1])
        assert code == 2
        assert f"{bad}:2: malformed example" in capsys.readouterr().err

    def test_loss_curves_format(self, tmp_path, tiny_config, prep_dir):
        out = tmp_path / "ckpt"
        run(["train", "--config", tiny_config, "--examples",
             prep_dir / "examples.jsonl", "--out", out, "--kind", "edu",
             "--threads", 1])
        lines = (out / "loss_curves.csv").read_text().splitlines()
        assert lines[0] == "kind,bank,epoch,train_loss,val_loss"
        assert lines[1].startswith("edu,3-7,0,")


@pytest.fixture
def ckpt_dir(tmp_path, tiny_config, prep_dir):
    out = tmp_path / "ckpt"
    run(["train", "--config", tiny_config, "--examples",
         prep_dir / "examples.jsonl", "--out", out, "--threads", 1])
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
        assert "unknown trip id" in capsys.readouterr().err

    def test_out_of_coverage_m_explains_banks(self, tiny_config, sim_dir,
                                              ckpt_dir, capsys):
        assert run(["predict", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--trip-id", 14000, "--m", 2]) == 2
        assert "m=2" in capsys.readouterr().err


    def predict(self, config, ckpt_dir, sim_dir, trip_id, m, *extra):
        return run(["predict", "--config", config, "--checkpoints", ckpt_dir,
                    "--trips", sim_dir / "trips.csv", "--trip-id", trip_id,
                    "--m", m, *extra])

    def test_tc_at_default_matches_plain_query(self, tiny_config, sim_dir,
                                               ckpt_dir, capsys):
        trip = load_trips_csv(sim_dir / "trips.csv", RouteSpec(8, 500.0)).by_id[14001]
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

    def test_malformed_checkpoint_reports_path(self, tiny_config, sim_dir,
                                               ckpt_dir, capsys):
        path = ckpt_dir / "edb_bank_03_07.json"
        doc = json.loads(path.read_text())
        del doc["weights"]["out.w"]
        path.write_text(json.dumps(doc))
        assert self.predict(tiny_config, ckpt_dir, sim_dir, 14001, 4) == 2
        assert str(path) in capsys.readouterr().err


class TestEvaluate:
    def test_report_audit_and_clamp(self, tmp_path, tiny_config, sim_dir,
                                    ckpt_dir):
        out = tmp_path / "rep"
        assert run(["evaluate", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--out", out, "--threads", 1]) == 0
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

    def test_idempotent(self, tmp_path, tiny_config, sim_dir, ckpt_dir):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            run(["evaluate", "--config", tiny_config, "--checkpoints",
                 ckpt_dir, "--trips", sim_dir / "trips.csv", "--out", d,
                 "--threads", 1])
        assert digest(d1 / "report.csv") == digest(d2 / "report.csv")
        assert digest(d1 / "queries.csv") == digest(d2 / "queries.csv")

    def test_missing_checkpoint_reported(self, tmp_path, tiny_config, sim_dir,
                                         ckpt_dir, capsys):
        (ckpt_dir / "edb_bank_03_07.json").unlink()
        assert run(["evaluate", "--config", tiny_config, "--checkpoints",
                    ckpt_dir, "--trips", sim_dir / "trips.csv",
                    "--out", tmp_path / "r"]) == 2
        assert "3-7" in capsys.readouterr().err
