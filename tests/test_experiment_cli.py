"""Batch experiment driver and the command-line front end."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

import evocover as ec
from evocover import experiment as expmod
from evocover.cli import main


@pytest.fixture
def instance_file(tmp_path, triangle):
    p = tmp_path / "triangle.wvc"
    ec.save_instance(triangle, str(p))
    return str(p)


def small_config(**kw):
    base = dict(algorithm="gsemo", trials=8, seed_base=100, budget=3000,
                target_ratio=Fraction(2), check_bounds=True)
    base.update(kw)
    return expmod.ExperimentConfig(**base)


def test_experiment_records_and_summary(triangle):
    result = expmod.run_experiment(triangle, small_config())
    assert len(result.records) == 8
    assert [r.seed for r in result.records] == list(range(100, 108))
    assert all(r.opt == 2 for r in result.records)
    for r in result.records:
        if r.ratio is not None:
            assert r.ratio >= 1.0
        if not r.censored:
            assert r.ratio is not None and r.ratio <= 2.0
    s = result.summary
    assert s["trials"] == 8
    assert s["opt"] == 2
    assert s["bound_violations"] == 0
    # quantiles recompute from the rows with the same rule
    hits = sorted(r.iters_to_target for r in result.records if r.iters_to_target is not None)
    q = s["hitting_quantiles"]["iters_to_target"]
    assert q["count"] == len(hits)
    assert q["q50"] == expmod.nearest_rank(hits, 0.50)
    assert q["q90"] == expmod.nearest_rank(hits, 0.90)
    rate = s["success_rate"]
    assert rate == (8 - s["censored"]) / 8


def test_experiment_csv_round_trip(triangle, tmp_path):
    result = expmod.run_experiment(triangle, small_config())
    text = expmod.records_to_csv(result.records)
    assert expmod.records_from_csv(text) == result.records
    p = tmp_path / "rows.csv"
    expmod.write_records_csv(result.records, str(p))
    assert ec.read_records_csv(str(p)) == result.records
    assert text.count("\n") == 1 + len(result.records)


def test_experiment_parallel_invariance(triangle):
    seq = expmod.run_experiment(triangle, small_config(workers=1))
    par = expmod.run_experiment(triangle, small_config(workers=2))
    assert seq.records == par.records
    assert expmod.records_to_csv(seq.records) == expmod.records_to_csv(par.records)
    assert expmod.summary_json(seq.summary) == expmod.summary_json(par.summary)


def test_experiment_single_trial_matches_run_trial(triangle):
    cfg = small_config(trials=1, seed_base=5)
    result = expmod.run_experiment(triangle, cfg)
    term = ec.Termination(budget=cfg.budget, target_ratio=cfg.target_ratio, opt=2)
    record, _ = expmod.run_trial(triangle, "gsemo", 5, term, check_bounds=True)
    assert result.records == [record]


def test_experiment_config_validation(triangle):
    with pytest.raises(expmod.ConfigError):
        expmod.run_experiment(triangle, small_config(trials=0))
    with pytest.raises(expmod.ConfigError):
        expmod.run_experiment(triangle, small_config(algorithm="tabu"))
    with pytest.raises(expmod.ConfigError):
        expmod.run_experiment(
            triangle, expmod.ExperimentConfig(algorithm="gsemo", trials=2))


def test_experiment_flushes_partial_results_on_interrupt(triangle, monkeypatch):
    real = expmod.run_trial
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        if calls["n"] >= 3:
            raise KeyboardInterrupt
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(expmod, "run_trial", flaky)
    result = expmod.run_experiment(triangle, small_config(trials=10))
    assert len(result.records) == 3
    assert result.summary["interrupted"] is True
    assert result.summary["trials"] == 3


def test_expected_time_reference_values():
    ref = expmod.expected_time_reference("gsemo", 8, 4, 5, None)
    assert ref["value"] == pytest.approx(5 * 8 * (2 + 3))
    ref = expmod.expected_time_reference("demo", 8, 4, None, None)
    assert ref["value"] == pytest.approx(8 ** 3 * 25)
    ref = expmod.expected_time_reference("dpbea", 8, 1, 4, Fraction(1, 2))
    assert ref["value"] == pytest.approx(8 * 2.0 ** 4 + 512)
    assert expmod.expected_time_reference("gsemo-alt", 8, 1, 4, None) is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_generate_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.wvc"
    out2 = tmp_path / "b.wvc"
    argv = ["generate", "--kind", "star", "--k", "3", "--wmax", "1", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    g = ec.load_instance(str(out1))
    assert g.n == 4 and g.m == 3


def test_cli_generate_bad_wmax(tmp_path):
    rc = main(["generate", "--kind", "star", "--k", "3", "--wmax", "0",
               "--out", str(tmp_path / "x.wvc")])
    assert rc == 2


def test_cli_generate_missing_param():
    assert main(["generate", "--kind", "gnp", "--n", "5"]) == 2


def test_cli_lp_default_and_selection(instance_file, capsys):
    assert main(["lp", "--instance", instance_file]) == 0
    out = capsys.readouterr().out
    assert "lp = 1.5" in out
    assert out.count("= 1/2") == 3

    assert main(["lp", "--instance", instance_file, "--selection", "111"]) == 0
    out = capsys.readouterr().out
    assert "lp = 0" in out


def test_cli_lp_single_edge(tmp_path, capsys, single_edge_15):
    p = tmp_path / "e.wvc"
    ec.save_instance(single_edge_15, str(p))
    assert main(["lp", "--instance", str(p), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value2"] == 2 and doc["lp"] == "1"


def test_cli_exact(instance_file, capsys):
    assert main(["exact", "--instance", instance_file]) == 0
    out = capsys.readouterr().out
    assert "opt = 2" in out


def test_cli_run_json_byte_identical(instance_file, capsys):
    argv = ["run", "--algo", "demo", "--instance", instance_file,
            "--budget", "500", "--target-ratio", "2", "--seed", "3",
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["opt"] == 2 and doc["censored"] is False


def test_cli_run_budget_zero_censored(tmp_path, capsys):
    # deterministic: on a path, seed 1's initial genotype is not yet a cover
    g = ec.path(6, seed=3)
    p = tmp_path / "p.wvc"
    ec.save_instance(g, str(p))
    for seed in range(10):
        rc = main(["run", "--algo", "gsemo", "--instance", str(p),
                   "--budget", "0", "--target-cover", "--seed", str(seed),
                   "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        if doc["censored"]:
            assert rc == 1
            assert doc["iterations"] == 0
            return
    pytest.fail("no censored seed found at budget 0")


def test_cli_run_text_output(instance_file, capsys):
    rc = main(["run", "--algo", "gsemo", "--instance", instance_file,
               "--budget", "2000", "--epsilon", "1", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "target met" in out


def test_cli_run_series_recorded(instance_file, capsys):
    rc = main(["run", "--algo", "gsemo", "--instance", instance_file,
               "--budget", "5", "--seed", "1", "--series", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["series"]) == doc["iterations"] + 1


def test_cli_experiment(instance_file, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["experiment", "--algo", "gsemo", "--instance", instance_file,
               "--trials", "5", "--budget", "2000", "--target-ratio", "2",
               "--seed", "40", "--check-bounds", "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 5
    assert summary["bound_violations"] == 0
    rows = ec.read_records_csv(str(out))
    assert len(rows) == 5
    assert [r.seed for r in rows] == [40, 41, 42, 43, 44]


def test_cli_exact_weighted_star(tmp_path, capsys, weighted_star):
    p = tmp_path / "star.wvc"
    ec.save_instance(weighted_star, str(p))
    assert main(["exact", "--instance", str(p)]) == 0
    out = capsys.readouterr().out
    assert "opt = 2" in out and "witness = 1000" in out


def test_cli_run_csv_format(instance_file, capsys):
    argv = ["run", "--algo", "gsemo", "--instance", instance_file,
            "--budget", "2000", "--target-ratio", "2", "--seed", "4"]
    assert main(argv + ["--format", "csv"]) == 0
    row = expmod.records_from_csv(capsys.readouterr().out)
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert row[0].seed == doc["seed"] == 4
    assert row[0].best_cost == doc["best_cost"]
    assert row[0].ratio == doc["ratio"]


def test_cli_lp_selection_length_mismatch(instance_file):
    assert main(["lp", "--instance", instance_file, "--selection", "01"]) == 3


def test_csv_round_trip_with_censored_and_infinite_ratio():
    rows = [
        expmod.TrialRecord(seed=1, iters_to_zero_string=None, iters_to_cover=None,
                           iters_to_target=None, max_archive=3, best_cost=None,
                           opt=None, ratio=None, censored=True),
        expmod.TrialRecord(seed=2, iters_to_zero_string=0, iters_to_cover=0,
                           iters_to_target=None, max_archive=1, best_cost=4,
                           opt=0, ratio=math.inf, censored=True),
    ]
    assert expmod.records_from_csv(expmod.records_to_csv(rows)) == rows


def test_experiment_edgeless_instance_ratio_one():
    g = ec.build_graph(5, [2, 1, 1, 3, 1], [])
    cfg = small_config(trials=4, budget=200, target_ratio=Fraction(1))
    result = expmod.run_experiment(g, cfg)
    assert all(r.opt == 0 for r in result.records)
    assert all(r.best_cost == 0 and r.ratio == 1.0 for r in result.records)


def test_run_rejects_foreign_evaluator(triangle):
    other = ec.path(4)
    with pytest.raises(ValueError):
        ec.run("gsemo", triangle, 0, ec.Termination(budget=5),
               evaluator=ec.Evaluator(other))


def test_cli_instance_errors(tmp_path):
    assert main(["lp", "--instance", str(tmp_path / "missing.wvc")]) == 3
    bad = tmp_path / "bad.wvc"
    bad.write_text("p wvc 2 1\nv 0 1\ne 0 1\n")
    assert main(["lp", "--instance", str(bad)]) == 3
    assert main(["exact", "--instance", str(bad)]) == 3


def test_cli_usage_errors(instance_file):
    assert main(["run", "--algo", "simulated-annealing",
                 "--instance", instance_file, "--budget", "5"]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["run", "--algo", "gsemo", "--instance", instance_file]) == 2
    assert main(["run", "--algo", "gsemo", "--instance", instance_file,
                 "--budget", "5", "--epsilon", "0.5", "--target-ratio", "2"]) == 2
    for bad in (["--budget", "-5"], ["--budget", "5", "--epsilon", "-3"],
                ["--budget", "5", "--target-ratio", "1/2"], ["--budget", "5", "--seed", "-1"],
                ["--budget", "5", "--opt", "-1"]):
        assert main(["run", "--algo", "gsemo", "--instance", instance_file] + bad) == 2, bad


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_cli_rejects_opt_below_lp_bound(instance_file, tmp_path, capsys):
    # unit triangle: LP(0^n) = 3/2, so OPT >= 2
    for opt in ("0", "1"):
        assert main(["run", "--algo", "gsemo", "--instance", instance_file, "--budget", "50",
                     "--opt", opt, "--target-ratio", "2", "--format", "json"]) == 2
        assert main(["experiment", "--algo", "gsemo", "--instance", instance_file,
                     "--trials", "2", "--budget", "50", "--opt", opt,
                     "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().out == ""
    assert main(["run", "--algo", "gsemo", "--instance", instance_file, "--budget", "50",
                 "--opt", "2", "--target-ratio", "2", "--format", "json"]) == 0
    assert _strict_json(capsys.readouterr().out)["ratio"] == 1.0
