"""Command-line front end: subcommands, exit codes, emitted artifacts."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from myopic_crowd.cli import main
from myopic_crowd.config import RULES, load_config
from myopic_crowd.sim import run_experiment, time_to_identification

from conftest import W3_D_A, w3_doc

W3_JSON = Path(__file__).resolve().parents[1] / "configs" / "w3.json"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(w3_doc()))
    return path


def _write(tmp_path, doc, name="alt.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# -- validate -------------------------------------------------------------

def test_validate_ok(config_path, capsys):
    rc = main(["validate", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "config is valid" in out
    assert "global identifiability: yes" in out
    assert "3 classes" in out


def test_validate_warns_on_identifiability_gap(tmp_path, capsys):
    doc = w3_doc()
    doc["agents"] = doc["agents"][:2]
    doc["graph"] = {"type": "edges", "n": 2, "edges": [[0, 1]]}
    rc = main(["validate", "--config", str(_write(tmp_path, doc))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "not globally identifiable" in out
    assert "(theta0, theta2)" in out


def test_missing_config_file(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    rc = main(["scores", "--config", str(path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_seed_exits_one(config_path, tmp_path, command, capsys):
    rc = main(
        [command, "--config", str(config_path), "--seed", "-1",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "seed must be >= 0" in capsys.readouterr().err


def test_unknown_subcommand_rejected(config_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", str(config_path)])


def test_bad_rule_value_rejected(config_path):
    with pytest.raises(SystemExit):
        main(["run", "--config", str(config_path), "--rule", "median"])


# -- scores ---------------------------------------------------------------

def test_scores_identifiable(config_path, tmp_path, capsys):
    out_dir = tmp_path / "scores_out"
    rc = main(["scores", "--config", str(config_path), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "global identifiability: yes" in out
    doc = json.loads((out_dir / "scores.json").read_text())
    by_theta = {e["theta"]: e for e in doc["best_rate"]}
    assert by_theta["theta1"]["R"] == pytest.approx(W3_D_A, abs=1e-9)
    assert by_theta["theta1"]["agent"] == 0
    assert by_theta["theta2"]["agent"] == 2


def test_scores_not_identifiable_exit_two(tmp_path, capsys):
    doc = w3_doc()
    doc["agents"] = doc["agents"][:2]
    doc["graph"] = {"type": "edges", "n": 2, "edges": [[0, 1]]}
    rc = main(["scores", "--config", str(_write(tmp_path, doc))])
    out = capsys.readouterr().out
    assert rc == 2
    assert "(theta0, theta2)" in out


# -- run ------------------------------------------------------------------

def test_run_writes_artifacts(config_path, tmp_path, capsys):
    out_dir = tmp_path / "run_out"
    rc = main(
        [
            "run",
            "--config", str(config_path),
            "--horizon", "200",
            "--out", str(out_dir),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "identified at" in out
    for name in (
        "trajectories.csv", "summary.json", "posteriors.csv", "manifest.json"
    ):
        assert (out_dir / name).exists()
    digest = json.loads((out_dir / "summary.json").read_text())
    assert digest["horizon"] == 200
    assert all(v > 0.99 for v in digest["final_mu_true"].values())


def test_run_horizon_zero(config_path, tmp_path):
    out_dir = tmp_path / "zero"
    rc = main(
        [
            "run",
            "--config", str(config_path),
            "--horizon", "0",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    lines = (out_dir / "trajectories.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 3  # header + round 0 only


def test_run_local_only_flag(config_path, tmp_path):
    out_dir = tmp_path / "local"
    rc = main(
        [
            "run",
            "--config", str(config_path),
            "--horizon", "50",
            "--local-only",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    digest = json.loads((out_dir / "summary.json").read_text())
    assert digest["local_only"] is True


def test_run_seed_override_changes_artifacts(config_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["run", "--config", str(config_path), "--horizon", "50"]
    assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
    assert (
        (out_a / "trajectories.csv").read_bytes()
        != (out_b / "trajectories.csv").read_bytes()
    )


def test_run_determinism_across_out_dirs(config_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["run", "--config", str(config_path), "--horizon", "80"]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b)]) == 0
    for name in (
        "trajectories.csv", "summary.json", "posteriors.csv", "manifest.json"
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# -- rates ----------------------------------------------------------------

def test_rates_pass(config_path, tmp_path, capsys):
    out_dir = tmp_path / "rates_out"
    rc = main(
        [
            "rates",
            "--config", str(config_path),
            "--horizon", "2000",
            "--seed", "0",
            "--seeds", "2",
            "--out", str(out_dir),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "triples pass" in out
    doc = json.loads((out_dir / "rates.json").read_text())
    assert doc["pass_fraction"] >= doc["threshold"]
    assert len(doc["rows"]) == 2 * 3 * 2  # seeds x agents x false classes


def test_rates_too_short_horizon(config_path, capsys):
    rc = main(
        [
            "rates",
            "--config", str(config_path),
            "--horizon", "10",
            "--seeds", "2",
        ]
    )
    assert rc == 3
    assert "too few usable samples" in capsys.readouterr().err


def test_rates_replay_theory_unavailable(config_path, tmp_path, capsys):
    rec_dir = tmp_path / "rec"
    assert main(
        [
            "run",
            "--config", str(config_path),
            "--horizon", "30",
            "--out", str(rec_dir),
        ]
    ) == 0
    capsys.readouterr()
    doc = w3_doc(horizon=30)
    for agent in doc["agents"]:
        agent["prior"] = [0.5, 0.5]
        agent["source"] = {
            "kind": "replay",
            "path": str(rec_dir / "posteriors.csv"),
        }
    rc = main(["rates", "--config", str(_write(tmp_path, doc))])
    assert rc == 1
    assert "theory unavailable" in capsys.readouterr().err


def test_rates_non_identifiable(tmp_path, capsys):
    doc = w3_doc()
    doc["agents"] = doc["agents"][:2]
    doc["graph"] = {"type": "edges", "n": 2, "edges": [[0, 1]]}
    rc = main(["rates", "--config", str(_write(tmp_path, doc))])
    assert rc == 1
    assert "not globally identifiable" in capsys.readouterr().err


# -- compare --------------------------------------------------------------

def test_compare_rules(config_path, tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    rc = main(
        [
            "compare",
            "--config", str(config_path),
            "--horizon", "300",
            "--seeds", "3",
            "--out", str(out_dir),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "rule comparison" in out
    doc = json.loads((out_dir / "compare.json").read_text())
    assert set(doc) == {"min", "avg", "max"}
    assert doc["min"]["runs_fully_identified"] == 3
    assert all(
        t is not None for t in doc["min"]["median_identification_time"]
    )
    # The max rule cannot reject classes and so fails to identify.
    assert doc["max"]["runs_fully_identified"] == 0
    assert "[FAILS TO IDENTIFY" in out


def test_compare_matches_per_rule_runs(tmp_path):
    seeds = 5
    rc = main(
        ["compare", "--config", str(W3_JSON), "--seeds", str(seeds),
         "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "compare.json").read_text())
    base = load_config(W3_JSON)
    for rule in RULES:
        times = [[] for _ in range(base.n_agents)]
        fully_identified = 0
        for offset in range(seeds):
            log = run_experiment(base.derived(seed=base.seed + offset, rule=rule))
            run_times = [
                time_to_identification(log, i) for i in range(base.n_agents)
            ]
            for agent_times, t in zip(times, run_times):
                agent_times.append(np.inf if t is None else t)
            fully_identified += all(t is not None for t in run_times)
        medians = [float(np.median(t)) for t in times]
        expected = [None if np.isinf(m) else m for m in medians]
        assert doc[rule]["median_identification_time"] == expected
        assert doc[rule]["runs_fully_identified"] == fully_identified
        assert doc[rule]["runs"] == seeds
