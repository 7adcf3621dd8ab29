"""Tests of the benchmark itself: input generation, output checks, tracing."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import myopic_crowd.cli as cli
import myopic_crowd.sim as sim
import tracing
import workloads
from workloads import Spec

ROOT = Path(__file__).resolve().parents[2]
W3 = str(ROOT / workloads.W3_CONFIG)


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _small_config(tmp_path: Path, spec: Spec, seed: int = 3) -> Path:
    path = tmp_path / "config.json"
    doc = workloads.generate_config(spec, np.random.default_rng(seed))
    path.write_text(json.dumps(doc))
    return path


# -- generator -------------------------------------------------------------

@pytest.mark.parametrize("name", [n for n, w in workloads.WORKLOADS.items() if w.spec])
def test_generator_is_byte_deterministic(tmp_path, name):
    outputs = []
    for run, seed in enumerate((5, 5, 6)):
        work = tmp_path / str(run)
        work.mkdir()
        workloads.generate(name, seed, work)
        outputs.append((work / f"{name}.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


def test_generated_roster_covers_every_pair():
    spec = workloads.WORKLOADS["scores-n300"].spec
    doc = workloads.generate_config(spec, np.random.default_rng(0))
    sizes = [len(a["classes"]) for a in doc["agents"]]
    assert min(sizes) == 2 and max(sizes) == spec.m // 2
    held = {
        (p, q) for a in doc["agents"] for p in a["classes"] for q in a["classes"] if p < q
    }
    labels = doc["world"]["classes"]
    assert len(held) == len(labels) * (len(labels) - 1) // 2
    assert doc["graph"]["type"] == "edges"


def test_sweep_passes_the_seed_to_the_cli(tmp_path):
    _, commands = workloads.plan("sweep-w3", 2**40 + 9, tmp_path, ROOT)
    for command in commands:
        assert command.argv[command.argv.index("--seed") + 1] == "9"


# -- output checks ---------------------------------------------------------

def test_run_check_rejects_truncated_and_unidentified_outputs(tmp_path):
    spec = Spec(n=20, m=6, horizon=60, graph="erdos_renyi")
    config = _small_config(tmp_path, spec)
    out = tmp_path / "out"
    code = _cli("run", "--config", config, "--out", out)
    check = workloads.make_check_run(spec.n, spec.m, spec.horizon)
    assert check(code, out) == []
    assert check(1, out)

    trajectories = out / "trajectories.csv"
    lines = trajectories.read_bytes().splitlines(keepends=True)
    trajectories.write_bytes(b"".join(lines[:-1]))
    assert any("trajectories.csv" in p for p in check(code, out))
    trajectories.write_bytes(b"".join(lines))

    posteriors = out / "posteriors.csv"
    posteriors.write_bytes(b"".join(posteriors.read_bytes().splitlines(keepends=True)[:-3]))
    assert any("posteriors.csv" in p for p in check(code, out))

    _cli("run", "--config", config, "--out", out)
    summary = json.loads((out / "summary.json").read_text())
    summary["identification_time"]["3"]["sustained"] = None
    (out / "summary.json").write_text(json.dumps(summary))
    assert any("never identified" in p for p in check(code, out))


def _scores_outputs(tmp_path: Path):
    config = _small_config(tmp_path, Spec(n=20, m=6, horizon=1, graph="edges"))
    out = tmp_path / "out"
    code = _cli("scores", "--config", config, "--out", out)
    sizes = [len(a["classes"]) for a in json.loads(config.read_text())["agents"]]
    return code, out, workloads.make_check_scores(sizes)


def test_scores_check_rejects_a_flipped_sign(tmp_path):
    code, out, check = _scores_outputs(tmp_path)
    assert check(code, out) == []
    doc = json.loads((out / "scores.json").read_text())
    doc["discriminative"][0]["nats"] = -doc["discriminative"][0]["nats"]
    (out / "scores.json").write_text(json.dumps(doc))
    assert any("antisymmetric" in p for p in check(code, out))


def test_scores_check_rejects_missing_entries_and_foreign_rate_agents(tmp_path):
    code, out, check = _scores_outputs(tmp_path)
    original = json.loads((out / "scores.json").read_text())

    doc = json.loads(json.dumps(original))
    doc["confusion"].pop()
    (out / "scores.json").write_text(json.dumps(doc))
    assert any("score entries" in p for p in check(code, out))

    doc = json.loads(json.dumps(original))
    doc["best_rate"][0]["agent"] = 10_000
    (out / "scores.json").write_text(json.dumps(doc))
    assert any("best rate" in p for p in check(code, out))


def test_compare_check_rejects_missing_rules_and_failed_min_runs(tmp_path):
    out = tmp_path / "out"
    code = _cli("compare", "--config", W3, "--seeds", 2, "--horizon", 300, "--out", out)
    assert workloads.check_compare(code, out) == []
    original = json.loads((out / "compare.json").read_text())

    doc = json.loads(json.dumps(original))
    del doc["avg"]
    (out / "compare.json").write_text(json.dumps(doc))
    assert workloads.check_compare(code, out)

    doc = json.loads(json.dumps(original))
    doc["min"]["runs_fully_identified"] -= 1
    (out / "compare.json").write_text(json.dumps(doc))
    assert any("min rule" in p for p in workloads.check_compare(code, out))


def test_rates_check_rejects_a_low_pass_fraction(tmp_path):
    out = tmp_path / "out"
    code = _cli("rates", "--config", W3, "--seed", 1, "--seeds", 2, "--horizon", 3000,
                "--out", out)
    assert workloads.check_rates(code, out) == []
    assert workloads.check_rates(2, out)
    doc = json.loads((out / "rates.json").read_text())
    doc["pass_fraction"] = 0.9
    (out / "rates.json").write_text(json.dumps(doc))
    assert workloads.check_rates(code, out)


# -- tracing ---------------------------------------------------------------

def test_traced_run_partitions_wall_time_and_restores_names(tmp_path):
    spec = Spec(n=20, m=6, horizon=40, graph="erdos_renyi")
    config = _small_config(tmp_path, spec)
    original = sim.run_experiment
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert cli.run_experiment is not original
        _cli("run", "--config", config, "--out", tmp_path / "out")
    assert cli.run_experiment is original and sim.run_experiment is original
    assert tracer.missing == []

    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.UNITS)
    assert metrics["sim.run_experiment_calls"] == 1
    assert metrics["config.resolve_calls"] == 1
    assert metrics["sim.rate_fit_calls"] == spec.n * (spec.m - 1)
    assert metrics["classifier.replay_write_mb"] > 0
    (root,) = [s for s in tracer.spans if s.parent is None]
    selfs = sum(v for k, v in metrics.items() if tracing.UNITS[k] == "s" and v)
    assert selfs == pytest.approx(root.end - root.start, rel=1e-6)


def test_missing_names_are_reported_absent(tmp_path, monkeypatch):
    spans = [s for s in tracing.SPANS if s[1] != "sim"]
    spans.append(("sim.run_experiment", "sim", "no_such_function", None))
    monkeypatch.setattr(tracing, "SPANS", spans)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        _cli("compare", "--config", W3, "--seeds", 1, "--horizon", 50,
             "--out", tmp_path / "out")
    assert tracer.missing == ["sim.no_such_function"]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["sim.run_experiment_s"] is None
    assert metrics["sim.per_round_us"] is None
    assert metrics["cli.self_s"] > 0


# -- entry point -----------------------------------------------------------

def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-w3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
