"""Command-line front end: subcommands, exit codes, emitted artifacts."""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import myopic_crowd
import oracles
from myopic_crowd import sim
from myopic_crowd.classifier import make_scope, write_replay_csv
from myopic_crowd.cli import main
from myopic_crowd.config import load_config

from conftest import W3_D_A, W3_SCOPE_CLASSES, w3_doc

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


def test_validate_prints_the_memory_estimate(capsys):
    assert main(["validate", "--config", str(W3_JSON)]) == 0
    out = capsys.readouterr().out
    assert "memory: about 0.1172 MB per run" in out
    assert "above the cap" not in out

    assert main(["validate", "--config", str(W3_JSON), "--horizon", str(10**15)]) == 0
    out = capsys.readouterr().out
    assert "warning: above the cap" in out
    assert "config is valid" in out


@pytest.mark.parametrize("command", ["run", "rates", "compare"])
def test_run_above_the_memory_cap_exits_one_before_drawing(
    command, tmp_path, monkeypatch, capsys
):
    def no_draws(config):
        raise AssertionError("observations drawn for a run above the cap")

    monkeypatch.setattr(sim, "_draw_observations", no_draws)
    argv = [command, "--config", str(W3_JSON), "--horizon", str(10**15)]
    tracemalloc.start()
    try:
        rc = main([*argv, "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert "above the cap" in capsys.readouterr().err
    assert peak < 2**20


def test_graph_file_vertex_count_is_checked_before_building(tmp_path, capsys):
    (tmp_path / "net.txt").write_text("1000000\n0 1\n1 2\n")
    rc = main(["validate", "--config", str(_write(tmp_path, w3_doc(graph="net.txt")))])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: graph has 1000000 vertices but the config lists 3 agents"
    )


def test_validate_a_ring_of_10_000_agents_in_little_memory(tmp_path):
    n = 10_000
    doc = w3_doc()
    doc["agents"] = [
        {"id": i, "classes": W3_SCOPE_CLASSES[i % 3]} for i in range(n)
    ]
    doc["graph"] = {
        "type": "edges", "n": n, "edges": [[i, (i + 1) % n] for i in range(n)]
    }
    # A small wrapper runs the command and reports its children's peak RSS.
    # The command's own peak would count the memory of whatever process
    # forked it, here the whole test session.
    script = (
        "import resource, subprocess, sys\n"
        "cli = [sys.executable, '-m', 'myopic_crowd.cli']\n"
        "rc = subprocess.call(cli + sys.argv[1:])\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(peak, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    src = str(Path(myopic_crowd.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", script, "validate", "--config", str(_write(tmp_path, doc))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert f"graph: {n} vertices, {n} edges, connected" in done.stdout
    peak_kib = int(done.stderr.split()[-1])
    if sys.platform == "darwin":  # ru_maxrss is in bytes there, KiB on Linux
        peak_kib //= 1024
    assert peak_kib < 100 * 1024


def test_validate_warns_on_identifiability_gap(tmp_path, capsys):
    # The gap is one warning, worded alike whether or not it is enforced.
    gap = "warning: not globally identifiable; uncovered pairs: (theta0, theta2)"
    for enforce, advice in ((True, "; add agents or disable enforce_identifiability"),
                            (False, "")):
        doc = w3_doc(enforce_identifiability=enforce)
        doc["agents"] = doc["agents"][:2]
        doc["graph"] = {"type": "edges", "n": 2, "edges": [[0, 1]]}
        rc = main(["validate", "--config", str(_write(tmp_path, doc))])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [line for line in out if line.startswith("warning: ")] == [
            gap + advice
        ]


def _short_replay(tmp_path, doc):
    """``doc`` with agent 0 replaying a 5-round stream."""
    stream = tmp_path / "short.csv"
    world = load_config(W3_JSON).world
    scope = make_scope(world, 0, ["theta0", "theta1"])
    write_replay_csv(stream, world, [scope], [np.tile([0.8, 0.2], (5, 1))])
    doc["agents"][0]["prior"] = [0.5, 0.5]
    doc["agents"][0]["source"] = {"kind": "replay", "path": str(stream)}
    return doc


def _cap(tmp_path, doc):
    doc["horizon"] = 10**15
    return doc


def _disconnected(tmp_path, doc):
    doc["graph"] = {"type": "edges", "n": 3, "edges": [[0, 1]]}
    return doc


def _gap(tmp_path, doc):
    doc["agents"] = doc["agents"][:2]
    doc["graph"] = {"type": "edges", "n": 2, "edges": [[0, 1]]}
    return doc


def _validate_and_run(tmp_path, capsys, path):
    """validate's stdout lines, and run's exit code and stderr lines."""
    assert main(["validate", "--config", str(path)]) == 0
    warnings = capsys.readouterr().out.splitlines()
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    return warnings, rc, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    ("problem", "first_words"),
    [
        (_cap, "above the cap of 1074 MB: a run of 1000000000000000 rounds"),
        (_disconnected, "the experiment graph must be connected"),
        (_gap, "not globally identifiable; uncovered pairs: (theta0, theta2); add"),
        (_short_replay, "agent 0: replay stream has 5 rounds, horizon is 10"),
    ],
)
def test_validate_warns_with_the_error_run_prints(
    problem, first_words, tmp_path, capsys
):
    doc = problem(tmp_path, w3_doc(horizon=10))
    out, rc, err = _validate_and_run(tmp_path, capsys, _write(tmp_path, doc))
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error: {first_words}")
    assert "warning: " + err[0].removeprefix("error: ") in out
    assert out[-1] == "config is valid"


def test_validate_warns_on_a_replay_roster_run_refuses(tmp_path, capsys):
    # Recorded without enforcement from a roster that leaves (theta0,
    # theta2) uncovered, then replayed under it: run refuses the roster
    # and validate must say so, although a replay roster has no theory.
    doc = w3_doc(horizon=50, enforce_identifiability=False)
    doc["agents"][2]["classes"] = list(doc["agents"][1]["classes"])
    rec = tmp_path / "rec"
    assert main(
        ["run", "--config", str(_write(tmp_path, doc)), "--out", str(rec)]
    ) == 0
    capsys.readouterr()
    del doc["enforce_identifiability"]
    for agent in doc["agents"]:
        agent["prior"] = [0.5, 0.5]
        agent["source"] = {"kind": "replay", "path": str(rec / "posteriors.csv")}
    out, rc, err = _validate_and_run(tmp_path, capsys, _write(tmp_path, doc))
    assert rc == 1
    assert err == [
        "error: not globally identifiable; uncovered pairs: (theta0, theta2); "
        "add agents or disable enforce_identifiability"
    ]
    assert "warning: " + err[0].removeprefix("error: ") in out
    assert "global identifiability: yes" not in out


def test_validate_and_scores_leave_no_cyclic_garbage(capsys):
    for command in ("validate", "scores"):
        argv = [command, "--config", str(W3_JSON)]
        main(argv)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            main(argv)
            gc.collect()
            leaked = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == [], command


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
    # stdout opens with the same JSON document, byte for byte.
    assert out.startswith((out_dir / "scores.json").read_text() + "\n")


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


def _w3_with_agent0(**fields) -> dict:
    doc = json.loads(W3_JSON.read_text())
    doc["agents"][0].update(fields)
    return doc


def test_rates_pass_with_a_noisy_agent(tmp_path, capsys):
    # Agent 0's noisy table separates theta1 from theta0 by less than
    # agent 1's support margin, so agent 1 sets R(theta1); scoring agent 0
    # on its Bayes table instead overstated R(theta1) and failed the sweep.
    doc = _w3_with_agent0(source={"kind": "noisy", "gamma": 0.6})
    argv = ["rates", "--config", str(_write(tmp_path, doc)), "--horizon", "3000"]
    rc = main([*argv, "--seeds", "20", "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    rates = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert rates["pass_fraction"] >= 0.95
    assert "theta1: R = 0.639032" in out


@pytest.mark.parametrize("command", ["validate", "scores", "run"])
def test_prior_below_floor_exits_one(tmp_path, command, capsys):
    # Flooring this prior at 1e-12 would turn agent 0's evidence for theta0
    # over theta1 negative while every check still called the roster fine.
    doc = _w3_with_agent0(prior=[1 - 1e-13, 1e-13])
    argv = [command, "--config", str(_write(tmp_path, doc))]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: agent 0: prior entries must lie in [1e-12, 1]")
    assert not (tmp_path / "out").exists()


def test_repeated_main_leaves_no_parser_garbage(capsys):
    argv = ["validate", "--config", str(W3_JSON)]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


@pytest.mark.parametrize("command", ["rates", "compare"])
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_nonpositive_seed_count_exits_one(
    config_path, tmp_path, command, seeds, capsys
):
    out_dir = tmp_path / "out"
    rc = main(
        [command, "--config", str(config_path), "--seeds", seeds,
         "--out", str(out_dir)]
    )
    assert rc == 1
    assert "--seeds must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


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


def test_compare_matches_per_rule_runs(tmp_path, monkeypatch):
    # Batches of two seeds, so five seeds pool in three loops per rule.
    base = load_config(W3_JSON)
    monkeypatch.setattr(sim, "BATCH_BYTES", 2 * sim.run_bytes(base))
    rc = main(
        ["compare", "--config", str(W3_JSON), "--seeds", "5", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert doc == oracles.compare_reference(base, 5)


def test_rates_matches_per_seed_runs(tmp_path):
    # At T=3000 ten w3 seeds fit under the batch cap: twelve pool as 10 + 2.
    rc = main(
        ["rates", "--config", str(W3_JSON), "--seeds", "12", "--horizon", "3000",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "rates.json").read_text())
    assert doc == oracles.rates_reference(load_config(W3_JSON, horizon=3000), 12)


# -- malformed input ------------------------------------------------------

_DELETE = object()


def _mutated(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the field at key path ``path`` set to
    ``value``, or deleted when ``value`` is ``_DELETE``."""
    doc = copy.deepcopy(doc)
    *parents, leaf = path
    owner = doc
    for key in parents:
        owner = owner[key]
    if value is _DELETE:
        del owner[leaf]
    else:
        owner[leaf] = value
    return doc


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(argv)


@pytest.mark.parametrize(
    "path, value",
    [
        (("world", "classes"), 5),
        (("world", "inputs"), 3),
        (("world", "likelihoods"), "x"),
        (("world", "likelihoods"), [[0.8, 0.2], [0.2], [0.5, 0.5]]),
        (("world", "likelihoods"), [[1e308, 1e308], [0.2, 0.8], [0.5, 0.5]]),
        (("world", "true_class"), ["theta0"]),
        (("agents", 0, "classes"), 5),
        (("agents", 0, "classes"), []),
        (("agents", 0, "classes"), [["theta0"], "theta1"]),
        (("agents", 0, "prior"), "abc"),
        (("agents", 0, "prior"), [1e308, 1e308]),
        (("agents", 0, "likelihoods"), "x"),
        (("agents", 0, "likelihoods"), [[0.8, 0.2], [0.2], [0.5, 0.5]]),
        (("agents", 0, "source"), {"kind": "noisy", "gamma": "x"}),
        (("agents", 0, "source"), {"kind": "noisy", "gamma": [1]}),
        (("agents", 0, "source"), {"kind": "replay", "path": 5}),
        (("world",), "no\0such.json"),
        (("graph", "n"), 10**30),
        (("horizon",), 10**30),
        (("out_dir",), 5),
    ],
)
@pytest.mark.parametrize("command", ["validate", "scores", "run"])
def test_malformed_field_exits_one(tmp_path, path, value, command, capsys):
    doc = _mutated(json.loads(W3_JSON.read_text()), path, value)
    argv = [command, "--config", str(_write(tmp_path, doc))]
    if path != ("out_dir",):  # --out would override the field under test
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _field_paths(doc, prefix=()):
    """Key paths of every field in a JSON document, nested ones included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


# w3.json plus the optional fields it leaves out, at valid values, so that
# mutations reach every parser.
_FUZZ_BASE = json.loads(W3_JSON.read_text())
_FUZZ_BASE.update(
    observation_mode="independent",
    rate_window=0.5,
    local_only=False,
    enforce_identifiability=True,
    out_dir="out",
)
_FUZZ_BASE["agents"][0].update(
    prior=[0.5, 0.5],
    likelihoods=_FUZZ_BASE["world"]["likelihoods"],
    source={"kind": "noisy", "gamma": 0.0},
)
_FUZZ_BASE["agents"][1]["source"] = {"kind": "bayes"}

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=60)
@given(
    path=st.sampled_from(list(_field_paths(_FUZZ_BASE))),
    value=st.just(_DELETE) | _JSON_VALUES,
)
def test_cli_survives_any_one_field_mutation(path, value):
    doc = _mutated(_FUZZ_BASE, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.json"
        config.write_text(json.dumps(doc))
        for command in ("validate", "scores"):
            assert _run_quietly([command, "--config", str(config)]) in {0, 1, 2, 3}
        # run allocates arrays in proportion to the horizon, so it runs at a
        # fixed small one; the mutated horizon is parsed by the two above.
        rc = _run_quietly(
            ["run", "--config", str(config), "--horizon", "20", "--out", tmp]
        )
        assert rc in {0, 1, 2, 3}


@pytest.mark.parametrize("command", ["validate", "scores", "run"])
def test_fuzz_base_is_valid(tmp_path, command):
    config = str(_write(tmp_path, _FUZZ_BASE))
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    assert _run_quietly(argv) == 0
