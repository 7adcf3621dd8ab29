"""Command-line front end: subcommands, exit codes, emitted artifacts."""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import myopic_crowd
import oracles
from myopic_crowd import cli, network, scores, sim
from myopic_crowd.classifier import make_scope, write_replay_csv
from myopic_crowd.cli import main
from myopic_crowd.config import RULES, load_config
from myopic_crowd.formats import json_text

from conftest import W3_D_A, W3_SCOPE_CLASSES, spec_doc, w3_doc

W3_JSON = Path(__file__).resolve().parents[1] / "configs" / "w3.json"
ER_JSON = W3_JSON.with_name("er_noisy.json")


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
    assert "memory: about 0.09326 MB per run" in out
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
    rows = np.tile([0.8, 0.2], (5, 1))
    write_replay_csv(stream, world, [scope], [(rows, np.arange(5))])
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


def _misled(tmp_path, doc):
    """Two agents misled alike at ``doc``'s horizon: their noisy tables under
    a skewed prior favour t0 on every symbol, so the roster is identifiable
    but nobody rejects t1."""
    misled = {"classes": ["t0", "t1"], "prior": [0.9, 0.1],
              "source": {"kind": "noisy", "gamma": 0.9}}
    return {
        "world": {"classes": ["t0", "t1"], "inputs": ["x0", "x1"],
                  "likelihoods": [[0.8, 0.2], [0.2, 0.8]], "true_class": "t0"},
        "agents": [{"id": 0, **misled}, {"id": 1, **misled}],
        "graph": {"type": "edges", "n": 2, "edges": [[0, 1]]},
        "horizon": doc["horizon"],
    }


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


@pytest.mark.parametrize(
    ("roster", "reason"),
    [
        (_short_replay, "replay sources have no analytical scores"),
        (_misled, "no agent rejects t1"),
    ],
)
def test_validate_warns_wherever_rates_refuses(roster, reason, tmp_path, capsys):
    path = _write(tmp_path, roster(tmp_path, w3_doc(horizon=5)))
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert main(["rates", "--config", str(path), "--seeds", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: theory unavailable — {reason}"]
    warnings = [line for line in out if line.startswith("warning: ")]
    assert warnings == ["warning: " + err[0].removeprefix("error: ")]
    assert out[-1] == "config is valid"


@pytest.mark.parametrize(
    ("roster", "has_report", "reason"),
    [
        (lambda tmp_path, doc: doc, True, None),
        (_short_replay, False, "replay sources have no analytical scores"),
        (_gap, True, "not globally identifiable; uncovered pairs: (theta0, theta2)"),
        (_misled, True, "no agent rejects t1"),
    ],
    ids=["w3", "replay-w3", "gap", "noisy"],
)
def test_theory_gives_the_report_and_why_rates_has_no_bound(
    roster, has_report, reason, tmp_path
):
    config = load_config(_write(tmp_path, roster(tmp_path, w3_doc(horizon=5))))
    report, why = sim.theory(config)
    assert report is (config.roster.report if has_report else None)
    assert why == reason


def test_validate_builds_the_evidence_table_once(monkeypatch, capsys):
    # With enforcement on, the identifiability check is validate's theory.
    calls = []
    original = scores._table

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scores, "_table", counting)
    assert main(["validate", "--config", str(W3_JSON)]) == 0
    assert "global identifiability: yes" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["scores"],
        ["run", "--horizon", "40"],
        ["rates", "--seeds", "3", "--horizon", "40"],
        ["compare", "--seeds", "3", "--horizon", "40"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_command_builds_the_evidence_table_once(monkeypatch, tmp_path, argv):
    # Every seed of a sweep and the run's summary read the roster's one report.
    calls = []
    original = scores._table

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scores, "_table", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        main([*argv, "--config", str(W3_JSON), "--out", str(tmp_path)])
    assert len(calls) == 1


def test_rates_checks_a_fixed_graph_once(monkeypatch, tmp_path):
    # Every seed reads the roster's one connectivity check.  The check is
    # counted under every module name that holds it, as the bench tracer
    # counts it.
    calls = []
    original = network.is_connected

    def counting(graph):
        calls.append(graph)
        return original(graph)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("myopic_crowd"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)
    argv = ["rates", "--seeds", "20", "--config", str(W3_JSON)]
    with contextlib.redirect_stdout(io.StringIO()):
        main([*argv, "--out", str(tmp_path)])
    assert len(calls) == 1


def test_rates_checks_a_drawn_graph_only_while_drawing_it(monkeypatch, tmp_path):
    # An ER graph is connected by construction, so the only connectivity
    # checks are erdos_renyi_connected's own, counted under every module name
    # that holds the check.
    callers = []
    original = network.is_connected

    def counting(graph):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(graph)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("myopic_crowd"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)
    argv = ["rates", "--seeds", "3", "--horizon", "200", "--config", str(ER_JSON)]
    with contextlib.redirect_stdout(io.StringIO()):
        main([*argv, "--out", str(tmp_path)])
    assert len(callers) >= 3
    assert set(callers) == {"erdos_renyi_connected"}


@pytest.mark.parametrize(
    "argv",
    [
        ["scores"],
        ["run", "--horizon", "40"],
        ["rates", "--seeds", "3", "--horizon", "40"],
        ["compare", "--seeds", "4", "--horizon", "40"],
        ["validate"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_imports_numpy_ma(tmp_path, argv):
    # numpy.ma costs a fresh process 16-28 ms and about 2 MB on its first
    # import; np.median and a plain np.unique import it.
    script = (
        "import sys\n"
        "from myopic_crowd.cli import main\n"
        "main(sys.argv[1:])\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    src = str(Path(myopic_crowd.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", script, *argv, "--config", str(W3_JSON),
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stderr.splitlines()[-1] == "False", done.stderr


@settings(max_examples=200)
@given(
    st.lists(
        st.lists(
            st.sampled_from([0.0, 0.25, 1.0, 3.0, 7.5, -1.0, np.inf]),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=7,
    )
)
def test_medians_match_numpy_bit_for_bit(runs):
    # Identification times are finite or inf; the middle two may be either.
    want = np.median(runs, axis=0).tolist()
    assert [v.hex() for v in cli._medians(runs)] == [v.hex() for v in want]


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


def _undecodable_input(tmp_path, reader: str) -> tuple[Path, Path]:
    """A config, and its input read by ``reader`` (the config itself or a
    file it names), which starts with byte 0xff, as no UTF-8 text does."""
    doc = w3_doc()
    bad = tmp_path / f"{reader}.bin"
    if reader == "config":
        bad.write_bytes(b"\xff" + json.dumps(doc).encode())
        return bad, bad
    if reader == "world":
        bad.write_bytes(b"\xff" + json.dumps(doc["world"]).encode())
        doc["world"] = bad.name
    elif reader == "graph":
        bad.write_bytes(b"\xff3\n0 1\n1 2\n")
        doc["graph"] = bad.name
    else:
        bad.write_bytes(b"\xffround,agent_id,theta0,theta1\n")
        doc["agents"][0].update(
            prior=[0.5, 0.5], source={"kind": "replay", "path": bad.name}
        )
    return _write(tmp_path, doc), bad


@pytest.mark.parametrize("reader", ["config", "world", "graph", "replay"])
def test_undecodable_input_file_exits_one(tmp_path, reader, capsys):
    config, bad = _undecodable_input(tmp_path, reader)
    assert main(["validate", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(bad) in err[0]


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


def test_scores_writes_the_json_text_in_slices_unchanged(
    config_path, tmp_path, capsysbinary, monkeypatch
):
    monkeypatch.setattr(cli, "WRITE_SLICE", 7)  # hundreds of slices, one partial
    out_dir = tmp_path / "scores_out"
    main(["scores", "--config", str(config_path), "--out", str(out_dir)])
    config = load_config(config_path)
    text = json_text(scores.score_report(config.world, config.scopes).to_dict())
    assert (out_dir / "scores.json").read_bytes() == (text + "\n").encode()
    assert capsysbinary.readouterr().out.startswith((text + "\n\n").encode())


def _roster_config(seed: int) -> dict:
    """A config of the random roster ``oracles.random_problem`` draws."""
    return spec_doc(oracles.random_problem(np.random.default_rng(seed)), horizon=1)


def _scores_stdout(doc: dict) -> tuple[str, str]:
    """``scores``' stdout on the config ``doc``, and the dict reference's:
    the JSON document, a blank line, then the score table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roster.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["scores", "--config", str(path)])
        config = load_config(path)
    reference = oracles.score_report_reference(config.world, config.scopes)
    text = oracles.json_reference(reference) + "\n\n"
    return out.getvalue(), text + oracles.score_table_reference(reference)


# Seed 0 has no confusion rows, seed 12 no discriminative rows, seed 3 a
# class with no rejector and uncovered pairs; every seed has a "none" set.
@example(seed=0)
@example(seed=3)
@example(seed=12)
@given(seed=st.integers(0, 2**32 - 1))
def test_scores_stdout_matches_the_dict_reference(seed):
    got, want = _scores_stdout(_roster_config(seed))
    assert got == want


def test_scores_stdout_examples_cover_every_section():
    texts = [_scores_stdout(_roster_config(seed))[1] for seed in (0, 3, 12)]
    assert any("discriminative scores" not in text for text in texts)
    assert any("confusion scores" not in text for text in texts)
    for mark in (": none\n", "no rejector", "NO — uncovered pairs"):
        assert any(mark in text for text in texts), mark


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


def test_rates_refuses_a_class_no_agent_rejects(tmp_path, capsys, monkeypatch):
    # The roster is identifiable, but nobody rejects t1 (see _misled).
    def no_draws(config):
        raise AssertionError("observations drawn without theory")

    monkeypatch.setattr(sim, "_draw_observations", no_draws)
    path = _write(tmp_path, _misled(tmp_path, {"horizon": 500}))
    rc = main(["rates", "--config", str(path), "--seeds", "2", "--horizon", "500"])
    assert rc == 1
    assert "theory unavailable — no agent rejects t1" in capsys.readouterr().err


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
    # One seed a batch: at a run's batch bytes under all three rules they
    # pool in one loop, a byte below that one rule at a time.  An even seed
    # count takes the mean of two middle runs; local-only, nothing pools and
    # agents without θ* never identify (null medians).
    pool = sim.global_trajectory
    calls = []

    def recorded(rules, *args):
        calls.append(rules)
        return pool(rules, *args)

    for seeds, local_only in ((5, None), (4, None), (4, True)):
        base = load_config(W3_JSON, local_only=local_only)
        want = json_text(oracles.compare_reference(base, seeds)) + "\n"
        monkeypatch.setattr(sim, "global_trajectory", recorded)
        for cap, groups in (
            (sim.batch_bytes(base, RULES), [RULES]),
            (sim.batch_bytes(base, RULES) - 1, [(rule,) for rule in RULES]),
        ):
            monkeypatch.setattr(sim, "BATCH_BYTES", cap)
            calls.clear()
            out = tmp_path / f"{seeds}-{local_only}-{cap}"
            argv = ["compare", "--config", str(W3_JSON), "--seeds", str(seeds)]
            argv += ["--out", str(out)] + ["--local-only"] * bool(local_only)
            assert main(argv) == 0
            assert calls == ([] if local_only else groups * seeds)
            assert (out / "compare.json").read_text() == want
        monkeypatch.undo()


def test_rates_matches_per_seed_runs(tmp_path, monkeypatch, caplog):
    # With the batch cap cut to ten w3 runs at T=3000, twelve pool as 10 + 2.
    base = load_config(W3_JSON, horizon=3000)
    monkeypatch.setattr(sim, "BATCH_BYTES", 10 * sim.batch_bytes(base, ["min"]))
    with caplog.at_level(logging.INFO, logger="myopic_crowd.sim"):
        rc = main(
            ["rates", "--config", str(W3_JSON), "--seeds", "12", "--horizon",
             "3000", "--out", str(tmp_path)]
        )
    assert rc == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "myopic_crowd.sim"]
    assert [line.split(" rules=")[0] for line in lines] == [
        "batch seeds=10 first_seed=7", "batch seeds=2 first_seed=17"
    ]
    doc = json.loads((tmp_path / "rates.json").read_text())
    assert doc == oracles.rates_reference(base, 12)


def test_rates_pools_twenty_w3_seeds_in_one_loop(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="myopic_crowd.sim"):
        rc = main(
            ["rates", "--config", str(W3_JSON), "--seeds", "20", "--horizon",
             "3000", "--out", str(tmp_path)]
        )
    assert rc == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "myopic_crowd.sim"]
    assert len(lines) == 1
    assert lines[0].startswith("batch seeds=20 first_seed=7 rules=min rounds=3000 ")


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
        (("world", "true_clas"), "theta1"),
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
# An unhashable source kind must not reach a dict lookup.
@example(path=("agents", 1, "source", "kind"), value=[])
@example(path=("agents", 1, "source", "kind"), value={})
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
