"""Check that two source trees write the same bytes for a fixed command list.

    python tools/same_bytes.py PARENT_SRC CHANGE_SRC [--horizon T]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold the
``myopic_crowd`` package, such as a checkout's ``src``.  Every command of
:func:`commands` runs once per tree, in a subprocess with that directory
first on PYTHONPATH and a fresh output directory.  The exit code, stdout
and stderr (each with the output directory masked) and every file written
must match byte for byte.  Each difference is printed by name, and the
script exits 1 if there is any.  ``--horizon`` sets the horizon of every
command but those of :data:`OWN_HORIZON`, for a quick check; without it the
horizons are those listed.

The three bench configs are generated from bench seed 5 by
``bench/workloads.py`` of the checkout holding this script, and the hub,
replay, override, gap, noisy and disconnected configs and the replay stream
are written beside them, so both trees read the same files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
W3 = str(ROOT / "configs" / "w3.json")
ER_NOISY = str(ROOT / "configs" / "er_noisy.json")

#: Bench seed of the generated run-n50, compare-n120 and scores-n300 configs.
BENCH_SEED = 5

#: Commands that keep their listed horizon under ``--horizon``: at a longer
#: one, compare-n120-fused's runs no longer pool all three rules in one loop.
OWN_HORIZON = {"compare-n120-fused"}

#: Agents of the hub config, whose hub neighbors every other agent.
HUB_AGENTS = 12

#: Rounds of the replay config's recorded stream.
REPLAY_ROUNDS = 3000

#: Agent 0's likelihood table in the override config: w3's rows, less peaked.
OVERRIDE = [[0.7, 0.3], [0.3, 0.7], [0.5, 0.5]]

#: The noisy config's two agents: identifiable, but their noisy tables under
#: a skewed prior favour t0 on every symbol, so nobody rejects t1.
NOISY_AGENT = {
    "classes": ["t0", "t1"], "prior": [0.9, 0.1],
    "source": {"kind": "noisy", "gamma": 0.9},
}


def bench_configs(work_dir: Path) -> dict[str, str]:
    """Write the run-n50, compare-n120 and scores-n300 bench configs, the
    hub, replay, override, gap, noisy and disconnected configs; their paths
    by name.

    The hub config is w3's world with w3's scopes cycled over
    :data:`HUB_AGENTS` agents on a star, a graph whose pooling loop reads
    the compact neighborhood layout.  The replay config is w3 with agent 0
    replaying a fixed stream of :data:`REPLAY_ROUNDS` distinct rows.  The
    override config is w3 with agent 0 reading :data:`OVERRIDE` in place of
    the world's likelihood table.  The gap configs are w3's first two
    agents, which leave (theta0, theta2) uncovered, with the gap enforced
    and not.  The noisy config is two :data:`NOISY_AGENT` agents on a
    two-class world.  The disconnected config is w3 on a graph without
    agent 2's edges.
    """
    sys.path.insert(0, str(ROOT))
    from bench.workloads import generate

    paths = {}
    for name in ("run-n50", "compare-n120", "scores-n300"):
        generate(name, BENCH_SEED, work_dir)
        paths[name] = str(work_dir / f"{name}.json")
    doc = json.loads(Path(W3).read_text())
    scopes = doc["agents"]
    doc["agents"] = [{**scopes[i % len(scopes)], "id": i} for i in range(HUB_AGENTS)]
    edges = [[0, i] for i in range(1, HUB_AGENTS)]
    doc["graph"] = {"type": "edges", "n": HUB_AGENTS, "edges": edges}
    paths["hub-w3"] = str(work_dir / "hub-w3.json")
    Path(paths["hub-w3"]).write_text(json.dumps(doc))

    stream = work_dir / "replay-stream.csv"
    lines = ["round,agent_id,theta0,theta1,theta2\n"]
    for t in range(1, REPLAY_ROUNDS + 1):
        p = 0.6 + 0.3 * math.sin(t)
        lines.append(f"{t},0,{p!r},{1.0 - p!r},\n")
    stream.write_text("".join(lines))
    doc = json.loads(Path(W3).read_text())
    doc["agents"][0]["prior"] = [0.5, 0.5]
    doc["agents"][0]["source"] = {"kind": "replay", "path": str(stream)}
    paths["replay-w3"] = str(work_dir / "replay-w3.json")
    Path(paths["replay-w3"]).write_text(json.dumps(doc))

    doc = json.loads(Path(W3).read_text())
    doc["agents"][0]["likelihoods"] = OVERRIDE
    paths["override-w3"] = str(work_dir / "override-w3.json")
    Path(paths["override-w3"]).write_text(json.dumps(doc))

    for name, enforce in (("gap-w3", True), ("gap-w3-free", False)):
        doc = json.loads(Path(W3).read_text())
        doc["agents"] = doc["agents"][:2]
        doc["graph"] = {"type": "edges", "n": 2, "edges": [[0, 1]]}
        doc["enforce_identifiability"] = enforce
        paths[name] = str(work_dir / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))

    doc = {
        "world": {
            "classes": ["t0", "t1"], "inputs": ["x0", "x1"],
            "likelihoods": [[0.8, 0.2], [0.2, 0.8]], "true_class": "t0",
        },
        "agents": [{"id": 0, **NOISY_AGENT}, {"id": 1, **NOISY_AGENT}],
        "graph": {"type": "edges", "n": 2, "edges": [[0, 1]]},
    }
    paths["noisy-2"] = str(work_dir / "noisy-2.json")
    Path(paths["noisy-2"]).write_text(json.dumps(doc))

    doc = json.loads(Path(W3).read_text())
    doc["graph"] = {"type": "edges", "n": 3, "edges": [[0, 1]]}
    paths["split-w3"] = str(work_dir / "split-w3.json")
    Path(paths["split-w3"]).write_text(json.dumps(doc))
    return paths


def commands(bench: dict[str, str], horizon=None) -> list[tuple[str, list[str]]]:
    """(label, CLI argv without ``--out``) of every checked command, each
    set to ``horizon`` if given, but those of :data:`OWN_HORIZON`."""
    run_n50, compare_n120 = bench["run-n50"], bench["compare-n120"]
    scores_n300, hub, replay = bench["scores-n300"], bench["hub-w3"], bench["replay-w3"]
    override, noisy, split = bench["override-w3"], bench["noisy-2"], bench["split-w3"]
    gap, gap_free = bench["gap-w3"], bench["gap-w3-free"]
    listed = [
        ("run-w3-min", ["run", "--config", W3, "--horizon", "3000"]),
        ("run-w3-max", ["run", "--config", W3, "--rule", "max", "--horizon", "3000"]),
        ("run-w3-avg", ["run", "--config", W3, "--rule", "avg", "--horizon", "1500"]),
        ("run-er-min", ["run", "--config", ER_NOISY]),
        ("run-er-avg", ["run", "--config", ER_NOISY, "--rule", "avg"]),
        ("run-n50", ["run", "--config", run_n50]),
        ("run-n50-avg", ["run", "--config", run_n50, "--rule", "avg"]),
        ("run-n120-avg", ["run", "--config", compare_n120, "--rule", "avg"]),
        ("run-replay-w3", ["run", "--config", replay, "--horizon", "3000"]),
        ("run-override-w3", ["run", "--config", override, "--horizon", "3000"]),
        (
            "run-w3-local",
            ["run", "--config", W3, "--local-only", "--horizon", "3000"],
        ),
        ("compare-w3", ["compare", "--config", W3, "--seeds", "5", "--horizon", "3000"]),
        ("compare-er", ["compare", "--config", ER_NOISY, "--seeds", "4"]),
        ("compare-n120-1", ["compare", "--config", compare_n120, "--seeds", "1"]),
        ("compare-n120-3", ["compare", "--config", compare_n120, "--seeds", "3"]),
        # Short enough that all three rules pool in one loop at m = 20.
        (
            "compare-n120-fused",
            ["compare", "--config", compare_n120, "--seeds", "2", "--horizon", "40"],
        ),
        ("rates-w3", ["rates", "--config", W3, "--seeds", "20", "--horizon", "3000"]),
        ("rates-er", ["rates", "--config", ER_NOISY, "--seeds", "3"]),
        ("compare-hub", ["compare", "--config", hub, "--seeds", "3", "--horizon", "3000"]),
        ("rates-hub", ["rates", "--config", hub, "--seeds", "5", "--horizon", "3000"]),
        ("scores-w3", ["scores", "--config", W3]),
        ("scores-er", ["scores", "--config", ER_NOISY]),
        ("scores-n300", ["scores", "--config", scores_n300]),
        ("validate-w3", ["validate", "--config", W3]),
        ("validate-er", ["validate", "--config", ER_NOISY]),
        ("validate-n300", ["validate", "--config", scores_n300]),
        ("validate-n120", ["validate", "--config", compare_n120]),
        # Refusals and warnings: exit codes and stderr.
        ("validate-replay-w3", ["validate", "--config", replay]),
        ("rates-replay-w3", ["rates", "--config", replay, "--seeds", "2"]),
        ("validate-gap", ["validate", "--config", gap]),
        ("validate-gap-free", ["validate", "--config", gap_free]),
        ("rates-gap", ["rates", "--config", gap, "--seeds", "2"]),
        ("run-gap", ["run", "--config", gap]),
        ("validate-noisy", ["validate", "--config", noisy]),
        ("rates-noisy", ["rates", "--config", noisy, "--seeds", "2"]),
        ("validate-split", ["validate", "--config", split]),
        ("run-split", ["run", "--config", split]),
    ]
    if horizon is None:
        return listed
    return [
        (label, argv if label in OWN_HORIZON else with_horizon(argv, horizon))
        for label, argv in listed
    ]


def with_horizon(argv: list[str], horizon: int) -> list[str]:
    """``argv`` with its ``--horizon`` set to ``horizon``."""
    if "--horizon" in argv:
        i = argv.index("--horizon")
        argv = argv[:i] + argv[i + 2 :]
    return [*argv, "--horizon", str(horizon)]


def run(src: str, argv: list[str], out: Path) -> tuple[int, bytes, bytes, dict]:
    """Exit code, masked stdout and stderr, and written files of one command
    on one tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "myopic_crowd.cli", *argv, "--out", str(out)],
        env=env,
        capture_output=True,
    )
    files = {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    mask = str(out).encode()
    return (
        done.returncode,
        done.stdout.replace(mask, b"<out>"),
        done.stderr.replace(mask, b"<out>"),
        files,
    )


def differences(label: str, parent, change) -> list[str]:
    """One line per difference between two :func:`run` results."""
    (code_a, *streams_a, files_a), (code_b, *streams_b, files_b) = parent, change
    found = []
    if code_a != code_b:
        found.append(f"{label}: exit code {code_a} against {code_b}")
    for name, a, b in zip(("stdout", "stderr"), streams_a, streams_b):
        if a != b:
            found.append(f"{label}: {name} differs")
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            side = "parent" if name in files_a else "change"
            found.append(f"{label}: {name} written by the {side} only")
        elif files_a[name] != files_b[name]:
            found.append(f"{label}: {name} differs")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="source directory of the parent tree")
    parser.add_argument("change_src", help="source directory of the changed tree")
    parser.add_argument(
        "--horizon", type=int, help="set every command's horizon but OWN_HORIZON's"
    )
    args = parser.parse_args(argv)
    srcs = [
        ("parent", str(Path(args.parent_src).resolve())),
        ("change", str(Path(args.change_src).resolve())),
    ]
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, command in commands(bench_configs(work), args.horizon):
            results = [run(src, command, work / side / label) for side, src in srcs]
            lines = differences(label, *results)
            print(f"{label}: {'DIFFERS' if lines else 'same'} (exit {results[0][0]})")
            found += lines
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
