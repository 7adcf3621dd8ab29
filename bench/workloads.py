"""Benchmark workloads: seeded input generation, command lines and output checks.

Each workload turns the benchmark seed into the config files the CLI reads
(``generate``), then into the commands to time and the invariants their
outputs must satisfy (``plan``).  The program under test only ever sees the
generated files and the command lines.

The checks test invariants rather than byte digests, so a change that
legitimately alters numbers (for instance a different floor rule) is not
counted as a failure.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Shipped three-agent reference config, relative to the checkout root.
W3_CONFIG = "configs/w3.json"

#: Alphabet size of every generated world.
N_SYMBOLS = 16

#: Redraws allowed for a covering roster or a connected graph.
MAX_DRAWS = 1000

#: `rates` must meet the rate bound on at least this share of triples.
RATES_PASS_FRACTION = 0.95


@dataclass(frozen=True)
class Spec:
    """Size of a generated world and roster."""

    n: int
    m: int
    horizon: int
    graph: str  # "erdos_renyi" (resolved by the program) or "edges"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Spec | None  # None: the shipped w3 config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-w3",
            "rates (20 seeds) then compare (5 seeds) at T=3000 on the shipped "
            "3-agent config: per-round Python overhead, config re-resolution, rate fits",
            None,
        ),
        Workload(
            "compare-n120",
            "compare on a 120-agent ER world: the min/avg/max pooling loop "
            "dominates and nothing large is written",
            Spec(n=120, m=20, horizon=150, graph="erdos_renyi"),
        ),
        Workload(
            "run-n50",
            "run on a 50-agent ER world: writing trajectories.csv dominates, "
            "beside the same simulation layer",
            Spec(n=50, m=16, horizon=300, graph="erdos_renyi"),
        ),
        Workload(
            "scores-n300",
            "scores on a 300-agent roster given as edges: the analytical "
            "score engine dominates",
            Spec(n=300, m=30, horizon=1, graph="edges"),
        ),
    )
}

RATES_SEEDS = 20
COMPARE_SEEDS = 5
SWEEP_HORIZON = 3000


def cli_seed(seed: int) -> int:
    """Non-negative seed handed to the program, derived from the bench seed."""
    return seed % 2**31


def _rng(name: str, seed: int) -> np.random.Generator:
    key = random.Random(f"{name}:{seed}").getrandbits(64)
    return np.random.default_rng(key)


def _scopes(rng: np.random.Generator, n: int, m: int) -> list[list[int]]:
    """Agent scopes holding 2..m/2 classes, resampled until every class pair
    is held by some agent.

    Scope sizes cycle through 2..m/2 so the number of score entries, and so
    the score engine's work, is the same for every seed.
    """
    sizes = [2 + i % (m // 2 - 1) for i in range(n)]
    for _ in range(MAX_DRAWS):
        order = rng.permutation(n)
        scopes = [
            sorted(rng.choice(m, size=sizes[order[i]], replace=False).tolist())
            for i in range(n)
        ]
        held = np.zeros((m, m), dtype=bool)
        for scope in scopes:
            held[np.ix_(scope, scope)] = True
        if held[np.triu_indices(m, 1)].all():
            return scopes
    raise ValueError(f"no roster of {n} agents covered every pair of {m} classes")


def _connected_edges(rng: np.random.Generator, n: int, p: float) -> list:
    """Edges of an Erdős–Rényi G(n, p) draw, redrawn until connected."""
    iu = np.triu_indices(n, 1)
    for _ in range(MAX_DRAWS):
        keep = rng.random(iu[0].size) < p
        edges = np.column_stack([iu[0][keep], iu[1][keep]])
        adj = [[] for _ in range(n)]
        for u, v in edges.tolist():
            adj[u].append(v)
            adj[v].append(u)
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return edges.tolist()
    raise ValueError(f"no connected draw of G({n}, {p})")


def er_probability(n: int) -> float:
    """Edge probability 2·ln n / n: connected with high probability, so
    rejection sampling stays short and set-up time does not swing with the
    seed."""
    return 2.0 * math.log(n) / n


def generate_config(spec: Spec, rng: np.random.Generator) -> dict:
    """A random world and roster: Dirichlet(1) likelihood rows, random scopes
    and true class, and an ER graph."""
    n, m = spec.n, spec.m
    classes = [f"c{k}" for k in range(m)]
    rows = rng.dirichlet(np.ones(N_SYMBOLS), size=m)
    true_class = int(rng.integers(m))
    scopes = _scopes(rng, n, m)
    p = er_probability(n)
    if spec.graph == "edges":
        graph = {"type": "edges", "n": n, "edges": _connected_edges(rng, n, p)}
    else:
        graph = {"type": "erdos_renyi", "n": n, "p": p}
    return {
        "world": {
            "classes": classes,
            "inputs": [f"x{j}" for j in range(N_SYMBOLS)],
            "likelihoods": rows.tolist(),
            "true_class": classes[true_class],
        },
        "agents": [
            {"id": i, "classes": [classes[k] for k in scope]}
            for i, scope in enumerate(scopes)
        ],
        "graph": graph,
        "rule": "min",
        "horizon": spec.horizon,
        "seed": int(rng.integers(2**31)),
        "observation_mode": "independent",
    }


def generate(name: str, seed: int, work_dir: Path) -> None:
    """Write the workload's generated config, if it has one, into work_dir."""
    spec = WORKLOADS[name].spec
    if spec is None:
        return
    doc = generate_config(spec, _rng(name, seed))
    (work_dir / f"{name}.json").write_text(json.dumps(doc) + "\n")


# -- commands and checks --------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv without ``--out``, plus how to judge it."""

    argv: list[str]
    check: Callable[[int, Path], list[str]]  # (exit code, out dir) -> problems
    agent_rounds: int  # Σ over experiments of n·T


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _expect_code(code: int, want: int = 0) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def check_rates(code: int, out: Path) -> list[str]:
    problems = _expect_code(code)
    if problems:
        return problems
    doc = _read_json(out / "rates.json")
    if not doc["pass_fraction"] >= RATES_PASS_FRACTION:
        problems.append(f"rates pass_fraction {doc['pass_fraction']} < 0.95")
    return problems


def check_compare(code: int, out: Path) -> list[str]:
    problems = _expect_code(code)
    if problems:
        return problems
    doc = _read_json(out / "compare.json")
    if sorted(doc) != ["avg", "max", "min"]:
        problems.append(f"compare rules {sorted(doc)}, expected avg/max/min")
    elif doc["min"]["runs_fully_identified"] != doc["min"]["runs"]:
        problems.append(
            f"min rule identified {doc['min']['runs_fully_identified']}"
            f"/{doc['min']['runs']} runs"
        )
    return problems


def _count_rows(path: Path) -> int:
    """Data rows of a CSV file with a header line."""
    with open(path, "rb") as f:
        newlines = sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))
    return newlines - 1


def make_check_run(n: int, m: int, horizon: int):
    def check_run(code: int, out: Path) -> list[str]:
        problems = _expect_code(code)
        if problems:
            return problems
        rows = _count_rows(out / "trajectories.csv")
        if rows != (horizon + 1) * n * m:
            problems.append(
                f"trajectories.csv has {rows} rows, expected {(horizon + 1) * n * m}"
            )
        rows = _count_rows(out / "posteriors.csv")
        if rows != n * horizon:
            problems.append(f"posteriors.csv has {rows} rows, expected {n * horizon}")
        times = _read_json(out / "summary.json")["identification_time"]
        missing = [i for i in range(n) if times.get(str(i), {}).get("sustained") is None]
        if missing:
            problems.append(f"agents {missing[:5]} never identified the true class")
        return problems

    return check_run


def make_check_scores(scope_sizes: list[int]):
    def check_scores(code: int, out: Path) -> list[str]:
        problems = _expect_code(code)
        if problems:
            return problems
        doc = _read_json(out / "scores.json")
        disc = {(r["agent"], r["theta_p"], r["theta_q"]): r["nats"] for r in doc["discriminative"]}
        asym = [k for k, v in disc.items() if disc.get((k[0], k[2], k[1])) != -v]
        if asym:
            problems.append(f"discriminative scores not antisymmetric at {asym[0]}")
        entries = len(doc["discriminative"]) + len(doc["confusion"])
        want = sum(k * (k - 1) for k in scope_sizes)
        if entries != want:
            problems.append(f"{entries} score entries, expected {want}")
        star = doc["true_class"]
        sources = {(r["theta_p"], r["theta_q"]): r["agents"] for r in doc["source_sets"]}
        supports = {r["theta"]: r["agents"] for r in doc["support_sets"]}
        for row in doc["best_rate"]:
            theta, agent = row["theta"], row["agent"]
            allowed = sources.get((star, theta), []) + supports.get(theta, [])
            if agent is None or agent not in allowed:
                problems.append(f"best rate for {theta} attained by agent {agent}")
        return problems

    return check_scores


def plan(name: str, seed: int, work_dir: Path, root: Path) -> tuple[Path, list[Command]]:
    """The config the workload reads and the commands it runs, in order."""
    generated = WORKLOADS[name].spec is not None
    config = work_dir / f"{name}.json" if generated else root / W3_CONFIG
    c = str(config)
    if name == "sweep-w3":
        n = len(_read_json(config)["agents"])
        common = ["--config", c, "--seed", str(cli_seed(seed)), "--horizon", str(SWEEP_HORIZON)]
        return config, [
            Command(["rates", *common, "--seeds", str(RATES_SEEDS)], check_rates,
                    RATES_SEEDS * n * SWEEP_HORIZON),
            Command(["compare", *common, "--seeds", str(COMPARE_SEEDS)], check_compare,
                    3 * COMPARE_SEEDS * n * SWEEP_HORIZON),
        ]
    doc = _read_json(config)
    n, m, horizon = len(doc["agents"]), len(doc["world"]["classes"]), doc["horizon"]
    if name == "compare-n120":
        cmd = Command(["compare", "--config", c, "--seeds", "1"], check_compare, 3 * n * horizon)
    elif name == "run-n50":
        cmd = Command(["run", "--config", c], make_check_run(n, m, horizon), n * horizon)
    else:
        sizes = [len(a["classes"]) for a in doc["agents"]]
        cmd = Command(["scores", "--config", c], make_check_scores(sizes), 0)
    return config, [cmd]
