"""Experiment configuration: one JSON document resolving to a runnable setup.

The document inlines or references the world and graph, lists the agents with
their scopes and posterior sources, and fixes the aggregation rule, horizon,
observation mode, seed, and output locations.  Resolution is deterministic:
the same document and seed always produce the same world, graph, and random
streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import AgentScope, make_scope
from .errors import ConfigError
from .network import AgentGraph, erdos_renyi_connected, read_edge_list
from .world import World, json_numbers, load_world, world_from_dict, world_to_dict

RULES = ("min", "avg", "max")
OBSERVATION_MODES = ("independent", "shared")

#: Fraction by which an empirical slope may fall short of the theoretical
#: rate and still count as meeting the bound.
RATE_SLACK = 0.2

#: Largest horizon a config may ask for: rounds 0..T must be indexable by a
#: numpy array dimension.
MAX_HORIZON = int(np.iinfo(np.intp).max) - 1


@dataclass(frozen=True)
class SourceSpec:
    """Which posterior source an agent uses: its posterior table (``bayes``,
    or ``noisy`` with the scope's γ) or a recorded stream (``replay``)."""

    kind: str = "bayes"
    replay_path: str | None = None

    def to_dict(self, scope: AgentScope) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "noisy":
            out["gamma"] = scope.gamma
        if self.kind == "replay":
            out["path"] = self.replay_path
        return out


def spawn_streams(seed: int, n_agents: int):
    """Deterministic random streams for one experiment.

    Returns (graph_rng, shared_rng, per_agent_rngs): one stream for graph
    generation, one for the shared observation mode, and one per agent for
    the independent mode.  Derived by spawning the master seed, so any
    consumer re-deriving with the same seed and agent count gets identical
    streams.
    """
    children = np.random.SeedSequence(seed).spawn(n_agents + 2)
    graph_rng = np.random.Generator(np.random.PCG64(children[0]))
    shared_rng = np.random.Generator(np.random.PCG64(children[1]))
    agent_rngs = [
        np.random.Generator(np.random.PCG64(c)) for c in children[2:]
    ]
    return graph_rng, shared_rng, agent_rngs


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully resolved experiment setup, checked once whenever one is made."""

    world: World
    scopes: list[AgentScope]
    sources: list[SourceSpec]
    graph: AgentGraph
    rule: str = "min"
    horizon: int = 500
    observation_mode: str = "independent"
    seed: int = 0
    rate_window: float = 0.5
    local_only: bool = False
    enforce_identifiability: bool = True
    out_dir: str | None = None
    raw: dict = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path)
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def n_agents(self) -> int:
        return len(self.scopes)

    def validate(self) -> None:
        if self.rule not in RULES:
            raise ConfigError(f"rule must be one of {RULES}, got {self.rule!r}")
        if self.observation_mode not in OBSERVATION_MODES:
            raise ConfigError(
                f"observation_mode must be one of {OBSERVATION_MODES}, "
                f"got {self.observation_mode!r}"
            )
        if self.horizon < 0:
            raise ConfigError(f"horizon must be >= 0, got {self.horizon}")
        if not 0.0 < self.rate_window <= 1.0:
            raise ConfigError(
                f"rate_window must be in (0, 1], got {self.rate_window}"
            )
        if len(self.scopes) != len(self.sources):
            raise ConfigError("each agent needs exactly one posterior source")
        if self.graph.n != len(self.scopes):
            raise ConfigError(
                f"graph has {self.graph.n} vertices for {len(self.scopes)} agents"
            )
        ids = [s.agent_id for s in self.scopes]
        if ids != list(range(len(ids))):
            raise ConfigError(
                f"agent ids must be contiguous from 0, got {ids}"
            )

    def derived(self, **changes) -> "ExperimentConfig":
        """Re-resolve this config from its source document with overrides
        applied on top of the current ones (e.g. a new seed or rule).

        Regenerates anything seed-dependent, such as a random graph.
        """
        merged = {**self.overrides, **changes}
        return config_from_dict(self.raw, base_dir=self.base_dir, **merged)

    def to_dict(self) -> dict:
        labels = self.world.classes.labels
        agents = []
        for scope, source in zip(self.scopes, self.sources):
            entry: dict = {
                "id": scope.agent_id,
                "classes": [labels[t] for t in scope.theta_i],
                "prior": [float(p) for p in scope.prior],
                "source": source.to_dict(scope),
            }
            if scope.likelihoods is not None:
                entry["likelihoods"] = [
                    [float(v) for v in row] for row in scope.likelihoods.rows
                ]
            agents.append(entry)
        return {
            "world": world_to_dict(self.world),
            "agents": agents,
            "graph": {
                "n": self.graph.n,
                "edges": [[u, v] for u, v in self.graph.edges()],
                "spec": self.raw.get("graph"),
            },
            "rule": self.rule,
            "horizon": self.horizon,
            "observation_mode": self.observation_mode,
            "seed": self.seed,
            "rate_window": self.rate_window,
            "local_only": self.local_only,
            "enforce_identifiability": self.enforce_identifiability,
        }


_TOP_KEYS = {
    "world",
    "agents",
    "graph",
    "rule",
    "horizon",
    "observation_mode",
    "seed",
    "rate_window",
    "local_only",
    "enforce_identifiability",
    "out_dir",
}

_AGENT_KEYS = {"id", "classes", "prior", "source", "likelihoods"}

#: The keys each type of graph object accepts.
_GRAPH_KEYS = {
    "file": {"type", "path"},
    "edges": {"type", "n", "edges"},
    "erdos_renyi": {"type", "n", "p", "max_retries"},
}

_OVERRIDE_KEYS = {
    "seed",
    "horizon",
    "rule",
    "out_dir",
    "local_only",
    "observation_mode",
}


def _resolve_world(doc, base_dir: Path) -> World:
    if isinstance(doc, str):
        return load_world(_path("world", doc, base_dir))
    return world_from_dict(doc)


def _resolve_source(entry, agent_id: int, base_dir: Path):
    """The agent's source spec and its noise level γ (0 unless noisy)."""
    if entry is None:
        return SourceSpec(), 0.0
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(
            f"agent {agent_id}: source must be an object with a 'kind'"
        )
    kind = entry["kind"]
    if kind == "bayes":
        extra = set(entry) - {"kind"}
    elif kind == "noisy":
        extra = set(entry) - {"kind", "gamma"}
    elif kind == "replay":
        extra = set(entry) - {"kind", "path"}
    else:
        raise ConfigError(
            f"agent {agent_id}: unknown source kind {kind!r} "
            "(expected bayes, noisy, or replay)"
        )
    if extra:
        raise ConfigError(f"agent {agent_id}: unknown source keys {sorted(extra)}")
    if kind == "noisy":
        gamma = _number(f"agent {agent_id}: gamma", entry.get("gamma", 0.0))
        return SourceSpec(kind="noisy"), gamma
    if kind == "replay":
        if "path" not in entry:
            raise ConfigError(f"agent {agent_id}: replay source needs a 'path'")
        path = _path(f"agent {agent_id}: replay path", entry["path"], base_dir)
        return SourceSpec(kind="replay", replay_path=str(path)), 0.0
    return SourceSpec(), 0.0


def _resolve_graph(doc, n_agents: int, seed: int, base_dir: Path) -> AgentGraph:
    if doc is None:
        raise ConfigError("config needs a 'graph' entry")
    kind = doc.get("type") if isinstance(doc, dict) else None
    if isinstance(kind, str) and kind in _GRAPH_KEYS:
        unknown = set(doc) - _GRAPH_KEYS[kind]
        if unknown:
            raise ConfigError(f"{kind} graph: unknown keys {sorted(unknown)}")
    # The vertex count is checked against the roster before anything is
    # built; only the ER draw is quadratic in n.
    if isinstance(doc, str):
        n, edges = read_edge_list(_path("graph", doc, base_dir))
    elif kind == "file":
        n, edges = read_edge_list(_path("file graph path", doc.get("path"), base_dir))
    elif kind in ("edges", "erdos_renyi"):
        n = _integer("graph n", doc.get("n", n_agents))
    else:
        raise ConfigError(
            "graph must be a file path or an object of type "
            "'file', 'edges', or 'erdos_renyi'"
        )
    if n != n_agents:
        raise ConfigError(
            f"graph has {n} vertices but the config lists {n_agents} agents"
        )
    if kind == "erdos_renyi":
        if "p" not in doc:
            raise ConfigError("erdos_renyi graph needs an edge probability 'p'")
        graph_rng, _, _ = spawn_streams(seed, n_agents)
        return erdos_renyi_connected(
            n,
            _number("graph p", doc["p"]),
            graph_rng,
            _integer("graph max_retries", doc.get("max_retries", 1000)),
        )
    if kind == "edges":
        edges = doc.get("edges", [])
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in edges
        ):
            raise ConfigError("edges graph: 'edges' must be a list of [u, v] pairs")
        edges = [[_integer("graph edge endpoint", v) for v in e] for e in edges]
    return AgentGraph.from_edges(n, edges)


def _path(key: str, value, base_dir: Path) -> Path:
    """A file path string, relative to the config file's directory."""
    if not isinstance(value, str) or "\0" in value:
        raise ConfigError(f"{key} must be a file path string, got {value!r}")
    return base_dir / value


def _integer(key: str, value) -> int:
    """A JSON integer, or a float with an integral value; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    """A JSON number (integer or float); never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _boolean(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def config_from_dict(doc: dict, base_dir=".", **overrides) -> ExperimentConfig:
    """Resolve a config document; keyword overrides replace document values."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    bad_over = set(overrides) - _OVERRIDE_KEYS
    if bad_over:
        raise ConfigError(f"unknown overrides {sorted(bad_over)}")
    overrides = {k: v for k, v in overrides.items() if v is not None}
    base_dir = Path(base_dir)

    def setting(key, default):
        return overrides.get(key, doc.get(key, default))

    if "world" not in doc:
        raise ConfigError("config needs a 'world' entry")
    world = _resolve_world(doc["world"], base_dir)

    agents_doc = doc.get("agents")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ConfigError("config needs a nonempty 'agents' list")
    entries = []
    for position, entry in enumerate(agents_doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"agent entry {position} must be an object")
        unknown = set(entry) - _AGENT_KEYS
        if unknown:
            raise ConfigError(
                f"agent entry {position}: unknown keys {sorted(unknown)}"
            )
        agent_id = _integer(f"agent entry {position}: id", entry.get("id", position))
        classes = entry.get("classes")
        if not isinstance(classes, list) or not all(
            isinstance(c, (str, int)) and not isinstance(c, bool) for c in classes
        ):
            raise ConfigError(
                f"agent {agent_id} needs a 'classes' list of labels or indices"
            )
        source, gamma = _resolve_source(entry.get("source"), agent_id, base_dir)
        if source.kind == "replay" and "prior" not in entry:
            raise ConfigError(
                f"agent {agent_id}: replay sources require an explicit 'prior' "
                "(it cannot be inferred from a recorded stream)"
            )
        numbers = {
            key: json_numbers(f"agent {agent_id}: {key}", entry[key], ndim)
            for key, ndim in (("prior", 1), ("likelihoods", 2))
            if entry.get(key) is not None
        }
        scope = make_scope(world, agent_id, classes, gamma=gamma, **numbers)
        entries.append((scope, source))
    entries.sort(key=lambda pair: pair[0].agent_id)
    scopes = [scope for scope, _ in entries]
    sources = [source for _, source in entries]

    seed = _integer("seed", setting("seed", 0))
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    horizon = _integer("horizon", setting("horizon", 500))
    if horizon > MAX_HORIZON:
        raise ConfigError(f"horizon must be at most {MAX_HORIZON}, got {horizon}")
    rate_window = _number("rate_window", setting("rate_window", 0.5))

    out_dir = setting("out_dir", None)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a directory path string, got {out_dir!r}")

    graph = _resolve_graph(doc.get("graph"), len(scopes), seed, base_dir)

    return ExperimentConfig(
        world=world,
        scopes=scopes,
        sources=sources,
        graph=graph,
        rule=str(setting("rule", "min")),
        horizon=horizon,
        observation_mode=str(setting("observation_mode", "independent")),
        seed=seed,
        rate_window=rate_window,
        local_only=_boolean("local_only", setting("local_only", False)),
        enforce_identifiability=_boolean(
            "enforce_identifiability", setting("enforce_identifiability", True)
        ),
        out_dir=out_dir,
        raw=doc,
        base_dir=base_dir,
        overrides=overrides,
    )


def load_config(path, **overrides) -> ExperimentConfig:
    """Load and resolve a JSON config file; see :func:`config_from_dict`."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from None
    return config_from_dict(doc, base_dir=path.parent, **overrides)
