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
from .network import AgentGraph, erdos_renyi_connected, load_graph
from .world import World, load_world, world_from_dict, world_to_dict

RULES = ("min", "avg", "max")
OBSERVATION_MODES = ("independent", "shared")

#: Fraction by which an empirical slope may fall short of the theoretical
#: rate and still count as meeting the bound.
RATE_SLACK = 0.2


@dataclass(frozen=True)
class SourceSpec:
    """Which posterior source an agent uses."""

    kind: str = "bayes"
    gamma: float = 0.0
    replay_path: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "noisy":
            out["gamma"] = self.gamma
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


@dataclass(eq=False)
class ExperimentConfig:
    """Fully resolved experiment setup."""

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

    def reseeded(self, seed: int) -> "ExperimentConfig":
        return self.derived(seed=seed)

    def to_dict(self) -> dict:
        labels = self.world.classes.labels
        agents = []
        for scope, source in zip(self.scopes, self.sources):
            entry: dict = {
                "id": scope.agent_id,
                "classes": [labels[t] for t in scope.theta_i],
                "prior": [float(p) for p in scope.prior],
                "source": source.to_dict(),
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
        return load_world(base_dir / doc)
    return world_from_dict(doc)


def _resolve_source(entry, agent_id: int, base_dir: Path) -> SourceSpec:
    if entry is None:
        return SourceSpec()
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
        gamma = float(entry.get("gamma", 0.0))
        if not 0.0 <= gamma < 1.0:
            raise ConfigError(
                f"agent {agent_id}: noise level gamma must be in [0, 1), "
                f"got {gamma}"
            )
        return SourceSpec(kind="noisy", gamma=gamma)
    if kind == "replay":
        if "path" not in entry:
            raise ConfigError(f"agent {agent_id}: replay source needs a 'path'")
        return SourceSpec(kind="replay", replay_path=str(base_dir / entry["path"]))
    return SourceSpec()


def _resolve_graph(doc, n_agents: int, seed: int, base_dir: Path) -> AgentGraph:
    if doc is None:
        raise ConfigError("config needs a 'graph' entry")
    if isinstance(doc, str):
        graph = load_graph(base_dir / doc)
    elif isinstance(doc, dict) and doc.get("type") == "file":
        graph = load_graph(base_dir / doc["path"])
    elif isinstance(doc, dict) and doc.get("type") == "edges":
        graph = AgentGraph.from_edges(doc.get("n", n_agents), doc.get("edges", []))
    elif isinstance(doc, dict) and doc.get("type") == "erdos_renyi":
        graph_rng, _, _ = spawn_streams(seed, n_agents)
        graph = erdos_renyi_connected(
            int(doc.get("n", n_agents)),
            float(doc["p"]),
            graph_rng,
            int(doc.get("max_retries", 1000)),
        )
    else:
        raise ConfigError(
            "graph must be a file path or an object of type "
            "'file', 'edges', or 'erdos_renyi'"
        )
    if graph.n != n_agents:
        raise ConfigError(
            f"graph has {graph.n} vertices but the config lists {n_agents} agents"
        )
    return graph


def _integer(key: str, value) -> int:
    """A JSON integer, or a float with an integral value; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


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
        agent_id = int(entry.get("id", position))
        if "classes" not in entry:
            raise ConfigError(f"agent {agent_id} needs a 'classes' list")
        source = _resolve_source(entry.get("source"), agent_id, base_dir)
        if source.kind == "replay" and "prior" not in entry:
            raise ConfigError(
                f"agent {agent_id}: replay sources require an explicit 'prior' "
                "(it cannot be inferred from a recorded stream)"
            )
        scope = make_scope(
            world,
            agent_id,
            entry["classes"],
            prior=entry.get("prior"),
            likelihoods=entry.get("likelihoods"),
        )
        entries.append((scope, source))
    entries.sort(key=lambda pair: pair[0].agent_id)
    scopes = [scope for scope, _ in entries]
    sources = [source for _, source in entries]

    seed = _integer("seed", setting("seed", 0))
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    horizon = _integer("horizon", setting("horizon", 500))
    try:
        rate_window = float(setting("rate_window", 0.5))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad numeric setting: {e}") from None

    graph = _resolve_graph(doc.get("graph"), len(scopes), seed, base_dir)

    config = ExperimentConfig(
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
        out_dir=setting("out_dir", None),
        raw=doc,
        base_dir=base_dir,
        overrides=overrides,
    )
    config.validate()
    return config


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
