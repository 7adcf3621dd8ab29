"""Experiment configuration: one JSON document resolving to a runnable setup.

The document inlines or references the world and graph, lists the agents,
each resolved to one scope that also says where its posteriors come from,
and sets the run settings (rule, horizon, seed and the rest).  Each setting
is declared once, as a field of :class:`ExperimentConfig` with its default;
document keys, overrides, :meth:`ExperimentConfig.derived` and the manifest
all read that table.  Every object in the document refuses keys it does not
know.  Resolution is deterministic: the same document and seed always
produce the same world, graph, and random streams.

What no setting changes, the :class:`Roster`, is resolved once per document
and shared by every config derived from it, score report included.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .classifier import AgentScope, make_scope
from .errors import ConfigError
from .network import AgentGraph, erdos_renyi_connected, is_connected, read_edge_list
from .scores import ScoreReport, score_report
from .world import (
    World, check_keys, json_numbers, load_world, read_json, world_from_dict,
    world_to_dict,
)

RULES = ("min", "avg", "max")
OBSERVATION_MODES = ("independent", "shared")

#: Fraction by which an empirical slope may fall short of the theoretical
#: rate and still count as meeting the bound.
RATE_SLACK = 0.2

#: Largest horizon a config may ask for: rounds 0..T must be indexable by a
#: numpy array dimension.
MAX_HORIZON = int(np.iinfo(np.intp).max) - 1


def stream(seed: int, key: int) -> np.random.Generator:
    """Random stream ``key`` of ``seed``: 0 draws the ER graph, 1 the shared
    observations and 2 + i agent i's.  It is child ``key`` of
    ``SeedSequence(seed).spawn``, built without its siblings."""
    child = np.random.SeedSequence(seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(child))


@dataclass(frozen=True, eq=False)
class Roster:
    """What every run of a document shares: the world, the agents' scopes
    (each with its source) in id order, the graph entry and its graph unless
    a seed draws it (None for ER), and the score report and graph check."""

    world: World
    scopes: list[AgentScope]
    graph_doc: object
    graph: AgentGraph | None

    @cached_property
    def report(self) -> ScoreReport:
        return score_report(self.world, self.scopes)

    @cached_property
    def connected(self) -> bool:
        # A drawn graph is connected: erdos_renyi_connected draws no other.
        return self.graph is None or is_connected(self.graph)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully resolved experiment setup, checked once whenever one is made."""

    roster: Roster
    graph: AgentGraph
    # The run settings, each a document key and an override (see _SETTINGS).
    rule: str = "min"
    horizon: int = 500
    observation_mode: str = "independent"
    seed: int = 0
    rate_window: float = 0.5
    local_only: bool = False
    enforce_identifiability: bool = True
    out_dir: str | None = None

    def __post_init__(self) -> None:
        self.validate()

    world = property(lambda self: self.roster.world)
    scopes = property(lambda self: self.roster.scopes)

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
        _natural("seed", self.seed)
        _natural("horizon", self.horizon, MAX_HORIZON)
        _boolean("local_only", self.local_only)
        _boolean("enforce_identifiability", self.enforce_identifiability)
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(
                f"out_dir must be a directory path string, got {self.out_dir!r}"
            )
        if not 0.0 < _number("rate_window", self.rate_window) <= 1.0:
            raise ConfigError(
                f"rate_window must be in (0, 1], got {self.rate_window}"
            )
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
        """This config with ``changes`` to its settings (e.g. a new seed or
        rule), checked as by :func:`dataclasses.replace`.  The roster is
        reused; only an ER graph, which names no file, is drawn again."""
        check_keys("overrides", changes, _SETTINGS)
        config = replace(self, **changes)
        graph = self.roster.graph or _resolve_graph(
            self.roster.graph_doc, self.n_agents, config.seed, Path()
        )
        return replace(config, graph=graph)

    def to_dict(self) -> dict:
        labels = self.world.classes.labels
        agents = []
        for scope in self.scopes:
            source: dict = {"kind": scope.source}
            if scope.source == "noisy":
                source["gamma"] = scope.gamma
            if scope.source == "replay":
                source["path"] = scope.replay_path
            entry: dict = {
                "id": scope.agent_id,
                "classes": [labels[t] for t in scope.theta_i],
                "prior": [float(p) for p in scope.prior],
                "source": source,
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
                "spec": self.roster.graph_doc,
            },
            # out_dir is left out: a manifest does not depend on where it is written.
            **{key: getattr(self, key) for key in _SETTINGS if key != "out_dir"},
        }


#: Each run setting's default: every field but the roster and the graph.
_SETTINGS = {
    f.name: f.default
    for f in fields(ExperimentConfig)
    if f.name not in ("roster", "graph")
}

_TOP_KEYS = {"world", "agents", "graph", *_SETTINGS}

_AGENT_KEYS = {"id", "classes", "prior", "source", "likelihoods"}

#: The keys each type of graph object accepts.
_GRAPH_KEYS = {
    "file": {"type", "path"},
    "edges": {"type", "n", "edges"},
    "erdos_renyi": {"type", "n", "p", "max_retries"},
}

#: The keys each kind of source object accepts.
_SOURCE_KEYS = {
    "bayes": {"kind"},
    "noisy": {"kind", "gamma"},
    "replay": {"kind", "path"},
}


def _resolve_world(doc, base_dir: Path) -> World:
    if isinstance(doc, str):
        return load_world(_path("world", doc, base_dir))
    return world_from_dict(doc)


def _resolve_source(entry, agent_id: int, base_dir: Path) -> dict:
    """The agent's source kind, γ and replay path as :func:`make_scope` keywords."""
    if entry is None:
        return {}
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"agent {agent_id}: source must be an object with a 'kind'")
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in _SOURCE_KEYS:
        raise ConfigError(
            f"agent {agent_id}: unknown source kind {kind!r} "
            "(expected bayes, noisy, or replay)"
        )
    check_keys(f"agent {agent_id}: {kind} source", entry, _SOURCE_KEYS[kind])
    if kind == "noisy":
        gamma = _number(f"agent {agent_id}: gamma", entry.get("gamma", 0.0))
        return {"source": kind, "gamma": gamma}
    if kind == "replay":
        if "path" not in entry:
            raise ConfigError(f"agent {agent_id}: replay source needs a 'path'")
        path = _path(f"agent {agent_id}: replay path", entry["path"], base_dir)
        return {"source": kind, "replay_path": str(path)}
    return {}


def _resolve_graph(doc, n_agents: int, seed: int, base_dir: Path) -> AgentGraph:
    if doc is None:
        raise ConfigError("config needs a 'graph' entry")
    kind = doc.get("type") if isinstance(doc, dict) else None
    if isinstance(kind, str) and kind in _GRAPH_KEYS:
        check_keys(f"{kind} graph", doc, _GRAPH_KEYS[kind])
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
        p = _number("graph p", doc["p"])
        retries = _integer("graph max_retries", doc.get("max_retries", 1000))
        if retries < 1:
            raise ConfigError(f"graph max_retries must be at least 1, got {retries}")
        return erdos_renyi_connected(n, p, stream(seed, 0), retries)
    if kind == "edges":
        edges = doc.get("edges", [])
        # Each list's types are read at once.
        pairs = isinstance(edges, list) and {list}.issuperset(map(type, edges))
        if not pairs or not {2}.issuperset(map(len, edges)):
            raise ConfigError("edges graph: 'edges' must be a list of [u, v] pairs")
        if not {int}.issuperset(map(type, chain.from_iterable(edges))):
            edges = [[_integer("graph edge endpoint", v) for v in e] for e in edges]
    # One int array, unless an endpoint is too large and from_edges must name it.
    with suppress(OverflowError):
        edges = np.fromiter(chain.from_iterable(edges), np.int64).reshape(-1, 2)
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


def _boolean(key: str, value) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")


def _natural(key: str, value, most: int | None = None) -> None:
    """An int in [0, most]; never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigError(f"{key} must be >= 0, got {value}")
    if most is not None and value > most:
        raise ConfigError(f"{key} must be at most {most}, got {value}")


def config_from_dict(doc: dict, base_dir=".", **overrides) -> ExperimentConfig:
    """Resolve a config document; keyword overrides replace document values."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    check_keys("config", doc, _TOP_KEYS)
    check_keys("overrides", overrides, _SETTINGS)
    settings = _SETTINGS | {k: doc[k] for k in _SETTINGS.keys() & doc}
    settings |= {k: v for k, v in overrides.items() if v is not None}
    base_dir = Path(base_dir)

    if "world" not in doc:
        raise ConfigError("config needs a 'world' entry")
    world = _resolve_world(doc["world"], base_dir)

    # The roster, an agent at a time in document order; the first fault raises.
    agents_doc = doc.get("agents")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ConfigError("config needs a nonempty 'agents' list")
    scopes = []
    for position, entry in enumerate(agents_doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"agent entry {position} must be an object")
        check_keys(f"agent entry {position}", entry, _AGENT_KEYS)
        agent_id = _integer(f"agent entry {position}: id", entry.get("id", position))
        classes = entry.get("classes")
        if not isinstance(classes, list) or not {str, int}.issuperset(map(type, classes)):
            raise ConfigError(
                f"agent {agent_id} needs a 'classes' list of labels or indices"
            )
        source = _resolve_source(entry.get("source"), agent_id, base_dir)
        if source.get("source") == "replay" and "prior" not in entry:
            raise ConfigError(
                f"agent {agent_id}: replay sources require an explicit 'prior' "
                "(it cannot be inferred from a recorded stream)"
            )
        numbers = {
            key: json_numbers(f"agent {agent_id}: {key}", entry[key], ndim)
            for key, ndim in (("prior", 1), ("likelihoods", 2))
            if entry.get(key) is not None
        }
        scopes.append(make_scope(world, agent_id, classes, **source, **numbers))
    scopes.sort(key=lambda scope: scope.agent_id)

    # The seed draws an ER graph before the config can check itself.
    settings["seed"] = seed = _integer("seed", settings["seed"])
    _natural("seed", seed)
    graph_doc = doc.get("graph")
    graph = _resolve_graph(graph_doc, len(scopes), seed, base_dir)
    settings["horizon"] = _integer("horizon", settings["horizon"])
    settings["rate_window"] = _number("rate_window", settings["rate_window"])
    drawn = isinstance(graph_doc, dict) and graph_doc["type"] == "erdos_renyi"
    roster = Roster(world, scopes, graph_doc, None if drawn else graph)
    return ExperimentConfig(roster, graph, **settings)


def load_config(path, **overrides) -> ExperimentConfig:
    """Load and resolve a JSON config file; see :func:`config_from_dict`."""
    path = Path(path)
    doc = read_json(path, "config")
    return config_from_dict(doc, base_dir=path.parent, **overrides)
