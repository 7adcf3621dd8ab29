"""Experiment configuration: parsing, validation, overrides, stream spawning."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myopic_crowd import config as config_module
from myopic_crowd.classifier import make_scope
from myopic_crowd.cli import main
from myopic_crowd.config import (
    MAX_HORIZON,
    ExperimentConfig,
    _integer,
    config_from_dict,
    load_config,
    stream,
)
from myopic_crowd.errors import ConfigError, MyopicCrowdError, ParseError
from myopic_crowd.network import AgentGraph, erdos_renyi_connected, is_connected

import oracles
from conftest import W3_CLASSES, w3_doc


def test_w3_config_resolves(w3_config):
    assert w3_config.n_agents == 3
    assert w3_config.rule == "min"
    assert w3_config.horizon == 500
    assert w3_config.seed == 7
    assert w3_config.world.m == 3
    assert w3_config.graph.edges() == [(0, 1), (1, 2)]
    assert [s.source for s in w3_config.scopes] == ["bayes"] * 3
    w3_config.validate()


def test_defaults():
    doc = w3_doc()
    del doc["rule"], doc["horizon"], doc["seed"]
    config = config_from_dict(doc)
    assert config.rule == "min"
    assert config.horizon >= 1
    assert config.observation_mode == "independent"
    assert config.rate_window == 0.5
    assert config.local_only is False


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(banana=1))


def test_unknown_agent_key_rejected():
    doc = w3_doc()
    doc["agents"][0]["flavor"] = "salty"
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_bad_rule_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(rule="median"))


def test_bad_horizon_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(horizon=-1))


@pytest.mark.parametrize(
    "settings",
    [
        {"seed": -1},
        {"seed": True},
        {"seed": 1.5},
        {"seed": "7"},
        {"horizon": True},
        {"horizon": 2.7},
        {"horizon": "500"},
        {"local_only": "false"},
        {"local_only": 0},
        {"enforce_identifiability": "false"},
        {"enforce_identifiability": 1},
    ],
)
def test_mistyped_settings_rejected(settings):
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(**settings))


def test_negative_seed_override_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(), seed=-1)


def test_integral_float_settings_accepted():
    config = config_from_dict(w3_doc(seed=3.0, horizon=40.0))
    assert (config.seed, config.horizon) == (3, 40)
    assert isinstance(config.horizon, int)


def test_bad_rate_window_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(rate_window=0.0))
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(rate_window=1.5))


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_rate_window_must_be_a_number(value):
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(rate_window=value))


def test_rate_window_accepts_json_numbers():
    assert config_from_dict(w3_doc(rate_window=1)).rate_window == 1.0
    assert config_from_dict(w3_doc(rate_window=0.25)).rate_window == 0.25


@pytest.mark.parametrize(
    "graph",
    [
        {"type": "edges", "n": 3, "edges": [[0, 1], [1, 2]], "p": 0.5},
        {"type": "edges", "n": 3, "edge": [[0, 1], [1, 2]]},
        {"type": "erdos_renyi", "p": 0.5, "edges": [[0, 1]]},
        {"type": "erdos_renyi", "p": 0.5, "seed": 3},
        {"type": "file", "path": "net.txt", "n": 3},
        {"type": "erdos_renyi"},
        {"type": "erdos_renyi", "p": "0.5"},
        {"type": "erdos_renyi", "p": 0.5, "n": True},
        {"type": "erdos_renyi", "p": 0.5, "max_retries": 2.5},
        {"type": "edges", "n": "3", "edges": [[0, 1], [1, 2]]},
        {"type": "file"},
        {"type": ["edges"]},
        {"n": 3, "edges": [[0, 1], [1, 2]]},
    ],
)
def test_bad_graph_object_rejected(tmp_path, graph):
    (tmp_path / "net.txt").write_text("3\n0 1\n1 2\n")
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(graph=graph), base_dir=tmp_path)


@pytest.mark.parametrize("retries", [0, -1])
def test_er_graph_needs_a_retry(retries):
    graph = {"type": "erdos_renyi", "p": 0.5, "max_retries": retries}
    with pytest.raises(ConfigError, match="graph max_retries must be at least 1"):
        config_from_dict(w3_doc(graph=graph))


def test_graph_objects_of_each_type_accepted(tmp_path):
    (tmp_path / "net.txt").write_text("3\n0 1\n1 2\n")
    for graph in [
        {"type": "file", "path": "net.txt"},
        {"type": "edges", "n": 3, "edges": [[0, 1], [1, 2]]},
        {"type": "erdos_renyi", "n": 3, "p": 0.9, "max_retries": 50},
    ]:
        config = config_from_dict(w3_doc(graph=graph), base_dir=tmp_path)
        assert config.graph.n == 3


@pytest.mark.parametrize(
    "edges",
    [
        [[0.9, 1.2], [True, 2]],
        [[0, 1], [1, True]],
        [[0, 1], [1, 2.5]],
        [["0", 1], [1, 2]],
        [[0, 1], [1, None]],
        [[0, 1, 2]],
        [[0], [1, 2]],
        [[0, 1], 2],
        {"0": 1},
        "0-1,1-2",
    ],
)
def test_bad_edge_entries_rejected(edges):
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(graph={"type": "edges", "n": 3, "edges": edges}))


def test_bad_edge_entries_exit_one(tmp_path, capsys):
    path = tmp_path / "loose.json"
    edges = [[0.9, 1.2], [True, 2]]
    path.write_text(json.dumps(w3_doc(graph={"type": "edges", "n": 3, "edges": edges})))
    assert main(["validate", "--config", str(path)]) == 1
    assert "graph edge endpoint must be an integer" in capsys.readouterr().err


def test_integral_float_edge_endpoints_accepted():
    graph = {"type": "edges", "n": 3, "edges": [[0, 1.0], [1, 2]]}
    assert config_from_dict(w3_doc(graph=graph)).graph.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize("agent_id", ["x", "0", 0.5, True, None])
def test_mistyped_agent_id_rejected(agent_id):
    doc = w3_doc()
    doc["agents"][0]["id"] = agent_id
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_noncontiguous_agent_ids_rejected():
    doc = w3_doc()
    doc["agents"][2]["id"] = 7
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_graph_size_must_match_agent_count():
    doc = w3_doc()
    doc["graph"] = {"type": "edges", "n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_replay_requires_explicit_prior(tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text(
        "round,agent_id,theta0,theta1,theta2\n1,0,0.8,0.2,\n"
    )
    doc = w3_doc()
    doc["agents"][0]["source"] = {"kind": "replay", "path": stream.name}
    with pytest.raises(ConfigError):
        config_from_dict(doc, base_dir=tmp_path)
    # With the prior pinned the same document resolves.
    doc["agents"][0]["prior"] = [0.5, 0.5]
    config = config_from_dict(doc, base_dir=tmp_path)
    assert config.scopes[0].source == "replay"


def test_noisy_source_gamma_checked():
    doc = w3_doc()
    doc["agents"][0]["source"] = {"kind": "noisy", "gamma": 1.2}
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_overrides_applied():
    config = config_from_dict(w3_doc(), seed=11, horizon=42, rule="avg")
    assert config.seed == 11
    assert config.horizon == 42
    assert config.rule == "avg"


def test_unknown_override_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(w3_doc(), pressure="high")


def test_derived_changes_only_requested_fields(w3_config):
    changed = w3_config.derived(rule="max")
    assert changed.rule == "max"
    assert changed.seed == w3_config.seed
    assert changed.horizon == w3_config.horizon
    assert changed.graph.edges() == w3_config.graph.edges()
    assert changed.graph.neighborhoods == w3_config.graph.neighborhoods


def test_derived_new_seed_keeps_other_fields(w3_config):
    clone = w3_config.derived(seed=123)
    assert clone.seed == 123
    assert clone.rule == w3_config.rule


def test_derived_keeps_a_replaced_field(w3_config):
    assert replace(w3_config, rule="max").derived(seed=9).rule == "max"


#: A valid value, other than its default and w3's, for every run setting.
_SETTING_VALUES = {
    "rule": "max",
    "horizon": 42,
    "observation_mode": "shared",
    "seed": 9,
    "rate_window": 0.3,
    "local_only": True,
    "enforce_identifiability": False,
    "out_dir": "elsewhere",
}

#: Every field of a config that is a run setting: all but the roster and the
#: graph.
_SETTINGS = [f for f in fields(ExperimentConfig) if f.name not in ("roster", "graph")]


@pytest.mark.parametrize("setting", _SETTINGS, ids=lambda f: f.name)
def test_every_setting_is_read_and_written(w3_config, tmp_path, setting):
    name, value = setting.name, _SETTING_VALUES[setting.name]
    assert value not in (setting.default, getattr(w3_config, name))
    # derived keeps the replaced value while it changes another setting.
    other = "horizon" if name == "seed" else "seed"
    changes = {other: _SETTING_VALUES[other]}
    clone = replace(w3_config, **{name: value}).derived(**changes)
    assert getattr(clone, name) == value
    assert getattr(clone, other) == changes[other]
    # The setting is a document key and a load_config override.
    assert getattr(config_from_dict(w3_doc(**{name: value})), name) == value
    path = tmp_path / "w3.json"
    path.write_text(json.dumps(w3_doc()))
    config = load_config(path, **{name: value})
    assert getattr(config, name) == value
    # The manifest writes every setting but the output directory.
    if name == "out_dir":
        assert name not in config.to_dict()
    else:
        assert config.to_dict()[name] == value


def test_derived_keeps_replaced_identifiability_and_rate_window(w3_config):
    config = replace(w3_config, enforce_identifiability=False, rate_window=0.3)
    clone = config.derived(seed=9)
    assert (clone.enforce_identifiability, clone.rate_window, clone.seed) == (
        False, 0.3, 9
    )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", 3.0, "seed must be an integer, got 3.0"),
        ("seed", True, "seed must be an integer, got True"),
        ("horizon", -1, "horizon must be >= 0, got -1"),
        ("horizon", 2.5, "horizon must be an integer, got 2.5"),
        ("horizon", MAX_HORIZON + 1, f"horizon must be at most {MAX_HORIZON}"),
        ("local_only", "no", "local_only must be true or false, got 'no'"),
        ("local_only", 1, "local_only must be true or false, got 1"),
        (
            "enforce_identifiability",
            None,
            "enforce_identifiability must be true or false, got None",
        ),
        ("out_dir", 5, "out_dir must be a directory path string, got 5"),
        ("rate_window", "x", "rate_window must be a number, got 'x'"),
    ],
)
def test_replace_checks_the_field(w3_config, field, value, message):
    # A config checks itself however it is made, in config_from_dict's words.
    with pytest.raises(ConfigError, match=message):
        replace(w3_config, **{field: value})
    if value == 3.0:
        # A document may spell an integer 3.0; a resolved field may not.
        assert config_from_dict(w3_doc(**{field: value})).seed == 3
        return
    with pytest.raises(ConfigError, match=message):
        config_from_dict(w3_doc(**{field: value}))


def _er_doc(n: int) -> dict:
    doc = w3_doc()
    doc["agents"] = [
        {"id": i, "classes": ["theta0", "theta1", "theta2"]} for i in range(n)
    ]
    doc["graph"] = {"type": "erdos_renyi", "p": 0.5}
    return doc


def test_er_graph_config_depends_on_seed():
    doc = _er_doc(5)
    c1 = config_from_dict(doc, seed=1)
    c2 = config_from_dict(doc, seed=1)
    c3 = config_from_dict(doc, seed=2)
    assert c1.graph.edges() == c2.graph.edges()
    assert c1.graph.neighborhoods == c2.graph.neighborhoods
    assert is_connected(c1.graph)
    assert c3.graph.n == 5
    # Re-deriving with a new seed regenerates the random graph.
    r = c1.derived(seed=2)
    assert r.graph.edges() == c3.graph.edges()
    assert r.graph.neighborhoods == c3.graph.neighborhoods


@pytest.mark.parametrize("seed, n", [(0, 2), (5, 7), (123456, 12), (2**31 - 1, 30)])
def test_er_graph_is_drawn_from_the_graph_stream(seed, n):
    expected = erdos_renyi_connected(n, 0.5, oracles.spawned_streams(seed, n)[0])
    graph = config_from_dict(_er_doc(n), seed=seed).graph
    assert graph.edges() == expected.edges()
    assert graph.neighborhoods == expected.neighborhoods


def test_resolving_an_er_config_builds_one_generator(monkeypatch):
    """The graph needs one stream; spawning every agent's stream to keep
    the first once cost n + 2 generators per resolution."""
    built = []

    class CountingPCG64(np.random.PCG64):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
    config_from_dict(_er_doc(40), seed=3)
    assert len(built) == 1


def test_graph_file_reference(tmp_path):
    gfile = tmp_path / "net.txt"
    gfile.write_text("3\n0 1\n1 2\n")
    doc = w3_doc(graph=str(gfile.name))
    config = config_from_dict(doc, base_dir=tmp_path)
    assert config.graph.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize("as_object", [False, True])
def test_graph_file_size_checked_before_the_graph_is_built(
    tmp_path, monkeypatch, as_object
):
    gfile = tmp_path / "net.txt"
    gfile.write_text("4\n0 1\n1 2\n2 3\n")
    graph = {"type": "file", "path": gfile.name} if as_object else gfile.name

    def refuse(*args, **kwargs):
        raise AssertionError("graph built before its size was checked")

    monkeypatch.setattr(AgentGraph, "from_edges", refuse)
    with pytest.raises(ConfigError, match="graph has 4 vertices but the config"):
        config_from_dict(w3_doc(graph=graph), base_dir=tmp_path)


def test_world_file_reference(tmp_path):
    wfile = tmp_path / "world.json"
    doc = w3_doc()
    wfile.write_text(json.dumps(doc["world"]))
    doc["world"] = wfile.name
    config = config_from_dict(doc, base_dir=tmp_path)
    assert config.world.m == 3


def test_load_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(w3_doc()))
    config = load_config(path)
    assert config.n_agents == 3


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_too_deeply_nested_json(tmp_path):
    # The parser's recursion limit is a config error naming the file, for a
    # config file and for a world file it names.
    deep = "[" * 100_000 + "]" * 100_000
    (tmp_path / "deep.json").write_text(deep)
    with pytest.raises(ConfigError, match="cannot read config file .*deep.json"):
        load_config(tmp_path / "deep.json")
    (tmp_path / "w.json").write_text(json.dumps(w3_doc(world="deep.json")))
    with pytest.raises(ConfigError, match="cannot read world file .*deep.json"):
        load_config(tmp_path / "w.json")


def test_manifest_dict_round_trips(w3_config):
    doc = w3_config.to_dict()
    json.loads(json.dumps(doc))
    assert doc["seed"] == 7
    assert doc["rule"] == "min"
    # The output directory is not part of what reproduces a run.
    assert "out_dir" not in doc
    assert doc["graph"]["edges"] == [[0, 1], [1, 2]]


def test_each_source_kind_round_trips_through_the_manifest(tmp_path, capsys):
    stream = tmp_path / "stream.csv"
    stream.write_text("round,agent_id,theta0,theta1,theta2\n1,2,0.8,,0.2\n")
    doc = w3_doc(horizon=1)
    doc["agents"][0]["source"] = {"kind": "bayes"}
    # A noisy source without a gamma is noisy at gamma 0.
    doc["agents"][1]["source"] = {"kind": "noisy"}
    doc["agents"][2]["source"] = {"kind": "replay", "path": "stream.csv"}
    doc["agents"][2]["prior"] = [0.5, 0.5]
    (tmp_path / "config.json").write_text(json.dumps(doc))
    config = load_config(tmp_path / "config.json")
    agents = config.to_dict()["agents"]
    assert [a["source"] for a in agents] == [
        {"kind": "bayes"},
        {"kind": "noisy", "gamma": 0.0},
        {"kind": "replay", "path": str(stream)},
    ]
    # The manifest's agents resolve to the same agents, from any directory.
    again = config_from_dict(w3_doc(horizon=1, agents=agents))
    assert again.to_dict()["agents"] == agents
    main(["validate", "--config", str(tmp_path / "config.json")])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("agent")]
    assert [ln.rsplit(", ", 1)[1] for ln in lines] == [
        "source bayes", "source noisy", "source replay"
    ]


def test_spawn_streams_deterministic_and_distinct():
    draws = [stream(7, key).integers(0, 2**31) for key in range(5)]
    assert draws == [stream(7, key).integers(0, 2**31) for key in range(5)]
    # Streams are mutually distinct with overwhelming probability.
    assert len(set(draws)) == 5


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 2**64 - 1])
def test_stream_is_the_spawned_child_of_its_key(seed):
    # Key 0 is the graph's stream, 1 the shared one and 2 + i agent i's:
    # child k of SeedSequence(seed).spawn, whatever the number spawned.
    graph, shared, agents = oracles.spawned_streams(seed, 4)
    for key, reference in enumerate([graph, shared, *agents]):
        assert stream(seed, key).bit_generator.state == reference.bit_generator.state


def test_deriving_a_seed_resolves_no_scope_or_fixed_graph(w3_config, monkeypatch):
    # The roster is reused: only an ER graph depends on the seed.
    def refuse(*args, **kwargs):
        raise AssertionError("derived re-resolved the roster")

    monkeypatch.setattr(config_module, "make_scope", refuse)
    monkeypatch.setattr(AgentGraph, "from_edges", refuse)
    clone = w3_config.derived(seed=9)
    assert clone.seed == 9 and clone.roster is w3_config.roster
    assert clone.graph is w3_config.graph


def test_deriving_a_seed_draws_an_er_graph_only(monkeypatch):
    config = config_from_dict(_er_doc(6), seed=1)
    want = config_from_dict(_er_doc(6), seed=2).graph
    monkeypatch.setattr(config_module, "make_scope", None)
    clone = config.derived(seed=2)
    assert clone.roster is config.roster
    assert clone.graph.neighborhoods == want.neighborhoods


def _first_fault(resolve):
    """The first exception of ``resolve`` as (type, message), or its result."""
    try:
        return resolve()
    except MyopicCrowdError as e:
        return type(e), str(e)


#: At most one fault per agent: None leaves the entry valid.
_FAULTS = [None] * 8 + [
    "bool", "unknown", "range", "duplicate", "empty",
    "nan", "tiny", "sum", "length", "gamma", "override",
]


@st.composite
def _agent_lists(draw):
    """Agent entries in a shuffled id order: scopes mixing labels and
    indices, priors, γ and likelihood overrides, with an occasional fault."""
    n = draw(st.integers(1, 5))
    agents = []
    for agent_id in draw(st.permutations(range(n))):
        picks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        classes = [draw(st.sampled_from([W3_CLASSES[k], k])) for k in picks]
        weights = [draw(st.integers(1, 9)) for _ in picks]
        prior = draw(st.sampled_from([None, [w / sum(weights) for w in weights]]))
        entry = {"id": agent_id, "classes": classes}
        fault = draw(st.sampled_from(_FAULTS))
        if fault in ("bool", "unknown", "range"):
            outside = draw(st.sampled_from([3, -1]))
            bad = {"bool": True, "unknown": "bogus", "range": outside}
            classes[draw(st.integers(0, len(classes) - 1))] = bad[fault]
        elif fault == "duplicate":
            classes.append(classes[0])
        elif fault == "empty":
            classes.clear()
        elif fault in ("nan", "tiny", "sum", "length"):
            prior = [w / sum(weights) for w in weights]
            if fault == "nan":
                prior[-1] = float("nan")
            elif fault == "tiny":
                prior = [1e-13] + prior[1:]
            elif fault == "sum":
                prior = [p * 1.1 for p in prior]
            else:
                prior.append(0.0)
        if prior is not None:
            entry["prior"] = prior
        gamma = draw(st.sampled_from([None, 0.0, 0.2]))
        if fault == "gamma":
            gamma = 1.0
        if gamma is not None:
            entry["source"] = {"kind": "noisy", "gamma": gamma}
        elif draw(st.booleans()):
            entry["source"] = {"kind": "bayes"}
        if fault == "override":
            entry["likelihoods"] = [[0.7, 0.3], [0.4, 0.6]]
        elif draw(st.booleans()):
            entry["likelihoods"] = [[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]]
        agents.append(entry)
    return agents


@settings(max_examples=300)
@given(_agent_lists())
def test_roster_matches_make_scope_agent_by_agent(agents):
    # The bulk path reads each list's types at once; per agent, make_scope
    # must find the same scopes, or the same first fault in document order.
    world = config_from_dict(w3_doc()).world
    n = len(agents)
    doc = w3_doc(agents=agents, graph={"type": "edges", "n": n, "edges": []})

    def one_at_a_time():
        scopes = []
        for entry in agents:
            classes = entry["classes"]
            if any(isinstance(c, bool) for c in classes):
                raise ConfigError(
                    f"agent {entry['id']} needs a 'classes' list of labels or indices"
                )
            source = entry.get("source", {})
            scopes.append(
                make_scope(
                    world,
                    entry["id"],
                    classes,
                    prior=entry.get("prior"),
                    likelihoods=entry.get("likelihoods"),
                    gamma=source.get("gamma", 0.0),
                    source=source.get("kind", "bayes"),
                )
            )
        return sorted(scopes, key=lambda s: s.agent_id)

    want = _first_fault(one_at_a_time)
    got = _first_fault(lambda: config_from_dict(doc).scopes)
    if isinstance(want, tuple):
        assert got == want
        return
    assert [s.agent_id for s in got] == list(range(n))
    for a, b in zip(got, want):
        assert (a.theta_i, a.gamma) == (b.theta_i, b.gamma)
        assert (a.source, a.replay_path) == (b.source, b.replay_path)
        assert a.prior.tobytes() == b.prior.tobytes() and not a.prior.flags.writeable
        tables = [s.likelihoods and s.likelihoods.rows.tobytes() for s in (a, b)]
        assert tables[0] == tables[1]


#: Vertices of w3's three agents, mostly ints, sometimes integral floats
#: and now and then refused or out of range.
_ENDPOINTS = st.sampled_from(
    [0, 1, 2] * 15 + [0.0, 1.0, 2.0] + [3, -1, 2.5, True, False, 2**70]
)


@settings(max_examples=300)
@given(st.lists(st.lists(_ENDPOINTS, min_size=2, max_size=2), max_size=6))
def test_edges_match_one_endpoint_at_a_time(edges):
    # The bulk path converts the list to one int array; the reference reads
    # every endpoint, then builds the graph an edge at a time.
    def one_at_a_time():
        ints = [[_integer("graph edge endpoint", v) for v in e] for e in edges]
        hoods = [{i} for i in range(3)]
        for u, v in ints:
            if not (0 <= u < 3 and 0 <= v < 3):
                raise ParseError(f"edge ({u}, {v}) out of range for n=3")
            hoods[u].add(v)
            hoods[v].add(u)
        return tuple(tuple(sorted(h)) for h in hoods)

    graph = {"type": "edges", "n": 3, "edges": edges}
    doc = w3_doc(graph=graph)
    got = _first_fault(lambda: config_from_dict(doc).graph.neighborhoods)
    assert got == _first_fault(one_at_a_time)
