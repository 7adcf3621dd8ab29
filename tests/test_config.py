"""Experiment configuration: parsing, validation, overrides, stream spawning."""

from __future__ import annotations

import json

import pytest

from myopic_crowd.cli import main
from myopic_crowd.config import (
    config_from_dict,
    load_config,
    spawn_streams,
)
from myopic_crowd.errors import ConfigError
from myopic_crowd.network import AgentGraph, is_connected

from conftest import w3_doc


def test_w3_config_resolves(w3_config):
    assert w3_config.n_agents == 3
    assert w3_config.rule == "min"
    assert w3_config.horizon == 500
    assert w3_config.seed == 7
    assert w3_config.world.m == 3
    assert w3_config.graph.edges() == [(0, 1), (1, 2)]
    assert [s.kind for s in w3_config.sources] == ["bayes"] * 3
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
    assert config.sources[0].kind == "replay"


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


def test_er_graph_config_depends_on_seed():
    doc = w3_doc()
    doc["agents"] = [
        {"id": i, "classes": ["theta0", "theta1", "theta2"]} for i in range(5)
    ]
    doc["graph"] = {"type": "erdos_renyi", "p": 0.5}
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


def test_manifest_dict_round_trips(w3_config):
    doc = w3_config.to_dict()
    json.loads(json.dumps(doc))
    assert doc["seed"] == 7
    assert doc["rule"] == "min"
    # The output directory is not part of what reproduces a run.
    assert "out_dir" not in doc
    assert doc["graph"]["edges"] == [[0, 1], [1, 2]]


def test_spawn_streams_deterministic_and_distinct():
    g1, s1, a1 = spawn_streams(7, 3)
    g2, s2, a2 = spawn_streams(7, 3)
    assert g1.integers(0, 2**31) == g2.integers(0, 2**31)
    assert s1.integers(0, 2**31) == s2.integers(0, 2**31)
    assert len(a1) == len(a2) == 3
    draws1 = [r.integers(0, 2**31) for r in a1]
    draws2 = [r.integers(0, 2**31) for r in a2]
    assert draws1 == draws2
    # Streams are mutually distinct with overwhelming probability.
    assert len(set(draws1)) == 3
