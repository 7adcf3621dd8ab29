"""Experiment engine: determinism, metrics, trajectory artifacts."""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from myopic_crowd import classifier, cli, dynamics, scores, sim

from myopic_crowd.classifier import (
    load_replay_csv,
    make_scope,
    posterior_tables,
    replay_source,
    write_replay_csv,
)
from myopic_crowd.config import (
    RATE_SLACK,
    RULES,
    config_from_dict,
    load_config,
)
from myopic_crowd.dynamics import LOG_FLOOR, global_trajectory, local_trajectories
from myopic_crowd.errors import (
    ConfigError,
    DisconnectedGraph,
    IdentifiabilityViolated,
    InsufficientSamples,
    ParseError,
    ReplayExhausted,
)
from myopic_crowd.sim import (
    TrajectoryLog,
    estimate_rejection_rate,
    first_identification,
    run_batch,
    run_experiment,
    summary,
    time_to_identification,
    write_outputs,
)

import oracles
from conftest import W3_CLASSES, W3_SCOPE_CLASSES, make_w3_config, w3_doc

W3_JSON = Path(__file__).resolve().parents[1] / "configs" / "w3.json"


def test_run_deterministic_bitwise():
    log1 = run_experiment(make_w3_config(horizon=60))
    log2 = run_experiment(make_w3_config(horizon=60))
    np.testing.assert_array_equal(log1.log_pi, log2.log_pi)
    np.testing.assert_array_equal(log1.log_mu, log2.log_mu)
    np.testing.assert_array_equal(log1.observations, log2.observations)


def test_run_batch_rules_match_independent_runs():
    # Long enough for min-rule beliefs to reach the floor, so the shared
    # clamp flags are compared past it too.
    config = load_config(W3_JSON, horizon=1500)
    shared = list(run_batch([config], RULES))
    assert [log.config.rule for log in shared] == list(RULES)
    assert shared[0].clamped_mu.any()
    for log in shared:
        rule = log.config.rule
        alone = run_experiment(config.derived(rule=rule))
        for name in ("log_pi", "clamped_pi", "clamped_mu"):
            np.testing.assert_array_equal(getattr(log, name), getattr(alone, name))
        _assert_draws_only_alone(log, alone)
        if rule == "avg":
            np.testing.assert_allclose(log.log_mu, alone.log_mu, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(log.log_mu, alone.log_mu)
        assert log.config.to_dict() == alone.config.to_dict()


def _hub_config(horizon: int):
    """w3's scopes cycled over 12 agents on a star: the hub's neighborhood
    makes the pooling loop read the compact layout."""
    doc = w3_doc(horizon=horizon)
    doc["agents"] = [{**doc["agents"][i % 3], "id": i} for i in range(12)]
    doc["graph"] = {"type": "edges", "n": 12, "edges": [[0, i] for i in range(1, 12)]}
    return config_from_dict(doc)


@pytest.mark.parametrize(
    "make",
    [
        lambda: load_config(W3_JSON, horizon=1500),
        lambda: load_config(W3_JSON.with_name("er_noisy.json")),
        lambda: _hub_config(1500),
    ],
    ids=["w3", "er_noisy", "hub"],
)
def test_run_batch_without_flags_keeps_every_rules_beliefs(make):
    configs = [make().derived(seed=s) for s in range(3)]
    flagged = list(run_batch(configs, RULES))
    bare = list(run_batch(configs, RULES, flags=False))
    runs = [[(log.config.rule, log.config.seed) for log in logs] for logs in (flagged, bare)]
    assert runs[0] == runs[1]
    for with_flags, without in zip(flagged, bare):
        assert without.log_mu.tobytes() == with_flags.log_mu.tobytes()
        assert without.clamped_pi.tobytes() == with_flags.clamped_pi.tobytes()
        assert without.clamped_mu is None
    with pytest.raises(ValueError, match="pooled with flags=False"):
        sim.rate_checks(bare[0], {})


def test_compare_pools_without_flags(monkeypatch, capsys):
    # compare fits no slope, so it asks for no floor flags.
    asked = []

    def recorded(configs, rules, **keywords):
        asked.append(keywords)
        return run_batch(configs, rules, **keywords)

    monkeypatch.setattr(cli, "run_batch", recorded)
    assert cli.main(["compare", "--config", str(W3_JSON), "--seeds", "2"]) == 0
    assert asked == [{"flags": False}]


def _assert_draws_only_alone(log, alone):
    """A sweep's log carries no draws; the same run alone keeps both."""
    assert log.observations is None and log.posteriors == ()
    config = alone.config
    assert alone.observations.shape == (config.horizon, config.n_agents)
    assert [p.shape for p in alone.posteriors] == [
        (config.horizon, scope.size) for scope in config.scopes
    ]


@pytest.mark.parametrize("mode", ["independent", "shared"])
def test_run_log_keeps_tables_and_observation_columns_not_copies(mode):
    config = config_from_dict(w3_doc(horizon=200, observation_mode=mode))
    log = run_experiment(config)
    for members, tables in posterior_tables(config.world, config.scopes):
        for i, table in zip(members, tables):
            rows, index = log.streams[i]
            assert rows.shape == table.shape and _bits_equal(rows, table)
            assert np.shares_memory(index, log.observations)
            np.testing.assert_array_equal(index, log.observations[:, i])
            posts = log.posteriors[i]
            assert posts.shape == (config.horizon, config.scopes[i].size)
            assert posts.tobytes() == table[log.observations[:, i]].tobytes()


# Sharp likelihoods: agent 0's local belief in theta1 reaches the floor
# near round 260, and by round 295 on every 3-agent seed sampled (a few
# percent of seeds have not by round 280), so horizons from 340 on compare
# runs past it.
SHARP_ROWS = [[0.95, 0.05], [0.05, 0.95], [0.5, 0.5]]


@settings(max_examples=20)
@given(
    graph=st.sampled_from(["edges", "erdos_renyi"]),
    n_agents=st.integers(3, 5),
    local_only=st.booleans(),
    horizon=st.one_of(st.integers(0, 3), st.integers(340, 400)),
    base_seed=st.integers(0, 10_000),
    n_seeds=st.integers(1, 4),
    per_batch=st.integers(1, 4),
)
def test_run_batch_matches_per_seed_runs(
    graph, n_agents, local_only, horizon, base_seed, n_seeds, per_batch
):
    doc = w3_doc(horizon=horizon, seed=base_seed, local_only=local_only)
    doc["world"]["likelihoods"] = SHARP_ROWS
    doc["agents"] = [
        {"id": i, "classes": W3_SCOPE_CLASSES[i % 3]} for i in range(n_agents)
    ]
    if graph == "erdos_renyi":
        doc["graph"] = {"type": "erdos_renyi", "p": 0.5}
    else:
        doc["graph"] = {
            "type": "edges", "edges": [[i, i + 1] for i in range(n_agents - 1)]
        }
    base = config_from_dict(doc)
    configs = [base.derived(seed=base_seed + k) for k in range(n_seeds)]
    cap = per_batch * sim.batch_bytes(base, RULES[:1])
    # Pooling all three rules at once also holds two more rules' log_mu and
    # clamped_mu.
    fused_bytes = sim.batch_bytes(base, RULES)
    fused = fused_bytes <= cap
    size = max(1, cap // fused_bytes)
    with mock.patch.object(sim, "BATCH_BYTES", cap):
        logs = list(run_batch(configs, RULES))

    batches = -(-n_seeds // size)
    order = [
        (b, rule, k)
        for b in range(batches)
        for rule in RULES
        for k in range(b * size, min((b + 1) * size, n_seeds))
    ]
    assert [(log.config.rule, log.config.seed) for log in logs] == [
        (rule, base_seed + k) for _, rule, k in order
    ]
    # Logs of one batch are views into one array, across its rules when they
    # were pooled together; batches share none.
    for (b1, r1, _), log1 in zip(order, logs):
        for (b2, r2, _), log2 in zip(order, logs):
            same = log1.log_mu.base is log2.log_mu.base
            assert same == (b1 == b2 and (fused or r1 == r2))
    if horizon >= 340:
        assert all(log.clamped_pi.any() for log in logs)
    for log in logs:
        alone = run_experiment(log.config.derived(rule=log.config.rule))
        for name in ("log_pi", "clamped_pi", "log_mu", "clamped_mu"):
            np.testing.assert_array_equal(getattr(log, name), getattr(alone, name))
        _assert_draws_only_alone(log, alone)
        assert log.config.to_dict() == alone.config.to_dict()


def test_run_batch_default_cap_groups_w3_seeds():
    # Under one rule a w3 run at T=3000 pools 486 kB of beliefs
    # (sim.batch_bytes): 21 fit in BATCH_BYTES.
    base = load_config(W3_JSON, horizon=3000)
    logs = list(run_batch([base.derived(seed=s) for s in range(23)], ["min"]))
    bases = [log.log_mu.base for log in logs]
    assert [b is bases[0] for b in bases] == [True] * 21 + [False] * 2
    assert bases[21] is bases[22]
    assert bases[0].nbytes == 21 * logs[0].log_mu.nbytes


def test_run_batch_logs_one_line_per_batch(caplog):
    # Under three rules a w3 run at T=3000 pools 972 kB: ten fit in
    # BATCH_BYTES, pooled in one loop.
    base = load_config(W3_JSON, horizon=3000)
    configs = [base.derived(seed=s) for s in range(10, 30)]
    with caplog.at_level(logging.INFO, logger="myopic_crowd.sim"):
        for _ in run_batch(configs, RULES):
            pass
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 2
    rest = " rules=min+avg+max rounds=3000 elapsed_s="
    assert lines[0].startswith("batch seeds=10 first_seed=10" + rest)
    assert lines[1].startswith("batch seeds=10 first_seed=20" + rest)
    assert all(float(line.rsplit("elapsed_s=", 1)[1]) >= 0 for line in lines)


def _pooling_calls(monkeypatch) -> list:
    """The rules of every ``global_trajectory`` call ``sim`` makes from now."""
    calls = []

    def recorded(rules, *args):
        calls.append(rules)
        return global_trajectory(rules, *args)

    monkeypatch.setattr(sim, "global_trajectory", recorded)
    return calls


def test_run_batch_pools_a_w3_compare_batch_in_one_call(monkeypatch):
    base = load_config(W3_JSON, horizon=3000)
    calls = _pooling_calls(monkeypatch)
    logs = list(run_batch([base.derived(seed=s) for s in range(5)], RULES))
    assert calls == [RULES]
    assert len({id(log.log_mu.base) for log in logs}) == 1


def test_run_batch_pools_a_lone_run_above_the_cap_one_rule_at_a_time(
    monkeypatch, caplog
):
    config = load_config(W3_JSON, horizon=3000)
    # Under one rule the run fits; all three at once do not.
    monkeypatch.setattr(sim, "BATCH_BYTES", sim.batch_bytes(config, RULES) - 1)
    calls = _pooling_calls(monkeypatch)
    with caplog.at_level(logging.INFO, logger="myopic_crowd.sim"):
        logs = list(run_batch([config, config.derived(seed=8)], RULES))
    assert calls == [(rule,) for rule in RULES] * 2
    assert [log.config.rule for log in logs] == list(RULES) * 2
    lines = [r.getMessage() for r in caplog.records]
    assert [line.split(" rounds=")[0] for line in lines] == [
        f"batch seeds=1 first_seed={seed} rules=min,avg,max" for seed in (7, 8)
    ]


def test_a_shared_mode_run_builds_one_generator(monkeypatch):
    # Only the shared stream is drawn from; building every agent's stream
    # cost about 1 ms a run at n = 50.
    config = config_from_dict(w3_doc(observation_mode="shared", horizon=50))
    built = []

    class CountingPCG64(np.random.PCG64):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    alone = run_experiment(config)
    monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
    log = run_experiment(config)
    assert len(built) == 1
    np.testing.assert_array_equal(log.observations, alone.observations)
    stream = oracles.spawned_streams(config.seed, config.n_agents)[1]
    np.testing.assert_array_equal(
        log.observations[:, 0], stream.choice(2, size=50, p=config.world.true_row())
    )


def test_run_batch_drops_a_batch_before_preparing_the_next(monkeypatch):
    base = load_config(W3_JSON, horizon=3000)
    logs = run_batch([base.derived(seed=s) for s in range(12)], RULES)
    # The first batch: ten runs under three rules, pooled into one array.
    first = [next(logs) for _ in range(30)]
    fused = weakref.ref(first[0].log_mu.base)
    assert all(log.log_mu.base is fused() for log in first)
    del first
    build = sim.build_sources
    alive = []

    def watched(config):
        alive.append(fused() is not None)
        return build(config)

    monkeypatch.setattr(sim, "build_sources", watched)
    assert next(logs).config.seed == 10
    assert alive == [False] * 2


def test_run_batch_refuses_a_later_run_before_drawing_or_allocating(monkeypatch):
    # Two runs that share a batch; the second one's graph is disconnected.
    # At this horizon the batch's log_pi alone would take 29 MB.
    cut = {"type": "edges", "n": 3, "edges": [[0, 1]]}
    configs = [
        config_from_dict(w3_doc(horizon=200_000)),
        config_from_dict(w3_doc(horizon=200_000, seed=8, graph=cut)),
    ]
    monkeypatch.setattr(sim, "BATCH_BYTES", 2 ** 40)
    drawn = []
    monkeypatch.setattr(sim, "_draw_observations", drawn.append)
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraph):
            next(run_batch(configs, ["min"]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drawn == []
    assert peak < 2**20


@pytest.mark.parametrize("rules", [RULES[:1], RULES])
def test_batch_bytes_counts_what_a_batch_pools(rules):
    base = config_from_dict(w3_doc(horizon=50))
    configs = [base.derived(seed=s) for s in range(3)]
    logs = list(run_batch(configs, rules))
    first = logs[0]
    assert all(log.log_mu.base is first.log_mu.base for log in logs)
    arrays = [
        first.log_pi.base,
        first.clamped_pi.base,
        first.log_mu.base,
        first.clamped_mu.base,
    ]
    want = sum(sim.batch_bytes(config, rules) for config in configs)
    assert sum(a.nbytes for a in arrays) == want


def test_seed_changes_observations():
    log1 = run_experiment(make_w3_config(horizon=60))
    log2 = run_experiment(make_w3_config(horizon=60, seed=8))
    assert not np.array_equal(log1.observations, log2.observations)


def test_horizon_zero_is_init_only():
    log = run_experiment(make_w3_config(horizon=0))
    assert log.log_pi.shape == (1, 3, 3)
    np.testing.assert_allclose(np.exp(log.log_pi), 1 / 3, atol=1e-12)
    np.testing.assert_allclose(np.exp(log.log_mu), 1 / 3, atol=1e-12)


def _replay_w3(tmp_path, rows: np.ndarray, horizon: int):
    """w3 at ``horizon`` with agent 0 replaying ``rows`` from a file."""
    doc = w3_doc(horizon=horizon)
    world = config_from_dict(doc).world
    scope = make_scope(world, 0, W3_SCOPE_CLASSES[0])
    path = tmp_path / "agent0.csv"
    write_replay_csv(path, world, [scope], [(rows, np.arange(len(rows)))])
    doc["agents"][0]["prior"] = [0.5, 0.5]
    doc["agents"][0]["source"] = {"kind": "replay", "path": str(path)}
    return config_from_dict(doc, base_dir=tmp_path)


@pytest.mark.parametrize("mode", ["independent", "shared", "replay"])
def test_run_bytes_counts_what_a_run_holds(mode, tmp_path):
    """The estimate is the bytes a run's log holds: the observation columns
    it drew (not their broadcast view), each stream's rows and each replay
    index, and its belief arrays."""
    if mode == "replay":
        config = _replay_w3(tmp_path, np.tile([0.8, 0.2], (50, 1)), horizon=50)
    else:
        config = config_from_dict(w3_doc(horizon=50, observation_mode=mode))
    log = run_experiment(config)
    arrays = [log.observations.base, log.log_pi, log.log_mu]
    arrays += [log.clamped_pi, log.clamped_mu]
    for (rows, index), scope in zip(log.streams, config.scopes):
        arrays += [rows, index] if scope.source == "replay" else [rows]
    assert sim.run_bytes(config) == sum(a.nbytes for a in arrays)


def test_replay_source_holds_only_the_rounds_a_run_reads(tmp_path):
    config = _replay_w3(tmp_path, np.tile([0.8, 0.2], (100_000, 1)), horizon=50)
    source = sim.build_sources(config)[0]
    assert source.length == 100_000
    assert source.vectors.nbytes == 8 * 50 * 2
    assert source.vectors.base is None
    np.testing.assert_array_equal(run_experiment(config).streams[0][0], source.vectors)


def test_replay_checks_still_read_the_whole_file(tmp_path):
    # An empty in-scope cell past the horizon is still refused, and a file
    # shorter than the horizon still exhausts.
    rows = np.tile([0.8, 0.2], (60, 1))
    rows[55, 1] = np.nan
    with pytest.raises(ParseError, match="empty cells"):
        sim.build_sources(_replay_w3(tmp_path, rows, horizon=50))
    config = _replay_w3(tmp_path, np.tile([0.8, 0.2], (40, 1)), horizon=50)
    with pytest.raises(ReplayExhausted):
        run_experiment(config)


def test_beliefs_stay_normalized():
    log = run_experiment(make_w3_config(horizon=200))
    for arr in (np.exp(log.log_pi), np.exp(log.log_mu)):
        np.testing.assert_allclose(arr.sum(axis=2), 1.0, atol=1e-9)


def test_shared_mode_gives_common_observations():
    doc = w3_doc(observation_mode="shared", horizon=40)
    log = run_experiment(config_from_dict(doc))
    assert np.all(log.observations == log.observations[:, :1])


def test_independent_mode_gives_distinct_streams():
    log = run_experiment(make_w3_config(horizon=40))
    assert not np.all(log.observations == log.observations[:, :1])


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
@pytest.mark.parametrize("mode", ["independent", "shared"])
def test_observations_are_drawn_from_the_spawned_streams(mode, seed):
    # Agent i draws from stream 2 + i; in shared mode every agent reads the
    # one column of stream 1, which no caller may write.
    config = config_from_dict(w3_doc(observation_mode=mode, horizon=40, seed=seed))
    _, shared, agents = oracles.spawned_streams(seed, config.n_agents)
    row = config.world.true_row()
    if mode == "shared":
        col = shared.choice(row.size, size=40, p=row)
        want = np.stack([col] * config.n_agents, axis=1)
    else:
        want = np.stack([r.choice(row.size, size=40, p=row) for r in agents], axis=1)
    observations = sim._draw_observations(config)
    np.testing.assert_array_equal(observations, want)
    assert not observations.flags.writeable


def test_local_only_skips_pooling():
    doc = w3_doc(local_only=True, horizon=50)
    log = run_experiment(config_from_dict(doc))
    np.testing.assert_array_equal(log.log_mu, log.log_pi)


def test_disconnected_graph_rejected():
    doc = w3_doc(graph={"type": "edges", "n": 3, "edges": [[0, 1]]})
    with pytest.raises(DisconnectedGraph):
        run_experiment(config_from_dict(doc))


def test_identifiability_enforcement():
    doc = w3_doc(enforce_identifiability=True)
    doc["agents"] = doc["agents"][:2]
    doc["graph"] = {"type": "edges", "n": 2, "edges": [[0, 1]]}
    with pytest.raises(IdentifiabilityViolated):
        run_experiment(config_from_dict(doc))
    # Without enforcement the same config runs.
    doc["enforce_identifiability"] = False
    log = run_experiment(config_from_dict(doc, horizon=10))
    assert log.horizon == 10


def test_replay_run_reproduces_recorded_run(tmp_path):
    recorded = run_experiment(make_w3_config(horizon=30))
    out = write_outputs(recorded, tmp_path / "rec")
    doc = w3_doc(horizon=30)
    for agent in doc["agents"]:
        agent["prior"] = [0.5, 0.5]
        agent["source"] = {"kind": "replay", "path": str(out["posteriors"])}
    replayed = run_experiment(config_from_dict(doc, base_dir=tmp_path))
    np.testing.assert_array_equal(replayed.log_pi, recorded.log_pi)
    np.testing.assert_array_equal(replayed.log_mu, recorded.log_mu)


def test_replay_shorter_than_horizon_raises(tmp_path):
    stream = tmp_path / "short.csv"
    world = config_from_dict(w3_doc()).world
    scope = make_scope(world, 0, ["theta0", "theta1"])
    rows = np.tile([0.8, 0.2], (5, 1))
    write_replay_csv(stream, world, [scope], [(rows, np.arange(5))])
    doc = w3_doc(horizon=10)
    doc["agents"][0]["prior"] = [0.5, 0.5]
    doc["agents"][0]["source"] = {"kind": "replay", "path": str(stream)}
    with pytest.raises(ReplayExhausted):
        run_experiment(config_from_dict(doc, base_dir=tmp_path))


def test_run_problems_lists_every_refusal_in_check_order(tmp_path):
    stream = tmp_path / "short.csv"
    world = config_from_dict(w3_doc()).world
    scope = make_scope(world, 0, ["theta0", "theta1"])
    rows = np.tile([0.8, 0.2], (5, 1))
    write_replay_csv(stream, world, [scope], [(rows, np.arange(5))])
    doc = w3_doc(horizon=10**15)
    doc["agents"] = doc["agents"][:2]
    doc["agents"][0]["prior"] = [0.5, 0.5]
    doc["agents"][0]["source"] = {"kind": "replay", "path": str(stream)}
    doc["graph"] = {"type": "edges", "n": 2, "edges": []}
    config = config_from_dict(doc)
    problems = sim.run_problems(config, sim.build_sources(config))
    assert [type(p) for p in problems] == [
        ConfigError, DisconnectedGraph, IdentifiabilityViolated, ReplayExhausted
    ]
    assert str(problems[0]).startswith("above the cap of 1074 MB: a run of")
    assert sim.run_problems(make_w3_config(), sim.build_sources(make_w3_config())) == []


def test_run_batch_raises_the_first_runs_problem_first(tmp_path):
    # Each run is checked, its sources built first, before the next run's
    # sources are built: run 2's missing replay file is never opened.
    split = w3_doc(graph={"type": "edges", "n": 3, "edges": [[0, 1]]})
    missing = w3_doc()
    missing["agents"][0]["prior"] = [0.5, 0.5]
    missing["agents"][0]["source"] = {"kind": "replay", "path": "absent.csv"}
    configs = [config_from_dict(split), config_from_dict(missing, base_dir=tmp_path)]
    with pytest.raises(DisconnectedGraph):
        next(run_batch(configs, ["min"]))
    with pytest.raises(FileNotFoundError):
        next(run_batch(configs[1:], ["min"]))


def test_run_batch_rejects_an_unknown_rule_before_drawing(monkeypatch):
    def no_draws(config):
        raise AssertionError("observations drawn for an unknown rule")

    monkeypatch.setattr(sim, "_draw_observations", no_draws)
    with pytest.raises(ConfigError, match="rule must be one of"):
        next(run_batch([make_w3_config()], ["min", "median"]))


def test_build_sources_reads_a_shared_replay_file_once(tmp_path, monkeypatch):
    recorded = run_experiment(make_w3_config(horizon=30))
    out = write_outputs(recorded, tmp_path / "rec")
    doc = w3_doc(horizon=30)
    for agent in doc["agents"]:
        agent["prior"] = [0.5, 0.5]
        agent["source"] = {"kind": "replay", "path": str(out["posteriors"])}
    config = config_from_dict(doc)
    calls = []

    def counted(path, world):
        calls.append(path)
        return load_replay_csv(path, world)

    monkeypatch.setattr(classifier, "load_replay_csv", counted)
    monkeypatch.setattr(sim, "load_replay_csv", counted, raising=False)
    sources = sim.build_sources(config)
    assert len(calls) == 1
    assert sim.theory(config)[0] is None
    parsed = load_replay_csv(out["posteriors"], config.world)
    for source, scope, posts in zip(sources, config.scopes, recorded.posteriors):
        want = replay_source(out["posteriors"], *parsed, config.world, scope)
        np.testing.assert_array_equal(source.vectors, want.vectors)
        np.testing.assert_array_equal(source.vectors, posts)


def test_w3_reference_run_identifies():
    log = run_experiment(make_w3_config())
    star = log.world.true_class
    for i in range(3):
        assert math.exp(log.log_mu[-1, i, star]) > 0.99
        assert time_to_identification(log, i) is not None


def test_true_belief_keeps_positive_floor_after_burn_in():
    # Once past the transient, the smallest true-class belief seen at the
    # burn-in round stays a lower bound for the rest of the run.
    log = run_experiment(make_w3_config())
    star = log.world.true_class
    burn_in = 200
    mu_true = np.exp(log.log_mu[:, :, star])
    eta = mu_true[burn_in].min()
    assert eta > 0
    assert mu_true[burn_in:].min() >= eta - 1e-9


# -- synthetic-trajectory metrics -----------------------------------------

def _synthetic_log(mu_false, clamped=None, rate_window=0.5):
    """A log whose agent-0 false-class-1 trajectory is the given series."""
    config = make_w3_config(horizon=len(mu_false) - 1, rate_window=rate_window)
    t_max, n, m = len(mu_false), 3, 3
    log_mu = np.full((t_max, n, m), -math.log(m))
    log_mu[:, 0, 1] = np.log(mu_false)
    log_pi = log_mu.copy()
    flags = np.zeros((t_max, n, m), dtype=bool)
    if clamped is not None:
        flags[:, 0, 1] = clamped
    return TrajectoryLog(
        config=config,
        log_pi=log_pi,
        log_mu=log_mu,
        clamped_pi=flags.copy(),
        clamped_mu=flags,
        observations=np.zeros((t_max - 1, n), dtype=int),
        streams=(),
    )


def test_rate_of_exact_exponential():
    c = 0.42
    t = np.arange(201)
    log = _synthetic_log(np.exp(-c * t))
    assert estimate_rejection_rate(log, 0, 1) == pytest.approx(c, abs=1e-9)


def test_rate_of_constant_is_zero():
    log = _synthetic_log(np.full(101, 0.25))
    assert estimate_rejection_rate(log, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_rate_ignores_clamped_tail():
    c = 0.8
    t = np.arange(301)
    series = np.exp(-c * t)
    clamped = np.zeros(301, dtype=bool)
    series[250:] = series[250]
    clamped[250:] = True
    log = _synthetic_log(series, clamped=clamped)
    assert estimate_rejection_rate(log, 0, 1) == pytest.approx(c, abs=1e-6)


def test_rate_rejects_true_class():
    log = _synthetic_log(np.full(101, 0.25))
    with pytest.raises(ValueError):
        estimate_rejection_rate(log, 0, 0)


def test_rate_insufficient_samples_short_horizon():
    log = run_experiment(make_w3_config(horizon=10))
    with pytest.raises(InsufficientSamples):
        estimate_rejection_rate(log, 0, 1)


def test_rate_insufficient_when_floor_hit_immediately():
    clamped = np.ones(101, dtype=bool)
    clamped[0] = False
    log = _synthetic_log(np.full(101, 0.25), clamped=clamped)
    with pytest.raises(InsufficientSamples):
        estimate_rejection_rate(log, 0, 1)


def _log_with_true_series(lead_rounds):
    """Agent 0's true-class belief leads exactly on the given rounds."""
    t_max = len(lead_rounds)
    config = make_w3_config(horizon=t_max - 1)
    n, m = 3, 3
    log_mu = np.empty((t_max, n, m))
    for t, lead in enumerate(lead_rounds):
        log_mu[t] = np.log([0.6, 0.3, 0.1] if lead else [0.3, 0.6, 0.1])
    return TrajectoryLog(
        config=config,
        log_pi=log_mu.copy(),
        log_mu=log_mu,
        clamped_pi=np.zeros((t_max, n, m), dtype=bool),
        clamped_mu=np.zeros((t_max, n, m), dtype=bool),
        observations=np.zeros((t_max - 1, n), dtype=int),
        streams=(),
    )


def test_identification_time_sustained_from_round_three():
    log = _log_with_true_series([False, False, False, True, True, True])
    assert time_to_identification(log, 0) == 3
    assert first_identification(log, 0) == 3


def test_identification_never():
    log = _log_with_true_series([False] * 6)
    assert time_to_identification(log, 0) is None
    assert first_identification(log, 0) is None


def test_identification_flicker_reported_separately():
    log = _log_with_true_series([False, True, False, False, True, True])
    assert first_identification(log, 0) == 1
    assert time_to_identification(log, 0) == 4


def test_identification_from_round_zero():
    log = _log_with_true_series([True, True, True])
    assert time_to_identification(log, 0) == 0


def _identification_per_agent(ok: np.ndarray) -> tuple[int | None, int | None]:
    """(sustained, first) identification rounds of one agent's (T+1,)
    flags, as ``time_to_identification`` and ``first_identification``
    computed them one agent at a time."""
    bad, hits = np.nonzero(~ok)[0], np.nonzero(ok)[0]
    sustained = (int(bad[-1]) + 1 if bad.size else 0) if ok[-1] else None
    return sustained, int(hits[0]) if hits.size else None


@settings(max_examples=100, deadline=None)
@given(ok=arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 4))))
@example(ok=np.zeros((5, 3), dtype=bool))
@example(ok=np.ones((5, 3), dtype=bool))
@example(ok=np.array([[True, True]] * 4 + [[False, False]]))
@example(ok=np.array([[False], [True], [False], [True], [True]]))
def test_identification_rounds_match_the_per_agent_definition(ok):
    log = TrajectoryLog(make_w3_config(horizon=len(ok) - 1), *[None] * 5, ())
    log.identified = ok
    for agent in range(ok.shape[1]):
        got = time_to_identification(log, agent), first_identification(log, agent)
        assert got == _identification_per_agent(ok[:, agent])
    sustained, first = log.identification
    assert all(t is None or type(t) is int for t in sustained + first)


def _full_scope_config(m: int, n: int = 2, star: int | None = None):
    """``n`` agents holding all ``m`` classes of a two-symbol world; the
    true class is class ``star``, by default the middle one."""
    labels = [f"c{k}" for k in range(m)]
    rows = [[(k + 1) / (m + 1), (m - k) / (m + 1)] for k in range(m)]
    return config_from_dict(
        {
            "world": {
                "classes": labels,
                "inputs": ["x0", "x1"],
                "likelihoods": rows,
                "true_class": labels[m // 2 if star is None else star],
            },
            "agents": [{"id": i, "classes": labels} for i in range(n)],
            "graph": {"type": "edges", "n": n, "edges": [[0, 1]]},
        }
    )


@settings(max_examples=50, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3, 9, 20]))
def test_identification_matches_the_delete_reference(data, m):
    config = _full_scope_config(m)
    star = config.world.true_class
    rounds = data.draw(st.integers(1, 30))
    # Few distinct values, so the true class often ties another exactly.
    entries = st.sampled_from([LOG_FLOOR, -3.0, -1.0, -0.5])
    log_mu = data.draw(arrays(float, (rounds, 2, m), elements=entries))
    # From a drawn round on, the true class leads (0.0 beats every entry).
    for agent in range(2):
        log_mu[data.draw(st.integers(0, rounds)) :, agent, star] = 0.0
    flags = np.zeros(log_mu.shape, dtype=bool)
    log = TrajectoryLog(config, log_mu, log_mu, flags, flags, None, ())
    for agent in range(2):
        got = time_to_identification(log, agent), first_identification(log, agent)
        assert got == oracles.identification_reference(log_mu[:, agent], star)


@pytest.mark.parametrize("m", [2, 3, 9, 20])
def test_identification_tie_with_the_true_class_is_no_lead(m):
    config = _full_scope_config(m)
    star = config.world.true_class
    log_mu = np.full((4, 2, m), -2.0)
    log_mu[:, :, star] = -1.0
    log_mu[1:3, 0, (star + 1) % m] = -1.0  # agent 0 ties in rounds 1 and 2
    flags = np.zeros(log_mu.shape, dtype=bool)
    log = TrajectoryLog(config, log_mu, log_mu, flags, flags, None, ())
    assert (time_to_identification(log, 0), first_identification(log, 0)) == (3, 0)
    assert (time_to_identification(log, 1), first_identification(log, 1)) == (0, 0)
    assert oracles.identification_reference(log_mu[:, 0], star) == (3, 0)


def _log_of(config, log_mu) -> TrajectoryLog:
    flags = np.zeros(log_mu.shape, dtype=bool)
    return TrajectoryLog(config, log_mu, log_mu, flags, flags, None, ())


def _times(log, n: int) -> list[tuple]:
    """(sustained, first) identification rounds of agents 0..n-1."""
    return [
        (time_to_identification(log, i), first_identification(log, i))
        for i in range(n)
    ]


@pytest.mark.parametrize("m, star", [(2, 0), (2, 1), (3, 0), (3, 2), (9, 0), (9, 8)])
def test_identification_with_the_true_class_at_either_edge(m, star):
    config = _full_scope_config(m, n=3, star=star)
    other = (star + 1) % m
    log_mu = np.full((5, 3, m), -3.0)  # round 0: all tied, no lead
    log_mu[1:, 0, star] = [-1.0, -2.0, -4.0, -1.0]  # lead, tie, behind, lead
    log_mu[1:, 0, other] = -2.0
    log_mu[1:, 1, :] = -1.0  # every class tied every round: never a lead
    log_mu[:, 2, star] = -0.5  # leads from round 0
    log = _log_of(config, log_mu)
    got = _times(log, 3)
    assert got == [(4, 1), (None, None), (0, 0)]
    for i in range(3):
        assert got[i] == oracles.identification_reference(log_mu[:, i], star)
        np.testing.assert_array_equal(
            log.identified[:, i], oracles.argmax_flags_reference(log, i)
        )


@pytest.mark.parametrize("star", [0, 1])
def test_identification_at_horizon_zero(star):
    config = _full_scope_config(2, star=star)
    log_mu = np.full((1, 2, 2), math.log(0.5))
    log_mu[0, 1] = np.log([0.9, 0.1] if star == 0 else [0.1, 0.9])
    log = _log_of(config, log_mu)
    assert _times(log, 2) == [(None, None), (0, 0)]


def test_identification_flags_computed_once_per_log(monkeypatch):
    calls = []
    flags = TrajectoryLog.identified.func

    def counting(log):
        calls.append(log)
        return flags(log)

    prop = functools.cached_property(counting)
    prop.__set_name__(TrajectoryLog, "identified")
    monkeypatch.setattr(TrajectoryLog, "identified", prop)
    logs = list(run_batch([make_w3_config(horizon=40)], RULES))
    for log in logs:
        for i in range(log.n_agents):
            time_to_identification(log, i)
            first_identification(log, i)
    assert calls == logs


def _bits_equal(got, want) -> bool:
    return np.array_equal(
        np.asarray(got, dtype=float).view(np.int64),
        np.asarray(want, dtype=float).view(np.int64),
    )


@st.composite
def _mixed_rosters(draw):
    """A config document, without the graph, and the replay streams its
    replaying agents read.  Scope sizes mix 1, 2, 3, 8 and m (m ≥ 8 runs both
    branches of ``row_max``); classes come unsorted; agents may override
    the likelihoods, be noisy (γ > 0) or replay a stream."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([3, 8, 9]))
    n_symbols = draw(st.sampled_from([1, 3, 9]))
    horizon = draw(st.integers(1, 12))
    labels = [f"c{k}" for k in range(m)]

    def rows(count):
        raw = rng.uniform(0.0, 1.0, size=(count, n_symbols)) ** 4
        return (raw / raw.sum(axis=1, keepdims=True)).tolist()

    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 8, m]), min_size=1, max_size=10))
    agents, streams = [], {}
    for i, k in enumerate(min(k, m) for k in sizes):
        prior = rng.uniform(0.2, 1.0, size=k)
        entry = {
            "id": i,
            "classes": [labels[c] for c in rng.permutation(m)[:k]],
            "prior": (prior / prior.sum()).tolist(),
        }
        if draw(st.booleans()):
            entry["likelihoods"] = rows(m)
        kind = draw(st.sampled_from(["bayes", "noisy", "replay"]))
        if kind == "noisy":
            entry["source"] = {"kind": "noisy", "gamma": draw(st.floats(0.01, 0.99))}
        elif kind == "replay":
            entry["source"] = {"kind": "replay", "path": "replay.csv"}
            raw = rng.uniform(0.05, 1.0, size=(horizon, k))
            streams[i] = raw / raw.sum(axis=1, keepdims=True)
        agents.append(entry)
    doc = {
        "world": {
            "classes": labels,
            "inputs": [f"x{j}" for j in range(n_symbols)],
            "likelihoods": rows(m),
            "true_class": labels[draw(st.integers(0, m - 1))],
        },
        "agents": agents,
        "graph": {
            "type": "edges",
            "n": len(agents),
            "edges": [[i, i + 1] for i in range(len(agents) - 1)],
        },
        "horizon": horizon,
        "enforce_identifiability": False,
    }
    return doc, streams


@settings(max_examples=60, deadline=None)
@given(roster=_mixed_rosters(), cells=st.sampled_from([1, 40, dynamics.GROUP_CELLS]))
def test_grouped_passes_match_per_agent_references(roster, cells):
    # A small cell budget splits a group into passes of a few agents each.
    doc, streams = roster
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        dynamics, "GROUP_CELLS", cells
    ):
        config = config_from_dict(doc, base_dir=tmp)
        world, scopes, m = config.world, config.scopes, config.world.m
        replayed = sorted(streams)
        if replayed:
            write_replay_csv(
                Path(tmp) / "replay.csv",
                world,
                [scopes[i] for i in replayed],
                [(streams[i], np.arange(len(streams[i]))) for i in replayed],
            )
        sources = sim.build_sources(config)
        log = run_experiment(config)
    tabled = [s for s in scopes if s.source != "replay"]
    for scope, source in zip(scopes, sources):
        if scope in tabled:
            want = oracles.posterior_table_reference(world, scope)
            assert _bits_equal(source.per_symbol, want)
    for weight_class in {world.true_class, 0}:
        ids, table = scores._table(world, tabled, weight_class)
        assert ids.tolist() == [s.agent_id for s in tabled]
        for row, scope in zip(table, tabled):
            want = np.full(m, np.nan)
            want[list(scope.theta_i)] = oracles.evidence_reference(
                world, scope, weight_class
            )
            assert _bits_equal(row, want)
        assert scores._witness(table) == oracles.witness_reference(table)
    alone = np.empty(log.log_pi.shape), np.empty(log.log_pi.shape, dtype=bool)
    with mock.patch.object(dynamics, "GROUP_CELLS", cells):
        local_trajectories(scopes, log.streams, *alone)
    for i, scope in enumerate(scopes):
        want, want_flags = oracles.local_trajectory_reference(
            scope, m, log.posteriors[i]
        )
        assert _bits_equal(log.log_pi[:, i], want)
        assert _bits_equal(alone[0][:, i], want)
        np.testing.assert_array_equal(log.clamped_pi[:, i], want_flags)
        np.testing.assert_array_equal(alone[1][:, i], want_flags)
        np.testing.assert_array_equal(
            log.identified[:, i], oracles.argmax_flags_reference(log, i)
        )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rate_fit_is_polyfit_bitwise(data):
    start = data.draw(st.integers(0, 5000))
    size = data.draw(st.integers(sim.MIN_RATE_SAMPLES, 400))
    ts = np.arange(start, start + size)
    dropped = data.draw(st.lists(st.integers(1, size - 2), max_size=size // 3))
    ts = np.delete(ts, dropped)  # samples dropped inside the window
    y = data.draw(
        arrays(float, ts.size, elements=st.floats(-1e4, 1e4, allow_subnormal=False))
    )
    want = np.polyfit(ts, y, 1)[0]
    for _ in range(2):  # the second fit reads the cached design matrix
        assert sim._slope(ts, y).tobytes() == want.tobytes()


# -- artifacts ------------------------------------------------------------

def test_trajectories_row_count(tmp_path):
    log = run_experiment(make_w3_config(horizon=2))
    paths = write_outputs(log, tmp_path)
    lines = paths["trajectories"].read_text().splitlines()
    assert lines[0] == "round,agent,class,pi,mu,log_pi,log_mu"
    assert len(lines) == 1 + 3 * 3 * 3


def test_summary_round_trips_as_json(tmp_path):
    log = run_experiment(make_w3_config(horizon=50))
    paths = write_outputs(log, tmp_path)
    doc = json.loads(paths["summary"].read_text())
    assert doc["rule"] == "min"
    assert doc["horizon"] == 50
    assert doc["true_class"] == "theta0"
    assert doc["theory"]["identifiable"] is True
    assert set(doc["identification_time"]) == {"0", "1", "2"}


def test_summary_replay_has_no_theory(tmp_path):
    recorded = run_experiment(make_w3_config(horizon=20))
    out = write_outputs(recorded, tmp_path / "rec")
    doc = w3_doc(horizon=20)
    for agent in doc["agents"]:
        agent["prior"] = [0.5, 0.5]
        agent["source"] = {"kind": "replay", "path": str(out["posteriors"])}
    log = run_experiment(config_from_dict(doc, base_dir=tmp_path))
    digest = summary(log)
    assert digest["theory"] is None
    entry = digest["rates"]["0"]["theta1"]
    assert entry["R"] is None and entry["pass"] is None


def test_summary_rates_are_the_rate_checks():
    log = run_experiment(make_w3_config(horizon=400))
    report, _ = sim.theory(log.config)
    rows = sim.rate_checks(log, report.best_rate)
    assert [(i, theta) for i, theta, *_ in rows] == [
        (i, theta) for i in range(3) for theta in (1, 2)
    ]
    labels = log.world.classes.labels
    digest = summary(log)
    for i, theta, slope, r_theta, passed in rows:
        assert r_theta == report.best_rate[theta][0]
        assert digest["rates"][str(i)][labels[theta]] == {
            "slope": slope, "insufficient": slope is None, "R": r_theta,
            "pass": passed,
        }
        if slope is not None:
            assert passed == (slope >= r_theta * (1 - RATE_SLACK))
    assert all(r is None and p is None for *_, r, p in sim.rate_checks(log, {}))


def test_rewriting_outputs_is_byte_identical(tmp_path):
    log = run_experiment(make_w3_config(horizon=40))
    p1 = write_outputs(log, tmp_path / "one")
    p2 = write_outputs(log, tmp_path / "two")
    for key in p1:
        assert p1[key].read_bytes() == p2[key].read_bytes()


def test_manifest_contents(tmp_path):
    log = run_experiment(make_w3_config(horizon=5))
    paths = write_outputs(log, tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["horizon"] == 5
    assert "package_version" in manifest


def test_posteriors_csv_has_all_rounds(tmp_path):
    log = run_experiment(make_w3_config(horizon=4))
    paths = write_outputs(log, tmp_path)
    lines = paths["posteriors"].read_text().splitlines()
    # Header plus one row per (round, agent).
    assert len(lines) == 1 + 4 * 3
    assert lines[0] == "round,agent_id,theta0,theta1,theta2"


def test_write_outputs_refuses_a_sweep_log_before_writing(tmp_path):
    log = next(run_batch([make_w3_config(horizon=4)], ["min"]))
    with pytest.raises(ValueError, match="run_experiment"):
        write_outputs(log, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_long_run_clamps_and_still_fits_rate():
    # Agent A's belief on theta1 decays at about 0.83 nats per round and pins
    # to the floor around round 830; the fitted slope must come from the
    # pre-floor window and still approximate the theoretical rate.
    log = run_experiment(make_w3_config(horizon=2000))
    assert log.clamped_mu[:, 0, 1].any()
    slope = estimate_rejection_rate(log, 0, 1)
    assert slope == pytest.approx(0.8318, rel=0.25)


def test_min_rule_identifies_no_later_than_avg_on_reference_run():
    # With common observations (same seed, only the rule differs), the min
    # rule's sustained identification time is no later than avg's for every
    # agent on the three-class path-graph fixture.
    log_min = run_experiment(make_w3_config(rule="min"))
    log_avg = run_experiment(make_w3_config(rule="avg"))
    np.testing.assert_array_equal(log_min.observations, log_avg.observations)
    for agent in range(3):
        t_min = time_to_identification(log_min, agent)
        t_avg = time_to_identification(log_avg, agent)
        assert t_min is not None and t_avg is not None
        assert t_min <= t_avg


def test_trajectory_labels_with_commas_round_trip(tmp_path):
    labels = ["theta0", "theta,1", 'say "two"']
    rename = dict(zip(W3_CLASSES, labels))
    doc = w3_doc(horizon=5)
    doc["world"]["classes"] = labels
    doc["world"]["true_class"] = rename[doc["world"]["true_class"]]
    for agent in doc["agents"]:
        agent["classes"] = [rename[c] for c in agent["classes"]]
    log = run_experiment(config_from_dict(doc))
    paths = write_outputs(log, tmp_path)
    with open(paths["trajectories"], newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 6 * 3 * 3
    assert all(len(row) == 7 for row in rows)
    assert [row[2] for row in rows[1:4]] == labels
    assert float(rows[-1][6]) == log.log_mu[-1, 2, 2]


def test_trajectory_cells_are_plain_decimal_floats(tmp_path):
    # Cells must be parseable reprs of Python floats, with no wrapper text
    # from array scalar types leaking into the files.
    log = run_experiment(make_w3_config(horizon=3))
    paths = write_outputs(log, tmp_path)
    for name, skip in (("trajectories", 3), ("posteriors", 2)):
        text = paths[name].read_text()
        assert "(" not in text
        for line in text.splitlines()[1:]:
            for cell in line.split(",")[skip:]:
                if cell:
                    float(cell)
