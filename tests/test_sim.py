"""Experiment engine: determinism, metrics, trajectory artifacts."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from myopic_crowd.classifier import write_replay_csv
from myopic_crowd.config import RULES, config_from_dict, load_config
from myopic_crowd.errors import (
    DisconnectedGraph,
    IdentifiabilityViolated,
    InsufficientSamples,
    ReplayExhausted,
)
from myopic_crowd.sim import (
    TrajectoryLog,
    estimate_rejection_rate,
    first_identification,
    run_experiment,
    run_rules,
    summary,
    time_to_identification,
    write_outputs,
)

from conftest import w3_doc, make_w3_config

W3_JSON = Path(__file__).resolve().parents[1] / "configs" / "w3.json"


def test_run_deterministic_bitwise():
    log1 = run_experiment(make_w3_config(horizon=60))
    log2 = run_experiment(make_w3_config(horizon=60))
    np.testing.assert_array_equal(log1.log_pi, log2.log_pi)
    np.testing.assert_array_equal(log1.log_mu, log2.log_mu)
    np.testing.assert_array_equal(log1.observations, log2.observations)


def test_run_rules_matches_independent_runs():
    # Long enough for min-rule beliefs to reach the floor, so the shared
    # clamp flags are compared past it too.
    config = load_config(W3_JSON, horizon=1500)
    shared = list(run_rules(config, RULES))
    assert [log.config.rule for log in shared] == list(RULES)
    assert shared[0].clamped_mu.any()
    for log in shared:
        rule = log.config.rule
        alone = run_experiment(config.derived(rule=rule))
        for name in ("observations", "log_pi", "clamped_pi", "clamped_mu"):
            np.testing.assert_array_equal(getattr(log, name), getattr(alone, name))
        for got, want in zip(log.posteriors, alone.posteriors):
            np.testing.assert_array_equal(got, want)
        if rule == "avg":
            np.testing.assert_allclose(log.log_mu, alone.log_mu, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(log.log_mu, alone.log_mu)
        assert log.config.to_dict() == alone.config.to_dict()


def test_seed_changes_observations():
    log1 = run_experiment(make_w3_config(horizon=60))
    log2 = run_experiment(make_w3_config(horizon=60, seed=8))
    assert not np.array_equal(log1.observations, log2.observations)


def test_horizon_zero_is_init_only():
    log = run_experiment(make_w3_config(horizon=0))
    assert log.log_pi.shape == (1, 3, 3)
    np.testing.assert_allclose(log.pi(), 1 / 3, atol=1e-12)
    np.testing.assert_allclose(log.mu(), 1 / 3, atol=1e-12)


def test_beliefs_stay_normalized():
    log = run_experiment(make_w3_config(horizon=200))
    for arr in (log.pi(), log.mu()):
        np.testing.assert_allclose(arr.sum(axis=2), 1.0, atol=1e-9)


def test_shared_mode_gives_common_observations():
    doc = w3_doc(observation_mode="shared", horizon=40)
    log = run_experiment(config_from_dict(doc))
    assert np.all(log.observations == log.observations[:, :1])


def test_independent_mode_gives_distinct_streams():
    log = run_experiment(make_w3_config(horizon=40))
    assert not np.all(log.observations == log.observations[:, :1])


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
    write_replay_csv(
        stream,
        world,
        [
            (t, 0, {"theta0": 0.8, "theta1": 0.2})
            for t in range(1, 6)
        ],
    )
    doc = w3_doc(horizon=10)
    doc["agents"][0]["prior"] = [0.5, 0.5]
    doc["agents"][0]["source"] = {"kind": "replay", "path": str(stream)}
    with pytest.raises(ReplayExhausted):
        run_experiment(config_from_dict(doc, base_dir=tmp_path))


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
        posteriors=(),
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
        posteriors=(),
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
