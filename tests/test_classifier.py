"""Agent classifiers, their posterior tables, and replay streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from myopic_crowd.classifier import (
    AgentScope,
    BayesOracle,
    NoisySource,
    ReplaySource,
    load_replay_csv,
    make_scope,
    replay_source,
    write_replay_csv,
)
from myopic_crowd.errors import (
    ConfigError,
    DimensionMismatch,
    ParseError,
    RowNotStochastic,
    UnknownClass,
)
from myopic_crowd.config import config_from_dict
from myopic_crowd.sim import build_sources
from myopic_crowd.world import EPS, build_world

import oracles
from conftest import posterior_table, w3_doc


def test_scope_defaults_uniform_prior(w3_world):
    scope = make_scope(w3_world, 0, ["theta0", "theta1"])
    assert scope.theta_i == (0, 1)
    np.testing.assert_array_equal(scope.prior, [0.5, 0.5])


def test_scope_accepts_indices(w3_world):
    scope = make_scope(w3_world, 2, [0, 2])
    assert scope.theta_i == (0, 2)


def test_scope_rejects_unknown_class(w3_world):
    with pytest.raises(UnknownClass):
        make_scope(w3_world, 0, ["theta0", "theta9"])
    with pytest.raises(UnknownClass):
        make_scope(w3_world, 0, [0, 17])


def test_scope_rejects_bad_prior(w3_world):
    with pytest.raises(RowNotStochastic):
        make_scope(w3_world, 0, ["theta0", "theta1"], prior=[0.9, 0.5])


@pytest.mark.parametrize(
    "source, replay_path", [("replay", None), ("bayes", "s.csv"), ("noisy", "s.csv")]
)
def test_only_a_replay_scope_has_a_path_and_it_needs_one(w3_world, source, replay_path):
    where = {"source": source, "replay_path": replay_path}
    with pytest.raises(ConfigError, match="replay source needs a path"):
        make_scope(w3_world, 0, ["theta0", "theta1"], **where)
    with pytest.raises(ConfigError, match="replay source needs a path"):
        AgentScope(0, (0, 1), [0.5, 0.5], **where)
    scope = make_scope(w3_world, 0, [0, 1], source="replay", replay_path="s.csv")
    assert (scope.source, scope.replay_path) == ("replay", "s.csv")


def test_likelihood_override_must_match_world(w3_world):
    with pytest.raises(DimensionMismatch):
        make_scope(w3_world, 0, ["theta0", "theta1"], likelihoods=[[0.5, 0.5]])


def test_likelihood_override_changes_posterior(w3_world):
    override = [[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]]
    scope = make_scope(w3_world, 0, ["theta0", "theta1"], likelihoods=override)
    table = posterior_table(w3_world, scope)
    np.testing.assert_allclose(table[0], [0.6, 0.4], atol=1e-12)


# -- Bayes posterior table ------------------------------------------------

def test_bayes_hand_example(w3_world):
    scope = make_scope(w3_world, 0, ["theta0", "theta1"])
    table = posterior_table(w3_world, scope)
    # 0.8*0.5 / (0.8*0.5 + 0.2*0.5) = 0.8; rows follow the input symbols.
    np.testing.assert_allclose(table, [[0.8, 0.2], [0.2, 0.8]], atol=1e-12)


def test_bayes_uniform_rows_give_uniform_posterior():
    world = build_world(
        ["t0", "t1"], ["a", "b"], [[0.5, 0.5], [0.5, 0.5]], "t0"
    )
    table = posterior_table(world, make_scope(world, 0, ["t0", "t1"]))
    np.testing.assert_allclose(table, 0.5, atol=1e-12)


def test_bayes_ratio_consistency(w3_world):
    # table[x][θ] / prior[θ] proportional to p(x|θ) across the scope.
    scope = make_scope(w3_world, 1, ["theta1", "theta2"], prior=[0.3, 0.7])
    for col, probs in enumerate(posterior_table(w3_world, scope)):
        ratios = probs / scope.prior
        lik = np.array([w3_world.likelihoods.rows[k][col] for k in scope.theta_i])
        scaled = ratios / lik
        np.testing.assert_allclose(scaled, scaled[0], atol=1e-9)


# -- noisy tables ---------------------------------------------------------

def test_noisy_gamma_zero_equals_oracle(w3_world):
    bayes = make_scope(w3_world, 0, ["theta0", "theta1"])
    noisy = make_scope(w3_world, 0, ["theta0", "theta1"], gamma=0.0)
    np.testing.assert_array_equal(
        posterior_table(w3_world, noisy), posterior_table(w3_world, bayes)
    )


def test_noisy_gamma_one_rejected(w3_world):
    for gamma in (1.0, -0.1, float("nan")):
        with pytest.raises(ConfigError):
            make_scope(w3_world, 0, ["theta0", "theta1"], gamma=gamma)


@given(gamma=st.floats(0.0, 0.99))
def test_noisy_within_gamma_of_oracle(gamma):
    world = build_world(
        ["t0", "t1", "t2"],
        ["a", "b"],
        [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]],
        "t0",
    )
    bayes = posterior_table(world, make_scope(world, 0, ["t0", "t1"]))
    noisy = posterior_table(world, make_scope(world, 0, ["t0", "t1"], gamma=gamma))
    assert np.abs(noisy - bayes).max() <= gamma + 1e-12


@given(gamma=st.floats(0.0, 0.99), col=st.integers(0, 1))
def test_noisy_rows_normalized(gamma, col):
    world = build_world(
        ["t0", "t1", "t2"],
        ["a", "b"],
        [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]],
        "t0",
    )
    table = posterior_table(world, make_scope(world, 0, ["t0", "t1"], gamma=gamma))
    assert table[col].sum() == pytest.approx(1.0, abs=1e-9)
    assert table.min() >= EPS


def test_table_sources_hold_the_posterior_table():
    doc = w3_doc()
    doc["agents"][1]["source"] = {"kind": "noisy", "gamma": 0.3}
    config = config_from_dict(doc)
    for scope, source in zip(config.scopes, build_sources(config)):
        assert type(source) is BayesOracle
        table = posterior_table(config.world, scope)
        assert source.per_symbol.tobytes() == table.tobytes()
        assert not source.per_symbol.flags.writeable
    assert NoisySource(table).per_symbol is table


def test_prior_below_floor_rejected(w3_world):
    with pytest.raises(ConfigError, match=r"must lie in \[1e-12, 1\]"):
        make_scope(w3_world, 0, ["theta0", "theta1"], prior=[1 - 1e-13, 1e-13])
    with pytest.raises(ConfigError):
        make_scope(w3_world, 0, ["theta0", "theta1"], prior=[1.0, 0.0])
    scope = make_scope(w3_world, 0, ["theta0", "theta1"], prior=[1 - EPS, EPS])
    np.testing.assert_array_equal(scope.prior, [1 - EPS, EPS])


_PROBS = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _classifiers(draw):
    """A random world and one agent's classifier over it: scope, prior,
    optional likelihood override and noise level."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 4))

    def table(rows):
        raw = np.array(draw(st.lists(
            st.lists(_PROBS, min_size=k, max_size=k), min_size=rows, max_size=rows
        ))) + draw(st.sampled_from([0.0, 1e-3]))
        raw[raw.sum(axis=1) == 0.0, 0] = 1.0
        return raw / raw.sum(axis=1, keepdims=True)

    world = build_world(
        [f"c{i}" for i in range(m)], [f"x{i}" for i in range(k)], table(m), 0
    )
    theta = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    prior = np.array(draw(st.lists(
        st.floats(1e-3, 1.0), min_size=len(theta), max_size=len(theta)
    )))
    override = draw(st.none() | st.just(m).map(table))
    gamma = draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True))
    scope = make_scope(
        world, 0, theta, prior=prior / prior.sum(), likelihoods=override, gamma=gamma
    )
    return world, scope


@given(_classifiers())
def test_posterior_table_bit_identical_to_former_sources(classifier):
    world, scope = classifier
    table = posterior_table(world, scope)
    if scope.gamma == 0.0:
        want = oracles.bayes_table_reference(world, scope)
    else:
        want = oracles.noisy_table_reference(world, scope, scope.gamma)
    assert table.shape == (world.inputs.size, scope.size)
    assert table.tobytes() == want.tobytes()


# -- replay source --------------------------------------------------------

def test_replay_rounds_are_one_based(w3_world):
    scope = make_scope(w3_world, 0, ["theta0", "theta1"])
    source = ReplaySource(scope, np.array([[0.7, 0.3], [0.4, 0.6]]))
    assert source.length == 2
    # vectors[t - 1] feeds round t.
    np.testing.assert_allclose(source.vectors[0], [0.7, 0.3])
    np.testing.assert_allclose(source.vectors[1], [0.4, 0.6])


def test_replay_validates_rows(w3_world):
    scope = make_scope(w3_world, 0, ["theta0", "theta1"])
    with pytest.raises(RowNotStochastic):
        ReplaySource(scope, np.array([[0.7, 0.7]]))
    with pytest.raises(DimensionMismatch):
        ReplaySource(scope, np.array([[0.2, 0.3, 0.5]]))


def test_replay_preserves_clean_rows_bitwise(w3_world):
    scope = make_scope(w3_world, 0, ["theta0", "theta1"])
    rows = np.array([[0.123456789012345, 0.876543210987655]])
    source = ReplaySource(scope, rows)
    np.testing.assert_array_equal(source.vectors, rows)


def test_replay_floors_zero_entries(w3_world):
    scope = make_scope(w3_world, 0, ["theta0", "theta1"])
    source = ReplaySource(scope, np.array([[1.0, 0.0]]))
    assert source.vectors.min() >= EPS / 2
    assert source.vectors[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_replay_csv_round_trip(w3_world, tmp_path):
    path = tmp_path / "stream.csv"
    scope0 = make_scope(w3_world, 0, ["theta0", "theta1"])
    scope1 = make_scope(w3_world, 1, ["theta1", "theta2"])
    series = [
        np.array([[0.8, 0.2], [0.3, 0.7]]),
        np.array([[0.55, 0.45], [0.5, 0.5]]),
    ]
    write_replay_csv(
        path, w3_world, [scope0, scope1], [(s, np.arange(2)) for s in series]
    )
    lines = path.read_text().splitlines()
    assert lines == [
        "round,agent_id,theta0,theta1,theta2",
        "1,0,0.8,0.2,",
        "1,1,,0.55,0.45",
        "2,0,0.3,0.7,",
        "2,1,,0.5,0.5",
    ]

    source = replay_source(path, *load_replay_csv(path, w3_world), w3_world, scope0)
    assert source.length == 2
    np.testing.assert_allclose(source.vectors, [[0.8, 0.2], [0.3, 0.7]])

    labels, parsed = load_replay_csv(path, w3_world)
    assert labels == ["theta0", "theta1", "theta2"]
    assert sorted(parsed) == [0, 1]
    np.testing.assert_array_equal(
        parsed[1], [[np.nan, 0.55, 0.45], [np.nan, 0.5, 0.5]]
    )


def test_replay_csv_rejects_gaps(w3_world, tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text(
        "round,agent_id,theta0,theta1,theta2\n1,0,0.8,0.2,\n3,0,0.3,0.7,\n"
    )
    with pytest.raises(ParseError):
        load_replay_csv(path, w3_world)


def test_replay_csv_rejects_bad_header(w3_world, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("round,agent,theta0\n1,0,1.0\n")
    with pytest.raises(ParseError):
        load_replay_csv(path, w3_world)


def test_replay_csv_missing_scope_column(w3_world, tmp_path):
    path = tmp_path / "partial.csv"
    scope = make_scope(w3_world, 0, ["theta0", "theta1"])
    write_replay_csv(path, w3_world, [scope], [(np.array([[0.8, 0.2]]), np.arange(1))])
    scope_c = make_scope(w3_world, 0, ["theta0", "theta2"])
    with pytest.raises(ParseError):
        replay_source(path, *load_replay_csv(path, w3_world), w3_world, scope_c)


# -- properties -----------------------------------------------------------

@given(
    prior0=st.floats(0.05, 0.95),
    row=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
)
def test_posterior_normalized_and_positive(prior0, row):
    a, b = row
    world = build_world(
        ["t0", "t1"],
        ["x0", "x1"],
        [[a, 1 - a], [b, 1 - b]],
        "t0",
    )
    scope = make_scope(world, 0, ["t0", "t1"], prior=[prior0, 1 - prior0])
    for probs in posterior_table(world, scope):
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert probs.min() >= EPS
