"""Belief update engine: local recursion, pooling rules, log-ratio bookkeeping."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from myopic_crowd.classifier import BayesOracle, PosteriorVector, make_scope
from myopic_crowd.dynamics import (
    BeliefState,
    GLOBAL_RULES,
    LOG_FLOOR,
    global_update_avg,
    global_update_max,
    global_update_min,
    init_beliefs,
    local_update,
    log_ratio_diagnostics,
    logsumexp,
    neighborhood_csr,
    pool,
    with_global,
)
from myopic_crowd.errors import (
    DimensionMismatch,
    EmptyNeighborhood,
    RowNotStochastic,
    ScopeMismatch,
)
from myopic_crowd.network import (
    AgentGraph,
    complete_graph,
    erdos_renyi_connected,
    path_graph,
)
from myopic_crowd.world import build_world

import oracles
from conftest import W3_CLASSES, W3_ROWS, W3_SYMBOLS, W3_TRUE

_WORLD = build_world(W3_CLASSES, W3_SYMBOLS, W3_ROWS, W3_TRUE)
_SCOPE_A = make_scope(_WORLD, 0, ["theta0", "theta1"])
_SCOPE_FULL = make_scope(_WORLD, 0, ["theta0", "theta1", "theta2"])


def _state(pi, mu=None, agent_id=0, round_=0):
    pi = np.log(np.asarray(pi, dtype=float))
    mu = pi.copy() if mu is None else np.log(np.asarray(mu, dtype=float))
    return BeliefState(agent_id, pi, mu, round_)


def test_init_beliefs_uniform():
    s10 = init_beliefs(10)
    np.testing.assert_allclose(s10.pi(), np.full(10, 0.1), atol=1e-15)
    s3 = init_beliefs(3)
    np.testing.assert_allclose(s3.mu(), np.full(3, 1 / 3), atol=1e-15)
    assert logsumexp(init_beliefs(2).log_pi) == pytest.approx(0.0, abs=1e-12)
    assert s3.round == 0


def test_init_beliefs_rejects_degenerate():
    with pytest.raises(DimensionMismatch):
        init_beliefs(1)


def test_belief_state_requires_normalization():
    with pytest.raises(RowNotStochastic):
        BeliefState(0, np.log([0.5, 0.4]), np.log([0.5, 0.5]), 0)
    with pytest.raises(RowNotStochastic):
        BeliefState(0, np.log([0.5, 0.5]), np.array([0.0, -np.inf]), 0)


def test_local_update_hand_example():
    state = init_beliefs(3)
    post = PosteriorVector(_SCOPE_A, np.array([0.8, 0.2]))
    out = local_update(state, post, _SCOPE_A)
    np.testing.assert_allclose(out.pi(), [4 / 9, 1 / 9, 4 / 9], atol=1e-12)
    assert out.round == 1
    # The global belief rides along unchanged until the pooling step.
    np.testing.assert_allclose(out.mu(), state.mu(), atol=1e-15)


def test_local_update_no_information():
    state = init_beliefs(3)
    post = PosteriorVector(_SCOPE_A, np.array([0.5, 0.5]))
    out = local_update(state, post, _SCOPE_A)
    np.testing.assert_allclose(out.pi(), state.pi(), atol=1e-12)


def test_local_update_full_scope_is_bayes_reweighting():
    state = _state([0.2, 0.3, 0.5])
    post = PosteriorVector(_SCOPE_FULL, np.array([0.5, 0.25, 0.25]))
    out = local_update(state, post, _SCOPE_FULL)
    prior = _SCOPE_FULL.prior
    expected = state.pi() * (post.probs / prior)
    expected /= expected.sum()
    np.testing.assert_allclose(out.pi(), expected, atol=1e-12)


def test_local_update_scope_mismatch():
    state = init_beliefs(3)
    post = PosteriorVector(_SCOPE_A, np.array([0.8, 0.2]))
    other = make_scope(_WORLD, 1, ["theta1", "theta2"])
    with pytest.raises(ScopeMismatch):
        local_update(state, post, other)


def test_local_update_matches_linear_oracle_stepwise():
    agent = oracles.LinearAgent([0, 1], [0.5, 0.5], 3)
    state = init_beliefs(3)
    rng = np.random.default_rng(17)
    oracle = BayesOracle(_WORLD, _SCOPE_A)
    for _ in range(50):
        sym = "a" if rng.random() < 0.8 else "b"
        pv = oracle.posterior(sym)
        state = local_update(state, pv, _SCOPE_A)
        agent.local_step(list(pv.probs))
        np.testing.assert_allclose(state.pi(), agent.pi, atol=1e-9)


# -- pooling rules --------------------------------------------------------

def test_min_rule_hand_example():
    own = _state([0.4, 0.4, 0.2], mu=[0.5, 0.3, 0.2])
    neighbor = np.log([0.2, 0.5, 0.3])
    out = global_update_min(own, [own.log_mu, neighbor])
    np.testing.assert_allclose(np.exp(out), [2 / 7, 3 / 7, 2 / 7], atol=1e-12)


def test_avg_rule_hand_example():
    own = _state([0.4, 0.4, 0.2], mu=[0.5, 0.3, 0.2])
    neighbor = np.log([0.2, 0.5, 0.3])
    out = global_update_avg(own, [own.log_mu, neighbor])
    np.testing.assert_allclose(
        np.exp(out), [1.1 / 3, 1.2 / 3, 0.7 / 3], atol=1e-12
    )


def test_max_rule_hand_example():
    own = _state([0.4, 0.4, 0.2], mu=[0.5, 0.3, 0.2])
    neighbor = np.log([0.2, 0.5, 0.3])
    out = global_update_max(own, [own.log_mu, neighbor])
    np.testing.assert_allclose(np.exp(out), [5 / 13, 5 / 13, 3 / 13], atol=1e-12)


def test_isolated_agent_min():
    own = _state([0.4, 0.4, 0.2], mu=[0.5, 0.3, 0.2])
    out = global_update_min(own, [own.log_mu])
    expected = np.minimum([0.5, 0.3, 0.2], [0.4, 0.4, 0.2])
    np.testing.assert_allclose(np.exp(out), expected / expected.sum(), atol=1e-12)


def test_empty_neighborhood_rejected():
    own = _state([0.4, 0.4, 0.2])
    with pytest.raises(EmptyNeighborhood):
        global_update_min(own, [])


def test_dimension_mismatch_rejected():
    own = _state([0.4, 0.4, 0.2])
    with pytest.raises(DimensionMismatch):
        global_update_min(own, [np.log([0.5, 0.5])])


def test_rules_registry_complete():
    assert set(GLOBAL_RULES) == {"min", "avg", "max"}
    assert GLOBAL_RULES["min"] is global_update_min


@given(
    v=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    rule=st.sampled_from(["min", "avg", "max"]),
)
def test_all_equal_inputs_identity(v, rule):
    probs = np.asarray(v) / np.sum(v)
    own = _state(probs, mu=probs)
    out = GLOBAL_RULES[rule](own, [own.log_mu, own.log_mu.copy()])
    np.testing.assert_allclose(np.exp(out), probs, atol=1e-12)


@given(
    vecs=st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    rule=st.sampled_from(["min", "avg", "max"]),
)
def test_pooled_output_normalized(vecs, rule):
    normed = [np.asarray(v) / np.sum(v) for v in vecs]
    own = _state(normed[0])
    out = GLOBAL_RULES[rule](own, [np.log(v) for v in normed])
    assert logsumexp(out) == pytest.approx(0.0, abs=1e-9)
    assert np.all(out >= LOG_FLOOR)


@given(
    vecs=st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_rules_match_linear_oracle(vecs):
    normed = [list(np.asarray(v) / np.sum(v)) for v in vecs]
    own = _state(normed[0])
    inputs = normed[1:] + [normed[0]]
    for rule in ("min", "avg", "max"):
        out = GLOBAL_RULES[rule](own, [np.log(v) for v in normed[1:]] + [own.log_mu])
        # The oracle pools the same input set: neighbor beliefs plus own pi.
        expected = oracles._pool(rule, [list(v) for v in normed[1:]] + [normed[0], normed[0]])
        np.testing.assert_allclose(np.exp(out), expected, atol=1e-10)


# -- pooling kernel against the dense reference ---------------------------

@st.composite
def _connected_graphs(draw):
    kind = draw(st.sampled_from(["single", "path", "complete", "er"]))
    if kind == "single":
        return AgentGraph.from_edges(1, [])
    n = draw(st.integers(2, 8))
    if kind == "path":
        return path_graph(n)
    if kind == "complete":
        return complete_graph(n)
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.floats(0.3, 1.0))
    return erdos_renyi_connected(n, p, np.random.default_rng(seed))


@given(data=st.data())
def test_pool_kernel_matches_dense_reference(data):
    graph = data.draw(_connected_graphs())
    shape = (graph.n, data.draw(st.integers(2, 5)))
    # Log-beliefs with entries pinned at the floor, so ties between flagged
    # and unflagged inputs occur and exercise flag propagation.
    entries = st.one_of(st.just(LOG_FLOOR), st.floats(LOG_FLOOR, 0.0))
    beliefs = arrays(float, shape, elements=entries)
    prev, own = data.draw(beliefs), data.draw(beliefs)
    prev_flags = data.draw(arrays(bool, shape))
    own_flags = data.draw(arrays(bool, shape))
    hood = neighborhood_csr(graph.neighborhoods)
    for rule in ("min", "avg", "max"):
        got, got_flags = pool(rule, prev, prev_flags, own, own_flags, hood)
        want, want_flags = oracles.dense_pool(
            rule, prev, prev_flags, own, own_flags, graph.neighborhoods
        )
        np.testing.assert_array_equal(got_flags, want_flags)
        if rule == "avg":
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(got, want)


# -- order preservation ---------------------------------------------------

@given(
    p_a=st.floats(0.05, 0.95),
    prev=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_order_preservation_in_scope(p_a, prev):
    # With a shared uniform prior the evidence ratio ordering is just the
    # posterior ordering; a strictly larger posterior on a class whose
    # previous belief is at least as large must stay strictly ahead.
    post = np.array([p_a, 1.0 - p_a])
    if abs(post[0] - post[1]) < 1e-6:
        return
    hi, lo = (0, 1) if post[0] > post[1] else (1, 0)
    prev = np.asarray(prev, dtype=float)
    if prev[hi] < prev[lo]:
        prev[hi], prev[lo] = prev[lo], prev[hi]
    prev = prev / prev.sum()
    state = _state(prev)
    out = local_update(state, PosteriorVector(_SCOPE_A, post), _SCOPE_A)
    assert out.log_pi[hi] > out.log_pi[lo]


# -- fill rule ------------------------------------------------------------

@given(
    p_a=st.floats(0.05, 0.95),
    prev=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_out_of_scope_fill_tracks_in_scope_max(p_a, prev):
    prev = np.asarray(prev, dtype=float)
    prev /= prev.sum()
    state = _state(prev)
    post = PosteriorVector(_SCOPE_A, np.array([p_a, 1.0 - p_a]))
    out = local_update(state, post, _SCOPE_A)
    in_scope_max = max(out.pi()[0], out.pi()[1])
    assert out.pi()[2] == pytest.approx(in_scope_max, rel=1e-12)


# -- log-ratio diagnostics ------------------------------------------------

def test_lambda_first_step():
    state0 = init_beliefs(3)
    post = PosteriorVector(_SCOPE_A, np.array([0.8, 0.2]))
    state1 = local_update(state0, post, _SCOPE_A)
    diag = log_ratio_diagnostics([state0, state1], [post], _SCOPE_A, 1, 0)
    assert diag.lam[0] == pytest.approx(math.log(0.2 / 0.8), abs=1e-12)
    assert diag.rho[1] - diag.rho[0] == pytest.approx(diag.lam[0], abs=1e-12)


def test_lambda_zero_when_posterior_equals_prior():
    states = [init_beliefs(3)]
    posts = []
    for _ in range(20):
        pv = PosteriorVector(_SCOPE_A, np.array([0.5, 0.5]))
        posts.append(pv)
        states.append(local_update(states[-1], pv, _SCOPE_A))
    diag = log_ratio_diagnostics(states, posts, _SCOPE_A, 1, 0)
    np.testing.assert_allclose(diag.lam, 0.0, atol=1e-12)
    np.testing.assert_allclose(diag.rho, diag.rho[0], atol=1e-9)


def test_rho_recursion_identity_short():
    rng = np.random.default_rng(23)
    oracle = BayesOracle(_WORLD, _SCOPE_A)
    states = [init_beliefs(3)]
    posts = []
    for _ in range(300):
        sym = "a" if rng.random() < 0.8 else "b"
        pv = oracle.posterior(sym)
        posts.append(pv)
        states.append(local_update(states[-1], pv, _SCOPE_A))
    for theta, star in ((1, 0), (0, 1)):
        diag = log_ratio_diagnostics(states, posts, _SCOPE_A, theta, star)
        drift = diag.rho - diag.rho[0]
        accumulated = np.concatenate([[0.0], diag.lambda_sum])
        np.testing.assert_allclose(drift, accumulated, atol=1e-9)


def test_diagnostics_scope_check():
    states = [init_beliefs(3)]
    with pytest.raises(ScopeMismatch):
        log_ratio_diagnostics(states, [], _SCOPE_A, 2, 0)


def test_diagnostics_length_check():
    states = [init_beliefs(3), init_beliefs(3)]
    with pytest.raises(DimensionMismatch):
        log_ratio_diagnostics(states, [], _SCOPE_A, 1, 0)


def test_with_global_replaces_mu():
    state = init_beliefs(3)
    new_mu = np.log([0.6, 0.2, 0.2])
    out = with_global(state, new_mu)
    np.testing.assert_array_equal(out.log_mu, new_mu)
    np.testing.assert_array_equal(out.log_pi, state.log_pi)
