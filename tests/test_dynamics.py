"""Belief engine: local recursion, pooling rules, log-ratio bookkeeping."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from myopic_crowd import dynamics
from myopic_crowd.classifier import make_scope, write_replay_csv
from myopic_crowd.config import RULES
from myopic_crowd.dynamics import (
    CLAMP_TOL,
    GROUP_CELLS,
    LOG_FLOOR,
    SHORT_ROW,
    global_trajectory,
    local_trajectories,
    neighborhood_csr,
    norm_plan,
    norm_rows,
    row_max,
)
from myopic_crowd.errors import ScopeMismatch
from myopic_crowd.network import AgentGraph, erdos_renyi_connected
from myopic_crowd.world import build_world

import oracles
from oracles import complete_graph, path_graph
from conftest import W3_CLASSES, W3_ROWS, W3_SYMBOLS, W3_TRUE, posterior_table

_WORLD = build_world(W3_CLASSES, W3_SYMBOLS, W3_ROWS, W3_TRUE)
_SCOPE_A = make_scope(_WORLD, 0, ["theta0", "theta1"])
_SCOPE_FULL = make_scope(_WORLD, 0, ["theta0", "theta1", "theta2"])


def local_trajectory(scope, m, posts):
    """One agent's (T+1, m) local log-beliefs and clamp flags, evaluated
    alone by ``local_trajectories``."""
    posts = np.asarray(posts, dtype=float)
    log_pi = np.empty((posts.shape[0] + 1, 1, m))
    clamped = np.empty(log_pi.shape, dtype=bool)
    local_trajectories([scope], [(posts, np.arange(len(posts)))], log_pi, clamped)
    return log_pi[:, 0], clamped[:, 0]


def _local(scope, posts, m=3):
    """Local beliefs (linear probabilities) for rounds 0..T of a stream."""
    log_pi, _ = local_trajectory(scope, m, np.asarray(posts, dtype=float))
    return np.exp(log_pi)


def _rho(scope, posts, theta, theta_star):
    """ρ_t = log π_t(θ) − log π_t(θ*) over rounds 0..T, and the per-round
    increments λ computed independently from the posterior stream."""
    posts = np.asarray(posts, dtype=float)
    log_pi, _ = local_trajectory(scope, 3, posts)
    p, s = oracles.position(scope, theta), oracles.position(scope, theta_star)
    ratios = np.log(posts) - np.log(scope.prior)
    return log_pi[:, theta] - log_pi[:, theta_star], ratios[:, p] - ratios[:, s]


def test_init_beliefs_uniform():
    for m in (2, 3, 10):
        scope = make_scope(
            build_world(
                [f"c{k}" for k in range(m)], ["x"], [[1.0]] * m, "c0"
            ),
            0,
            [0, 1],
        )
        log_pi, flags = local_trajectory(scope, m, np.empty((0, 2)))
        assert log_pi.shape == (1, m)
        np.testing.assert_allclose(np.exp(log_pi[0]), np.full(m, 1 / m), atol=1e-15)
        assert not flags.any()
    [(log_mu, _)] = global_trajectory(
        ("min",), np.full((1, 2, 3), -math.log(3)), np.zeros((1, 2, 3), bool),
        neighborhood_csr([[0, 1], [0, 1]]),
    )
    np.testing.assert_allclose(np.exp(log_mu[0]), 1 / 3, atol=1e-15)


def test_belief_state_requires_normalization():
    # Every round of both trajectories is a distribution: log-sum-exp 0.
    # Draws from theta0's row carry theta1 past the floor.
    rng = np.random.default_rng(5)
    symbols = (rng.random(1500) >= 0.8).astype(int)
    posts = posterior_table(_WORLD, _SCOPE_A)[symbols]
    log_pi, clamped_pi = local_trajectory(_SCOPE_A, 3, posts)
    assert clamped_pi.any()
    pis = np.stack([log_pi, log_pi], axis=1)
    flags = np.stack([clamped_pi, clamped_pi], axis=1)
    hood = neighborhood_csr([[0, 1], [0, 1]])
    for log_mu, _ in global_trajectory(RULES, pis, flags, hood):
        for beliefs in (log_pi, log_mu):
            lse = np.logaddexp.reduce(beliefs, axis=-1)
            np.testing.assert_allclose(lse, 0.0, atol=1e-9)


def test_local_update_hand_example():
    pi = _local(_SCOPE_A, [[0.8, 0.2]])
    np.testing.assert_allclose(pi[1], [4 / 9, 1 / 9, 4 / 9], atol=1e-12)


def test_local_update_no_information():
    pi = _local(_SCOPE_A, [[0.5, 0.5]])
    np.testing.assert_allclose(pi[1], pi[0], atol=1e-12)


def test_local_update_full_scope_is_bayes_reweighting():
    # Round 1 moves the uniform start to [0.2, 0.3, 0.5] (uniform prior);
    # round 2 must reweight that belief by posterior / prior.
    post = np.array([0.5, 0.25, 0.25])
    pi = _local(_SCOPE_FULL, [[0.2, 0.3, 0.5], post])
    np.testing.assert_allclose(pi[1], [0.2, 0.3, 0.5], atol=1e-12)
    expected = pi[1] * (post / _SCOPE_FULL.prior)
    expected /= expected.sum()
    np.testing.assert_allclose(pi[2], expected, atol=1e-12)


def test_local_update_scope_mismatch():
    with pytest.raises(ScopeMismatch):
        local_trajectory(_SCOPE_A, 3, np.full((4, 3), 1 / 3))


def test_local_update_matches_linear_oracle_stepwise():
    agent = oracles.LinearAgent([0, 1], [0.5, 0.5], 3)
    rng = np.random.default_rng(17)
    symbols = (rng.random(50) >= 0.8).astype(int)
    posts = posterior_table(_WORLD, _SCOPE_A)[symbols]
    pi = _local(_SCOPE_A, posts)
    for t, post in enumerate(posts, start=1):
        agent.local_step(list(post))
        np.testing.assert_allclose(pi[t], agent.pi, atol=1e-9)


@st.composite
def _mixed_streams(draw):
    """(world, scopes, streams, t_max): table-shaped streams (a few rows read
    by a drawn index) beside replay-shaped ones (T rows read in order), of
    every scope size.  Each row's lead class gains 3 to 8 nats a round on the
    scope's other classes, so beliefs of scopes of two or more classes reach
    the floor before the horizon."""
    m = draw(st.integers(2, 4))
    world = build_world([f"c{j}" for j in range(m)], ["x"], [[1.0]] * m, "c0")
    t_max = draw(st.integers(240, 320))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scopes, streams = [], []
    for i in range(draw(st.integers(1, 6))):
        k = 2 if i == 0 else draw(st.integers(1, m))
        raw_prior = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k)))
        scope = make_scope(
            world, i, sorted(rng.permutation(m)[:k]), prior=raw_prior / raw_prior.sum()
        )
        tabled = draw(st.booleans())
        n_rows = draw(st.integers(1, 4)) if tabled else t_max
        ratios = rng.uniform(0.1, 1.0, size=(n_rows, k))
        lead = rng.integers(k)
        ratios[:, lead] = ratios.max(axis=1) * np.exp(rng.uniform(3, 8, n_rows))
        rows = ratios * scope.prior
        rows /= rows.sum(axis=1, keepdims=True)
        index = rng.integers(n_rows, size=t_max) if tabled else np.arange(t_max)
        scopes.append(scope)
        streams.append((rows, index))
    return world, scopes, streams, t_max


@settings(max_examples=40, deadline=None)
@given(case=_mixed_streams(), cells=st.sampled_from([1, 400, GROUP_CELLS]))
def test_mixed_streams_match_per_agent_references(tmp_path_factory, case, cells):
    # Gathering each row's log ratio equals the ratio of the gathered row,
    # bit for bit, and the writer reads the same rows the dynamics did.
    world, scopes, streams, t_max = case
    m, n = world.m, len(scopes)
    out = np.empty((t_max + 1, n, m))
    clamped = np.empty(out.shape, dtype=bool)
    with mock.patch.object(dynamics, "GROUP_CELLS", cells):
        local_trajectories(scopes, streams, out, clamped)
    assert clamped[:, 0].any()
    for i, (scope, (rows, index)) in enumerate(zip(scopes, streams)):
        want, want_flags = oracles.local_trajectory_reference(scope, m, rows[index])
        _same_bytes(out[:, i].copy(), want)
        _same_bytes(clamped[:, i].copy(), want_flags)
    tmp = tmp_path_factory.mktemp("replay")
    write_replay_csv(tmp / "fast.csv", world, scopes, streams)
    labels = world.classes.labels
    series = [rows[index] for rows, index in streams]
    oracles.replay_csv_reference(
        tmp / "ref.csv", labels, oracles.replay_rows(labels, scopes, series)
    )
    assert (tmp / "fast.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


# -- pooling rules --------------------------------------------------------

def _pooled(rule, own_pi, neighbor_mus):
    """One agent pooling its neighborhood's beliefs with its own local
    belief under ``rule``, normalized, as linear probabilities.

    Runs the reference kernel, which ``global_trajectory`` matches bit for
    bit (``test_global_trajectory_matches_reference_loop``): agent 0 pools
    agents 0..k-1, every other agent only itself.
    """
    prev = np.log(np.asarray(neighbor_mus, dtype=float))
    k, m = prev.shape
    own = np.repeat(np.log(np.asarray([own_pi], dtype=float)), k, axis=0)
    no_flags = np.zeros((k, m), dtype=bool)
    hood = neighborhood_csr([range(k), *([j] for j in range(1, k))])
    pooled, _ = oracles.pool(rule, prev, no_flags, own, no_flags, hood)
    out, _ = oracles.norm_rows(pooled)
    return np.exp(out[0])


_OWN_PI = [0.4, 0.4, 0.2]
_OWN_MU = [0.5, 0.3, 0.2]
_NEIGHBOR = [0.2, 0.5, 0.3]


def test_min_rule_hand_example():
    out = _pooled("min", _OWN_PI, [_OWN_MU, _NEIGHBOR])
    np.testing.assert_allclose(out, [2 / 7, 3 / 7, 2 / 7], atol=1e-12)


def test_avg_rule_hand_example():
    out = _pooled("avg", _OWN_PI, [_OWN_MU, _NEIGHBOR])
    np.testing.assert_allclose(out, [1.1 / 3, 1.2 / 3, 0.7 / 3], atol=1e-12)


def test_max_rule_hand_example():
    out = _pooled("max", _OWN_PI, [_OWN_MU, _NEIGHBOR])
    np.testing.assert_allclose(out, [5 / 13, 5 / 13, 3 / 13], atol=1e-12)


def test_isolated_agent_min():
    out = _pooled("min", _OWN_PI, [_OWN_MU])
    expected = np.minimum(_OWN_MU, _OWN_PI)
    np.testing.assert_allclose(out, expected / expected.sum(), atol=1e-12)


def test_rules_registry_complete():
    log_pi = np.full((2, 1, 3), -math.log(3))
    flags = np.zeros(log_pi.shape, dtype=bool)
    hood = neighborhood_csr([[0]])
    for rule in RULES:
        global_trajectory((rule,), log_pi, flags, hood)
    with pytest.raises(ValueError, match="unknown pooling rule 'median'"):
        global_trajectory(("median",), log_pi, flags, hood)
    # Every rule is checked before any round is pooled.
    with pytest.raises(ValueError, match="unknown pooling rule 'median'"):
        global_trajectory(("min", "median"), log_pi[:1], flags[:1], hood)


@given(
    v=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    rule=st.sampled_from(RULES),
)
def test_all_equal_inputs_identity(v, rule):
    probs = np.asarray(v) / np.sum(v)
    out = _pooled(rule, probs, [probs, probs.copy()])
    np.testing.assert_allclose(out, probs, atol=1e-12)


@given(
    vecs=st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    rule=st.sampled_from(RULES),
)
def test_pooled_output_normalized(vecs, rule):
    normed = [np.asarray(v) / np.sum(v) for v in vecs]
    out = np.log(_pooled(rule, normed[0], normed))
    assert np.logaddexp.reduce(out) == pytest.approx(0.0, abs=1e-9)
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
    for rule in RULES:
        out = _pooled(rule, normed[0], normed[1:] + [normed[0]])
        # The oracle pools the same input set: neighbor beliefs plus own pi.
        expected = oracles._pool(rule, normed[1:] + [normed[0], normed[0]])
        np.testing.assert_allclose(out, expected, atol=1e-10)


# -- pooling kernels against their references -----------------------------

@st.composite
def _connected_graphs(draw):
    # Complete graphs and stars reach segments of 9 or more entries, where
    # reduceat sums pairwise; a star's hub also makes the padded layout too
    # wide, so min and max pool from CSR.
    kind = draw(st.sampled_from(["single", "path", "complete", "star", "er"]))
    if kind == "single":
        return AgentGraph.from_edges(1, [])
    n = draw(st.integers(2, 8))
    if kind == "path":
        return path_graph(n)
    if kind == "complete":
        return complete_graph(n)
    if kind == "star":
        n = draw(st.integers(2, 12))
        return AgentGraph.from_edges(n, [[0, j] for j in range(1, n)])
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
        got, got_flags = oracles.pool(rule, prev, prev_flags, own, own_flags, hood)
        want, want_flags = oracles.dense_pool(
            rule, prev, prev_flags, own, own_flags, graph.neighborhoods
        )
        np.testing.assert_array_equal(got_flags, want_flags)
        if rule == "avg":
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(got, want)


def _same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shape, dtype and bytes: unlike ``==``, tells -0.0 from 0.0."""
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


# -- short-row rule -------------------------------------------------------

@st.composite
def _norm_rows_inputs(draw):
    """1- to 3-D log-beliefs 1 to 12 entries wide, on both sides of
    SHORT_ROW: entries pinned at or just above the floor, and entries that
    tie within a row."""
    width = draw(st.integers(1, 12))
    lead = draw(st.lists(st.integers(1, 5), max_size=2))
    entries = st.one_of(
        st.sampled_from([LOG_FLOOR, LOG_FLOOR + CLAMP_TOL / 2, -1.0, 0.0]),
        st.floats(LOG_FLOOR - 50.0, 20.0),
    )
    return draw(arrays(float, (*lead, width), elements=entries))


@settings(max_examples=200, deadline=None)
@given(x=_norm_rows_inputs())
def test_norm_rows_matches_row_reductions_bitwise(x):
    want, want_clamped = oracles.norm_rows(x)
    got, got_clamped = norm_rows(x)
    _same_bytes(got, want)
    _same_bytes(got_clamped, want_clamped)


@st.composite
def _strided_views(draw):
    """Views 1 to 9 entries wide into a larger buffer: a block of its
    columns, or a slice of every step-th row."""
    width = draw(st.integers(1, 9))
    lead = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    entries = st.one_of(
        st.sampled_from([LOG_FLOOR, LOG_FLOOR + CLAMP_TOL / 2, -1.0, 0.0]),
        st.floats(LOG_FLOOR - 50.0, 20.0),
    )
    start = draw(st.integers(0, 3))
    if draw(st.booleans()):
        shape = (*lead, width + draw(st.integers(1, 4)) + start)
        return draw(arrays(float, shape, elements=entries))[..., start : start + width]
    step = draw(st.integers(2, 3))
    shape = (lead[0] * step + start, *lead[1:], width)
    return draw(arrays(float, shape, elements=entries))[start::step]


@settings(max_examples=200, deadline=None)
@given(x=_strided_views())
@example(x=np.full((1, 2), -0.0))
def test_row_reductions_of_views_match_numpy_bitwise(x):
    # Pooling normalizes a block of a larger array, so the column-by-column
    # rule must keep the bytes on views as well as on fresh arrays.
    _same_bytes(row_max(x), np.maximum.reduce(x, axis=-1, keepdims=True))
    want, want_clamped = oracles.norm_rows(x)
    got, got_clamped = norm_rows(x)
    _same_bytes(got, want)
    _same_bytes(got_clamped, want_clamped)


@st.composite
def _refills(draw):
    """Up to five refills of a 1- to 3-D buffer 1 to 12 entries wide, on
    both sides of SHORT_ROW, stacked on a leading axis: entries at and just
    above the floor plus its tolerance, and entries that tie within a row."""
    shape = (*draw(st.lists(st.integers(1, 6), max_size=2)), draw(st.integers(1, 12)))
    entries = st.one_of(
        st.sampled_from([
            LOG_FLOOR,
            LOG_FLOOR + CLAMP_TOL,
            np.nextafter(LOG_FLOOR + CLAMP_TOL, 0.0),
            LOG_FLOOR + 2 * CLAMP_TOL,
            -1.0,
            0.0,
        ]),
        st.floats(LOG_FLOOR - 50.0, 20.0),
    )
    return draw(arrays(float, (draw(st.integers(1, 5)), *shape), elements=entries))


@settings(max_examples=100, deadline=None)
@given(x=_refills())
def test_one_plan_normalizes_every_refill_of_its_buffer(x):
    # As in a pooling loop: one plan for one buffer, refilled each round and
    # normalized into round views of a (T+1, r, m) array.  Every round must
    # equal the fresh-array floor rule, so no state leaks between calls.
    buffer = np.empty(x.shape[1:])
    norm = norm_plan(buffer)
    out = np.full((len(x) + 1, *x.shape[1:]), np.nan)
    clamped = np.zeros(out.shape, dtype=bool)
    for values, mu, flags in zip(x, out[1:], clamped[1:]):
        buffer[...] = values
        norm(mu, flags)
    for values, mu, flags in zip(x, out[1:], clamped[1:]):
        want, want_clamped = oracles.norm_rows(values)
        _same_bytes(mu, want)
        _same_bytes(flags, want_clamped)


def test_numpy_sums_rows_shorter_than_short_row_left_to_right():
    # The short-row rule relies on it; if numpy changes its summation order,
    # this test fails rather than an artifact changing.
    rng = np.random.default_rng(5)
    for width in range(1, SHORT_ROW):
        x = np.exp(rng.normal(0.0, 20.0, size=(2, 1000, width)))
        ordered = x[..., 0].copy()
        backward = x[..., -1].copy()
        for j in range(1, width):
            ordered += x[..., j]
            backward += x[..., width - 1 - j]
        _same_bytes(np.add.reduce(x, axis=-1), ordered)
        _same_bytes(np.add.reduce(x[0], axis=-1), ordered[0])
        _same_bytes(np.add.reduce(x[:, ::3], axis=-1), ordered[:, ::3])
        # The order shows in the bits, so the test can fail.
        assert width < 3 or (backward != ordered).any()


@st.composite
def _floor_crossing_inputs(draw):
    """(log_pi, clamped_pi, hood) of local trajectories that carry classes
    past the floor, so flags first appear after round 1."""
    graph = draw(_connected_graphs())
    m = draw(st.integers(2, 4))
    world = build_world([f"c{j}" for j in range(m)], ["x"], [[1.0]] * m, "c0")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rounds = [draw(st.integers(240, 320)), draw(st.integers(0, 60))]
    log_pi = np.empty((sum(rounds) + 1, graph.n, m))
    clamped_pi = np.empty(log_pi.shape, dtype=bool)
    for i in range(graph.n):
        # Agent 0 tells classes apart; the others may hold a single class.
        k = draw(st.integers(2 if i == 0 else 1, m))
        scope = make_scope(world, i, sorted(rng.permutation(m)[:k]))
        phases = []
        for length in rounds:
            # The lead class gains 3 to 8 nats a round on every other
            # in-scope class: the first phase carries them past the floor,
            # and in the second another class may climb back above it.
            ratios = rng.uniform(0.1, 1.0, size=(length, k))
            lead = rng.integers(k)
            ratios[:, lead] = ratios.max(axis=1) * np.exp(rng.uniform(3, 8, length))
            phases.append(ratios * scope.prior)
        posts = np.concatenate(phases)
        posts /= posts.sum(axis=1, keepdims=True)
        log_pi[:, i], clamped_pi[:, i] = local_trajectory(scope, m, posts)
    flagged_rounds = np.nonzero(clamped_pi.any(axis=(1, 2)))[0]
    assert flagged_rounds.size and flagged_rounds[0] > 1
    return log_pi, clamped_pi, neighborhood_csr(graph.neighborhoods)


@st.composite
def _arbitrary_inputs(draw, graphs=_connected_graphs(), widths=st.integers(2, 4)):
    """(log_pi, clamped_pi, hood) of a few rounds of arbitrary log-beliefs:
    entries pinned at the floor tie with free ones, and local flags start
    after round 1 and then come and go, so a round may carry only global
    flags, which normalization can lift above the floor."""
    graph = draw(graphs)
    m = draw(widths)
    rounds = draw(st.integers(2, 8))
    shape = (rounds + 1, graph.n, m)
    entries = st.one_of(st.just(LOG_FLOOR), st.floats(LOG_FLOOR, 0.0))
    log_pi = draw(arrays(float, shape, elements=entries))
    clamped_pi = draw(arrays(bool, shape))
    clamped_pi[: draw(st.integers(2, rounds))] = False
    clamped_pi[draw(st.lists(st.integers(0, rounds)))] = False
    return log_pi, clamped_pi, neighborhood_csr(graph.neighborhoods)


@settings(max_examples=40, deadline=None)
@given(inputs=_floor_crossing_inputs())
def test_global_trajectory_matches_reference_loop(inputs):
    # Values and flags equal bit for bit a round-by-round loop of the
    # former kernel and floor rule, under every rule, with unequal
    # neighborhoods, before and after the floor.
    log_pi, clamped_pi, hood = inputs
    for rule in RULES:
        [(got_mu, got_flags)] = global_trajectory((rule,), log_pi, clamped_pi, hood)
        want_mu, want_flags = oracles.global_trajectory(
            rule, log_pi, clamped_pi, hood
        )
        _same_bytes(got_mu, want_mu)
        _same_bytes(got_flags, want_flags)
        if rule == "min":
            assert got_flags.any()


@settings(max_examples=60, deadline=None)
@given(inputs=_arbitrary_inputs())
def test_global_trajectory_matches_reference_loop_on_arbitrary_inputs(inputs):
    log_pi, clamped_pi, hood = inputs
    for rule in RULES:
        [got] = global_trajectory((rule,), log_pi, clamped_pi, hood)
        want = oracles.global_trajectory(rule, log_pi, clamped_pi, hood)
        _same_bytes(got[0], want[0])
        _same_bytes(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(
    inputs=st.one_of(_floor_crossing_inputs(), _arbitrary_inputs()),
    order=st.permutations(RULES),
    count=st.integers(1, len(RULES)),
)
def test_fused_rules_match_reference_loop_per_rule(inputs, order, count):
    # One call pooling any ordered tuple of distinct rules gives each rule
    # the values and flags of the reference loop run for that rule alone.
    log_pi, clamped_pi, hood = inputs
    rules = tuple(order[:count])
    got = global_trajectory(rules, log_pi, clamped_pi, hood)
    assert len(got) == len(rules)
    for rule, (got_mu, got_flags) in zip(rules, got):
        want_mu, want_flags = oracles.global_trajectory(
            rule, log_pi, clamped_pi, hood
        )
        _same_bytes(got_mu, want_mu)
        _same_bytes(got_flags, want_flags)


def test_fused_rules_on_a_hub_match_reference_loop_per_rule():
    # A 12-leaf star's hub makes the padded layout too wide, so all three
    # rules pool from the compact layout; local flags start in round 2.
    star = AgentGraph.from_edges(13, [[0, leaf] for leaf in range(1, 13)])
    hood = neighborhood_csr(star.neighborhoods)
    assert hood.padded is None
    rng = np.random.default_rng(12)
    log_pi = rng.uniform(-30.0, 0.0, size=(25, 13, 3))
    clamped_pi = np.zeros(log_pi.shape, dtype=bool)
    clamped_pi[2:, 1:, 2] = True
    clamped_pi[9:14, 5:, 0] = True
    log_pi[clamped_pi] = LOG_FLOOR
    # A flagged input above every other, which max propagates.
    clamped_pi[6:, 0, 1] = True
    log_pi[6:, 0, 1] = 0.0
    rules = ("avg", "min", "max")
    got = global_trajectory(rules, log_pi, clamped_pi, hood)
    for rule, (got_mu, got_flags) in zip(rules, got):
        want_mu, want_flags = oracles.global_trajectory(
            rule, log_pi, clamped_pi, hood
        )
        _same_bytes(got_mu, want_mu)
        _same_bytes(got_flags, want_flags)
    # Avg flags an output only when every input is flagged, which needs a
    # floored global belief: none in so few rounds.
    first = [np.flatnonzero(flags.any(axis=(1, 2)))[:1].tolist() for _, flags in got]
    assert first == [[], [2], [6]]
    assert global_trajectory((), log_pi, clamped_pi, hood) == []


_STAR = AgentGraph.from_edges(13, [[0, leaf] for leaf in range(1, 13)])


@pytest.mark.parametrize("graph", [path_graph(5), _STAR], ids=["padded", "csr"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fused_rules_on_wide_rows_match_reference_loop_per_rule(graph, data):
    # At m >= SHORT_ROW the fused loop normalizes with numpy's row
    # reductions; on a path every rule pools from the padded layout, on a
    # star from CSR.
    graphs, widths = st.just(graph), st.sampled_from([SHORT_ROW, 9, 20])
    log_pi, clamped_pi, hood = data.draw(_arbitrary_inputs(graphs, widths))
    assert (hood.padded is None) == (graph is _STAR)
    got = global_trajectory(RULES, log_pi, clamped_pi, hood)
    for rule, (got_mu, got_flags) in zip(RULES, got):
        want_mu, want_flags = oracles.global_trajectory(
            rule, log_pi, clamped_pi, hood
        )
        _same_bytes(got_mu, want_mu)
        _same_bytes(got_flags, want_flags)


@pytest.mark.parametrize("graph", [path_graph(5), _STAR], ids=["padded", "csr"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_ring_size_matches_reference_loop_per_rule(graph, data):
    # The ring holds 1, 2, 3, 7 or all T rounds, set through GROUP_CELLS.
    # Local flags start on the first, the last or any round of a chunk; min
    # flags its first global belief in that round.  Pooled without flags,
    # the values keep their bytes.
    rules = tuple(data.draw(st.permutations(RULES))[: data.draw(st.integers(1, 3))])
    m, t_max = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 16))
    size = data.draw(st.sampled_from([1, 2, 3, 7, t_max]))
    offset = data.draw(st.sampled_from([0, size - 1]) | st.integers(0, size - 1))
    chunk = data.draw(st.integers(0, (t_max - 1) // size))
    first = min(t_max, 1 + chunk * size + offset)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    log_pi = rng.uniform(-40.0, 0.0, (t_max + 1, graph.n, m))
    clamped_pi = rng.random(log_pi.shape) < 0.2
    clamped_pi[:first] = False
    clamped_pi[first, rng.integers(graph.n), rng.integers(m)] = True
    log_pi[clamped_pi] = LOG_FLOOR
    hood = neighborhood_csr(graph.neighborhoods)
    rows = (len(rules) + 1) * graph.n + 3
    with mock.patch.object(dynamics, "GROUP_CELLS", size * rows * m):
        got = global_trajectory(rules, log_pi, clamped_pi, hood)
        flagless = global_trajectory(rules, log_pi, None, hood)
    for rule, (got_mu, got_flags), (bare_mu, none) in zip(rules, got, flagless):
        want_mu, want_flags = oracles.global_trajectory(
            rule, log_pi, clamped_pi, hood
        )
        _same_bytes(got_mu, want_mu)
        _same_bytes(got_flags, want_flags)
        _same_bytes(bare_mu, want_mu)
        assert none is None
        if rule == "min":
            assert np.flatnonzero(got_flags.any(axis=(1, 2)))[0] == first


def test_avg_propagates_flags_through_the_padding():
    # On the path 0-1-2 the end agents' padded columns read avg's identity
    # row, which must count as flagged.  Class 1 sits at the floor, flagged,
    # until round T lifts every local belief to 0.5: avg's pooled mean is
    # then far above the floor, and only propagation flags it.
    t_max = 4000
    hood = neighborhood_csr(path_graph(3).neighborhoods)
    assert hood.padded is not None and (hood.padded == 6).any()
    log_pi = np.zeros((t_max + 1, 3, 2))
    log_pi[1:, :, 1] = LOG_FLOOR
    log_pi[t_max] = math.log(0.5)
    clamped_pi = np.zeros(log_pi.shape, dtype=bool)
    clamped_pi[1:, :, 1] = True
    [(log_mu, clamped_mu)] = global_trajectory(("avg",), log_pi, clamped_pi, hood)
    assert clamped_mu[2010:t_max, :, 1].all()
    np.testing.assert_allclose(log_mu[t_max, :, 1], -1.8, atol=0.3)
    assert clamped_mu[t_max, :, 1].tolist() == [True, True, True]


# -- the floor rule -------------------------------------------------------

@settings(max_examples=40)
@given(data=st.data())
def test_local_trajectory_matches_unclamped_steps_past_the_floor(data):
    m = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(2, m))
    classes = sorted(data.draw(st.permutations(range(m)))[:k])
    raw_prior = np.array(
        data.draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    )
    world = build_world([f"c{j}" for j in range(m)], ["x"], [[1.0]] * m, "c0")
    scope = make_scope(world, 0, classes, prior=raw_prior / raw_prior.sum())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def phase(lead: int, rounds: int) -> np.ndarray:
        # Every round the lead class gains at least ln 1.5 on each other
        # in-scope class, while the others' mutual order wanders.
        ratios = rng.uniform(0.1, 1.0, size=(rounds, k))
        ratios[:, lead] = ratios.max(axis=1) * rng.uniform(1.5, 4.0, size=rounds)
        return ratios

    # The first phase carries every other in-scope class past the floor; in
    # the second a class from below the floor may take the lead and climb.
    leads = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2))
    ratios = np.concatenate(
        (
            phase(leads[0], data.draw(st.integers(1800, 2500))),
            phase(leads[1], data.draw(st.integers(0, 2500))),
        )
    )
    posts = ratios * scope.prior
    posts /= posts.sum(axis=1, keepdims=True)

    got, flags = local_trajectory(scope, m, posts)
    ref = np.array(
        oracles.log_step_trajectory(
            list(scope.theta_i), list(scope.prior), m, posts.tolist()
        )
    )
    threshold = LOG_FLOOR + CLAMP_TOL
    assert (ref <= threshold).any(), "the horizon must reach the floor"
    np.testing.assert_allclose(got[~flags], ref[~flags], rtol=0, atol=1e-9)
    # Entries within rounding of the threshold may fall either way.
    clear = np.abs(ref - threshold) > 1e-9
    np.testing.assert_array_equal(flags[clear], (ref <= threshold)[clear])
    assert np.all(got[flags] == LOG_FLOOR)


# -- order preservation ---------------------------------------------------

def _two_rounds(prev, post):
    """Scope A's stream whose round 1 leaves in-scope beliefs in the ratio
    of ``prev``, followed by ``post`` in round 2."""
    first = np.asarray(prev[:2], dtype=float)
    return [first / first.sum(), post]


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
    if prev[hi] < prev[lo]:
        prev[hi], prev[lo] = prev[lo], prev[hi]
    log_pi, _ = local_trajectory(_SCOPE_A, 3, np.array(_two_rounds(prev, post)))
    assert log_pi[2, hi] > log_pi[2, lo]


# -- fill rule ------------------------------------------------------------

@given(
    p_a=st.floats(0.05, 0.95),
    prev=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_out_of_scope_fill_tracks_in_scope_max(p_a, prev):
    pi = _local(_SCOPE_A, _two_rounds(prev, [p_a, 1.0 - p_a]))
    for t in (1, 2):
        assert pi[t, 2] == pytest.approx(max(pi[t, 0], pi[t, 1]), rel=1e-12)


# -- log-ratio bookkeeping ------------------------------------------------

def test_lambda_first_step():
    rho, lam = _rho(_SCOPE_A, [[0.8, 0.2]], 1, 0)
    assert lam[0] == pytest.approx(math.log(0.2 / 0.8), abs=1e-12)
    assert rho[1] - rho[0] == pytest.approx(lam[0], abs=1e-12)


def test_lambda_zero_when_posterior_equals_prior():
    rho, lam = _rho(_SCOPE_A, [[0.5, 0.5]] * 20, 1, 0)
    np.testing.assert_allclose(lam, 0.0, atol=1e-12)
    np.testing.assert_allclose(rho, rho[0], atol=1e-9)


def test_rho_recursion_identity_short():
    rng = np.random.default_rng(23)
    symbols = (rng.random(300) >= 0.8).astype(int)
    posts = posterior_table(_WORLD, _SCOPE_A)[symbols]
    for theta, star in ((1, 0), (0, 1)):
        rho, lam = _rho(_SCOPE_A, posts, theta, star)
        np.testing.assert_allclose(rho[1:] - rho[0], np.cumsum(lam), atol=1e-9)
