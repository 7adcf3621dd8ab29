"""Analytical scores, agent sets, identifiability, and rejection rates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myopic_crowd import scores
from myopic_crowd.classifier import make_scope
from myopic_crowd.config import config_from_dict
from myopic_crowd.errors import ClassOutOfScope, TrueClassInScope
from myopic_crowd.formats import json_text
from myopic_crowd.scores import (
    check_global_identifiability,
    confusion_score,
    discriminative_score,
    score_report,
    source_set,
    support_set,
)
from myopic_crowd.sim import run_experiment
from myopic_crowd.world import build_world

import oracles
from oracles import empirical_score
from conftest import W3_D_A, W3_D_B_CONF, W3_D_C


def test_w3_discriminative_values(w3_world, w3_scopes):
    assert discriminative_score(w3_world, w3_scopes[0], 0, 1) == pytest.approx(
        W3_D_A, abs=1e-9
    )
    assert discriminative_score(w3_world, w3_scopes[2], 0, 2) == pytest.approx(
        W3_D_C, abs=1e-9
    )
    # 0.6 * ln 4, the hand-summed closed form.
    assert W3_D_A == pytest.approx(0.6 * np.log(4.0), abs=1e-12)


def test_w3_confusion_value(w3_world, w3_scopes):
    assert confusion_score(w3_world, w3_scopes[1], 0, 2, 1) == pytest.approx(
        W3_D_B_CONF, abs=1e-9
    )
    assert W3_D_B_CONF == pytest.approx(
        0.8 * np.log(2.5) + 0.2 * np.log(0.625), abs=1e-12
    )


def test_antisymmetry_is_exact(w3_world, w3_scopes):
    d_pq = discriminative_score(w3_world, w3_scopes[0], 0, 1)
    d_qp = discriminative_score(w3_world, w3_scopes[0], 1, 0)
    assert d_pq == -d_qp
    c_pq = confusion_score(w3_world, w3_scopes[1], 0, 2, 1)
    c_qp = confusion_score(w3_world, w3_scopes[1], 0, 1, 2)
    assert c_pq == -c_qp


def test_identical_rows_score_zero():
    world = build_world(
        ["t0", "t1", "t2"],
        ["a", "b"],
        [[0.8, 0.2], [0.8, 0.2], [0.5, 0.5]],
        "t0",
    )
    scope = make_scope(world, 0, ["t0", "t1"])
    assert discriminative_score(world, scope, 0, 1) == 0.0


def test_score_scope_errors(w3_world, w3_scopes):
    with pytest.raises(ClassOutOfScope):
        discriminative_score(w3_world, w3_scopes[0], 0, 2)
    with pytest.raises(ClassOutOfScope):
        confusion_score(w3_world, w3_scopes[1], 0, 2, 0)
    # Asking for a confusion score with the generating class inside the scope
    # is a category error: that caller wants the discriminative score.
    with pytest.raises(TrueClassInScope):
        confusion_score(w3_world, w3_scopes[0], 0, 0, 1)


def test_w3_source_sets(w3_world, w3_scopes):
    assert source_set(w3_world, w3_scopes, 0, 1) == (0,)
    assert source_set(w3_world, w3_scopes, 0, 2) == (2,)
    # Under data generated by theta0, agent B's evidence favors theta2 over
    # theta1, so only the (theta2, theta1) direction is positive.
    assert source_set(w3_world, w3_scopes, 2, 1) == (1,)
    assert source_set(w3_world, w3_scopes, 1, 2) == ()
    # Strictly positive scores only: the reverse direction is negative.
    assert source_set(w3_world, w3_scopes, 1, 0) == ()


def test_w3_support_sets(w3_world, w3_scopes):
    assert support_set(w3_world, w3_scopes, 0, 1) == (1,)
    assert support_set(w3_world, w3_scopes, 0, 2) == ()


def test_support_needs_other_class():
    world = build_world(
        ["t0", "t1", "t2"],
        ["a", "b"],
        [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]],
        "t0",
    )
    lone = make_scope(world, 0, ["t1"])
    assert support_set(world, [lone], 0, 1) == ()


def test_w3_identifiability(w3_world, w3_scopes):
    report = score_report(w3_world, w3_scopes)
    assert report.identifiable and report.witness == []


def test_identifiability_witness_without_third_agent(w3_world, w3_scopes):
    report = score_report(w3_world, w3_scopes[:2])
    assert not report.identifiable
    assert report.witness == [(0, 2)]


def test_fully_informed_single_agent_identifiable(w3_world):
    scope = make_scope(w3_world, 0, ["theta0", "theta1", "theta2"])
    report = score_report(w3_world, [scope])
    assert report.identifiable and report.witness == []


def test_w3_best_rates(w3_world, w3_scopes):
    best = score_report(w3_world, w3_scopes).best_rate
    r1, v1 = best[1]
    assert r1 == pytest.approx(W3_D_A, abs=1e-9)
    assert v1 == 0
    r2, v2 = best[2]
    assert r2 == pytest.approx(W3_D_C, abs=1e-9)
    assert v2 == 2


def test_best_rate_single_source(w3_world, w3_scopes):
    # Without agents B and C nobody else covers (θ0, θ1).
    r, v = score_report(w3_world, [w3_scopes[0]]).best_rate[1]
    assert r == pytest.approx(W3_D_A, abs=1e-12)
    assert v == 0


def test_no_rejector(w3_world, w3_scopes):
    assert score_report(w3_world, [w3_scopes[0]]).best_rate[2] is None


def test_best_rate_tie_breaks_low_id(w3_world):
    twin0 = make_scope(w3_world, 0, ["theta0", "theta1"])
    twin1 = make_scope(w3_world, 1, ["theta0", "theta1"])
    _, v = score_report(w3_world, [twin0, twin1]).best_rate[1]
    assert v == 0
    # Listing order must not matter.
    _, v = score_report(w3_world, [twin1, twin0]).best_rate[1]
    assert v == 0


def test_best_rate_ulp_tie_breaks_low_id(w3_world):
    # Both agents hold (θ0, θ1), so both scores are KL(p(.|θ0) || p(.|θ1)),
    # but the three-class posterior sums differently and lands an ulp lower.
    wide = make_scope(w3_world, 0, ["theta0", "theta1", "theta2"])
    pair = make_scope(w3_world, 1, ["theta0", "theta1"])
    scores_ = [discriminative_score(w3_world, s, 0, 1) for s in (wide, pair)]
    assert scores_[0] != scores_[1]
    assert score_report(w3_world, [wide, pair]).best_rate[1] == (max(scores_), 0)


def test_best_rate_dominates_candidates(w3_world, w3_scopes):
    r1, _ = score_report(w3_world, w3_scopes).best_rate[1]
    assert r1 >= discriminative_score(w3_world, w3_scopes[0], 0, 1)
    assert r1 >= confusion_score(w3_world, w3_scopes[1], 0, 2, 1)


# -- report ----------------------------------------------------------------

def test_score_report_w3(w3_world, w3_scopes):
    report = score_report(w3_world, w3_scopes)
    assert report.identifiable
    assert report.best_rate[1] == (pytest.approx(W3_D_A, abs=1e-9), 0)
    assert report.best_rate[2] == (pytest.approx(W3_D_C, abs=1e-9), 2)
    doc = report.to_dict()
    assert doc["identifiable"] is True
    assert doc["true_class"] == "theta0"
    by_theta = {entry["theta"]: entry for entry in doc["best_rate"]}
    assert by_theta["theta1"]["agent"] == 0
    assert by_theta["theta1"]["R"] == pytest.approx(W3_D_A, abs=1e-9)
    assert by_theta["theta2"]["agent"] == 2


def test_score_report_witness(w3_world, w3_scopes):
    report = score_report(w3_world, w3_scopes[:2])
    assert not report.identifiable
    assert report.witness == [(0, 2)]
    doc = report.to_dict()
    assert doc["witness"] == [["theta0", "theta2"]]


# -- noisy agents are scored on their noisy table -------------------------

def test_noisy_agent_scored_on_its_noisy_table(w3_world):
    scopes = [
        make_scope(w3_world, 0, ["theta0", "theta1"], gamma=0.6, source="noisy"),
        make_scope(w3_world, 1, ["theta1", "theta2"]),
        make_scope(w3_world, 2, ["theta0", "theta2"]),
    ]
    report = score_report(w3_world, scopes)
    # Agent 0's noisy table separates theta0 from theta1 by less than
    # agent 1's support margin, so agent 1 attains R(theta1).
    rows = report.to_dict()["discriminative"]
    first = [rows[key][0] for key in ("agent", "theta_p", "theta_q", "nats")]
    assert first[:3] == [0, "theta0", "theta1"]
    assert first[3] == discriminative_score(w3_world, scopes[0], 0, 1)
    assert first[3] < W3_D_B_CONF
    rate, agent = report.best_rate[1]
    assert agent == 1
    assert rate == pytest.approx(W3_D_B_CONF, abs=1e-12)
    assert round(rate, 6) == 0.639032


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    gammas=st.lists(st.just(0.0) | st.floats(0.0, 0.95), min_size=5, max_size=5),
    mode=st.sampled_from(["independent", "shared"]),
)
def test_score_engine_reads_the_tables_the_run_uses(seed, gammas, mode):
    """Each agent's evidence row is rows[θ*] · (log T − log prior), summed row
    by row, for the table T whose rows the run fed its posteriors from."""
    rng = np.random.default_rng(seed)
    spec = oracles.random_problem(rng, max_agents=5)
    overrides = {
        i: rng.dirichlet(np.ones(spec.n_symbols), size=spec.m).tolist()
        for i, _, _ in spec.scopes
        if rng.random() < 0.3
    }
    agents = []
    for (i, classes, prior), gamma in zip(spec.scopes, gammas):
        entry = {
            "id": i,
            "classes": list(classes),
            "prior": list(prior),
            "source": {"kind": "noisy", "gamma": gamma} if gamma else None,
        }
        if i in overrides:
            entry["likelihoods"] = overrides[i]
        agents.append(entry)
    n = len(agents)
    config = config_from_dict({
        "world": {
            "classes": [f"c{k}" for k in range(spec.m)],
            "inputs": [f"x{k}" for k in range(spec.n_symbols)],
            "likelihoods": [list(r) for r in spec.rows],
            "true_class": spec.true_class,
        },
        "agents": agents,
        "graph": {"type": "edges", "n": n, "edges": [[i, i + 1] for i in range(n - 1)]},
        "horizon": 40,
        "seed": seed % 1000,
        "observation_mode": mode,
        "enforce_identifiability": False,
    })
    log = run_experiment(config)
    world, star = config.world, config.world.true_class
    ids, evidence = scores._table(world, config.scopes, star)
    assert ids.tolist() == list(range(n))
    for i, (scope, gamma) in enumerate(zip(config.scopes, gammas)):
        if gamma:
            table = oracles.noisy_table_reference(world, scope, gamma)
        else:
            table = oracles.bayes_table_reference(world, scope)
        assert log.posteriors[i].tobytes() == table[log.observations[:, i]].tobytes()
        ratios = np.log(table) - np.log(scope.prior)
        want = (world.likelihoods.rows[star][:, None] * ratios).sum(axis=0)
        assert evidence[i, list(scope.theta_i)].tobytes() == want.tobytes()


# -- Monte Carlo estimator -------------------------------------------------

def test_empirical_score_approximates_analytic(w3_world, w3_scopes):
    rng = np.random.default_rng(99)
    est = empirical_score(w3_world, w3_scopes[0], 0, 1, 200_000, rng)
    assert est == pytest.approx(W3_D_A, abs=0.02)


def test_empirical_score_explicit_weight_class(w3_world, w3_scopes):
    rng = np.random.default_rng(100)
    est = empirical_score(w3_world, w3_scopes[1], 2, 1, 200_000, rng, weight_class=0)
    assert est == pytest.approx(W3_D_B_CONF, abs=0.02)


# -- oracle cross-checks ---------------------------------------------------

def _spec_to_package(spec):
    labels = [f"t{i}" for i in range(spec.m)]
    symbols = [f"x{j}" for j in range(spec.n_symbols)]
    world = build_world(
        labels, symbols, [list(r) for r in spec.rows], labels[spec.true_class]
    )
    scopes = [
        make_scope(world, agent_id, list(classes), prior=list(prior))
        for agent_id, classes, prior in spec.scopes
    ]
    return world, scopes


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_scores_match_oracle(seed):
    rng = np.random.default_rng(seed)
    spec = oracles.random_problem(rng)
    world, scopes = _spec_to_package(spec)
    rows = [list(r) for r in spec.rows]
    for (agent_id, classes, prior), scope in zip(spec.scopes, scopes):
        for p in classes:
            for q in classes:
                if p == q:
                    continue
                expected = oracles.oracle_pair_score(
                    rows, spec.true_class, list(classes), list(prior), p, q
                )
                if spec.true_class in classes:
                    got = discriminative_score(world, scope, p, q)
                else:
                    got = confusion_score(world, scope, spec.true_class, p, q)
                assert got == pytest.approx(expected, abs=1e-12)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_best_rate_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    spec = oracles.random_problem(rng)
    world, scopes = _spec_to_package(spec)
    rows = [list(r) for r in spec.rows]
    oracle_scopes = [(i, list(c), list(p)) for i, c, p in spec.scopes]
    best_rate = score_report(world, scopes).best_rate
    for theta in range(spec.m):
        if theta == spec.true_class:
            continue
        candidates = oracles.oracle_rate_candidates(
            rows, spec.true_class, oracle_scopes, theta
        )
        if not candidates:
            assert best_rate[theta] is None
        else:
            r, v = best_rate[theta]
            best = max(c for c, _ in candidates)
            assert r == pytest.approx(best, abs=1e-12)
            # Mathematically tied candidates (identical scopes with different
            # priors score identically) may resolve to either agent, so the
            # winner only has to be one of the tied maximizers.
            tied = [aid for c, aid in candidates if abs(c - best) <= 1e-12]
            assert v in tied


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_antisymmetry_property(seed):
    rng = np.random.default_rng(seed)
    spec = oracles.random_problem(rng)
    world, scopes = _spec_to_package(spec)
    for (agent_id, classes, prior), scope in zip(spec.scopes, scopes):
        for p in classes:
            for q in classes:
                if p >= q:
                    continue
                if spec.true_class in classes:
                    fwd = discriminative_score(world, scope, p, q)
                    rev = discriminative_score(world, scope, q, p)
                else:
                    fwd = confusion_score(world, scope, spec.true_class, p, q)
                    rev = confusion_score(world, scope, spec.true_class, q, p)
                assert fwd == -rev


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_score_report_matches_public_functions_and_oracle(seed):
    spec = oracles.random_problem(np.random.default_rng(seed), max_agents=6)
    world, scopes = _spec_to_package(spec)
    rows = [list(r) for r in spec.rows]
    star = spec.true_class
    oracle_scopes = [(i, list(c), list(p)) for i, c, p in spec.scopes]
    report = score_report(world, scopes)
    doc = report.to_dict()
    labels = world.classes.labels
    index = {label: k for k, label in enumerate(labels)}

    by_agent = {scope.agent_id: scope for scope in scopes}
    for kind in ("discriminative", "confusion"):
        got = doc[kind]
        nats = {
            (aid, index[p], index[q]): v
            for aid, p, q, v in zip(
                got["agent"], got["theta_p"], got["theta_q"], got["nats"]
            )
        }
        want = [
            (scope.agent_id, p, q)
            for scope in scopes
            if scope.contains(star) == (kind == "discriminative")
            for p in sorted(scope.theta_i)
            for q in sorted(scope.theta_i)
            if p != q
        ]
        assert list(nats) == want
        for (aid, p, q), got in nats.items():
            assert got == -nats[(aid, q, p)]
            if kind == "discriminative":
                assert got == discriminative_score(world, by_agent[aid], p, q)
            else:
                assert got == confusion_score(world, by_agent[aid], star, p, q)

    sets = doc["source_sets"]
    sources = {
        (index[p], index[q]): tuple(agents)
        for p, q, agents in zip(sets["theta_p"], sets["theta_q"], sets["agents"])
    }
    pairs = [(p, q) for p in range(spec.m) for q in range(spec.m) if p != q]
    assert list(sources) == pairs
    uncovered = []
    for (p, q), got in sources.items():
        want = oracles.oracle_source_set(rows, star, oracle_scopes, p, q)
        assert got == want
        assert source_set(world, scopes, p, q) == want
        if p < q and not want:
            if not oracles.oracle_source_set(rows, star, oracle_scopes, q, p):
                uncovered.append((p, q))
    assert report.witness == uncovered
    assert doc["witness"] == [[labels[p], labels[q]] for p, q in uncovered]
    assert check_global_identifiability(world, scopes) == (not uncovered, uncovered)
    assert report.identifiable == doc["identifiable"] == (not uncovered)

    false_classes = [t for t in range(spec.m) if t != star]
    assert doc["support_sets"]["theta"] == [labels[t] for t in false_classes]
    for theta, agents in zip(false_classes, doc["support_sets"]["agents"]):
        want = oracles.oracle_support_set(rows, star, oracle_scopes, theta)
        assert tuple(agents) == want
        assert support_set(world, scopes, star, theta) == want
        candidates = oracles.oracle_rate_candidates(rows, star, oracle_scopes, theta)
        entry = report.best_rate[theta]
        if not candidates:
            assert entry is None
            continue
        best = max(c for c, _ in candidates)
        assert entry[0] == pytest.approx(best, abs=1e-12)
        assert entry[1] in [aid for c, aid in candidates if abs(c - best) <= 1e-12]


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    gammas=st.lists(st.just(0.0) | st.floats(0.0, 0.95), min_size=6, max_size=6),
    overridden=st.lists(st.booleans(), min_size=6, max_size=6),
    order=st.randoms(use_true_random=False),
)
def test_score_report_document_matches_dict_reference(seed, gammas, overridden, order):
    """The document derived from the evidence table is, byte for byte, the
    one built from per-pair and per-set dicts: for noisy agents, likelihood
    overrides, unsorted scopes with and without θ*, in any roster order."""
    rng = np.random.default_rng(seed)
    spec = oracles.random_problem(rng, max_agents=6)
    world, _ = _spec_to_package(spec)
    roster = []
    for (i, classes, prior), gamma, override in zip(spec.scopes, gammas, overridden):
        perm = rng.permutation(len(classes))
        likelihoods = (
            rng.dirichlet(np.ones(spec.n_symbols), size=spec.m) if override else None
        )
        roster.append(
            make_scope(
                world,
                i,
                [classes[j] for j in perm],
                prior=[prior[j] for j in perm],
                likelihoods=likelihoods,
                gamma=gamma,
                source="noisy",
            )
        )
    order.shuffle(roster)
    got = json_text(score_report(world, roster).to_dict())
    assert got == oracles.json_reference(oracles.score_report_reference(world, roster))


def _scores_document(world, roster):
    return score_report(world, roster).to_dict()


@pytest.mark.parametrize(
    "build", [score_report, _scores_document, check_global_identifiability]
)
def test_posterior_table_built_at_most_once_per_agent(build, monkeypatch):
    # Guards against rebuilding each agent's posterior table for every class pair.
    spec = oracles.random_problem(np.random.default_rng(5), max_m=8, max_agents=12)
    world, roster = _spec_to_package(spec)
    calls = []
    original = scores.posterior_tables

    def counting(world, scopes):
        calls.extend(scope.agent_id for scope in scopes)
        return original(world, scopes)

    monkeypatch.setattr(scores, "posterior_tables", counting)
    build(world, roster)
    assert sorted(calls) == sorted(s.agent_id for s in roster)
