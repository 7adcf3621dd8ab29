"""End-to-end acceptance gate for the package.

Each test checks one headline guarantee, prints a single
``[criterion N] ...: PASS/FAIL (...)`` line, and then asserts.  Run with
``pytest tests/test_acceptance.py -s`` to see the lines as they print;
without ``-s`` pytest still shows the captured line for any failure.
"""

from __future__ import annotations

import math
import time

import numpy as np

from myopic_crowd.classifier import make_scope
from myopic_crowd.config import config_from_dict
from myopic_crowd.errors import InsufficientSamples
from myopic_crowd.scores import (
    confusion_score,
    discriminative_score,
    score_report,
)
from myopic_crowd.sim import (
    estimate_rejection_rate,
    run_batch,
    run_experiment,
    time_to_identification,
    write_outputs,
)
from myopic_crowd.world import build_world

from conftest import make_w3_config, spec_doc, w3_doc
from oracles import (
    oracle_pair_score,
    linear_run,
    position,
    random_identifiable_problem,
    random_problem,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _world_from_spec(spec):
    labels = [f"c{k}" for k in range(spec.m)]
    return build_world(
        labels,
        [f"x{j}" for j in range(spec.n_symbols)],
        [list(r) for r in spec.rows],
        labels[spec.true_class],
    )


def test_criterion_1_scores_match_brute_force_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20260823)
    max_err = 0.0
    antisymmetry_exact = True
    pairs_checked = 0
    for _ in range(100):
        spec = random_problem(rng)
        world = _world_from_spec(spec)
        rows = [list(r) for r in spec.rows]
        for agent_id, classes, prior in spec.scopes:
            scope = make_scope(world, agent_id, list(classes), prior=list(prior))
            ordered = [
                (p, q) for p in classes for q in classes if p != q
            ]
            for p, q in ordered:
                got = discriminative_score(world, scope, p, q)
                want = oracle_pair_score(
                    rows, spec.true_class, list(classes), list(prior), p, q
                )
                max_err = max(max_err, abs(got - want))
                if discriminative_score(world, scope, q, p) != -got:
                    antisymmetry_exact = False
                pairs_checked += 1
            for theta_star in range(spec.m):
                if theta_star in classes:
                    continue
                for p, q in ordered:
                    got = confusion_score(world, scope, theta_star, p, q)
                    want = oracle_pair_score(
                        rows, theta_star, list(classes), list(prior), p, q
                    )
                    max_err = max(max_err, abs(got - want))
                    if confusion_score(world, scope, theta_star, q, p) != -got:
                        antisymmetry_exact = False
                    pairs_checked += 1
    elapsed = time.perf_counter() - started
    ok = max_err <= 1e-12 and antisymmetry_exact and elapsed < 5.0
    assert _verdict(
        1,
        "analytic scores match brute-force oracle on 100 random worlds",
        ok,
        f"max err {max_err:.2e}, antisymmetry "
        f"{'exact' if antisymmetry_exact else 'BROKEN'}, "
        f"{pairs_checked} pairs, {elapsed:.2f}s",
    )


def test_criterion_2_reference_fixture_ground_truth():
    cfg = make_w3_config()
    world, scopes = cfg.world, cfg.scopes
    d_a_expected = 0.6 * math.log(4.0)
    d_b_expected = 0.8 * math.log(2.5) + 0.2 * math.log(0.625)
    d_c_expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
    d_a = discriminative_score(world, scopes[0], 0, 1)
    d_b = confusion_score(world, scopes[1], 0, 2, 1)
    d_c = discriminative_score(world, scopes[2], 0, 2)
    best = score_report(world, scopes).best_rate
    r1, via1 = best[1]
    r2, via2 = best[2]
    errs = [
        abs(d_a - d_a_expected),
        abs(d_b - d_b_expected),
        abs(d_c - d_c_expected),
        abs(r1 - d_a_expected),
        abs(r2 - d_c_expected),
    ]
    ok = max(errs) <= 1e-9 and via1 == 0 and via2 == 2
    assert _verdict(
        2,
        "three-agent fixture scores and best rates match hand derivations",
        ok,
        f"max err {max(errs):.2e}, R(theta1) via agent {via1}, "
        f"R(theta2) via agent {via2}",
    )


def test_criterion_3_min_rule_network_convergence():
    started = time.perf_counter()
    base = make_w3_config()
    converged = 0
    for seed in range(20):
        log = run_experiment(base.derived(seed=seed))
        if np.exp(log.log_mu[-1, :, 0]).min() >= 0.99:
            converged += 1
    elapsed = time.perf_counter() - started
    ok = converged >= 19 and elapsed < 2.0
    assert _verdict(
        3,
        "min rule drives every agent's global belief to the true class",
        ok,
        f"{converged}/20 seeds reached mu(theta0) >= 0.99 at T=500, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_decay_slopes_meet_rate_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    docs = [w3_doc(horizon=2000, seed=0)]
    docs += [
        spec_doc(random_identifiable_problem(rng), horizon=2000)
        for _ in range(10)
    ]
    total = passed = 0
    for doc in docs:
        cfg = config_from_dict(doc)
        true_idx = cfg.world.true_class
        false_classes = [k for k in range(cfg.world.m) if k != true_idx]
        best = score_report(cfg.world, cfg.scopes).best_rate
        rates = {k: best[k][0] for k in false_classes}
        seeds = (cfg.derived(seed=seed) for seed in range(20))
        for log in run_batch(seeds, [cfg.rule]):
            for agent in range(cfg.n_agents):
                for k in false_classes:
                    total += 1
                    try:
                        slope = estimate_rejection_rate(log, agent, k)
                    except InsufficientSamples:
                        continue
                    if slope >= 0.8 * rates[k]:
                        passed += 1
    elapsed = time.perf_counter() - started
    fraction = passed / total
    ok = fraction >= 0.95 and elapsed < 30.0
    assert _verdict(
        4,
        "fitted rejection slopes reach 80% of the theoretical rate",
        ok,
        f"{passed}/{total} triples ({fraction:.1%}) across 11 worlds x 20 "
        f"seeds, {elapsed:.1f}s",
    )


def test_criterion_5_local_only_limits():
    base = make_w3_config(local_only=True, horizon=2000)
    a_false, b_false, a_true, a_fill = [], [], [], []
    for seed in range(20):
        log = run_experiment(base.derived(seed=seed))
        pi = np.exp(log.log_pi[-1])
        a_false.append(pi[0, 1])
        b_false.append(pi[1, 1])
        a_true.append(pi[0, 0])
        a_fill.append(pi[0, 2])
    med_a_false = float(np.median(a_false))
    med_b_false = float(np.median(b_false))
    med_a_true = float(np.median(a_true))
    med_a_fill = float(np.median(a_fill))
    ok = (
        med_a_false <= 1e-3
        and med_b_false <= 1e-3
        and abs(med_a_true - 0.5) <= 0.01
        and abs(med_a_fill - 0.5) <= 0.01
    )
    assert _verdict(
        5,
        "local-only updates reject in-scope false classes and split the rest",
        ok,
        f"median pi_A(theta1)={med_a_false:.1e}, pi_B(theta1)="
        f"{med_b_false:.1e}, pi_A(theta0)={med_a_true:.4f}, "
        f"pi_A(theta2)={med_a_fill:.4f}",
    )


def _local_run(world_doc: dict, scopes: list[list[str]], horizon: int, seed: int):
    """A local-only run of independent agents, one per scope, on the path
    graph; the engine's local trajectories and the posteriors it consumed."""
    n = len(scopes)
    doc = {
        "world": world_doc,
        "agents": [{"id": i, "classes": classes} for i, classes in enumerate(scopes)],
        "graph": {"type": "edges", "n": n, "edges": [[i, i + 1] for i in range(n - 1)]},
        "horizon": horizon,
        "seed": seed,
        "local_only": True,
        "enforce_identifiability": False,
    }
    config = config_from_dict(doc)
    return config, run_experiment(config)


def _rho_lambda(config, log, agent: int, theta: int, theta_star: int):
    """ρ_t = log π_t(θ) − log π_t(θ*) for rounds 0..T from the engine's
    trajectory, and the per-round increments λ from its posteriors."""
    scope = config.scopes[agent]
    ratios = np.log(log.posteriors[agent]) - np.log(scope.prior)
    p, s = position(scope, theta), position(scope, theta_star)
    rho = log.log_pi[:, agent, theta] - log.log_pi[:, agent, theta_star]
    return rho, ratios[:, p] - ratios[:, s]


def test_criterion_6_log_ratio_recursion_and_mean_increment():
    # Part 1: the telescoping identity, on likelihood rows gentle enough
    # that 1000 steps stay far away from the numerical floor.
    gentle = {
        "classes": ["c0", "c1", "c2"],
        "inputs": ["x0", "x1"],
        "likelihoods": [[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]],
        "true_class": "c0",
    }
    config, log = _local_run(gentle, [["c0", "c1"], ["c0", "c1", "c2"]], 1000, 123)
    worst_residual = 0.0
    for agent, scope in enumerate(config.scopes):
        for p in scope.theta_i:
            for q in scope.theta_i:
                if p == q:
                    continue
                rho, lam = _rho_lambda(config, log, agent, p, q)
                residual = np.abs(rho[1:] - rho[0] - np.cumsum(lam)).max()
                worst_residual = max(worst_residual, residual)

    # Part 2: the mean per-round increment approaches minus the
    # discriminative score, on the reference fixture's source agent.
    config, log = _local_run(
        w3_doc()["world"], [["theta0", "theta1"]], 10_000, 0
    )
    rate = discriminative_score(config.world, config.scopes[0], 0, 1)
    _, lam_forward = _rho_lambda(config, log, 0, 1, 0)
    _, lam_reverse = _rho_lambda(config, log, 0, 0, 1)
    err_forward = abs(lam_forward.mean() + rate)
    err_reverse = abs(lam_reverse.mean() - rate)
    ok = worst_residual <= 1e-9 and err_forward <= 0.05 and err_reverse <= 0.05
    assert _verdict(
        6,
        "log-ratio recursion is exact and its mean increment matches -D",
        ok,
        f"max identity residual {worst_residual:.2e} over 1000 steps, "
        f"|lambda_bar + D| = {err_forward:.4f} at T=10^4",
    )


def test_criterion_7_rule_comparison_under_common_random_numbers():
    base = make_w3_config()
    diffs = []
    max_failures = 0
    for seed in range(20):
        log_min = run_experiment(base.derived(seed=seed, rule="min"))
        log_avg = run_experiment(base.derived(seed=seed, rule="avg"))
        log_max = run_experiment(base.derived(seed=seed, rule="max"))
        # Common random numbers: only the pooling rule differs.
        assert np.array_equal(log_min.observations, log_avg.observations)
        assert np.array_equal(log_min.observations, log_max.observations)

        def network_time(log):
            times = [
                time_to_identification(log, i) for i in range(log.n_agents)
            ]
            return math.inf if any(t is None for t in times) else max(times)

        t_min = network_time(log_min)
        t_avg = network_time(log_avg)
        if math.isinf(t_min) and math.isinf(t_avg):
            diffs.append(0.0)
        else:
            diffs.append(t_min - t_avg)
        mu_max = np.exp(log_max.log_mu[:, :, 0])
        if not (mu_max.max(axis=0) >= 0.99).all():
            max_failures += 1
    median_diff = float(np.median(diffs))
    ok = median_diff <= 0.0 and max_failures >= 10
    assert _verdict(
        7,
        "min identifies no later than avg (paired seeds) and max stalls",
        ok,
        f"median paired difference of network identification time "
        f"{median_diff:+.1f} rounds, max rule failed {max_failures}/20 seeds",
    )


def test_criterion_8_determinism_and_replay(tmp_path):
    log_first = run_experiment(make_w3_config(horizon=40))
    log_second = run_experiment(make_w3_config(horizon=40))
    paths_first = write_outputs(log_first, tmp_path / "first")
    paths_second = write_outputs(log_second, tmp_path / "second")
    byte_identical = all(
        paths_first[key].read_bytes() == paths_second[key].read_bytes()
        for key in paths_first
    )

    doc = w3_doc(horizon=40)
    for agent in doc["agents"]:
        agent["prior"] = [0.5, 0.5]
        agent["source"] = {
            "kind": "replay",
            "path": str(paths_first["posteriors"]),
        }
    replayed = run_experiment(config_from_dict(doc, base_dir=tmp_path))
    replay_exact = np.array_equal(
        replayed.log_pi, log_first.log_pi
    ) and np.array_equal(replayed.log_mu, log_first.log_mu)
    replay_paths = write_outputs(replayed, tmp_path / "replayed")
    replay_csv_identical = (
        replay_paths["trajectories"].read_bytes()
        == paths_first["trajectories"].read_bytes()
    )
    ok = byte_identical and replay_exact and replay_csv_identical
    assert _verdict(
        8,
        "same config and seed give byte-identical outputs; replay reproduces",
        ok,
        f"artifacts byte-identical: {byte_identical}, replay trajectories "
        f"exact: {replay_exact}, replayed CSV identical: "
        f"{replay_csv_identical}",
    )


def test_criterion_9_log_domain_matches_linear_oracle():
    scopes = [([0, 1], [0.5, 0.5]), ([1, 2], [0.5, 0.5]), ([0, 2], [0.5, 0.5])]
    neighborhoods = [[0, 1], [0, 1, 2], [1, 2]]
    sup = 0.0
    for rule in ("min", "avg", "max"):
        log = run_experiment(make_w3_config(horizon=200, rule=rule))
        posteriors = [
            [list(row) for row in agent_stream]
            for agent_stream in log.posteriors
        ]
        pi_ref, mu_ref = linear_run(3, scopes, neighborhoods, posteriors, rule)
        pi_err = np.abs(np.exp(log.log_pi) - np.asarray(pi_ref)).max()
        mu_err = np.abs(np.exp(log.log_mu) - np.asarray(mu_ref)).max()
        sup = max(sup, pi_err, mu_err)
    ok = sup <= 1e-6
    assert _verdict(
        9,
        "log-domain engine agrees with a linear-domain reference",
        ok,
        f"sup-norm disagreement {sup:.2e} over 200 rounds, all three rules",
    )
