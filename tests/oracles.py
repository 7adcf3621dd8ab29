"""Independent reference implementations used to cross-check the package.

Everything in this file is deliberately naive: plain-Python floats, explicit
loops, linear-domain arithmetic, no shared code with the package beyond the
probability-floor convention.  Slow and obvious beats fast and clever for an
oracle.  ``log_step_trajectory`` works in log-domain only so that it can
follow beliefs far below 1e-300.  The one numpy exception is
``dense_pool``, the O(n^2 m) masked pooling kept as the reference for the
sparse pooling kernel ``pool``; ``pool``, ``norm_rows`` and
``global_trajectory`` are the engine's former per-round loop, the reference
for its buffered one.  The sweep
references at the end (``rates_reference``, ``compare_reference``) are the
other exception: they rebuild the ``rates`` and ``compare`` documents from a
plain loop of one-seed package runs, the reference for batched seed sweeps.
The artifact writers are the package's former writers (``json.dumps``
with ``indent``, a per-row ``trajectories.csv`` loop and a ``csv.writer``
replay writer), the references for its serialisation.  The posterior-table
builders after them are the package's former numpy builders, the references
for ``posterior_table``.  ``dense_erdos_renyi`` is the package's former
n×n random-graph builder, the reference for its edge-list one.  The other
helpers at the end (``empirical_score``, small graph builders, ``diameter``
and file writers) serve the tests only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPS = 1e-12


def floor_and_norm(vec: list[float]) -> list[float]:
    """Mirror of the package's flooring rule, in plain floats.

    Vectors with every entry already >= EPS pass through bit-identical;
    otherwise entries are floored at EPS and the vector renormalized.
    """
    if min(vec) >= EPS:
        return list(vec)
    floored = [max(v, EPS) for v in vec]
    z = sum(floored)
    return [v / z for v in floored]


# -- score oracle ---------------------------------------------------------

def oracle_posterior(
    rows: list[list[float]],
    scope_classes: list[int],
    prior: list[float],
    x: int,
) -> list[float]:
    """Bayes posterior over the scope for symbol x, by the obvious formula."""
    nums = [rows[k][x] * prior[j] for j, k in enumerate(scope_classes)]
    z = sum(nums)
    return floor_and_norm([v / z for v in nums])


def oracle_pair_score(
    rows: list[list[float]],
    generating: int,
    scope_classes: list[int],
    prior: list[float],
    theta_p: int,
    theta_q: int,
) -> float:
    """Expected per-sample log evidence for theta_p over theta_q.

    The expectation weights are the likelihood row of the class actually
    generating the data (the world's true class for discriminative scores,
    the explicit out-of-scope class for confusion scores); this is what makes
    swapping theta_p and theta_q an exact sign flip.
    """
    jp = scope_classes.index(theta_p)
    jq = scope_classes.index(theta_q)
    total = 0.0
    for x in range(len(rows[0])):
        post = oracle_posterior(rows, scope_classes, prior, x)
        term = math.log(post[jp] / prior[jp]) - math.log(post[jq] / prior[jq])
        total += rows[generating][x] * term
    return total


def oracle_rate_candidates(
    rows: list[list[float]],
    true_class: int,
    scopes: list[tuple[int, list[int], list[float]]],
    theta: int,
) -> list[tuple[float, int]]:
    """Per-agent rejection-rate candidates for false class theta.

    scopes entries are (agent_id, scope_classes, prior).  Each source agent
    contributes its discriminative score for (true, theta), each support
    agent its best confusion score max over theta_hat != theta; agents whose
    relevant score is not strictly positive contribute nothing.
    """
    out: list[tuple[float, int]] = []
    for agent_id, classes, prior in scopes:
        if true_class in classes and theta in classes:
            d = oracle_pair_score(rows, true_class, classes, prior, true_class, theta)
            if d > 0.0:
                out.append((d, agent_id))
        elif theta in classes:
            options = [
                oracle_pair_score(rows, true_class, classes, prior, th, theta)
                for th in classes
                if th != theta
            ]
            if options and max(options) > 0.0:
                out.append((max(options), agent_id))
    return out


def oracle_source_set(
    rows: list[list[float]],
    true_class: int,
    scopes: list[tuple[int, list[int], list[float]]],
    theta_p: int,
    theta_q: int,
) -> tuple[int, ...]:
    """Agents holding both classes whose score for theta_p over theta_q,
    under data from the true class, is strictly positive."""
    return tuple(
        agent_id
        for agent_id, classes, prior in sorted(scopes)
        if theta_p in classes
        and theta_q in classes
        and oracle_pair_score(rows, true_class, classes, prior, theta_p, theta_q)
        > 0.0
    )


def oracle_support_set(
    rows: list[list[float]],
    true_class: int,
    scopes: list[tuple[int, list[int], list[float]]],
    theta: int,
) -> tuple[int, ...]:
    """Agents without the true class that hold theta and score some other
    scope class strictly above it."""
    return tuple(
        agent_id
        for agent_id, classes, prior in sorted(scopes)
        if true_class not in classes
        and theta in classes
        and any(
            oracle_pair_score(rows, true_class, classes, prior, th, theta) > 0.0
            for th in classes
            if th != theta
        )
    )


def oracle_best_rate(
    rows: list[list[float]],
    true_class: int,
    scopes: list[tuple[int, list[int], list[float]]],
    theta: int,
) -> tuple[float, int] | None:
    """Best rejection rate of false class theta and the agent attaining it.

    Ties break to the lowest agent id; None when no agent qualifies.
    """
    best: tuple[float, int] | None = None
    for cand, agent_id in oracle_rate_candidates(rows, true_class, scopes, theta):
        if best is None or cand > best[0]:
            best = (cand, agent_id)
    return best


# -- linear-domain dynamics oracle ----------------------------------------

@dataclass
class LinearAgent:
    """One agent's beliefs kept as plain linear-probability lists."""

    scope_classes: list[int]
    prior: list[float]
    m: int
    pi: list[float] = field(default_factory=list)
    mu: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.pi:
            self.pi = [1.0 / self.m] * self.m
        if not self.mu:
            self.mu = [1.0 / self.m] * self.m

    def local_step(self, post: list[float]) -> None:
        hat = list(self.pi)
        for j, k in enumerate(self.scope_classes):
            hat[k] = (post[j] / self.prior[j]) * self.pi[k]
        in_scope_max = max(hat[k] for k in self.scope_classes)
        for k in range(self.m):
            if k not in self.scope_classes:
                hat[k] = in_scope_max
        z = sum(hat)
        self.pi = [v / z for v in hat]


def log_step_trajectory(
    scope_classes: list[int],
    prior: list[float],
    m: int,
    posteriors: list[list[float]],
) -> list[list[float]]:
    """One agent's local log-beliefs for rounds 0..T, stepped one round at a
    time in plain floats: reweight, fill, then log-sum-exp normalize.

    Nothing is clamped, so beliefs keep falling past the package's floor;
    the reference for the engine's clamp-on-output floor rule.
    """
    v = [-math.log(m)] * m
    out = [list(v)]
    for post in posteriors:
        hat = list(v)
        for j, k in enumerate(scope_classes):
            hat[k] = v[k] + math.log(post[j]) - math.log(prior[j])
        top = max(hat[k] for k in scope_classes)
        for k in range(m):
            if k not in scope_classes:
                hat[k] = top
        hi = max(hat)
        lse = hi + math.log(sum(math.exp(h - hi) for h in hat))
        v = [h - lse for h in hat]
        out.append(list(v))
    return out


def _pool(rule: str, vectors: list[list[float]]) -> list[float]:
    m = len(vectors[0])
    if rule == "min":
        pooled = [min(v[k] for v in vectors) for k in range(m)]
    elif rule == "max":
        pooled = [max(v[k] for v in vectors) for k in range(m)]
    elif rule == "avg":
        pooled = [sum(v[k] for v in vectors) / len(vectors) for k in range(m)]
    else:
        raise ValueError(rule)
    z = sum(pooled)
    return [v / z for v in pooled]


def linear_run(
    m: int,
    scopes: list[tuple[list[int], list[float]]],
    neighborhoods: list[list[int]],
    posteriors: list[list[list[float]]],
    rule: str = "min",
) -> tuple[list[list[list[float]]], list[list[list[float]]]]:
    """Round-synchronous reference run in linear arithmetic.

    posteriors[i][t] is agent i's posterior for round t+1.  Returns per-round
    pi and mu trajectories (rounds 0..T) as nested lists.
    """
    agents = [LinearAgent(list(c), list(p), m) for c, p in scopes]
    horizon = len(posteriors[0]) if posteriors else 0
    pi_traj = [[list(a.pi) for a in agents]]
    mu_traj = [[list(a.mu) for a in agents]]
    for t in range(horizon):
        prev_mu = [list(a.mu) for a in agents]
        for i, agent in enumerate(agents):
            agent.local_step(list(posteriors[i][t]))
        new_mu = []
        for i, agent in enumerate(agents):
            inputs = [prev_mu[j] for j in neighborhoods[i]] + [list(agent.pi)]
            new_mu.append(_pool(rule, inputs))
        for agent, mu in zip(agents, new_mu):
            agent.mu = mu
        pi_traj.append([list(a.pi) for a in agents])
        mu_traj.append([list(a.mu) for a in agents])
    return pi_traj, mu_traj


def dense_pool(rule, prev, prev_flags, own, own_flags, neighborhoods):
    """Unnormalized pooled log-beliefs and clamp flags for every agent.

    The dense masked formulation the engine used before the CSR kernel: each
    agent's inclusive neighborhood is selected from an (n, n, m) stack by a
    boolean mask and reduced along the neighbor axis.  O(n^2 m) per call.
    """
    n = len(neighborhoods)
    mask = np.zeros((n, n), dtype=bool)
    for i, hood in enumerate(neighborhoods):
        mask[i, list(hood)] = True
    mask3 = mask[:, :, None]
    if rule == "min":
        pooled = np.where(mask3, prev[None, :, :], np.inf).min(axis=1)
        pooled = np.minimum(pooled, own)
        flagged = np.where(
            mask3 & prev_flags[None, :, :], prev[None, :, :], np.inf
        ).min(axis=1)
        flagged = np.where(own_flags, np.minimum(flagged, own), flagged)
        return pooled, flagged <= pooled
    if rule == "max":
        pooled = np.where(mask3, prev[None, :, :], -np.inf).max(axis=1)
        pooled = np.maximum(pooled, own)
        flagged = np.where(
            mask3 & prev_flags[None, :, :], prev[None, :, :], -np.inf
        ).max(axis=1)
        flagged = np.where(own_flags, np.maximum(flagged, own), flagged)
        return pooled, flagged >= pooled
    if rule == "avg":
        stacked = np.concatenate(
            [np.where(mask3, prev[None, :, :], -np.inf), own[:, None, :]],
            axis=1,
        )
        hi = stacked.max(axis=1)
        counts = mask.sum(axis=1) + 1
        pooled = (
            hi
            + np.log(np.exp(stacked - hi[:, None, :]).sum(axis=1))
            - np.log(counts)[:, None]
        )
        flags = np.where(mask3, prev_flags[None, :, :], True).all(axis=1)
        return pooled, flags & own_flags
    raise ValueError(rule)


def pool(rule, prev_mu, prev_flags, own_pi, own_flags, hood):
    """Pool every segment of ``hood`` under ``rule``, before normalization.

    The engine's former per-round kernel, kept as the reference for
    ``dynamics.global_trajectory``: a CSR ``reduceat`` over the stacked
    input ``[prev_mu; own_pi]`` (``hood`` indexes row n + i for agent i's
    own belief), with fresh arrays every call.  Returns the unnormalized
    pooled log-beliefs and the propagated clamp flags, one row per segment.
    """
    starts = hood.starts
    vals = np.concatenate((prev_mu, own_pi)).take(hood.index, axis=0)
    flags = np.concatenate((prev_flags, own_flags)).take(hood.index, axis=0)
    if rule == "min":
        pooled = np.minimum.reduceat(vals, starts, axis=0)
        flagged = np.minimum.reduceat(np.where(flags, vals, np.inf), starts, axis=0)
        return pooled, flagged <= pooled
    if rule == "max":
        pooled = np.maximum.reduceat(vals, starts, axis=0)
        flagged = np.maximum.reduceat(np.where(flags, vals, -np.inf), starts, axis=0)
        return pooled, flagged >= pooled
    if rule == "avg":
        hi = np.maximum.reduceat(vals, starts, axis=0)
        total = np.add.reduceat(
            np.exp(vals - hi.take(hood.owner, axis=0)), starts, axis=0
        )
        pooled = hi + np.log(total) - hood.log_size
        return pooled, np.logical_and.reduceat(flags, starts, axis=0)
    raise ValueError(f"unknown pooling rule {rule!r}")


def norm_rows(x):
    """The engine's former floor rule, fresh arrays every call: normalize
    each row in log-domain, clamp entries at or below the floor plus its
    tolerance, and flag them."""
    from myopic_crowd.dynamics import CLAMP_TOL, LOG_FLOOR

    hi = x.max(axis=-1, keepdims=True)
    lse = hi + np.log(np.exp(x - hi).sum(axis=-1, keepdims=True))
    out = x - lse
    clamped = out <= LOG_FLOOR + CLAMP_TOL
    return np.where(clamped, LOG_FLOOR, out), clamped


def global_trajectory(rule, log_pi, clamped_pi, hood):
    """Global log-beliefs and flags for rounds 0..T: :func:`pool` and
    :func:`norm_rows` round by round, the engine's former loop."""
    log_mu = np.empty_like(log_pi)
    clamped_mu = np.zeros_like(clamped_pi)
    log_mu[0] = -math.log(log_pi.shape[-1])
    for t in range(1, log_pi.shape[0]):
        pooled, propagated = pool(
            rule, log_mu[t - 1], clamped_mu[t - 1], log_pi[t], clamped_pi[t], hood
        )
        log_mu[t], floor_hits = norm_rows(pooled)
        clamped_mu[t] = floor_hits | propagated
    return log_mu, clamped_mu


# -- randomized problem instances -----------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """A self-contained random test instance in plain-Python form."""

    rows: tuple[tuple[float, ...], ...]
    true_class: int
    scopes: tuple[tuple[int, tuple[int, ...], tuple[float, ...]], ...]

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n_symbols(self) -> int:
        return len(self.rows[0])


def random_problem(
    rng,
    max_m: int = 5,
    max_symbols: int = 6,
    max_agents: int = 5,
    min_entry: float = 0.05,
) -> ProblemSpec:
    """Draw a random world + agent roster (no identifiability guarantee)."""
    m = int(rng.integers(2, max_m + 1))
    nx = int(rng.integers(2, max_symbols + 1))
    raw = rng.uniform(min_entry, 1.0, size=(m, nx))
    rows = raw / raw.sum(axis=1, keepdims=True)
    true_class = int(rng.integers(m))
    n_agents = int(rng.integers(1, max_agents + 1))
    scopes = []
    for i in range(n_agents):
        k = int(rng.integers(1, m + 1))
        classes = tuple(sorted(int(c) for c in rng.choice(m, size=k, replace=False)))
        raw_prior = rng.uniform(0.2, 1.0, size=k)
        prior = tuple(float(v) for v in raw_prior / raw_prior.sum())
        scopes.append((i, classes, prior))
    return ProblemSpec(
        rows=tuple(tuple(float(v) for v in row) for row in rows),
        true_class=true_class,
        scopes=tuple(scopes),
    )


def random_identifiable_problem(
    rng,
    max_m: int = 3,
    max_symbols: int = 3,
    max_agents: int = 4,
    min_rate: float = 0.05,
    max_tries: int = 500,
) -> ProblemSpec:
    """Rejection-sample a random instance whose every false class has a
    rejection rate of at least min_rate (so decay slopes are measurable)."""
    for _ in range(max_tries):
        spec = random_problem(
            rng, max_m=max_m, max_symbols=max_symbols, max_agents=max_agents
        )
        if len(spec.scopes) < 2:
            continue
        covered = True
        for p in range(spec.m):
            for q in range(p + 1, spec.m):
                if not any(
                    p in sc and q in sc
                    and oracle_pair_score(
                        [list(r) for r in spec.rows], spec.true_class,
                        list(sc), list(pr), p, q,
                    )
                    != 0.0
                    for _, sc, pr in spec.scopes
                ):
                    covered = False
                    break
            if not covered:
                break
        if not covered:
            continue
        rates = []
        for theta in range(spec.m):
            if theta == spec.true_class:
                continue
            best = oracle_best_rate(
                [list(r) for r in spec.rows],
                spec.true_class,
                [(i, list(sc), list(pr)) for i, sc, pr in spec.scopes],
                theta,
            )
            if best is None:
                rates = []
                break
            rates.append(best[0])
        if rates and min(rates) >= min_rate:
            return spec
    raise RuntimeError("no identifiable instance found; loosen the generator")


# -- seed sweeps ----------------------------------------------------------

def _seed_runs(config, seeds: int, rule: str):
    from myopic_crowd.sim import run_experiment

    for offset in range(seeds):
        yield run_experiment(config.derived(seed=config.seed + offset, rule=rule))


def rates_reference(config, seeds: int) -> dict:
    """The ``rates.json`` document, one ``run_experiment`` per seed."""
    from myopic_crowd.cli import RATES_PASS_FRACTION
    from myopic_crowd.config import RATE_SLACK
    from myopic_crowd.errors import InsufficientSamples
    from myopic_crowd.scores import score_report
    from myopic_crowd.sim import estimate_rejection_rate

    labels = config.world.classes.labels
    star = config.world.true_class
    best = score_report(config.world, config.scopes).best_rate
    rows = []
    for log in _seed_runs(config, seeds, config.rule):
        for agent in range(config.n_agents):
            for theta in range(config.world.m):
                if theta == star:
                    continue
                try:
                    slope = estimate_rejection_rate(log, agent, theta)
                except InsufficientSamples:
                    slope = None
                rows.append(
                    {
                        "agent": agent,
                        "theta": labels[theta],
                        "seed": log.config.seed,
                        "slope": slope,
                        "R": best[theta][0],
                    }
                )
    passed = sum(
        1
        for row in rows
        if row["slope"] is not None and row["slope"] >= row["R"] * (1 - RATE_SLACK)
    )
    return {
        "seeds": seeds,
        "horizon": config.horizon,
        "pass_fraction": passed / len(rows),
        "threshold": RATES_PASS_FRACTION,
        "rows": rows,
    }


def compare_reference(config, seeds: int) -> dict:
    """The ``compare.json`` document, one ``run_experiment`` per seed and rule."""
    from myopic_crowd.config import RULES
    from myopic_crowd.sim import time_to_identification

    star = config.world.true_class
    doc = {}
    for rule in RULES:
        times = [[] for _ in range(config.n_agents)]
        finals = [[] for _ in range(config.n_agents)]
        fully_identified = 0
        for log in _seed_runs(config, seeds, rule):
            run_times = [
                time_to_identification(log, i) for i in range(config.n_agents)
            ]
            for i, t in enumerate(run_times):
                times[i].append(math.inf if t is None else t)
                finals[i].append(float(np.exp(log.log_mu[-1, i, star])))
            fully_identified += all(t is not None for t in run_times)
        medians = [float(np.median(t)) for t in times]
        doc[rule] = {
            "median_identification_time": [
                None if math.isinf(v) else v for v in medians
            ],
            "median_final_mu_true": [float(np.median(f)) for f in finals],
            "runs_fully_identified": fully_identified,
            "runs": seeds,
        }
    return doc


# -- artifact writers -----------------------------------------------------
#
# The writers the package used before its serialisation fast paths, kept as
# byte-for-byte references for ``formats.json_text``,
# ``sim.write_trajectories_csv`` and ``classifier.write_replay_csv``.

def json_reference(doc) -> str:
    """Every JSON artifact's text: the standard library's indented encoder."""
    return json.dumps(doc, indent=2, sort_keys=True)


def trajectories_csv_reference(path, labels, log_pi, log_mu) -> None:
    """``trajectories.csv``, one formatted row at a time."""

    def cell(text):
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    label_cells = [cell(label) for label in labels]
    with open(path, "w", newline="") as f:
        f.write("round,agent,class,pi,mu,log_pi,log_mu\n")
        for t in range(log_pi.shape[0]):
            for i in range(log_pi.shape[1]):
                for k, label in enumerate(label_cells):
                    lp = float(log_pi[t, i, k])
                    lm = float(log_mu[t, i, k])
                    f.write(
                        f"{t},{i},{label},{math.exp(lp)!r},{math.exp(lm)!r},"
                        f"{lp!r},{lm!r}\n"
                    )


def replay_csv_reference(path, labels, rows) -> None:
    """A replay stream through ``csv.writer``: ``rows`` are
    (round, agent_id, {label: prob})."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "agent_id", *labels])
        for rnd, agent_id, probs in rows:
            cells = [repr(float(probs[lab])) if lab in probs else "" for lab in labels]
            writer.writerow([rnd, agent_id, *cells])


def replay_rows(labels, scopes, series):
    """(round, agent_id, {label: prob}) rows of per-agent posterior arrays,
    round by round."""
    for t in range(1, len(series[0]) + 1):
        for scope, posts in zip(scopes, series):
            probs = {
                labels[theta]: posts[t - 1, j] for j, theta in enumerate(scope.theta_i)
            }
            yield t, scope.agent_id, probs


# -- posterior tables -----------------------------------------------------
#
# The package's former table builders, kept as bit-for-bit references for
# ``classifier.posterior_table``: the Bayes table the score engine and the
# Bayes source built, and the uniform mixture the noisy source built on it.

def bayes_table_reference(world, scope) -> np.ndarray:
    """(|X|, k_i) Bayes posteriors, floored and normalized; ignores γ."""
    table = world.likelihoods if scope.likelihoods is None else scope.likelihoods
    lik = table.rows[list(scope.theta_i), :]
    unnorm = lik * scope.prior[:, None]
    post = (unnorm / unnorm.sum(axis=0, keepdims=True)).T
    post = np.maximum(post, EPS)
    return post / post.sum(axis=1, keepdims=True)


def noisy_table_reference(world, scope, gamma: float) -> np.ndarray:
    """The Bayes table mixed with uniform, (1−γ)·p + γ/k_i, renormalized."""
    mixed = (1.0 - gamma) * bayes_table_reference(world, scope) + gamma / scope.size
    return mixed / mixed.sum(axis=1, keepdims=True)


def empirical_score(world, scope, theta_p, theta_q, n_samples, rng, weight_class=None):
    """Monte Carlo estimate of agent ``scope``'s expected log evidence for
    θ_p over θ_q: the mean log-ratio difference of its posterior table over
    ``n_samples`` draws from ``weight_class`` (default: the true class)."""
    from myopic_crowd.classifier import posterior_table

    if weight_class is None:
        weight_class = world.true_class
    row = world.likelihoods.rows[weight_class]
    draws = rng.choice(row.size, size=int(n_samples), p=row)
    ratios = np.log(posterior_table(world, scope)) - np.log(scope.prior)
    terms = ratios[:, scope.position(theta_p)] - ratios[:, scope.position(theta_q)]
    return float(terms[draws].mean())


# -- graphs and files -----------------------------------------------------

def path_graph(n: int):
    from myopic_crowd.network import AgentGraph

    return AgentGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int):
    from myopic_crowd.network import AgentGraph

    return AgentGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def dense_erdos_renyi(n: int, p: float, rng, max_retries: int = 1000):
    """Erdős–Rényi G(n, p) conditioned on connectivity, built the dense way:
    one ``rng.random`` over the upper-triangle pairs per draw, filled into an
    n×n matrix and handed to ``AgentGraph.from_adjacency``, with connectivity
    read off the matrix.  ``RetriesExhausted`` when no draw connects."""
    from myopic_crowd.errors import RetriesExhausted
    from myopic_crowd.network import AgentGraph

    iu = np.triu_indices(n, 1)
    for _ in range(max_retries):
        adj = np.zeros((n, n), dtype=bool)
        adj[iu] = rng.random(iu[0].size) < p
        adj |= adj.T
        reach = np.arange(n) == 0
        grown = reach | adj[reach].any(axis=0)
        while (grown != reach).any():
            reach, grown = grown, grown | adj[grown].any(axis=0)
        if reach.all():
            return AgentGraph.from_adjacency(adj)
    raise RetriesExhausted(f"no connected graph after {max_retries} draws")


def diameter(g) -> int:
    """Longest shortest-path length over all vertex pairs, by breadth-first
    search from every vertex; ``DisconnectedGraph`` on a disconnected graph."""
    from myopic_crowd.errors import DisconnectedGraph

    best = 0
    for start in range(g.n):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighborhoods[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < g.n:
            raise DisconnectedGraph("diameter is undefined on a disconnected graph")
        best = max(best, max(dist.values()))
    return best


def save_graph(g, path) -> None:
    """An edge-list file: the vertex count, then one ``u v`` line per edge."""
    lines = [str(g.n)] + [f"{u} {v}" for u, v in g.edges()]
    Path(path).write_text("\n".join(lines) + "\n")


def save_world(world, path) -> None:
    from myopic_crowd.world import world_to_dict

    Path(path).write_text(json_reference(world_to_dict(world)) + "\n")
