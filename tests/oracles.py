"""Independent reference implementations used to cross-check the package.

Everything in this file is deliberately naive: plain-Python floats, explicit
loops, linear-domain arithmetic, no shared code with the package beyond the
probability-floor convention.  Slow and obvious beats fast and clever for an
oracle.  The one numpy exception is ``dense_pool``, the O(n^2 m) masked
pooling kept as the reference for the sparse pooling kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def local_step(self, posterior: list[float]) -> None:
        hat = list(self.pi)
        for j, k in enumerate(self.scope_classes):
            hat[k] = (posterior[j] / self.prior[j]) * self.pi[k]
        in_scope_max = max(hat[k] for k in self.scope_classes)
        for k in range(self.m):
            if k not in self.scope_classes:
                hat[k] = in_scope_max
        z = sum(hat)
        self.pi = [v / z for v in hat]


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
