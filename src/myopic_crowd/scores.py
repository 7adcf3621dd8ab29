"""Analytical score engine.

Everything here is an expectation over one observation drawn from a fixed
data-generating class: the per-sample log evidence an agent's posterior
accumulates for one class over another.  From those scores come source and
support sets, the global-identifiability check, and the network's best
rejection rate per false class.

Scores are in nats and are computed exactly, never by sampling, from the
world's ground-truth likelihoods and the agent's posterior table
(:func:`~myopic_crowd.classifier.posterior_table`), the same table its source
feeds the dynamics, so a noisy agent is scored on its noisy table.

Every score is a difference of two entries of one short vector.  With L_i
the (|X|, k_i) log-ratios ln p_i(θ|x) − ln p_i(θ) of agent i's posterior
table and data from class w, the *evidence vector* e_i = rows[w] · L_i gives
D_i(θ_p, θ_q) = e_i[θ_p] − e_i[θ_q], exactly antisymmetric because IEEE
subtraction is.  A report uses w = the true class for discriminative and
confusion scores alike, and derives sets, identifiability and R(θ) from one
(n, m) table of evidence vectors, NaN outside each scope.  R(θ) is the
largest candidate, and the agent reported with it is the lowest id whose
candidate lies within a relative :data:`TIE_RTOL` of it.  The tolerance
matters: every source agent's D_i(θ*, θ) is the KL divergence of the two
likelihood rows whatever else its scope holds, so candidates that are equal
mathematically routinely differ in the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifier import AgentScope, posterior_table
from .errors import ClassOutOfScope, TrueClassInScope, UnknownClass
from .world import World

#: Relative tolerance within which two R(θ) candidates count as tied.
TIE_RTOL = 1e-12


def _check_class(world: World, theta: int, name: str) -> int:
    theta = int(theta)
    if not 0 <= theta < world.m:
        raise UnknownClass(f"{name} index {theta} out of range")
    return theta


def _check_pair(scope: AgentScope, theta_p: int, theta_q: int) -> None:
    if not scope.contains(theta_p) or not scope.contains(theta_q):
        raise ClassOutOfScope(
            f"classes ({theta_p}, {theta_q}) not both in agent "
            f"{scope.agent_id}'s scope {scope.theta_i}"
        )


def _log_ratios(world: World, scope: AgentScope) -> np.ndarray:
    """Log-ratios ln p_i(θ|x) − ln p_i(θ) of the agent's posterior table,
    shape (|X|, k_i)."""
    return np.log(posterior_table(world, scope)) - np.log(scope.prior)


def _evidence(world: World, scope: AgentScope, weight_class: int) -> np.ndarray:
    """Evidence vector e_i under data from ``weight_class``, in scope order;
    summed row by row, so identical log-ratio columns give equal entries."""
    weights = world.likelihoods.rows[weight_class]
    return (weights[:, None] * _log_ratios(world, scope)).sum(axis=0)


def _table(world: World, scopes: list[AgentScope], weight_class: int):
    """Agent ids in ascending order and their (n, m) evidence table, with
    NaN for classes outside each agent's scope."""
    ordered = sorted(scopes, key=lambda s: s.agent_id)
    table = np.full((len(ordered), world.m), np.nan)
    for row, scope in zip(table, ordered):
        row[list(scope.theta_i)] = _evidence(world, scope, weight_class)
    return np.array([s.agent_id for s in ordered], dtype=int), table


def _pair_score(world: World, scope: AgentScope, w: int, p: int, q: int) -> float:
    _check_pair(scope, p, q)
    e = _evidence(world, scope, w)
    return float(e[scope.position(p)] - e[scope.position(q)])


def discriminative_score(
    world: World, scope: AgentScope, theta_p: int, theta_q: int
) -> float:
    """Expected per-sample log evidence for θ_p over θ_q under data from the
    world's true class.  Positive means the agent separates the pair in the
    direction of θ_p; antisymmetric in (θ_p, θ_q)."""
    theta_p = _check_class(world, theta_p, "theta_p")
    theta_q = _check_class(world, theta_q, "theta_q")
    return _pair_score(world, scope, world.true_class, theta_p, theta_q)


def confusion_score(
    world: World, scope: AgentScope, theta_star: int, theta_p: int, theta_q: int
) -> float:
    """Expected per-sample log evidence for θ_p over θ_q when the data comes
    from a class θ* the agent cannot identify (θ* ∉ Θ_i).

    Positive means the agent still rejects θ_q relative to θ_p despite never
    considering the generating class."""
    theta_star = _check_class(world, theta_star, "theta_star")
    theta_p = _check_class(world, theta_p, "theta_p")
    theta_q = _check_class(world, theta_q, "theta_q")
    if scope.contains(theta_star):
        raise TrueClassInScope(
            f"class {theta_star} is inside agent {scope.agent_id}'s scope; "
            "use discriminative_score"
        )
    return _pair_score(world, scope, theta_star, theta_p, theta_q)


# -- sets and identifiability --------------------------------------------

def _ids(ids: np.ndarray, mask: np.ndarray) -> tuple[int, ...]:
    return tuple(ids[mask].tolist())


def _source_sets(ids: np.ndarray, table: np.ndarray) -> dict:
    """Source set of every ordered class pair: agents with e[p] − e[q] > 0."""
    m = table.shape[1]
    pairs = [(p, q) for p in range(m) for q in range(m) if p != q]
    return {(p, q): _ids(ids, table[:, p] - table[:, q] > 0.0) for p, q in pairs}


def _witness(sources: dict, m: int) -> list[tuple[int, int]]:
    """Unordered pairs with an empty source set in both directions."""
    pairs = [(p, q) for p in range(m) for q in range(p + 1, m)]
    return [(p, q) for p, q in pairs if not sources[(p, q)] and not sources[(q, p)]]


def _support_margin(table: np.ndarray, theta_star: int, theta: int) -> np.ndarray:
    """Best confusion score against θ, max over θ̂ of e[θ̂] − e[θ], for agents
    without θ*; NaN for everyone else.  θ̂ = θ adds 0, which is never support
    and never beats a positive score, so it need not be excluded."""
    margin = np.fmax.reduce(table, axis=1) - table[:, theta]
    return np.where(np.isnan(table[:, theta_star]), margin, np.nan)


def _best_rate(ids, table, theta_star: int, theta: int) -> tuple[float, int] | None:
    """Largest positive candidate for R(θ) and the lowest id attaining it
    within :data:`TIE_RTOL`: D_i(θ*, θ) for agents holding θ*, else the
    support margin; None when no agent rejects θ."""
    d = table[:, theta_star] - table[:, theta]
    value = np.where(np.isnan(d), _support_margin(table, theta_star, theta), d)
    ok = value > 0.0
    if not ok.any():
        return None
    best = value[ok].max()
    j = int(np.argmax(ok & (value >= best * (1.0 - TIE_RTOL))))
    return float(best), int(ids[j])


def source_set(
    world: World, scopes: list[AgentScope], theta_p: int, theta_q: int
) -> tuple[int, ...]:
    """Agents holding both classes with strictly positive score for the pair."""
    theta_p = _check_class(world, theta_p, "theta_p")
    theta_q = _check_class(world, theta_q, "theta_q")
    ids, table = _table(world, scopes, world.true_class)
    return _ids(ids, table[:, theta_p] - table[:, theta_q] > 0.0)


def support_set(
    world: World, scopes: list[AgentScope], theta_star: int, theta: int
) -> tuple[int, ...]:
    """Agents that cannot identify θ* but still reject θ: some other class in
    their scope carries a strictly positive confusion score against θ."""
    theta_star = _check_class(world, theta_star, "theta_star")
    theta = _check_class(world, theta, "theta")
    ids, table = _table(world, scopes, theta_star)
    return _ids(ids, _support_margin(table, theta_star, theta) > 0.0)


def check_global_identifiability(
    world: World, scopes: list[AgentScope]
) -> tuple[bool, list[tuple[int, int]]]:
    """Every unordered class pair must have a nonempty source set.

    A pair {θ_p, θ_q} is covered when some agent holds both classes and
    scores them apart in either direction.  Returns (ok, uncovered pairs).
    """
    ids, table = _table(world, scopes, world.true_class)
    witness = _witness(_source_sets(ids, table), world.m)
    return (len(witness) == 0, witness)


# -- full report ----------------------------------------------------------

@dataclass(eq=False)
class ScoreReport:
    """All scores, sets, identifiability, and best rejection rates at once."""

    world: World
    scopes: list[AgentScope]
    discriminative: dict[tuple[int, int, int], float] = field(default_factory=dict)
    confusion: dict[tuple[int, int, int], float] = field(default_factory=dict)
    source_sets: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    support_sets: dict[int, tuple[int, ...]] = field(default_factory=dict)
    best_rate: dict[int, tuple[float, int] | None] = field(default_factory=dict)
    identifiable: bool = False
    witness: list[tuple[int, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        labels = self.world.classes.labels

        def score_rows(scores: dict) -> list[dict]:
            return [
                {"agent": a, "theta_p": labels[p], "theta_q": labels[q], "nats": v}
                for (a, p, q), v in sorted(scores.items())
            ]

        return {
            "classes": list(labels),
            "true_class": labels[self.world.true_class],
            "agents": [
                {
                    "id": s.agent_id,
                    "scope": [labels[t] for t in s.theta_i],
                    "prior": [float(p) for p in s.prior],
                }
                for s in self.scopes
            ],
            "discriminative": score_rows(self.discriminative),
            "confusion": score_rows(self.confusion),
            "source_sets": [
                {"theta_p": labels[p], "theta_q": labels[q], "agents": list(agents)}
                for (p, q), agents in sorted(self.source_sets.items())
            ],
            "support_sets": [
                {"theta": labels[t], "agents": list(agents)}
                for t, agents in sorted(self.support_sets.items())
            ],
            "best_rate": [
                {
                    "theta": labels[t],
                    "R": None if entry is None else entry[0],
                    "agent": None if entry is None else entry[1],
                }
                for t, entry in sorted(self.best_rate.items())
            ],
            "identifiable": self.identifiable,
            "witness": [[labels[p], labels[q]] for p, q in self.witness],
        }


def score_report(world: World, scopes: list[AgentScope]) -> ScoreReport:
    """Compute the complete analytical report for a world and agent set."""
    report = ScoreReport(world=world, scopes=sorted(scopes, key=lambda s: s.agent_id))
    star = world.true_class
    ids, table = _table(world, report.scopes, star)
    for aid, row, scope in zip(ids.tolist(), table, report.scopes):
        scores = report.discriminative if scope.contains(star) else report.confusion
        e = row[list(scope.theta_i)]
        diffs = (e[:, None] - e[None, :]).tolist()
        for a, p in enumerate(scope.theta_i):
            for b, q in enumerate(scope.theta_i):
                if p != q:
                    scores[(aid, p, q)] = diffs[a][b]
    report.source_sets = _source_sets(ids, table)
    for theta in range(world.m):
        if theta == star:
            continue
        support = _support_margin(table, star, theta) > 0.0
        report.support_sets[theta] = _ids(ids, support)
        report.best_rate[theta] = _best_rate(ids, table, star, theta)
    report.witness = _witness(report.source_sets, world.m)
    report.identifiable = not report.witness
    return report
