"""Analytical score engine.

Everything here is an expectation over one observation drawn from a fixed
data-generating class: the per-sample log evidence an agent's posterior
accumulates for one class over another.  From those scores come source and
support sets, the global-identifiability check, and the network's best
rejection rate per false class.

Scores are in nats and are computed exactly, never by sampling, from the
world's ground-truth likelihoods and the agent's posterior table
(:func:`~myopic_crowd.classifier.posterior_tables`), the same table its
source feeds the dynamics, so a noisy agent is scored on its noisy table.
The evidence table is built one group of equal-size tables at a time, and
the witness compares each class column with the whole table at once.

Every score is a difference of two entries of one short vector.  With L_i
the (|X|, k_i) log-ratios ln p_i(θ|x) − ln p_i(θ) of agent i's posterior
table and data from class w, the *evidence vector* e_i = rows[w] · L_i gives
D_i(θ_p, θ_q) = e_i[θ_p] − e_i[θ_q], exactly antisymmetric because IEEE
subtraction is.  A report holds only the (n, m) table of evidence vectors
under w = the true class, NaN outside each scope, and the verdicts read from
it; score rows and sets are derived from the table when it is serialised.
R(θ) is the largest candidate, and the agent reported with it is the lowest
id whose candidate lies within a relative :data:`TIE_RTOL` of it.  The
tolerance matters: every source agent's D_i(θ*, θ) is the KL divergence of
the two likelihood rows whatever else its scope holds, so candidates that are
equal mathematically routinely differ in the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classifier import AgentScope, posterior_tables
from .errors import ClassOutOfScope, TrueClassInScope, UnknownClass
from .formats import Columns
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


def _table(world: World, scopes: list[AgentScope], weight_class: int):
    """Agent ids in ascending order and their (n, m) evidence table, NaN
    outside each scope; a pass per table group sums every column alike."""
    ordered = sorted(scopes, key=lambda s: s.agent_id)
    table = np.full((len(ordered), world.m), np.nan)
    weights = world.likelihoods.rows[weight_class][None, :, None]
    for members, tables in posterior_tables(world, ordered):
        group = [ordered[i] for i in members]
        ratios = np.log(tables) - np.log([s.prior for s in group])[:, None, :]
        rows = np.array(members)[:, None]
        table[rows, [s.theta_i for s in group]] = (weights * ratios).sum(axis=1)
    return np.array([s.agent_id for s in ordered], dtype=int), table


def _pair_score(world: World, scope: AgentScope, w: int, p: int, q: int) -> float:
    _check_pair(scope, p, q)
    e = _table(world, [scope], w)[1][0]
    return float(e[p] - e[q])


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

def _score_rows(scopes: list[AgentScope], table: np.ndarray):
    """(table row, p, q, e[p] − e[q]) of every ordered pair p ≠ q in each
    agent's scope, ordered by row, then p, then q; one gather per scope size."""
    held = [sorted(s.theta_i) for s in scopes]
    sizes = np.array(list(map(len, held)), dtype=int)
    parts = [(np.empty(0, dtype=int),) * 3 + (np.empty(0),)]
    for k in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == k)
        classes = np.array([held[r] for r in rows]).reshape(rows.size, k)
        a, b = np.nonzero(~np.eye(k, dtype=bool))
        e = table[rows[:, None], classes]
        p, q, d = classes[:, a], classes[:, b], e[:, a] - e[:, b]
        parts.append((np.repeat(rows, a.size), p.ravel(), q.ravel(), d.ravel()))
    row, p, q, d = map(np.concatenate, zip(*parts))
    order = np.argsort(row, kind="stable")
    return row[order], p[order], q[order], d[order]


def _witness(table: np.ndarray) -> list[tuple[int, int]]:
    """Unordered pairs with empty source sets both ways: no e[p] − e[q] ≠ 0
    (NaN, a class outside the scope, compares false).  Each class column is
    compared with the whole table at once, so temporaries stay (n, m)."""
    m = table.shape[1]
    apart = np.array([(abs(table[:, [p]] - table) > 0).any(axis=0) for p in range(m)])
    p, q = np.nonzero(~apart)
    return [(a, b) for a, b in zip(p.tolist(), q.tolist()) if a < b]


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
    return tuple(ids[table[:, theta_p] - table[:, theta_q] > 0.0].tolist())


def support_set(
    world: World, scopes: list[AgentScope], theta_star: int, theta: int
) -> tuple[int, ...]:
    """Agents that cannot identify θ* but still reject θ: some other class in
    their scope carries a strictly positive confusion score against θ."""
    theta_star = _check_class(world, theta_star, "theta_star")
    theta = _check_class(world, theta, "theta")
    ids, table = _table(world, scopes, theta_star)
    return tuple(ids[_support_margin(table, theta_star, theta) > 0.0].tolist())


def check_global_identifiability(
    world: World, scopes: list[AgentScope]
) -> tuple[bool, list[tuple[int, int]]]:
    """Every unordered class pair must have a nonempty source set.

    A pair {θ_p, θ_q} is covered when some agent holds both classes and
    scores them apart in either direction.  Returns (ok, uncovered pairs).
    """
    report = score_report(world, scopes)
    return (report.identifiable, report.witness)


# -- full report ----------------------------------------------------------

@dataclass(eq=False)
class ScoreReport:
    """The evidence table of ``scopes`` (one row per agent, ids in ``ids``) and
    the verdicts read from it; :meth:`to_dict` derives score rows and sets."""

    world: World
    scopes: list[AgentScope]
    ids: np.ndarray
    table: np.ndarray
    witness: list[tuple[int, int]]

    @property
    def identifiable(self) -> bool:
        return not self.witness

    @cached_property
    def best_rate(self) -> dict[int, tuple[float, int] | None]:
        """R(θ) and its agent for every false class θ, read on first use."""
        star = self.world.true_class
        rest = [t for t in range(self.world.m) if t != star]
        return {t: _best_rate(self.ids, self.table, star, t) for t in rest}

    def to_dict(self) -> dict:
        labels = self.world.classes.labels
        names = np.array(labels, dtype=object)
        star, m = self.world.true_class, self.world.m
        row, p, q, nats = _score_rows(self.scopes, self.table)
        held = np.array([s.contains(star) for s in self.scopes], dtype=bool)[row]
        rows = dict(agent=self.ids[row], theta_p=names[p], theta_q=names[q], nats=nats)
        scores = {
            kind: Columns({key: cells[mask].tolist() for key, cells in rows.items()})
            for kind, mask in (("discriminative", held), ("confusion", ~held))
        }
        p, q = np.nonzero(~np.eye(m, dtype=bool))
        # Source set of (p, q): agents with e[p] − e[q] > 0, one class p at a time.
        above = [self.table[:, [t]] - self.table > 0.0 for t in range(m)]
        false = [t for t in range(m) if t != star]
        support = [self.ids[_support_margin(self.table, star, t) > 0.0] for t in false]
        return {
            "classes": list(labels),
            "true_class": labels[star],
            "agents": Columns(
                id=self.ids.tolist(),
                scope=[names[list(s.theta_i)].tolist() for s in self.scopes],
                prior=[s.prior.tolist() for s in self.scopes],
            ),
            **scores,
            "source_sets": Columns(
                theta_p=names[p].tolist(),
                theta_q=names[q].tolist(),
                agents=[self.ids[above[a][:, b]].tolist() for a, b in zip(p, q)],
            ),
            "support_sets": Columns(
                theta=names[false].tolist(), agents=[a.tolist() for a in support]
            ),
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
    """The roster's evidence table under data from the true class, the class
    pairs no agent separates, and R(θ) for every false class θ on first use."""
    ids, table = _table(world, scopes, world.true_class)
    ordered = sorted(scopes, key=lambda s: s.agent_id)
    return ScoreReport(world, ordered, ids, table, _witness(table))
