"""Belief update engine in log-domain.

Local step: multiply the previous local belief by the posterior/prior ratio
on in-scope classes, fill out-of-scope classes with the largest in-scope
unnormalized value, then normalize.  Global step: pool the inclusive
neighborhood's previous global beliefs with the fresh local belief using an
elementwise min (or the avg/max baselines) and normalize.

Pooling is written once, in :func:`pool`, which reduces every agent's
neighborhood at once from a CSR layout (:func:`neighborhood_csr`) in
O((n + |E|) * m) work; the single-agent ``global_update_*`` functions are
one-segment calls of it.

All vectors are log-probabilities.  Beliefs on rejected classes decay
exponentially and would underflow linear 64-bit floats near round 700 for
rates around 1, so state never leaves log-domain; entries are clamped at
LOG_FLOOR to stay finite, and downstream rate estimation drops clamped
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .classifier import AgentScope, PosteriorVector
from .errors import (
    DimensionMismatch,
    EmptyNeighborhood,
    RowNotStochastic,
    ScopeMismatch,
)

#: Lower clamp for log beliefs, ln(1e-300); keeps arithmetic finite.
LOG_FLOOR = math.log(1e-300)

#: Tolerance for the "logsumexp equals 0" normalization invariant.
NORM_TOL = 1e-9


def logsumexp(v: np.ndarray) -> float:
    """log Σ exp(v) for a 1-d vector, stable against large magnitudes."""
    v = np.asarray(v, dtype=float)
    hi = v.max()
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.exp(v - hi).sum()))


def _normalize(logv: np.ndarray) -> np.ndarray:
    out = logv - logsumexp(logv)
    return np.maximum(out, LOG_FLOOR)


@dataclass(frozen=True, eq=False)
class BeliefState:
    """One agent's log-domain local (π) and global (μ) beliefs at a round."""

    agent_id: int
    log_pi: np.ndarray
    log_mu: np.ndarray
    round: int

    def __post_init__(self) -> None:
        for name in ("log_pi", "log_mu"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim != 1 or v.size < 2:
                raise DimensionMismatch(f"{name} must be a vector over >= 2 classes")
            if not np.all(np.isfinite(v)):
                raise RowNotStochastic(f"{name} entries must be finite")
            if abs(logsumexp(v)) > NORM_TOL:
                raise RowNotStochastic(
                    f"{name} is not normalized: logsumexp = {logsumexp(v)!r}"
                )
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if self.log_pi.size != self.log_mu.size:
            raise DimensionMismatch("log_pi and log_mu sizes differ")
        if self.round < 0:
            raise DimensionMismatch("round must be >= 0")

    @property
    def m(self) -> int:
        return self.log_pi.size

    def pi(self) -> np.ndarray:
        return np.exp(self.log_pi)

    def mu(self) -> np.ndarray:
        return np.exp(self.log_mu)


def init_beliefs(m: int, agent_id: int = 0) -> BeliefState:
    """Round-0 state: both beliefs uniform over m classes."""
    if m < 2:
        raise DimensionMismatch(f"need at least 2 classes, got {m}")
    v = np.full(m, -math.log(m))
    return BeliefState(agent_id, v, v.copy(), 0)


def local_update(
    state: BeliefState, posterior: PosteriorVector, scope: AgentScope
) -> BeliefState:
    """One local step from a fresh posterior.

    In-scope classes are reweighted by posterior/prior; out-of-scope classes
    receive the largest in-scope value *before* normalization, so the agent
    never argues against classes it cannot see.  The returned state carries
    the previous global belief unchanged at round t+1.
    """
    if posterior.scope is not scope and (
        posterior.scope.agent_id != scope.agent_id
        or posterior.scope.theta_i != scope.theta_i
    ):
        raise ScopeMismatch("posterior was produced for a different scope")
    idx = np.fromiter(scope.theta_i, dtype=int)
    if idx.max() >= state.m:
        raise ScopeMismatch(
            f"scope classes {scope.theta_i} exceed belief dimension {state.m}"
        )
    ratio = np.log(posterior.probs) - np.log(scope.prior)
    unnorm = np.array(state.log_pi)
    unnorm[idx] += ratio
    if idx.size < state.m:
        fill = unnorm[idx].max()
        mask = np.ones(state.m, dtype=bool)
        mask[idx] = False
        unnorm[mask] = fill
    return BeliefState(
        state.agent_id, _normalize(unnorm), state.log_mu, state.round + 1
    )


def with_global(state: BeliefState, log_mu: np.ndarray) -> BeliefState:
    """Attach a freshly pooled global belief to a post-local-update state."""
    return replace(state, log_mu=np.asarray(log_mu, dtype=float))


class Hood(NamedTuple):
    """Inclusive neighborhoods in CSR form, the layout :func:`pool` reads.

    Rows index the stacked input ``[prev_mu; own_pi]``: segment i starts at
    ``starts[i]`` in ``index`` and lists agent i's inclusive neighborhood
    (rows of ``prev_mu``) followed by agent i's own local belief, row
    ``i - n`` from the end of the stack for n segments.  ``owner`` maps each
    entry of ``index`` to its segment and ``log_size`` is the (n, 1) log of
    segment lengths.
    """

    index: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    log_size: np.ndarray


def neighborhood_csr(neighborhoods: Sequence[Sequence[int]]) -> Hood:
    """CSR layout of a graph's inclusive neighborhoods; build once per graph."""
    n = len(neighborhoods)
    segments = [[*hood, i - n] for i, hood in enumerate(neighborhoods)]
    sizes = np.array([len(seg) for seg in segments])
    return Hood(
        index=np.array([j for seg in segments for j in seg], dtype=np.intp),
        starts=np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp),
        owner=np.repeat(np.arange(n), sizes),
        log_size=np.log(sizes)[:, None],
    )


def pool(
    rule: str,
    prev_mu: np.ndarray,
    prev_flags: np.ndarray,
    own_pi: np.ndarray,
    own_flags: np.ndarray,
    hood: Hood,
) -> tuple[np.ndarray, np.ndarray]:
    """Pool every segment of ``hood`` under ``rule``, before normalization.

    ``prev_mu``/``prev_flags`` are the previous global log-beliefs and their
    clamp flags, ``own_pi``/``own_flags`` the fresh local ones, each of
    shape (rows, m).  Returns the unnormalized pooled log-beliefs and the
    propagated clamp flags, one row per segment.
    """
    starts = hood.starts
    vals = np.concatenate((prev_mu, own_pi)).take(hood.index, axis=0)
    flags = np.concatenate((prev_flags, own_flags)).take(hood.index, axis=0)
    # Clamp flags propagate: a pooled value is a floor artifact when the
    # input that determined it was itself pinned at the floor, even though
    # normalization can lift the output above LOG_FLOOR.
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
        # A floored input is negligible inside a mean; the output is an
        # artifact only when every input is floored.
        return pooled, np.logical_and.reduceat(flags, starts, axis=0)
    raise ValueError(f"unknown pooling rule {rule!r}")


def _pool_one(
    rule: str, own_pi: BeliefState, neighbor_mus: Sequence[np.ndarray]
) -> np.ndarray:
    if len(neighbor_mus) == 0:
        raise EmptyNeighborhood(
            "global update needs the inclusive neighborhood's beliefs"
        )
    stack = np.asarray(list(neighbor_mus), dtype=float)
    if stack.ndim != 2 or stack.shape[1] != own_pi.m:
        raise DimensionMismatch(
            f"neighbor beliefs must be vectors of size {own_pi.m}"
        )
    k = stack.shape[0]
    hood = neighborhood_csr([range(k)])
    no_flags = np.zeros((k + 1, own_pi.m), dtype=bool)
    pooled, _ = pool(
        rule, stack, no_flags[:k], own_pi.log_pi[None, :], no_flags[k:], hood
    )
    return _normalize(pooled[0])


def global_update_min(
    own_pi: BeliefState, neighbor_mus: Sequence[np.ndarray]
) -> np.ndarray:
    """Elementwise min over neighborhood beliefs and the own local belief,
    then normalization.  A class survives only if nobody has rejected it."""
    return _pool_one("min", own_pi, neighbor_mus)


def global_update_avg(
    own_pi: BeliefState, neighbor_mus: Sequence[np.ndarray]
) -> np.ndarray:
    """Arithmetic mean (in linear probabilities) over the same input set as
    the min rule; baseline aggregation for comparisons."""
    return _pool_one("avg", own_pi, neighbor_mus)


def global_update_max(
    own_pi: BeliefState, neighbor_mus: Sequence[np.ndarray]
) -> np.ndarray:
    """Elementwise max over the same input set; baseline aggregation.  Never
    removes probability mass from a class any input still believes in."""
    return _pool_one("max", own_pi, neighbor_mus)


GLOBAL_RULES = {
    "min": global_update_min,
    "avg": global_update_avg,
    "max": global_update_max,
}


@dataclass(frozen=True, eq=False)
class LogRatioDiagnostic:
    """Decomposition of the local belief log-ratio against the true class.

    rho[t] = log π_t(θ) − log π_t(θ*).  lam[t−1] is the per-round increment
    computed independently from the posterior stream; the local update makes
    rho[t] = rho[0] + Σ_{k≤t} lam[k] exactly, and by the law of large numbers
    the mean increment approaches minus the discriminative score for (θ*, θ).
    """

    theta: int
    theta_star: int
    rho: np.ndarray
    lam: np.ndarray
    lambda_sum: np.ndarray

    @property
    def lambda_mean(self) -> float:
        return float(self.lam.mean()) if self.lam.size else 0.0


def log_ratio_diagnostics(
    states: Sequence[BeliefState],
    posteriors: Sequence[PosteriorVector],
    scope: AgentScope,
    theta: int,
    theta_star: int,
) -> LogRatioDiagnostic:
    """Build the ρ/λ diagnostic for one class pair inside the agent's scope.

    ``states`` holds rounds 0..T and ``posteriors`` the observations that
    produced rounds 1..T.
    """
    if not scope.contains(theta) or not scope.contains(theta_star):
        raise ScopeMismatch(
            f"classes ({theta}, {theta_star}) not both in agent "
            f"{scope.agent_id}'s scope"
        )
    if len(states) != len(posteriors) + 1:
        raise DimensionMismatch(
            f"{len(states)} states require {len(states) - 1} posteriors, "
            f"got {len(posteriors)}"
        )
    p = scope.position(theta)
    s = scope.position(theta_star)
    rho = np.array([st.log_pi[theta] - st.log_pi[theta_star] for st in states])
    lam = np.array(
        [
            (math.log(pv.probs[p]) - math.log(scope.prior[p]))
            - (math.log(pv.probs[s]) - math.log(scope.prior[s]))
            for pv in posteriors
        ]
    )
    return LogRatioDiagnostic(
        theta=theta,
        theta_star=theta_star,
        rho=rho,
        lam=lam,
        lambda_sum=np.cumsum(lam) if lam.size else lam,
    )
