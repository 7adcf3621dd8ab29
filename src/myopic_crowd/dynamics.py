"""Belief engine: the paper's recursion, once, in log-domain.

Local update: multiply the previous local belief by the posterior/prior
ratio on in-scope classes, fill out-of-scope classes with the largest
in-scope unnormalized value, then normalize.  Global update: pool the
inclusive neighborhood's previous global beliefs with the fresh local belief
using an elementwise min (or the avg/max baselines) and normalize.

:func:`local_trajectory` evaluates the local recursion for a whole posterior
stream in closed form: the normalization constant cancels between rounds,
so the unnormalized log-belief after t rounds is the uniform start plus the
cumulative log posterior/prior ratio.  :func:`pool` reduces every agent's
neighborhood at once from a CSR layout (:func:`neighborhood_csr`) in
O((n + |E|) * m) work, and :func:`global_trajectory` runs it round by round.

All beliefs are log-probabilities.  Beliefs on rejected classes decay
exponentially and would underflow linear 64-bit floats near round 700 for
rates around 1, so state never leaves log-domain.  The floor rule lives
here, in :func:`norm_rows`: an output entry at or below
``LOG_FLOOR + CLAMP_TOL`` is clamped to ``LOG_FLOOR`` and flagged.  A clamp
is applied on output only and never fed back into the local recursion,
whose closed form keeps every belief exact past the floor.  Pooling does
read the clamped global beliefs of the previous round and propagates their
flags; downstream rate estimation drops flagged samples.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .classifier import AgentScope
from .errors import ScopeMismatch

#: Lower clamp for log beliefs, ln(1e-300); keeps arithmetic finite.
LOG_FLOOR = math.log(1e-300)

#: Log-domain tolerance around the floor: normalization jitter can leave a
#: pinned belief within ~1e-16 of LOG_FLOOR, and such samples are still
#: floor artifacts, not dynamics.
CLAMP_TOL = 1e-9


def norm_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row in log-domain; clamp and flag floor hits.

    Once a belief is pinned at the floor it keeps re-normalizing to within
    rounding of the floor round after round; those samples carry no slope
    information, so anything at or below LOG_FLOOR + CLAMP_TOL is snapped to
    the floor and flagged.
    """
    hi = x.max(axis=-1, keepdims=True)
    lse = hi + np.log(np.exp(x - hi).sum(axis=-1, keepdims=True))
    out = x - lse
    clamped = out <= LOG_FLOOR + CLAMP_TOL
    return np.where(clamped, LOG_FLOOR, out), clamped


def local_trajectory(
    scope: AgentScope, m: int, posts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Local log-beliefs (T+1, m) over rounds 0..T and their clamp flags.

    ``posts`` is the agent's (T, |Θ_i|) posterior stream, row t-1 feeding
    round t.  Round 0 is uniform.  Per-round normalization constants cancel
    in the recursion, so normalizing each round of the cumulative form
    reproduces the step-by-step update without its rounding or any clamp.
    """
    if posts.ndim != 2 or posts.shape[1] != scope.size:
        raise ScopeMismatch(
            f"posterior stream of shape {posts.shape} does not fit agent "
            f"{scope.agent_id}'s scope of {scope.size} classes"
        )
    t_max = posts.shape[0]
    idx = np.fromiter(scope.theta_i, dtype=int)
    start = -math.log(m)
    v = np.empty((t_max + 1, m))
    v[0] = start
    cum = np.cumsum(np.log(posts) - np.log(scope.prior)[None, :], axis=0)
    in_part = start + cum
    v[1:, :] = -np.inf
    v[1:, idx] = in_part
    if idx.size < m:
        fill = in_part.max(axis=1)
        mask = np.ones(m, dtype=bool)
        mask[idx] = False
        v[1:, mask] = fill[:, None]
    return norm_rows(v)


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
    propagated clamp flags, one row per segment.  The min rule keeps a class
    only as far as nobody has rejected it; avg (mean of linear
    probabilities) and max are baselines.
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


def global_trajectory(
    rule: str, log_pi: np.ndarray, clamped_pi: np.ndarray, hood: Hood
) -> tuple[np.ndarray, np.ndarray]:
    """Global log-beliefs and clamp flags for rounds 0..T under ``rule``.

    ``log_pi``/``clamped_pi`` are the (T+1, n, m) local trajectories of the
    agents ``hood`` was built for.  Round 0 is uniform; each later round
    pools the previous round's global beliefs with the current local ones.
    """
    log_mu = np.empty_like(log_pi)
    clamped_mu = np.zeros_like(clamped_pi)
    log_mu[0] = -math.log(log_pi.shape[-1])
    for t in range(1, log_pi.shape[0]):
        pooled, propagated = pool(
            rule,
            log_mu[t - 1],
            clamped_mu[t - 1],
            log_pi[t],
            clamped_pi[t],
            hood,
        )
        log_mu[t], floor_hits = norm_rows(pooled)
        clamped_mu[t] = floor_hits | propagated
    return log_mu, clamped_mu
