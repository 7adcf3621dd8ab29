"""Belief engine: the paper's recursion, once, in log-domain.

Local update: multiply the previous local belief by the posterior/prior
ratio on in-scope classes, fill out-of-scope classes with the largest
in-scope unnormalized value, then normalize.  Global update: pool the
inclusive neighborhood's previous global beliefs with the fresh local belief
using an elementwise min (or the avg/max baselines) and normalize.

:func:`local_trajectories` evaluates the local recursion for whole posterior
streams in closed form, one pass per scope size: the normalization constant
cancels between rounds, so the unnormalized log-belief after t rounds is the
uniform start plus the cumulative log posterior/prior ratio.  The global
recursion reads the previous round, so :func:`global_trajectory` loops over
rounds, pooling every agent under every rule at once from one gather per
round on the layouts of :func:`neighborhood_csr`; flags are read off the
gathered entries.

All beliefs are log-probabilities.  Beliefs on rejected classes decay
exponentially and would underflow linear 64-bit floats near round 700 for
rates around 1, so state never leaves log-domain.  The floor rule lives
here, in :func:`norm_plan` and :func:`norm_rows`: an output entry at or
below ``LOG_FLOOR + CLAMP_TOL`` is clamped to ``LOG_FLOOR`` and flagged.  A
clamp is applied on output only and never fed back into the local
recursion, whose closed form keeps every belief exact past the floor.
Pooling does read the clamped global beliefs of the previous round and
propagates their flags; downstream rate estimation drops flagged samples.
Rows shorter than :data:`SHORT_ROW` are reduced one call per 1-D column
view, skipping numpy's per-row cost; the bytes stay the same, as max is
exact and numpy sums so short a row left to right.
"""

from __future__ import annotations

import math
from functools import partial
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

#: Rows narrower than this are reduced column by column.  It is numpy's
#: pairwise-summation block: below it numpy sums a row left to right.
SHORT_ROW = 8

#: Belief cells one pass of :func:`local_trajectories` evaluates at most:
#: 64 KiB temporaries are reused from the heap, not mapped afresh.
GROUP_CELLS = 2**13


def _fold(ufunc, cols, acc: np.ndarray) -> None:
    """``ufunc`` over the 1-D views ``cols``, left to right, into ``acc``."""
    ufunc(cols[0], cols[1], out=acc)
    for col in cols[2:]:
        ufunc(acc, col, out=acc)


def row_max(x: np.ndarray) -> np.ndarray:
    """The maximum over x's last axis, kept; a row shorter than
    :data:`SHORT_ROW` takes one ``np.maximum`` call per 1-D column."""
    width = x.shape[-1]
    if not 2 <= width < SHORT_ROW:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    acc = np.empty(x.shape[:-1] + (1,))
    _fold(np.maximum, [x[..., j] for j in range(width)], acc[..., 0])
    return acc


def norm_plan(x: np.ndarray):
    """:func:`norm_rows` built once for the buffer ``x``: a call ``(out,
    clamped)`` that normalizes x's current rows into them.  It holds the row
    maxima, log-sum-exps and exp scratch, and below :data:`SHORT_ROW` their
    column views and x's, so a loop refilling ``x`` makes none per call.  Its
    sum reads only exp output, never -0.0, so folding columns left to right
    keeps the bytes of numpy's sum, which starts from +0.0."""
    (hi, lse), scratch = np.empty((2, *x.shape[:-1], 1)), np.empty(x.shape)
    if 2 <= x.shape[-1] < SHORT_ROW:
        xs, es = zip(*[(x[..., j], scratch[..., j]) for j in range(x.shape[-1])])
        row_max = partial(_fold, np.maximum, xs, hi[..., 0])
        row_sum = partial(_fold, np.add, es, lse[..., 0])
    else:
        row_max = partial(np.maximum.reduce, x, -1, out=hi, keepdims=True)
        row_sum = partial(np.add.reduce, scratch, -1, out=lse, keepdims=True)

    def norm(out: np.ndarray, clamped: np.ndarray) -> None:
        row_max()
        np.exp(np.subtract(x, hi, out=scratch), out=scratch)
        row_sum()
        np.add(np.log(lse, out=lse), hi, out=lse)
        np.subtract(x, lse, out=out)
        np.less_equal(out, LOG_FLOOR + CLAMP_TOL, out=clamped)
        np.copyto(out, LOG_FLOOR, where=clamped)

    return norm


def norm_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row in log-domain; clamp and flag floor hits.

    Once a belief is pinned at the floor it keeps re-normalizing to within
    rounding of the floor round after round; those samples carry no slope
    information, so anything at or below LOG_FLOOR + CLAMP_TOL is snapped to
    the floor and flagged.  The result is new float and bool arrays of x's
    shape, written by :func:`norm_plan` built for ``x`` and called once.
    """
    out, clamped = np.empty(x.shape), np.empty(x.shape, dtype=bool)
    norm_plan(x)(out, clamped)
    return out, clamped


def local_trajectories(
    scopes: Sequence[AgentScope], streams, out: np.ndarray, clamped: np.ndarray
) -> None:
    """Write n agents' local log-beliefs over rounds 0..T into ``out``, a
    (T+1, n, m) array, and their clamp flags into ``clamped``.

    ``streams[i]`` is agent ``scopes[i]``'s ``(rows, index)``: row
    ``index[t-1]``, |Θ_i| posteriors, feeds round t.  Round 0 is uniform.
    Per-round normalization constants cancel in the recursion, so
    normalizing each round of the cumulative form reproduces the step-by-step
    update without its rounding or any clamp.  Agents of one scope size and
    row count share each array operation; log ratios are taken per row.
    """
    rounds, _, m = out.shape
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (scope, (rows, index)) in enumerate(zip(scopes, streams)):
        if rows.shape[1:] != (scope.size,) or index.shape != (rounds - 1,):
            raise ScopeMismatch(
                f"posterior rows {rows.shape} read by index {index.shape} do not fit "
                f"agent {scope.agent_id}'s {rounds - 1} rounds of {scope.size} classes"
            )
        groups.setdefault((scope.size, len(rows)), []).append(i)
    start = -math.log(m)
    step = max(1, GROUP_CELLS // (rounds * m))
    for (k, _), members in groups.items():
        for j in range(0, len(members), step):
            cols = members[j : j + step]
            group = [scopes[i] for i in cols]
            prior = np.log([s.prior for s in group])
            ratios = np.log(np.stack([streams[i][0] for i in cols], axis=1)) - prior
            index = np.stack([streams[i][1] for i in cols], axis=1)
            in_part = start + np.cumsum(ratios[index, np.arange(len(cols))], axis=0)
            v = np.empty((rounds, len(cols), m))
            v[0] = start
            if k < m:
                v[1:] = row_max(in_part)
            v[1:, np.arange(len(cols))[:, None], [s.theta_i for s in group]] = in_part
            out[:, cols], clamped[:, cols] = norm_rows(v)


class Hood(NamedTuple):
    """Inclusive neighborhoods of n agents, laid out for a pooling round.

    Entries are rows of the stacked input ``[prev_mu; own_pi; identity]``:
    row j < n is agent j's previous global belief, row n + i agent i's local
    belief, row 2n the pooling rule's identity.  Segment i, agent i's
    inclusive neighborhood then row n + i, starts at ``starts[i]`` in the
    CSR ``index``; ``owner`` maps entries to segments, ``log_size`` is the
    (n, 1) log of segment lengths.  ``padded`` is the degree-major (D, n)
    form, segment i down column i over row 2n, so one reduction over axis 0
    pools every agent; it is None past twice the CSR entries (a hub).
    """

    index: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    log_size: np.ndarray
    padded: np.ndarray | None


def neighborhood_csr(neighborhoods: Sequence[Sequence[int]]) -> Hood:
    """Both layouts of a graph's inclusive neighborhoods; build once per graph."""
    n = len(neighborhoods)
    segments = [[*hood, n + i] for i, hood in enumerate(neighborhoods)]
    sizes = [len(seg) for seg in segments]
    index = np.array([j for seg in segments for j in seg], dtype=np.intp)
    padded = None
    if max(sizes, default=0) * n <= 2 * index.size:
        padded = np.full((max(sizes, default=0), n), 2 * n, dtype=np.intp)
        for i, seg in enumerate(segments):
            padded[: len(seg), i] = seg
    return Hood(
        index=index,
        starts=np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp),
        owner=np.repeat(np.arange(n), sizes),
        log_size=np.log(sizes)[:, None],
        padded=padded,
    )


def _reduction(ufunc, hood: Hood, source: np.ndarray, out: np.ndarray, a: int, b: int):
    """A call of ``ufunc`` over each segment of blocks a..b of ``source``, as
    gathered on ``hood``'s layout, into ``out``; or None if a == b."""
    n, e = len(hood.starts), hood.index.size
    if a == b:
        return None
    if hood.padded is not None:
        return partial(ufunc.reduce, source[:, a * n : b * n], 0, out=out)
    starts = (hood.starts + e * np.arange(b - a)[:, None]).ravel()
    return partial(ufunc.reduceat, source[a * e : b * e], starts, 0, out=out)


#: Rules in block order: max beside avg, whose row maxima max's pass yields.
_BLOCKS = ("min", "max", "avg")


def global_trajectory(
    rules: Sequence[str], log_pi: np.ndarray, clamped_pi: np.ndarray, hood: Hood
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Global log-beliefs and clamp flags for rounds 0..T, one pair per rule.

    ``log_pi``/``clamped_pi`` are the (T+1, n, m) local trajectories of the
    agents ``hood`` was built for.  Round 0 is uniform; each later round
    pools every agent's inclusive neighborhood of previous global beliefs
    with its current local belief, then normalizes.  The min rule keeps a
    class only as far as nobody has rejected it; avg (mean of linear
    probabilities) and max are baselines.  At a few agents per run a round
    costs numpy call overhead, so rounds are zipped round views, write into
    buffers, row views and a :func:`norm_plan` made once, and the R
    ``rules`` share one loop in blocks of n rows ordered min, max, avg: one
    gather fills every block's entries, one min and one max reduction pool
    them, one plan normalizes all R·n rows of a (T+1, R·n, m) array.  Flags
    are read off one gather: a min or max output is flagged where a flagged
    entry equals it, avg's where every entry is flagged.
    """
    rounds, n, m = log_pi.shape
    for rule in rules:
        if rule not in _BLOCKS:
            raise ValueError(f"unknown pooling rule {rule!r}")
    order = [rule for rule in _BLOCKS if rule in rules]
    # Blocks 0..lo are min's, lo..mm max's and mm..k avg's.
    k, e, r_n = len(order), hood.index.size, len(order) * n
    lo, mm = int("min" in order), k - ("avg" in order)
    log_mu = np.empty((rounds, r_n, m))
    clamped_mu = np.zeros(log_mu.shape, dtype=bool)
    log_mu[0] = -math.log(m)
    # Rows: each block's previous global beliefs, the local beliefs, then
    # the identities of min, max and avg.  Avg's is flagged: a floored input
    # is negligible inside a mean, an artifact only if every input is one.
    stack = np.empty((r_n + n + 3, m))
    stack[-3:] = [[np.inf], [-np.inf], [-np.inf]]
    flags = np.zeros(stack.shape, dtype=bool)
    flags[-1] = True
    # Each block's map from the rows ``hood`` indexes to rows of the stack.
    ids = [r_n + n + _BLOCKS.index(rule) for rule in order]
    rows = [np.r_[b * n : b * n + n, r_n : r_n + n, i] for b, i in enumerate(ids)]
    layout = hood.index if hood.padded is None else hood.padded
    grid = np.concatenate([layout[..., :0], *[r[layout] for r in rows]], axis=-1)
    # Avg sums each neighborhood in CSR order, which sets the bytes; the
    # padded layout gathers avg's CSR entries after the grid.
    tail = [rows[-1][hood.index]] if mm < k and layout.ndim == 2 else []
    flat = np.concatenate([grid.ravel(), *tail])
    gathered = np.empty((flat.size, m))
    entries = gathered[: grid.size].reshape(*grid.shape, m)
    # Avg's spread reuses entries read by then, if enough precede its own.
    csr, total = gathered[flat.size - e :], np.empty((n, m))
    spread = gathered[:e] if flat.size >= 2 * e or mm == k else np.empty((e, m))
    marks, equal = np.empty(entries.shape, bool), np.empty(entries.shape, bool)
    pooled, propagated = np.empty((r_n, m)), np.empty((r_n, m), dtype=bool)
    steps = [
        _reduction(np.minimum, hood, entries, pooled[: lo * n], 0, lo),
        _reduction(np.maximum, hood, entries, pooled[lo * n :], lo, k),
        _reduction(np.logical_or, hood, equal, propagated[: mm * n], 0, mm),
        _reduction(np.logical_and, hood, marks, propagated[mm * n :], mm, k),
    ]
    pools, tests = [s for s in steps[:2] if s], [s for s in steps[2:] if s]
    # Each entry's pooled value: broadcast on the padded layout, else gathered.
    attained = pooled if layout.ndim == 2 else np.empty(entries.shape)
    owners = (hood.owner + n * np.arange(k)[:, None]).ravel()
    prev_rows, own_rows = stack[:r_n], stack[r_n : r_n + n]
    prev_flags, own_flags = flags[:r_n], flags[r_n : r_n + n]
    hi, norm = pooled[mm * n :], norm_plan(pooled)
    # Flag work is skipped while no input is flagged, as it would flag
    # nothing; after the first global flag it runs every round.
    pi_flagged, mu_flagged = clamped_pi.any(axis=(1, 2)).tolist(), False
    walk = zip(
        log_mu, clamped_mu, log_pi[1:], clamped_pi[1:], pi_flagged[1:],
        log_mu[1:], clamped_mu[1:],
    )
    for mu_prev, mu_prev_flags, pi, pi_flags, pi_any, mu, mu_flags in walk:
        prev_rows[...] = mu_prev
        own_rows[...] = pi
        stack.take(flat, 0, gathered, "clip")
        for pool in pools:
            pool()
        any_flag = mu_flagged or pi_any
        if any_flag:
            prev_flags[...] = mu_prev_flags
            own_flags[...] = pi_flags
            flags.take(grid, 0, marks, "clip")
            # A pooled value a flagged input attains is a floor artifact,
            # even where normalization lifts it above LOG_FLOOR.
            if layout.ndim == 1:
                pooled.take(owners, 0, attained, "clip")
            np.logical_and(np.equal(entries, attained, out=equal), marks, out=equal)
            for test in tests:
                test()
        if mm < k:
            hi.take(hood.owner, 0, spread, "clip")
            np.exp(np.subtract(csr, spread, out=spread), out=spread)
            np.add.reduceat(spread, hood.starts, axis=0, out=total)
            np.add(hi, np.log(total, out=total), out=hi)
            np.subtract(hi, hood.log_size, out=hi)
        norm(mu, mu_flags)
        if any_flag:
            mu_flags |= propagated
        if not mu_flagged:
            mu_flagged = np.count_nonzero(mu_flags) > 0
    spans = {rule: slice(b * n, b * n + n) for b, rule in enumerate(order)}
    return [(log_mu[:, spans[rule]], clamped_mu[:, spans[rule]]) for rule in rules]
