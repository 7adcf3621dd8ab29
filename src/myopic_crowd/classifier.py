"""Agent classifiers and the posterior sources built from them.

An agent's classifier (:class:`AgentScope`) is its scope Θ_i ⊆ Θ, a prior
over it, an optional private likelihood table, a noise level γ and its
source: its posterior table (``bayes`` or ``noisy``) or a recorded stream
(``replay``).  :func:`posterior_tables` turns classifiers, a group at a time,
into each agent's one posterior table, a row per input symbol: the Bayes
posterior, mixed with uniform when γ > 0.  The dynamics read its rows by the
drawn symbols (``per_symbol``) and the score engine its log-ratios.  A replay
source instead holds recorded posterior vectors, one per round (``vectors``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    ParseError,
    RowNotStochastic,
    ScopeMismatch,
    UnknownClass,
)
from .formats import csv_cell
from .world import EPS, ROW_TOL, LikelihoodTable, World, _readonly


@dataclass(frozen=True, eq=False)
class AgentScope:
    """An agent's classifier: its identifiable class subset Θ_i, its prior
    (every entry at least :data:`EPS`), an optional private likelihood table
    overriding the shared world's, its noise level γ ∈ [0, 1), above 0 only
    for a noisy source, its source kind as declared (``bayes``, ``noisy`` or
    ``replay``) and, for a replay agent only, the path of its recorded stream."""

    agent_id: int
    theta_i: tuple[int, ...]
    prior: np.ndarray
    likelihoods: LikelihoodTable | None = None
    gamma: float = 0.0
    source: str = "bayes"
    replay_path: str | None = None

    def __post_init__(self) -> None:
        theta = tuple(map(int, self.theta_i))
        if len(theta) == 0:
            raise ScopeMismatch("agent scope must contain at least one class")
        if len(set(theta)) != len(theta) or min(theta) < 0:
            raise ScopeMismatch(f"invalid class indices in scope: {theta}")
        object.__setattr__(self, "theta_i", theta)
        prior = np.array(self.prior, dtype=float)
        if prior.shape != (len(theta),):
            raise DimensionMismatch(
                f"prior has {prior.size} entries for {len(theta)} scope classes"
            )
        # Python floats: a NaN makes the sum NaN, whatever min and max say.
        values = prior.tolist()
        total = sum(values)
        if not (EPS <= min(values) and max(values) <= 1 and total == total):
            raise ConfigError(
                f"agent {self.agent_id}: prior entries must lie in [{EPS}, 1], "
                f"got {values}"
            )
        if abs(total - 1.0) > ROW_TOL:
            raise RowNotStochastic(f"prior sums to {total!r}, expected 1")
        gamma = float(self.gamma)
        if not 0.0 <= gamma < 1.0:
            raise ConfigError(
                f"agent {self.agent_id}: noise level gamma must be in [0, 1), "
                f"got {gamma}"
            )
        if self.source not in (("noisy",) if gamma else ("bayes", "noisy", "replay")):
            raise ConfigError(
                f"agent {self.agent_id}: source {self.source!r} with gamma {gamma}; "
                "the source is bayes, noisy or replay, and only noisy takes gamma > 0"
            )
        if (self.source == "replay") != (self.replay_path is not None):
            raise ConfigError(
                f"agent {self.agent_id}: a replay source needs a path and no other "
                f"source takes one (source {self.source!r}, path {self.replay_path!r})"
            )
        prior.flags.writeable = False
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "gamma", gamma)

    @property
    def size(self) -> int:
        return len(self.theta_i)

    def contains(self, theta: int) -> bool:
        return theta in self.theta_i


def make_scope(
    world: World,
    agent_id: int,
    classes,
    prior=None,
    likelihoods=None,
    gamma=0.0,
    source="bayes",
    replay_path=None,
) -> AgentScope:
    """Build a validated scope against a world.

    ``classes`` may contain labels or indices; ``prior`` defaults to uniform
    over the scope; ``likelihoods`` optionally overrides the world table and
    must have the world's full dimensions; ``gamma``, ``source`` and
    ``replay_path`` are as in :class:`AgentScope`.
    """
    index, m = world.classes.index, world.m
    theta = tuple([index(c) if isinstance(c, str) else int(c) for c in classes])
    outside = [t for t in theta if not 0 <= t < m]
    if outside:
        raise UnknownClass(f"class index {outside[0]} out of range for agent {agent_id}")
    if not theta:
        raise ScopeMismatch(f"agent {agent_id}'s scope must contain a class")
    if prior is None:
        prior = [1.0 / len(theta)] * len(theta)
    if likelihoods is not None and not isinstance(likelihoods, LikelihoodTable):
        likelihoods = LikelihoodTable(np.asarray(likelihoods, dtype=float))
    if likelihoods is not None and (
        likelihoods.m != m or likelihoods.n_symbols != world.inputs.size
    ):
        raise DimensionMismatch(
            f"agent {agent_id} likelihood override must match the world's "
            f"{m} x {world.inputs.size} table"
        )
    return AgentScope(
        int(agent_id), theta, prior, likelihoods, gamma, source, replay_path
    )


def posterior_tables(world: World, scopes) -> Iterator[tuple[list[int], np.ndarray]]:
    """Yield (positions, tables) per group of ``scopes`` sharing a scope size
    k, an override or not and γ > 0 or not; ``tables[j]``, read-only (|X|, k),
    is agent ``scopes[positions[j]]``'s table, a row per symbol.

    Row x is the Bayes posterior p_i(θ|x) ∝ p_i(x|θ)·p_i(θ), floored at
    :data:`EPS` and normalized; when γ > 0 it is then mixed with uniform,
    (1−γ)·p + γ/k, and normalized again.  Likelihoods are the agent's
    override, else the world's.  Sums run as for a lone agent, in order.
    """
    keys: dict[tuple, list[int]] = {}
    for i, s in enumerate(scopes):
        keys.setdefault((s.size, s.likelihoods is None, s.gamma > 0.0), []).append(i)
    for (k, shared, noisy), members in keys.items():
        group = [scopes[i] for i in members]
        classes = np.array([s.theta_i for s in group])
        if shared:
            lik = world.likelihoods.rows[classes]
        else:
            rows = np.stack([s.likelihoods.rows for s in group])
            lik = rows[np.arange(len(group))[:, None], classes]
        unnorm = lik * np.array([s.prior for s in group])[:, :, None]
        post = (unnorm / unnorm.sum(axis=1, keepdims=True)).transpose(0, 2, 1)
        post = np.maximum(post, EPS)
        post = post / post.sum(axis=2, keepdims=True)
        if noisy:
            gamma = np.array([s.gamma for s in group])[:, None, None]
            post = (1.0 - gamma) * post + gamma / k
            post = post / post.sum(axis=2, keepdims=True)
        post.flags.writeable = False
        yield members, post


class BayesOracle:
    """Table source: ``per_symbol[x]`` is the posterior the agent emits on
    symbol x, one row of its table (:func:`posterior_tables`)."""

    def __init__(self, per_symbol: np.ndarray):
        self.per_symbol = per_symbol


class NoisySource(BayesOracle):
    """Table source of an agent with γ > 0; it holds the same table."""

    __init__ = BayesOracle.__init__


class ReplaySource:
    """Recorded posterior vectors, all checked, the first ``rounds`` kept
    (all if None): ``vectors[t - 1]`` feeds round t; ``length`` counts all.

    Unlike the oracle sources a replay source ignores the observed symbol: the
    vector for round t is whatever the recorded classifier emitted then.
    """

    def __init__(self, scope: AgentScope, vectors: np.ndarray, rounds=None):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != scope.size:
            raise DimensionMismatch(
                f"replay vectors must be (rounds, {scope.size}), got {vectors.shape}"
            )
        if not np.all((vectors >= 0) & (vectors <= 1)):
            raise RowNotStochastic("replay entries must lie in [0, 1]")
        sums = vectors.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_TOL)[0]
        if bad.size:
            raise RowNotStochastic(
                f"replay vector for round {bad[0] + 1} sums to {sums[bad[0]]!r}"
            )
        # Floor only rows that need it so clean recorded streams replay
        # bit-identically.
        low = np.any(vectors < EPS, axis=1)
        if np.any(low):
            vectors = vectors.copy()
            patched = np.maximum(vectors[low], EPS)
            vectors[low] = patched / patched.sum(axis=1, keepdims=True)
        self.length = len(vectors)
        self.vectors = _readonly(vectors[:rounds])


# -- replay CSV -----------------------------------------------------------
#
# Format: header `round,agent_id,<class label>...` with one column per class
# label used by any agent; each data row fills only the labels in that
# agent's scope and leaves other cells empty.

def write_replay_csv(path, world: World, scopes, streams) -> None:
    """Write each agent's recorded posteriors as a replay stream.

    ``streams[i]`` is agent ``scopes[i]``'s posteriors as ``(rows, index)``,
    row ``index[t-1]`` emitted in round t; lines go round by round, agent by
    agent.  Every probability is written as its ``repr``; lines end in CRLF
    and labels are quoted, as ``csv.writer`` writes them.  Each agent's line
    after the round number is formatted once per row and gathered by
    ``index``.
    """
    labels = world.classes.labels
    if len(streams) != len(scopes) or any(
        np.shape(rows)[1:] != (scope.size,) or len(index) != len(streams[0][1])
        for (rows, index), scope in zip(streams, scopes)
    ):
        raise DimensionMismatch(
            "replay streams must be one (rows, index) pair per scope, rows of "
            "its scope size, every index of the same number of rounds"
        )
    lines = []
    for scope, (rows, index) in zip(scopes, streams):
        # Field j is the scope's j-th class.
        cells = [""] * len(labels)
        for j, theta in enumerate(scope.theta_i):
            cells[theta] = f"{{{j}}}"
        fmt = (f",{scope.agent_id}," + ",".join(cells) + "\r\n").format
        texts = [fmt(*row) for row in np.asarray(rows, dtype=float).tolist()]
        lines.append(np.array(texts, dtype=object)[index].tolist())
    with open(path, "w", newline="") as f:
        f.write(",".join(["round", "agent_id", *map(csv_cell, labels)]) + "\r\n")
        for t, texts in enumerate(zip(*lines), start=1):
            # Every line of the round starts with its number.
            f.write(str(t) + str(t).join(texts))


def _decoded_lines(f, path):
    """The lines of ``f``; undecodable bytes raise a ParseError naming ``path``."""
    try:
        yield from f
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot decode replay file {path}: {e}") from None


def load_replay_csv(path, world: World) -> tuple[list[str], dict[int, np.ndarray]]:
    """Parse a replay CSV into its header labels and {agent_id: matrix}.

    Each matrix is (rounds × labels) in header label order; cells outside an
    agent's scope are NaN.  Use :func:`replay_source` to project onto a
    scope.
    """
    path = Path(path)
    per_agent: dict[int, dict[int, list[float]]] = {}
    with open(path, newline="") as f:
        reader = csv.reader(_decoded_lines(f, path))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"replay file {path} is empty") from None
        if len(header) < 3 or header[0] != "round" or header[1] != "agent_id":
            raise ParseError(
                f"replay file {path} must start with header 'round,agent_id,<labels>'"
            )
        labels = header[2:]
        unknown = [lab for lab in labels if lab not in world.classes.labels]
        if unknown:
            raise ParseError(f"replay file {path} has unknown class columns {unknown}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells")
            try:
                rnd = int(row[0])
                agent_id = int(row[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad round or agent_id") from None
            if rnd < 1:
                raise ParseError(f"{path}:{lineno}: rounds are 1-based")
            cells = []
            for lab, cell in zip(labels, row[2:]):
                cell = cell.strip()
                if cell == "":
                    cells.append(float("nan"))
                else:
                    try:
                        cells.append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"{path}:{lineno}: bad probability {cell!r} for {lab}"
                        ) from None
            rounds = per_agent.setdefault(agent_id, {})
            if rnd in rounds:
                raise ParseError(f"{path}:{lineno}: duplicate round {rnd}")
            rounds[rnd] = cells
    out: dict[int, np.ndarray] = {}
    for agent_id, rounds in per_agent.items():
        expected = set(range(1, len(rounds) + 1))
        if set(rounds) != expected:
            raise ParseError(
                f"replay file {path}: agent {agent_id} rounds are not "
                f"contiguous from 1"
            )
        out[agent_id] = np.array(
            [rounds[r] for r in range(1, len(rounds) + 1)], dtype=float
        )
    return labels, out


def replay_source_from_csv(path, world: World, scope: AgentScope) -> ReplaySource:
    """Build one agent's replay source from a recorded CSV stream."""
    return replay_source(path, *load_replay_csv(path, world), world, scope)


def replay_source(path, labels, table, world: World, scope: AgentScope, rounds=None):
    """One agent's :class:`ReplaySource`, projected from a parsed replay file
    (:func:`load_replay_csv`); ``path`` names the file in errors."""
    if scope.agent_id not in table:
        raise ParseError(f"replay file {path} has no rows for agent {scope.agent_id}")
    cols = []
    for t in scope.theta_i:
        lab = world.classes.labels[t]
        if lab not in labels:
            raise ParseError(f"replay file {path} lacks a column for class {lab!r}")
        cols.append(labels.index(lab))
    vectors = table[scope.agent_id][:, cols]
    if np.any(np.isnan(vectors)):
        raise ParseError(
            f"replay file {path}: empty cells inside agent "
            f"{scope.agent_id}'s scope"
        )
    return ReplaySource(scope, vectors, rounds)
