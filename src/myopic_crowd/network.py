"""Agent communication graph: construction, connectivity, random generation,
loading from an edge-list file.

A graph is stored only as its inclusive neighborhoods, each agent's sorted
tuple of itself and its neighbors, which is what the global belief update
pools over.  Graphs are undirected and have no self-loops, so a graph over
n agents and |E| edges holds O(n + |E|) integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    ParseError,
    RetriesExhausted,
)


@dataclass(frozen=True, eq=False)
class AgentGraph:
    """Undirected graph over n agents; ``neighborhoods[i]`` is the sorted
    tuple of agent i and its neighbors."""

    n: int
    neighborhoods: tuple[tuple[int, ...], ...]

    @classmethod
    def from_adjacency(cls, adjacency) -> "AgentGraph":
        """The graph of a square, symmetric matrix; the diagonal is ignored."""
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise DimensionMismatch(
                f"adjacency must be square and nonempty, got shape {adj.shape}"
            )
        adj = adj.astype(bool)
        if not np.array_equal(adj, adj.T):
            raise AsymmetricInput("adjacency matrix must be symmetric")
        return cls.from_edges(adj.shape[0], np.argwhere(np.triu(adj, 1)).tolist())

    @classmethod
    def from_edges(cls, n: int, edges) -> "AgentGraph":
        """The graph on n vertices with the given (u, v) pairs; duplicates
        and both orientations of an edge count once, self-loops are dropped.
        An (E, 2) signed int array is checked at once, anything else an
        edge at a time; the neighborhoods come from one sorted array."""
        try:
            n = _index(n)
        except TypeError:
            raise ParseError(f"vertex count must be an integer, got {n!r}") from None
        if n < 1:
            raise ParseError(f"graph must have at least 1 vertex, got {n}")
        array = isinstance(edges, np.ndarray) and edges.dtype.kind == "i"
        if not (array and edges.shape[1:] == (2,)):
            pairs = []
            for e in edges:
                try:
                    u, v = _index(e[0]), _index(e[1])
                except (TypeError, IndexError):
                    raise ParseError(f"bad edge {e!r}") from None
                if not (0 <= u < n and 0 <= v < n):
                    raise ParseError(f"edge ({u}, {v}) out of range for n={n}")
                pairs += (u, v)
            edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        outside = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
        if outside.size:
            u, v = edges[outside[0]].tolist()
            raise ParseError(f"edge ({u}, {v}) out of range for n={n}")
        u, v = edges.astype(np.int64).T
        keys = np.concatenate((u * n + v, v * n + u, np.arange(n) * (n + 1)))
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) > 0]
        ends = np.cumsum(np.bincount(keys // n, minlength=n)).tolist()
        flat = (keys % n).tolist()
        return cls(n, tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends)))

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (i, j) with i < j, in row-major order."""
        return [
            (i, j) for i, hood in enumerate(self.neighborhoods) for j in hood if j > i
        ]


def _index(v) -> int:
    """An integer of any type but bool, as an int; never truncated or parsed."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not a vertex")
    return operator.index(v)


def is_connected(g: AgentGraph) -> bool:
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    while stack:
        for v in g.neighborhoods[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def erdos_renyi_connected(
    n: int, p: float, rng: np.random.Generator, max_retries: int = 1000
) -> AgentGraph:
    """Erdős–Rényi G(n, p) conditioned on connectivity by rejection sampling.

    Each unordered pair is joined independently with probability p; the draw
    is repeated until the graph is connected, which preserves the ER
    distribution conditioned on connectivity.  Deterministic given the rng.
    """
    n = int(n)
    if n < 1:
        raise DimensionMismatch(f"need at least 1 agent, got {n}")
    if not 0.0 < p <= 1.0:
        raise DimensionMismatch(f"edge probability must be in (0, 1], got {p}")
    iu = np.triu_indices(n, 1)
    for _ in range(int(max_retries)):
        draws = rng.random(iu[0].size) < p
        g = AgentGraph.from_edges(n, np.column_stack((iu[0][draws], iu[1][draws])))
        if is_connected(g):
            return g
    raise RetriesExhausted(
        f"no connected graph after {max_retries} draws of G({n}, {p})"
    )


def read_edge_list(path) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and edges of an edge-list file: first line n, then
    one `u v` pair per line, `#` comments and blank lines allowed.  A
    :class:`ParseError` names the file's line, counting every line."""
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot decode graph file {path}: {e}") from None
    numbered = enumerate((ln.strip() for ln in text.splitlines()), 1)
    lines = [(lineno, ln) for lineno, ln in numbered if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"graph file {path} is empty")
    first, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(
            f"{path}:{first}: first line must be the vertex count"
        ) from None
    edges = []
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: vertex ids must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"{path}:{lineno}: edge ({u}, {v}) out of range")
        edges.append((u, v))
    return n, edges


def load_graph(path) -> AgentGraph:
    """The graph of an edge-list file (see :func:`read_edge_list`).

    Duplicate edges are deduplicated and self-loops dropped.  The result may
    be disconnected; the experiment pipeline rejects disconnected graphs.
    """
    return AgentGraph.from_edges(*read_edge_list(path))
