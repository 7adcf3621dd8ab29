"""Agent communication graph: construction, connectivity, random generation,
loading from an edge-list file.

A graph is stored only as its inclusive neighborhoods, each agent's sorted
tuple of itself and its neighbors, which is what the global belief update
pools over.  Graphs are undirected and have no self-loops, so a graph over
n agents and |E| edges holds O(n + |E|) integers.
"""

from __future__ import annotations

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
        and both orientations of an edge count once, self-loops are dropped."""
        n = int(n)
        if n < 1:
            raise ParseError(f"graph must have at least 1 vertex, got {n}")
        hoods = [{i} for i in range(n)]
        for e in edges:
            try:
                u, v = (int(e[0]), int(e[1]))
            except (TypeError, ValueError, IndexError):
                raise ParseError(f"bad edge {e!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u}, {v}) out of range for n={n}")
            hoods[u].add(v)
            hoods[v].add(u)
        return cls(n=n, neighborhoods=tuple(tuple(sorted(h)) for h in hoods))

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (i, j) with i < j, in row-major order."""
        return [
            (i, j) for i, hood in enumerate(self.neighborhoods) for j in hood if j > i
        ]


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
        g = AgentGraph.from_edges(
            n, zip(iu[0][draws].tolist(), iu[1][draws].tolist())
        )
        if is_connected(g):
            return g
    raise RetriesExhausted(
        f"no connected graph after {max_retries} draws of G({n}, {p})"
    )


def read_edge_list(path) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and edges of an edge-list file: first line n, then
    one `u v` pair per line, `#` comments and blank lines allowed."""
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"graph file {path} is empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"{path}:1: first line must be the vertex count") from None
    edges = []
    for lineno, ln in enumerate(lines[1:], start=2):
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
