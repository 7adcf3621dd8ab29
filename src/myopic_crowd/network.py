"""Agent communication graph: construction, connectivity, random generation,
loading from an edge-list file.

Graphs are undirected with no stored self-loops; every agent's neighborhood
is inclusive (contains the agent itself), which is what the global belief
update pools over.
"""

from __future__ import annotations

from collections import deque
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
    """Undirected graph over n agents with precomputed inclusive neighborhoods."""

    n: int
    adjacency: np.ndarray
    neighborhoods: tuple[tuple[int, ...], ...]

    @classmethod
    def from_adjacency(cls, adjacency) -> "AgentGraph":
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise DimensionMismatch(
                f"adjacency must be square and nonempty, got shape {adj.shape}"
            )
        adj = adj.astype(bool)
        if not np.array_equal(adj, adj.T):
            raise AsymmetricInput("adjacency matrix must be symmetric")
        adj = adj.copy()
        np.fill_diagonal(adj, False)
        n = adj.shape[0]
        hoods = tuple(
            tuple(sorted({i, *np.nonzero(adj[i])[0].tolist()})) for i in range(n)
        )
        adj.flags.writeable = False
        return cls(n=n, adjacency=adj, neighborhoods=hoods)

    @classmethod
    def from_edges(cls, n: int, edges) -> "AgentGraph":
        n = int(n)
        if n < 1:
            raise ParseError(f"graph must have at least 1 vertex, got {n}")
        adj = np.zeros((n, n), dtype=bool)
        for e in edges:
            try:
                u, v = (int(e[0]), int(e[1]))
            except (TypeError, ValueError, IndexError):
                raise ParseError(f"bad edge {e!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                continue
            adj[u, v] = adj[v, u] = True
        return cls.from_adjacency(adj)

    def edges(self) -> list[tuple[int, int]]:
        iu = np.triu_indices(self.n, 1)
        present = self.adjacency[iu]
        return [
            (int(u), int(v))
            for u, v, keep in zip(iu[0], iu[1], present)
            if keep
        ]


def _bfs_dists(g: AgentGraph, start: int) -> np.ndarray:
    dist = np.full(g.n, -1, dtype=int)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in np.nonzero(g.adjacency[u])[0]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def is_connected(g: AgentGraph) -> bool:
    return bool(np.all(_bfs_dists(g, 0) >= 0))


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
        adj = np.zeros((n, n), dtype=bool)
        adj[iu] = draws
        adj |= adj.T
        g = AgentGraph.from_adjacency(adj)
        if is_connected(g):
            return g
    raise RetriesExhausted(
        f"no connected graph after {max_retries} draws of G({n}, {p})"
    )


def load_graph(path) -> AgentGraph:
    """Read an edge-list file: first line n, then one `u v` pair per line.

    Duplicate edges are deduplicated and self-loops dropped.  The result may
    be disconnected; the experiment pipeline rejects disconnected graphs.
    """
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
    return AgentGraph.from_edges(n, edges)
