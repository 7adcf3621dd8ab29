"""Agent graphs: construction, connectivity, diameter, random generation."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myopic_crowd.errors import (
    AsymmetricInput,
    DimensionMismatch,
    DisconnectedGraph,
    ParseError,
    RetriesExhausted,
)
from myopic_crowd.network import (
    AgentGraph,
    erdos_renyi_connected,
    is_connected,
    read_edge_list,
)
from oracles import (
    complete_graph,
    dense_erdos_renyi,
    diameter,
    path_graph,
    save_graph,
)


def _assert_same_graph(g1, g2):
    assert g1.n == g2.n
    assert g1.edges() == g2.edges()
    assert g1.neighborhoods == g2.neighborhoods


def _assert_well_formed(g):
    """Neighborhoods are sorted, inclusive and symmetric, and list each
    vertex once; ``edges()`` is every (i, j) with j > i among them."""
    for i, hood in enumerate(g.neighborhoods):
        assert list(hood) == sorted(set(hood))
        assert i in hood
        assert all(i in g.neighborhoods[j] for j in hood)
    assert g.edges() == [
        (i, j) for i in range(g.n) for j in g.neighborhoods[i] if j > i
    ]


def test_path_graph_shape():
    g = path_graph(3)
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]
    assert diameter(g) == 2
    assert is_connected(g)


def test_complete_graph_diameter():
    g = complete_graph(5)
    assert diameter(g) == 1
    assert len(g.edges()) == 10


def test_neighborhoods_are_inclusive():
    g = path_graph(4)
    for i in range(4):
        hood = g.neighborhoods[i]
        assert i in hood
        assert len(hood) >= 1
    assert g.neighborhoods[0] == (0, 1)
    assert g.neighborhoods[1] == (0, 1, 2)


def test_two_isolated_vertices():
    g = AgentGraph.from_edges(2, [])
    assert not is_connected(g)
    with pytest.raises(DisconnectedGraph):
        diameter(g)


def test_singleton_graph():
    g = AgentGraph.from_edges(1, [])
    assert is_connected(g)
    assert diameter(g) == 0
    assert g.neighborhoods[0] == (0,)


def test_from_edges_deduplicates_and_ignores_self_loops():
    g = AgentGraph.from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
    assert g.edges() == [(0, 1), (1, 2)]


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ParseError):
        AgentGraph.from_edges(3, [(0, 5)])
    with pytest.raises(ParseError, match=r"edge \(-1, 2\) out of range for n=3"):
        AgentGraph.from_edges(3, np.array([[0, 1], [-1, 2], [0, 7]]))
    # An endpoint or vertex count that is not an integer is refused, not
    # truncated (0.9 -> 0), read as one (True -> 1) or parsed ("2" -> 2).
    for edges in ([(0.9, 1)], [(True, 2)], [("2", "0")], [(np.float64(1.0), 2)]):
        with pytest.raises(ParseError, match="bad edge"):
            AgentGraph.from_edges(3, edges)
    for n in (3.0, True, "3"):
        with pytest.raises(ParseError, match="vertex count must be an integer"):
            AgentGraph.from_edges(n, [(0, 1)])
    # Numpy integers are integers.
    g = AgentGraph.from_edges(np.int64(3), np.array([[0, 1], [1, 2]]))
    assert g.edges() == [(0, 1), (1, 2)]


def test_from_adjacency_keeps_the_upper_triangle():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 30):
        adj = rng.random((n, n)) < 0.3
        adj |= adj.T
        np.fill_diagonal(adj, True)
        g = AgentGraph.from_adjacency(adj.astype(int))
        _assert_well_formed(g)
        assert g.edges() == [tuple(e) for e in np.argwhere(np.triu(adj, 1)).tolist()]


@st.composite
def vertex_count_and_edges(draw):
    """Up to 12 vertices and 40 pairs, duplicates, both orientations and
    self-loops included."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=40))


@settings(max_examples=200)
@given(vertex_count_and_edges())
def test_from_edges_property(graph):
    n, edges = graph
    g = AgentGraph.from_edges(n, edges)
    # An int array is checked at once instead of an edge at a time.
    array = AgentGraph.from_edges(n, np.array(edges, dtype=np.int32).reshape(-1, 2))
    assert array.neighborhoods == g.neighborhoods
    assert g.n == n
    _assert_well_formed(g)
    assert g.edges() == sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    try:
        diameter(g)
    except DisconnectedGraph:
        assert not is_connected(g)
    else:
        assert is_connected(g)


def test_ring_of_100_000_agents():
    n = 100_000
    g = AgentGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    assert is_connected(g)
    assert len(g.edges()) == n
    assert g.neighborhoods[0] == (0, 1, n - 1)


def test_from_adjacency_requires_symmetry():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True
    with pytest.raises(AsymmetricInput):
        AgentGraph.from_adjacency(adj)


def test_from_adjacency_requires_square():
    with pytest.raises(DimensionMismatch):
        AgentGraph.from_adjacency(np.zeros((2, 3), dtype=bool))


# -- random generation ----------------------------------------------------

def test_er_reproducible_bitwise():
    g1 = erdos_renyi_connected(9, 0.5, np.random.default_rng(42))
    g2 = erdos_renyi_connected(9, 0.5, np.random.default_rng(42))
    _assert_same_graph(g1, g2)
    assert is_connected(g1)
    assert g1.n == 9


def test_er_different_seeds_differ():
    g1 = erdos_renyi_connected(9, 0.5, np.random.default_rng(1))
    g2 = erdos_renyi_connected(9, 0.5, np.random.default_rng(2))
    assert g1.edges() != g2.edges()


def test_er_singleton():
    g = erdos_renyi_connected(1, 0.5, np.random.default_rng(0))
    assert g.n == 1
    assert is_connected(g)


def test_er_full_probability_is_complete():
    g = erdos_renyi_connected(4, 1.0, np.random.default_rng(0))
    assert diameter(g) == 1


def test_er_retries_exhausted():
    # Eight vertices at p = 1e-6 are essentially never connected.
    with pytest.raises(RetriesExhausted):
        erdos_renyi_connected(8, 1e-6, np.random.default_rng(0), max_retries=5)


@given(seed=st.integers(0, 10_000))
def test_er_always_connected_and_symmetric(seed):
    g = erdos_renyi_connected(6, 0.4, np.random.default_rng(seed))
    assert is_connected(g)
    _assert_well_formed(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 17, 40, 120])
@pytest.mark.parametrize("p", [0.05, 0.3, 0.7, 1.0])
def test_er_matches_the_dense_reference(n, p):
    # At p = 0.05 most small graphs never connect, so the RetriesExhausted
    # path is compared as well.
    exhausted = 0
    for seed in range(40):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = dense_erdos_renyi(n, p, ref_rng, max_retries=30)
        except RetriesExhausted:
            exhausted += 1
            with pytest.raises(RetriesExhausted):
                erdos_renyi_connected(n, p, rng, max_retries=30)
        else:
            _assert_same_graph(erdos_renyi_connected(n, p, rng, max_retries=30), want)
        # Both consumed the same draws.
        assert rng.random() == ref_rng.random()
    if (n, p) == (9, 0.05):
        assert exhausted == 40


# -- file format ----------------------------------------------------------

def test_graph_file_round_trip(tmp_path):
    g = path_graph(3)
    path = tmp_path / "graph.txt"
    save_graph(g, path)
    _assert_same_graph(AgentGraph.from_edges(*read_edge_list(path)), g)


def test_load_graph_parses_expected_format(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3\n0 1\n1 2\n")
    g = AgentGraph.from_edges(*read_edge_list(path))
    assert g.edges() == [(0, 1), (1, 2)]


def test_load_graph_allows_comments_and_dedupes(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3\n# path\n0 1\n1 0\n1 2\n")
    g = AgentGraph.from_edges(*read_edge_list(path))
    assert g.edges() == [(0, 1), (1, 2)]


def test_load_graph_disconnected_is_loadable(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2\n")
    g = AgentGraph.from_edges(*read_edge_list(path))
    assert g.n == 2
    assert not is_connected(g)


@pytest.mark.parametrize(
    "text",
    ["", "x\n0 1\n", "3\n0\n", "3\n0 b\n", "3\n0 9\n"],
)
def test_load_graph_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError):
        AgentGraph.from_edges(*read_edge_list(path))


@pytest.mark.parametrize(
    "text, where",
    [
        ("# vertices\n\nx\n0 1\n", ":3: first line must be the vertex count"),
        ("3\n# c\n\n0\n", ":4: expected 'u v', got '0'"),
        ("3\n# c\n\n0 1\n1 x\n", ":5: vertex ids must be integers"),
        ("3\n\n# c\n0 1\n\n0 9\n", ":6: edge (0, 9) out of range"),
    ],
)
def test_read_edge_list_names_the_line_in_the_file(tmp_path, text, where):
    # Comments and blank lines count: the line number is the file's own.
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(f"{path}{where}")):
        read_edge_list(path)


def test_read_edge_list_of_only_comments_is_empty(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# none\n\n")
    with pytest.raises(ParseError, match=re.escape(f"graph file {path} is empty")):
        read_edge_list(path)
