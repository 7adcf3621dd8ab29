"""Agent graphs: construction, connectivity, diameter, random generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
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
    load_graph,
)
from oracles import complete_graph, diameter, path_graph, save_graph


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
    np.testing.assert_array_equal(g1.adjacency, g2.adjacency)
    assert is_connected(g1)
    assert g1.n == 9


def test_er_different_seeds_differ():
    g1 = erdos_renyi_connected(9, 0.5, np.random.default_rng(1))
    g2 = erdos_renyi_connected(9, 0.5, np.random.default_rng(2))
    assert not np.array_equal(g1.adjacency, g2.adjacency)


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
    np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
    assert not g.adjacency.diagonal().any()


# -- file format ----------------------------------------------------------

def test_graph_file_round_trip(tmp_path):
    g = path_graph(3)
    path = tmp_path / "graph.txt"
    save_graph(g, path)
    clone = load_graph(path)
    np.testing.assert_array_equal(clone.adjacency, g.adjacency)


def test_load_graph_parses_expected_format(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3\n0 1\n1 2\n")
    g = load_graph(path)
    assert g.edges() == [(0, 1), (1, 2)]


def test_load_graph_allows_comments_and_dedupes(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3\n# path\n0 1\n1 0\n1 2\n")
    g = load_graph(path)
    assert g.edges() == [(0, 1), (1, 2)]


def test_load_graph_disconnected_is_loadable(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2\n")
    g = load_graph(path)
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
        load_graph(path)
