"""World model: class/input/likelihood validation and observation sampling."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from myopic_crowd.errors import (
    ConfigError,
    DimensionMismatch,
    RowNotStochastic,
    UnknownClass,
)
from myopic_crowd.world import (
    EPS,
    build_world,
    load_world,
    world_from_dict,
    world_to_dict,
)

from myopic_crowd.config import config_from_dict
from myopic_crowd.sim import run_experiment

from conftest import W3_CLASSES, W3_ROWS, W3_SYMBOLS, W3_TRUE, make_w3_config
from oracles import save_world


def test_w3_fixture_builds(w3_world):
    assert w3_world.m == 3
    assert w3_world.classes.labels == tuple(W3_CLASSES)
    assert w3_world.inputs.symbols == tuple(W3_SYMBOLS)
    assert w3_world.true_class == 0
    np.testing.assert_allclose(w3_world.likelihoods.rows, W3_ROWS)


def test_true_row_is_generating_row(w3_world):
    np.testing.assert_array_equal(w3_world.true_row(), w3_world.likelihoods.rows[0])


def test_row_not_stochastic_rejected():
    with pytest.raises(RowNotStochastic):
        build_world(["t0", "t1"], ["a", "b"], [[0.7, 0.2], [0.5, 0.5]], "t0")


def test_single_class_rejected():
    with pytest.raises(DimensionMismatch):
        build_world(["only"], ["a", "b"], [[0.5, 0.5]], "only")


def test_duplicate_labels_rejected():
    with pytest.raises(DimensionMismatch):
        build_world(["t0", "t0"], ["a", "b"], [[0.5, 0.5], [0.5, 0.5]], "t0")


def test_duplicate_symbols_rejected():
    with pytest.raises(DimensionMismatch):
        build_world(["t0", "t1"], ["a", "a"], [[0.5, 0.5], [0.5, 0.5]], "t0")


def test_unknown_true_class_rejected():
    with pytest.raises(UnknownClass):
        build_world(["t0", "t1"], ["a", "b"], [[0.5, 0.5], [0.5, 0.5]], "t9")


def test_mismatched_table_shape_rejected():
    with pytest.raises(DimensionMismatch):
        build_world(["t0", "t1"], ["a", "b"], [[0.5, 0.5]], "t0")


def test_index_lookups(w3_world):
    assert w3_world.classes.index("theta2") == 2
    with pytest.raises(UnknownClass):
        w3_world.classes.index("nope")


def test_row_within_tolerance_renormalized():
    off = 1.0 + 5e-10
    world = build_world(
        ["t0", "t1"], ["a", "b"], [[0.5 * off, 0.5 * off], [0.5, 0.5]], "t0"
    )
    np.testing.assert_allclose(world.likelihoods.rows[0].sum(), 1.0, atol=1e-15)


def test_zero_entries_floored_positive():
    world = build_world(["t0", "t1"], ["a", "b"], [[1.0, 0.0], [0.5, 0.5]], "t0")
    row = world.likelihoods.rows[0]
    assert row.min() >= EPS * 0.5
    assert abs(row.sum() - 1.0) < 1e-12


def test_likelihoods_are_readonly(w3_world):
    with pytest.raises(ValueError):
        w3_world.likelihoods.rows[0, 0] = 0.9


# -- observation sampling -------------------------------------------------

def _draws(horizon: int, seed: int = 7) -> np.ndarray:
    """Symbol indices a local-only w3 run draws, (rounds, agents)."""
    config = make_w3_config(horizon=horizon, seed=seed, local_only=True)
    return run_experiment(config).observations


def test_sampling_deterministic():
    # The same seed replays the identical streams; another seed does not.
    draws = _draws(50, seed=5)
    np.testing.assert_array_equal(draws, _draws(50, seed=5))
    assert not np.array_equal(draws, _draws(50, seed=6))
    assert set(np.unique(draws)) <= {0, 1}


def test_empirical_frequency_matches_true_row():
    draws = _draws(40_000)
    # Each agent's stream, and all of them together, follow the true row.
    assert np.all(np.abs((draws == 0).mean(axis=0) - 0.8) < 0.01)
    assert abs((draws == 0).mean() - 0.8) < 0.01


def test_sampling_chi_square():
    draws = _draws(40_000).ravel()
    n = draws.size
    observed = [np.count_nonzero(draws == 0), np.count_nonzero(draws == 1)]
    result = stats.chisquare(observed, [0.8 * n, 0.2 * n])
    assert result.pvalue >= 0.01


def test_degenerate_row_always_same_symbol():
    doc = {
        "world": {
            "classes": ["t0", "t1"],
            "inputs": ["a", "b"],
            "likelihoods": [[1.0, 0.0], [0.5, 0.5]],
            "true_class": "t0",
        },
        "agents": [{"id": 0, "classes": ["t0", "t1"]}],
        "graph": {"type": "edges", "n": 1, "edges": []},
        "horizon": 1000,
    }
    assert np.all(run_experiment(config_from_dict(doc)).observations == 0)


# -- serialization --------------------------------------------------------

def test_dict_round_trip(w3_world):
    doc = world_to_dict(w3_world)
    clone = world_from_dict(doc)
    assert clone.classes.labels == w3_world.classes.labels
    assert clone.true_class == w3_world.true_class
    np.testing.assert_array_equal(clone.likelihoods.rows, w3_world.likelihoods.rows)


def test_file_round_trip(w3_world, tmp_path):
    path = tmp_path / "world.json"
    save_world(w3_world, path)
    clone = load_world(path)
    np.testing.assert_array_equal(clone.likelihoods.rows, w3_world.likelihoods.rows)
    # The file is ordinary JSON.
    json.loads(path.read_text())


def test_malformed_world_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_world(path)


def test_world_dict_missing_key():
    with pytest.raises(ConfigError):
        world_from_dict({"classes": ["t0", "t1"]})


# -- properties -----------------------------------------------------------

@given(
    rows=st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
        min_size=2,
        max_size=4,
    ).filter(lambda rs: len({len(r) for r in rs}) == 1)
)
def test_rows_stochastic_after_build(rows):
    normed = [[v / sum(r) for v in r] for r in rows]
    labels = [f"t{i}" for i in range(len(rows))]
    symbols = [f"x{i}" for i in range(len(rows[0]))]
    world = build_world(labels, symbols, normed, labels[0])
    sums = world.likelihoods.rows.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    assert world.likelihoods.rows.min() > 0
