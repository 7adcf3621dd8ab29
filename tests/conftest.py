"""Shared fixtures: the three-agent reference world and config builders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from myopic_crowd.classifier import make_scope, posterior_tables
from myopic_crowd.config import config_from_dict
from myopic_crowd.world import build_world
from oracles import path_graph

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Reference fixture: three classes observable through two symbols, three
# partially informative agents on a path, every class pair covered by
# exactly one agent.
W3_CLASSES = ["theta0", "theta1", "theta2"]
W3_SYMBOLS = ["a", "b"]
W3_ROWS = [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]
W3_TRUE = "theta0"
W3_SCOPE_CLASSES = [
    ["theta0", "theta1"],
    ["theta1", "theta2"],
    ["theta0", "theta2"],
]

# Hand-summed ground truth for the fixture (natural log):
#   0.8*ln4 - 0.2*ln4, 0.8*ln2.5 + 0.2*ln0.625, 0.8*ln1.6 + 0.2*ln0.4
W3_D_A = 0.8317766166719343
W3_D_B_CONF = 0.6390318596501767
W3_D_C = 0.1927447570217576


def posterior_table(world, scope):
    """One agent's (|X|, k) posterior table, built alone by
    ``posterior_tables``."""
    [(_, [table])] = posterior_tables(world, [scope])
    return table


@pytest.fixture
def w3_world():
    return build_world(W3_CLASSES, W3_SYMBOLS, W3_ROWS, W3_TRUE)


@pytest.fixture
def w3_scopes(w3_world):
    return [
        make_scope(w3_world, i, classes)
        for i, classes in enumerate(W3_SCOPE_CLASSES)
    ]


@pytest.fixture
def w3_graph():
    return path_graph(3)


def w3_doc(**overrides) -> dict:
    """The reference experiment as a raw config document."""
    doc = {
        "world": {
            "classes": list(W3_CLASSES),
            "inputs": list(W3_SYMBOLS),
            "likelihoods": [list(r) for r in W3_ROWS],
            "true_class": W3_TRUE,
        },
        "agents": [
            {"id": i, "classes": list(classes)}
            for i, classes in enumerate(W3_SCOPE_CLASSES)
        ],
        "graph": {"type": "edges", "n": 3, "edges": [[0, 1], [1, 2]]},
        "rule": "min",
        "horizon": 500,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def spec_doc(spec, horizon: int) -> dict:
    """Experiment config for a random instance on a complete graph."""
    labels = [f"c{k}" for k in range(spec.m)]
    n = len(spec.scopes)
    return {
        "world": {
            "classes": labels,
            "inputs": [f"x{j}" for j in range(spec.n_symbols)],
            "likelihoods": [list(r) for r in spec.rows],
            "true_class": labels[spec.true_class],
        },
        "agents": [
            {"id": i, "classes": [labels[c] for c in sc], "prior": list(pr)}
            for i, sc, pr in spec.scopes
        ],
        "graph": {
            "type": "edges",
            "n": n,
            "edges": [[i, j] for i in range(n) for j in range(i + 1, n)],
        },
        "rule": "min",
        "horizon": horizon,
        "seed": 0,
    }


@pytest.fixture
def w3_config():
    return config_from_dict(w3_doc())


def make_w3_config(**overrides):
    return config_from_dict(w3_doc(**overrides))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
