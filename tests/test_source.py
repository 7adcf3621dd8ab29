"""Static checks on the package source: imports and where decisions live."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "myopic_crowd"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, str]:
    """Each name a module binds by import, with what it imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used)
    assert unused == [], f"{path.name} imports {unused} and never uses them"


def test_cli_leaves_run_decisions_to_sim():
    # What stops a run, whether a roster has theory and whether a slope
    # meets its rate are decided in sim; the front end only reports them.
    tree = _tree(SRC / "cli.py")
    imported = set(_imported(tree).values())
    assert imported.isdisjoint(
        {
            "InsufficientSamples",
            "estimate_rejection_rate",
            "check_global_identifiability",
            "MAX_RUN_BYTES",
        }
    )
    for compare in (n for n in ast.walk(tree) if isinstance(n, ast.Compare)):
        for node in ast.walk(compare):
            assert not (isinstance(node, ast.Constant) and node.value == "replay")
            assert not (isinstance(node, ast.Name) and node.id == "RATE_SLACK")
