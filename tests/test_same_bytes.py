"""``tools/same_bytes.py``, the byte-identity check between two source trees."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "same_bytes.py"


def _module():
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_against_itself_is_the_same():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), src, src, "--horizon", "30"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 37
    assert all(": same (exit " in line for line in lines)


def test_every_difference_is_named():
    same_bytes = _module()
    parent = (0, b"wrote <out>/a.csv\n", b"", {"a.csv": b"1", "b.json": b"{}"})
    change = (
        1, b"wrote <out>/a.csv\n", b"error: x\n", {"a.csv": b"2", "c.json": b"{}"}
    )
    assert same_bytes.differences("run", parent, change) == [
        "run: exit code 0 against 1",
        "run: stderr differs",
        "run: a.csv differs",
        "run: b.json written by the parent only",
        "run: c.json written by the change only",
    ]
    assert same_bytes.differences("run", parent, parent) == []
    assert same_bytes.with_horizon(["run", "--horizon", "9", "--seeds", "2"], 30) == [
        "run", "--seeds", "2", "--horizon", "30"
    ]


def test_a_quick_horizon_keeps_the_fused_loop_command_at_its_own():
    # At --horizon 200 one n120 run under three rules would exceed the batch
    # cap alone, and the fused m >= 8 loop would go unchecked.
    same_bytes = _module()
    listed = dict(same_bytes.commands(defaultdict(str)))
    quick = dict(same_bytes.commands(defaultdict(str), horizon=200))
    fused = quick["compare-n120-fused"]
    assert fused == listed["compare-n120-fused"]
    assert fused.count("--horizon") == 1
    assert fused[fused.index("--horizon") + 1] == "40"
    assert quick["run-w3-min"][-2:] == ["--horizon", "200"]
    assert quick["scores-w3"][-2:] == ["--horizon", "200"]
