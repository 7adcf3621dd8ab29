"""``tools/bench_pairs.py``, paired benchmark runs of two checkouts, on stub
checkouts whose ``bench/run.py`` prints a canned result."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "bench_pairs.py"

#: A stub ``bench/run.py`` that logs its checkout and seed: ``wall_s`` is BASE
#: plus the seed's last digit, and 5 more for seed 13; ``output_mb`` is fixed.
STUB = """\
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--trace"] == "0" and args["--workload"] == "w" and args["--seconds"] == "2"
seed = int(args["--seed"])
with open("../calls.txt", "a") as f:
    f.write(os.path.basename(os.getcwd()) + ":" + str(seed) + "\\n")
wall = BASE + seed % 10 + (5 if seed == 13 else 0)
print("# a human-readable line")
print(json.dumps({"correct": FAILED == 0, "attempted": 4, "failed": FAILED, "metrics": {
    "wall_s": {"value": wall, "unit": "s"},
    "output_mb": {"value": 2.0, "unit": "MB"},
}}))
"""


def _checkout(root: Path, base: float, failed: int = 0) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "src" / "module.py").write_text("VALUE = 1\n")
    stub = STUB.replace("BASE", repr(base)).replace("FAILED", str(failed))
    (root / "bench" / "run.py").write_text(stub)
    return root


def _run(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, argv)], capture_output=True, text=True
    )


def test_pairs_alternate_and_report_each_metric(tmp_path):
    parent = _checkout(tmp_path / "parent", 10.0)
    change = _checkout(tmp_path / "change", 9.0, failed=1)
    done = _run(parent, change, "--workload", "w", "--seeds", "11..14", "--seconds", 2)
    assert done.returncode == 0, done.stderr
    # Both src trees were byte-compiled; each seed ran once on each side,
    # the two sides taking turns to go first.
    for root in (parent, change):
        assert list((root / "src" / "__pycache__").glob("module.*.pyc"))
    assert (tmp_path / "calls.txt").read_text().split() == [
        "parent:11", "change:11", "change:12", "parent:12",
        "parent:13", "change:13", "change:14", "parent:14",
    ]
    lines = done.stdout.splitlines()
    assert lines[0].startswith("w: 4 pairs")
    wall = next(line for line in lines if line.startswith("wall_s")).split()
    # Parent walls 11, 12, 18, 14 (median 13); change 10, 11, 17, 13 (12).
    assert wall[1:4] == ["13", "12", "-7.7%"]
    assert wall[4:7] == ["4", "of", "4"]
    # Quartiles of 11, 12, 14, 18 (exclusive method): 11.25 and 17.
    assert wall[7] == "5.75"
    assert wall[8:] == ["0/4", "s"]
    output = next(line for line in lines if line.startswith("output_mb")).split()
    assert output[1:7] == ["2", "2", "+0.0%", "0", "of", "4"]


def test_a_run_that_fails_stops_the_pairs(tmp_path):
    parent = _checkout(tmp_path / "parent", 10.0)
    change = _checkout(tmp_path / "change", 9.0)
    (change / "bench" / "run.py").write_text("import sys\nsys.exit('broken')\n")
    done = _run(parent, change, "--workload", "w", "--seeds", "7", "--seconds", 2)
    assert done.returncode == 1
    assert "seed 7: exit 1" in done.stderr and "broken" in done.stderr
    assert done.stdout == ""
