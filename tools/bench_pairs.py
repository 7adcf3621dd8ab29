"""Compare two checkouts on one benchmark workload, in alternating runs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seeds A..B --seconds S

``PARENT`` and ``CHANGE`` are checkout roots, each holding ``src/`` and
``bench/run.py``.  Both ``src/`` trees are byte-compiled first, so neither
side's first run pays for it.  Then, for each seed from A through B, both
checkouts run ``bench/run.py --workload W --seed N --seconds S --trace 0``
from their own root, the parent first at the first seed and the two sides
taking turns to go first after that; a pair shares its seed.

For every end-to-end metric of the results the script prints both medians,
the change's median as a percent of the parent's, in how many pairs the
change's value was lower, the interquartile range of the parent's values and
the failed operations on each side.  A run that exits nonzero or prints no
JSON result counts as failed and stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> range:
    """``"A..B"`` as the seeds A through B; a lone ``"A"`` is one seed."""
    first, _, last = text.partition("..")
    return range(int(first), int(last or first) + 1)


def bench_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result (the last stdout line) of one run of ``root``'s
    ``bench/run.py``; raises :class:`RuntimeError` if the run fails."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(
        [sys.executable, "bench/run.py", *argv, "--trace", "0"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{root} seed {seed}: exit {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def table(pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per end-to-end metric of ``pairs`` of (parent, change) results."""
    failed = [sum(result["failed"] for result in side) for side in zip(*pairs)]
    lines = [
        f"{'metric':<12} {'parent':>10} {'change':>10} {'change%':>8} "
        f"{'lower':>9} {'parent IQR':>10} {'failed':>7}"
    ]
    for name, metric in pairs[0][0]["metrics"].items():
        a = [p["metrics"][name]["value"] for p, _ in pairs]
        b = [c["metrics"][name]["value"] for _, c in pairs]
        mid_a, mid_b = statistics.median(a), statistics.median(b)
        change = 100.0 * (mid_b - mid_a) / mid_a if mid_a else 0.0
        lower = sum(y < x for x, y in zip(a, b))
        lines.append(
            f"{name:<12} {mid_a:>10.4g} {mid_b:>10.4g} {change:>+7.1f}% "
            f"{f'{lower} of {len(pairs)}':>9} {iqr(a):>10.3g} "
            f"{f'{failed[0]}/{failed[1]}':>7}  {metric['unit']}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A..B")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    for root in roots:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True
        )
    pairs = []
    try:
        for i, seed in enumerate(args.seeds):
            pair = [{}, {}]
            for side in (i % 2, 1 - i % 2):
                pair[side] = bench_run(roots[side], args.workload, seed, args.seconds)
            pairs.append(tuple(pair))
            print(f"# seed {seed} done", file=sys.stderr)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(pairs)} pairs, parent {roots[0]}, change {roots[1]}")
    print("\n".join(table(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
