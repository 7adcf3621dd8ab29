"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from its ``src``.
The seed generates the workload's inputs; every measurement happens in a
fresh child process (``child.py``) with single-threaded BLAS.  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced run.  Human-readable lines come first; the
last stdout line is the JSON result.  ``--workload all`` runs every workload
in turn and ends with one JSON object keyed by workload.

Generated inputs and command outputs live in a temporary directory under
``.bench_work/`` that is removed when the run ends.  A traced run writes the
spans of its last traced repetition to ``.bench_spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from calibrate import REFERENCE_S
from tracing import UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_spans"

#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_RUNS = 5

#: End-to-end metrics and their units.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}

#: Per-layer metric reported beside the traced run's own.
OVERHEAD = "trace.overhead_s"

#: A child that runs longer than this past its measuring time is killed.
CHILD_GRACE_S = 100


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["MYOPIC_CROWD_LOG"] = "warning"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4f}..{q3:.4f}"


def calibrated(pairs) -> list[float]:
    """Times rescaled to the reference machine's pace: each time is divided
    by the calibration kernel's time measured around it, relative to the
    kernel's reference time."""
    return [t * REFERENCE_S / kernel_s for t, kernel_s in pairs]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate, measure in fresh children, and return the result object."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        workloads.generate(name, seed, work)
        config, commands = workloads.plan(name, seed, work, ROOT)
        setups = []
        if not trace:
            for _ in range(SETUP_RUNS):
                child = run_child(["setup", str(config), str(ROOT / "src")], CHILD_GRACE_S)
                setups.append((child["setup_s"], child["kernel_s"]))
        m = run_child(
            ["measure", name, str(seed), str(work), str(seconds), str(int(trace))],
            seconds + CHILD_GRACE_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it

    print(
        f"# env: nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"python={m['python']} numpy={m['numpy']}"
    )
    print(
        f"# {name} seed={seed} trace={int(trace)}: {m['attempted']} commands, "
        f"{m['failed']} failed, error_rate={m['failed'] / m['attempted']:.4g}"
    )
    for problem in m["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    untraced = calibrated(m["reps"]["untraced"])
    raw_walls = [wall for wall, _ in m["reps"]["untraced"]]
    wall = statistics.median(untraced)
    if trace:
        traced_walls = calibrated(m["reps"]["traced"])
        layers = dict(m["layers"])
        layers[OVERHEAD] = statistics.median(traced_walls) - wall
        absent = sorted(k for k, v in layers.items() if v is None)
        metrics = {
            k: {"value": 0.0 if v is None else v, "unit": UNITS.get(k, "s")}
            for k, v in layers.items()
        }
        selfs = {k: v or 0.0 for k, v in layers.items() if k != OVERHEAD and UNITS[k] == "s"}
        print(f"# calibrated wall_s traced {_quartiles(traced_walls)}; untraced {_quartiles(untraced)}")
        print(f"# largest self time: {max(selfs, key=selfs.get)}")
        print(f"# absent (reported as 0): {', '.join(absent) or 'none'}")
        if m["missing"]:
            print(f"# wrapped names not found: {', '.join(m['missing'])}")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{name}-seed{seed}.json"
        spans_path.write_text(
            json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": m["spans"]})
        )
        print(f"# spans of the last traced repetition: {spans_path.relative_to(ROOT)}")
    else:
        setup = calibrated(setups)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": m["peak_rss_mb"],
            "output_mb": statistics.median(m["output_bytes"]) / 1e6,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"# calibrated wall_s {_quartiles(untraced)}; setup_s {_quartiles(setup)}")
        print(
            f"# raw wall_s {statistics.median(raw_walls):.4f} s ({_quartiles(raw_walls)}); "
            f"raw setup_s {statistics.median(t for t, _ in setups):.4f} s"
        )
        rounds = sum(c.agent_rounds for c in commands)
        if rounds:
            print(f"# agent_rounds_per_s {rounds / wall:.1f} 1/s (calibrated)")
    for key, metric in metrics.items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "myopic_crowd" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
