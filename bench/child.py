"""Benchmark child process: one fresh interpreter per measurement.

Started by ``run.py`` with the checkout's ``src`` first on PYTHONPATH and
single-threaded BLAS; prints one JSON object as its last stdout line.

    child.py setup CONFIG SRC_DIR
        time the package import plus one load_config of CONFIG
    child.py measure WORKLOAD SEED WORK_DIR SECONDS TRACE
        repeat the workload's CLI commands for SECONDS, checking every
        output; with TRACE=1 alternate untraced and traced repetitions

Next to every timing the child times the calibration kernel (calibrate.py)
so that the parent can cancel the machine's drifting pace.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

#: Fewest repetitions a run makes, however long each one takes: untraced,
#: and with tracing (half of them traced).
MIN_REPETITIONS = 3
MIN_TRACED_REPETITIONS = 4


def setup(config: str, src: str) -> dict:
    start = perf_counter()
    import myopic_crowd.cli  # noqa: F401  (the import is what is timed)
    from myopic_crowd.config import load_config

    load_config(config)
    elapsed = perf_counter() - start
    where = Path(myopic_crowd.cli.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"imported {where}, not the package under {src}")
    from calibrate import kernel  # after timing: it imports numpy

    return {"setup_s": elapsed, "kernel_s": kernel()}


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_command(cli, command, work_dir: Path, devnull) -> tuple[float, int, list[str]]:
    """Time one CLI call from outside, then check what it wrote.

    ``cli.main`` is looked up at call time so that a traced run times the
    wrapped entry point.

    Returns (wall seconds, bytes written, problems); any problem makes the
    command count as failed.
    """
    out = Path(tempfile.mkdtemp(prefix="out-", dir=work_dir))
    err = io.StringIO()
    gc.collect()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(err):
            code = cli.main([*command.argv, "--out", str(out)])
    except (Exception, SystemExit):  # a raise or an argparse exit is a failure
        wall = perf_counter() - start
        problems = [f"{command.argv[0]} raised: {traceback.format_exc(limit=2)}"]
    else:
        wall = perf_counter() - start
        try:
            problems = command.check(code, out)
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems = [f"unreadable output: {e!r}"]
        if problems and err.getvalue():
            problems.append(f"stderr: {err.getvalue().strip()[:500]}")
    size = _tree_bytes(out)
    shutil.rmtree(out)
    return wall, size, [f"{command.argv[0]}: {p}" for p in problems]


def measure(name: str, seed: int, work_dir: Path, seconds: float, trace: bool) -> dict:
    import myopic_crowd.cli as cli
    import numpy

    import workloads
    from calibrate import kernel
    from tracing import Tracer, layer_metrics, traced

    _, commands = workloads.plan(name, seed, work_dir, Path.cwd())
    reps = {"untraced": [], "traced": []}  # (wall, calibration kernel time)
    sizes, problems, layers, missing, spans = [], [], [], [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    min_reps = MIN_TRACED_REPETITIONS if trace else MIN_REPETITIONS
    before = kernel()
    with open(os.devnull, "w") as devnull:
        walls = []
        # Start another repetition while it would end, on the median pace,
        # no later than half a repetition past the deadline.
        while len(walls) < min_reps or perf_counter() + statistics.median(walls) / 2 < deadline:
            tracer = Tracer() if trace and len(walls) % 2 else None
            wall = size = 0
            with traced(tracer) if tracer else contextlib.nullcontext():
                for command in commands:
                    w, s, p = run_command(cli, command, work_dir, devnull)
                    wall, size = wall + w, size + s
                    attempted += 1
                    failed += bool(p)
                    problems += p
            after = kernel()
            walls.append(wall)
            reps["traced" if tracer else "untraced"].append((wall, (before + after) / 2))
            before = after
            if tracer:
                layers.append(layer_metrics(tracer))
                missing = tracer.missing
                origin = tracer.spans[0].start if tracer.spans else 0.0
                spans = [
                    (sp.name, sp.start - origin, sp.end - origin, sp.parent)
                    for sp in tracer.spans
                ]
            else:
                sizes.append(size)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    medians = {}
    for key in layers[0] if layers else ():
        values = [m[key] for m in layers if m[key] is not None]
        medians[key] = statistics.median(values) if values else None
    return {
        "reps": reps,
        "output_bytes": sizes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "peak_rss_mb": rss_kb / 1024,
        "layers": medians,
        "missing": missing,
        "spans": spans,  # of the last traced repetition
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"] and len(argv) == 3:
        result = setup(argv[1], argv[2])
    elif argv[:1] == ["measure"] and len(argv) == 6:
        _, name, seed, work_dir, seconds, trace = argv
        result = measure(name, int(seed), Path(work_dir), float(seconds), trace == "1")
    else:
        raise SystemExit(__doc__)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
