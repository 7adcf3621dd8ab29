"""Command-line front end.

Subcommands: ``scores`` (analytical report), ``run`` (one experiment),
``rates`` (multi-seed check of fitted slopes against theoretical rates),
``compare`` (min vs avg vs max under common random numbers), ``validate``
(config checking).  Verbosity via the MYOPIC_CROWD_LOG environment variable
(debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import RATE_SLACK, RULES, load_config
from .errors import ConfigError, MyopicCrowdError
from .formats import Columns, json_text
from .sim import (
    build_sources,
    first_identification,
    rate_checks,
    run_batch,
    run_bytes,
    run_experiment,
    run_problems,
    theory,
    time_to_identification,
    write_outputs,
)

log = logging.getLogger("myopic_crowd")

#: Fraction of (agent, false class, seed) triples that must meet the rate
#: bound for `rates` to succeed.
RATES_PASS_FRACTION = 0.95

#: Characters per write of a long text: a text stream copies each write whole.
WRITE_SLICE = 1 << 16


def _setup_logging() -> None:
    level_name = os.environ.get("MYOPIC_CROWD_LOG", "warning").lower()
    levels = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }
    logging.basicConfig(
        level=levels.get(level_name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: each build leaves cyclic garbage behind."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--seed", type=int, default=None, help="override the seed")
    common.add_argument(
        "--horizon", type=int, default=None, help="override the round count"
    )
    common.add_argument(
        "--rule", choices=RULES, default=None, help="override the aggregation rule"
    )
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument(
        "--local-only",
        action="store_true",
        default=None,
        help="disable the global update; beliefs stay local",
    )

    parser = argparse.ArgumentParser(
        prog="myopic-crowd",
        description=(
            "Distributed classification over a network of partially "
            "informative agents."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "scores", parents=[common], help="analytical score report"
    )
    sub.add_parser("run", parents=[common], help="run one experiment")
    rates = sub.add_parser(
        "rates", parents=[common], help="check fitted slopes against theory"
    )
    rates.add_argument(
        "--seeds", type=int, default=20, help="number of seeds to sweep"
    )
    compare = sub.add_parser(
        "compare", parents=[common], help="compare min/avg/max rules"
    )
    compare.add_argument(
        "--seeds", type=int, default=1, help="number of seeds to sweep"
    )
    sub.add_parser("validate", parents=[common], help="check a config file")
    return parser


def _load(args):
    return load_config(
        args.config,
        seed=args.seed,
        horizon=args.horizon,
        rule=args.rule,
        out_dir=args.out,
        local_only=args.local_only,
    )


def _check_seeds(args) -> None:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")


def _seed_configs(config, seeds: int):
    """``config``, then ``config`` derived for seeds seed+1, ..., one at a
    time: each shares its roster, and draws only an ER graph and its streams."""
    yield config
    yield from (config.derived(seed=config.seed + k) for k in range(1, seeds))


def _fmt_time(t) -> str:
    return "-" if t is None else str(t)


# -- scores ---------------------------------------------------------------

def _agent_list(agents: list) -> str:
    return ", ".join(map(str, agents)) or "none"


def _score_table(doc: dict) -> str:
    """The human-readable score report printed after the JSON document."""
    lines = [f"true class: {doc['true_class']}", "agents:"]
    agents = doc["agents"]
    lines += map(
        "  {}: scope [{}]  prior [{}]".format,
        agents["id"], map(", ".join, agents["scope"]),
        [", ".join(f"{p:.4g}" for p in prior) for prior in agents["prior"]],
    )
    for kind in ("discriminative", "confusion"):
        rows = doc[kind]
        if rows["agent"]:
            lines.append(f"{kind} scores (nats):")
            lines += map(
                "  agent %d: D(%s, %s) = %+.6f".__mod__,
                zip(rows["agent"], rows["theta_p"], rows["theta_q"], rows["nats"]),
            )
    sets = doc["source_sets"]
    lines.append("source sets:")
    lines += map(
        "  ({} over {}): {}".format,
        sets["theta_p"], sets["theta_q"], map(_agent_list, sets["agents"]),
    )
    sets = doc["support_sets"]
    lines.append("support sets:")
    lines += map("  {}: {}".format, sets["theta"], map(_agent_list, sets["agents"]))
    lines.append("best rejection rates:")
    lines += [
        f"  {row['theta']}: no rejector" if row["R"] is None
        else f"  {row['theta']}: R = {row['R']:.6f} via agent {row['agent']}"
        for row in doc["best_rate"]
    ]
    if doc["identifiable"]:
        lines.append("global identifiability: yes")
    else:
        pairs = ", ".join(f"({p}, {q})" for p, q in doc["witness"])
        lines.append(f"global identifiability: NO — uncovered pairs: {pairs}")
    return "\n".join(lines) + "\n"


def cmd_scores(args) -> int:
    config = _load(args)
    report = config.roster.report
    doc = report.to_dict()
    text = json_text(doc)
    starts = range(0, len(text), WRITE_SLICE)
    sys.stdout.writelines(text[i : i + WRITE_SLICE] for i in starts)
    sys.stdout.write("\n\n")
    sys.stdout.write(_score_table(doc))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "scores.json", "w") as f:
            f.writelines(text[i : i + WRITE_SLICE] for i in starts)
            f.write("\n")
    return 0 if report.identifiable else 2


# -- run ------------------------------------------------------------------

def cmd_run(args) -> int:
    config = _load(args)
    log.info("running %d rounds with rule=%s", config.horizon, config.rule)
    trajectory = run_experiment(config)
    paths = write_outputs(trajectory, config.out_dir or "out")
    star = config.world.true_class
    label = config.world.classes.labels[star]
    print(f"rule={config.rule} horizon={config.horizon} seed={config.seed}")
    for i in range(config.n_agents):
        final = float(np.exp(trajectory.log_mu[-1, i, star]))
        print(
            f"agent {i}: identified at "
            f"{_fmt_time(time_to_identification(trajectory, i))} "
            f"(first hit {_fmt_time(first_identification(trajectory, i))}), "
            f"final mu({label}) = {final:.6f}"
        )
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


# -- rates ----------------------------------------------------------------

def cmd_rates(args) -> int:
    _check_seeds(args)
    config = _load(args)
    labels = config.world.classes.labels
    report, refusal = theory(config)
    if refusal:
        raise ConfigError(f"theory unavailable — {refusal}")

    rows = []  # (seed, agent, false class, slope, R, pass)
    for trajectory in run_batch(_seed_configs(config, args.seeds), [config.rule]):
        seed = trajectory.config.seed
        rows += [(seed, *row) for row in rate_checks(trajectory, report.best_rate)]
        # Drop this seed's log before the next one is handed out.
        del trajectory

    if all(slope is None for _, _, _, slope, _, _ in rows):
        print(
            "error: every (agent, class, seed) triple had too few usable "
            "samples; increase --horizon",
            file=sys.stderr,
        )
        return 3

    print(
        f"theoretical bound check: slope >= (1 - {RATE_SLACK}) * R over "
        f"{args.seeds} seeds, horizon {config.horizon}"
    )
    n_pass = 0
    by_pair: dict[tuple, list] = {}  # (agent, false class, R) -> checks
    for _, i, theta, slope, r_theta, passed in rows:
        by_pair.setdefault((i, theta, r_theta), []).append((slope, passed))
    for (i, theta, r_theta), checks in sorted(by_pair.items()):
        good = sum(passed is True for _, passed in checks)
        n_pass += good
        fitted = [slope for slope, _ in checks if slope is not None]
        mean_slope = float(np.mean(fitted)) if fitted else float("nan")
        missing = len(checks) - len(fitted)
        note = f" ({missing} insufficient)" if missing else ""
        print(
            f"  agent {i}, {labels[theta]}: R = {r_theta:.6f}, "
            f"mean slope = {mean_slope:.6f}, pass {good}/{len(checks)}{note}"
        )
    fraction = n_pass / len(rows)
    print(f"overall: {n_pass}/{len(rows)} triples pass ({fraction:.1%})")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        seeds, agents, thetas, slopes, r_values, _ = map(list, zip(*rows))
        doc = {
            "seeds": args.seeds,
            "horizon": config.horizon,
            "pass_fraction": fraction,
            "threshold": RATES_PASS_FRACTION,
            "rows": Columns(
                agent=agents, theta=[labels[t] for t in thetas], seed=seeds,
                slope=slopes, R=r_values,
            ),
        }
        (out / "rates.json").write_text(json_text(doc) + "\n")
    return 0 if fraction >= RATES_PASS_FRACTION else 2


# -- compare --------------------------------------------------------------

def _medians(runs: list[list[float]]) -> list[float]:
    """Each agent's ``np.median(runs, axis=0)``, bit for bit, without
    importing ``numpy.ma``: the middle value, or the mean of the middle two."""
    half, columns = len(runs) // 2, [sorted(column) for column in zip(*runs)]
    return [c[half] if len(c) % 2 else (c[half - 1] + c[half]) / 2 for c in columns]


def cmd_compare(args) -> int:
    _check_seeds(args)
    config = _load(args)
    star = config.world.true_class
    label = config.world.classes.labels[star]
    # Per rule, one row per run: identification times (inf where an agent
    # never identifies) and final beliefs in the true class.
    times: dict[str, list] = {rule: [] for rule in RULES}
    finals: dict[str, list] = {rule: [] for rule in RULES}
    for trajectory in run_batch(_seed_configs(config, args.seeds), RULES):
        rule = trajectory.config.rule
        agents = range(trajectory.n_agents)
        run_times = [time_to_identification(trajectory, i) for i in agents]
        times[rule].append([np.inf if t is None else float(t) for t in run_times])
        finals[rule].append([float(np.exp(v)) for v in trajectory.log_mu[-1, :, star]])
        # Drop this log before the next one is handed out.
        del trajectory
    results = {
        rule: {
            "median_identification_time": [
                None if np.isinf(t) else t for t in _medians(times[rule])
            ],
            "median_final_mu_true": _medians(finals[rule]),
            "runs_fully_identified": int(np.isfinite(times[rule]).all(axis=1).sum()),
            "runs": args.seeds,
        }
        for rule in RULES
    }

    print(
        f"rule comparison on {args.seeds} seed(s), horizon {config.horizon}, "
        f"true class {label} (common random numbers)"
    )
    for rule in RULES:
        entry = results[rule]
        fails = entry["runs_fully_identified"] < entry["runs"]
        flag = "  [FAILS TO IDENTIFY in some runs]" if fails else ""
        print(f"rule {rule}:{flag}")
        print(
            f"  runs fully identified: "
            f"{entry['runs_fully_identified']}/{entry['runs']}"
        )
        for i in range(config.n_agents):
            med_t = entry["median_identification_time"][i]
            med_mu = entry["median_final_mu_true"][i]
            med_t_str = "-" if med_t is None else f"{med_t:.1f}"
            print(
                f"  agent {i}: median identification {med_t_str}, "
                f"median final mu({label}) = {med_mu:.6f}"
            )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "compare.json").write_text(json_text(results) + "\n")
    return 0


# -- validate -------------------------------------------------------------

def cmd_validate(args) -> int:
    config = _load(args)
    world = config.world
    print(f"config: {args.config}")
    print(
        f"world: {world.m} classes, {world.inputs.size} symbols, "
        f"true class {world.classes.labels[world.true_class]}"
    )
    labels = world.classes.labels
    for scope in config.scopes:
        names = ", ".join(labels[t] for t in scope.theta_i)
        print(f"agent {scope.agent_id}: scope [{names}], source {scope.source}")
    print(
        f"graph: {config.graph.n} vertices, {len(config.graph.edges())} edges, "
        f"{'connected' if config.roster.connected else 'DISCONNECTED'}"
    )
    print(
        f"rule={config.rule} horizon={config.horizon} seed={config.seed} "
        f"observation_mode={config.observation_mode} local_only={config.local_only}"
    )
    # Resolvability of replay streams is part of validity; what would stop
    # run/rates/compare is a warning only, worded as they word the error.
    sources = build_sources(config)
    print(f"memory: about {run_bytes(config) / 1e6:.4g} MB per run")
    problems = run_problems(config, sources)
    for problem in problems:
        print(f"warning: {problem}")
    # A gap is one warning, one of the problems when enforced; whatever else
    # stops rates is a warning worded as rates words it.
    report, refusal = theory(config)
    if report is not None and not report.identifiable:
        if not config.enforce_identifiability:
            print(f"warning: {refusal}")
    else:
        if report is not None:
            print("global identifiability: yes")
        if refusal:
            print(f"warning: theory unavailable — {refusal}")
    print("config is valid")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "scores": cmd_scores,
        "run": cmd_run,
        "rates": cmd_rates,
        "compare": cmd_compare,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (MyopicCrowdError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
