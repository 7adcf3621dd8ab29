"""Command-line front end.

Subcommands: ``scores`` (analytical report), ``run`` (one experiment),
``rates`` (multi-seed check of fitted slopes against theoretical rates),
``compare`` (min vs avg vs max under common random numbers), ``validate``
(config checking).  Verbosity via the MYOPIC_CROWD_LOG environment variable
(debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import RATE_SLACK, RULES, load_config
from .errors import InsufficientSamples, MyopicCrowdError
from .network import is_connected
from .scores import check_global_identifiability, score_report
from .sim import (
    build_sources,
    estimate_rejection_rate,
    first_identification,
    run_experiment,
    run_rules,
    summary,
    time_to_identification,
    write_outputs,
)

log = logging.getLogger("myopic_crowd")

#: Fraction of (agent, false class, seed) triples that must meet the rate
#: bound for `rates` to succeed.
RATES_PASS_FRACTION = 0.95


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


def build_parser() -> argparse.ArgumentParser:
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


def _fmt_time(t) -> str:
    return "-" if t is None else str(t)


# -- scores ---------------------------------------------------------------

def _print_score_table(doc: dict) -> None:
    print(f"true class: {doc['true_class']}")
    print("agents:")
    for entry in doc["agents"]:
        scope = ", ".join(entry["scope"])
        prior = ", ".join(f"{p:.4g}" for p in entry["prior"])
        print(f"  {entry['id']}: scope [{scope}]  prior [{prior}]")
    if doc["discriminative"]:
        print("discriminative scores (nats):")
        for row in doc["discriminative"]:
            print(
                f"  agent {row['agent']}: D({row['theta_p']}, {row['theta_q']}) "
                f"= {row['nats']:+.6f}"
            )
    if doc["confusion"]:
        print("confusion scores (nats):")
        for row in doc["confusion"]:
            print(
                f"  agent {row['agent']}: D({row['theta_p']}, {row['theta_q']}) "
                f"= {row['nats']:+.6f}"
            )
    print("source sets:")
    for row in doc["source_sets"]:
        agents = ", ".join(str(a) for a in row["agents"]) or "none"
        print(f"  ({row['theta_p']} over {row['theta_q']}): {agents}")
    print("support sets:")
    for row in doc["support_sets"]:
        agents = ", ".join(str(a) for a in row["agents"]) or "none"
        print(f"  {row['theta']}: {agents}")
    print("best rejection rates:")
    for row in doc["best_rate"]:
        if row["R"] is None:
            print(f"  {row['theta']}: no rejector")
        else:
            print(f"  {row['theta']}: R = {row['R']:.6f} via agent {row['agent']}")
    if doc["identifiable"]:
        print("global identifiability: yes")
    else:
        pairs = ", ".join(f"({p}, {q})" for p, q in doc["witness"])
        print(f"global identifiability: NO — uncovered pairs: {pairs}")


def cmd_scores(args) -> int:
    config = _load(args)
    report = score_report(config.world, config.scopes)
    doc = report.to_dict()
    print(json.dumps(doc, indent=2, sort_keys=True))
    print()
    _print_score_table(doc)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "scores.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    return 0 if report.identifiable else 2


# -- run ------------------------------------------------------------------

def cmd_run(args) -> int:
    config = _load(args)
    log.info("running %d rounds with rule=%s", config.horizon, config.rule)
    trajectory = run_experiment(config)
    out_dir = args.out or config.out_dir or "out"
    paths = write_outputs(trajectory, out_dir)
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
    config = _load(args)
    if any(s.kind == "replay" for s in config.sources):
        print(
            "error: theory unavailable — replay sources have no analytical "
            "scores",
            file=sys.stderr,
        )
        return 1
    report = score_report(config.world, config.scopes)
    if not report.identifiable:
        labels = config.world.classes.labels
        pairs = ", ".join(f"({labels[p]}, {labels[q]})" for p, q in report.witness)
        print(
            f"error: theory unavailable — not globally identifiable; "
            f"uncovered pairs: {pairs}",
            file=sys.stderr,
        )
        return 1
    labels = config.world.classes.labels
    star = config.world.true_class
    rate_of = {theta: entry[0] for theta, entry in report.best_rate.items()}

    rows = []
    for offset in range(args.seeds):
        cfg = config.reseeded(config.seed + offset)
        trajectory = run_experiment(cfg)
        for i in range(cfg.n_agents):
            for theta in range(cfg.world.m):
                if theta == star:
                    continue
                try:
                    slope = estimate_rejection_rate(trajectory, i, theta)
                except InsufficientSamples:
                    slope = None
                rows.append((i, theta, cfg.seed, slope))

    if all(slope is None for *_, slope in rows):
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
    by_pair: dict[tuple[int, int], list] = {}
    for i, theta, _, slope in rows:
        by_pair.setdefault((i, theta), []).append(slope)
    for (i, theta), slopes in sorted(by_pair.items()):
        r_theta = rate_of[theta]
        good = [s for s in slopes if s is not None and s >= r_theta * (1 - RATE_SLACK)]
        n_pass += len(good)
        fitted = [s for s in slopes if s is not None]
        mean_slope = float(np.mean(fitted)) if fitted else float("nan")
        missing = len(slopes) - len(fitted)
        note = f" ({missing} insufficient)" if missing else ""
        print(
            f"  agent {i}, {labels[theta]}: R = {r_theta:.6f}, "
            f"mean slope = {mean_slope:.6f}, pass {len(good)}/{len(slopes)}{note}"
        )
    fraction = n_pass / len(rows)
    print(f"overall: {n_pass}/{len(rows)} triples pass ({fraction:.1%})")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        doc = {
            "seeds": args.seeds,
            "horizon": config.horizon,
            "pass_fraction": fraction,
            "threshold": RATES_PASS_FRACTION,
            "rows": [
                {
                    "agent": i,
                    "theta": labels[theta],
                    "seed": seed,
                    "slope": slope,
                    "R": rate_of[theta],
                }
                for i, theta, seed, slope in rows
            ],
        }
        (out / "rates.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    return 0 if fraction >= RATES_PASS_FRACTION else 2


# -- compare --------------------------------------------------------------

def _median_or_none(values) -> float | None:
    arr = np.array(
        [np.inf if v is None else float(v) for v in values], dtype=float
    )
    med = float(np.median(arr))
    return None if np.isinf(med) else med


def cmd_compare(args) -> int:
    config = _load(args)
    star = config.world.true_class
    label = config.world.classes.labels[star]
    per_agent_times = {rule: [[] for _ in range(config.n_agents)] for rule in RULES}
    finals = {rule: [[] for _ in range(config.n_agents)] for rule in RULES}
    identified_runs = dict.fromkeys(RULES, 0)
    for offset in range(args.seeds):
        cfg = config.derived(seed=config.seed + offset)
        for trajectory in run_rules(cfg, RULES):
            rule = trajectory.config.rule
            run_ok = True
            for i in range(cfg.n_agents):
                t_id = time_to_identification(trajectory, i)
                per_agent_times[rule][i].append(t_id)
                finals[rule][i].append(float(np.exp(trajectory.log_mu[-1, i, star])))
                if t_id is None:
                    run_ok = False
            if run_ok:
                identified_runs[rule] += 1
            # Drop this rule's log before the next one is pooled.
            del trajectory
    results = {
        rule: {
            "median_identification_time": [
                _median_or_none(times) for times in per_agent_times[rule]
            ],
            "median_final_mu_true": [float(np.median(f)) for f in finals[rule]],
            "runs_fully_identified": identified_runs[rule],
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
        (out / "compare.json").write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )
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
    for scope, source in zip(config.scopes, config.sources):
        names = ", ".join(labels[t] for t in scope.theta_i)
        print(f"agent {scope.agent_id}: scope [{names}], source {source.kind}")
    print(
        f"graph: {config.graph.n} vertices, {len(config.graph.edges())} edges, "
        f"{'connected' if is_connected(config.graph) else 'DISCONNECTED'}"
    )
    print(
        f"rule={config.rule} horizon={config.horizon} seed={config.seed} "
        f"observation_mode={config.observation_mode} local_only={config.local_only}"
    )
    # Resolvability of replay streams is part of validity; semantic
    # run-blockers below are warnings only.
    sources = build_sources(config)
    for scope, spec, source in zip(config.scopes, config.sources, sources):
        if spec.kind == "replay" and source.length < config.horizon:
            print(
                f"warning: agent {scope.agent_id} replay stream has "
                f"{source.length} rounds for horizon {config.horizon}; "
                "run will fail"
            )
    if not is_connected(config.graph):
        print("warning: graph is disconnected; run/rates/compare will refuse it")
    if all(s.kind != "replay" for s in config.sources):
        ok, witness = check_global_identifiability(world, config.scopes)
        if ok:
            print("global identifiability: yes")
        else:
            pairs = ", ".join(f"({labels[p]}, {labels[q]})" for p, q in witness)
            print(f"warning: not globally identifiable; uncovered pairs: {pairs}")
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
    except MyopicCrowdError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
