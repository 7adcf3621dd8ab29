"""Round-synchronous experiment engine.

Each round r = 1..T: every agent observes a symbol, turns it into a
posterior, folds it into its local belief, then pools its inclusive
neighborhood's previous-round global beliefs with that local belief under
the configured rule.  Neighbors always see last round's beliefs (a one-round
delay), so evaluation order within a round cannot matter.

The local recursion is evaluated in closed form: the normalization constant
cancels between rounds, so each agent's whole local log-trajectory is a
cumulative sum of per-round log posterior/prior ratios, normalized per
round.  This is what makes multi-thousand-round sweeps cheap.  Values that
reach the numerical floor are clamped there and flagged; rate estimation
uses only unclamped samples.

Pooling runs the CSR kernel :func:`~myopic_crowd.dynamics.pool` once per
round over all agents, so a round costs O((n + |E|) * m).  Everything before
the pooling loop (validation, connectivity and identifiability checks,
sources, observation draws, posteriors, local trajectories) does not depend
on the rule: :func:`run_rules` prepares it once and pools it under several
rules, which is how ``compare`` evaluates min, avg and max on the same draws
(common random numbers).  :func:`run_experiment` is the one-rule case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .classifier import (
    BayesOracle,
    NoisySource,
    ReplaySource,
    replay_source_from_csv,
    write_replay_csv,
)
from .config import RATE_SLACK, ExperimentConfig, spawn_streams
from .dynamics import LOG_FLOOR, neighborhood_csr, pool
from .errors import (
    DisconnectedGraph,
    IdentifiabilityViolated,
    InsufficientSamples,
    ReplayExhausted,
)
from .network import is_connected
from .scores import check_global_identifiability, score_report

#: Minimum number of unclamped samples required to fit a rejection rate.
MIN_RATE_SAMPLES = 10

#: Log-domain tolerance around the floor: normalization jitter can leave a
#: pinned belief within ~1e-16 of LOG_FLOOR, and such samples are still
#: floor artifacts, not dynamics.
CLAMP_TOL = 1e-9


@dataclass(eq=False)
class TrajectoryLog:
    """Complete record of one experiment run.

    Belief arrays are (T+1, n_agents, m) log-probabilities for rounds 0..T;
    the clamp masks mark entries pinned at the numerical floor.
    ``observations`` holds the drawn symbol index per (round 1..T, agent)
    and ``posteriors`` the emitted posterior per agent, both exactly as the
    dynamics consumed them.  Logs yielded by one :func:`run_rules` call share
    these rule-independent arrays and ``log_pi``/``clamped_pi``.
    """

    config: ExperimentConfig
    log_pi: np.ndarray
    log_mu: np.ndarray
    clamped_pi: np.ndarray
    clamped_mu: np.ndarray
    observations: np.ndarray
    posteriors: tuple[np.ndarray, ...]

    @property
    def world(self):
        return self.config.world

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def n_agents(self) -> int:
        return self.config.n_agents

    def pi(self) -> np.ndarray:
        return np.exp(self.log_pi)

    def mu(self) -> np.ndarray:
        return np.exp(self.log_mu)


def _norm_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row in log-domain; clamp and flag floor hits.

    Once a belief is pinned at the floor it keeps re-normalizing to within
    rounding of the floor round after round; those samples carry no slope
    information, so anything at or below LOG_FLOOR + CLAMP_TOL is snapped to
    the floor and flagged.
    """
    hi = x.max(axis=-1, keepdims=True)
    lse = hi + np.log(np.exp(x - hi).sum(axis=-1, keepdims=True))
    out = x - lse
    clamped = out <= LOG_FLOOR + CLAMP_TOL
    return np.where(clamped, LOG_FLOOR, out), clamped


def build_sources(config: ExperimentConfig) -> list:
    """Each agent's posterior source, in agent order; replay streams are
    read from their files here."""
    out = []
    for scope, spec in zip(config.scopes, config.sources):
        if spec.kind == "bayes":
            out.append(BayesOracle(config.world, scope))
        elif spec.kind == "noisy":
            out.append(NoisySource(config.world, scope, spec.gamma))
        else:
            out.append(replay_source_from_csv(spec.replay_path, config.world, scope))
    return out


def _draw_observations(config: ExperimentConfig) -> np.ndarray:
    """Symbol indices of shape (T, n_agents), i.i.d. from the true row."""
    n, t_max = config.n_agents, config.horizon
    row = config.world.true_row()
    k = row.size
    _, shared_rng, agent_rngs = spawn_streams(config.seed, n)
    if config.observation_mode == "shared":
        stream = shared_rng.choice(k, size=t_max, p=row)
        return np.tile(stream[:, None], (1, n))
    cols = [rng.choice(k, size=t_max, p=row) for rng in agent_rngs]
    return np.stack(cols, axis=1) if cols else np.zeros((t_max, 0), dtype=int)


def _posterior_series(config: ExperimentConfig, sources, obs: np.ndarray):
    """Per-agent (T, |Θ_i|) posterior arrays, exactly as a round-by-round
    evaluation of the sources would produce them."""
    t_max = config.horizon
    series = []
    for i, (scope, source) in enumerate(zip(config.scopes, sources)):
        if isinstance(source, ReplaySource):
            if source.length < t_max:
                raise ReplayExhausted(
                    f"agent {scope.agent_id}: replay stream has "
                    f"{source.length} rounds, horizon is {t_max}"
                )
            series.append(np.array(source.vectors[:t_max]))
        else:
            series.append(source.per_symbol[obs[:, i]])
    return series


def _local_trajectory(
    config: ExperimentConfig, scope, posts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form local log-belief trajectory (T+1, m) plus clamp mask.

    The unnormalized log-belief on in-scope classes after t rounds is the
    uniform start plus the cumulative log posterior/prior ratio; out-of-scope
    classes take the in-scope maximum.  Per-round normalization constants
    cancel in the recursion, so normalizing each round of the cumulative form
    reproduces the step-by-step update.
    """
    m = config.world.m
    t_max = posts.shape[0]
    idx = np.fromiter(scope.theta_i, dtype=int)
    start = -math.log(m)
    v = np.empty((t_max + 1, m))
    v[0] = start
    cum = np.cumsum(np.log(posts) - np.log(scope.prior)[None, :], axis=0)
    in_part = start + cum
    v[1:, :] = -np.inf
    v[1:, idx] = in_part
    if idx.size < m:
        fill = in_part.max(axis=1)
        mask = np.ones(m, dtype=bool)
        mask[idx] = False
        v[1:, mask] = fill[:, None]
    return _norm_rows(v)


def _prepare(config: ExperimentConfig):
    """The rule-independent part of a run: checks, draws, local beliefs."""
    if not is_connected(config.graph):
        raise DisconnectedGraph(
            "the experiment graph must be connected; fix the graph entry"
        )
    if config.enforce_identifiability:
        ok, witness = check_global_identifiability(config.world, config.scopes)
        if not ok:
            labels = config.world.classes.labels
            pairs = [(labels[p], labels[q]) for p, q in witness]
            raise IdentifiabilityViolated(
                f"no agent separates class pairs {pairs}; add agents or "
                "disable enforce_identifiability"
            )
    sources = build_sources(config)
    obs = _draw_observations(config)
    posts = _posterior_series(config, sources, obs)

    n, m, t_max = config.n_agents, config.world.m, config.horizon
    log_pi = np.empty((t_max + 1, n, m))
    clamped_pi = np.empty((t_max + 1, n, m), dtype=bool)
    for i, scope in enumerate(config.scopes):
        traj, clamp = _local_trajectory(config, scope, posts[i])
        log_pi[:, i, :] = traj
        clamped_pi[:, i, :] = clamp
    return obs, posts, log_pi, clamped_pi


def _pool_rounds(config: ExperimentConfig, log_pi, clamped_pi, hood):
    """Global log-beliefs and clamp flags for rounds 0..T under config.rule."""
    if config.local_only:
        return log_pi.copy(), clamped_pi.copy()
    log_mu = np.empty_like(log_pi)
    clamped_mu = np.zeros_like(clamped_pi)
    log_mu[0] = -math.log(config.world.m)
    for t in range(1, config.horizon + 1):
        pooled, propagated = pool(
            config.rule,
            log_mu[t - 1],
            clamped_mu[t - 1],
            log_pi[t],
            clamped_pi[t],
            hood,
        )
        log_mu[t], floor_hits = _norm_rows(pooled)
        clamped_mu[t] = floor_hits | propagated
    return log_mu, clamped_mu


def run_rules(
    config: ExperimentConfig, rules: Iterable[str]
) -> Iterator[TrajectoryLog]:
    """Run the configured experiment once per rule, on shared draws.

    Checks, observations, posteriors and local trajectories are computed
    once; each rule only re-runs the pooling loop.  Logs are yielded one at
    a time, so a caller that drops each log before asking for the next keeps
    one global trajectory in memory.  Each log's config is ``config`` with
    its rule replaced.
    """
    configs = [
        replace(config, rule=rule, overrides={**config.overrides, "rule": rule})
        for rule in rules
    ]
    for cfg in (config, *configs):
        cfg.validate()
    obs, posts, log_pi, clamped_pi = _prepare(config)
    hood = neighborhood_csr(config.graph.neighborhoods)
    for cfg in configs:
        log_mu, clamped_mu = _pool_rounds(cfg, log_pi, clamped_pi, hood)
        yield TrajectoryLog(
            config=cfg,
            log_pi=log_pi,
            log_mu=log_mu,
            clamped_pi=clamped_pi,
            clamped_mu=clamped_mu,
            observations=obs,
            posteriors=tuple(posts),
        )
        # Hold no reference to this rule's arrays while the next is pooled.
        del log_mu, clamped_mu


def run_experiment(config: ExperimentConfig) -> TrajectoryLog:
    """Execute T rounds of the configured experiment, deterministically."""
    return next(run_rules(config, [config.rule]))


# -- metrics --------------------------------------------------------------

def estimate_rejection_rate(log: TrajectoryLog, agent: int, theta: int) -> float:
    """Least-squares slope of −ln μ(θ) over the trailing fitting window.

    The window is the trailing ``rate_window`` fraction of the usable
    horizon, which ends just before the first round where the belief hit the
    numerical floor (clamped samples carry no slope information).
    """
    star = log.world.true_class
    if theta == star:
        raise ValueError("rejection rate is defined for false classes only")
    series = log.log_mu[:, agent, theta]
    flags = log.clamped_mu[:, agent, theta]
    t_eff = int(np.argmax(flags)) - 1 if flags.any() else log.horizon
    if t_eff < 1:
        raise InsufficientSamples(
            f"agent {agent}, class {theta}: no usable rounds before the floor"
        )
    start = t_eff - int(math.floor(log.config.rate_window * t_eff))
    ts = np.arange(start, t_eff + 1)
    ts = ts[~flags[ts]]
    if ts.size < MIN_RATE_SAMPLES:
        raise InsufficientSamples(
            f"agent {agent}, class {theta}: {ts.size} usable samples in the "
            f"fitting window, need {MIN_RATE_SAMPLES}"
        )
    slope = np.polyfit(ts, -series[ts], 1)[0]
    return float(slope)


def _argmax_flags(log: TrajectoryLog, agent: int) -> np.ndarray:
    """Per-round flag: true class holds the strict argmax of μ."""
    star = log.world.true_class
    mu = log.log_mu[:, agent, :]
    others = np.delete(mu, star, axis=1).max(axis=1)
    return mu[:, star] > others


def time_to_identification(log: TrajectoryLog, agent: int) -> int | None:
    """Smallest round t such that the true class holds the strict argmax of
    the agent's global belief at every round from t through the horizon."""
    ok = _argmax_flags(log, agent)
    if not ok[-1]:
        return None
    bad = np.nonzero(~ok)[0]
    return int(bad[-1]) + 1 if bad.size else 0


def first_identification(log: TrajectoryLog, agent: int) -> int | None:
    """First round where the true class holds the strict argmax (may flicker)."""
    ok = _argmax_flags(log, agent)
    hits = np.nonzero(ok)[0]
    return int(hits[0]) if hits.size else None


def summary(log: TrajectoryLog) -> dict:
    """JSON-ready digest: identification times, fitted slopes, theory bounds."""
    config = log.config
    labels = config.world.classes.labels
    star = config.world.true_class
    theory_available = all(s.kind != "replay" for s in config.sources)

    theory = None
    if theory_available:
        report = score_report(config.world, config.scopes)
        theory = {
            "identifiable": report.identifiable,
            "witness": [[labels[p], labels[q]] for p, q in report.witness],
            "best_rate": {
                labels[t]: (
                    None
                    if entry is None
                    else {"R": entry[0], "agent": entry[1]}
                )
                for t, entry in sorted(report.best_rate.items())
            },
        }

    rates: dict[str, dict] = {}
    for i in range(config.n_agents):
        per_agent: dict[str, dict] = {}
        for theta in range(config.world.m):
            if theta == star:
                continue
            try:
                slope = estimate_rejection_rate(log, i, theta)
                insufficient = False
            except InsufficientSamples:
                slope = None
                insufficient = True
            r_theta = None
            if theory is not None:
                entry = theory["best_rate"][labels[theta]]
                r_theta = None if entry is None else entry["R"]
            passed = None
            if slope is not None and r_theta is not None:
                passed = bool(slope >= r_theta * (1.0 - RATE_SLACK))
            per_agent[labels[theta]] = {
                "slope": slope,
                "insufficient": insufficient,
                "R": r_theta,
                "pass": passed,
            }
        rates[str(i)] = per_agent

    return {
        "rule": config.rule,
        "horizon": config.horizon,
        "seed": config.seed,
        "observation_mode": config.observation_mode,
        "local_only": config.local_only,
        "rate_window": config.rate_window,
        "true_class": labels[star],
        "identification_time": {
            str(i): {
                "sustained": time_to_identification(log, i),
                "first": first_identification(log, i),
            }
            for i in range(config.n_agents)
        },
        "final_mu_true": {
            str(i): float(np.exp(log.log_mu[-1, i, star]))
            for i in range(config.n_agents)
        },
        "theory": theory,
        "rates": rates,
    }


# -- output files ---------------------------------------------------------

def write_outputs(
    log: TrajectoryLog,
    out_dir,
    *,
    trajectories_name: str = "trajectories.csv",
    summary_name: str = "summary.json",
    posteriors_name: str = "posteriors.csv",
    manifest_name: str = "manifest.json",
) -> dict[str, Path]:
    """Write the four artifacts of a run; returns their paths.

    Rewriting the same log always produces byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = log.config
    labels = config.world.classes.labels

    traj_path = out_dir / trajectories_name
    with open(traj_path, "w", newline="") as f:
        f.write("round,agent,class,pi,mu,log_pi,log_mu\n")
        for t in range(log.horizon + 1):
            for i in range(config.n_agents):
                for k, label in enumerate(labels):
                    lp = float(log.log_pi[t, i, k])
                    lm = float(log.log_mu[t, i, k])
                    f.write(
                        f"{t},{i},{label},{math.exp(lp)!r},{math.exp(lm)!r},"
                        f"{lp!r},{lm!r}\n"
                    )

    summary_path = out_dir / summary_name
    summary_path.write_text(
        json.dumps(summary(log), indent=2, sort_keys=True) + "\n"
    )

    posteriors_path = out_dir / posteriors_name

    def replay_rows():
        for t in range(1, log.horizon + 1):
            for i, scope in enumerate(config.scopes):
                probs = {
                    labels[theta]: log.posteriors[i][t - 1, j]
                    for j, theta in enumerate(scope.theta_i)
                }
                yield t, scope.agent_id, probs

    write_replay_csv(posteriors_path, config.world, replay_rows())

    manifest_path = out_dir / manifest_name
    manifest = {"package_version": __version__, "config": config.to_dict()}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return {
        "trajectories": traj_path,
        "summary": summary_path,
        "posteriors": posteriors_path,
        "manifest": manifest_path,
    }
