"""Round-synchronous experiment engine: orchestration around the belief engine.

Each round r = 1..T: every agent observes a symbol, turns it into a
posterior, folds it into its local belief, then pools its inclusive
neighborhood's previous-round global beliefs with that local belief under
the configured rule.  Neighbors always see last round's beliefs (a one-round
delay), so evaluation order within a round cannot matter.

The recursion itself, its floor rule and pooling live in
:mod:`~myopic_crowd.dynamics`; this module checks a run, draws its
observations, reads them as posteriors, batches runs, and computes
metrics and output files.  Rate estimation uses only samples the engine did
not flag as clamped at the floor.  What stops a run (:func:`run_problems`),
a roster's theory and why ``rates`` has no bound without it
(:func:`theory`), and whether a fitted slope meets its rate
(:func:`rate_checks`) are decided here, and only here.

Everything before the pooling loop (sources, checks, observation draws,
posteriors, local trajectories) does not depend on the rule, so
:func:`run_batch` prepares it once and pools it under several rules in one
loop over rounds; that is how ``compare`` evaluates min, avg and max on the
same draws (common random numbers).

A seed sweep is many small runs, and at n = 3 a round's numpy call overhead
dwarfs its arithmetic.  :func:`run_batch` therefore pools a batch of runs as
one network, the disjoint union of their graphs, in that same loop,
bit-identical to running each seed alone.  A sweep batch keeps only the
belief arrays it pools, and :data:`BATCH_BYTES` caps them
(:func:`batch_bytes`): 21 3-agent, 3-class runs at T = 3000 under one rule,
ten under three.  :func:`run_experiment` is the one-run case, and the only
one whose log keeps its draws.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import shutil
import tempfile
import threading
import time
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .classifier import (
    BayesOracle,
    ReplaySource,
    load_replay_csv,
    posterior_tables,
    replay_source,
    write_replay_csv,
)
from .config import RATE_SLACK, ExperimentConfig, stream
from .dynamics import global_trajectory, local_trajectories, neighborhood_csr
from .errors import (
    ConfigError,
    DisconnectedGraph,
    IdentifiabilityViolated,
    InsufficientSamples,
    MyopicCrowdError,
    ReplayExhausted,
)
from .formats import csv_cell, distinct, json_text
from .scores import ScoreReport

logger = logging.getLogger(__name__)

#: Minimum number of unclamped samples required to fit a rejection rate.
MIN_RATE_SAMPLES = 10

#: Cap on what one batch holds while it pools: its runs' :func:`batch_bytes`
#: under all its rules at once.  A w3 run at T=3000 takes 0.49 MB under one
#: rule and 0.97 MB under three, so 21 such seeds pool together under one
#: rule (``rates --seeds 20`` in one loop) and ten under three; a lone run
#: above the cap pools its rules one at a time.  On the ``sweep-w3`` bench,
#: one 20-seed batch raised peak RSS by 0.8 MB (+1.5%, 51.0 to 51.8 MB) over
#: two ten-seed ones that also held their draws.
BATCH_BYTES = 10 * 2**20

#: Cap on the estimated bytes of one run (:func:`run_bytes`); a larger run
#: is refused (:func:`run_problems`) before anything is drawn.
MAX_RUN_BYTES = 2**30


@dataclass(eq=False)
class TrajectoryLog:
    """Complete record of one experiment run.

    Belief arrays are (T+1, n_agents, m) log-probabilities for rounds 0..T,
    maybe views into a larger batch (logs of one run under several rules
    share ``log_pi``/``clamped_pi``); the clamp masks mark entries pinned at
    the numerical floor.  A log of :func:`run_experiment` keeps its draws:
    ``observations``, the symbol drawn per (round 1..T, agent), and
    ``streams``, each agent's ``(rows, index)`` with row ``index[t-1]`` fed
    in round t: its table and its observation column, or its replay vectors
    and ``arange(T)``.  A sweep's logs (:func:`run_batch`) carry neither.
    """

    config: ExperimentConfig
    log_pi: np.ndarray
    log_mu: np.ndarray
    clamped_pi: np.ndarray
    clamped_mu: np.ndarray
    observations: np.ndarray | None
    streams: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def world(self):
        return self.config.world

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def n_agents(self) -> int:
        return self.config.n_agents

    @property
    def posteriors(self) -> tuple[np.ndarray, ...]:
        """Each agent's (T, |Θ_i|) posteriors, gathered from its stream."""
        return tuple(rows[index] for rows, index in self.streams)

    @functools.cached_property
    def identified(self) -> np.ndarray:
        """(T+1, n) flags, computed once, a class column at a time: the true
        class holds the strict argmax of the global belief (a tie is no lead)."""
        star, mu = self.world.true_class, self.log_mu
        hi = np.full(mu.shape[:2], -np.inf)
        for c in [*range(star), *range(star + 1, self.world.m)]:
            np.maximum(hi, mu[..., c], out=hi)
        return mu[..., star] > hi

    @functools.cached_property
    def identification(self) -> tuple[list, list]:
        """Every agent's sustained and first identification round, None if
        none (:func:`time_to_identification`), from one pass over the flags."""
        ok = self.identified
        held, hit = ok[-1].tolist(), ok.any(axis=0).tolist()
        sustained = np.where(ok.all(axis=0), 0, len(ok) - (~ok[::-1]).argmax(axis=0))
        return (
            [t if h else None for t, h in zip(sustained.tolist(), held)],
            [t if h else None for t, h in zip(ok.argmax(axis=0).tolist(), hit)],
        )


def build_sources(config: ExperimentConfig) -> list:
    """Each agent's posterior source, in id order, as its scope says: its
    posterior table (built a group at a time) or its replay stream's first T
    rows.  A replay file is read once per call, and its agents share that parse."""
    tabled = [s for s in config.scopes if s.source != "replay"]
    sources = [None] * config.n_agents
    for members, tables in posterior_tables(config.world, tabled):
        for j, table in zip(members, tables):
            sources[tabled[j].agent_id] = BayesOracle(table)
    parsed: dict[str, tuple] = {}
    for scope in config.scopes:
        if scope.source == "replay":
            path = scope.replay_path
            if path not in parsed:
                parsed[path] = load_replay_csv(path, config.world)
            sources[scope.agent_id] = replay_source(
                path, *parsed[path], config.world, scope, config.horizon
            )
    return sources


def _draw_observations(config: ExperimentConfig) -> np.ndarray:
    """Symbol indices of shape (T, n_agents), i.i.d. from the true row and
    read-only: agent i's column from stream 2 + i, or in shared mode one
    column from stream 1 that every agent reads."""
    row, t_max, n = config.world.true_row(), config.horizon, config.n_agents
    keys = [1] if config.observation_mode == "shared" else range(2, n + 2)
    cols = [stream(config.seed, key).choice(row.size, t_max, p=row) for key in keys]
    return np.broadcast_to(np.stack(cols, axis=1), (t_max, n))


def run_bytes(config: ExperimentConfig) -> int:
    """Estimated bytes one run allocates: 8 per round for each observation
    column it draws (one in shared mode, one per agent otherwise), each
    agent's stream (a table agent's (|X|, k) table, a replay agent's (T, k)
    vectors and its ``arange(T)`` index) and its belief arrays
    (:func:`batch_bytes` under one rule)."""
    t_max, symbols = config.horizon, config.world.inputs.size
    columns = 1 if config.observation_mode == "shared" else config.n_agents
    streams = sum(
        t_max * (scope.size + 1) if scope.source == "replay" else symbols * scope.size
        for scope in config.scopes
    )
    return 8 * (t_max * columns + streams) + batch_bytes(config, (config.rule,))


def batch_bytes(config: ExperimentConfig, rules) -> int:
    """Estimated bytes one run holds in a batch while its ``rules`` pool
    together: ``log_pi`` and a ``log_mu`` per rule, each with its clamp
    flags, 9 per round, agent and class."""
    cells = (config.horizon + 1) * config.n_agents * config.world.m
    return 9 * cells * (1 + len(rules))


def run_problems(config: ExperimentConfig, sources) -> list[MyopicCrowdError]:
    """Every reason a run of ``config`` with these sources is refused, in
    check order: the memory cap, a disconnected graph, an identifiability
    gap (when enforced), replay streams shorter than the horizon."""
    problems: list[MyopicCrowdError] = []
    if (needed := run_bytes(config)) > MAX_RUN_BYTES:
        problems.append(ConfigError(
            f"above the cap of {MAX_RUN_BYTES / 1e6:.4g} MB: a run of "
            f"{config.horizon} rounds needs about {needed / 1e6:.4g} MB; "
            "lower the horizon"
        ))
    if not config.roster.connected:
        problems.append(DisconnectedGraph(
            "the experiment graph must be connected; fix the graph entry"
        ))
    if config.enforce_identifiability and not config.roster.report.identifiable:
        problems.append(IdentifiabilityViolated(
            f"{gap_text(config, config.roster.report.witness)}; add agents or "
            "disable enforce_identifiability"
        ))
    return problems + [
        ReplayExhausted(
            f"agent {scope.agent_id}: replay stream has "
            f"{source.length} rounds, horizon is {config.horizon}"
        )
        for scope, source in zip(config.scopes, sources)
        if isinstance(source, ReplaySource) and source.length < config.horizon
    ]


def gap_text(config: ExperimentConfig, witness) -> str:
    """The one wording of an identifiability gap, given the class pairs
    (``witness``) that no agent separates."""
    labels = config.world.classes.labels
    pairs = ", ".join(f"({labels[p]}, {labels[q]})" for p, q in witness)
    return f"not globally identifiable; uncovered pairs: {pairs}"


def _draw_local(config, sources, log_pi, clamped_pi, keep_draws: bool) -> tuple:
    """Draw one run and write its local trajectories into ``log_pi`` and
    ``clamped_pi``, its rows of a batch's arrays; returns its observations
    and posterior streams if ``keep_draws``, else ``(None, ())``."""
    obs = _draw_observations(config)
    streams = tuple(
        (source.vectors, np.arange(config.horizon))
        if isinstance(source, ReplaySource)
        else (source.per_symbol, obs[:, i])
        for i, source in enumerate(sources)
    )
    local_trajectories(config.scopes, streams, log_pi, clamped_pi)
    return (obs, streams) if keep_draws else (None, ())


def _batches(configs: Iterable[ExperimentConfig], rules: tuple) -> Iterator[tuple]:
    """Consecutive configs that can share one pooling loop, each batch with
    whether its ``rules`` fit in one :func:`global_trajectory` call.

    A batch holds runs of one shape (horizon, class count, ``local_only``)
    whose :func:`batch_bytes` under all ``rules`` fit in :data:`BATCH_BYTES`
    together.  A run above the cap forms a batch of its own and pools its
    rules one at a time.
    """

    def shape(config):
        return config.horizon, config.world.m, config.local_only

    batch: list[ExperimentConfig] = []
    size = 0
    for config in configs:
        cost = batch_bytes(config, rules)
        if batch and (shape(config) != shape(batch[0]) or size + cost > BATCH_BYTES):
            yield batch, size <= BATCH_BYTES
            batch, size = [], 0
        batch.append(config)
        size += cost
    if batch:
        yield batch, size <= BATCH_BYTES


def run_batch(
    configs: Iterable[ExperimentConfig], rules: Iterable[str]
) -> Iterator[TrajectoryLog]:
    """Run every config once per rule, pooling a batch of runs at a time.

    Consecutive configs are grouped into batches (:func:`_batches`).  Every
    run of a batch is checked, in run order, before anything is allocated
    or drawn; then each run in turn draws its observations and writes its
    local trajectories into its rows of the batch's (T+1, sum n, m)
    ``log_pi``, and its draws are dropped.  The batch's graphs are joined
    into one disjoint union, agent indices offset by the agents before
    them, and pooled under every rule in one call, or one rule at a time in
    a lone run too large for that.  Pooling is row-wise over each agent's
    own neighborhood, so every run's beliefs are bit-identical to running
    it alone.

    Logs are yielded batch by batch, rule by rule, then config by config.
    Each log's arrays are views into its batch's arrays, across the rules
    pooled together, its config is the run's config with the rule replaced,
    and it carries no draws.  A caller that drops each log before asking
    for the next holds one batch at a time.  One ``info`` line is logged per
    batch once its last log has been consumed; it joins rules pooled
    together by ``+``.
    """
    return _logs(configs, tuple(rules), keep_draws=False)


def _logs(configs, rules: tuple, keep_draws: bool) -> Iterator[TrajectoryLog]:
    """:func:`run_batch`'s logs, carrying each run's draws if ``keep_draws``."""
    for batch, fused in _batches(configs, rules):
        started = time.perf_counter()
        groups = [rules] if fused else [(r,) for r in rules]
        # Each run's config under each rule, and each run's checks, in run
        # order before anything is allocated or drawn.
        variants = {r: [replace(c, rule=r) for c in batch] for r in rules}
        pending = []
        for config in batch:
            pending.append(build_sources(config))
            if problems := run_problems(config, pending[-1]):
                raise problems[0]
        ends = list(accumulate(config.n_agents for config in batch))
        spans = [slice(hi - c.n_agents, hi) for c, hi in zip(batch, ends)]
        t_max, m = batch[0].horizon, batch[0].world.m
        log_pi = np.empty((t_max + 1, ends[-1], m))
        clamped_pi = np.empty(log_pi.shape, dtype=bool)
        draws = [
            _draw_local(
                config, pending.pop(0), log_pi[:, span], clamped_pi[:, span], keep_draws
            )
            for config, span in zip(batch, spans)
        ]
        hood = neighborhood_csr(
            [
                [j + span.start for j in nbrs]
                for config, span in zip(batch, spans)
                for nbrs in config.graph.neighborhoods
            ]
        )
        for group in groups:
            if batch[0].local_only:
                pooled = [(log_pi.copy(), clamped_pi.copy())] * len(group)
            else:
                pooled = global_trajectory(group, log_pi, clamped_pi, hood)
            for rule, (log_mu, clamped_mu) in zip(group, pooled):
                for config, span, (obs, streams) in zip(variants[rule], spans, draws):
                    yield TrajectoryLog(
                        config=config,
                        log_pi=log_pi[:, span],
                        log_mu=log_mu[:, span],
                        clamped_pi=clamped_pi[:, span],
                        clamped_mu=clamped_mu[:, span],
                        observations=obs,
                        streams=streams,
                    )
            # Hold no reference to these arrays while the next group is
            # pooled or the next batch prepared.
            pooled = log_mu = clamped_mu = None
        logger.info(
            "batch seeds=%d first_seed=%d rules=%s rounds=%d elapsed_s=%.3f",
            len(batch),
            batch[0].seed,
            ",".join("+".join(group) for group in groups),
            t_max,
            time.perf_counter() - started,
        )


def run_experiment(config: ExperimentConfig) -> TrajectoryLog:
    """Execute T rounds of the configured experiment, deterministically.
    Unlike a sweep's, its log keeps the observations and posterior streams."""
    return next(_logs([config], (config.rule,), keep_draws=True))


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
    if ts.size < MIN_RATE_SAMPLES:
        raise InsufficientSamples(
            f"agent {agent}, class {theta}: {ts.size} usable samples in the "
            f"fitting window, need {MIN_RATE_SAMPLES}"
        )
    return float(_slope(ts, -series[ts]))


@functools.lru_cache(maxsize=16)
def _scaled_design(x: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``np.polyfit``'s degree-1 design matrix for the float64 abscissae ``x``,
    columns scaled to unit norm, and the scales; a window recurs across fits."""
    lhs = np.vander(np.frombuffer(x), 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    lhs.flags.writeable = scale.flags.writeable = False
    return lhs, scale


def _slope(ts: np.ndarray, y: np.ndarray) -> float:
    """``np.polyfit(ts, y, 1)[0]`` bit for bit, by polyfit's own steps."""
    lhs, scale = _scaled_design((ts + 0.0).tobytes())
    c, _, rank, _ = np.linalg.lstsq(lhs, y, ts.size * np.finfo(float).eps)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, 2)
    return c[0] / scale[0]


def time_to_identification(log: TrajectoryLog, agent: int) -> int | None:
    """Smallest round t such that the true class holds the strict argmax of
    the agent's global belief at every round from t through the horizon."""
    return log.identification[0][agent]


def first_identification(log: TrajectoryLog, agent: int) -> int | None:
    """First round where the true class holds the strict argmax (may flicker)."""
    return log.identification[1][agent]


def theory(config: ExperimentConfig) -> tuple[ScoreReport | None, str | None]:
    """The roster's score report (None if an agent replays a stream: it has
    no posterior table) and why ``rates`` has no bound to check slopes
    against (None if it has one): no report, a gap, or an unrejected class."""
    if any(scope.source == "replay" for scope in config.scopes):
        return None, "replay sources have no analytical scores"
    report = config.roster.report
    if not report.identifiable:
        return report, gap_text(config, report.witness)
    best = sorted(report.best_rate.items())
    unrejected = [config.world.classes.labels[t] for t, e in best if e is None]
    return report, (f"no agent rejects {', '.join(unrejected)}" if unrejected else None)


def rate_checks(log: TrajectoryLog, best_rate: dict) -> list[tuple]:
    """(agent, false class, slope, R, pass) rows: the fitted slope (None if
    too few samples are usable), R(θ) from ``best_rate`` (a score report's;
    empty without theory), and slope >= (1 − RATE_SLACK)·R (None if either
    is missing)."""
    star = log.world.true_class
    rows = []
    for i in range(log.n_agents):
        for theta in range(log.world.m):
            if theta == star:
                continue
            try:
                slope = estimate_rejection_rate(log, i, theta)
            except InsufficientSamples:
                slope = None
            entry = best_rate.get(theta)
            r_theta = None if entry is None else entry[0]
            known = slope is not None and r_theta is not None
            passed = bool(slope >= r_theta * (1.0 - RATE_SLACK)) if known else None
            rows.append((i, theta, slope, r_theta, passed))
    return rows


def summary(log: TrajectoryLog) -> dict:
    """JSON-ready digest: identification times, fitted slopes, theory bounds."""
    config = log.config
    labels = config.world.classes.labels
    star = config.world.true_class
    report, _ = theory(config)

    rates: dict[str, dict] = {str(i): {} for i in range(config.n_agents)}
    best_rate = {} if report is None else report.best_rate
    for i, theta, slope, r_theta, passed in rate_checks(log, best_rate):
        rates[str(i)][labels[theta]] = {
            "slope": slope,
            "insufficient": slope is None,
            "R": r_theta,
            "pass": passed,
        }

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
        "theory": None if report is None else {
            "identifiable": report.identifiable,
            "witness": [[labels[p], labels[q]] for p, q in report.witness],
            "best_rate": {
                labels[t]: None if entry is None else {"R": entry[0], "agent": entry[1]}
                for t, entry in sorted(report.best_rate.items())
            },
        },
        "rates": rates,
    }


# -- output files ---------------------------------------------------------

#: ``trajectories.csv`` rows each formatting process must have to itself
#: (:func:`_process_count`).  Forking a worker, reaping it and appending its
#: part costs 2-3 ms, as long as formatting about 1,000 rows (2.4 us a row
#: at 50 agents and 16 classes on a 2-vCPU Xeon); the floor is ten times
#: that, so a worker on an idle CPU saves several times its cost, and one
#: that finds no idle CPU loses a few percent.
ROWS_PER_PROCESS = 10_000


def _process_count(rows: int) -> int:
    """How many processes format ``rows`` trajectory rows: one per usable
    CPU, at most one per :data:`ROWS_PER_PROCESS` rows; one (no fork)
    without ``os.fork`` or while another thread is alive, since a forked
    child holds only the forking thread and whatever locks the others
    held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, rows // ROWS_PER_PROCESS))


def _format_round(t: int, heads: list[str], lp_t: np.ndarray, lm_t: np.ndarray) -> str:
    """Round ``t``'s rows of ``trajectories.csv``, one per (agent, class).

    ``heads[r]`` is row r's text between the round and the cells, ending in
    a comma.  Each distinct log (:func:`~.formats.distinct`) gets its
    ``repr`` and that of its ``math.exp`` once, both gathered by one
    inverse; the rows are one join of the fixed pieces and the cells.
    """
    values, gather = distinct(np.concatenate((lp_t, lm_t), axis=None))
    logs = gather(list(map(float.__repr__, values)))
    exps = gather(list(map(float.__repr__, map(math.exp, values))))
    k, comma = len(heads), repeat(",")
    cells = (exps[:k], comma, exps[k:], comma, logs[:k], comma, logs[k:])
    rows = zip(repeat(str(t)), heads, *cells, repeat("\n"))
    return "".join(chain.from_iterable(rows))


def _format_part_and_exit(part, rounds: range, fmt) -> None:
    """In a forked worker: format ``rounds`` into ``part`` and leave the
    process, with status 0 or, if anything raised, 1.  Never returns, and
    never flushes the stdio or the files it inherited."""
    status = 1
    try:
        for t in rounds:
            part.write(fmt(t))
        part.flush()
        status = 0
    finally:
        os._exit(status)


def write_trajectories_csv(path, labels, log_pi: np.ndarray, log_mu: np.ndarray) -> None:
    """Write one row per (round, agent, class): the local and global beliefs,
    ``math.exp`` of the logs, and the logs, every float as its ``repr``.

    Rows go out round by round.  The rounds are split into contiguous
    chunks, one per process (:func:`_process_count`: one per usable CPU
    above :data:`ROWS_PER_PROCESS` rows each).  Forked workers format every
    chunk but the first into unnamed temporary files beside ``path`` while
    this process formats the first; it then reaps the workers in order and
    appends their parts.  The bytes do not depend on the number of
    processes.  A worker that fails raises :class:`OSError`.  Whatever is
    raised, no worker outlives the call and ``path`` is removed.
    """
    label_cells = [csv_cell(label) for label in labels]
    heads = [f",{i},{cell}," for i in range(log_pi.shape[1]) for cell in label_cells]

    def fmt(t: int) -> str:
        return _format_round(t, heads, log_pi[t], log_mu[t])

    n_rounds = log_pi.shape[0]
    count = max(1, min(_process_count(log_pi.size), n_rounds))
    chunks = [
        range(n_rounds * k // count, n_rounds * (k + 1) // count)
        for k in range(count)
    ]
    try:
        with open(path, "w", newline="") as f, ExitStack() as parts_open:
            f.write("round,agent,class,pi,mu,log_pi,log_mu\n")
            parts = [
                parts_open.enter_context(
                    tempfile.TemporaryFile("w+", dir=Path(path).parent, newline="")
                )
                for _ in chunks[1:]
            ]
            pids: list[int] = []
            try:
                for part, rounds in zip(parts, chunks[1:]):
                    pid = os.fork()
                    if pid == 0:
                        _format_part_and_exit(part, rounds, fmt)
                    pids.append(pid)
                for t in chunks[0]:
                    f.write(fmt(t))
                f.flush()
                for part in parts:
                    status = os.waitpid(pids.pop(0), 0)[1]
                    if status:
                        raise OSError(
                            f"{path}: a formatting worker exited with status "
                            f"{os.waitstatus_to_exitcode(status)}"
                        )
                    part.seek(0)
                    shutil.copyfileobj(part.buffer, f.buffer)
            finally:
                for pid in pids:
                    os.waitpid(pid, 0)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def write_outputs(log: TrajectoryLog, out_dir) -> dict[str, Path]:
    """Write a run's ``trajectories.csv``, ``summary.json``,
    ``posteriors.csv`` and ``manifest.json``; returns their paths.

    ``trajectories.csv`` may be formatted by forked workers, one per usable
    CPU above :data:`ROWS_PER_PROCESS` rows each
    (:func:`write_trajectories_csv`); its bytes are the same whatever the
    number of workers, and a failed write leaves no ``trajectories.csv``.
    Rewriting the same log always produces byte-identical files.  A
    sweep's log (:func:`run_batch`) has no draws to write and is refused
    with :class:`ValueError` before any file is written.
    """
    if log.observations is None:
        raise ValueError("write_outputs needs a log of run_experiment, with its draws")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = log.config

    traj_path = out_dir / "trajectories.csv"
    write_trajectories_csv(
        traj_path, config.world.classes.labels, log.log_pi, log.log_mu
    )

    summary_path = out_dir / "summary.json"
    summary_path.write_text(json_text(summary(log)) + "\n")

    posteriors_path = out_dir / "posteriors.csv"
    write_replay_csv(posteriors_path, config.world, config.scopes, log.streams)

    manifest_path = out_dir / "manifest.json"
    manifest = {"package_version": __version__, "config": config.to_dict()}
    manifest_path.write_text(json_text(manifest) + "\n")

    return {
        "trajectories": traj_path,
        "summary": summary_path,
        "posteriors": posteriors_path,
        "manifest": manifest_path,
    }
