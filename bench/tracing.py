"""Traced run: spans around the public functions of each module.

The benchmark wraps functions from outside the package: each wrapped name is
replaced in every ``myopic_crowd`` module that holds a reference to it (for
instance ``sim`` imports ``score_report`` and ``cli`` imports the ``sim``
functions), so calls are traced whichever module makes them.  Spans (group,
function, start, end, parent) stay in memory until the run ends.

A layer's self time is the time its spans cover minus the time covered by
the wrapped calls they make; the self times of all groups add up to the
traced command's wall time.  A name that no longer exists is skipped and
every metric that reads only missing names is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

PACKAGE = "myopic_crowd"


def _trajectory_file_bytes(args, result) -> int:
    return Path(result["trajectories"]).stat().st_size


def _replay_file_bytes(args, result) -> int:
    return Path(args[0]).stat().st_size


def _log_rounds_and_bytes(args, result) -> tuple[int, int]:
    arrays = [
        result.log_pi,
        result.log_mu,
        result.clamped_pi,
        result.clamped_mu,
        result.observations,
        *result.posteriors,
    ]
    return result.log_mu.shape[0] - 1, sum(a.nbytes for a in arrays)


def _returned(args, result):
    return result


# (group, module, attribute, hook).  A hook turns (args, result) of a call
# that returned into a value stored on its span.
SPANS = [
    ("cli", "cli", "main", None),
    ("config.resolve", "config", "load_config", None),
    ("config.resolve", "config", "config_from_dict", None),
    ("config.resolve", "config", "ExperimentConfig.derived", None),
    ("world.build", "world", "load_world", None),
    ("world.build", "world", "world_from_dict", None),
    ("world.build", "world", "build_world", None),
    ("network.graph_build", "network", "load_graph", None),
    ("network.graph_build", "network", "erdos_renyi_connected", None),
    ("network.graph_build", "network", "AgentGraph.from_edges", None),
    ("network.graph_build", "network", "AgentGraph.from_adjacency", None),
    ("network.is_connected", "network", "is_connected", _returned),
    ("classifier.source_build", "classifier", "BayesOracle.__init__", None),
    ("classifier.source_build", "classifier", "NoisySource.__init__", None),
    ("classifier.source_build", "classifier", "replay_source_from_csv", None),
    ("classifier.replay_write", "classifier", "write_replay_csv", _replay_file_bytes),
    ("scores.report", "scores", "score_report", None),
    ("scores.report", "scores", "ScoreReport.to_dict", None),
    ("scores.identifiability", "scores", "check_global_identifiability", None),
    ("sim.run_experiment", "sim", "run_experiment", _log_rounds_and_bytes),
    ("sim.summary", "sim", "summary", None),
    ("sim.rate_fit", "sim", "estimate_rejection_rate", _returned),
    ("sim.identification", "sim", "time_to_identification", None),
    ("sim.identification", "sim", "first_identification", None),
    ("sim.write_outputs", "sim", "write_outputs", _trajectory_file_bytes),
]

# Called too often for a span each: counted only.
COUNTERS = [
    ("scores.pair_score", "scores", "discriminative_score"),
    ("scores.pair_score", "scores", "confusion_score"),
    ("scores.set", "scores", "source_set"),
    ("scores.set", "scores", "support_set"),
]


@dataclass
class Span:
    group: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: object = None
    returned: bool = False


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def span(self, group: str, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(group, name, perf_counter(), parent=stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span.returned = True
                if hook is not None:
                    try:
                        span.info = hook(args, result)
                    except (AttributeError, KeyError, TypeError, OSError):
                        pass  # a changed return shape leaves the metric absent
                return result
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def counter(self, group: str, fn):
        counts = self.counts
        counts.setdefault(group, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        return counted


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    undo = []
    modules = _package_modules()
    wanted = [(g, m, a, h, True) for g, m, a, h in SPANS]
    wanted += [(g, m, a, None, False) for g, m, a in COUNTERS]
    for group, module, attr, hook, is_span in wanted:
        qualname = f"{module}.{attr}"
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(qualname)
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        wrapper = (
            tracer.span(group, qualname, fn, hook) if is_span else tracer.counter(group, fn)
        )
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(wrapper)
        if path:
            undo.append((owner, leaf, raw))
            setattr(owner, leaf, wrapper)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is raw:
                    undo.append((mod, name, raw))
                    setattr(mod, name, wrapper)
    try:
        yield tracer
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)


# -- per-layer metrics ----------------------------------------------------

#: Per-layer metrics with their units, in report order.
UNITS = {
    "config.resolve_s": "s",
    "config.resolve_calls": "count",
    "network.graph_build_s": "s",
    "network.is_connected_calls": "count",
    "network.is_connected_s": "s",
    "network.er_accept_ratio": "ratio",
    "world.build_s": "s",
    "classifier.source_builds": "count",
    "classifier.source_build_s": "s",
    "classifier.replay_write_s": "s",
    "classifier.replay_write_mb": "MB",
    "scores.report_s": "s",
    "scores.pair_score_calls": "count",
    "scores.set_calls": "count",
    "scores.identifiability_s": "s",
    "scores.identifiability_calls": "count",
    "sim.run_experiment_s": "s",
    "sim.run_experiment_calls": "count",
    "sim.per_round_us": "us",
    "sim.result_mb": "MB",
    "sim.summary_s": "s",
    "sim.rate_fit_s": "s",
    "sim.rate_fit_calls": "count",
    "sim.rate_fit_usable_ratio": "ratio",
    "sim.identification_s": "s",
    "sim.write_outputs_s": "s",
    "sim.trajectory_mb_per_s": "MB/s",
    "cli.self_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of one traced command; None marks a metric absent
    because none of the calls it reads happened (or their names are gone)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s: dict[str, float] = {}
    by_group: dict[str, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for s, covered in zip(spans, child_time):
        self_s[s.group] = self_s.get(s.group, 0.0) + (s.end - s.start - covered)
        by_group.setdefault(s.group, []).append(s)
        by_name.setdefault(s.name, []).append(s)

    def seconds(group):
        return self_s.get(group)

    def calls(name):
        return len(by_name[name]) if name in by_name else None

    def count(group):
        return tracer.counts.get(group) or None

    def ratio(num, den):
        return num / den if den else None

    er_checks = [
        s
        for s in by_name.get("network.is_connected", [])
        if s.parent is not None and spans[s.parent].name == "network.erdos_renyi_connected"
    ]
    runs = [s.info for s in by_group.get("sim.run_experiment", []) if s.info is not None]
    fits = by_group.get("sim.rate_fit", [])
    written = [s.info for s in by_group.get("sim.write_outputs", []) if s.info is not None]
    replays = [s.info for s in by_group.get("classifier.replay_write", []) if s.info is not None]
    return {
        "config.resolve_s": seconds("config.resolve"),
        "config.resolve_calls": calls("config.config_from_dict"),
        "network.graph_build_s": seconds("network.graph_build"),
        "network.is_connected_calls": calls("network.is_connected"),
        "network.is_connected_s": seconds("network.is_connected"),
        "network.er_accept_ratio": ratio(sum(bool(s.info) for s in er_checks), len(er_checks)),
        "world.build_s": seconds("world.build"),
        "classifier.source_builds": len(by_group.get("classifier.source_build", [])) or None,
        "classifier.source_build_s": seconds("classifier.source_build"),
        "classifier.replay_write_s": seconds("classifier.replay_write"),
        "classifier.replay_write_mb": sum(replays) / 1e6 if replays else None,
        "scores.report_s": seconds("scores.report"),
        "scores.pair_score_calls": count("scores.pair_score"),
        "scores.set_calls": count("scores.set"),
        "scores.identifiability_s": seconds("scores.identifiability"),
        "scores.identifiability_calls": calls("scores.check_global_identifiability"),
        "sim.run_experiment_s": seconds("sim.run_experiment"),
        "sim.run_experiment_calls": calls("sim.run_experiment"),
        "sim.per_round_us": ratio(
            (seconds("sim.run_experiment") or 0.0) * 1e6, sum(r for r, _ in runs)
        ),
        "sim.result_mb": max(b for _, b in runs) / 1e6 if runs else None,
        "sim.summary_s": seconds("sim.summary"),
        "sim.rate_fit_s": seconds("sim.rate_fit"),
        "sim.rate_fit_calls": len(fits) or None,
        "sim.rate_fit_usable_ratio": ratio(sum(s.returned for s in fits), len(fits)),
        "sim.identification_s": seconds("sim.identification"),
        "sim.write_outputs_s": seconds("sim.write_outputs"),
        "sim.trajectory_mb_per_s": ratio(
            sum(written) / 1e6, seconds("sim.write_outputs") if written else None
        ),
        "cli.self_s": seconds("cli"),
    }
