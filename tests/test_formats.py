"""Artifact serialisation: the JSON emitter and the CSV writers against the
former writers in ``oracles``, byte for byte."""

from __future__ import annotations

import ast
import json
import math
import os
import re
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from myopic_crowd import sim
from myopic_crowd.classifier import AgentScope, write_replay_csv
from myopic_crowd.cli import main
from myopic_crowd.dynamics import LOG_FLOOR
from myopic_crowd.errors import DimensionMismatch
from myopic_crowd.formats import Columns, format_once, json_text
from myopic_crowd.sim import write_trajectories_csv
from myopic_crowd.world import build_world

SRC = Path(__file__).resolve().parents[1] / "src" / "myopic_crowd"
W3_JSON = Path(__file__).resolve().parents[1] / "configs" / "w3.json"

SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, LOG_FLOOR, 5e-324]

# Non-ASCII, control characters, quotes, backslashes and format braces.
texts = st.text() | st.sampled_from(["", "é", "\x00\x1f", '"\\', "{0}", "a,b", " "])
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | floats
    | floats.map(np.float64)
    | texts
)


@st.composite
def uniform_rows(draw, values):
    """A list of dicts over one key set, each column drawn from ``values``."""
    keys = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 6))
    return [{k: draw(values) for k in keys} for _ in range(n)]


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(texts, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(floats, children, max_size=3)
        | st.lists(
            st.dictionaries(st.sampled_from("abc"), children, max_size=3), max_size=4
        )
        | uniform_rows(children)
    )


# Rows over overlapping key sets: some share the first row's keys, some not.
unequal_rows = st.lists(
    st.dictionaries(st.sampled_from("abc"), scalars, min_size=1, max_size=3),
    min_size=2,
    max_size=4,
)
documents = st.recursive(
    scalars | uniform_rows(scalars) | unequal_rows | st.lists(floats) | st.lists(texts),
    containers,
    max_leaves=30,
)


@given(documents)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == oracles.json_reference(doc)


# Column tables: keys with format characters, quotes and non-ASCII text;
# columns of one scalar type, of mixed scalars (int, bool, None, NaN, ±inf),
# of lists of scalars (empty lists too), and of lists of lists, which
# json_text renders through its fallback.
column_cells = st.sampled_from(
    [
        st.integers(),
        floats,
        texts,
        scalars,
        st.lists(floats, max_size=3),
        st.lists(scalars, max_size=3),
        scalars | st.lists(scalars, max_size=3),
        st.lists(st.lists(scalars, max_size=2), max_size=2),
    ]
)


@st.composite
def column_tables(draw):
    key_texts = texts | st.sampled_from(["%", "%s", "{", '"'])
    keys = draw(st.lists(key_texts, max_size=4, unique=True))
    n = draw(st.integers(0, 5))
    return Columns(
        {k: draw(st.lists(draw(column_cells), min_size=n, max_size=n)) for k in keys}
    )


def _expanded(doc):
    """``doc`` with every column table turned into its list of dicts."""
    if isinstance(doc, Columns):
        return [dict(zip(doc, cells)) for cells in zip(*doc.values())]
    if isinstance(doc, dict):
        return {k: _expanded(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_expanded(v) for v in doc]
    return doc


@given(st.recursive(scalars | column_tables(), containers, max_leaves=12))
def test_json_text_renders_column_tables_as_lists_of_dicts(doc):
    assert json_text(doc) == oracles.json_reference(_expanded(doc))


def _outcome(encode, doc):
    try:
        return encode(doc), None
    except Exception as e:  # the exception type is the result compared
        return None, type(e)


unencodable = st.sampled_from(
    [np.int64(3), np.float32(1.5), np.bool_(True), {1, 2}, b"x", object(), 1j]
)
mixed_keys = st.dictionaries(
    st.none() | st.booleans() | st.integers() | texts, scalars, max_size=4
)


@given(
    st.recursive(
        scalars | unencodable,
        lambda children: containers(children)
        | st.dictionaries(st.tuples(st.integers()), children, min_size=1, max_size=2)
        | mixed_keys,
        max_leaves=20,
    )
)
def test_json_text_raises_what_json_dumps_raises(doc):
    ours, ours_error = _outcome(json_text, doc)
    reference, reference_error = _outcome(oracles.json_reference, doc)
    assert ours_error is reference_error
    assert ours == reference


@pytest.mark.parametrize(
    "wrap", [lambda c: [c], lambda c: {"k": c}, lambda c: [{"a": c}, {"a": 1}]]
)
def test_json_text_rejects_circular_references(wrap):
    loop: list = []
    loop.append(wrap(loop))
    with pytest.raises(ValueError, match="Circular"):
        oracles.json_reference(loop)
    with pytest.raises(ValueError, match="Circular"):
        json_text(loop)


def test_json_text_keeps_both_zeros_in_a_float_column():
    table = Columns({"x": [0.0, -0.0, 1.5, -0.0, 0.0], "y": [-0.0] * 5})
    rows = [dict(zip(table, cells)) for cells in zip(*table.values())]
    assert json_text(table) == json.dumps(rows, indent=2, sort_keys=True)
    assert json_text([-0.0, 0.0, -0.0]) == json.dumps([-0.0, 0.0, -0.0], indent=2)


def _exp_repr(v: float) -> str:
    return float.__repr__(math.exp(v))


def _from_bits(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0].item()


def _bits(v: float) -> int:
    return int(np.array([v], dtype=np.float64).view(np.uint64)[0])


# NaNs whose payloads differ, subnormals, and both zeros and infinities.
BIT_FLOATS = SPECIAL_FLOATS + [
    _from_bits(0x7FF8000000000001),
    _from_bits(0xFFF8000000000000),
    _from_bits(0x7FF4000000000000),
    -5e-324,
    2.225073858507201e-308,
]

# Lists with heavy repeats: a few special and finite values drawn many
# times, NaN objects among them both shared and fresh.
repeated_floats = st.lists(
    st.floats(max_value=700.0) | st.just(math.nan), min_size=1, max_size=3
).flatmap(
    lambda few: st.lists(
        st.sampled_from(BIT_FLOATS + few) | st.builds(float, st.just("nan")),
        max_size=40,
    )
)


@given(
    repeated_floats,
    st.booleans(),
    st.sampled_from([float.__repr__, _exp_repr]),
)
@example([], False, float.__repr__)
@example([], True, float.__repr__)
@example([-0.0], False, float.__repr__)
@example([5e-324], True, _exp_repr)
@example(BIT_FLOATS, True, float.__repr__)
def test_format_once_matches_formatting_each_value(values, as_array, fmt):
    given = np.array(values, dtype=np.float64) if as_array else values
    assert format_once(fmt, given) == [fmt(v) for v in values]


def test_format_once_formats_each_distinct_value_once():
    calls = []

    def fmt(v):
        calls.append(v)
        return repr(v)

    values = [1.5, 0.0, 1.5, 0.0, 2.5]
    assert format_once(fmt, values) == list(map(repr, values))
    assert sorted(calls) == [0.0, 1.5, 2.5]

    # One call per distinct 64-bit pattern: both zeros, each NaN payload.
    calls.clear()
    assert format_once(fmt, [0.0, -0.0, 0.0]) == ["0.0", "-0.0", "0.0"]
    assert len(calls) == 2
    calls.clear()
    values = BIT_FLOATS + BIT_FLOATS[::-1]
    assert format_once(fmt, np.array(values)) == list(map(repr, values))
    assert sorted(map(_bits, calls)) == sorted(set(map(_bits, values)))


# -- CSV writers ----------------------------------------------------------

labels_st = st.lists(
    st.sampled_from(["a", "b,c", 'say "x"', "line\nbreak", "cr\r", "é", "{0}", ""])
    | st.text(),
    min_size=2,
    max_size=4,
    unique=True,
)
log_values = st.sampled_from([-0.0, 0.0, LOG_FLOOR, math.nan, -math.inf]) | st.floats(
    min_value=-800.0, max_value=0.0
)


@st.composite
def belief_logs(draw, max_rounds=4):
    labels = draw(labels_st)
    rounds, n = draw(st.integers(1, max_rounds)), draw(st.integers(1, 3))
    shape = (rounds, n, len(labels))
    size = int(np.prod(shape))
    arrays = [
        np.array(draw(st.lists(log_values, min_size=size, max_size=size)))
        for _ in range(2)
    ]
    return labels, arrays[0].reshape(shape), arrays[1].reshape(shape)


@given(belief_logs())
def test_trajectories_csv_matches_per_row_writer(tmp_path_factory, case):
    labels, log_pi, log_mu = case
    out = tmp_path_factory.mktemp("traj")
    write_trajectories_csv(out / "fast.csv", labels, log_pi, log_mu)
    oracles.trajectories_csv_reference(out / "ref.csv", labels, log_pi, log_mu)
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_trajectories_csv_keeps_both_zeros_in_one_round(tmp_path):
    log_pi = np.array([[[0.0, -0.0], [-0.0, 0.0]]])
    write_trajectories_csv(tmp_path / "t.csv", ["a", "b"], log_pi, log_pi[:, ::-1])
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert [row.split(",")[5:] for row in rows] == [
        ["0.0", "-0.0"], ["-0.0", "0.0"], ["-0.0", "0.0"], ["0.0", "-0.0"]
    ]


# Six rounds, one agent: chunks start at round 3 for two processes, at 2
# and 4 for three and at 1 to 4 for five.  Rounds 2, 3 and 4 hold a
# negative zero, the first two beside a positive one.
_ZEROS_ON_BOUNDARIES = np.array(
    [[[-1.5, 0.0]], [[-2.5, 0.0]], [[-0.0, 0.0]], [[0.0, -0.0]], [[-0.0, -3.0]]]
    + [[[0.0, -1.5]]]
)


@given(belief_logs(max_rounds=7))
@example((["a", "b"], _ZEROS_ON_BOUNDARIES, _ZEROS_ON_BOUNDARIES[:, :, ::-1]))
def test_trajectories_csv_bytes_do_not_depend_on_the_process_count(
    tmp_path_factory, case
):
    labels, log_pi, log_mu = case
    out = tmp_path_factory.mktemp("traj")
    oracles.trajectories_csv_reference(out / "ref.csv", labels, log_pi, log_mu)
    real_fork = os.fork
    for count in (1, 2, 3, 5):
        forks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_process_count", lambda rows: count)
            mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
            write_trajectories_csv(out / "t.csv", labels, log_pi, log_mu)
        assert len(forks) == min(count, len(log_pi)) - 1
        assert (out / "t.csv").read_bytes() == (out / "ref.csv").read_bytes(), count
    assert sorted(p.name for p in out.iterdir()) == ["ref.csv", "t.csv"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("side", ["worker", "parent"])
def test_run_reaps_its_formatting_workers_when_one_side_fails(
    side, tmp_path, monkeypatch, capsys
):
    # w3 has 501 rounds: with two processes the worker formats 250 onwards.
    format_round = sim._format_round
    parent = os.getpid()

    def failing(t, *args):
        if side == "worker" and t == 400:
            raise ValueError("cannot format round 400")
        if side == "parent" and os.getpid() == parent:
            raise OSError("cannot format in the run process")
        return format_round(t, *args)

    monkeypatch.setattr(sim, "_process_count", lambda rows: 2)
    monkeypatch.setattr(sim, "_format_round", failing)
    out = tmp_path / "out"
    assert main(["run", "--config", str(W3_JSON), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(out.iterdir()) == []
    _assert_no_child_left()


@pytest.mark.parametrize("why", ["no os.fork", "another thread"])
def test_trajectories_csv_does_not_fork_without_fork_or_beside_a_thread(
    why, tmp_path, monkeypatch
):
    log_pi = np.linspace(-30.0, 0.0, 6 * 2 * 3).reshape(6, 2, 3)
    log_mu = np.minimum(log_pi, log_pi[:, ::-1])
    labels = ["a", "b", "c"]
    monkeypatch.setattr(sim, "ROWS_PER_PROCESS", 1)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
    )
    assert sim._process_count(log_pi.size) == 4
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "no os.fork":
        monkeypatch.delattr(os, "fork")
    else:

        def refuse():
            raise AssertionError("forked beside another thread")

        monkeypatch.setattr(os, "fork", refuse)
        thread.start()
    try:
        write_trajectories_csv(tmp_path / "t.csv", labels, log_pi, log_mu)
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(timeout=10)
    assert not thread.is_alive()
    oracles.trajectories_csv_reference(tmp_path / "ref.csv", labels, log_pi, log_mu)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _replaced(row, j, value):
    return [*row[:j], value, *row[j + 1 :]]


@st.composite
def replay_streams(draw):
    """Streams whose rows repeat: each agent draws its rows from a small pool
    that holds rows differing only in a zero's sign, by one ulp, or in a NaN
    (of either sign), so a writer that formats each distinct row once must
    tell rows apart by their bytes."""
    labels = draw(labels_st)
    m = len(labels)
    world = build_world(labels, ["x"], [[1.0]] * m, 0)
    rounds = draw(st.integers(0, 12))
    scopes, series = [], []
    for agent_id in range(draw(st.integers(1, 3))):
        theta = draw(st.permutations(range(m)))[: draw(st.integers(1, m))]
        prior = np.full(len(theta), 1 / len(theta))
        scopes.append(AgentScope(agent_id, tuple(theta), prior))
        k = len(theta)
        cells = log_values | st.floats(0.0, 1.0)
        base = draw(st.lists(cells, min_size=k, max_size=k))
        j = draw(st.integers(0, k - 1))
        pool = [
            base,
            _replaced(base, j, 0.0),
            _replaced(base, j, -0.0),
            _replaced(base, j, math.nextafter(base[j], math.inf)),
            _replaced(base, j, math.nan),
            _replaced(base, j, -math.nan),
            *draw(st.lists(st.lists(cells, min_size=k, max_size=k), max_size=2)),
        ]
        rows = draw(st.lists(st.sampled_from(pool), min_size=rounds, max_size=rounds))
        series.append(np.array(rows, dtype=float).reshape(rounds, k))
    return world, scopes, series


@given(replay_streams())
def test_replay_csv_matches_csv_writer(tmp_path_factory, case):
    world, scopes, series = case
    out = tmp_path_factory.mktemp("replay")
    streams = [(s, np.arange(len(s))) for s in series]
    write_replay_csv(out / "fast.csv", world, scopes, streams)
    labels = world.classes.labels
    oracles.replay_csv_reference(
        out / "ref.csv", labels, oracles.replay_rows(labels, scopes, series)
    )
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_replay_csv_rejects_series_that_do_not_fit_the_scopes(
    w3_world, w3_scopes, tmp_path
):
    fits = [np.full((2, s.size), 1 / s.size) for s in w3_scopes]
    too_few = fits[:2]
    short_agent = [fits[0], fits[1][:1], fits[2]]
    narrow_agent = [fits[0][:, :1], *fits[1:]]
    for series in (too_few, short_agent, narrow_agent):
        with pytest.raises(DimensionMismatch):
            streams = [(s, np.arange(len(s))) for s in series]
            write_replay_csv(tmp_path / "bad.csv", w3_world, w3_scopes, streams)


# -- one serialisation path -----------------------------------------------

def test_artifacts_have_one_writer_per_format():
    """Only ``formats`` may produce indented JSON, and nothing in the package
    uses ``csv.writer``: a second writer beside the fast one would drift."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "writer":
                if isinstance(node.value, ast.Name) and node.value.id == "csv":
                    offenders.append(f"{path.name}:{node.lineno}: csv.writer")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps"
                and any(k.arg == "indent" for k in node.keywords)
                and path.name != "formats.py"
            ):
                offenders.append(f"{path.name}:{node.lineno}: dumps(indent=...)")
    assert offenders == []


def test_floats_have_one_memo_rule():
    """Only ``formats.distinct`` finds distinct values, by their bits with
    ``np.unique``, so no writer needs a sign test: a writer with its own
    memo and its own negative-zero check once sat beside it."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name in ("copysign", "signbit"):
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
                if name == "unique" and owner != ("formats.py", "distinct"):
                    offenders.append(f"{path.name}:{node.lineno}: unique")
    assert offenders == []


def test_config_files_have_one_reader_and_one_key_check():
    """Only ``world.read_json`` parses JSON, and only ``world.check_keys``
    refuses unknown keys: per-object copies of either once drifted apart."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"
                    and owner != ("world.py", "read_json")
                ):
                    offenders.append(f"{path.name}:{node.lineno}: json.{node.attr}")
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and re.search(r"unknown\b.*\bkeys", node.value)
                    and owner != ("world.py", "check_keys")
                ):
                    offenders.append(f"{path.name}:{node.lineno}: unknown keys")
    assert offenders == []


def test_posterior_tables_have_one_builder():
    """``classifier.posterior_tables`` is the one builder of posterior
    tables: no module reaches into ``classifier``'s private names, and no
    module but ``classifier`` and the config reader that sets it handles the
    noise level γ."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                "classifier"
            ):
                offenders += [
                    f"{path.name}:{node.lineno}: imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id == "classifier"
            ):
                offenders.append(f"{path.name}:{node.lineno}: reads {node.attr}")
        if path.name not in ("classifier.py", "config.py") and "gamma" in text:
            offenders.append(f"{path.name}: mentions gamma")
    assert offenders == []


def test_package_file_holds_only_its_version():
    """Each name is reached through the module that defines it: the package
    file imports nothing and lists no ``__all__``, so its namespace holds only
    dunders and the submodules that importing the CLI loads."""
    import myopic_crowd
    import myopic_crowd.cli  # noqa: F401

    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []
    assert "__all__" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names = [
        name
        for name, value in vars(myopic_crowd).items()
        if not (name.startswith("__") and name.endswith("__"))
        and not isinstance(value, types.ModuleType)
    ]
    assert names == []
    assert myopic_crowd.__version__ == "0.1.0"
