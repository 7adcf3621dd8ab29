"""Text encodings shared by the artifact writers.

Every JSON artifact is exactly ``json.dumps(doc, indent=2, sort_keys=True)``.
CPython uses its C encoder only without ``indent``, so :func:`json_text`
renders the same bytes itself: strings through the C string encoder, floats
through ``float.__repr__`` and ints through ``int.__repr__``, as the
standard encoder does.  A list of scalars renders through one typed
``map``.  A :class:`Columns` table, ``{key: list of cells}``, renders as
its list of rows: each column's cells go through one typed ``map``,
interleaved with the fixed text between cells.  Everything else, lists of
dicts included, goes through the generic recursion; the fragments are
joined once.
It raises what ``json.dumps`` raises: ``TypeError`` for a value or key
JSON cannot hold, ``ValueError`` for a circular reference.

:func:`format_once` is the writers' one memo rule: a JSON float column and
each round of ``trajectories.csv`` format each distinct float, found by one
``np.unique`` of their bits, once.  :func:`csv_cell` quotes as ``csv.writer``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring_ascii as _string

import numpy as np

_INDENT = "  "


class Columns(dict):
    """A list of uniform rows held as columns, ``{key: list of cells}`` with
    one cell per row in every list.  A cell is a scalar or a list of
    scalars; :func:`json_text` renders the table as its list of dicts."""


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, with
    every :class:`Columns` table expanded to its list of dicts."""
    out: list[str] = []
    _emit(doc, "\n", set(), out)
    return "".join(out)


def csv_cell(text: str) -> str:
    """``text`` as one cell of a multi-cell CSV row, quoted as
    ``csv.writer`` quotes it: only when it holds a comma, quote or line
    break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def distinct(values) -> tuple[list, Callable[[list], list]]:
    """The distinct entries of the floats ``values``, keyed by their 64-bit
    pattern (so ``-0.0`` and ``0.0`` stay apart), as Python floats; and a
    ``gather`` that maps one text per distinct entry to one per entry."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    keys, inverse = np.unique(a.view(np.int64), return_inverse=True)
    entries = keys.view(np.float64).tolist()
    return entries, lambda texts: np.array(texts, dtype=object)[inverse].tolist()


def format_once(fmt, values) -> list[str]:
    """``fmt(v)`` for each float ``v`` of ``values``, calling ``fmt`` once
    per :func:`distinct` entry."""
    entries, gather = distinct(values)
    return gather(list(map(fmt, entries)))


def _float(o: float) -> str:
    if math.isfinite(o):
        return float.__repr__(o)
    return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"


def _scalar(o) -> str | None:
    """JSON text of a scalar, or None for anything else."""
    if isinstance(o, str):
        return _string(o)
    if o is None or isinstance(o, bool):
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    return None


def _emit(o, nl: str, markers: set, out: list) -> None:
    """Append the JSON text of ``o``, whose closing bracket, if any, follows
    ``nl``, to ``out``."""
    text = _scalar(o)
    if text is not None:
        out.append(text)
        return
    if not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    if not o:
        out.append("{}" if isinstance(o, dict) and not isinstance(o, Columns) else "[]")
        return
    marker = id(o)
    if marker in markers:
        raise ValueError("Circular reference detected")
    markers.add(marker)
    inner = nl + _INDENT
    if isinstance(o, Columns):
        if not _table(o, nl, out):
            _emit([dict(zip(o, cells)) for cells in zip(*o.values())], nl, markers, out)
    elif isinstance(o, dict):
        prefix = "{" + inner
        for k, v in sorted(o.items()):
            out.append(prefix + _key(k) + ": ")
            prefix = "," + inner
            _emit(v, inner, markers, out)
        out.append(nl + "}")
    elif (cells := _column(o)) is not None:
        out.append(_array(cells, nl))
    else:
        prefix = "[" + inner
        for v in o:
            out.append(prefix)
            prefix = "," + inner
            _emit(v, inner, markers, out)
        out.append(nl + "]")
    markers.discard(marker)


def _key(k) -> str:
    """A key's JSON text: a string, or a scalar's JSON text as a string."""
    text = k if isinstance(k, str) else _scalar(k)
    if text is None:
        name = k.__class__.__name__
        raise TypeError(f"keys must be str, int, float, bool or None, not {name}")
    return _string(text)


def _column(values) -> list[str] | None:
    """Each value's JSON text through one typed map (floats through
    :func:`format_once`), or None when a value is not a scalar."""
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types):
        return format_once(_float, values)
    if all(issubclass(t, int) and t is not bool for t in types):
        return list(map(int.__repr__, values))
    if types == {str}:
        memo = {s: _string(s) for s in set(values)}
        return list(map(memo.__getitem__, values))
    if all(t is type(None) or issubclass(t, (str, int, float)) for t in types):
        return list(map(_scalar, values))
    return None


def _array(items: list[str], nl: str) -> str:
    """The JSON array of ``items``' texts, its closing bracket following ``nl``."""
    inner = nl + _INDENT
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"


def _cells(values, nl: str) -> list[str] | None:
    """Each cell's JSON text, when the cells are all scalars or all lists of
    scalars (a list's closing bracket following ``nl``); None otherwise."""
    texts = _column(values)
    if texts is not None or not all(isinstance(v, (list, tuple)) for v in values):
        return texts
    items = _column(list(chain.from_iterable(values)))
    ends = list(accumulate(map(len, values)))
    bounds = zip([0, *ends], ends)
    return None if items is None else [_array(items[a:b], nl) for a, b in bounds]


def _table(table: Columns, nl: str, out: list) -> bool:
    """Append a :class:`Columns` table as its list of dicts: the fixed text
    between cells interleaved with each column's cell texts.  False,
    appending nothing, when a key is not a string or a cell is neither a
    scalar nor a list of scalars."""
    if set(map(type, table)) != {str}:
        return False
    inner = nl + _INDENT
    field = inner + _INDENT
    keys = sorted(table)
    columns = [_cells(table[k], field) for k in keys]
    if None in columns:
        return False
    # Every row opens with the separator; the first row's opens the list.
    glue = ["," + inner + "{" + field] + ["," + field] * (len(keys) - 1)
    parts = []
    for g, k, cells in zip(glue, keys, columns):
        parts += (repeat(g + _string(k) + ": "), cells)
    start = len(out)
    out.extend(chain.from_iterable(zip(*parts, repeat(inner + "}"))))
    if len(out) > start:
        out[start] = "[" + out[start][1:]
    out.append(nl + "]" if len(out) > start else "[]")
    return True
