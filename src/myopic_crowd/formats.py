"""Text encodings shared by the artifact writers.

Every JSON artifact is exactly ``json.dumps(doc, indent=2, sort_keys=True)``.
CPython uses its C encoder only without ``indent``, so :func:`json_text`
renders the same bytes itself: strings through the C string encoder, floats
through ``float.__repr__`` and ints through ``int.__repr__``, as the
standard encoder does.  A list of scalars, or of dicts sharing one key set
of strings and holding only scalars, renders column by column, one typed
``map`` per column; everything else goes through the generic recursion.
It raises what ``json.dumps`` raises: ``TypeError`` for a value or key
JSON cannot hold, ``ValueError`` for a circular reference.

:func:`csv_cell` quotes a CSV cell as ``csv.writer`` does.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter

_INDENT = "  "


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte."""
    return _value(doc, "\n", set())


def csv_cell(text: str) -> str:
    """``text`` as one cell of a multi-cell CSV row, quoted as
    ``csv.writer`` quotes it: only when it holds a comma, quote or line
    break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


def _scalar(o) -> str | None:
    """JSON text of a scalar, or None for anything else."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    return None


def _value(o, nl: str, markers: set) -> str:
    """JSON text of ``o`` whose closing bracket, if any, follows ``nl``."""
    text = _scalar(o)
    if text is not None:
        return text
    if isinstance(o, (list, tuple)):
        return _container("[", "]", o, nl, markers)
    if isinstance(o, dict):
        return _container("{", "}", o, nl, markers)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _container(open_: str, close: str, o, nl: str, markers: set) -> str:
    if not o:
        return open_ + close
    marker = id(o)
    if marker in markers:
        raise ValueError("Circular reference detected")
    markers.add(marker)
    inner = nl + _INDENT
    if open_ == "{":
        items = [
            _key(k) + ": " + _value(v, inner, markers) for k, v in sorted(o.items())
        ]
    else:
        items = _column(o)
        if items is None:
            items = _rows(o, inner)
        if items is None:
            items = [_value(v, inner, markers) for v in o]
    markers.discard(marker)
    return open_ + inner + ("," + inner).join(items) + nl + close


def _key(k) -> str:
    if isinstance(k, str):
        return _string(k)
    if isinstance(k, float):
        return _string(_float(k))
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return _string(int.__repr__(k))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
    )


def _is_scalar_type(t: type) -> bool:
    return t is type(None) or issubclass(t, (str, int, float))


def _column(values) -> list[str] | None:
    """Each value's JSON text through one typed map, or None when a value
    is not a scalar."""
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types):
        finite = all(map(math.isfinite, values))
        return list(map(float.__repr__ if finite else _float, values))
    if all(issubclass(t, int) and t is not bool for t in types):
        return list(map(int.__repr__, values))
    if types == {str}:
        memo = {s: _string(s) for s in set(values)}
        return list(map(memo.__getitem__, values))
    if all(map(_is_scalar_type, types)):
        return list(map(_scalar, values))
    return None


def _rows(rows, nl: str) -> list[str] | None:
    """Each row's JSON text, when ``rows`` are plain dicts sharing one key
    set of strings and holding only scalars; None otherwise."""
    first = rows[0]
    if set(map(type, rows)) != {dict} or not first:
        return None
    if set(map(len, rows)) != {len(first)} or set(map(type, first)) != {str}:
        return None
    keys = sorted(first)
    try:
        columns = [_column(list(map(itemgetter(k), rows))) for k in keys]
    except KeyError:
        return None
    if None in columns:
        return None
    inner = nl + _INDENT
    fields = ("," + inner).join(
        _string(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in keys
    )
    template = "{{" + inner + fields + nl + "}}"
    return list(map(template.format, *columns))
