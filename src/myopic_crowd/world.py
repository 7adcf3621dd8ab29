"""Ground-truth generative model: classes, finite input space, likelihood table.

The world defines the class set Θ, a finite input alphabet X, and one
row-stochastic likelihood table p(x|θ).  Observations are i.i.d. draws from
the row of the true class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    RowNotStochastic,
    UnknownClass,
)

#: Probability floor: likelihood and posterior entries below this are raised
#: to it and the vector renormalized, so log-domain arithmetic stays total; a
#: prior entry below it is a configuration error.
EPS = 1e-12

#: Tolerance for "sums to 1" checks on probability vectors.
ROW_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ClassSet:
    """Ordered collection of class labels; position k names hypothesis θ_k."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if len(self.labels) < 2:
            raise DimensionMismatch(
                f"need at least 2 classes, got {len(self.labels)}"
            )
        object.__setattr__(self, "_index", dict(zip(self.labels, range(self.m))))
        if len(self._index) != len(self.labels):
            raise DimensionMismatch("class labels must be unique")

    @property
    def m(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownClass(f"unknown class label {label!r}") from None


@dataclass(frozen=True)
class InputSpace:
    """Ordered finite alphabet of observation symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(str(x) for x in self.symbols))
        if len(self.symbols) < 1:
            raise DimensionMismatch("input space must contain at least 1 symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise DimensionMismatch("input symbols must be unique")

    @property
    def size(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True, eq=False)
class LikelihoodTable:
    """Row-stochastic m × |X| matrix with rows[k][x] = p(x | θ_k).

    Rows must sum to 1 within ROW_TOL; entries below EPS are floored and the
    row renormalized so every stored probability is strictly positive.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DimensionMismatch(
                f"likelihood table must be 2-d and nonempty, got shape {rows.shape}"
            )
        if not np.all((rows >= 0) & (rows <= 1)):
            raise RowNotStochastic("likelihood entries must lie in [0, 1]")
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_TOL)[0]
        if bad.size:
            raise RowNotStochastic(
                f"likelihood row {bad[0]} sums to {sums[bad[0]]!r}, expected 1"
            )
        rows = np.maximum(rows, EPS)
        rows = rows / rows.sum(axis=1, keepdims=True)
        object.__setattr__(self, "rows", _readonly(rows))

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class World:
    """Classes, input alphabet, likelihoods, and the data-generating class."""

    classes: ClassSet
    inputs: InputSpace
    likelihoods: LikelihoodTable
    true_class: int

    def __post_init__(self) -> None:
        if self.likelihoods.m != self.classes.m:
            raise DimensionMismatch(
                f"{self.likelihoods.m} likelihood rows for {self.classes.m} classes"
            )
        if self.likelihoods.n_symbols != self.inputs.size:
            raise DimensionMismatch(
                f"{self.likelihoods.n_symbols} likelihood columns for "
                f"{self.inputs.size} input symbols"
            )
        if not 0 <= self.true_class < self.classes.m:
            raise UnknownClass(f"true_class index {self.true_class} out of range")

    @property
    def m(self) -> int:
        return self.classes.m

    def true_row(self) -> np.ndarray:
        """Likelihood row of the data-generating class."""
        return self.likelihoods.rows[self.true_class]


def build_world(classes, inputs, likelihoods, true_class) -> World:
    """Validate and assemble a World.

    Accepts raw label/symbol sequences and raw row data in addition to the
    constructed types; ``true_class`` may be a label or an index.
    """
    if not isinstance(classes, ClassSet):
        classes = ClassSet(tuple(classes))
    if not isinstance(inputs, InputSpace):
        inputs = InputSpace(tuple(inputs))
    if not isinstance(likelihoods, LikelihoodTable):
        likelihoods = LikelihoodTable(np.asarray(likelihoods, dtype=float))
    if isinstance(true_class, str):
        true_class = classes.index(true_class)
    # An index out of range is refused by World itself.
    return World(classes, inputs, likelihoods, int(true_class))


# -- serialization --------------------------------------------------------

def world_to_dict(world: World) -> dict:
    return {
        "classes": list(world.classes.labels),
        "inputs": list(world.inputs.symbols),
        "likelihoods": [[float(v) for v in row] for row in world.likelihoods.rows],
        "true_class": world.classes.labels[world.true_class],
    }


def _numeric(v, depth: int) -> bool:
    """``v`` is JSON lists nested ``depth`` >= 1 deep of numbers."""
    if depth == 1:
        return isinstance(v, list) and {int, float}.issuperset(map(type, v))
    return isinstance(v, list) and all(_numeric(x, depth - 1) for x in v)


def json_numbers(key: str, value, ndim: int) -> np.ndarray:
    """``value`` as a float array: JSON lists nested ``ndim`` deep, of equal
    lengths at each depth, holding numbers (never bools or strings)."""
    if not _numeric(value, ndim) or (ndim == 2 and len({len(r) for r in value}) > 1):
        shape = "a list" if ndim == 1 else "a list of equal-length lists"
        raise ConfigError(f"{key} must be {shape} of numbers")
    return np.array(value, dtype=float)


_WORLD_KEYS = ("classes", "inputs", "likelihoods", "true_class")


def check_keys(name: str, doc: dict, allowed) -> None:
    """Refuse the keys of JSON object ``name`` that are not in ``allowed``."""
    unknown = set(doc).difference(allowed)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")


def read_json(path, what: str):
    """The JSON document in file ``path``; a file that cannot be read,
    decoded or parsed, or nests too deep, is a :class:`ConfigError` naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"cannot read {what} file {path}: {e}") from None


def world_from_dict(doc: dict) -> World:
    if not isinstance(doc, dict):
        raise ConfigError("world definition must be a JSON object")
    check_keys("world", doc, _WORLD_KEYS)
    missing = set(_WORLD_KEYS) - set(doc)
    if missing:
        raise ConfigError(f"world definition missing keys: {sorted(missing)}")
    for key in ("classes", "inputs"):
        if not isinstance(doc[key], list) or not all(
            isinstance(x, str) for x in doc[key]
        ):
            raise ConfigError(f"world {key} must be a list of strings")
    true_class = doc["true_class"]
    if not isinstance(true_class, (str, int)) or isinstance(true_class, bool):
        raise ConfigError("world true_class must be a class label or index")
    return build_world(
        doc["classes"],
        doc["inputs"],
        json_numbers("world likelihoods", doc["likelihoods"], 2),
        true_class,
    )


def load_world(path) -> World:
    return world_from_dict(read_json(path, "world"))
