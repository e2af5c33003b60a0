"""Domain types shared across the pricing game, bounds, and training simulator.

Per-client data lives in columns: a ``Population`` holds one read-only float
array per client field, and a result holds one read-only array per
per-client output. A ``FederatedDataset`` holds every client's training rows
in one read-only array. The records are frozen dataclasses, immutable after
construction and safe to share across concurrent workers, and equal when
their fields are. Construction validates every invariant so downstream
numerics never have to re-check inputs.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np


class PopulationError(ValueError):
    """Invalid client population input (mismatched lengths, bad per-client value)."""


# The per-client fields, and the names of Population's columns for them.
_FIELDS = ("datasize", "weight", "grad_bound", "cost_coeff", "intrinsic_pref", "q_max")
_COLUMNS = ("d", "a", "G", "c", "v", "q_max")

# One client of a population, for iteration only: its index and its fields.
_Row = namedtuple("_Row", ("index",) + _FIELDS)


def is_integer(value) -> bool:
    """An integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_rules(values, rules) -> None:
    """Raise ``ValueError`` for the first ``(key, holds, rule)`` that does not
    hold: ``<key> must be <rule>, got <values[key]>``."""
    for key, holds, rule in rules:
        if not holds:
            raise ValueError(f"{key} must be {rule}, got {values[key]}")


def _check_clients(columns: tuple) -> None:
    """Raise ``PopulationError`` naming the first client that breaks a row invariant.

    ``columns`` holds one float array per field of ``_FIELDS``. A client's
    checks run in a fixed order, every field's finiteness first, so the
    message names the field a row-by-row check would name.
    """
    d, a, G, c, v, q_max = columns
    checks = [(name, "must be finite", ~np.isfinite(col)) for name, col in zip(_FIELDS, columns)]
    checks += [
        ("datasize", "must be positive", ~(d > 0.0)),
        ("datasize", "must be an integer", d != np.floor(d)),
        ("weight", "must be in (0, 1]", ~((0.0 < a) & (a <= 1.0))),
        ("grad_bound", "must be positive", ~(G > 0.0)),
        ("cost_coeff", "must be positive", ~(c > 0.0)),
        ("intrinsic_pref", "must be nonnegative", v < 0.0),
        ("q_max", "must be in (0, 1]", ~((0.0 < q_max) & (q_max <= 1.0))),
    ]
    bad = np.stack([mask for _, _, mask in checks])
    clients = np.flatnonzero(bad.any(axis=0))
    if clients.size:
        n = int(clients[0])
        name, rule, _ = checks[int(np.argmax(bad[:, n]))]
        value = float(columns[_FIELDS.index(name)][n])
        if name == "datasize" and value.is_integer():
            value = int(value)
        raise PopulationError(f"client {n}: {name} {rule}, got {value}")


@dataclass(frozen=True)
class GameConstants:
    """Convergence-bound constants and the round/step budget of one game instance.

    ``q_floor`` is the solver's lower clamp on participation: the bound
    requires strictly positive participation, and the spend term diverges to
    -infinity as any q_n -> 0 for a client with positive intrinsic preference.
    """

    alpha: float
    beta: float
    rounds: int
    local_steps: int
    q_floor: float = 0.01

    def __post_init__(self):
        check_rules(vars(self), (
            ("alpha", is_finite(self.alpha), "a finite number"),
            ("beta", is_finite(self.beta), "a finite number"),
            ("alpha", self.alpha > 0.0, "positive"),
            ("beta", self.beta >= 0.0, "nonnegative"),
            ("rounds", self.rounds >= 1, ">= 1"),
            ("local_steps", self.local_steps >= 1, ">= 1"),
            ("q_floor", 0.0 < self.q_floor < 1.0, "in (0, 1)"),
        ))

    def to_dict(self) -> dict:
        return asdict(self)


def per_client(values, name: str, clients: int | None = None, dtype=float) -> np.ndarray:
    """``values`` as a read-only array of its own, after checking that it is
    1-D and, when ``clients`` is given, has one entry per client."""
    array = np.array(values, dtype=dtype)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if clients is not None and len(array) != clients:
        raise ValueError(f"{name} has {len(array)} entries for {clients} clients")
    array.flags.writeable = False
    return array


def participation_levels(q, clients: int | None = None) -> np.ndarray:
    """Participation levels as a read-only float array of their own, after
    checking that they are 1-D, one per client when ``clients`` is given, and
    each in [0, 1]; NaN fails. Every library function that takes levels
    checks them here."""
    levels = per_client(q, "participation", clients)
    outside = np.flatnonzero(~((levels >= 0.0) & (levels <= 1.0)))
    if outside.size:
        n = int(outside[0])
        raise ValueError(f"client {n}: participation probability {levels[n]} outside [0, 1]")
    return levels


class _FieldwiseEq:
    """Equality of two records of one type, field by field: arrays are compared
    whole, and other values as a tuple compares them. The records that hold
    arrays share it, since a dataclass's own ``__eq__`` cannot compare them."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x is y or x == y
                   for x, y in pairs)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class ParticipationVector(_FieldwiseEq):
    """Participation levels wrapped in a record, ``q`` being the checked
    array. No library function needs one: each takes the levels as any
    array-like, this record included."""

    q: np.ndarray

    def __init__(self, q):
        object.__setattr__(self, "q", participation_levels(q))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.q, dtype=dtype, copy=copy)


@dataclass(frozen=True, eq=False)
class EquilibriumResult(_FieldwiseEq):
    """A solved game instance: strategies, dual value, threshold, and diagnostics.

    ``q_star``, ``p_star``, ``payments`` and ``interior`` are read-only
    arrays with one entry per client. ``p_star`` holds each client's
    price per unit of participation level; a negative price means the client
    pays the server.
    """

    q_star: np.ndarray
    p_star: np.ndarray
    lambda_star: float
    v_threshold: float
    spend: float
    bound_value: float
    payments: np.ndarray
    interior: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "q_star", participation_levels(self.q_star))
        for name, dtype in (("p_star", float), ("payments", float), ("interior", bool)):
            values = per_client(getattr(self, name), name, len(self.q_star), dtype)
            object.__setattr__(self, name, values)


# A dataset's arrays, each with its dtype and number of dimensions.
_DATASET_ARRAYS = (("features", np.float64, 2), ("labels", np.int64, 1), ("sizes", np.int64, 1),
                   ("test_rows", np.float64, 2), ("test_labels", np.int64, 1))


@dataclass(frozen=True, eq=False)
class FederatedDataset(_FieldwiseEq):
    """Every client's training rows in one array, plus a shared test set.

    ``features`` holds the training rows of every client, client after
    client, in a C-contiguous float64 array of shape (N, dim + 1); each row
    ends in the 1.0 that the model's bias reads. ``labels`` holds their class
    indices, shape (N,), and ``sizes`` each client's row count, both int64, so
    client n owns the ``sizes[n]`` rows after those of clients 0 to n-1.
    ``test_rows`` and ``test_labels`` hold the test set in the same layout.
    Training, evaluation and calibration read these arrays in place.

    The constructor keeps the arrays it is given, without copying, and marks
    them read-only; ``from_shards`` pools per-client arrays into a new
    dataset. ``shards`` and ``test_features`` are read-only views of the rows
    without the bias column.
    """

    features: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    test_rows: np.ndarray
    test_labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if not (is_integer(self.n_classes) and self.n_classes >= 1):
            raise ValueError(f"n_classes must be a positive integer, got {self.n_classes!r}")
        arrays = [getattr(self, name) for name, _, _ in _DATASET_ARRAYS]
        for (name, dtype, ndim), array in zip(_DATASET_ARRAYS, arrays):
            if not (isinstance(array, np.ndarray) and array.dtype == dtype
                    and array.ndim == ndim and array.flags.c_contiguous):
                raise ValueError(f"{name} must be a {ndim}-D C-contiguous {dtype.__name__} array")
        features, labels, sizes, test_rows, test_labels = arrays
        if test_rows.shape[1] != features.shape[1]:
            raise ValueError(f"test_rows has {test_rows.shape[1]} columns, "
                             f"features {features.shape[1]}")
        for name, rows in (("features", features), ("test_rows", test_rows)):
            if not (rows.shape[1] and np.all(rows[:, -1] == 1.0)):
                raise ValueError(f"{name}: the last column must be the bias column of ones")
        if not sizes.size:
            raise ValueError("a dataset needs at least one client")
        empty = np.flatnonzero(sizes < 1)
        if empty.size:
            raise ValueError(f"client {int(empty[0])}: empty shard")
        if int(sizes.sum()) != len(features) or len(labels) != len(features):
            raise ValueError(f"{len(features)} feature rows and {len(labels)} labels, "
                             f"but the client sizes add up to {int(sizes.sum())}")
        if len(test_labels) != len(test_rows):
            raise ValueError("test features/labels length mismatch")
        outside = np.flatnonzero((labels < 0) | (labels >= self.n_classes))
        if outside.size:
            n = int(np.searchsorted(np.cumsum(sizes), outside[0], side="right"))
            raise ValueError(f"client {n}: label outside [0, {self.n_classes})")
        outside = np.flatnonzero((test_labels < 0) | (test_labels >= self.n_classes))
        if outside.size:
            raise ValueError(f"test row {int(outside[0])}: label outside [0, {self.n_classes})")
        for array in arrays:
            array.flags.writeable = False

    @classmethod
    def from_shards(cls, shards, test_features, test_labels, n_classes: int,
                    dim: int) -> FederatedDataset:
        """The dataset of the per-client ``(features, labels)`` shards, in
        client order, and the test set: every array copied into the pooled,
        bias-augmented layout."""
        shards = tuple(shards)
        for n, (x, y) in enumerate(shards):
            if np.shape(x) != (len(y), dim):
                raise ValueError(f"client {n}: features of shape {np.shape(x)} for {len(y)} "
                                 f"labels, expected ({len(y)}, {dim})")
        pooled = _Pooled(sum(len(y) for _, y in shards), dim)
        for x, y in shards:
            pooled.add(x, y)
        return cls(*pooled.done(), np.array([len(y) for _, y in shards], dtype=np.int64),
                   *_Pooled.block(test_features, test_labels, dim), n_classes)

    @property
    def dim(self) -> int:
        return self.features.shape[1] - 1

    @property
    def n_clients(self) -> int:
        return len(self.sizes)

    @property
    def datasizes(self) -> list:
        return self.sizes.tolist()

    @property
    def total_samples(self) -> int:
        return len(self.labels)

    @cached_property
    def weights(self) -> np.ndarray:
        """Each client's a_n = d_n / D, read-only; ``make_population``'s a, bit for bit."""
        weights = self.sizes / self.total_samples
        weights.flags.writeable = False
        return weights

    @cached_property
    def client_rows(self) -> tuple:
        """Client n's rows of ``features`` and ``labels``, as a slice per client."""
        ends = np.cumsum(self.sizes).tolist()
        return tuple(slice(end - size, end) for end, size in zip(ends, self.sizes.tolist()))

    @cached_property
    def shards(self) -> tuple:
        """(features, labels) per client: views, without the bias column."""
        return tuple((self.features[rows, :-1], self.labels[rows]) for rows in self.client_rows)

    @property
    def test_features(self) -> np.ndarray:
        """The test rows without the bias column: a view."""
        return self.test_rows[:, :-1]


class _Pooled:
    """Rows in a dataset's pooled layout, copied in block by block, in order.

    It allocates the float64 ``features`` of shape (rows, dim + 1) and the
    int64 ``labels`` once; ``done`` sets the bias column of ones and returns
    both. Labels that are not integers raise ``TypeError``.
    """

    def __init__(self, rows: int, dim: int):
        self.features = np.empty((rows, dim + 1))
        self.labels = np.empty(rows, dtype=np.int64)
        self.end = 0

    def add(self, x, y) -> None:
        """Copy the next ``len(y)`` rows: features ``x``, labels ``y``."""
        rows = slice(self.end, self.end + len(y))
        self.features[rows, :-1] = x
        np.copyto(self.labels[rows], y, casting="same_kind")
        self.end = rows.stop

    def done(self) -> tuple:
        self.features[:, -1] = 1.0
        return self.features, self.labels

    @classmethod
    def block(cls, x, y, dim: int, what: str = "test") -> tuple:
        """The (features, labels) of one block of rows, such as a test set."""
        if len(x) != len(y):
            raise ValueError(f"{what} features/labels length mismatch")
        pooled = cls(len(y), dim)
        pooled.add(x, y)
        return pooled.done()


@dataclass(frozen=True, eq=False)
class Population(_FieldwiseEq, Sequence):
    """A client population as columns: one read-only float array per
    client field, in client order.

    The game, the bound and training compute on the columns, and every
    function of the game takes a whole population. The columns are checked
    once, as a whole, at construction. For iteration only, a population is
    also a read-only sequence of named-tuple rows ``(index, datasize, weight,
    grad_bound, cost_coeff, intrinsic_pref, q_max)``, numbered from 0; each
    row is built from the columns when it is asked for, and none is stored.
    """

    d: np.ndarray        # datasize
    a: np.ndarray        # weight, d_n / sum(d) in a population from make_population
    G: np.ndarray        # grad_bound
    c: np.ndarray        # cost_coeff
    v: np.ndarray        # intrinsic_pref
    q_max: np.ndarray

    def __post_init__(self):
        for name in _COLUMNS:
            values = np.array(getattr(self, name), dtype=float)    # a private copy
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        shape = (self.d.size,)
        for name, values in zip(_FIELDS, self.columns):
            if values.shape != shape:
                raise PopulationError(f"{name} column has shape {values.shape}, expected {shape}")
        if not self.d.size:
            raise PopulationError("population must contain at least one client")
        _check_clients(self.columns)

    @property
    def columns(self) -> tuple:
        """(d, a, G, c, v, q_max)."""
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, n):
        """Row ``n``, or a tuple of rows for a slice, indexed as a tuple of
        all rows would be."""
        picked = range(len(self))[n]
        return tuple(map(self._row, picked)) if isinstance(picked, range) else self._row(picked)

    def __iter__(self):
        fields = (map(float, col) for col in self.columns[1:])
        return map(_Row._make, zip(range(len(self)), map(int, self.d), *fields))

    def _row(self, n: int) -> _Row:
        return _Row(n, int(self.d[n]), *(float(col[n]) for col in self.columns[1:]))


def make_population(
    datasizes,
    grad_bounds,
    cost_coeffs,
    intrinsic_prefs,
    q_maxes,
) -> Population:
    """Build a client population with weights normalized to the datasize shares.

    All arguments must have equal length N >= 1; datasizes must be positive
    integers (integer-valued floats are accepted). The weights are
    ``d_n / float(sum(d))``.
    """
    names = ("datasizes", "grad_bounds", "cost_coeffs", "intrinsic_prefs", "q_maxes")
    columns = [v if isinstance(v, np.ndarray) else list(v)
               for v in (datasizes, grad_bounds, cost_coeffs, intrinsic_prefs, q_maxes)]
    n = len(columns[0])
    if n < 1:
        raise PopulationError("population must contain at least one client")
    for name, values in zip(names, columns):
        if len(values) != n:
            raise PopulationError(f"{name} has length {len(values)}, expected {n}")
    d = np.array(columns[0], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(d) & (d > 0.0) & (d == np.floor(d))))
    if bad.size:
        i = int(bad[0])
        rule = "an integer" if math.isfinite(d[i]) and d[i] > 0.0 else "positive and finite"
        raise PopulationError(f"client {i}: datasize must be {rule}, got {columns[0][i]}")
    return Population(d, d / math.fsum(d), *columns[1:])
