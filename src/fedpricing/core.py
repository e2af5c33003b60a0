"""Domain types shared across the pricing game, bounds, and training simulator.

Per-client data lives in columns: a ``Population`` holds one read-only float
array per client field, and results hold one tuple entry per client. The
records are frozen dataclasses, immutable after construction and safe to
share across concurrent workers. Construction validates every invariant so
downstream numerics never have to re-check inputs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np


class PopulationError(ValueError):
    """Invalid client population input (mismatched lengths, bad per-client value)."""


# The per-client fields, and the names of Population's columns for them.
_FIELDS = ("datasize", "weight", "grad_bound", "cost_coeff", "intrinsic_pref", "q_max")
_COLUMNS = ("d", "a", "G", "c", "v", "q_max")

# One client of a population, for iteration only: its index and its fields.
_Row = namedtuple("_Row", ("index",) + _FIELDS)


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
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")
        if not 0.0 < self.q_floor < 1.0:
            raise ValueError(f"q_floor must be in (0, 1), got {self.q_floor}")

    def to_dict(self) -> dict:
        return asdict(self)


def _float_array(values) -> np.ndarray:
    """Any iterable of numbers as a 1-D float array."""
    if not isinstance(values, np.ndarray):
        return np.fromiter(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D sequence of numbers, got shape {values.shape}")
    return values.astype(float, copy=False)


@dataclass(frozen=True)
class ParticipationVector:
    """Per-client participation probabilities."""

    q: tuple

    def __init__(self, q):
        levels = _float_array(q)
        outside = np.flatnonzero(~((levels >= 0.0) & (levels <= 1.0)))
        if outside.size:
            n = int(outside[0])
            raise ValueError(f"client {n}: participation probability {levels[n]} outside [0, 1]")
        object.__setattr__(self, "q", tuple(levels.tolist()))

    def __len__(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved game instance: strategies, dual value, threshold, and diagnostics.

    ``p_star`` holds each client's price per unit of participation level; a
    negative price means the client pays the server.
    """

    q_star: ParticipationVector
    p_star: tuple
    lambda_star: float
    v_threshold: float
    spend: float
    bound_value: float
    payments: tuple
    interior: tuple
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lambda_star": self.lambda_star,
            "v_threshold": self.v_threshold,
            "spend": self.spend,
            "bound_value": self.bound_value,
            "diagnostics": dict(self.diagnostics),
            "clients": [
                {
                    "n": n,
                    "q": self.q_star.q[n],
                    "P": self.p_star[n],
                    "payment": self.payments[n],
                    "interior": bool(self.interior[n]),
                }
                for n in range(len(self.q_star))
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EquilibriumResult":
        clients = sorted(d["clients"], key=lambda c: c["n"])
        return cls(
            q_star=ParticipationVector([c["q"] for c in clients]),
            p_star=tuple(c["P"] for c in clients),
            lambda_star=d["lambda_star"],
            v_threshold=d["v_threshold"],
            spend=d["spend"],
            bound_value=d["bound_value"],
            payments=tuple(c["payment"] for c in clients),
            interior=tuple(bool(c["interior"]) for c in clients),
            diagnostics=dict(d.get("diagnostics", {})),
        )


@dataclass(frozen=True)
class FederatedDataset:
    """Per-client sample shards plus a shared test set.

    Features are row vectors; labels are class indices. Shards are immutable
    views in spirit: callers must not mutate the arrays.
    """

    shards: tuple                # tuple of (features: ndarray, labels: ndarray)
    test_features: np.ndarray
    test_labels: np.ndarray
    n_classes: int
    dim: int

    def __post_init__(self):
        for n, (x, y) in enumerate(self.shards):
            if len(x) == 0:
                raise ValueError(f"client {n}: empty shard")
            if x.shape[1] != self.dim:
                raise ValueError(f"client {n}: feature dim {x.shape[1]} != {self.dim}")
            if len(x) != len(y):
                raise ValueError(f"client {n}: {len(x)} samples but {len(y)} labels")
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError(f"client {n}: label outside [0, {self.n_classes})")
        if len(self.test_labels) != len(self.test_features):
            raise ValueError("test features/labels length mismatch")

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    @property
    def datasizes(self) -> list:
        return [len(x) for x, _ in self.shards]

    @property
    def total_samples(self) -> int:
        return sum(self.datasizes)


@dataclass(frozen=True, eq=False)
class Population(Sequence):
    """A client population as columns: one read-only float array per
    client field, in client order.

    The game, the bound and training compute on the columns, and every
    function of the game takes a whole population. The columns are checked
    once, as a whole, at construction. For iteration only, a population is
    also a read-only sequence of named-tuple rows ``(index, datasize, weight,
    grad_bound, cost_coeff, intrinsic_pref, q_max)``, numbered from 0; the
    rows are built once, on first use.
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

    @cached_property
    def _rows(self) -> tuple:
        rows = zip(range(len(self)), map(int, self.d.tolist()),
                   *(col.tolist() for col in self.columns[1:]))
        return tuple(map(_Row._make, rows))

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, n):
        return self._rows[n]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Population):
            return NotImplemented
        return all(np.array_equal(x, y) for x, y in zip(self.columns, other.columns))


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
