"""Domain types shared across the pricing game, bounds, and training simulator.

All types are plain frozen dataclasses: immutable after construction and safe
to share across concurrent workers. Construction validates every invariant so
downstream numerics never have to re-check inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

WEIGHT_TOL = 1e-9


class PopulationError(ValueError):
    """Invalid client population input (mismatched lengths, bad per-client value)."""


@dataclass(frozen=True)
class ClientProfile:
    """One client's data weight, gradient bound, and economic parameters.

    ``weight`` is the client's fraction of the total data and must sum to 1
    across a population. ``cost_coeff`` prices the quadratic participation
    cost; ``intrinsic_pref`` scales the client's internal valuation of global
    model improvement.
    """

    index: int
    datasize: int
    weight: float
    grad_bound: float
    cost_coeff: float
    intrinsic_pref: float
    q_max: float = 1.0

    def __post_init__(self):
        for name in ("datasize", "weight", "grad_bound", "cost_coeff", "intrinsic_pref", "q_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise PopulationError(f"client {self.index}: {name} must be finite, got {value}")
        if self.datasize <= 0:
            raise PopulationError(f"client {self.index}: datasize must be positive, got {self.datasize}")
        if not 0.0 < self.weight <= 1.0:
            raise PopulationError(f"client {self.index}: weight must be in (0, 1], got {self.weight}")
        if self.grad_bound <= 0.0:
            raise PopulationError(f"client {self.index}: grad_bound must be positive, got {self.grad_bound}")
        if self.cost_coeff <= 0.0:
            raise PopulationError(f"client {self.index}: cost_coeff must be positive, got {self.cost_coeff}")
        if self.intrinsic_pref < 0.0:
            raise PopulationError(
                f"client {self.index}: intrinsic_pref must be nonnegative, got {self.intrinsic_pref}"
            )
        if not 0.0 < self.q_max <= 1.0:
            raise PopulationError(f"client {self.index}: q_max must be in (0, 1], got {self.q_max}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ClientProfile":
        return cls(**d)


@dataclass(frozen=True)
class BoundConstituents:
    """Constants from which the additive bound term beta can be derived.

    Only needed when beta is computed rather than supplied directly; beta is
    additive in the gap bound and affects no decision variable.
    """

    smoothness: float            # L
    strong_convexity: float      # mu
    grad_variances: tuple        # sigma_n^2 per client
    heterogeneity_gap: float     # F* - sum a_n F_n*
    init_dist_sq: float          # ||w_0 - w*||^2

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grad_variances"] = list(self.grad_variances)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BoundConstituents":
        d = dict(d)
        d["grad_variances"] = tuple(d["grad_variances"])
        return cls(**d)


def derive_beta(constituents: BoundConstituents, profiles: list, E: int) -> float:
    """Compute the additive bound constant from its constituents.

    beta = (2L/(mu^2 E)) A0 + (12 L^2/(mu^2 E)) Gamma + (4 L^2/(mu E)) ||w0 - w*||^2,
    with A0 = sum a_n^2 sigma_n^2 + 8 sum a_n G_n^2 (E-1)^2.
    """
    L = constituents.smoothness
    mu = constituents.strong_convexity
    if len(constituents.grad_variances) != len(profiles):
        raise PopulationError(
            f"grad_variances has {len(constituents.grad_variances)} entries for {len(profiles)} clients"
        )
    a = np.array([p.weight for p in profiles])
    g = np.array([p.grad_bound for p in profiles])
    sigma_sq = np.array(constituents.grad_variances)
    a0 = float(np.sum(a**2 * sigma_sq) + 8.0 * np.sum(a * g**2) * (E - 1) ** 2)
    return (
        2.0 * L / (mu**2 * E) * a0
        + 12.0 * L**2 / (mu**2 * E) * constituents.heterogeneity_gap
        + 4.0 * L**2 / (mu * E) * constituents.init_dist_sq
    )


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
    constituents: BoundConstituents | None = None

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
        d = {
            "alpha": self.alpha,
            "beta": self.beta,
            "rounds": self.rounds,
            "local_steps": self.local_steps,
            "q_floor": self.q_floor,
        }
        if self.constituents is not None:
            d["constituents"] = self.constituents.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GameConstants":
        d = dict(d)
        if "constituents" in d and d["constituents"] is not None:
            d["constituents"] = BoundConstituents.from_dict(d["constituents"])
        return cls(**d)


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

    def as_array(self) -> np.ndarray:
        return np.array(self.q)

    def to_dict(self) -> dict:
        return {"q": list(self.q)}

    @classmethod
    def from_dict(cls, d: dict) -> "ParticipationVector":
        return cls(d["q"])


@dataclass(frozen=True)
class PricingVector:
    """Per-client prices per unit of participation level. Negative prices mean
    the client pays the server."""

    p: tuple

    def __init__(self, p):
        object.__setattr__(self, "p", tuple(_float_array(p).tolist()))

    def __len__(self) -> int:
        return len(self.p)

    def as_array(self) -> np.ndarray:
        return np.array(self.p)

    def to_dict(self) -> dict:
        return {"p": list(self.p)}

    @classmethod
    def from_dict(cls, d: dict) -> "PricingVector":
        return cls(d["p"])


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved game instance: strategies, dual value, threshold, and diagnostics."""

    q_star: ParticipationVector
    p_star: PricingVector
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
                    "P": self.p_star.p[n],
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
            p_star=PricingVector([c["P"] for c in clients]),
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

    def pooled(self) -> tuple:
        """All training samples stacked in client order."""
        x = np.concatenate([s[0] for s in self.shards], axis=0)
        y = np.concatenate([s[1] for s in self.shards], axis=0)
        return x, y


@dataclass(frozen=True, eq=False)
class ClientColumns:
    """A population as columns: one float array per ``ClientProfile`` field,
    in list order.

    The game and the bound compute on these columns; ``of`` is the one
    place that walks a list of profiles.
    """

    d: np.ndarray        # datasize
    a: np.ndarray        # weight
    G: np.ndarray        # grad_bound
    c: np.ndarray        # cost_coeff
    v: np.ndarray        # intrinsic_pref
    q_max: np.ndarray

    @classmethod
    def of(cls, profiles) -> "ClientColumns":
        rows = np.array(
            [(p.datasize, p.weight, p.grad_bound, p.cost_coeff, p.intrinsic_pref, p.q_max)
             for p in profiles],
            dtype=float,
        ).reshape(-1, 6)
        return cls(*np.ascontiguousarray(rows.T))


def make_population(
    datasizes,
    grad_bounds,
    cost_coeffs,
    intrinsic_prefs,
    q_maxes,
) -> list:
    """Build a client population with weights normalized to the datasize shares.

    All argument lists must have equal length N >= 1 and positive datasizes.
    """
    lists = {
        "datasizes": list(datasizes),
        "grad_bounds": list(grad_bounds),
        "cost_coeffs": list(cost_coeffs),
        "intrinsic_prefs": list(intrinsic_prefs),
        "q_maxes": list(q_maxes),
    }
    n = len(lists["datasizes"])
    if n < 1:
        raise PopulationError("population must contain at least one client")
    for name, values in lists.items():
        if len(values) != n:
            raise PopulationError(f"{name} has length {len(values)}, expected {n}")
    for i, d in enumerate(lists["datasizes"]):
        if not (math.isfinite(d) and d > 0):
            raise PopulationError(f"client {i}: datasize must be positive and finite, got {d}")
    total = float(sum(lists["datasizes"]))
    return [
        ClientProfile(
            index=i,
            datasize=int(lists["datasizes"][i]),
            weight=lists["datasizes"][i] / total,
            grad_bound=float(lists["grad_bounds"][i]),
            cost_coeff=float(lists["cost_coeffs"][i]),
            intrinsic_pref=float(lists["intrinsic_prefs"][i]),
            q_max=float(lists["q_maxes"][i]),
        )
        for i in range(n)
    ]
