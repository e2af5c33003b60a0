"""Pricing-based incentive design for federated learning with randomized
client participation: equilibrium solvers, convergence bounds, and a
desk-scale training simulator."""

from .core import (
    EquilibriumResult,
    FederatedDataset,
    GameConstants,
    Population,
    PopulationError,
    make_population,
)
from .bound import bound_gradient, convergence_gap_bound
from .game import (
    EquilibriumReport,
    InfeasibleBudgetError,
    baseline_uniform,
    baseline_weighted,
    client_best_response,
    inverse_price,
    kkt_participation,
    payment_threshold,
    server_solve,
    total_spend,
    verify_equilibrium,
)
from .fltrain import TrainConfig, global_loss, train, train_runs
from .data import gen_synthetic, load_idx, partition_label_limited, subsample

__all__ = [
    "EquilibriumReport",
    "EquilibriumResult",
    "FederatedDataset",
    "GameConstants",
    "InfeasibleBudgetError",
    "Population",
    "PopulationError",
    "TrainConfig",
    "baseline_uniform",
    "baseline_weighted",
    "bound_gradient",
    "client_best_response",
    "convergence_gap_bound",
    "gen_synthetic",
    "global_loss",
    "inverse_price",
    "kkt_participation",
    "load_idx",
    "make_population",
    "partition_label_limited",
    "payment_threshold",
    "server_solve",
    "subsample",
    "total_spend",
    "train",
    "train_runs",
    "verify_equilibrium",
]

__version__ = "0.1.0"
