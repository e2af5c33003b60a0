"""Pricing-based incentive design for federated learning with randomized
client participation: equilibrium solvers, convergence bounds, and a
desk-scale training simulator."""

from .core import (
    BoundConstituents,
    ClientProfile,
    EquilibriumResult,
    FederatedDataset,
    GameConstants,
    ParticipationVector,
    PopulationError,
    PricingVector,
    derive_beta,
    make_population,
)
from .bound import bound_gradient, convergence_gap_bound, variance_bound
from .game import (
    EquilibriumReport,
    InfeasibleBudgetError,
    SolverOptions,
    baseline_uniform,
    baseline_weighted,
    client_best_response,
    inverse_price,
    kkt_participation,
    payment_threshold,
    price_closed_form,
    server_solve,
    total_spend,
    verify_equilibrium,
)
from .fltrain import (
    TrainConfig,
    aggregate,
    global_loss,
    local_sgd,
    sample_participants,
    test_accuracy,
    train,
    train_runs,
)
from .data import gen_synthetic, load_idx, partition_label_limited, subsample

__all__ = [
    "BoundConstituents",
    "ClientProfile",
    "EquilibriumReport",
    "EquilibriumResult",
    "FederatedDataset",
    "GameConstants",
    "InfeasibleBudgetError",
    "ParticipationVector",
    "PopulationError",
    "PricingVector",
    "SolverOptions",
    "TrainConfig",
    "aggregate",
    "baseline_uniform",
    "baseline_weighted",
    "bound_gradient",
    "client_best_response",
    "convergence_gap_bound",
    "derive_beta",
    "gen_synthetic",
    "global_loss",
    "inverse_price",
    "kkt_participation",
    "load_idx",
    "local_sgd",
    "make_population",
    "partition_label_limited",
    "payment_threshold",
    "price_closed_form",
    "sample_participants",
    "server_solve",
    "subsample",
    "test_accuracy",
    "total_spend",
    "train",
    "train_runs",
    "variance_bound",
    "verify_equilibrium",
]

__version__ = "0.1.0"
