"""Variance and convergence-gap bounds driving the pricing game.

These stand in for the expected final loss throughout the game: the server
prices participation against the gap bound, never against actual training.
Per-client terms are computed on arrays (``ClientColumns``) and summed with
``math.fsum``, which rounds the exact sum once, so every sum is the same
whatever the order or length of its terms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ClientColumns, GameConstants, ParticipationVector


def power(x, y):
    """x**y elementwise, rounded as Python's ``**`` rounds it on floats.

    ``np.float_power`` calls the C library's ``pow``, as Python does; numpy's
    ``**`` multiplies for squares and uses SIMD code for other exponents, and
    either can differ from ``pow`` in the last bit.
    """
    return np.float_power(x, y)


def positive_levels(q: ParticipationVector) -> np.ndarray:
    """The levels of q as an array, after checking that each is positive."""
    levels = q.as_array()
    bad = np.flatnonzero(~(levels > 0.0))
    if bad.size:
        n = int(bad[0])
        raise ValueError(f"client {n}: participation probability must be positive, got {levels[n]}")
    return levels


def penalty_of(levels: np.ndarray, cols: ClientColumns) -> float:
    """sum_n (1 - q_n) a_n^2 G_n^2 / q_n over positive levels."""
    return math.fsum((1.0 - levels) * power(cols.a, 2) * power(cols.G, 2) / levels)


def gap_bound_of(levels: np.ndarray, cols: ClientColumns, constants: GameConstants) -> float:
    """(1/R) (alpha * penalty + beta) over positive levels."""
    return (constants.alpha * penalty_of(levels, cols) + constants.beta) / constants.rounds


def bound_terms(cols: ClientColumns, constants: GameConstants) -> np.ndarray:
    """(alpha/R) a_n^2 G_n^2 per client: each one's coefficient in the gap bound."""
    return constants.alpha / constants.rounds * power(cols.a, 2) * power(cols.G, 2)


def participation_penalty(q: ParticipationVector, profiles: list) -> float:
    """sum_n (1 - q_n) a_n^2 G_n^2 / q_n, the data-weighted participation deficit."""
    return penalty_of(positive_levels(q), ClientColumns.of(profiles))


def variance_bound(
    q: ParticipationVector, profiles: list, eta: float, local_steps: int
) -> float:
    """Upper bound on the aggregation variance injected by randomized participation.

    Returns 4 * sum_n (1 - q_n) a_n^2 G_n^2 / q_n * (eta * E)^2.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return 4.0 * participation_penalty(q, profiles) * (eta * local_steps) ** 2


def convergence_gap_bound(
    q: ParticipationVector, profiles: list, constants: GameConstants
) -> float:
    """Upper bound on the optimality gap after the full round budget.

    Returns (1/R) * (alpha * sum_n (1 - q_n) a_n^2 G_n^2 / q_n + beta).
    """
    return gap_bound_of(positive_levels(q), ClientColumns.of(profiles), constants)


def bound_gradient(
    q: ParticipationVector, profiles: list, constants: GameConstants
) -> list:
    """Analytic per-client derivative of the gap bound: -(alpha/R) a_n^2 G_n^2 / q_n^2.

    Strictly negative in every component: more participation always tightens
    the bound.
    """
    levels = positive_levels(q)
    cols = ClientColumns.of(profiles)
    scale = constants.alpha / constants.rounds
    return (-scale * power(cols.a, 2) * power(cols.G, 2) / power(levels, 2)).tolist()
