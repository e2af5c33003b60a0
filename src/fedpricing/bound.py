"""Variance and convergence-gap bounds driving the pricing game.

These stand in for the expected final loss throughout the game: the server
prices participation against the gap bound, never against actual training.
Per-client terms are computed on a ``Population``'s columns and summed with
``math.fsum``, which rounds the exact sum once, so every sum is the same
whatever the order or length of its terms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GameConstants, Population, participation_levels


def power(x, y):
    """x**y elementwise, rounded as Python's ``**`` rounds it on floats.

    Used for cubes and cube roots only. ``np.float_power`` calls the C
    library's ``pow``, as Python does; numpy's ``**`` uses SIMD code for
    exponents other than 2, which can differ from ``pow`` in the last bit.
    Squares are written as products, ``x * x``: a product is correctly
    rounded on every platform, while ``pow(x, 2)`` is not always, and it is
    many times cheaper.
    """
    return np.float_power(x, y)


def positive_levels(q, population: Population) -> np.ndarray:
    """The checked levels of q, one per client, after checking that each is positive."""
    levels = participation_levels(q, len(population))
    bad = np.flatnonzero(~(levels > 0.0))
    if bad.size:
        n = int(bad[0])
        raise ValueError(f"client {n}: participation probability must be positive, got {levels[n]}")
    return levels


def bound_terms(population: Population, constants: GameConstants) -> np.ndarray:
    """(alpha/R) a_n^2 G_n^2 per client: each one's coefficient in the gap bound."""
    a, G = population.a, population.G
    return constants.alpha / constants.rounds * (a * a) * (G * G)


def participation_penalty(q, population: Population) -> float:
    """sum_n (1 - q_n) a_n^2 G_n^2 / q_n, the data-weighted participation deficit."""
    levels = positive_levels(q, population)
    a, G = population.a, population.G
    return math.fsum((1.0 - levels) * (a * a) * (G * G) / levels)


def convergence_gap_bound(q, population: Population, constants: GameConstants) -> float:
    """Upper bound on the optimality gap after the full round budget.

    Returns (1/R) * (alpha * sum_n (1 - q_n) a_n^2 G_n^2 / q_n + beta).
    """
    penalty = participation_penalty(q, population)
    return (constants.alpha * penalty + constants.beta) / constants.rounds


def bound_gradient(q, population: Population, constants: GameConstants) -> np.ndarray:
    """Analytic per-client derivative of the gap bound: -(alpha/R) a_n^2 G_n^2 / q_n^2.

    Strictly negative in every component: more participation always tightens
    the bound.
    """
    levels = positive_levels(q, population)
    return -bound_terms(population, constants) / (levels * levels)
