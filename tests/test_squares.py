"""Squares are products, bit for bit.

The C library's ``pow(x, 2)`` rounds differently from ``x * x`` on a small
share of doubles (about 0.08% of uniform draws with glibc 2.36), so random
inputs seldom tell the two apart. These tests search a seeded stream for
weights a, gradient bounds G and levels q whose squares differ, build one
population from them, and hold the kernels to the product-based scalar
references in ``oracles.py``. Where the C library squares exactly, the search
finds nothing and the first draws are used; the tests then still hold, but
cannot tell ``pow`` from a product.
"""

import functools

import numpy as np

from fedpricing.bound import bound_terms, penalty_of
from fedpricing.core import GameConstants, make_population
from fedpricing.game import _best_responses, _Clients, _inverse_prices

import oracles

CONSTANTS = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
CLIENTS = 40                  # clients with inexact squares; one more client fills the total
TOTAL = 10**9                 # total datasize, so a = d / TOTAL
DRAWS = 200_000


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def inexact_squares(x: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
    """The first CLIENTS entries of ``values`` (default ``x``) where
    pow(x, 2) != x * x, or the first CLIENTS entries if there are too few."""
    values = x if values is None else values
    hits = values[np.float_power(x, 2.0) != x * x]
    return (hits if hits.size >= CLIENTS else values)[:CLIENTS]


@functools.cache
def market():
    """(population, levels, prices). Each client but the last has a, G, q_max
    and level q with inexact squares. Its cost makes 2 c q_max about 1.5 times
    v (alpha/R) a^2 G^2 / q_max^2, and its price puts the first-order residual
    at the cap at exactly zero when squares are products: a square rounded
    one ulp off moves that residual off zero, and about half the time below,
    which changes the client's best response."""
    rng = np.random.default_rng(20240814)
    k = rng.integers(1, 10**6, DRAWS)
    d = inexact_squares(k / TOTAL, k)
    G = inexact_squares(rng.uniform(1.0, 10.0, DRAWS))
    cap = inexact_squares(rng.uniform(0.3, 1.0, DRAWS))
    q = inexact_squares(rng.uniform(0.05, 1.0, DRAWS))
    v = rng.uniform(1.0, 1e3, CLIENTS)

    d = [*d.tolist(), TOTAL - int(d.sum())]
    G, cap, q = ([*x.tolist(), 1.0] for x in (G, cap, q))
    v = [*v.tolist(), 0.0]
    rows = make_population(d, G, [1.0] * len(d), v, cap)
    vk = np.array([p.intrinsic_pref * oracles._bound_term(p, CONSTANTS) for p in rows])
    cap_arr = np.array(cap)
    cost = np.where(vk > 0.0, 0.75 * vk / (cap_arr * cap_arr * cap_arr), 1.0)
    population = make_population(d, G, cost, v, cap)
    prices = 2.0 * cost * cap_arr - vk / (cap_arr * cap_arr)
    return population, np.array(q), prices


def test_bound_terms_are_the_product_reference_bit_for_bit():
    population, _, _ = market()
    want = [oracles._bound_term(p, CONSTANTS) for p in population]
    np.testing.assert_array_equal(bits(bound_terms(population, CONSTANTS)), bits(want))


def test_penalty_is_the_product_reference_bit_for_bit():
    population, levels, _ = market()
    assert penalty_of(levels, population) == oracles.penalty_of(levels.tolist(), population)


def test_inverse_prices_are_the_product_reference_bit_for_bit():
    population, levels, _ = market()
    got = _inverse_prices(levels, _Clients.read(population, CONSTANTS))
    want = [oracles.inverse_price_of(qn, p, CONSTANTS)
            for qn, p in zip(levels.tolist(), population)]
    np.testing.assert_array_equal(bits(got), bits(want))


def test_best_responses_are_the_product_reference_bit_for_bit():
    population, _, prices = market()
    got = _best_responses(prices, _Clients.read(population, CONSTANTS))
    want = [oracles.client_best_response(pn, p, CONSTANTS)
            for pn, p in zip(prices.tolist(), population)]
    np.testing.assert_array_equal(bits(got), bits(want))
