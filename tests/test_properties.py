"""Property tests over wide parameter ranges.

The array kernels in ``fedpricing.game`` must reproduce the per-client
scalar reference in ``oracles.py`` bit for bit, on single clients and on
mixed populations: v = 0 next to v > 0, prices of either sign and zero,
values far above the price, and caps below 1.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpricing.core import GameConstants, ParticipationVector, make_population
from fedpricing.game import (
    _best_responses,
    _Clients,
    baseline_uniform,
    baseline_weighted,
    kkt_participation,
    total_spend,
)

import oracles

CLIENT = st.tuples(
    st.integers(1, 1000),                                   # datasize
    st.floats(1e-2, 1e2),                                   # grad_bound
    st.floats(1e-2, 1e2),                                   # cost_coeff
    st.one_of(st.just(0.0), st.floats(1e-4, 1e4)),          # intrinsic_pref
    st.one_of(st.just(1.0), st.floats(0.05, 1.0)),          # q_max
)
POPULATION = st.lists(CLIENT, min_size=1, max_size=12)
CONSTANTS = st.builds(
    GameConstants,
    alpha=st.floats(1e-2, 1e2),
    beta=st.just(0.0),
    rounds=st.integers(1, 500),
    local_steps=st.just(1),
    q_floor=st.floats(1e-3, 0.04),
)
PRICE = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e-3, 1e-3))

UNIT = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)


def build(rows):
    return make_population(*zip(*rows))


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, data=st.data())
@example(rows=[(1, 1.0, 1.0, 0.0, 1.0)], constants=UNIT, data=None)          # N = 1, v = 0, price 0
@example(rows=[(1, 1.0, 1.0, 1e4, 0.3)], constants=UNIT, data=None)          # v >> price, cap < 1
@example(rows=[(5, 2.0, 3.0, 0.0, 1.0), (1, 1.0, 1.0, 0.5, 0.4), (9, 0.1, 50.0, 2.0, 1.0)],
         constants=UNIT, data=None)                                          # mixed
def test_array_best_response_is_the_scalar_reference_bit_for_bit(rows, constants, data):
    profiles = build(rows)
    if data is None:
        prices = [0.0, -1.0, 1e-3][: len(profiles)]
    else:
        prices = data.draw(st.lists(PRICE, min_size=len(profiles), max_size=len(profiles)))
    got = _best_responses(np.array(prices), _Clients.read(profiles, constants))
    want = [oracles.client_best_response(p, prof, constants) for p, prof in zip(prices, profiles)]
    np.testing.assert_array_equal(bits(got), bits(want))


@settings(max_examples=100, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS,
       log_lams=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
def test_spend_is_non_increasing_in_lambda(rows, constants, log_lams):
    profiles = build(rows)
    if constants.q_floor >= min(p.q_max for p in profiles):
        return
    lo, hi = sorted(10.0**x for x in log_lams)

    def levels(lam):
        return ParticipationVector([kkt_participation(lam, p, constants) for p in profiles])

    q_lo, q_hi = levels(lo), levels(hi)
    assert all(a >= b for a, b in zip(q_lo.q, q_hi.q))
    s_lo, s_hi = total_spend(q_lo, profiles, constants), total_spend(q_hi, profiles, constants)
    # Rounding in the summands may reorder equal spends by a few ulps of their size.
    scale = math.fsum(
        2.0 * p.cost_coeff * qn**2 + p.intrinsic_pref * constants.alpha / constants.rounds
        * p.weight**2 * p.grad_bound**2 / qn
        for p, qn in zip(profiles, q_lo.q)
    )
    assert s_lo >= s_hi - 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, share=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
def test_baseline_levels_are_the_reference_best_responses(rows, constants, share):
    profiles = build(rows)
    budget = share * sum(p.cost_coeff * p.q_max**2 for p in profiles)
    price, q = baseline_uniform(profiles, constants, budget)
    want = [oracles.client_best_response(price, p, constants) for p in profiles]
    np.testing.assert_array_equal(bits(q.q), bits(want))

    prices, q = baseline_weighted(profiles, constants, budget)
    want = [oracles.client_best_response(pn, p, constants) for pn, p in zip(prices.p, profiles)]
    np.testing.assert_array_equal(bits(q.q), bits(want))
