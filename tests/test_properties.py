"""Property tests over wide parameter ranges.

The array kernels in ``fedpricing.game`` must reproduce the per-client
scalar reference in ``oracles.py`` bit for bit, on single clients and on
mixed populations: v = 0 next to v > 0, prices of either sign and zero,
values far above the price, and caps below 1. ``make_population`` must
accept and reject what the row-by-row construction does, with the same
message, and a population must survive its file format bit for bit. A
sum's certified sign must decide every comparison as ``math.fsum`` does.
"""

import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpricing.core import (
    FederatedDataset,
    GameConstants,
    ParticipationVector,
    PopulationError,
    make_population,
)
from fedpricing.fltrain import _Shards
from fedpricing.formats import read_population, write_population
from fedpricing.game import (
    _best_responses,
    _Clients,
    _Total,
    _within,
    baseline_uniform,
    baseline_weighted,
    kkt_participation,
    server_solve,
    total_spend,
    verify_equilibrium,
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
        return ParticipationVector(kkt_participation(lam, profiles, constants))

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
    result = baseline_uniform(profiles, constants, budget)
    price, q = result.p_star[0], result.q_star
    want = [oracles.client_best_response(price, p, constants) for p in profiles]
    np.testing.assert_array_equal(bits(q.q), bits(want))

    result = baseline_weighted(profiles, constants, budget)
    prices, q = result.p_star, result.q_star
    want = [oracles.client_best_response(pn, p, constants) for pn, p in zip(prices, profiles)]
    np.testing.assert_array_equal(bits(q.q), bits(want))


@settings(max_examples=150, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, share=st.floats(0.0, 1.0), data=st.data())
def test_verify_equilibrium_is_the_per_client_loop(rows, constants, share, data):
    profiles = build(rows)
    n = len(profiles)
    if constants.q_floor >= min(p.q_max for p in profiles):
        return
    floor = total_spend(ParticipationVector([constants.q_floor] * n), profiles, constants)
    caps = total_spend(ParticipationVector([p.q_max for p in profiles]), profiles, constants)
    budget = floor + share * (caps - floor)
    result = server_solve(profiles, constants, budget)
    if data.draw(st.booleans()):     # scrambled prices and flags, so that checks fail
        result = dataclasses.replace(
            result,
            p_star=tuple(data.draw(st.lists(PRICE, min_size=n, max_size=n))),
            interior=tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        )
    got = verify_equilibrium(result, profiles, constants, budget)
    assert got == oracles.verify_equilibrium(result, profiles, constants, budget)


# ---------------------------------------------------------------- population construction

NAN, INF = float("nan"), float("inf")
POSITIVE = st.floats(1e-300, 1e300)
# Valid and invalid entries per make_population argument, in argument order.
GOOD = (
    st.integers(1, 2**40),
    POSITIVE,
    POSITIVE,
    st.one_of(st.just(0.0), POSITIVE),
    st.one_of(st.just(1.0), st.floats(1e-300, 1.0)),
)
NON_FINITE = st.sampled_from([NAN, INF, -INF])
NEGATIVE = st.floats(-1e300, -1e-300)
BAD = (
    st.one_of(NON_FINITE, st.sampled_from([0, 0.0, -0.0]), st.integers(-2**40, 0), NEGATIVE,
              st.floats(1e-3, 1e6).filter(lambda x: not x.is_integer())),
    st.one_of(NON_FINITE, st.sampled_from([0.0, -0.0]), NEGATIVE),
    st.one_of(NON_FINITE, st.sampled_from([0.0, -0.0]), NEGATIVE),
    st.one_of(NON_FINITE, NEGATIVE),
    st.one_of(NON_FINITE, st.sampled_from([0.0, -0.0]), NEGATIVE,
              st.floats(1.0, 1e300, exclude_min=True)),
)


@st.composite
def population_arguments(draw):
    """make_population's five arguments, with 0 to 4 invalid entries in random
    places, as lists or as arrays, and datasizes as ints or as floats."""
    n = draw(st.integers(1, 12))
    columns = [draw(st.lists(good, min_size=n, max_size=n)) for good in GOOD]
    if draw(st.booleans()):
        columns[0] = [float(d) for d in columns[0]]
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, 4))
        columns[k][draw(st.integers(0, n - 1))] = draw(BAD[k])
    as_array = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    return [np.array(col) if arr else col for col, arr in zip(columns, as_array)]


@settings(max_examples=300, deadline=None)
@given(args=population_arguments())
@example(args=[[1, 2, 0], [1.0] * 3, [1.0] * 3, [0.0] * 3, [1.0] * 3])
@example(args=[[1, 2.5, 3], [NAN] * 3, [1.0] * 3, [0.0] * 3, [1.0] * 3])
@example(args=[[4, 1], [1.0, -1.0], [1.0, 1.0], [NAN, 0.0], [1.0, 2.0]])
@example(args=[[1, 2], [1.0], [1.0] * 2, [0.0] * 2, [1.0] * 2])
def test_make_population_accepts_and_rejects_as_the_row_by_row_construction(args):
    try:
        rows = oracles.population_rows(*args)
    except PopulationError as exc:
        with pytest.raises(PopulationError) as got:
            make_population(*args)
        assert str(got.value) == str(exc)
        return
    population = make_population(*args)
    want = list(zip(*rows))
    assert list(population.d) == list(want[1])
    for column, values in zip(population.columns[1:], want[2:]):
        np.testing.assert_array_equal(bits(column), bits(values))
    assert [tuple(p) for p in population] == rows


CLIENT_ANY_SCALE = st.tuples(GOOD[0], GOOD[1], GOOD[2], GOOD[3], GOOD[4])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(CLIENT_ANY_SCALE, min_size=1, max_size=20),
       with_f_locals=st.booleans())
def test_population_file_round_trip_is_bit_exact(rows, with_f_locals):
    population = build(rows)
    f_locals = [float(n) / 3.0 for n in range(len(rows))] if with_f_locals else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "population.ini")
        write_population(path, population, f_locals)
        back, back_f, _ = read_population(path)
    for column, original in zip(back.columns, population.columns):
        np.testing.assert_array_equal(bits(column), bits(original))
    assert back_f == f_locals


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(CLIENT_ANY_SCALE, min_size=1, max_size=20), with_f_locals=st.booleans(),
       meta=st.one_of(st.none(), st.dictionaries(st.sampled_from(["alpha", "f_star", "rounds"]),
                                                 st.one_of(POSITIVE, st.integers(1, 500)))))
def test_population_file_is_the_configparser_file_byte_for_byte(rows, with_f_locals, meta):
    population = build(rows)
    f_locals = [float(n) / 3.0 for n in range(len(rows))] if with_f_locals else None
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.ini"), os.path.join(tmp, "want.ini")
        write_population(got, population, f_locals, meta)
        oracles.write_population(want, population, f_locals, meta)
        with open(got, "rb") as f1, open(want, "rb") as f2:
            assert f1.read() == f2.read()


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=30))
def test_population_weights_are_the_training_weights(sizes):
    shards = tuple((np.zeros((size, 1)), np.zeros(size, dtype=np.int64)) for size in sizes)
    ds = FederatedDataset(shards=shards, test_features=np.zeros((0, 1)),
                          test_labels=np.zeros(0, dtype=np.int64), n_classes=1, dim=1)
    n = len(sizes)
    population = make_population(ds.datasizes, [1.0] * n, [1.0] * n, [0.0] * n, [1.0] * n)
    np.testing.assert_array_equal(bits(population.a), bits(_Shards(ds.shards).weights))


# ---------------------------------------------------------------- certified sums

SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1e100, -1e100,
                           1.7e308, -1.7e308])


@st.composite
def long_terms(draw):
    """Up to 1e5 seeded terms over 40 decades, scaled into the subnormals or
    near overflow, optionally each beside its negation, so the sum cancels."""
    n = draw(st.integers(0, 10**5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    x = x * draw(st.sampled_from([1.0, 2.0**-1060, 1e280]))
    if draw(st.booleans()):
        x = rng.permutation(np.concatenate([x, -x, x[:3]]))
    return x


@st.composite
def sum_cases(draw):
    """(terms, c, tol): c at the fsum, a neighbour of it, or anywhere; tol at
    |fsum - c|, a neighbour of it, or anywhere."""
    terms = np.asarray(draw(st.one_of(
        st.lists(st.one_of(SPECIAL, st.floats()), max_size=30), long_terms())), dtype=float)
    try:
        exact = math.fsum(terms)
    except (OverflowError, ValueError):
        exact = 0.0
    near = [exact, math.nextafter(exact, -math.inf), math.nextafter(exact, math.inf), 0.0, -0.0]
    c = draw(st.one_of(st.sampled_from(near), st.floats(allow_nan=False)))
    gap = abs(exact - c)
    tol = draw(st.one_of(st.sampled_from([gap, math.nextafter(gap, 0.0), math.nextafter(gap, 1.0)]),
                         st.floats(0.0, 1e300)))
    return terms, c, tol


@settings(max_examples=300, deadline=None)
@given(case=sum_cases())
@example(case=(np.array([1.0, 1e100, 1.0, -1e100]), 2.0, 0.0))
@example(case=(np.array([1.0, 1e100, 1.0, -1e100]), math.nextafter(2.0, 3.0), 1e-300))
@example(case=(np.array([1.0, 1e100, 1.0, -1e100]), math.nextafter(2.0, 1.0), 0.0))
@example(case=(np.array([]), 0.0, 0.0))
@example(case=(np.array([]), -0.0, 5e-324))
@example(case=(np.array([5e-324, -5e-324, 5e-324]), 5e-324, 0.0))
@example(case=(np.array([0.0, -0.0]), -0.0, 0.0))
@example(case=(np.array([1.7e308, 1.7e308, -1.7e308]), 0.0, 1.0))
@example(case=(np.array([math.inf, -math.inf]), 0.0, 1.0))
def test_certified_sign_decides_as_fsum(case):
    terms, c, tol = case
    try:
        exact = math.fsum(terms)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _Total(terms)
        return
    for holds in (lambda s: s > c, lambda s: s >= c, lambda s: s < c, lambda s: s <= c):
        assert _Total(terms).test(holds) == holds(exact)
    assert _within(_Total(terms), c, tol) == (abs(exact - c) <= tol)
    np.testing.assert_array_equal(bits(_Total(terms).exact()), bits(exact))
