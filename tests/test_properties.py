"""Property tests over wide parameter ranges.

The array kernels in ``fedpricing.game`` must reproduce the per-client
scalar reference in ``oracles.py`` bit for bit, on single clients and on
mixed populations: v = 0 next to v > 0, prices of either sign and zero,
values far above the price, and caps below 1. The Newton best responses
must also lie within 1e-12 of the first-written bisection, equal it where
no iteration is needed, and stop before their step cap. ``make_population``
must accept and reject what the row-by-row construction does, with the same
message, and a population must survive its file format bit for bit; the
file reader must read a hand-edited file as ``configparser`` does. A
sum's certified sign must decide every comparison as ``math.fsum`` does.
The inverse-probability update must be unbiased over every participant set.
The local-optimum fit must meet its gradient tolerance and match scipy's
objective within what that tolerance allows, and the max-flow that splits
shards across classes must find scipy's flow value and a feasible split.
The optimum must keep the paper's structure over random games: the
threshold sign of every interior price, the price orderings, and a bound no
larger than that of any baseline feasible for Stage I.
"""

import dataclasses
import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpricing.bound import convergence_gap_bound
from fedpricing.calibrate import LOCAL_OPTIMUM_TOL, _minimize_logistic
from fedpricing.core import (
    FederatedDataset,
    GameConstants,
    PopulationError,
    make_population,
)
from fedpricing.data import _max_flow, _route_residual
from fedpricing.fltrain import _aggregate, loss_and_grad
from fedpricing.formats import read_population, write_population
from fedpricing.game import (
    _NEWTON_STEPS,
    SolverOptions,
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
PRICED = POPULATION.flatmap(lambda rows: st.tuples(
    st.just(rows), st.lists(PRICE, min_size=len(rows), max_size=len(rows))))

UNIT = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
VK_1E10 = GameConstants(alpha=100.0, beta=0.0, rounds=1, local_steps=1)


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
    want = [oracles.client_best_response_newton(p, prof, constants)
            for p, prof in zip(prices, profiles)]
    np.testing.assert_array_equal(bits(got), bits(want))


@settings(max_examples=300, deadline=None)
@given(game=PRICED, constants=CONSTANTS)
@example(game=([(1, 100.0, 1e10, 9e4, 1.0)] * 3, [0.0, -1e9, 1e9]),
         constants=VK_1E10)                                                  # v k near 1e10
@example(game=([(1, 3e-13, 1e-6, 1e-4, 1.0)] * 2 + [(1, 3e-13, 1e-18, 1e-4, 1.0)],
               [1e-7, 3e-11, -1e-21]),
         constants=UNIT)                                                     # v k near 1e-30
@example(game=([(1, 1.0, 1.0, 1.0, 1.0)], [-5e-324]),
         constants=UNIT)                                                     # sqrt(v k / 2|P|) overflows
def test_newton_best_response_is_the_bisection_within_its_width(game, constants):
    rows, prices = game
    profiles = build(rows)
    got = _best_responses(np.array(prices), _Clients.read(profiles, constants))
    for qn, pn, prof in zip(got.tolist(), prices, profiles):
        want = oracles.client_best_response(pn, prof, constants)
        # The kernel is the Newton reference bit for bit, so these are its steps.
        _, steps = oracles._newton_response(pn, prof, constants)
        if steps is None:       # v = 0, at the cap or at the floor
            assert bits(qn) == bits(want)
        else:
            assert abs(qn - want) <= 1e-12
            assert steps < _NEWTON_STEPS


@settings(max_examples=100, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS,
       log_lams=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
def test_spend_is_non_increasing_in_lambda(rows, constants, log_lams):
    profiles = build(rows)
    if constants.q_floor >= min(p.q_max for p in profiles):
        return
    lo, hi = sorted(10.0**x for x in log_lams)

    def levels(lam):
        return kkt_participation(lam, profiles, constants)

    q_lo, q_hi = levels(lo), levels(hi)
    assert all(a >= b for a, b in zip(q_lo, q_hi))
    s_lo, s_hi = total_spend(q_lo, profiles, constants), total_spend(q_hi, profiles, constants)
    # Rounding in the summands may reorder equal spends by a few ulps of their size.
    scale = math.fsum(
        2.0 * p.cost_coeff * qn**2 + p.intrinsic_pref * constants.alpha / constants.rounds
        * p.weight**2 * p.grad_bound**2 / qn
        for p, qn in zip(profiles, q_lo)
    )
    assert s_lo >= s_hi - 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, share=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
def test_baseline_levels_are_the_reference_best_responses(rows, constants, share):
    profiles = build(rows)
    budget = share * sum(p.cost_coeff * p.q_max**2 for p in profiles)
    result = baseline_uniform(profiles, constants, budget)
    price, q = result.p_star[0], result.q_star
    want = [oracles.client_best_response_newton(price, p, constants) for p in profiles]
    np.testing.assert_array_equal(bits(q), bits(want))

    result = baseline_weighted(profiles, constants, budget)
    prices, q = result.p_star, result.q_star
    want = [oracles.client_best_response_newton(pn, p, constants)
            for pn, p in zip(prices, profiles)]
    np.testing.assert_array_equal(bits(q), bits(want))


@settings(max_examples=150, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, share=st.floats(0.0, 1.0), data=st.data())
def test_verify_equilibrium_is_the_per_client_loop(rows, constants, share, data):
    profiles = build(rows)
    n = len(profiles)
    if constants.q_floor >= min(p.q_max for p in profiles):
        return
    floor = total_spend([constants.q_floor] * n, profiles, constants)
    caps = total_spend([p.q_max for p in profiles], profiles, constants)
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
@given(rows=st.lists(CLIENT_ANY_SCALE, min_size=1, max_size=20))
def test_a_populations_rows_are_its_columns_in_client_order(rows):
    """Iteration and ``len``, the view of a population that perfbench reads."""
    population = build(rows)
    d, a, G, c, v, q_max = population.columns
    assert len(population) == len(rows)
    assert tuple(population) == tuple((n, int(d[n]), a[n], G[n], c[n], v[n], q_max[n])
                                      for n in range(len(rows)))


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


# Lines a hand edit of a population file may add: comments, blank lines,
# [DEFAULT], sections and keys that may be set twice, values that are not
# numbers, either delimiter with any spacing, continuation lines, and lines
# without a delimiter. None holds a "%", which configparser interpolates.
EDIT_LINES = ["# a comment", "; a note", ";d = 1", "# x: 2", "  # an indented comment", "", "   ",
              " \t", "[DEFAULT]", "[meta]", "[client 0]", "[client 1]", "[client 7]", "[extra]",
              "[ client 0 ]", "[client 1] trailing", "[]", "d = 5", "d = 2.5", "d =", "G: 2.5",
              "G=3", "G =   4  ", "G: 1 = 2", "c = 1: 2", "c = two", "c : 1e300", "v = nan",
              "v = -1", "q_max = 0.5", "q_max = 2", "F_local = 1", "F_local: x", "alpha = 1.0",
              "rounds: 3", "x = 1", "junk", "= 3", "   continued", "  7", "\t8.5",
              "\u3000x = 2\u3000", "v\xa0=\xa01"]
WHITESPACE = [" ", "  ", "\t", "\x0c", "\u3000", "\xa0"]
# One hand edit: (what, where, a line to insert, whitespace to add).
HAND_EDIT = st.tuples(st.sampled_from(["insert", "copy", "delimiter", "indent", "delete", "pad"]),
                      st.integers(0, 10**6), st.sampled_from(EDIT_LINES),
                      st.sampled_from(WHITESPACE))


def edit_lines(lines: list, edit) -> None:
    """Apply one ``HAND_EDIT`` to a file's lines, in place."""
    what, where, new_line, space = edit
    n = where % (len(lines) + 1)
    if what == "insert":
        lines.insert(n, new_line)
    elif what == "copy":
        lines.insert(n, lines[where % len(lines)])
    elif n == len(lines):
        return
    elif what == "delimiter":
        lines[n] = lines[n].replace(" = ", {" ": ": ", "  ": ":", "\t": " :\t"}.get(space, "="), 1)
    elif what == "indent":
        lines[n] = space + lines[n]
    elif what == "delete":
        del lines[n]
    else:
        lines[n] += space


def read_outcome(reader, path: str):
    """What ``reader`` makes of the file: the bits of its columns, f_locals
    and meta values, or the type and text of the error it raises."""
    try:
        population, f_locals, meta = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return ([bits(column).tolist() for column in population.columns],
            None if f_locals is None else bits(f_locals).tolist(),
            list(meta), bits(list(meta.values())).tolist())


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(CLIENT_ANY_SCALE, min_size=1, max_size=20), with_f_locals=st.booleans(),
       with_meta=st.booleans(), edits=st.lists(HAND_EDIT, max_size=6))
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)] * 2, with_f_locals=False, with_meta=True,
         edits=[("insert", 0, "[DEFAULT]", " "), ("insert", 1, "q_max = 0.5", " "),
                ("delete", 9, "", " "), ("insert", 20, "  continued", " ")])
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)], with_f_locals=True, with_meta=False,
         edits=[("insert", 2, "", " "), ("insert", 3, "   continued", " ")])
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)], with_f_locals=False, with_meta=False,
         edits=[("insert", 3, "G: 1 = 2", " ")])                         # the first delimiter
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)], with_f_locals=False, with_meta=True,
         edits=[("insert", 0, "[DEFAULT]", " "), ("insert", 1, "alpha = 1.0", " "),
                ("insert", 2, "beta = 0.5", " ")])                       # [meta] over [DEFAULT]
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)] * 2, with_f_locals=False, with_meta=False,
         edits=[("insert", 15, "[extra]", " ")])                         # an unknown section
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)] * 2, with_f_locals=False, with_meta=False,
         edits=[("insert", 15, "[extra]", " "), ("delete", 1, "", " ")])  # a client before it
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)], with_f_locals=False, with_meta=False,
         edits=[("insert", 3, "junk", " "), ("insert", 5, "= 3", " ")])  # lines it cannot parse
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)], with_f_locals=False, with_meta=False,
         edits=[("delete", 1, "", " "), ("insert", 1, "d = 2.5", " ")])  # a bad population
@example(rows=[(3, 1.0, 2.0, 0.0, 1.0)], with_f_locals=False, with_meta=False,
         edits=[("insert", 0, "[DEFAULT]", " "), ("insert", 1, "d = 5", " "),
                ("insert", 2, "G: 2.5", " "), ("insert", 3, "c : 1e300", " "),
                ("insert", 4, "v = -1", " "), ("insert", 10**6, "[client 7]", " ")])  # a gap
def test_the_population_reader_reads_a_hand_edited_file_as_configparser_does(
        rows, with_f_locals, with_meta, edits):
    population = build(rows)
    f_locals = [float(n) / 3.0 for n in range(len(rows))] if with_f_locals else None
    meta = {"alpha": 1.5, "rounds": 10.0} if with_meta else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "population.ini")
        write_population(path, population, f_locals, meta)
        with open(path) as f:
            lines = f.read().split("\n")
        for edit in edits:
            edit_lines(lines, edit)
        with open(path, "w") as f:
            f.write("\n".join(lines))
        assert read_outcome(read_population, path) == read_outcome(oracles.read_population, path)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=30))
def test_population_weights_are_the_training_weights(sizes):
    shards = tuple((np.zeros((size, 1)), np.zeros(size, dtype=np.int64)) for size in sizes)
    ds = FederatedDataset.from_shards(shards=shards, test_features=np.zeros((0, 1)),
                                      test_labels=np.zeros(0, dtype=np.int64), n_classes=1, dim=1)
    n = len(sizes)
    population = make_population(ds.datasizes, [1.0] * n, [1.0] * n, [0.0] * n, [1.0] * n)
    np.testing.assert_array_equal(bits(population.a), bits(ds.weights))


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


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), dim=st.integers(1, 6), classes=st.integers(2, 5),
       scale=st.sampled_from([0.01, 0.1, 1.0, 10.0]), l2=st.sampled_from([1e-4, 1e-3, 1e-2, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_the_local_fit_meets_its_tolerance_and_scipys_objective(rows, dim, classes, scale, l2,
                                                               seed):
    # The objective is l2-strongly convex, so at a point whose largest gradient
    # entry is g it lies within n_params * g^2 / (2 l2) of the minimum: two fits
    # that both meet the tolerance differ by no more than that.
    rng = np.random.default_rng(seed)
    x = scale * rng.normal(size=(rows, dim))
    y = rng.integers(0, classes, size=rows)
    shape = (classes, dim + 1)
    xa = np.hstack([x, np.ones((rows, 1))])
    loss, grad = loss_and_grad(_minimize_logistic(xa, y, shape, l2), x, y, l2)
    assert np.max(np.abs(grad)) <= LOCAL_OPTIMUM_TOL
    ref, ref_grad_max = oracles.minimize_logistic(x, y, shape, l2)
    ref_loss, _ = loss_and_grad(ref, x, y, l2)
    gap = math.prod(shape) * max(LOCAL_OPTIMUM_TOL, ref_grad_max) ** 2 / (2.0 * l2)
    assert abs(loss - ref_loss) <= gap


@st.composite
def transport_cases(draw):
    """(assigned classes per client, residual need per client, residual supply per class)."""
    n_clients, n_classes = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    assigned = [draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=n_classes,
                              unique=True)) for _ in range(n_clients)]
    need = np.array(draw(st.lists(st.integers(0, 20), min_size=n_clients, max_size=n_clients)))
    supply = np.array(draw(st.lists(st.integers(0, 30), min_size=n_classes, max_size=n_classes)))
    return assigned, need, supply


@settings(max_examples=300, deadline=None)
@given(case=transport_cases())
def test_the_max_flow_finds_scipys_value_and_a_feasible_split(case):
    assigned, need, supply = case
    n_clients, n_classes = len(need), len(supply)
    sink = 1 + n_clients + n_classes
    capacity = np.zeros((sink + 1, sink + 1), dtype=np.int64)
    for n, classes in enumerate(assigned):
        capacity[0, 1 + n] = need[n]
        capacity[1 + n, [1 + n_clients + c for c in classes]] = need[n]
    capacity[1 + n_clients:sink, sink] = supply
    flow = _max_flow(capacity, 0, sink)
    value = oracles.max_flow_value(capacity, 0, sink)
    assert flow[0].sum() == value
    np.testing.assert_array_equal(flow, -flow.T)
    assert np.all(flow <= capacity)
    assert np.all(flow[1:sink].sum(axis=1) == 0)          # conservation at inner nodes

    if value < need.sum():
        with pytest.raises(ValueError, match=r"^(class \d+: |partition infeasible)"):
            _route_residual(assigned, need, supply, n_clients, n_classes)
        return
    split = _route_residual(assigned, need, supply, n_clients, n_classes)
    np.testing.assert_array_equal(split.sum(axis=1), need)
    assert np.all(split.sum(axis=0) <= supply)
    assert np.all(split >= 0)
    for n, classes in enumerate(assigned):
        assert not np.any(np.delete(split[n], classes))


# The expected update may differ from the full-participation average by this
# much, relative to the sum of the absolute terms that the update adds up.
UNBIASED_RTOL = 1e-12


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6), data=st.data())
def test_the_update_is_unbiased_over_every_participant_set(levels, data):
    """Enumerate the 2^N participant sets: the mean of ``_aggregate`` with the
    training coefficients a_n / q_n, each set weighted by its probability, is
    w_prev + sum_n a_n (w_n - w_prev)."""
    n = len(levels)
    sizes = np.array(data.draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w_prev = rng.normal(size=(3, 4))
    models = w_prev + rng.normal(size=(n, 3, 4)) * rng.uniform(0.1, 10.0, size=(n, 1, 1))
    a, q = sizes / sizes.sum(), np.array(levels)

    mean = np.zeros_like(w_prev)
    for chosen in itertools.product((False, True), repeat=n):
        prob = math.prod(q[k] if c else 1.0 - q[k] for k, c in enumerate(chosen))
        members = [k for k, c in enumerate(chosen) if c]
        mean += prob * _aggregate(w_prev, models[members], [a[k] / q[k] for k in members])

    full = w_prev + np.tensordot(a, models - w_prev, axes=1)
    scale = np.abs(w_prev) + np.tensordot(a / q, np.abs(models - w_prev), axes=1)
    assert np.all(np.abs(mean - full) <= UNBIASED_RTOL * scale)


# ---------------------------------------------------------------- Stage I's budget crossing


def outcome(solve, *args):
    """solve(*args), or the type and text of what it raised."""
    try:
        return solve(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want) -> None:
    """The same values bit for bit, or the same error with the same text. The
    public functions check their arguments, a dual that is 0 or NaN say, where
    the solver's kernels do not: a plain ValueError on one side may meet any
    error on the other."""
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert isinstance(want[0], type) and isinstance(got[0], type), (got, want)
        if ValueError not in (got[0], want[0]):
            assert got == want
        return
    for g, w in zip(got, want):
        np.testing.assert_array_equal(bits(g), bits(w))


# Budgets from the floor spend to past the cap spend; the baselines also get 0.
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(CLIENT_ANY_SCALE, min_size=1, max_size=8), constants=CONSTANTS,
       floor_share=st.floats(1e-3, 0.9),
       share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.5)))
@example(rows=[(4, 1.0, 2.0, 0.1, 1.0), (2, 2.0, 1.0, 0.0, 1.0)], constants=UNIT,
         floor_share=0.01, share=0.5)
def test_the_solvers_are_their_first_bisection_loops_bit_for_bit(rows, constants, floor_share,
                                                                 share):
    """``server_solve`` and the baselines bracket and bisect in one routine;
    the loops each was first written with, in ``oracles.py``, decide every
    step on the ``math.fsum`` total. Extreme scales overflow, so numpy's
    floating-point warnings are off, as outside the test suite's settings."""
    population = build(rows)
    n = len(population)
    constants = dataclasses.replace(constants,
                                    q_floor=floor_share * float(np.min(population.q_max)))
    with np.errstate(all="ignore"):
        floor = outcome(total_spend, np.full(n, constants.q_floor), population, constants)
        caps = outcome(total_spend, population.q_max, population, constants)
        if isinstance(floor, tuple) or isinstance(caps, tuple):
            return
        budget = floor + share * (caps - floor)

        got = outcome(server_solve, population, constants, budget)
        if not isinstance(got, tuple):
            got = (got.lambda_star, got.v_threshold, got.q_star, got.p_star, got.spend,
                   got.diagnostics["iterations"])
        assert_same_outcome(got, outcome(oracles.server_solve_reference,
                                         population, constants, budget))

        for solve, unit in ((baseline_uniform, np.ones(n)), (baseline_weighted, population.d)):
            for b in (budget, 0.0):
                got = outcome(solve, population, constants, b)
                if not isinstance(got, tuple):
                    got = (got.p_star, got.q_star)
                assert_same_outcome(got, outcome(oracles.scaled_baseline_reference,
                                                 unit, population, constants, b))


# The solver's dual is the midpoint of a last bracket no wider than lambda_tol
# times its high end, and two budgets may bracket on different doubling grids.
# So the dual at the larger budget may lie above the smaller budget's by up to
# about 1.5 lambda_tol, relative: the test allows 2 lambda_tol, and compares
# the bound and the levels with their values at the smaller budget's dual
# raised by as much.
LAMBDA_RTOL = 2.0 * SolverOptions().lambda_tol
SHARE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, shares=st.tuples(SHARE, SHARE))
def test_a_larger_budget_lowers_the_bound_and_the_dual_and_raises_interior_levels(
        rows, constants, shares):
    population = build(rows)
    n = len(population)
    if constants.q_floor >= float(np.min(population.q_max)):
        return
    floor = total_spend(np.full(n, constants.q_floor), population, constants)
    caps = total_spend(population.q_max, population, constants)
    small, large = (server_solve(population, constants, floor + s * (caps - floor))
                    for s in sorted(shares))
    lam = small.lambda_star * (1.0 + LAMBDA_RTOL)
    q = kkt_participation(lam, population, constants)
    assert large.lambda_star <= lam
    assert large.bound_value <= convergence_gap_bound(q, population, constants)
    both = np.flatnonzero(small.interior & large.interior)
    assert np.all(large.q_star[both] >= q[both])


# perfbench's margin: a client this close to the threshold, relative to it,
# may price on either side of zero.
THRESHOLD_RTOL = 1e-9
# The optimum's bound may exceed a feasible baseline's by this much, relative:
# its dual is bisected to a relative width of lambda_tol, not solved exactly.
OPTIMALITY_RTOL = 1e-9


def solve_between_floor_and_caps(rows, constants, share):
    """The population of ``rows``, the budget ``share`` of the way from its
    floor spend to its cap spend, and the optimum there; None where q_floor
    is not below every cap."""
    population = build(rows)
    if constants.q_floor >= float(np.min(population.q_max)):
        return None
    floor = total_spend(np.full(len(population), constants.q_floor), population, constants)
    caps = total_spend(population.q_max, population, constants)
    budget = floor + share * (caps - floor)
    return population, budget, server_solve(population, constants, budget)


@settings(max_examples=150, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, share=SHARE)
def test_an_interior_client_pays_the_server_exactly_above_the_threshold(rows, constants, share):
    solved = solve_between_floor_and_caps(rows, constants, share)
    if solved is None:
        return
    population, _, result = solved
    threshold = 1.0 / (3.0 * result.lambda_star)
    interior = np.flatnonzero(result.interior)
    v, price = population.v[interior], result.p_star[interior]
    clear = np.abs(v - threshold) > THRESHOLD_RTOL * threshold
    assert np.array_equal((price < 0.0)[clear], (v > threshold)[clear])


@settings(max_examples=150, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, share=SHARE)
def test_the_optimum_passes_its_ordering_and_threshold_checks(rows, constants, share):
    solved = solve_between_floor_and_caps(rows, constants, share)
    if solved is None:
        return
    population, budget, result = solved
    report = verify_equilibrium(result, population, constants, budget)
    assert report.ordering_ok and report.threshold_sign_ok, report.violations


@settings(max_examples=150, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, share=SHARE)
# A budget below 1. A baseline held to budget_tol, not budget_tol times the
# budget, spends 2.84e-8 of this 2e-8 budget and beats the optimum's bound.
@example(rows=[(200, 0.01, 0.01, 0.0, 1.0)], share=0.0,
         constants=GameConstants(alpha=0.01, beta=0.0, rounds=1, local_steps=1, q_floor=0.001))
def test_no_feasible_baseline_has_a_lower_bound_than_the_optimum(rows, constants, share):
    solved = solve_between_floor_and_caps(rows, constants, share)
    if solved is None or solved[1] < 0.0:      # the baselines' prices admit no budget below 0
        return
    population, budget, result = solved
    for baseline in (baseline_uniform, baseline_weighted):
        other = baseline(population, constants, budget)
        q = other.q_star
        if np.all(q >= constants.q_floor) and total_spend(q, population, constants) <= budget:
            assert result.bound_value <= other.bound_value * (1.0 + OPTIMALITY_RTOL)


@settings(max_examples=150, deadline=None)
@given(rows=POPULATION, constants=CONSTANTS, log_budget=st.floats(-12.0, 3.0))
def test_a_baseline_spends_its_budget_within_a_relative_tolerance(rows, constants, log_budget):
    population = build(rows)
    budget = 10.0**log_budget
    for baseline in (baseline_uniform, baseline_weighted):
        spend = baseline(population, constants, budget).spend
        assert abs(spend - budget) <= SolverOptions().budget_tol * budget
