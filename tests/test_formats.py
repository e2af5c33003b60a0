import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedpricing.core import EquilibriumResult, GameConstants, make_population
from fedpricing.experiment import SCHEMES, solve_scheme
from fedpricing.formats import (
    METRICS_HEADER,
    read_equilibrium_manifest,
    read_metrics_csv,
    read_population,
    write_equilibrium_manifest,
    write_metrics_csv,
    write_population,
)
from fedpricing.fltrain import RoundMetrics
from fedpricing.game import _result, server_solve

import oracles


def sample_profiles():
    return make_population(
        datasizes=[100, 50, 25],
        grad_bounds=[1.5, 2.0, 0.75],
        cost_coeffs=[10.0, 20.0, 5.0],
        intrinsic_prefs=[0.0, 3.0, 1.25],
        q_maxes=[1.0, 0.9, 1.0],
    )


def test_population_round_trip(tmp_path):
    profiles = sample_profiles()
    f_locals = [0.5, 0.25, 0.75]
    meta = {"alpha": 2.5, "f_star": 0.125}
    path = str(tmp_path / "population.ini")
    write_population(path, profiles, f_locals, meta)
    back, back_f, back_meta = read_population(path)
    assert back == profiles
    assert back_f == f_locals
    assert back_meta == meta


def test_population_without_optional_fields(tmp_path):
    profiles = sample_profiles()
    path = str(tmp_path / "population.ini")
    write_population(path, profiles)
    back, f_locals, meta = read_population(path)
    assert back == profiles
    assert f_locals is None
    assert meta == {}


def test_population_rejects_unknown_section(tmp_path):
    path = tmp_path / "population.ini"
    path.write_text("[client 0]\nd = 1\nG = 1.0\nc = 1.0\nv = 0.0\n\n[extra]\nx = 1\n")
    with pytest.raises(ValueError, match="extra"):
        read_population(str(path))


def test_population_rejects_gapped_indices(tmp_path):
    path = tmp_path / "population.ini"
    path.write_text(
        "[client 0]\nd = 1\nG = 1.0\nc = 1.0\nv = 0.0\n\n"
        "[client 2]\nd = 1\nG = 1.0\nc = 1.0\nv = 0.0\n"
    )
    with pytest.raises(ValueError, match="contiguous"):
        read_population(str(path))


def test_population_default_q_max_is_one(tmp_path):
    path = tmp_path / "population.ini"
    path.write_text("[client 0]\nd = 4\nG = 1.0\nc = 2.0\nv = 0.5\n")
    profiles, _, _ = read_population(str(path))
    assert profiles[0].q_max == 1.0


def test_equilibrium_manifest_round_trip(tmp_path):
    profiles = sample_profiles()
    constants = GameConstants(alpha=2.0, beta=1.0, rounds=50, local_steps=10)
    result = server_solve(profiles, constants, budget=5.0)
    path = str(tmp_path / "equilibrium_optimal.json")
    write_equilibrium_manifest(path, result, "optimal", 5.0)
    back, scheme, budget = read_equilibrium_manifest(path)
    assert scheme == "optimal"
    assert budget == 5.0
    assert back == result


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_manifest_written_again_from_what_was_read_has_the_same_bytes(tmp_path, scheme):
    constants = GameConstants(alpha=2.0, beta=1.0, rounds=50, local_steps=10)
    result = solve_scheme(scheme, sample_profiles(), constants, 5.0)
    assert math.isnan(result.lambda_star) == (scheme != "optimal")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_equilibrium_manifest(str(first), result, scheme, 5.0)
    back, back_scheme, budget = read_equilibrium_manifest(str(first))
    write_equilibrium_manifest(str(second), back, back_scheme, budget)
    assert first.read_bytes() == second.read_bytes()


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
CLIENT_ROW = st.tuples(st.floats(0.0, 1.0), ANY_FLOAT, ANY_FLOAT, st.booleans())
DIAGNOSTICS = st.dictionaries(st.text(), st.recursive(
    st.none() | st.booleans() | st.integers() | ANY_FLOAT | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8), max_size=4)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(CLIENT_ROW, max_size=6), scalars=st.tuples(*[ANY_FLOAT] * 4),
       diagnostics=DIAGNOSTICS, scheme=st.sampled_from(SCHEMES) | st.text(), budget=ANY_FLOAT)
@example(rows=[(0.5, -1.0, -0.5, True)], scalars=(math.nan, math.inf, -math.inf, 0.0),
         diagnostics={}, scheme="optimal", budget=1.0)                   # one client
@example(rows=[(1.0, math.nan, math.inf, False), (0.0, -math.inf, -0.0, True)],
         scalars=(1.0, 2.0, 3.0, 4.0), diagnostics={"clients": [], "a": {"b": [1, {"c": []}]}},
         scheme="uniform", budget=0.0)                                   # nested diagnostics
def test_a_manifest_is_the_json_dumps_text_byte_for_byte(rows, scalars, diagnostics, scheme,
                                                         budget):
    q, prices, payments, interior = (list(column) for column in zip(*rows)) if rows else [[]] * 4
    lambda_star, v_threshold, spend, bound_value = scalars
    result = EquilibriumResult(q_star=q, p_star=prices, payments=payments, interior=interior,
                               lambda_star=lambda_star, v_threshold=v_threshold, spend=spend,
                               bound_value=bound_value, diagnostics=diagnostics)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.json"), os.path.join(tmp, "want.json")
        write_equilibrium_manifest(got, result, scheme, budget)
        oracles.write_equilibrium_manifest(want, result, scheme, budget)
        with open(got, "rb") as f1, open(want, "rb") as f2:
            assert f1.read() == f2.read()


def market_shaped_population(n: int = 2000, rounds: int = 200, seed: int = 1):
    """A population with the benchmark market's regime mix: 40% of clients at
    v = 0, a quarter capped below q = 1, some negative-price clients and a few
    pinned at the floor. Returns (population, constants, budget)."""
    rng = np.random.default_rng(seed)
    d = rng.integers(20, 401, n)
    grad = rng.uniform(1.0, 10.0, n)
    cost = 10.0 + rng.exponential(40.0, n)
    q_max = np.where(rng.random(n) < 0.25, rng.uniform(0.3, 0.9, n), 1.0)
    a = d / d.sum()
    k = 1.0 / rounds * a**2 * grad**2
    target = float(np.median(4.0 * cost * 0.2**3 / k))
    u, w = rng.random(n), rng.random(n)
    v = target * np.select([u < 0.40, u < 0.97, u < 0.995],
                           [0.0 * w, 0.3 * w, 0.34 + 0.6 * w], 1.05 + 0.45 * w)
    q = np.cbrt(np.maximum(k * (target - v), 0.0) / (4.0 * cost))
    q = np.clip(np.where(v >= target, 0.01, q), 0.01, q_max)
    budget = float(np.sum(2.0 * cost * q**2 - k * v / q))
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=rounds, local_steps=10, q_floor=0.01)
    return make_population(d, grad, cost, v, q_max), constants, budget


def test_schemes_solved_again_on_one_population_write_the_same_manifests(tmp_path):
    """Nothing a solve leaves on a reused population changes the next solve."""
    population, constants, budget = market_shaped_population()
    assert budget > 0.0
    for attempt in range(3):
        for scheme in SCHEMES:
            result = solve_scheme(scheme, population, constants, budget)
            write_equilibrium_manifest(str(tmp_path / f"{scheme}_{attempt}.json"), result,
                                       scheme, budget)
    for scheme in SCHEMES:
        first = (tmp_path / f"{scheme}_0.json").read_bytes()
        assert all((tmp_path / f"{scheme}_{k}.json").read_bytes() == first for k in (1, 2))


def test_a_result_holds_read_only_arrays():
    constants = GameConstants(alpha=2.0, beta=1.0, rounds=50, local_steps=10)
    result = server_solve(sample_profiles(), constants, budget=5.0)
    for column in (result.p_star, result.payments, result.interior, result.q_star):
        assert isinstance(column, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]


def test_baseline_as_result_wraps_fields():
    # a^2 G^2 = 1/4 for both clients, so the penalty is 1/4 + 3/4 and the bound 1 + beta.
    population = make_population([1, 1], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    constants = GameConstants(alpha=1.0, beta=2.0, rounds=1, local_steps=1)
    result = _result(np.array([2.0, 4.0]), np.array([0.5, 0.25]), population, constants,
                     lambda_star=math.nan, v_threshold=math.nan,
                     interior=np.zeros(2, dtype=bool), diagnostics={"solver": "baseline"})
    assert result.payments.tolist() == [1.0, 1.0]
    assert result.spend == pytest.approx(2.0)
    assert math.isnan(result.lambda_star)
    assert result.interior.tolist() == [False, False]
    assert result.bound_value == 3.0


def test_baseline_spend_is_the_exact_sum_of_payments():
    population = make_population([1] * 4, [1.0] * 4, [1.0] * 4, [0.0] * 4, [1.0] * 4)
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    result = _result(np.array([1.0, 1e100, 1.0, -1e100]), np.ones(4), population, constants,
                     lambda_star=math.nan, v_threshold=math.nan,
                     interior=np.zeros(4, dtype=bool), diagnostics={"solver": "baseline"})
    assert result.payments.tolist() == [1.0, 1e100, 1.0, -1e100]
    assert result.spend == 2.0


def test_metrics_csv_round_trip(tmp_path):
    metrics = [
        RoundMetrics(round_index=0, participants=(0, 2), loss=1.25, accuracy=0.5, sim_time=1.5),
        RoundMetrics(round_index=1, participants=(), loss=1.0, accuracy=0.625, sim_time=2.5),
    ]
    path = str(tmp_path / "metrics.csv")
    write_metrics_csv(path, run_id="optimal-7", seed=7, metrics=metrics)
    with open(path) as f:
        assert f.readline().strip() == ",".join(METRICS_HEADER)
    rows = read_metrics_csv(path)
    assert len(rows) == 2
    assert rows[0] == {
        "run_id": "optimal-7", "seed": 7, "round": 0, "sim_time": 1.5,
        "participants": 2, "loss": 1.25, "accuracy": 0.5,
    }
    assert rows[1]["participants"] == 0


def test_metrics_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_metrics_csv(str(path))
