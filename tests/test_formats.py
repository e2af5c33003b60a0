import math

import numpy as np
import pytest

from fedpricing.core import GameConstants, make_population
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
