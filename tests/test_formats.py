import math

import pytest

from fedpricing.core import (
    EquilibriumResult,
    GameConstants,
    ParticipationVector,
    PricingVector,
    make_population,
)
from fedpricing.formats import (
    METRICS_HEADER,
    baseline_as_result,
    read_equilibrium_manifest,
    read_metrics_csv,
    read_population,
    write_equilibrium_manifest,
    write_metrics_csv,
    write_population,
)
from fedpricing.fltrain import RoundMetrics
from fedpricing.game import server_solve


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


def test_baseline_as_result_wraps_fields():
    prices = PricingVector([2.0, 4.0])
    q = ParticipationVector([0.5, 0.25])
    result = baseline_as_result(prices, q, bound_value=3.0)
    assert result.payments == (1.0, 1.0)
    assert result.spend == pytest.approx(2.0)
    assert math.isnan(result.lambda_star)
    assert result.interior == (False, False)
    assert result.bound_value == 3.0


def test_baseline_spend_is_the_exact_sum_of_payments():
    prices = PricingVector([1.0, 1e100, 1.0, -1e100])
    q = ParticipationVector([1.0] * 4)
    result = baseline_as_result(prices, q)
    assert result.payments == (1.0, 1e100, 1.0, -1e100)
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
