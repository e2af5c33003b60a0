import math

import numpy as np
import pytest

from fedpricing.core import (
    EquilibriumResult,
    GameConstants,
    ParticipationVector,
    Population,
    PopulationError,
    make_population,
)
from fedpricing.formats import read_equilibrium_manifest, write_equilibrium_manifest


def test_equal_datasizes_give_equal_weights():
    profiles = make_population([1, 1], [1, 1], [1, 1], [0, 0], [1, 1])
    assert [p.weight for p in profiles] == [0.5, 0.5]


def test_weights_follow_datasize_ratio():
    profiles = make_population([3, 1], [1, 1], [1, 1], [0, 0], [1, 1])
    assert [p.weight for p in profiles] == [0.75, 0.25]


def test_nonpositive_datasize_rejected_with_index():
    with pytest.raises(PopulationError, match="client 2"):
        make_population([1, 2, 0], [1, 1, 1], [1, 1, 1], [0, 0, 0], [1, 1, 1])


def test_mismatched_lengths_rejected():
    with pytest.raises(PopulationError, match="grad_bounds"):
        make_population([1, 2], [1], [1, 1], [0, 0], [1, 1])


def test_empty_population_rejected():
    with pytest.raises(PopulationError):
        make_population([], [], [], [], [])


def test_weight_normalization_random_populations():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        d = rng.integers(1, 10_000, size=n).tolist()
        profiles = make_population(d, [1.0] * n, [1.0] * n, [0.0] * n, [1.0] * n)
        assert abs(sum(p.weight for p in profiles) - 1.0) <= 1e-9


ROW = dict(datasize=10, weight=1.0, grad_bound=1.0, cost_coeff=1.0, intrinsic_pref=0.0, q_max=1.0)


def population_of_rows(n_clients, **last):
    """A Population of n_clients copies of ROW, the last one with the fields in ``last``."""
    rows = [ROW] * (n_clients - 1) + [{**ROW, **last}]
    return Population(*([row[name] for row in rows] for name in ROW))


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(grad_bound=0.0), "grad_bound"),
        (dict(cost_coeff=-1.0), "cost_coeff"),
        (dict(intrinsic_pref=-0.1), "intrinsic_pref"),
        (dict(q_max=0.0), "q_max"),
        (dict(q_max=1.5), "q_max"),
    ],
)
def test_profile_invariants(kwargs, match):
    with pytest.raises(PopulationError, match=match):
        population_of_rows(1, **kwargs)


@pytest.mark.parametrize("field", ["datasize", "weight", "grad_bound", "cost_coeff", "intrinsic_pref", "q_max"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_profile_rejects_non_finite_values(field, value):
    with pytest.raises(PopulationError, match=f"client 3: {field} must be finite"):
        population_of_rows(4, **{field: value})


@pytest.mark.parametrize("column", range(5))
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_make_population_rejects_non_finite_entries(column, value):
    columns = [[1, 2, 3], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    columns[column][2] = value
    with pytest.raises(PopulationError, match="client 2"):
        make_population(*columns)


def test_non_integer_datasize_rejected_not_truncated():
    with pytest.raises(PopulationError, match=r"client 1: datasize must be an integer, got 2.5"):
        make_population([1, 2.5], [1, 1], [1, 1], [0, 0], [1, 1])
    with pytest.raises(PopulationError, match=r"client 4: datasize must be an integer"):
        population_of_rows(5, datasize=2.5)
    assert tuple(make_population([1.0, 3.0], [1, 1], [1, 1], [0, 0], [1, 1]))[1].datasize == 3


def test_population_columns_are_read_only_and_rows_built_on_demand():
    d = np.array([3, 1])
    population = make_population(d, [1.0, 2.0], [1, 1], [0, 0], [1, 1])
    d[0] = 7                      # the population keeps its own copy
    assert population.d.tolist() == [3.0, 1.0]
    with pytest.raises(ValueError, match="read-only"):
        population.a[0] = 0.5
    assert tuple(population)[0] == tuple(population)[0]
    assert tuple(population)[1]._asdict() == dict(index=1, datasize=1, weight=0.25, grad_bound=2.0,
                                                  cost_coeff=1.0, intrinsic_pref=0.0, q_max=1.0)
    assert [p.index for p in population] == [0, 1] and len(population) == 2


def test_rows_are_not_stored_on_the_population():
    population = make_population([3, 1, 2], [1.0, 2.0, 0.5], [1, 1, 4], [0, 0.5, 0], [1, 0.5, 1])
    before = dict(vars(population))
    rows = list(population)
    assert tuple(population)[0] == rows[0] and tuple(population)[-1:] == (rows[-1],)
    assert vars(population).keys() == before.keys()
    assert all(vars(population)[name] is value for name, value in before.items())


def test_population_checks_its_columns():
    with pytest.raises(PopulationError, match="grad_bound column has shape"):
        Population([1, 2], [0.5, 0.5], [1.0], [1, 1], [0, 0], [1, 1])
    with pytest.raises(PopulationError, match="client 1: q_max must be in"):
        Population([1, 2], [0.5, 0.5], [1, 1], [1, 1], [0, 0], [1, 0])


def test_game_constants_invariants():
    GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    with pytest.raises(ValueError):
        GameConstants(alpha=0.0, beta=0.0, rounds=1, local_steps=1)
    with pytest.raises(ValueError):
        GameConstants(alpha=1.0, beta=-1.0, rounds=1, local_steps=1)
    with pytest.raises(ValueError):
        GameConstants(alpha=1.0, beta=0.0, rounds=0, local_steps=1)
    with pytest.raises(ValueError):
        GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1, q_floor=1.0)
    for name, alpha, beta in (("alpha", math.inf, 0.0), ("beta", 1.0, math.inf),
                              ("alpha", math.nan, 0.0)):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            GameConstants(alpha=alpha, beta=beta, rounds=1, local_steps=1)


def test_participation_vector_range():
    ParticipationVector([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="client 1"):
        ParticipationVector([0.5, 1.2])


def test_participation_vector_keeps_its_own_copy():
    levels = np.array([0.5, 0.25])
    q = ParticipationVector(levels)
    levels[0] = 1.0
    assert q.q.tolist() == [0.5, 0.25] and levels.flags.writeable
    assert q == ParticipationVector([0.5, 0.25]) and q != ParticipationVector([0.5, 0.5])


class TestManifestRoundTrips:
    """The equilibrium record survives a trip through the manifest (JSON dict) form."""

    def test_equilibrium_result(self, tmp_path):
        r = EquilibriumResult(
            q_star=[0.5, 1.0],
            p_star=(1.0, -2.0),
            lambda_star=0.25,
            v_threshold=4.0 / 3.0,
            spend=-0.5,
            bound_value=2.0,
            payments=(0.5, -2.0),
            interior=(True, False),
            diagnostics={"solver": "test"},
        )
        path = str(tmp_path / "equilibrium_test.json")
        write_equilibrium_manifest(path, r, "optimal", 1.0)
        back, _scheme, _budget = read_equilibrium_manifest(path)
        assert back == r
