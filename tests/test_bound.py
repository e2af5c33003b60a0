import math

import numpy as np
import pytest

from fedpricing.bound import (
    bound_gradient,
    convergence_gap_bound,
    participation_penalty,
)
from fedpricing.core import GameConstants, make_population


def random_instance(rng, n=None):
    n = n or int(rng.integers(1, 8))
    profiles = make_population(
        datasizes=rng.integers(1, 100, size=n).tolist(),
        grad_bounds=rng.uniform(0.1, 5.0, size=n).tolist(),
        cost_coeffs=rng.uniform(0.1, 5.0, size=n).tolist(),
        intrinsic_prefs=rng.uniform(0.0, 2.0, size=n).tolist(),
        q_maxes=[1.0] * n,
    )
    constants = GameConstants(
        alpha=float(rng.uniform(0.1, 10.0)),
        beta=float(rng.uniform(0.0, 5.0)),
        rounds=int(rng.integers(1, 100)),
        local_steps=int(rng.integers(1, 20)),
        q_floor=0.01,
    )
    q = rng.uniform(0.02, 1.0, size=n)
    return profiles, constants, q


def test_participation_penalty_zero_at_full_participation():
    profiles = make_population([1, 2, 3], [1, 2, 3], [1, 1, 1], [0, 0, 0], [1, 1, 1])
    q = [1.0, 1.0, 1.0]
    assert participation_penalty(q, profiles) == 0.0


def test_participation_penalty_single_client_value():
    profiles = make_population([1], [1.0], [1.0], [0.0], [1.0])
    q = [0.5]
    # (1 - 0.5) * 1 * 1 / 0.5 = 1
    assert participation_penalty(q, profiles) == 1.0


def test_participation_penalty_quadratic_in_grad_bounds():
    rng = np.random.default_rng(3)
    profiles, constants, q = random_instance(rng, n=4)
    doubled = make_population(profiles.d, 2 * profiles.G, profiles.c, profiles.v, profiles.q_max)
    v1 = participation_penalty(q, profiles)
    v2 = participation_penalty(q, doubled)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_gap_bound_rejects_nonpositive_q():
    profiles = make_population([1, 1], [1, 1], [1, 1], [0, 0], [1, 1])
    q = [0.5, 0.0]
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    with pytest.raises(ValueError, match="client 1"):
        convergence_gap_bound(q, profiles, constants)


def test_gap_bound_full_participation_is_beta_over_rounds():
    profiles = make_population([1, 4], [2.0, 1.0], [1, 1], [0, 0], [1, 1])
    constants = GameConstants(alpha=7.0, beta=3.0, rounds=6, local_steps=2)
    q = [1.0, 1.0]
    assert convergence_gap_bound(q, profiles, constants) == pytest.approx(0.5)


def test_gap_bound_two_term_example():
    # a=(0.5,0.5), G=(2,1), q=(0.5,1), alpha=1, beta=0, R=1:
    # (1-0.5)*0.25*4/0.5 + 0 = 1
    profiles = make_population([1, 1], [2.0, 1.0], [1, 1], [0, 0], [1, 1])
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    q = [0.5, 1.0]
    assert convergence_gap_bound(q, profiles, constants) == pytest.approx(1.0)


def test_gap_bound_strictly_decreasing_per_coordinate():
    rng = np.random.default_rng(11)
    for _ in range(200):
        profiles, constants, q = random_instance(rng)
        base = convergence_gap_bound(q, profiles, constants)
        n = int(rng.integers(0, len(profiles)))
        if q[n] >= 0.999:
            continue
        bumped = list(q)
        bumped[n] = min(1.0, bumped[n] + 0.05)
        assert convergence_gap_bound(bumped, profiles, constants) < base


def test_gradient_unit_plug_in():
    profiles = make_population([1], [1.0], [1.0], [0.0], [1.0])
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    grad = bound_gradient([1.0], profiles, constants)
    assert grad == [pytest.approx(-1.0)]


def test_gradient_is_an_array():
    profiles = make_population([1, 3], [1.0, 2.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    grad = bound_gradient([0.5, 1.0], profiles, constants)
    assert isinstance(grad, np.ndarray) and grad.shape == (2,)


def test_gradient_always_negative():
    rng = np.random.default_rng(5)
    for _ in range(100):
        profiles, constants, q = random_instance(rng)
        assert all(g < 0 for g in bound_gradient(q, profiles, constants))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        profiles, constants, q = random_instance(rng)
        analytic = bound_gradient(q, profiles, constants)
        for n in range(len(profiles)):
            up = list(q)
            down = list(q)
            up[n] += h
            down[n] -= h
            fd = (
                convergence_gap_bound(up, profiles, constants)
                - convergence_gap_bound(down, profiles, constants)
            ) / (2 * h)
            scale = max(abs(g) for g in analytic)
            assert fd == pytest.approx(analytic[n], rel=1e-4, abs=1e-7 * scale)


def test_bounds_deterministic_across_calls():
    rng = np.random.default_rng(23)
    profiles, constants, q = random_instance(rng, n=6)
    first = convergence_gap_bound(q, profiles, constants)
    for _ in range(5):
        assert convergence_gap_bound(q, profiles, constants) == first


def test_penalty_sum_keeps_small_terms_beside_a_large_one():
    # q = 0.5 makes each summand a^2 G^2: here 2^54 and three terms near 1.
    # Adding them left to right rounds every 2^54 + 1 back to 2^54; the exact
    # sum rounds to 2^54 + 4.
    profiles = make_population([3, 1, 1, 1], [2.0**28, 6.0, 6.0, 6.0], [1] * 4, [0] * 4, [1] * 4)
    q = [0.5] * 4
    terms = [p.weight**2 * p.grad_bound**2 for p in profiles]
    assert participation_penalty(q, profiles) == math.fsum(terms)
    assert math.fsum(terms) != sum(terms)


@pytest.mark.parametrize("levels", [[0.5], [0.5, 0.5]])
@pytest.mark.parametrize("bound", [participation_penalty, convergence_gap_bound, bound_gradient])
def test_bounds_reject_a_participation_of_the_wrong_length(bound, levels):
    profiles = make_population([1, 2, 3], [1.0] * 3, [1.0] * 3, [0.0] * 3, [1.0] * 3)
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    args = (profiles,) if bound is participation_penalty else (profiles, constants)
    message = f"^participation has {len(levels)} entries for 3 clients$"
    with pytest.raises(ValueError, match=message):
        bound(levels, *args)


@pytest.mark.parametrize("levels", [[0.5, 1.5], [0.5, math.nan]], ids=["above-1", "nan"])
@pytest.mark.parametrize("bound", [participation_penalty, convergence_gap_bound, bound_gradient])
def test_bounds_reject_a_level_outside_the_unit_interval(bound, levels):
    profiles = make_population([1, 2], [1.0] * 2, [1.0] * 2, [0.0] * 2, [1.0] * 2)
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    args = (profiles,) if bound is participation_penalty else (profiles, constants)
    message = rf"^client 1: participation probability {levels[1]} outside \[0, 1\]$"
    with pytest.raises(ValueError, match=message):
        bound(levels, *args)
