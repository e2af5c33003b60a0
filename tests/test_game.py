import math

import numpy as np
import pytest

from fedpricing.core import GameConstants, make_population
from fedpricing.game import (
    InfeasibleBudgetError,
    baseline_uniform,
    baseline_weighted,
    client_best_response,
    inverse_price,
    kkt_participation,
    payment_threshold,
    server_solve,
    total_spend,
    verify_equilibrium,
)
from oracles import client_utility, price_closed_form, server_solve_m_search

UNIT_CONSTANTS = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)


def unit_population(v=0.0, c=1.0, q_max=1.0):
    return make_population([1], [1.0], [c], [v], [q_max])


def unit_client(v=0.0, c=1.0, q_max=1.0):
    return unit_population(v, c, q_max)[0]


def random_population(rng, n):
    return make_population(
        datasizes=rng.integers(1, 50, size=n).tolist(),
        grad_bounds=rng.uniform(0.2, 4.0, size=n).tolist(),
        cost_coeffs=rng.uniform(0.2, 4.0, size=n).tolist(),
        intrinsic_prefs=rng.uniform(0.0, 0.5, size=n).tolist(),
        q_maxes=[1.0] * n,
    )


def random_constants(rng):
    return GameConstants(
        alpha=float(rng.uniform(0.5, 5.0)),
        beta=float(rng.uniform(0.0, 2.0)),
        rounds=int(rng.integers(5, 50)),
        local_steps=int(rng.integers(1, 10)),
    )


# ---------------------------------------------------------------- stage II


def test_client_utility_quadratic_part():
    profile = unit_client(v=0.0)
    q_others = [0.5]
    # 2*0.5 - 1*0.25 = 0.75
    assert client_utility(0.5, 2.0, profile, UNIT_CONSTANTS, [profile], q_others) == pytest.approx(0.75)


def test_client_utility_includes_intrinsic_penalty():
    profile = unit_client(v=2.0)
    q_others = [0.5]
    # base 0.75 minus 2 * (1-0.5)*1/0.5 = 0.75 - 2
    got = client_utility(0.5, 2.0, profile, UNIT_CONSTANTS, [profile], q_others)
    assert got == pytest.approx(0.75 - 2.0)


def test_client_utility_diverges_at_zero_with_positive_pref():
    profile = unit_client(v=1.0)
    q_others = [0.0]
    assert client_utility(0.0, 1.0, profile, UNIT_CONSTANTS, [profile], q_others) == -math.inf


def test_best_response_zero_pref_closed_form():
    population = unit_population(v=0.0, c=2.0)
    assert client_best_response([1.0], population, UNIT_CONSTANTS)[0] == pytest.approx(0.25)
    assert client_best_response([-1.0], population, UNIT_CONSTANTS)[0] == 0.0
    assert client_best_response([100.0], population, UNIT_CONSTANTS)[0] == 1.0


def test_best_response_known_cubic_root():
    # v=1, c=1, a=G=alpha=R=1, P=0: FOC 1/q^2 = 2q, q = 2^(-1/3).
    got = client_best_response([0.0], unit_population(v=1.0), UNIT_CONSTANTS)[0]
    assert got == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-10)


def test_best_response_matches_grid_oracle():
    rng = np.random.default_rng(29)
    grid = np.linspace(1e-5, 1.0, 100_001)
    for _ in range(60):
        profiles = random_population(rng, 1)
        profile = profiles[0]
        constants = random_constants(rng)
        price = float(rng.uniform(-2.0, 6.0))
        solved = client_best_response([price], profiles, constants)[0]
        k = profile.intrinsic_pref * constants.alpha / constants.rounds
        k *= profile.weight**2 * profile.grad_bound**2
        util = price * grid - profile.cost_coeff * grid**2 - k * (1.0 - grid) / grid
        oracle = float(grid[np.argmax(util)])
        if profile.intrinsic_pref == 0.0 and price <= 0.0:
            oracle = 0.0
        assert abs(solved - oracle) <= 1.5e-5


def test_best_response_monotone_in_price():
    rng = np.random.default_rng(31)
    population = random_population(rng, 1)
    constants = random_constants(rng)
    prices = np.linspace(-1.0, 5.0, 50)
    qs = [client_best_response([float(p)], population, constants)[0] for p in prices]
    assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))


def test_inverse_price_inverts_best_response():
    rng = np.random.default_rng(37)
    for _ in range(50):
        population = random_population(rng, 1)
        constants = random_constants(rng)
        q_target = float(rng.uniform(constants.q_floor, 0.95))
        price = inverse_price([q_target], population, constants)
        assert client_best_response(price, population, constants)[0] == pytest.approx(q_target,
                                                                                      abs=1e-8)


def test_inverse_price_rejects_below_floor():
    with pytest.raises(ValueError, match="floor"):
        inverse_price([0.001], unit_population(), UNIT_CONSTANTS)


def test_client_functions_take_one_entry_per_client():
    population = make_population([1, 2, 3], [1.0] * 3, [1.0] * 3, [0.0, 0.5, 1.0], [1.0] * 3)
    with pytest.raises(ValueError, match="^prices has 2 entries for 3 clients$"):
        client_best_response([1.0, 2.0], population, UNIT_CONSTANTS)
    with pytest.raises(ValueError, match="^prices must be one-dimensional, got shape"):
        client_best_response(1.0, population, UNIT_CONSTANTS)
    with pytest.raises(ValueError, match="^levels has 1 entries for 3 clients$"):
        inverse_price([0.5], population, UNIT_CONSTANTS)
    with pytest.raises(ValueError, match=r"^client 1: q=0.001 below the participation floor 0.01$"):
        inverse_price([0.5, 0.001, 0.0001], population, UNIT_CONSTANTS)
    with pytest.raises(ValueError, match="^lambda must be positive"):
        kkt_participation(0.0, population, UNIT_CONSTANTS)
    assert len(kkt_participation(1.0, population, UNIT_CONSTANTS)) == 3


# ---------------------------------------------------------------- KKT pieces


def test_kkt_participation_regimes():
    population = unit_population(v=0.5)
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    # 1/lam <= v pins to the floor.
    assert kkt_participation(4.0, population, constants)[0] == constants.q_floor
    # Large 1/lam clips at the cap.
    assert kkt_participation(1e-6, population, constants)[0] == population[0].q_max
    # Interior: q^3 = alpha a^2 G^2 (1/lam - v) / (4 R c).
    lam = 0.5
    expected = ((2.0 - 0.5) / 4.0) ** (1.0 / 3.0)
    assert kkt_participation(lam, population, constants)[0] == pytest.approx(expected)


NAN = float("nan")


def nan_population():
    """Two clients, one with v = 0 and one with v > 0."""
    return make_population([1, 2], [1.0] * 2, [1.0] * 2, [0.0, 0.5], [1.0] * 2)


def test_kkt_participation_rejects_a_nan_dual():
    with pytest.raises(ValueError, match="^lambda must be positive, got nan$"):
        kkt_participation(NAN, nan_population(), UNIT_CONSTANTS)


def test_inverse_price_names_a_nan_level():
    with pytest.raises(ValueError, match="^client 0: q=nan below the participation floor"):
        inverse_price([NAN, 0.5], nan_population(), UNIT_CONSTANTS)


def test_client_best_response_names_the_first_price_that_is_not_finite():
    with pytest.raises(ValueError, match="^client 0: price must be finite, got nan$"):
        client_best_response([NAN, NAN], nan_population(), UNIT_CONSTANTS)
    with pytest.raises(ValueError, match="^client 1: price must be finite, got inf$"):
        client_best_response([1.0, math.inf], nan_population(), UNIT_CONSTANTS)


def test_payment_threshold_rejects_a_nan_dual():
    with pytest.raises(ValueError, match="^lambda must be positive, got nan$"):
        payment_threshold(NAN)


@pytest.mark.parametrize("solver", [server_solve, baseline_uniform, baseline_weighted])
def test_a_nan_budget_is_named_before_any_trial(solver, monkeypatch):
    import fedpricing.game as game

    def no_trial(*args, **kwargs):
        raise AssertionError("a bracket trial ran")

    monkeypatch.setattr(game, "_bracket_and_bisect", no_trial)
    with pytest.raises(ValueError, match="^budget must be (a number|nonnegative), got nan$"):
        solver(nan_population(), UNIT_CONSTANTS, NAN)


def test_total_spend_manual():
    profiles = make_population([1, 1], [2.0, 2.0], [1.0, 1.0], [0.0, 1.0], [1, 1])
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    q = [0.5, 0.5]
    # a^2 G^2 = 1 each. Client 0: (2*0.5)*0.5 = 0.5.
    # Client 1: (2*0.5 - 1/0.25)*0.5 = (1-4)*0.5 = -1.5.
    assert total_spend(q, profiles, constants) == pytest.approx(-1.0)


@pytest.mark.parametrize("levels", [[0.5], [0.5, 0.5]])
def test_total_spend_rejects_a_participation_of_the_wrong_length(levels):
    profiles = make_population([1, 2, 3], [1.0] * 3, [1.0] * 3, [0.0] * 3, [1.0] * 3)
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    message = f"^participation has {len(levels)} entries for 3 clients$"
    with pytest.raises(ValueError, match=message):
        total_spend(levels, profiles, constants)


@pytest.mark.parametrize("levels", [[0.5, NAN], [0.5, 1.5]], ids=["nan", "above-1"])
def test_total_spend_rejects_a_level_outside_the_unit_interval(levels):
    profiles = make_population([1, 2], [1.0] * 2, [1.0] * 2, [0.0] * 2, [1.0] * 2)
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    message = rf"^client 1: participation probability {levels[1]} outside \[0, 1\]$"
    with pytest.raises(ValueError, match=message):
        total_spend(levels, profiles, constants)


def test_total_spend_handles_cancellation():
    # At q = 0.5 with a = 1/4 and G = alpha = R = 1 the summands are
    # 1, 1e100, 1 and -1e100; summed left to right they give 0.
    profiles = make_population([1] * 4, [1.0] * 4, [2.0, 2e100, 2.0, 1.0], [0, 0, 0, 8e100], [1] * 4)
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1)
    assert total_spend([0.5] * 4, profiles, constants) == 2.0


def test_price_closed_form_matches_composition():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 200:
        population = random_population(rng, 1)
        profile = population[0]
        constants = random_constants(rng)
        lam = float(rng.uniform(0.05, 5.0))
        if 1.0 / lam <= profile.intrinsic_pref:
            continue
        q = kkt_participation(lam, population, constants)[0]
        if not constants.q_floor < q < profile.q_max:
            continue
        direct = price_closed_form(lam, profile, constants)
        composed = inverse_price([q], population, constants)[0]
        assert direct == pytest.approx(composed, rel=1e-8)
        checked += 1


def test_price_sign_flips_at_threshold():
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1, q_floor=0.001)
    lam = 0.2
    vt = payment_threshold(lam)
    assert vt == pytest.approx(1.0 / 0.6)
    for v, sign in [(vt * 0.5, 1.0), (vt * 1.5, -1.0)]:
        profile = unit_client(v=v, c=20.0)  # high cost keeps q interior
        price = price_closed_form(lam, profile, constants)
        assert math.copysign(1.0, price) == sign
    # Exactly at the threshold the price vanishes.
    profile = unit_client(v=vt, c=20.0)
    assert price_closed_form(lam, profile, constants) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- stage I


def test_single_client_saturates_when_budget_allows():
    profiles = make_population([1], [1.0], [1.0], [0.0], [1.0])
    result = server_solve(profiles, UNIT_CONSTANTS, budget=10.0)
    assert result.q_star == (1.0,)
    assert result.p_star[0] == pytest.approx(2.0)
    assert result.spend == pytest.approx(2.0)
    assert result.diagnostics["caps_binding"] is True


def test_budget_tight_when_caps_not_binding():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        profiles = random_population(rng, n)
        constants = random_constants(rng)
        cap_spend = total_spend([1.0] * n, profiles, constants)
        budget = 0.5 * max(cap_spend, 0.1)
        floor_spend = total_spend(
            [constants.q_floor] * n, profiles, constants
        )
        if budget <= floor_spend:
            continue
        result = server_solve(profiles, constants, budget)
        assert abs(result.spend - budget) <= 1e-6 * max(1.0, budget)


def test_infeasible_budget_reports_minimum():
    profiles = make_population([1, 1], [1, 1], [1000.0, 1000.0], [0, 0], [1, 1])
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1, local_steps=1, q_floor=0.5)
    with pytest.raises(InfeasibleBudgetError) as exc:
        server_solve(profiles, constants, budget=1.0)
    assert exc.value.min_budget > 1.0


def test_solvers_agree_small_instances():
    rng = np.random.default_rng(47)
    for _ in range(6):
        n = int(rng.integers(2, 4))
        profiles = random_population(rng, n)
        constants = random_constants(rng)
        cap_spend = total_spend([1.0] * n, profiles, constants)
        budget = 0.4 * max(cap_spend, 0.1)
        floor_spend = total_spend(
            [constants.q_floor] * n, profiles, constants
        )
        if budget <= floor_spend:
            continue
        a = server_solve(profiles, constants, budget)
        b = server_solve_m_search(profiles, constants, budget)
        assert b.bound_value == pytest.approx(a.bound_value, rel=1e-3)
        for qa, qb, flag in zip(a.q_star, b.q_star, a.interior):
            if flag:
                assert qb == pytest.approx(qa, abs=1e-3)


def test_monotone_in_budget():
    rng = np.random.default_rng(53)
    profiles = random_population(rng, 10)
    constants = GameConstants(alpha=2.0, beta=0.5, rounds=20, local_steps=5)
    budgets = np.geomspace(0.3, 3.0, 8)
    prev = None
    for b in budgets:
        result = server_solve(profiles, constants, float(b))
        if prev is not None:
            for n, flag in enumerate(result.interior):
                if flag and prev.interior[n]:
                    assert result.q_star[n] >= prev.q_star[n] - 1e-9
                    assert result.p_star[n] >= prev.p_star[n] - 1e-9
        prev = result


def test_verify_equilibrium_clean_instance():
    rng = np.random.default_rng(59)
    profiles = random_population(rng, 6)
    constants = GameConstants(alpha=2.0, beta=0.0, rounds=10, local_steps=3)
    budget = 0.4 * total_spend([1.0] * 6, profiles, constants)
    result = server_solve(profiles, constants, budget)
    report = verify_equilibrium(result, profiles, constants, budget)
    assert report.kkt_equality_residual <= 1e-6
    assert report.budget_residual <= 1e-6 * max(1.0, budget)
    assert report.threshold_sign_ok
    assert report.ordering_ok
    assert report.violations == ()


# ---------------------------------------------------------------- baselines


def test_uniform_baseline_exhausts_budget_with_one_price():
    rng = np.random.default_rng(61)
    profiles = random_population(rng, 5)
    constants = random_constants(rng)
    budget = 0.3 * sum(2.0 * p.cost_coeff for p in profiles)
    result = baseline_uniform(profiles, constants, budget)
    price, q = result.p_star[0], result.q_star
    assert set(result.p_star) == {price}
    assert price >= 0.0
    spend = sum(price * qn for qn in q)
    assert spend == pytest.approx(budget, rel=1e-6) or spend <= budget


def test_weighted_baseline_prices_proportional_to_datasize():
    rng = np.random.default_rng(67)
    profiles = random_population(rng, 5)
    constants = random_constants(rng)
    budget = 0.3 * sum(2.0 * p.cost_coeff for p in profiles)
    result = baseline_weighted(profiles, constants, budget)
    prices, q = result.p_star, result.q_star
    ratios = {prices[n] / profiles[n].datasize for n in range(5)}
    assert max(ratios) - min(ratios) <= 1e-9 * max(1.0, max(ratios))
    spend = sum(pn * qn for pn, qn in zip(prices, q))
    assert spend == pytest.approx(budget, rel=1e-6) or spend <= budget


def test_baseline_zero_budget_means_zero_prices():
    profiles = make_population([1, 2], [1, 1], [1, 1], [0, 0], [1, 1])
    result = baseline_uniform(profiles, UNIT_CONSTANTS, 0.0)
    assert result.p_star.tolist() == [0.0, 0.0]
    assert result.q_star.tolist() == [0.0, 0.0]
    assert result.bound_value == math.inf
