"""Acceptance suite: one test per criterion, one pass/fail line each.

Independent oracles (Monte Carlo, dense grids, finite differences) validate
the analytic solvers; the end-to-end criteria run the full desk-scale
experiment pipeline once and share its artifacts.
"""

import math

import numpy as np
import pytest

from fedpricing.bound import bound_gradient, convergence_gap_bound
from fedpricing.core import GameConstants, make_population
from fedpricing.data import power_law_sizes
from fedpricing.experiment import build_config, run_experiment
from fedpricing.fltrain import aggregate, sample_participants
from fedpricing.game import (
    client_best_response,
    inverse_price,
    kkt_participation,
    payment_threshold,
    server_solve,
    total_spend,
    verify_equilibrium,
)
from oracles import price_closed_form, server_solve_m_search


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# --------------------------------------------------------------------------
# Shared instances: 20 random small games solved by the primary solver.
# --------------------------------------------------------------------------


def _random_small_instance(rng):
    n = int(rng.integers(2, 4))
    profiles = make_population(
        datasizes=rng.integers(1, 50, size=n).tolist(),
        grad_bounds=rng.uniform(0.5, 4.0, size=n).tolist(),
        cost_coeffs=rng.uniform(0.5, 4.0, size=n).tolist(),
        intrinsic_prefs=rng.uniform(0.0, 0.4, size=n).tolist(),
        q_maxes=[1.0] * n,
    )
    constants = GameConstants(
        alpha=float(rng.uniform(0.5, 4.0)), beta=0.0,
        rounds=int(rng.integers(5, 40)), local_steps=5, q_floor=0.01,
    )
    cap_spend = total_spend([1.0] * n, profiles, constants)
    floor_spend = total_spend(
        [constants.q_floor] * n, profiles, constants
    )
    budget = floor_spend + float(rng.uniform(0.2, 0.6)) * (cap_spend - floor_spend)
    return profiles, constants, budget


@pytest.fixture(scope="module")
def small_instances():
    rng = np.random.default_rng(20240817)
    instances = []
    while len(instances) < 20:
        profiles, constants, budget = _random_small_instance(rng)
        result = server_solve(profiles, constants, budget)
        if all(result.interior):  # keep non-degenerate, fully interior games
            instances.append((profiles, constants, budget, result))
    return instances


@pytest.fixture(scope="module")
def desk_summary(tmp_path_factory):
    cfg = build_config("desk")
    out = str(tmp_path_factory.mktemp("desk-run"))
    return run_experiment(cfg, out), cfg


# --------------------------------------------------------------------------
# 1. Unbiased aggregation (Monte Carlo oracle)
# --------------------------------------------------------------------------


def test_01_unbiased_aggregation():
    rng = np.random.default_rng(11)
    n, dim = 5, 20
    profiles = make_population(
        rng.integers(10, 100, size=n).tolist(), [1.0] * n, [1.0] * n, [0.0] * n, [1.0] * n
    )
    q = [0.2, 0.4, 0.5, 0.8, 1.0]
    w_prev = rng.normal(size=dim)
    updates = {m: rng.normal(size=dim) for m in range(n)}
    full_avg = w_prev + sum(profiles[m].weight * (updates[m] - w_prev) for m in range(n))

    trials = 100_000
    acc = np.zeros(dim)
    acc_sq = np.zeros(dim)
    for _ in range(trials):
        participants = sample_participants(q, rng)
        w = aggregate(w_prev, {m: updates[m] for m in participants}, q, profiles)
        acc += w
        acc_sq += w * w
    mean = acc / trials
    var = acc_sq / trials - mean**2
    se = np.sqrt(np.maximum(var, 0.0) / trials)
    ok = bool(np.all(np.abs(mean - full_avg) <= 3.0 * se))
    _report(1, "aggregation unbiased vs Monte Carlo", ok)


# --------------------------------------------------------------------------
# 2. Client best response vs dense grid oracle
# --------------------------------------------------------------------------


def test_02_best_response_grid_oracle():
    rng = np.random.default_rng(22)
    step = 1e-4
    worst = 0.0
    for _ in range(500):
        profiles = make_population(
            [int(rng.integers(1, 50))],
            [float(rng.uniform(0.2, 4.0))],
            [float(rng.uniform(0.2, 4.0))],
            [float(rng.uniform(0.0, 1.0)) if rng.random() < 0.7 else 0.0],
            [1.0],
        )
        p = profiles[0]
        constants = GameConstants(
            alpha=float(rng.uniform(0.5, 4.0)), beta=0.0,
            rounds=int(rng.integers(5, 40)), local_steps=5, q_floor=0.01,
        )
        price = float(rng.uniform(-2.0, 6.0))
        solved = client_best_response([price], profiles, constants)[0]
        grid = np.arange(step, p.q_max + step / 2, step)
        k = p.intrinsic_pref * constants.alpha / constants.rounds * p.weight**2 * p.grad_bound**2
        util = price * grid - p.cost_coeff * grid**2 - k * (1.0 - grid) / grid
        oracle = float(grid[np.argmax(util)])
        if p.intrinsic_pref == 0.0 and price <= 0.0:
            oracle = 0.0
        worst = max(worst, abs(solved - oracle))
    _report(2, f"best response within grid step of oracle (worst {worst:.2e})", worst <= step)


# --------------------------------------------------------------------------
# 3. Server optimality vs exhaustive grid oracle (N in {2, 3})
# --------------------------------------------------------------------------


def _grid_oracle_objective(profiles, constants, budget, step=1e-3):
    """Exhaustive per-coordinate grid minimization of the gap bound subject
    to the spend constraint, via sorted-prefix minima for the inner coordinates."""
    n = len(profiles)
    grids = [np.arange(constants.q_floor, p.q_max + step / 2, step) for p in profiles]
    k = [constants.alpha / constants.rounds * p.weight**2 * p.grad_bound**2 for p in profiles]
    spend = [
        2.0 * p.cost_coeff * g**2 - p.intrinsic_pref * kk / g
        for p, g, kk in zip(profiles, grids, k)
    ]
    penalty = [kk * (1.0 - g) / g for g, kk in zip(grids, k)]

    if n == 2:
        s_tail, g_tail = spend[1], penalty[1]
    else:
        s_tail = (spend[1][:, None] + spend[2][None, :]).ravel()
        g_tail = (penalty[1][:, None] + penalty[2][None, :]).ravel()
    order = np.argsort(s_tail)
    s_sorted = s_tail[order]
    prefix_min = np.minimum.accumulate(g_tail[order])

    best = math.inf
    for s0, g0 in zip(spend[0], penalty[0]):
        idx = np.searchsorted(s_sorted, budget - s0, side="right")
        if idx > 0:
            best = min(best, g0 + prefix_min[idx - 1])
    return best


def test_03_server_optimality_grid(small_instances):
    # The grid minimum is an upper bound on the true optimum (discretization
    # can only overshoot near the binding budget), so optimality is certified
    # by the solver never exceeding the oracle by more than the tolerance.
    worst = -math.inf
    for profiles, constants, budget, result in small_instances:
        oracle = _grid_oracle_objective(profiles, constants, budget)
        worst = max(worst, (result.bound_value - oracle) / abs(oracle))
    _report(3, f"server objective beats/matches grid oracle (worst excess {worst:.2e})", worst <= 1e-3)


# --------------------------------------------------------------------------
# 4. Independent-solver cross-check
# --------------------------------------------------------------------------


def test_04_solver_cross_check(small_instances):
    worst_obj = worst_q = 0.0
    for profiles, constants, budget, result in small_instances:
        other = server_solve_m_search(profiles, constants, budget)
        worst_obj = max(
            worst_obj, abs(other.bound_value - result.bound_value) / abs(result.bound_value)
        )
        for qa, qb, interior in zip(result.q_star, other.q_star, result.interior):
            if interior:
                worst_q = max(worst_q, abs(qa - qb))
    ok = worst_obj <= 1e-3 and worst_q <= 1e-3
    _report(4, f"solvers agree (obj {worst_obj:.2e}, q {worst_q:.2e})", ok)


# --------------------------------------------------------------------------
# 5. Interior KKT equality
# --------------------------------------------------------------------------


def test_05_kkt_equality(small_instances):
    worst = 0.0
    checked = 0
    for profiles, constants, budget, result in small_instances:
        if sum(result.interior) < 2:
            continue
        report = verify_equilibrium(result, profiles, constants, budget)
        worst = max(worst, report.kkt_equality_residual)
        checked += 1
    ok = checked > 0 and worst <= 1e-6
    _report(5, f"interior KKT residual <= 1e-6 on {checked} instances (worst {worst:.2e})", ok)


# --------------------------------------------------------------------------
# 6. Closed-form price identity and payment-direction threshold
# --------------------------------------------------------------------------


def test_06_price_identity_and_threshold():
    rng = np.random.default_rng(66)
    worst = 0.0
    signs_ok = True
    checked = 0
    while checked < 200:
        profiles = make_population(
            [int(rng.integers(1, 50))],
            [float(rng.uniform(0.2, 4.0))],
            [float(rng.uniform(0.2, 4.0))],
            [float(rng.uniform(0.0, 2.0))],
            [1.0],
        )
        p = profiles[0]
        constants = GameConstants(
            alpha=float(rng.uniform(0.5, 4.0)), beta=0.0,
            rounds=int(rng.integers(5, 40)), local_steps=5, q_floor=0.01,
        )
        lam = float(rng.uniform(0.05, 5.0))
        if 1.0 / lam <= p.intrinsic_pref:
            continue
        q = kkt_participation(lam, profiles, constants)[0]
        if not constants.q_floor < q < p.q_max:
            continue
        direct = price_closed_form(lam, p, constants)
        composed = inverse_price([q], profiles, constants)[0]
        worst = max(worst, abs(direct - composed) / max(abs(composed), 1e-300))
        margin = payment_threshold(lam) - p.intrinsic_pref
        if abs(margin) > 1e-6 and math.copysign(1.0, direct) != math.copysign(1.0, margin):
            signs_ok = False
        checked += 1
    ok = worst <= 1e-8 and signs_ok
    _report(6, f"price identity within 1e-8 (worst {worst:.2e}) and signs match threshold", ok)


# --------------------------------------------------------------------------
# 7. Budget tightness
# --------------------------------------------------------------------------


def test_07_budget_tightness(small_instances):
    worst = 0.0
    for profiles, constants, budget, result in small_instances:
        if result.diagnostics.get("caps_binding"):
            continue
        worst = max(worst, abs(result.spend - budget) / max(1.0, budget))
    _report(7, f"spend equals budget within 1e-6 (worst {worst:.2e})", worst <= 1e-6)


# --------------------------------------------------------------------------
# 8. Monotonicity in the budget
# --------------------------------------------------------------------------


def test_08_monotone_in_budget():
    rng = np.random.default_rng(88)
    profiles = make_population(
        datasizes=rng.integers(5, 80, size=10).tolist(),
        grad_bounds=rng.uniform(0.5, 4.0, size=10).tolist(),
        cost_coeffs=rng.uniform(0.5, 4.0, size=10).tolist(),
        intrinsic_prefs=rng.uniform(0.0, 0.3, size=10).tolist(),
        q_maxes=[1.0] * 10,
    )
    constants = GameConstants(alpha=2.0, beta=0.0, rounds=20, local_steps=5, q_floor=0.01)
    budgets = np.geomspace(0.4, 4.0, 8)
    ok = True
    prev = None
    for b in budgets:
        result = server_solve(profiles, constants, float(b))
        if prev is not None:
            for n in range(10):
                if result.interior[n] and prev.interior[n]:
                    if result.q_star[n] < prev.q_star[n] - 1e-9:
                        ok = False
                    if result.p_star[n] < prev.p_star[n] - 1e-9:
                        ok = False
        prev = result
    _report(8, "interior q* and P* non-decreasing in the budget", ok)


# --------------------------------------------------------------------------
# 9. Price orderings on constructed client pairs
# --------------------------------------------------------------------------


def test_09_price_orderings():
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=10, local_steps=5, q_floor=0.01)
    # Equal weights and costs; the pairs differ in strength c*a*G through G
    # and sit on opposite sides of the payment threshold through v.
    profiles = make_population(
        datasizes=[100, 100, 100, 100],
        grad_bounds=[4.0, 2.0, 4.0, 2.0],
        cost_coeffs=[8.0, 8.0, 8.0, 8.0],
        intrinsic_prefs=[0.02, 0.05, 3.0, 2.5],
        q_maxes=[1.0] * 4,
    )
    ok = True
    for budget in (0.5, 1.0):
        result = server_solve(profiles, constants, budget)
        vt = result.v_threshold
        P = result.p_star
        hyp_positive = profiles[0].intrinsic_pref < profiles[1].intrinsic_pref < vt
        hyp_negative = profiles[2].intrinsic_pref > profiles[3].intrinsic_pref > vt
        if not (all(result.interior) and hyp_positive and hyp_negative):
            ok = False  # construction must actually satisfy the hypotheses
        if not (P[0] > P[1] > 0.0):
            ok = False
        if not (P[2] < P[3] < 0.0):
            ok = False
    _report(9, "constructed pairs follow the proved price orderings", ok)


# --------------------------------------------------------------------------
# 10. Negative-payment count direction vs mean intrinsic value
# --------------------------------------------------------------------------


def test_10_negative_payment_direction():
    rng = np.random.default_rng(0)
    sizes = power_law_sizes(40, 22377, 1.5, rng)
    grad_bounds = rng.uniform(5.0, 10.0, size=40).tolist()
    constants = GameConstants(alpha=1.0, beta=0.0, rounds=1000, local_steps=100, q_floor=0.01)
    counts = []
    for mean_value in (0.0, 4000.0, 80000.0):
        erng = np.random.default_rng(2)
        costs = erng.exponential(50.0, size=40).tolist()
        values = (
            erng.exponential(mean_value, size=40).tolist() if mean_value > 0 else [0.0] * 40
        )
        profiles = make_population(sizes, grad_bounds, costs, values, [1.0] * 40)
        result = server_solve(profiles, constants, 200.0)
        counts.append(sum(1 for p in result.p_star if p < 0.0))
    ok = counts[0] == 0 and counts[0] <= counts[1] <= counts[2]
    _report(10, f"negative-payment counts {counts} non-decreasing in mean value", ok)


# --------------------------------------------------------------------------
# 11. End-to-end pricing superiority (desk-scale experiment)
# --------------------------------------------------------------------------


def test_11_pricing_superiority(desk_summary):
    summary, cfg = desk_summary
    loss = summary["mean_final_loss"]
    ordering_ok = loss["optimal"] <= loss["weighted"] <= loss["uniform"]

    never = cfg["rounds"] + 1
    per_opt = summary["rounds_to_target"]["optimal"]["per_seed"]
    per_uni = summary["rounds_to_target"]["uniform"]["per_seed"]
    wins = 0
    for seed in per_opt:
        r_opt = per_opt[seed]["round"]
        r_uni = per_uni[seed]["round"]
        if (never if r_opt is None else r_opt) <= (never if r_uni is None else r_uni):
            wins += 1
    ok = wins >= 15 and ordering_ok
    _report(
        11,
        f"optimal beats uniform to target in {wins}/20 seeds; "
        f"loss ordering {loss['optimal']:.4f} <= {loss['weighted']:.4f} <= {loss['uniform']:.4f}",
        ok,
    )


# --------------------------------------------------------------------------
# 12. Total client utility direction
# --------------------------------------------------------------------------


def test_12_client_utility_direction(desk_summary):
    summary, _cfg = desk_summary
    U = summary["total_client_utility"]
    ok = U["optimal"] >= U["uniform"] and U["optimal"] >= U["weighted"]
    _report(
        12,
        f"client utility optimal {U['optimal']:.1f} >= uniform {U['uniform']:.1f} "
        f"and >= weighted {U['weighted']:.1f}",
        ok,
    )


# --------------------------------------------------------------------------
# 13. Bound sanity
# --------------------------------------------------------------------------


def test_13_bound_sanity():
    rng = np.random.default_rng(1313)
    exact_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 7))
        profiles = make_population(
            rng.integers(1, 50, size=n).tolist(),
            rng.uniform(0.5, 4.0, size=n).tolist(),
            [1.0] * n, [0.0] * n, [1.0] * n,
        )
        constants = GameConstants(
            alpha=float(rng.uniform(0.5, 4.0)), beta=float(rng.uniform(0.0, 3.0)),
            rounds=int(rng.integers(1, 50)), local_steps=5,
        )
        full = convergence_gap_bound([1.0] * n, profiles, constants)
        if full != constants.beta / constants.rounds:
            exact_ok = False

    worst = 0.0
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(1, 7))
        profiles = make_population(
            rng.integers(1, 50, size=n).tolist(),
            rng.uniform(0.5, 4.0, size=n).tolist(),
            [1.0] * n, [0.0] * n, [1.0] * n,
        )
        constants = GameConstants(
            alpha=float(rng.uniform(0.5, 4.0)), beta=0.0,
            rounds=int(rng.integers(1, 50)), local_steps=5,
        )
        q = rng.uniform(0.05, 0.95, size=n)
        analytic = bound_gradient(q, profiles, constants)
        for m in range(n):
            up, down = q.copy(), q.copy()
            up[m] += h
            down[m] -= h
            fd = (
                convergence_gap_bound(up, profiles, constants)
                - convergence_gap_bound(down, profiles, constants)
            ) / (2 * h)
            worst = max(worst, abs(fd - analytic[m]) / abs(analytic[m]))
    ok = exact_ok and worst <= 1e-4
    _report(13, f"full-participation bound exact; gradient FD error {worst:.2e}", ok)
