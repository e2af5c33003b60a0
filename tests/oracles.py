"""Reference implementations the tests check the package against.

None of this is library code. ``client_best_response`` is the per-client
scalar bisection the array kernel in ``fedpricing.game`` replaced, kept as
written as the accuracy oracle: the kernel's Newton iteration must land
within its 1e-12 interval width. ``client_best_response_newton`` is that
Newton iteration one client at a time, which the kernel equals bit for bit;
``_newton_response`` gives its steps too. Every square here is
a product, ``x * x``, as in the package: a product is correctly rounded,
while the C library's ``pow(x, 2)``, which Python's ``**`` calls, is not
always. ``inverse_price_of`` and ``penalty_of`` are the inverse price and
the bound's participation penalty, one client at a time.
``server_solve_m_search`` is an independent Stage-I solver: a grid search
over the total cost mass M = sum c_n q_n^2 with a convex subproblem at each
grid point. ``server_solve_reference`` and ``scaled_baseline_reference``
are the bracket-and-bisect loops of ``server_solve`` and of the baselines
as each was first written, on the public Stage-II and KKT functions, with
every decision taken on the ``math.fsum`` total. ``client_utility`` is a
client's profit with the bound's other summands held fixed. ``train`` is
the per-participant training loop the stacked kernel in
``fedpricing.fltrain`` replaced, kept as written: one
``loss_and_grad`` call per local step, one model at a time, and a loss
summed shard by shard. ``loss_and_grad`` is the package's loss and gradient
as first written, with its own softmax, so that no reference here runs the
kernel it checks. ``sgd_step`` is the stacked step as it was first
written, before its arrays were reused across steps.
``minimize_logistic`` is scipy's L-BFGS-B fit of one shard, which the
library's own L-BFGS replaced, and ``pooled_optimum_loss`` the global loss at
the optimum of all shards pooled, a reference no single-shard optimum can
beat on the global loss. ``max_flow_value`` is scipy's maximum flow value of
a capacity matrix.
``population_rows`` is the row-by-row population construction the columnar
``make_population`` replaced, ``write_population`` and ``read_population``
the ``configparser`` writer and reader of the population file, ``write_equilibrium_manifest`` the
``json.dumps`` writer of the manifest, and ``verify_equilibrium`` the per-client
loop over profile rows that the column version replaced.
``price_closed_form`` is the equilibrium price of an interior client
written directly in the dual value. ``write_idx`` writes an IDX pair, the
inverse of ``data.load_idx``. ``gen_synthetic`` is the synthetic generator
as it was written before datasets were pooled: one array of rows per client,
pooled at the end by ``FederatedDataset.from_shards``. They only use the
package's public functions.
"""

from __future__ import annotations

import configparser
import json
import math
import re
import struct

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from fedpricing.bound import convergence_gap_bound, participation_penalty, power
from fedpricing.core import (
    EquilibriumResult,
    FederatedDataset,
    GameConstants,
    PopulationError,
    make_population,
)
from fedpricing.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, power_law_sizes
from fedpricing.fltrain import RoundMetrics, learning_rate_schedule, test_accuracy
from fedpricing.game import (
    BracketError,
    EquilibriumReport,
    InfeasibleBudgetError,
    SolverOptions,
    inverse_price,
    kkt_participation,
    payment_threshold,
    total_spend,
)
from fedpricing.game import client_best_response as best_responses

_INTERIOR_EPS = 1e-9
_OPTS = SolverOptions()
M_STEP = 5e-3          # M-search grid step, as a fraction of the M range
M_REFINE_PASSES = 2    # extra M-grid passes, each shrinking the step 100x


def _bound_term(profile: tuple, constants: GameConstants) -> float:
    """(alpha/R) a_n^2 G_n^2, the client's coefficient in the gap bound."""
    a, G = profile.weight, profile.grad_bound
    return constants.alpha / constants.rounds * (a * a) * (G * G)


def _foc_residual(q: float, p_n: float, profile: tuple, constants: GameConstants) -> float:
    # P + v*(alpha/R)*a^2 G^2 / q^2 - 2 c q: derivative of the client objective.
    return (
        p_n
        + profile.intrinsic_pref * _bound_term(profile, constants) / (q * q)
        - 2.0 * profile.cost_coeff * q
    )


def inverse_price_of(q: float, profile: tuple, constants: GameConstants) -> float:
    """2 c q - v (alpha/R) a^2 G^2 / q^2, one client at a time."""
    return (
        2.0 * profile.cost_coeff * q
        - profile.intrinsic_pref * _bound_term(profile, constants) / (q * q)
    )


def penalty_of(levels, profiles) -> float:
    """sum_n (1 - q_n) a_n^2 G_n^2 / q_n, one client at a time."""
    return math.fsum(
        (1.0 - qn) * (p.weight * p.weight) * (p.grad_bound * p.grad_bound) / qn
        for qn, p in zip(levels, profiles)
    )


def client_best_response(p_n: float, profile: tuple, constants: GameConstants) -> float:
    """Unique maximizer of the client's concave objective on [0, q_max].

    Interior stationary points are found by monotone bisection on the
    first-order-condition residual (the closed-form cubic root is avoided for
    numerical robustness). Monotone non-decreasing in the price.
    """
    c = profile.cost_coeff
    v = profile.intrinsic_pref
    q_max = profile.q_max
    if v == 0.0:
        # FOC degenerates to P = 2 c q.
        root = p_n / (2.0 * c)
        if root <= 0.0:
            return 0.0
        return min(root, q_max)
    q_lo = constants.q_floor * 1e-3
    if _foc_residual(q_max, p_n, profile, constants) >= 0.0:
        return q_max
    if _foc_residual(q_lo, p_n, profile, constants) <= 0.0:
        # Maximizer sits below the bracket; the objective diverges at zero,
        # so the floor of the search interval is the best admissible point.
        return q_lo
    lo, hi = q_lo, q_max
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _foc_residual(mid, p_n, profile, constants) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton_response(p_n: float, profile: tuple, constants: GameConstants) -> tuple:
    """(level, Newton steps taken): the client's best response by Newton steps
    on the first-order-condition residual, from a start left of its root.
    The steps are None for a level that needs no iteration: v = 0, or a
    client at the cap or at the floor."""
    c = profile.cost_coeff
    v = profile.intrinsic_pref
    q_max = profile.q_max
    if v == 0.0:
        root = p_n / (2.0 * c)
        return (0.0 if root <= 0.0 else min(root, q_max)), None
    q_lo = constants.q_floor * 1e-3
    if _foc_residual(q_max, p_n, profile, constants) >= 0.0:
        return q_max, None
    if _foc_residual(q_lo, p_n, profile, constants) <= 0.0:
        return q_lo, None
    vk = v * _bound_term(profile, constants)
    c2 = 2.0 * c
    if p_n < 0.0:
        # v k / q^2 >= 2|P| and v k / q^2 >= 4 c q: the residual is still >= 0.
        q = min(math.sqrt(vk / (-2.0 * p_n)), (vk / (2.0 * c2)) ** (1.0 / 3.0))
    else:
        # At the root 2 c q = P + v k / q^2, so q >= P / 2c and q^3 >= v k / 2c.
        q = max(p_n / c2, (vk / c2) ** (1.0 / 3.0))
    q = min(max(q, q_lo), q_max)
    for steps in range(1000):
        q2 = q * q
        step = (p_n + vk / q2 - c2 * q) / (2.0 * vk / (q2 * q) + c2)
        if not step > 1e-15 * q:
            return q, steps
        q = min(q + step, q_max)
    raise AssertionError(f"no Newton convergence at price {p_n}, profile {profile}")


def client_best_response_newton(p_n: float, profile: tuple, constants: GameConstants) -> float:
    """``client_best_response`` by Newton steps from a start left of the root
    instead of bisection, one client at a time: the array kernel's iteration
    in Python floats, with squares as products and cube roots through
    ``pow``, as ``bound.power`` takes them."""
    return _newton_response(p_n, profile, constants)[0]


def price_closed_form(lambda_star: float, profile: tuple, constants: GameConstants) -> float:
    """Equilibrium price of an interior client, directly from the dual value.

    P = (2 alpha c^2 a^2 G^2 / R)^(1/3) * [(1/lam - v)^(1/3) - 2 v (1/lam - v)^(-2/3)].
    Must coincide with the inverse price of the KKT level whenever the client
    is interior.
    """
    if lambda_star <= 0.0:
        raise ValueError(f"lambda must be positive, got {lambda_star}")
    inv = 1.0 / lambda_star
    v = profile.intrinsic_pref
    if inv <= v:
        raise ValueError(
            f"client {profile.index} is not interior: 1/lambda={inv} <= intrinsic_pref={v}"
        )
    c, a, G = profile.cost_coeff, profile.weight, profile.grad_bound
    coeff = (2.0 * constants.alpha * (c * c) * (a * a) * (G * G) / constants.rounds) ** (1.0 / 3.0)
    gap = inv - v
    return coeff * (gap ** (1.0 / 3.0) - 2.0 * v / gap ** (2.0 / 3.0))


def client_utility(
    q_n: float,
    p_n: float,
    profile: tuple,
    constants: GameConstants,
    profiles: list,
    q_others,
    value_offset: float = 0.0,
) -> float:
    """Client profit at participation q_n given price p_n and the others' levels.

    Payment income minus quadratic cost, plus the intrinsic valuation of the
    gap bound with q_n substituted into the client's own summand.
    ``value_offset`` carries the q-independent part of the intrinsic value.
    Returns -inf when the bound diverges (some level is zero) and the client
    has positive intrinsic preference.
    """
    if not 0.0 <= q_n <= profile.q_max:
        raise ValueError(f"q_n={q_n} outside [0, {profile.q_max}]")
    base = p_n * q_n - profile.cost_coeff * (q_n * q_n) + value_offset
    v = profile.intrinsic_pref
    if v == 0.0:
        return base
    levels = list(q_others)
    levels[profile.index] = q_n
    if any(qm == 0.0 for qm in levels):
        return -math.inf
    penalty = math.fsum(
        (1.0 - qm) * (p.weight * p.weight) * (p.grad_bound * p.grad_bound) / qm
        for qm, p in zip(levels, profiles)
    )
    return base - v * constants.alpha / constants.rounds * penalty




def _check_floor(profiles: list, constants: GameConstants) -> None:
    min_cap = min(p.q_max for p in profiles)
    if constants.q_floor >= min_cap:
        raise ValueError(
            f"q_floor={constants.q_floor} must lie below the smallest cap {min_cap}"
        )


def _cap_lambda(profiles: list, constants: GameConstants) -> float:
    # Largest dual value at which every unclipped stationary level still
    # reaches its cap: 1/lambda = (4R/alpha) c q_max^3/(a^2 G^2) + v per client.
    inv = max(
        4.0 * constants.rounds * p.cost_coeff * p.q_max**3
        / (constants.alpha * (p.weight * p.weight) * (p.grad_bound * p.grad_bound))
        + p.intrinsic_pref
        for p in profiles
    )
    return 1.0 / inv


def _finish(
    q,
    lam: float,
    profiles: list,
    constants: GameConstants,
    diagnostics: dict,
) -> EquilibriumResult:
    prices = inverse_price(q, profiles, constants).tolist()
    payments = tuple(pr * qn for pr, qn in zip(prices, q))
    interior = tuple(
        constants.q_floor + _INTERIOR_EPS < qn < p.q_max - _INTERIOR_EPS
        for qn, p in zip(q, profiles)
    )
    return EquilibriumResult(
        q_star=q,
        p_star=tuple(prices),
        lambda_star=lam,
        v_threshold=payment_threshold(lam),
        spend=total_spend(q, profiles, constants),
        bound_value=convergence_gap_bound(q, profiles, constants),
        payments=payments,
        interior=interior,
        diagnostics=diagnostics,
    )


def _solve_fixed_m(
    m_target: float,
    profiles: list,
    constants: GameConstants,
    budget: float,
) -> np.ndarray | None:
    """Minimize the gap bound at fixed total cost mass M = sum c_n q_n^2.

    Nested dual bisection: the inner loop matches the cost-mass equality via
    its multiplier, the outer loop tightens the budget inequality. Returns
    None when no level vector at this M satisfies the budget.
    """
    k = np.array([_bound_term(p, constants) for p in profiles])
    c = np.array([p.cost_coeff for p in profiles])
    v = np.array([p.intrinsic_pref for p in profiles])
    caps = np.array([p.q_max for p in profiles])
    floor = constants.q_floor

    def levels(t: float, lam_b: float) -> np.ndarray:
        # Stationarity of the subproblem Lagrangian: q^3 = k (1 - lam_b v) / (t c)
        # with t = 2 nu + 4 lam_b > 0; nonpositive numerators pin the client.
        num = k * (1.0 - lam_b * v)
        q = np.where(num > 0.0, np.cbrt(np.maximum(num, 0.0) / (t * c)), floor)
        return np.clip(q, floor, caps)

    def mass(t: float, lam_b: float) -> float:
        q = levels(t, lam_b)
        return float(np.sum(c * (q * q)))

    cap_mass = float(np.sum(c * (caps * caps)))
    floor_mass = float(np.sum(c * (floor * floor)))
    if not floor_mass - 1e-12 <= m_target <= cap_mass + 1e-12:
        return None

    def match_mass(lam_b: float) -> np.ndarray:
        # mass is decreasing in t; the bracket follows from the clip bounds:
        # every level is pinned at the floor once t >= max num/(c floor^3) and
        # at its cap once t <= min num/(c caps^3) over active clients.
        num = k * (1.0 - lam_b * v)
        active = num > 0.0
        if not np.any(active):
            return levels(1.0, lam_b)  # all pinned; t is irrelevant
        t_lo = float(np.min(num[active] / (c[active] * caps[active] ** 3)))
        t_hi = float(np.max(num[active] / (c[active] * floor**3)))
        if mass(t_lo, lam_b) <= m_target:
            return levels(t_lo, lam_b)
        if mass(t_hi, lam_b) >= m_target:
            return levels(t_hi, lam_b)
        # Root-find on log t so the bracket's many orders of magnitude
        # do not starve the solver of resolution.
        log_t = brentq(
            lambda lt: mass(math.exp(lt), lam_b) - m_target,
            math.log(t_lo), math.log(t_hi),
            xtol=1e-13, rtol=1e-12, maxiter=_OPTS.max_iter,
        )
        return levels(math.exp(log_t), lam_b)

    def spend_of(q: np.ndarray) -> float:
        return float(np.sum(2.0 * c * (q * q) - k * v / q))

    tol = _OPTS.budget_tol * max(1.0, abs(budget))
    q0 = match_mass(0.0)
    if spend_of(q0) <= budget + tol:
        return q0
    if np.all(v == 0.0):
        return None  # spend is 2M regardless of the split; this M is infeasible
    # Beyond 1/min(v>0) every value-driven client is pinned at the floor, so
    # the level vector -- and hence the spend -- no longer changes.
    lam_hi = 1.0 / float(np.min(v[v > 0.0]))
    if spend_of(match_mass(lam_hi)) > budget:
        return None
    lam = brentq(
        lambda lb: spend_of(match_mass(lb)) - budget,
        0.0, lam_hi,
        xtol=_OPTS.lambda_tol * max(lam_hi, 1e-30), rtol=8.9e-16,
        maxiter=_OPTS.max_iter,
    )
    q = match_mass(lam)
    if spend_of(q) > budget + tol:
        q = match_mass(min(lam * (1.0 + 1e-9) + 1e-15, lam_hi))
    if spend_of(q) > budget + tol:
        return None
    return q


def server_solve_m_search(
    profiles: list,
    constants: GameConstants,
    budget: float,
) -> EquilibriumResult:
    """Cross-check solver: fixed-step linear search over the cost mass M.

    Scans M = sum c_n q_n^2 over its feasible range, solves the convex
    fixed-M subproblem at each grid point, and keeps the best; optional
    refinement passes re-grid around the incumbent with a 100x smaller step.
    Exists to validate server_solve independently. It uses the package
    solvers' fixed tolerances, ``SolverOptions()``.
    """
    if len(profiles) < 1:
        raise ValueError("population must contain at least one client")
    _check_floor(profiles, constants)
    floor_vec = [constants.q_floor] * len(profiles)
    min_budget = total_spend(floor_vec, profiles, constants)
    tol = _OPTS.budget_tol * max(1.0, abs(budget))
    if budget < min_budget - tol:
        raise InfeasibleBudgetError(budget, min_budget)

    c = np.array([p.cost_coeff for p in profiles])
    caps = np.array([p.q_max for p in profiles])
    m_lo = float(np.sum(c) * (constants.q_floor * constants.q_floor))
    m_hi = float(np.sum(c * (caps * caps)))

    best_q = None
    best_obj = math.inf
    best_m = None

    def scan(lo: float, hi: float, step: float) -> None:
        nonlocal best_q, best_obj, best_m
        n_points = max(2, int(round((hi - lo) / step)) + 1)
        for m_target in np.linspace(lo, hi, n_points):
            q = _solve_fixed_m(float(m_target), profiles, constants, budget)
            if q is None:
                continue
            obj = participation_penalty(q, profiles)
            if obj < best_obj:
                best_obj = obj
                best_q = q
                best_m = float(m_target)

    step = M_STEP * (m_hi - m_lo)
    scan(m_lo, m_hi, step)
    if best_q is None:
        raise BracketError("no feasible cost mass found on the M grid")
    for _ in range(M_REFINE_PASSES):
        lo = max(m_lo, best_m - step)
        hi = min(m_hi, best_m + step)
        step /= 100.0
        scan(lo, hi, step)

    # Recover the dual value from the tight-budget KKT identity on an interior
    # client if one exists; fall back to the cap-regime dual otherwise.
    lam = None
    for qn, p in zip(best_q, profiles):
        if constants.q_floor + _INTERIOR_EPS < qn < p.q_max - _INTERIOR_EPS:
            inv = (
                4.0 * constants.rounds * p.cost_coeff * qn**3
                / (constants.alpha * (p.weight * p.weight) * (p.grad_bound * p.grad_bound))
                + p.intrinsic_pref
            )
            lam = 1.0 / inv
            break
    if lam is None:
        lam = _cap_lambda(profiles, constants)
    return _finish(
        best_q,
        lam,
        profiles,
        constants,
        {"solver": "m_search", "best_m": best_m,
         "budget_residual": abs(total_spend(best_q, profiles, constants) - budget)},
    )


def server_solve_reference(population, constants: GameConstants, budget: float) -> tuple:
    """``server_solve``'s dual bracket and bisection: (lambda_star,
    v_threshold, q_star, p_star, spend, iterations)."""
    _check_floor(population, constants)
    min_budget = total_spend([constants.q_floor] * len(population), population, constants)
    tol = _OPTS.budget_tol * abs(budget)
    if budget < min_budget - tol:
        raise InfeasibleBudgetError(budget, min_budget)
    caps = population.q_max
    cap_spend = total_spend(caps, population, constants)
    a, G = population.a, population.G
    lam_cap = 1.0 / float(np.max(4.0 * constants.rounds * population.c * power(caps, 3)
                                 / (constants.alpha * (a * a) * (G * G)) + population.v))

    def spend_at(lam: float) -> float:
        return total_spend(kkt_participation(lam, population, constants), population, constants)

    if cap_spend <= budget + tol:
        lam, q, iterations = lam_cap, caps, 0
    else:
        lam_lo = lam_hi = lam_cap
        for _ in range(_OPTS.max_iter):
            lam_hi *= 2.0
            if spend_at(lam_hi) <= budget:
                break
        else:
            raise BracketError(f"could not bracket the budget dual: spend({lam_hi}) = "
                               f"{spend_at(lam_hi)} > {budget}")
        iterations = 0
        while lam_hi - lam_lo > _OPTS.lambda_tol * lam_hi and iterations < _OPTS.max_iter:
            mid = 0.5 * (lam_lo + lam_hi)
            if spend_at(mid) > budget:
                lam_lo = mid
            else:
                lam_hi = mid
            iterations += 1
        lam = 0.5 * (lam_lo + lam_hi)
        q = kkt_participation(lam, population, constants)
    prices = inverse_price(q, population, constants)
    return lam, payment_threshold(lam), q, prices, math.fsum(prices * q), iterations


def scaled_baseline_reference(unit_prices, population, constants: GameConstants,
                              budget: float) -> tuple:
    """A baseline's price scale, doubled from 1 and bisected until the spend
    is within the budget tolerance: (p_star, q_star)."""
    if budget < 0.0:
        raise ValueError(f"budget must be nonnegative, got {budget}")

    def spend(scale: float) -> float:
        prices = scale * unit_prices
        return math.fsum(prices * best_responses(prices, population, constants))

    tol = _OPTS.budget_tol * budget
    if budget == 0.0 or spend(0.0) >= budget - tol:
        scale = 0.0
    else:
        hi = 1.0
        for _ in range(_OPTS.max_iter):
            if spend(hi) >= budget:
                break
            hi *= 2.0
        else:
            raise BracketError(
                f"baseline pricing cannot exhaust budget {budget}: spend({hi}) = {spend(hi)}")
        lo = 0.0
        for _ in range(4 * _OPTS.max_iter):
            mid = 0.5 * (lo + hi)
            s = spend(mid)
            if abs(s - budget) <= tol:
                lo = hi = mid
                break
            if s < budget:
                lo = mid
            else:
                hi = mid
        scale = 0.5 * (lo + hi)
    prices = scale * unit_prices
    return prices, best_responses(prices, population, constants)


# ---------------------------------------------------------------- training loop


def loss_and_grad(w, x, y, l2):
    """``fltrain.loss_and_grad`` as first written, with its own softmax in new
    arrays: the reference the package's one gradient kernel is held to."""
    xa = np.hstack([x, np.ones((len(x), 1))])
    z = xa @ w.T
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    n = len(y)
    ll = -np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean()
    reg = 0.5 * l2 * float(np.sum(w * w))
    delta = probs
    delta[np.arange(n), y] -= 1.0
    grad = delta.T @ xa / n + l2 * w
    return ll + reg, grad


def local_sgd(w, shard, local_steps, batch, lr, l2, rng):
    """E minibatch gradient steps on one shard; ``batch=None`` is full-batch."""
    x, y = shard
    if len(x) == 0:
        raise ValueError("empty shard")
    w = w.copy()
    for _ in range(local_steps):
        if batch is None:
            bx, by = x, y
        else:
            idx = rng.integers(0, len(x), size=batch)
            bx, by = x[idx], y[idx]
        _, grad = loss_and_grad(w, bx, by, l2)
        w -= lr * grad
    return w


def sgd_step(w, x, y, lr, l2):
    """One gradient step of each stacked model w[s] on its own batch, in place.

    w is (S, C, D+1), x is (S, B, D+1) with the bias column, y is (S, B).
    Returns the gradients.
    """
    z = x @ w.transpose(0, 2, 1)
    z -= z.max(axis=2, keepdims=True)
    probs = np.exp(z, out=z)
    probs /= probs.sum(axis=2, keepdims=True)
    n = y.shape[1]
    probs[np.arange(len(y))[:, None], np.arange(n), y] -= 1.0
    grad = probs.transpose(0, 2, 1) @ x / n + l2 * w
    w -= lr * grad
    return grad


def sample_participants(q, rng):
    draws = rng.random(len(q))
    return [n for n, (u, qn) in enumerate(zip(draws, q)) if u < qn]


def aggregate(w_prev, local_updates, q, weights):
    w = w_prev.copy()
    for n in sorted(local_updates):
        qn = q[n]
        if qn == 0.0:
            raise ValueError(f"client {n}: update received but participation probability is 0")
        w += weights[n] / qn * (local_updates[n] - w_prev)
    return w


def global_loss(w, dataset, l2=0.0):
    """Datasize-weighted sum of the per-shard losses, shard by shard."""
    total = 0.0
    for x, y in dataset.shards:
        loss, _ = loss_and_grad(w, x, y, l2)
        total += len(x) / dataset.total_samples * loss
    return total


def minimize_logistic(x, y, shape, l2):
    """scipy's L-BFGS-B fit of the regularized cross-entropy on (x, y), from
    zero weights of ``shape``, with the options the library's fit once passed
    it. Returns the weights and the largest gradient entry there."""
    def fun(flat):
        loss, grad = loss_and_grad(flat.reshape(shape), x, y, l2)
        return loss, grad.ravel()

    res = minimize(fun, np.zeros(shape).ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": 2000, "gtol": 1e-7, "ftol": 0.0})
    return res.x.reshape(shape), float(np.max(np.abs(res.jac)))


def pooled_optimum_loss(dataset, l2):
    """Global loss at the L-BFGS optimum of the pooled training data."""
    x = np.concatenate([s[0] for s in dataset.shards], axis=0)
    y = np.concatenate([s[1] for s in dataset.shards], axis=0)
    w, grad_max = minimize_logistic(x, y, (dataset.n_classes, dataset.dim + 1), l2)
    if grad_max > 1e-6:
        raise RuntimeError("pooled fit did not converge")
    return global_loss(w, dataset, l2)


def max_flow_value(capacity, src, sink):
    """scipy's maximum flow value from src to sink under the integer capacity matrix."""
    return maximum_flow(csr_matrix(capacity.astype(np.int32)), src, sink).flow_value


def train(dataset, cfg, profiles=None, record_states=False):
    """The per-participant federated loop: local_sgd per participant, then aggregate."""
    if cfg.participation is None:
        raise ValueError("cfg.participation must be set")
    q = cfg.participation
    if profiles is None:
        weights = [len(x) / dataset.total_samples for x, _ in dataset.shards]
    else:
        weights = [p.weight for p in profiles]
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros((dataset.n_classes, dataset.dim + 1))
    metrics = []
    states = []
    sim_time = 0.0
    has_test = len(dataset.test_labels) > 0
    learning_rate = learning_rate_schedule(cfg, dataset)
    for r in range(cfg.rounds):
        participants = sample_participants(q, rng)
        lr = learning_rate(r)
        updates = {}
        for n in participants:
            updates[n] = local_sgd(
                w, dataset.shards[n], cfg.local_steps, cfg.batch, lr, cfg.l2, rng
            )
        w = aggregate(w, updates, q, weights)
        if participants:
            max_shard = max(len(dataset.shards[n][0]) for n in participants)
            batch = cfg.batch if cfg.batch is not None else max_shard
            sim_time += cfg.sim_t_base + cfg.sim_t_comp * (max_shard * cfg.local_steps / batch)
        else:
            sim_time += cfg.sim_t_base
        if (r + 1) % cfg.eval_stride == 0 or r == cfg.rounds - 1:
            loss = global_loss(w, dataset, cfg.l2)
            acc = test_accuracy(w, dataset.test_features, dataset.test_labels) if has_test else float("nan")
            metrics.append(
                RoundMetrics(
                    round_index=r,
                    participants=tuple(participants),
                    loss=loss,
                    accuracy=acc,
                    sim_time=sim_time,
                )
            )
        if record_states:
            states.append(w.copy())
    if record_states:
        return metrics, states
    return metrics


def pilot_gradient_norms(dataset, cfg, pilot_rounds, seed):
    """Every local gradient norm of a full-participation pilot, per client, in step order."""
    rng = np.random.default_rng(seed)
    weights = [len(x) / dataset.total_samples for x, _ in dataset.shards]
    q_full = [1.0] * dataset.n_clients
    w = np.zeros((dataset.n_classes, dataset.dim + 1))
    norms = [[] for _ in range(dataset.n_clients)]
    learning_rate = learning_rate_schedule(cfg, dataset)
    for r in range(pilot_rounds):
        lr = learning_rate(r)
        updates = {}
        for n, (x, y) in enumerate(dataset.shards):
            w_local = w.copy()
            for _ in range(cfg.local_steps):
                if cfg.batch is None:
                    bx, by = x, y
                else:
                    idx = rng.integers(0, len(x), size=cfg.batch)
                    bx, by = x[idx], y[idx]
                _, grad = loss_and_grad(w_local, bx, by, cfg.l2)
                norms[n].append(float(np.linalg.norm(grad)))
                w_local -= lr * grad
            updates[n] = w_local
        w = aggregate(w, updates, q_full, weights)
    return norms


# ---------------------------------------------------------------- population rows


def _check_row(index, datasize, weight, grad_bound, cost_coeff, intrinsic_pref, q_max):
    """A population row's checks, one field at a time."""
    values = {"datasize": datasize, "weight": weight, "grad_bound": grad_bound,
              "cost_coeff": cost_coeff, "intrinsic_pref": intrinsic_pref, "q_max": q_max}
    for name, value in values.items():
        if not math.isfinite(value):
            raise PopulationError(f"client {index}: {name} must be finite, got {value}")
    if datasize <= 0:
        raise PopulationError(f"client {index}: datasize must be positive, got {datasize}")
    if not 0.0 < weight <= 1.0:
        raise PopulationError(f"client {index}: weight must be in (0, 1], got {weight}")
    if grad_bound <= 0.0:
        raise PopulationError(f"client {index}: grad_bound must be positive, got {grad_bound}")
    if cost_coeff <= 0.0:
        raise PopulationError(f"client {index}: cost_coeff must be positive, got {cost_coeff}")
    if intrinsic_pref < 0.0:
        raise PopulationError(
            f"client {index}: intrinsic_pref must be nonnegative, got {intrinsic_pref}"
        )
    if not 0.0 < q_max <= 1.0:
        raise PopulationError(f"client {index}: q_max must be in (0, 1], got {q_max}")


def population_rows(datasizes, grad_bounds, cost_coeffs, intrinsic_prefs, q_maxes):
    """make_population one client at a time: a list of (index, datasize, weight,
    grad_bound, cost_coeff, intrinsic_pref, q_max) rows.

    As the per-row construction was written, except that a datasize that is
    not a whole number is rejected in the datasize pass instead of truncated.
    """
    lists = {
        "datasizes": list(datasizes),
        "grad_bounds": list(grad_bounds),
        "cost_coeffs": list(cost_coeffs),
        "intrinsic_prefs": list(intrinsic_prefs),
        "q_maxes": list(q_maxes),
    }
    n = len(lists["datasizes"])
    if n < 1:
        raise PopulationError("population must contain at least one client")
    for name, values in lists.items():
        if len(values) != n:
            raise PopulationError(f"{name} has length {len(values)}, expected {n}")
    for i, d in enumerate(lists["datasizes"]):
        if not (math.isfinite(d) and d > 0):
            raise PopulationError(f"client {i}: datasize must be positive and finite, got {d}")
        if not float(d).is_integer():
            raise PopulationError(f"client {i}: datasize must be an integer, got {d}")
    total = float(sum(lists["datasizes"]))
    rows = []
    for i in range(n):
        row = (
            i,
            int(lists["datasizes"][i]),
            lists["datasizes"][i] / total,
            float(lists["grad_bounds"][i]),
            float(lists["cost_coeffs"][i]),
            float(lists["intrinsic_prefs"][i]),
            float(lists["q_maxes"][i]),
        )
        _check_row(*row)
        rows.append(row)
    return rows


# ---------------------------------------------------------------- population file


def write_population(path, population, f_locals=None, meta=None):
    """The population file as ``configparser`` writes it."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    if meta:
        cp["meta"] = {k: repr(float(v)) for k, v in meta.items()}
    for n, p in enumerate(population):
        section = {"d": str(int(p.datasize)), "G": repr(p.grad_bound), "c": repr(p.cost_coeff),
                   "v": repr(p.intrinsic_pref), "q_max": repr(p.q_max)}
        if f_locals is not None:
            section["F_local"] = repr(float(f_locals[n]))
        cp[f"client {n}"] = section
    with open(path, "w") as f:
        cp.write(f)


_CLIENT_SECTION = re.compile(r"^client (\d+)$")


def _number(path: str, section, key: str) -> float:
    """The value of ``key`` in a population file section, as a float."""
    raw = section.get(key)
    if raw is None:
        raise ValueError(f"{path}: [{section.name}] has no {key}")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{path}: [{section.name}] {key}: expected a number, got {raw!r}") from None


def read_population(path: str):
    """Returns (population, f_locals or None, meta dict)."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with open(path) as f:
        try:
            cp.read_file(f)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    meta = {k: _number(path, cp["meta"], k) for k in cp["meta"]} if cp.has_section("meta") else {}
    rows = []
    for name in cp.sections():
        m = _CLIENT_SECTION.match(name)
        if not m:
            if name != "meta":
                raise ValueError(f"{path}: unexpected section [{name}]")
            continue
        sec = cp[name]
        rows.append((
            int(m.group(1)),
            _number(path, sec, "d"),
            _number(path, sec, "G"),
            _number(path, sec, "c"),
            _number(path, sec, "v"),
            _number(path, sec, "q_max") if "q_max" in sec else 1.0,
            _number(path, sec, "F_local") if "F_local" in sec else None,
        ))
    rows.sort()
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: client indices must be contiguous from 0")
    try:
        population = make_population(
            datasizes=[r[1] for r in rows],
            grad_bounds=[r[2] for r in rows],
            cost_coeffs=[r[3] for r in rows],
            intrinsic_prefs=[r[4] for r in rows],
            q_maxes=[r[5] for r in rows],
        )
    except PopulationError as exc:
        raise PopulationError(f"{path}: {exc}") from None
    f_locals = [r[6] for r in rows]
    if any(v is None for v in f_locals):
        f_locals = None
    return population, f_locals, meta


def write_equilibrium_manifest(path, result, scheme, budget):
    """The manifest as ``json.dumps`` writes the whole payload."""
    rows = zip(result.q_star.tolist(), result.p_star.tolist(), result.payments.tolist(),
               result.interior.tolist())
    payload = {"scheme": scheme, "budget": budget, "diagnostics": dict(result.diagnostics),
               "lambda_star": result.lambda_star, "v_threshold": result.v_threshold,
               "spend": result.spend, "bound_value": result.bound_value,
               "clients": [{"n": n, "q": q, "P": price, "payment": payment, "interior": flag}
                           for n, (q, price, payment, flag) in enumerate(rows)]}
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- equilibrium checks


def verify_equilibrium(result, profiles, constants, budget):
    """Check the equalities and sign/ordering structure an equilibrium must satisfy."""
    violations = []
    interior_idx = [n for n, flag in enumerate(result.interior) if flag]
    rows = tuple(profiles)

    thetas = []
    for n in interior_idx:
        p = rows[n]
        qn = result.q_star[n]
        thetas.append(
            4.0 * constants.rounds * p.cost_coeff * qn**3
            / (constants.alpha * (p.weight * p.weight) * (p.grad_bound * p.grad_bound))
            + p.intrinsic_pref
        )
    if len(thetas) >= 2:
        spread = max(thetas) - min(thetas)
        kkt_residual = spread / max(abs(t) for t in thetas)
    else:
        kkt_residual = 0.0

    budget_residual = abs(result.spend - budget)

    vt = result.v_threshold
    sign_ok = True
    for n in interior_idx:
        v = rows[n].intrinsic_pref
        price = result.p_star[n]
        margin = 1e-9 * max(1.0, abs(vt))
        if v < vt - margin and price <= 0.0:
            sign_ok = False
            violations.append(f"client {n}: intrinsic_pref below threshold but price {price} <= 0")
        if v > vt + margin and price >= 0.0:
            sign_ok = False
            violations.append(f"client {n}: intrinsic_pref above threshold but price {price} >= 0")

    ordering_ok = True
    for i in interior_idx:
        for j in interior_idx:
            if i == j:
                continue
            pi, pj = rows[i], rows[j]
            strength_i = pi.cost_coeff * pi.weight * pi.grad_bound
            strength_j = pj.cost_coeff * pj.weight * pj.grad_bound
            if strength_i <= strength_j:
                continue
            price_i, price_j = result.p_star[i], result.p_star[j]
            if pi.intrinsic_pref < pj.intrinsic_pref < vt:
                if not price_i > price_j > 0.0:
                    ordering_ok = False
                    violations.append(f"clients ({i},{j}): positive-price ordering violated")
            elif pi.intrinsic_pref > pj.intrinsic_pref > vt:
                if not price_i < price_j < 0.0:
                    ordering_ok = False
                    violations.append(f"clients ({i},{j}): negative-price ordering violated")

    return EquilibriumReport(
        n_interior=len(interior_idx),
        kkt_equality_residual=kkt_residual,
        budget_residual=budget_residual,
        threshold_sign_ok=sign_ok,
        ordering_ok=ordering_ok,
        violations=tuple(violations),
    )


def write_idx(images_path: str, labels_path: str, images: np.ndarray, labels: np.ndarray,
              rows: int, cols: int) -> None:
    """Write an IDX pair, the inverse of ``data.load_idx``."""
    count = len(labels)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols))
        f.write(np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, count))
        f.write(labels.astype(np.uint8).tobytes())


def gen_synthetic(n_clients, dim=60, n_classes=10, alpha=1.0, beta=1.0, total_samples=2000,
                  power_exponent=1.5, seed=0):
    """``data.gen_synthetic`` client by client: each client's rows and test
    rows in arrays of their own, pooled at the end."""
    rng = np.random.default_rng(seed)
    sizes = power_law_sizes(n_clients, total_samples, power_exponent, rng)
    cov_diag = np.arange(1, dim + 1, dtype=float) ** (-1.2)
    scale = np.sqrt(cov_diag)
    shared_w = rng.normal(0.0, 1.0, size=(n_classes, dim)) if alpha == 0 else None
    shared_b = rng.normal(0.0, 1.0, size=n_classes) if alpha == 0 else None
    shared_mean = rng.normal(0.0, 1.0, size=dim) if beta == 0 else None

    shards = []
    test_x, test_y = [], []
    for n in range(n_clients):
        if alpha > 0:
            u_n = rng.normal(0.0, np.sqrt(alpha))
            w_n = rng.normal(u_n, 1.0, size=(n_classes, dim))
            b_n = rng.normal(u_n, 1.0, size=n_classes)
        else:
            w_n, b_n = shared_w, shared_b
        if beta > 0:
            v_n = rng.normal(0.0, np.sqrt(beta))
            mean_n = rng.normal(v_n, 1.0, size=dim)
        else:
            mean_n = shared_mean
        n_test = max(1, int(round(0.1 * sizes[n])))
        count = sizes[n] + n_test
        x = mean_n + rng.normal(0.0, 1.0, size=(count, dim)) * scale
        logits = x @ w_n.T + b_n
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        y = (rng.random((count, 1)) < cdf).argmax(axis=1)
        shards.append((x[: sizes[n]], y[: sizes[n]].astype(np.int64)))
        test_x.append(x[sizes[n] :])
        test_y.append(y[sizes[n] :].astype(np.int64))
    return FederatedDataset.from_shards(
        shards=tuple(shards),
        test_features=np.concatenate(test_x, axis=0),
        test_labels=np.concatenate(test_y, axis=0),
        n_classes=n_classes,
        dim=dim,
    )
