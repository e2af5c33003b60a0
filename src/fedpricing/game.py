"""Two-stage pricing game between the server and participating clients.

Stage II: each client picks the participation level maximizing its own profit
given its posted price. Stage I: the server picks prices minimizing the
convergence-gap bound subject to its payment budget, anticipating the clients'
best responses. The solver bisects the budget constraint's dual variable over
the KKT system (spend is monotone in the dual, so bisection is robust and
deterministic).

Each solver call reads its population once into columns (``_Clients``) and
runs both stages on whole arrays, so a Stage-II pass or a spend evaluation is
a fixed number of numpy operations over N clients rather than N Python calls.
The public per-client functions are one-client calls into the same kernels.

Clients with intrinsic preference above the payment threshold 1/(3*lambda)
receive negative prices: they pay the server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import bound_terms, gap_bound_of, power
from .core import (
    ClientColumns,
    ClientProfile,
    EquilibriumResult,
    GameConstants,
    ParticipationVector,
    PricingVector,
)

_INTERIOR_EPS = 1e-9
_RESPONSE_WIDTH = 1e-12     # each client's Stage-II bisection stops at this interval width


class InfeasibleBudgetError(ValueError):
    """Budget below the spend required to hold every client at the floor."""

    def __init__(self, budget: float, min_budget: float):
        self.budget = budget
        self.min_budget = min_budget
        super().__init__(
            f"budget {budget} infeasible: holding all clients at the participation floor "
            f"already costs {min_budget}; minimal feasible budget is {min_budget}"
        )


class BracketError(RuntimeError):
    """Bisection could not bracket its target."""


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs for the equilibrium solvers."""

    lambda_tol: float = 1e-10     # relative width of the dual bisection interval
    max_iter: int = 200
    budget_tol: float = 1e-8      # |spend - B| <= budget_tol * max(1, B)

    def __post_init__(self):
        if self.lambda_tol <= 0 or self.budget_tol <= 0:
            raise ValueError("solver tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class _Clients:
    """A population under one set of game constants, as columns.

    The derived columns are computed once per solver call, in the same
    operation order as the per-client formulas they stand for.
    """

    cols: ClientColumns
    vk: np.ndarray         # v (alpha/R) a^2 G^2, the weight of the gap bound in the client's profit
    kkt_num: np.ndarray    # alpha a^2 G^2
    kkt_den: np.ndarray    # 4 R c
    floor: float

    @classmethod
    def read(cls, profiles: list, constants: GameConstants) -> "_Clients":
        cols = ClientColumns.of(profiles)
        return cls(
            cols=cols,
            vk=cols.v * bound_terms(cols, constants),
            kkt_num=constants.alpha * power(cols.a, 2) * power(cols.G, 2),
            kkt_den=4.0 * constants.rounds * cols.c,
            floor=constants.q_floor,
        )


# ---------------------------------------------------------------- stage II


def _foc(q, prices, vk, c2):
    # P + v (alpha/R) a^2 G^2 / q^2 - 2 c q: derivative of the client objective.
    return prices + vk / power(q, 2) - c2 * q


def _best_responses(prices: np.ndarray, cl: _Clients) -> np.ndarray:
    """Every client's maximizer of P q - c q^2 - v k (1 - q) / q on [0, q_max],
    with k = (alpha/R) a^2 G^2.

    With v = 0 the first-order condition P = 2 c q is solved in closed form.
    Otherwise the residual P + v k / q^2 - 2 c q falls in q: a client whose
    residual is still nonnegative at the cap takes the cap; one whose
    residual is already nonpositive at q_floor * 1e-3 takes that point, the
    best admissible one since the objective diverges at zero; the rest
    bisect the residual on [q_floor * 1e-3, q_max]. Each client stops when
    its own interval is 1e-12 wide, so its answer does not depend on who else
    is in the population.
    """
    c, v, cap = cl.cols.c, cl.cols.v, cl.cols.q_max
    q = np.empty(len(c))
    free = v == 0.0
    root = prices[free] / (2.0 * c[free])
    q[free] = np.where(root <= 0.0, 0.0, np.minimum(root, cap[free]))

    idx = np.flatnonzero(~free)
    p, vk, c2, hi = prices[idx], cl.vk[idx], 2.0 * c[idx], cap[idx]
    q_lo = cl.floor * 1e-3
    lo = np.full(idx.size, q_lo)
    at_cap = _foc(hi, p, vk, c2) >= 0.0
    at_low = ~at_cap & (_foc(lo, p, vk, c2) <= 0.0)
    q[idx[at_cap]] = hi[at_cap]
    q[idx[at_low]] = q_lo
    open_ = ~(at_cap | at_low)
    idx, p, vk, c2, lo, hi = (x[open_] for x in (idx, p, vk, c2, lo, hi))
    while True:
        done = ~(hi - lo > _RESPONSE_WIDTH)
        if done.any():
            q[idx[done]] = 0.5 * (lo[done] + hi[done])
            open_ = ~done
            idx, p, vk, c2, lo, hi = (x[open_] for x in (idx, p, vk, c2, lo, hi))
        if not idx.size:
            return q
        mid = 0.5 * (lo + hi)
        up = _foc(mid, p, vk, c2) > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)


def client_best_response(p_n: float, profile: ClientProfile, constants: GameConstants) -> float:
    """Unique maximizer of the client's concave objective on [0, q_max].

    Interior stationary points are found by monotone bisection on the
    first-order-condition residual (the closed-form cubic root is avoided for
    numerical robustness). Monotone non-decreasing in the price.
    """
    prices = np.array([p_n], dtype=float)
    return float(_best_responses(prices, _Clients.read([profile], constants))[0])


# ---------------------------------------------------------------- stage I


def _inverse_prices(levels: np.ndarray, cl: _Clients) -> np.ndarray:
    # P(q) = 2 c q - v (alpha/R) a^2 G^2 / q^2.
    return 2.0 * cl.cols.c * levels - cl.vk / power(levels, 2)


def _spend(levels: np.ndarray, cl: _Clients) -> float:
    return math.fsum(_inverse_prices(levels, cl) * levels)


def _kkt_levels(lam: float, cl: _Clients) -> np.ndarray:
    # q^3 = alpha a^2 G^2 (1/lam - v) / (4 R c), clipped to the box; clients
    # with 1/lam <= v are pinned to the floor.
    inv = 1.0 / lam
    v = cl.cols.v
    q = power(cl.kkt_num * np.maximum(inv - v, 0.0) / cl.kkt_den, 1.0 / 3.0)
    q = np.minimum(np.maximum(q, cl.floor), cl.cols.q_max)
    return np.where(inv <= v, cl.floor, q)


def _cap_lambda(cl: _Clients) -> float:
    # Largest dual value at which every unclipped stationary level still
    # reaches its cap: 1/lambda = (4R/alpha) c q_max^3/(a^2 G^2) + v per client.
    return 1.0 / float(np.max(cl.kkt_den * power(cl.cols.q_max, 3) / cl.kkt_num + cl.cols.v))


def _check_floor(cl: _Clients) -> None:
    min_cap = float(np.min(cl.cols.q_max))
    if cl.floor >= min_cap:
        raise ValueError(f"q_floor={cl.floor} must lie below the smallest cap {min_cap}")


def inverse_price(q_n: float, profile: ClientProfile, constants: GameConstants) -> float:
    """Price making q_n the client's interior stationary point.

    P(q) = 2 c q - v (alpha/R) a^2 G^2 / q^2.
    """
    if q_n < constants.q_floor:
        raise ValueError(f"q_n={q_n} below the participation floor {constants.q_floor}")
    levels = np.array([q_n], dtype=float)
    return float(_inverse_prices(levels, _Clients.read([profile], constants))[0])


def kkt_participation(lam: float, profile: ClientProfile, constants: GameConstants) -> float:
    """Stationary participation level for dual value lam, clipped to the box.

    Inverts 1/lam = (4R/alpha) c q^3 / (a^2 G^2) + v; clients whose intrinsic
    preference meets or exceeds 1/lam have no interior stationary point and
    are pinned to the floor.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return float(_kkt_levels(lam, _Clients.read([profile], constants))[0])


def total_spend(q: ParticipationVector, profiles: list, constants: GameConstants) -> float:
    """Server's total payment when each level is supported by its inverse price.

    sum_n (2 c_n q_n^2 - (alpha/R) v_n a_n^2 G_n^2 / q_n); negative summands
    are clients paying the server.
    """
    levels = q.as_array()
    below = np.flatnonzero(levels < constants.q_floor)
    if below.size:
        n = int(below[0])
        raise ValueError(
            f"client {n}: q={levels[n]} below the participation floor {constants.q_floor}"
        )
    return _spend(levels, _Clients.read(profiles, constants))


def payment_threshold(lambda_star: float) -> float:
    """Intrinsic-preference level at which the equilibrium price changes sign."""
    if lambda_star <= 0.0:
        raise ValueError(f"lambda must be positive, got {lambda_star}")
    return 1.0 / (3.0 * lambda_star)


def price_closed_form(lambda_star: float, profile: ClientProfile, constants: GameConstants) -> float:
    """Equilibrium price of an interior client, directly from the dual value.

    P = (2 alpha c^2 a^2 G^2 / R)^(1/3) * [(1/lam - v)^(1/3) - 2 v (1/lam - v)^(-2/3)].
    Must coincide with inverse_price(kkt_participation(lam)) whenever the
    client is interior.
    """
    if lambda_star <= 0.0:
        raise ValueError(f"lambda must be positive, got {lambda_star}")
    inv = 1.0 / lambda_star
    v = profile.intrinsic_pref
    if inv <= v:
        raise ValueError(
            f"client {profile.index} is not interior: 1/lambda={inv} <= intrinsic_pref={v}"
        )
    coeff = (
        2.0
        * constants.alpha
        * profile.cost_coeff**2
        * profile.weight**2
        * profile.grad_bound**2
        / constants.rounds
    ) ** (1.0 / 3.0)
    gap = inv - v
    return coeff * (gap ** (1.0 / 3.0) - 2.0 * v / gap ** (2.0 / 3.0))


def _finish(
    levels: np.ndarray,
    lam: float,
    cl: _Clients,
    constants: GameConstants,
    diagnostics: dict,
) -> EquilibriumResult:
    prices = _inverse_prices(levels, cl)
    payments = prices * levels
    interior = (cl.floor + _INTERIOR_EPS < levels) & (levels < cl.cols.q_max - _INTERIOR_EPS)
    return EquilibriumResult(
        q_star=ParticipationVector(levels),
        p_star=PricingVector(prices),
        lambda_star=lam,
        v_threshold=payment_threshold(lam),
        spend=math.fsum(payments),
        bound_value=gap_bound_of(levels, cl.cols, constants),
        payments=tuple(payments.tolist()),
        interior=tuple(interior.tolist()),
        diagnostics=diagnostics,
    )


def server_solve(
    profiles: list,
    constants: GameConstants,
    budget: float,
    opts: SolverOptions | None = None,
) -> EquilibriumResult:
    """Equilibrium prices and participation via bisection on the budget dual.

    Spend is monotone non-increasing in the dual value, so the budget-tight
    dual is found by plain bisection; the budget constraint is tight at the
    optimum unless the budget already buys every client's cap.
    """
    opts = opts or SolverOptions()
    if len(profiles) < 1:
        raise ValueError("population must contain at least one client")
    cl = _Clients.read(profiles, constants)
    _check_floor(cl)
    min_budget = _spend(np.full(len(profiles), cl.floor), cl)
    tol = opts.budget_tol * max(1.0, abs(budget))
    if budget < min_budget - tol:
        raise InfeasibleBudgetError(budget, min_budget)

    caps = cl.cols.q_max
    cap_spend = _spend(caps, cl)
    lam_cap = _cap_lambda(cl)
    if cap_spend <= budget + tol:
        return _finish(
            caps,
            lam_cap,
            cl,
            constants,
            {"solver": "lambda_bisection", "caps_binding": True, "iterations": 0,
             "budget_residual": max(0.0, cap_spend - budget)},
        )

    def spend_at(lam: float) -> float:
        return _spend(_kkt_levels(lam, cl), cl)

    lam_lo = lam_cap                       # spend(lam_lo) = cap_spend > budget
    lam_hi = lam_cap
    for _ in range(opts.max_iter):
        lam_hi *= 2.0
        if spend_at(lam_hi) <= budget:
            break
    else:
        raise BracketError(
            f"could not bracket the budget dual: spend({lam_hi}) = {spend_at(lam_hi)} > {budget}"
        )

    iterations = 0
    while (lam_hi - lam_lo) > opts.lambda_tol * lam_hi and iterations < opts.max_iter:
        mid = 0.5 * (lam_lo + lam_hi)
        if spend_at(mid) > budget:
            lam_lo = mid
        else:
            lam_hi = mid
        iterations += 1
    lam = 0.5 * (lam_lo + lam_hi)
    q = _kkt_levels(lam, cl)
    return _finish(
        q,
        lam,
        cl,
        constants,
        {"solver": "lambda_bisection", "caps_binding": False, "iterations": iterations,
         "budget_residual": abs(_spend(q, cl) - budget)},
    )


# ---------------------------------------------------------------- baselines


def _bisect_budget_scale(
    unit_prices: np.ndarray,
    cl: _Clients,
    budget: float,
    opts: SolverOptions,
):
    """Bisect a nonnegative scale s so the best responses to the prices
    s * unit_prices exhaust the budget; returns (s, responses)."""
    if budget < 0.0:
        raise ValueError(f"budget must be nonnegative, got {budget}")

    def responses(scale: float) -> np.ndarray:
        return _best_responses(scale * unit_prices, cl)

    def spend(scale: float) -> float:
        prices = scale * unit_prices
        return math.fsum(prices * _best_responses(prices, cl))

    tol = opts.budget_tol * max(1.0, budget)
    if budget == 0.0 or spend(0.0) >= budget - tol:
        return 0.0, responses(0.0)
    hi = 1.0
    for _ in range(opts.max_iter):
        if spend(hi) >= budget:
            break
        hi *= 2.0
    else:
        raise BracketError(
            f"baseline pricing cannot exhaust budget {budget}: spend({hi}) = {spend(hi)}"
        )
    lo = 0.0
    for _ in range(4 * opts.max_iter):
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
    return scale, responses(scale)


def baseline_uniform(
    profiles: list,
    constants: GameConstants,
    budget: float,
    opts: SolverOptions | None = None,
):
    """One nonnegative price for everyone, scaled until the budget is exhausted."""
    opts = opts or SolverOptions()
    cl = _Clients.read(profiles, constants)
    price, q = _bisect_budget_scale(np.ones(len(profiles)), cl, budget, opts)
    return price, ParticipationVector(q)


def baseline_weighted(
    profiles: list,
    constants: GameConstants,
    budget: float,
    opts: SolverOptions | None = None,
):
    """Prices proportional to datasize, scaled until the budget is exhausted."""
    opts = opts or SolverOptions()
    cl = _Clients.read(profiles, constants)
    scale, q = _bisect_budget_scale(cl.cols.d, cl, budget, opts)
    return PricingVector(scale * cl.cols.d), ParticipationVector(q)


@dataclass(frozen=True)
class EquilibriumReport:
    """Post-solve diagnostics on a claimed equilibrium."""

    n_interior: int
    kkt_equality_residual: float   # max relative spread of (4R/alpha) c q^3/(a^2 G^2) + v, interior clients
    budget_residual: float
    threshold_sign_ok: bool
    ordering_ok: bool
    violations: tuple = ()


def verify_equilibrium(
    result: EquilibriumResult,
    profiles: list,
    constants: GameConstants,
    budget: float,
) -> EquilibriumReport:
    """Check the equalities and sign/ordering structure an equilibrium must satisfy."""
    violations = []
    interior_idx = [n for n, flag in enumerate(result.interior) if flag]

    thetas = []
    for n in interior_idx:
        p = profiles[n]
        qn = result.q_star.q[n]
        thetas.append(
            4.0 * constants.rounds * p.cost_coeff * qn**3
            / (constants.alpha * p.weight**2 * p.grad_bound**2)
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
        v = profiles[n].intrinsic_pref
        price = result.p_star.p[n]
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
            pi, pj = profiles[i], profiles[j]
            strength_i = pi.cost_coeff * pi.weight * pi.grad_bound
            strength_j = pj.cost_coeff * pj.weight * pj.grad_bound
            if strength_i <= strength_j:
                continue
            price_i, price_j = result.p_star.p[i], result.p_star.p[j]
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
