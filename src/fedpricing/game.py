"""Two-stage pricing game between the server and participating clients.

Stage II: each client picks the participation level maximizing its own profit
given its posted price. Stage I: the server picks prices minimizing the
convergence-gap bound subject to its payment budget, anticipating the clients'
best responses. The solver bisects the budget constraint's dual variable over
the KKT system (spend is monotone in the dual, so bisection is robust and
deterministic).

Each solver call derives the game's columns from its ``Population`` once
(``_Clients``) and runs both stages on whole arrays, so a Stage-II pass or a
spend evaluation is a fixed number of numpy operations over N clients rather
than N Python calls.
The public per-client functions are calls into the same kernels on the
one-client population of a ``ClientProfile`` row.

Clients with intrinsic preference above the payment threshold 1/(3*lambda)
receive negative prices: they pay the server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import bound_terms, checked_levels, gap_bound_of, power
from .core import (
    ClientProfile,
    EquilibriumResult,
    GameConstants,
    ParticipationVector,
    Population,
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
    """A population under one set of game constants.

    The derived columns are computed once per solver call, in the same
    operation order as the per-client formulas they stand for.
    """

    pop: Population
    vk: np.ndarray         # v (alpha/R) a^2 G^2, the weight of the gap bound in the client's profit
    kkt_num: np.ndarray    # alpha a^2 G^2
    kkt_den: np.ndarray    # 4 R c
    floor: float

    @classmethod
    def read(cls, population: Population, constants: GameConstants) -> "_Clients":
        a, G = population.a, population.G
        return cls(
            pop=population,
            vk=population.v * bound_terms(population, constants),
            kkt_num=constants.alpha * (a * a) * (G * G),
            kkt_den=4.0 * constants.rounds * population.c,
            floor=constants.q_floor,
        )


# ---------------------------------------------------------------- stage II


def _foc(q, prices, vk, c2):
    # P + v (alpha/R) a^2 G^2 / q^2 - 2 c q: derivative of the client objective.
    return prices + vk / (q * q) - c2 * q


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
    c, v, cap = cl.pop.c, cl.pop.v, cl.pop.q_max
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
    cl = _Clients.read(Population.of_client(profile), constants)
    return float(_best_responses(np.array([p_n], dtype=float), cl)[0])


# ---------------------------------------------------------------- certified sums


class _Total:
    """``math.fsum(terms)``, bounded from ``np.sum`` and computed only when a
    test needs it.

    ``np.sum`` adds in some order, each addition rounded, so it lies within
    gamma_{n-1} * sum |x_i| of the exact sum, with gamma_k = k u / (1 - k u)
    and u = 2^-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 4.2). The bound taken, 2 n u times the computed sum of |x_i|,
    covers that and its own rounding while n u < 0.01, and the ends it gives
    are moved out by one ulp. The correctly rounded sum ``math.fsum`` returns
    lies between the ends, so a test monotone in the total that answers the
    same at both ends answers so for ``math.fsum(terms)`` too: every decision
    is the one ``math.fsum`` gives. Only a test whose answer differs at the
    ends runs ``math.fsum``; totals that are not finite, or near overflow, run
    it at once, with its errors.
    """

    def __init__(self, terms: np.ndarray):
        self.terms = terms
        with np.errstate(over="ignore", invalid="ignore"):   # math.fsum reports these
            total = float(np.sum(terms))
            size = float(np.sum(np.abs(terms)))
        if math.isfinite(total) and size < 2.0**1000:
            err = 2.0 * len(terms) * 2.0**-53 * size
            self.lo = math.nextafter(total - err, -math.inf)
            self.hi = math.nextafter(total + err, math.inf)
        else:
            self.exact()

    def exact(self) -> float:
        self.lo = self.hi = math.fsum(self.terms)
        return self.lo

    def test(self, holds) -> bool:
        """holds(math.fsum(terms)), for a predicate monotone in the total."""
        at_lo = holds(self.lo)
        if at_lo == holds(self.hi):
            return at_lo
        return holds(self.exact())


def _within(total: _Total, target: float, tol: float) -> bool:
    """abs(math.fsum(terms) - target) <= tol, as tests monotone in the total."""
    if total.test(lambda s: s < target):
        return total.test(lambda s: s - target >= -tol)
    return total.test(lambda s: s - target <= tol)


# ---------------------------------------------------------------- stage I


def _inverse_prices(levels: np.ndarray, cl: _Clients) -> np.ndarray:
    # P(q) = 2 c q - v (alpha/R) a^2 G^2 / q^2.
    return 2.0 * cl.pop.c * levels - cl.vk / (levels * levels)


def _payments(levels: np.ndarray, cl: _Clients) -> np.ndarray:
    return _inverse_prices(levels, cl) * levels


def _spend(levels: np.ndarray, cl: _Clients) -> float:
    return math.fsum(_payments(levels, cl))


def _kkt_levels(lam: float, cl: _Clients) -> np.ndarray:
    # q^3 = alpha a^2 G^2 (1/lam - v) / (4 R c), clipped to the box; clients
    # with 1/lam <= v are pinned to the floor.
    inv = 1.0 / lam
    v = cl.pop.v
    q = power(cl.kkt_num * np.maximum(inv - v, 0.0) / cl.kkt_den, 1.0 / 3.0)
    q = np.minimum(np.maximum(q, cl.floor), cl.pop.q_max)
    return np.where(inv <= v, cl.floor, q)


def _cap_lambda(cl: _Clients) -> float:
    # Largest dual value at which every unclipped stationary level still
    # reaches its cap: 1/lambda = (4R/alpha) c q_max^3/(a^2 G^2) + v per client.
    return 1.0 / float(np.max(cl.kkt_den * power(cl.pop.q_max, 3) / cl.kkt_num + cl.pop.v))


def _check_floor(cl: _Clients) -> None:
    min_cap = float(np.min(cl.pop.q_max))
    if cl.floor >= min_cap:
        raise ValueError(f"q_floor={cl.floor} must lie below the smallest cap {min_cap}")


def inverse_price(q_n: float, profile: ClientProfile, constants: GameConstants) -> float:
    """Price making q_n the client's interior stationary point.

    P(q) = 2 c q - v (alpha/R) a^2 G^2 / q^2.
    """
    if q_n < constants.q_floor:
        raise ValueError(f"q_n={q_n} below the participation floor {constants.q_floor}")
    cl = _Clients.read(Population.of_client(profile), constants)
    return float(_inverse_prices(np.array([q_n], dtype=float), cl)[0])


def kkt_participation(lam: float, profile: ClientProfile, constants: GameConstants) -> float:
    """Stationary participation level for dual value lam, clipped to the box.

    Inverts 1/lam = (4R/alpha) c q^3 / (a^2 G^2) + v; clients whose intrinsic
    preference meets or exceeds 1/lam have no interior stationary point and
    are pinned to the floor.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return float(_kkt_levels(lam, _Clients.read(Population.of_client(profile), constants))[0])


def total_spend(q: ParticipationVector, population: Population, constants: GameConstants) -> float:
    """Server's total payment when each level is supported by its inverse price.

    sum_n (2 c_n q_n^2 - (alpha/R) v_n a_n^2 G_n^2 / q_n); negative summands
    are clients paying the server.
    """
    levels = checked_levels(q, population)
    below = np.flatnonzero(levels < constants.q_floor)
    if below.size:
        n = int(below[0])
        raise ValueError(
            f"client {n}: q={levels[n]} below the participation floor {constants.q_floor}"
        )
    return _spend(levels, _Clients.read(population, constants))


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
    c, a, G = profile.cost_coeff, profile.weight, profile.grad_bound
    coeff = (2.0 * constants.alpha * (c * c) * (a * a) * (G * G) / constants.rounds) ** (1.0 / 3.0)
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
    interior = (cl.floor + _INTERIOR_EPS < levels) & (levels < cl.pop.q_max - _INTERIOR_EPS)
    return EquilibriumResult(
        q_star=ParticipationVector(levels),
        p_star=PricingVector(prices),
        lambda_star=lam,
        v_threshold=payment_threshold(lam),
        spend=math.fsum(payments),
        bound_value=gap_bound_of(levels, cl.pop, constants),
        payments=tuple(payments.tolist()),
        interior=tuple(interior.tolist()),
        diagnostics=diagnostics,
    )


def server_solve(
    population: Population,
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
    cl = _Clients.read(population, constants)
    _check_floor(cl)
    min_budget = _spend(np.full(len(population), cl.floor), cl)
    tol = opts.budget_tol * max(1.0, abs(budget))
    if budget < min_budget - tol:
        raise InfeasibleBudgetError(budget, min_budget)

    caps = cl.pop.q_max
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

    def spend_at(lam: float) -> _Total:
        return _Total(_payments(_kkt_levels(lam, cl), cl))

    lam_lo = lam_cap                       # spend(lam_lo) = cap_spend > budget
    lam_hi = lam_cap
    for _ in range(opts.max_iter):
        lam_hi *= 2.0
        if spend_at(lam_hi).test(lambda s: s <= budget):
            break
    else:
        raise BracketError(
            f"could not bracket the budget dual: spend({lam_hi}) = {spend_at(lam_hi).exact()} "
            f"> {budget}"
        )

    iterations = 0
    while (lam_hi - lam_lo) > opts.lambda_tol * lam_hi and iterations < opts.max_iter:
        mid = 0.5 * (lam_lo + lam_hi)
        if spend_at(mid).test(lambda s: s > budget):
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

    def spend(scale: float) -> _Total:
        prices = scale * unit_prices
        return _Total(prices * _best_responses(prices, cl))

    tol = opts.budget_tol * max(1.0, budget)
    if budget == 0.0 or spend(0.0).test(lambda s: s >= budget - tol):
        return 0.0, responses(0.0)
    hi = 1.0
    for _ in range(opts.max_iter):
        if spend(hi).test(lambda s: s >= budget):
            break
        hi *= 2.0
    else:
        raise BracketError(
            f"baseline pricing cannot exhaust budget {budget}: spend({hi}) = {spend(hi).exact()}"
        )
    lo = 0.0
    for _ in range(4 * opts.max_iter):
        mid = 0.5 * (lo + hi)
        s = spend(mid)
        if _within(s, budget, tol):
            lo = hi = mid
            break
        if s.test(lambda x: x < budget):
            lo = mid
        else:
            hi = mid
    scale = 0.5 * (lo + hi)
    return scale, responses(scale)


def baseline_uniform(
    population: Population,
    constants: GameConstants,
    budget: float,
    opts: SolverOptions | None = None,
):
    """One nonnegative price for everyone, scaled until the budget is exhausted."""
    opts = opts or SolverOptions()
    cl = _Clients.read(population, constants)
    price, q = _bisect_budget_scale(np.ones(len(population)), cl, budget, opts)
    return price, ParticipationVector(q)


def baseline_weighted(
    population: Population,
    constants: GameConstants,
    budget: float,
    opts: SolverOptions | None = None,
):
    """Prices proportional to datasize, scaled until the budget is exhausted."""
    opts = opts or SolverOptions()
    cl = _Clients.read(population, constants)
    scale, q = _bisect_budget_scale(cl.pop.d, cl, budget, opts)
    return PricingVector(scale * cl.pop.d), ParticipationVector(q)


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
    population: Population,
    constants: GameConstants,
    budget: float,
) -> EquilibriumReport:
    """Check the equalities and sign/ordering structure an equilibrium must satisfy."""
    violations = []
    interior_idx = np.flatnonzero(np.array(result.interior, dtype=bool))
    q = result.q_star.as_array()[interior_idx]
    c, a, G, v = (col[interior_idx] for col in (population.c, population.a, population.G,
                                                 population.v))
    prices = result.p_star.as_array()[interior_idx]

    thetas = (4.0 * constants.rounds * c * power(q, 3)
              / (constants.alpha * (a * a) * (G * G)) + v)
    if len(thetas) >= 2:
        kkt_residual = float((np.max(thetas) - np.min(thetas)) / np.max(np.abs(thetas)))
    else:
        kkt_residual = 0.0

    budget_residual = abs(result.spend - budget)

    vt = result.v_threshold
    margin = 1e-9 * max(1.0, abs(vt))
    below = (v < vt - margin) & (prices <= 0.0)
    above = (v > vt + margin) & (prices >= 0.0)
    sign_ok = not (below.any() or above.any())
    for n, price, low in zip(interior_idx[below | above].tolist(),
                             prices[below | above].tolist(), below[below | above].tolist()):
        side, sign = ("below", "<=") if low else ("above", ">=")
        violations.append(f"client {n}: intrinsic_pref {side} threshold but price {price} {sign} 0")

    ordering_ok = True
    strength = (c * a * G).tolist()
    v, prices = v.tolist(), prices.tolist()
    for i, n_i in enumerate(interior_idx.tolist()):
        for j, n_j in enumerate(interior_idx.tolist()):
            if strength[i] <= strength[j]:
                continue
            if v[i] < v[j] < vt:
                if not prices[i] > prices[j] > 0.0:
                    ordering_ok = False
                    violations.append(f"clients ({n_i},{n_j}): positive-price ordering violated")
            elif v[i] > v[j] > vt:
                if not prices[i] < prices[j] < 0.0:
                    ordering_ok = False
                    violations.append(f"clients ({n_i},{n_j}): negative-price ordering violated")

    return EquilibriumReport(
        n_interior=len(interior_idx),
        kkt_equality_residual=kkt_residual,
        budget_residual=budget_residual,
        threshold_sign_ok=sign_ok,
        ordering_ok=ordering_ok,
        violations=tuple(violations),
    )
