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
than N Python calls. The public Stage-II and KKT functions run the same
kernels over a whole population and return one entry per client. The three
pricing schemes -- ``server_solve``, ``baseline_uniform`` and
``baseline_weighted`` -- are calls of one shape,
``(population, constants, budget) -> EquilibriumResult``, and every solver
uses the fixed tolerances recorded in ``SolverOptions``.

Clients with intrinsic preference above the payment threshold 1/(3*lambda)
receive negative prices: they pay the server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import bound_terms, convergence_gap_bound, power
from .core import EquilibriumResult, GameConstants, Population, participation_levels, per_client

_INTERIOR_EPS = 1e-9
_NEWTON_REL = 1e-15     # a Stage-II Newton iteration stops at a step below this fraction of q,
_NEWTON_STEPS = 50      # or after this many steps


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
    """The tolerances every equilibrium solver uses, as a record: the
    solvers take no options."""

    lambda_tol: float = 1e-10     # relative width of the dual bisection interval
    max_iter: int = 200
    budget_tol: float = 1e-8      # |spend - B| <= budget_tol * |B|


_OPTS = SolverOptions()


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
    Otherwise the residual f(q) = P + v k / q^2 - 2 c q falls in q: a client
    whose residual is still nonnegative at the cap takes the cap; one whose
    residual is already nonpositive at q_floor * 1e-3 takes that point, the
    best admissible one since the objective diverges at zero. The rest take
    Newton steps on f from a start left of its root; f is convex, so every
    iterate stays left of the root and they climb to it without
    overshooting. For P >= 0 the start is max(P / 2c, (v k / 2c)^(1/3)),
    since 2 c q exceeds both P and v k / q^2 at the root; for P < 0 it is
    min(sqrt(v k / 2|P|), (v k / 4c)^(1/3)), where v k / q^2 is at least
    |P| + 2 c q. The start is raised to q_floor * 1e-3 and every iterate is
    capped at q_max. Each client stops when its step is no longer a positive
    fraction _NEWTON_REL of its level, so its answer does not depend on who
    else is in the population; one still open after _NEWTON_STEPS steps
    keeps its last iterate.
    """
    c, v, cap = cl.pop.c, cl.pop.v, cl.pop.q_max
    q = np.empty(len(c))
    free = v == 0.0
    root = prices[free] / (2.0 * c[free])
    q[free] = np.where(root <= 0.0, 0.0, np.minimum(root, cap[free]))

    idx = np.flatnonzero(~free)
    p, vk, c2, hi = prices[idx], cl.vk[idx], 2.0 * c[idx], cap[idx]
    q_lo = cl.floor * 1e-3
    at_cap = _foc(hi, p, vk, c2) >= 0.0
    at_low = ~at_cap & (_foc(q_lo, p, vk, c2) <= 0.0)
    q[idx[at_cap]] = hi[at_cap]
    q[idx[at_low]] = q_lo
    open_ = ~(at_cap | at_low)
    idx, p, vk, c2, hi = (x[open_] for x in (idx, p, vk, c2, hi))

    x = np.empty(idx.size)
    neg = p < 0.0
    pos = ~neg
    with np.errstate(over="ignore"):    # an overflowing bound is inf: min passes it over
        x[pos] = np.maximum(p[pos] / c2[pos], power(vk[pos] / c2[pos], 1.0 / 3.0))
        x[neg] = np.minimum(np.sqrt(vk[neg] / (-2.0 * p[neg])),
                            power(vk[neg] / (2.0 * c2[neg]), 1.0 / 3.0))
    x = np.minimum(np.maximum(x, q_lo), hi)
    for _ in range(_NEWTON_STEPS):
        if not idx.size:
            break
        x2 = x * x
        # f(x) / -f'(x), with f'(x) = -2 v k / x^3 - 2 c.
        step = (p + vk / x2 - c2 * x) / (2.0 * vk / (x2 * x) + c2)
        done = ~(step > _NEWTON_REL * x)
        q[idx[done]] = x[done]
        open_ = ~done
        idx, p, vk, c2, hi, x, step = (a[open_] for a in (idx, p, vk, c2, hi, x, step))
        x = np.minimum(x + step, hi)
    q[idx] = x
    return q


def client_best_response(prices, population: Population, constants: GameConstants) -> np.ndarray:
    """Each client's unique maximizer of its concave objective on [0, q_max],
    given its own price: one entry per client.

    Interior stationary points are found by Newton steps on the
    first-order-condition residual from a start left of its root, which
    climb to the root without overshooting. Monotone non-decreasing in each
    price.
    """
    prices = per_client(prices, "prices", len(population))
    bad = np.flatnonzero(~np.isfinite(prices))
    if bad.size:
        n = int(bad[0])
        raise ValueError(f"client {n}: price must be finite, got {prices[n]}")
    return _best_responses(prices, _Clients.read(population, constants))


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


def _bracket_and_bisect(spend, budget, lo, start, steps, *, rising, width=0.0, tol=None):
    """Where ``spend(x)``, a total monotone in x, crosses the budget, and the
    bisection steps taken; the last trial and None if no trial brackets it.

    ``lo`` lies below the crossing, where the spend is below the budget if
    ``rising`` and above it if not. The bracket doubles from ``start`` to
    the first of ``_OPTS.max_iter`` trials past the crossing; bisection halves
    it, for at most ``steps`` steps, while it is wider than ``width`` times its
    high end, and returns its midpoint, or the first midpoint whose spend is
    within ``tol`` of the budget. Every decision is ``_Total.test``'s.
    """
    below = (lambda s: s < budget) if rising else (lambda s: s > budget)
    past = (lambda s: s >= budget) if rising else (lambda s: s <= budget)
    hi = start
    for _ in range(_OPTS.max_iter):
        hi *= 2.0
        if spend(hi).test(past):
            break
    else:
        return hi, None
    taken = 0
    while taken < steps and hi - lo > width * hi:
        mid = 0.5 * (lo + hi)
        total = spend(mid)
        if tol is not None and _within(total, budget, tol):
            return mid, taken
        lo, hi = (mid, hi) if total.test(below) else (lo, mid)
        taken += 1
    return 0.5 * (lo + hi), taken


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


def _check_above_floor(levels: np.ndarray, constants: GameConstants) -> None:
    below = np.flatnonzero(~(levels >= constants.q_floor))
    if below.size:
        n = int(below[0])
        raise ValueError(
            f"client {n}: q={levels[n]} below the participation floor {constants.q_floor}"
        )


def inverse_price(levels, population: Population, constants: GameConstants) -> np.ndarray:
    """The price making each client's level its interior stationary point:
    one entry per client.

    P(q) = 2 c q - v (alpha/R) a^2 G^2 / q^2.
    """
    levels = per_client(levels, "levels", len(population))
    _check_above_floor(levels, constants)
    return _inverse_prices(levels, _Clients.read(population, constants))


def kkt_participation(lam: float, population: Population, constants: GameConstants) -> np.ndarray:
    """Each client's stationary participation level for dual value lam,
    clipped to the box: one entry per client.

    Inverts 1/lam = (4R/alpha) c q^3 / (a^2 G^2) + v; clients whose intrinsic
    preference meets or exceeds 1/lam have no interior stationary point and
    are pinned to the floor.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return _kkt_levels(lam, _Clients.read(population, constants))


def total_spend(q, population: Population, constants: GameConstants) -> float:
    """Server's total payment when each level is supported by its inverse price.

    sum_n (2 c_n q_n^2 - (alpha/R) v_n a_n^2 G_n^2 / q_n); negative summands
    are clients paying the server.
    """
    levels = participation_levels(q, len(population))
    _check_above_floor(levels, constants)
    return _spend(levels, _Clients.read(population, constants))


def payment_threshold(lambda_star: float) -> float:
    """Intrinsic-preference level at which the equilibrium price changes sign."""
    if not lambda_star > 0.0:
        raise ValueError(f"lambda must be positive, got {lambda_star}")
    return 1.0 / (3.0 * lambda_star)


def _result(prices: np.ndarray, levels: np.ndarray, population: Population,
            constants: GameConstants, *, lambda_star: float, v_threshold: float,
            interior: np.ndarray, diagnostics: dict) -> EquilibriumResult:
    """Every solver's prices and levels as an equilibrium record, with the
    payments P q, their exact sum as the spend, and the gap bound, which is
    infinite when some client's q is 0. The solver gives its own dual value,
    threshold, interior mask and diagnostics."""
    payments = prices * levels
    bound = convergence_gap_bound(levels, population, constants) if np.all(levels > 0.0) else math.inf
    return EquilibriumResult(
        q_star=levels, p_star=prices, lambda_star=lambda_star,
        v_threshold=v_threshold, spend=math.fsum(payments), bound_value=bound,
        payments=payments, interior=interior, diagnostics=diagnostics)


def server_solve(population: Population, constants: GameConstants, budget: float) -> EquilibriumResult:
    """Equilibrium prices and participation via bisection on the budget dual.

    Spend is monotone non-increasing in the dual value, so the budget-tight
    dual is found by plain bisection; the budget constraint is tight at the
    optimum unless the budget already buys every client's cap.
    """
    if math.isnan(budget):
        raise ValueError(f"budget must be a number, got {budget}")
    cl = _Clients.read(population, constants)
    _check_floor(cl)
    zero = np.flatnonzero(cl.kkt_num == 0.0)
    if zero.size:
        n = int(zero[0])
        raise ValueError(f"client {n}: alpha a^2 G^2 underflows to 0 (a = {cl.pop.a[n]}, "
                         f"G = {cl.pop.G[n]}), so the optimal scheme cannot price it")
    min_budget = _spend(np.full(len(population), cl.floor), cl)
    tol = _OPTS.budget_tol * abs(budget)
    if budget < min_budget - tol:
        raise InfeasibleBudgetError(budget, min_budget)

    caps = cl.pop.q_max
    cap_spend = _spend(caps, cl)
    lam_cap = _cap_lambda(cl)

    def spend_at(lam: float) -> _Total:
        return _Total(_payments(_kkt_levels(lam, cl), cl))

    if cap_spend <= budget + tol:
        lam, q = lam_cap, caps
        diagnostics = {"caps_binding": True, "iterations": 0,
                       "budget_residual": max(0.0, cap_spend - budget)}
    else:
        # spend(lam_cap) = cap_spend > budget: lam_cap is below the root.
        lam, iterations = _bracket_and_bisect(spend_at, budget, lam_cap, lam_cap, _OPTS.max_iter,
                                              rising=False, width=_OPTS.lambda_tol)
        if iterations is None:
            raise BracketError(f"could not bracket the budget dual: spend({lam}) = "
                               f"{spend_at(lam).exact()} > {budget}")
        q = _kkt_levels(lam, cl)
        diagnostics = {"caps_binding": False, "iterations": iterations,
                       "budget_residual": abs(_spend(q, cl) - budget)}
    return _result(_inverse_prices(q, cl), q, population, constants, lambda_star=lam,
                   v_threshold=payment_threshold(lam),
                   interior=(cl.floor + _INTERIOR_EPS < q) & (q < caps - _INTERIOR_EPS),
                   diagnostics={"solver": "lambda_bisection", **diagnostics})


# ---------------------------------------------------------------- baselines


def _scaled_baseline(
    unit_prices: np.ndarray, population: Population, constants: GameConstants, budget: float
) -> EquilibriumResult:
    """The baseline whose prices are ``unit_prices`` scaled to exhaust the budget.

    Baselines have no dual value, threshold or interior clients: the dual and
    threshold are NaN, and the diagnostics name the solver.
    """
    cl = _Clients.read(population, constants)
    if not budget >= 0.0:
        raise ValueError(f"budget must be nonnegative, got {budget}")

    def spend(scale: float) -> _Total:
        prices = scale * unit_prices
        return _Total(prices * _best_responses(prices, cl))

    # Every payment at scale 0 is 0, so only a positive budget needs a search.
    tol = _OPTS.budget_tol * budget
    scale = 0.0
    if budget > 0.0:
        scale, steps = _bracket_and_bisect(spend, budget, 0.0, 0.5, 4 * _OPTS.max_iter,
                                           rising=True, tol=tol)
        if steps is None:
            raise BracketError(f"baseline pricing cannot exhaust budget {budget}: "
                               f"spend({2.0 * scale}) = {spend(2.0 * scale).exact()}")
    prices = scale * unit_prices
    return _result(prices, _best_responses(prices, cl), population, constants,
                   lambda_star=math.nan, v_threshold=math.nan,
                   interior=np.zeros(len(population), dtype=bool),
                   diagnostics={"solver": "baseline"})


def baseline_uniform(population: Population, constants: GameConstants, budget: float) -> EquilibriumResult:
    """One nonnegative price for everyone, scaled until the budget is exhausted."""
    return _scaled_baseline(np.ones(len(population)), population, constants, budget)


def baseline_weighted(population: Population, constants: GameConstants, budget: float) -> EquilibriumResult:
    """Prices proportional to datasize, scaled until the budget is exhausted."""
    return _scaled_baseline(population.d, population, constants, budget)


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
    interior_idx = np.flatnonzero(result.interior)
    q, prices, c, a, G, v = (col[interior_idx] for col in (
        result.q_star, result.p_star, population.c, population.a, population.G, population.v))

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
