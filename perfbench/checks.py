"""Correctness checks computed apart from the program.

They parse the written files with the standard library (``configparser``,
``json``, ``csv``) and recompute every identity with numpy, so a fault in the
package's own readers or verifiers cannot hide a fault in its solvers. The
one exception is the purity check, which by definition re-runs the
package's ``build_report``.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import os
import shutil

import numpy as np

SCHEMES = ("optimal", "uniform", "weighted")   # as fedpricing.experiment.SCHEMES
REL_TOL = 1e-9          # for identities that hold up to rounding
Q_TOL = 1e-9            # best responses are bisected to an interval of 1e-12
INTERIOR_EPS = 1e-9     # the manifest's interior flag uses this margin


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_population(path: str) -> dict:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with open(path) as f:
        cp.read_file(f)
    meta = {k: float(v) for k, v in cp["meta"].items()}
    rows = sorted(
        (int(name.split()[1]), cp[name]) for name in cp.sections() if name.startswith("client ")
    )
    require([n for n, _ in rows] == list(range(len(rows))), f"{path}: client indices not contiguous")
    col = lambda key: np.array([float(sec[key]) for _, sec in rows])  # noqa: E731
    d = col("d")
    pop = {"d": d, "a": d / d.sum(), "G": col("G"), "c": col("c"), "v": col("v"),
           "q_max": col("q_max"), "meta": meta}
    pop["k"] = meta["alpha"] / meta["rounds"] * pop["a"] ** 2 * pop["G"] ** 2
    return pop


def read_manifest(path: str) -> dict:
    with open(path) as f:
        m = json.load(f)
    clients = sorted(m["clients"], key=lambda c: c["n"])
    require([c["n"] for c in clients] == list(range(len(clients))), f"{path}: client indices not contiguous")
    for key in ("q", "P", "payment"):
        m[key] = np.array([float(c[key]) for c in clients])
    m["interior"] = np.array([bool(c["interior"]) for c in clients])
    return m


def best_response(price: np.ndarray, pop: dict) -> np.ndarray:
    """Maximizer of P q - c q^2 - v k / q on (0, q_max], by vectorised bisection.

    The first-order residual P + v k / q^2 - 2 c q falls strictly in q, so
    the maximizer is its root, or q_max when the residual is still positive
    there; with v = 0 it is clip(P / 2c, 0, q_max).
    """
    c, v, k, cap = pop["c"], pop["v"], pop["k"], pop["q_max"]
    lo, hi = np.zeros_like(cap), cap.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore"):
            up = price + v * k / mid**2 - 2.0 * c * mid > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    q = 0.5 * (lo + hi)
    return np.where(v == 0.0, np.clip(price / (2.0 * c), 0.0, cap), q)


def check_budget(m: dict, budget_tol: float, name: str, caps_bind: bool = False) -> None:
    budget = float(m["budget"])
    spend = math.fsum(m["P"] * m["q"])
    tol = budget_tol * max(1.0, abs(budget)) * (1.0 + 1e-6)
    if caps_bind:
        require(spend <= budget + tol, f"{name}: caps bind but spend {spend!r} exceeds budget {budget!r}")
    else:
        require(abs(spend - budget) <= tol,
                f"{name}: spend {spend!r} misses budget {budget!r} by more than {tol:.3g}")
    require(np.allclose(m["payment"], m["P"] * m["q"], rtol=REL_TOL, atol=0.0),
            f"{name}: payment != P q")
    return spend


def check_optimal(pop: dict, m: dict, budget_tol: float) -> dict:
    """KKT identities, inverse prices and the sign threshold of the optimal scheme."""
    floor = pop["meta"]["q_floor"]
    q, price, lam = m["q"], m["P"], float(m["lambda_star"])
    c, v, k, cap = pop["c"], pop["v"], pop["k"], pop["q_max"]
    require(np.all((q >= floor) & (q <= cap)), "optimal: q outside [q_floor, q_max]")
    check_budget(m, budget_tol, "optimal", caps_bind=bool(m["diagnostics"].get("caps_binding")))

    interior = (q > floor + INTERIOR_EPS) & (q < cap - INTERIOR_EPS)
    require(np.array_equal(interior, m["interior"]), "optimal: interior flags disagree with q")
    theta = 4.0 * c * q**3 / k + v        # = (4R/alpha) c q^3 / (a^2 G^2) + v
    require(np.allclose(theta[interior], 1.0 / lam, rtol=REL_TOL, atol=0.0),
            "optimal: interior clients violate (4R/alpha) c q^3/(a^2 G^2) + v = 1/lambda")
    inverse = 2.0 * c * q - v * k / q**2
    scale = 2.0 * c * q + v * k / q**2
    require(np.all(np.abs(price - inverse) <= REL_TOL * scale),
            "optimal: P != 2 c q - v (alpha/R) a^2 G^2 / q^2")

    threshold = 1.0 / (3.0 * lam)
    require(math.isclose(float(m["v_threshold"]), threshold, rel_tol=1e-12),
            "optimal: v_threshold != 1/(3 lambda)")
    clear = interior & (np.abs(v - threshold) > REL_TOL * threshold)
    require(np.array_equal((price < 0.0)[clear], (v > threshold)[clear]),
            "optimal: price sign disagrees with v > 1/(3 lambda)")
    at_floor = np.abs(q - floor) <= INTERIOR_EPS
    at_cap = np.abs(q - cap) <= INTERIOR_EPS
    require(np.all(interior | at_floor | at_cap), "optimal: a non-interior client is off its box bound")
    return {"floor": int(np.sum(at_floor & ~interior)), "interior": int(np.sum(interior)),
            "cap": int(np.sum(at_cap & ~interior)), "negative_price": int(np.sum(price < 0.0))}


def check_baseline(pop: dict, m: dict, scheme: str, budget_tol: float) -> None:
    """One price (uniform) or prices proportional to d (weighted); best responses; spend."""
    price = m["P"]
    if scheme == "uniform":
        require(np.all(price == price[0]), "uniform: prices differ")
    else:
        require(np.allclose(price / pop["d"], price[0] / pop["d"][0], rtol=1e-12, atol=0.0),
                "weighted: prices not proportional to datasize")
    require(np.all(price >= 0.0), f"{scheme}: negative baseline price")
    gap = np.abs(m["q"] - best_response(price, pop))
    worst = int(np.argmax(gap))
    require(gap[worst] <= Q_TOL, f"{scheme}: client {worst} q={float(m['q'][worst])!r} is not its best "
                                 f"response (off by {gap[worst]:.3g})")
    check_budget(m, budget_tol, scheme)


def check_equilibria(run_dir: str, budget_tol: float) -> dict:
    pop = read_population(os.path.join(run_dir, "population.ini"))
    mix = {}
    for scheme in SCHEMES:
        m = read_manifest(os.path.join(run_dir, f"equilibrium_{scheme}.json"))
        require(m["scheme"] == scheme and len(m["q"]) == len(pop["d"]),
                f"{scheme}: manifest does not match the population")
        if scheme == "optimal":
            mix = check_optimal(pop, m, budget_tol)
        else:
            check_baseline(pop, m, scheme, budget_tol)
    mix["v_zero"] = int(np.sum(pop["v"] == 0.0))
    mix["q_max_below_1"] = int(np.sum(pop["q_max"] < 1.0))
    return mix


def check_regime_mix(mix: dict) -> None:
    for key in ("floor", "interior", "cap", "negative_price", "v_zero", "q_max_below_1"):
        require(mix.get(key, 0) > 0, f"market: no client in regime {key!r} ({mix})")


def check_metrics_csv(path: str, rounds: int, eval_stride: int, n_classes: int, n_clients: int,
                      converges: bool = True) -> float:
    """Rounds, finite losses, accuracy in [0, 1]; with ``converges``, a final
    loss below ln(C), the loss of the all-zero starting model."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    expected = [r for r in range(rounds) if (r + 1) % eval_stride == 0 or r == rounds - 1]
    require([int(r["round"]) for r in rows] == expected, f"{path}: wrong evaluated rounds")
    loss = np.array([float(r["loss"]) for r in rows])
    acc = np.array([float(r["accuracy"]) for r in rows])
    part = np.array([int(r["participants"]) for r in rows])
    require(np.all(np.isfinite(loss)), f"{path}: non-finite loss")
    require(not converges or loss[-1] < math.log(n_classes), f"{path}: final loss {loss[-1]} not below ln(C)")
    require(np.all((acc >= 0.0) & (acc <= 1.0)), f"{path}: accuracy outside [0, 1]")
    require(np.all((part >= 0) & (part <= n_clients)), f"{path}: participant count out of range")
    return float(loss[-1])


def check_report_purity(run_dir: str, scratch: str, build_report) -> None:
    """build_report over a copy of the run directory rewrites summary.json byte for byte."""
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    for name in os.listdir(run_dir):
        if name != "summary.json":
            shutil.copy(os.path.join(run_dir, name), scratch)
    build_report(scratch, write=True)
    with open(os.path.join(run_dir, "summary.json"), "rb") as f1, \
            open(os.path.join(scratch, "summary.json"), "rb") as f2:
        require(f1.read() == f2.read(), "build_report does not reproduce summary.json")
    shutil.rmtree(scratch)


def digest(run_dir: str) -> str:
    """sha256 over every output file, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(run_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(run_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()
