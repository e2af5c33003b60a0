"""Empirical estimation of the game parameters: per-client gradient bounds,
the bound coefficient alpha, and the local-optimum losses F_local behind the
intrinsic-value offsets.
"""

from __future__ import annotations

import collections
import math
import warnings

import numpy as np

from . import _blas, fltrain
from .bound import participation_penalty
from .core import FederatedDataset, Population
from .fltrain import TrainConfig, _aggregate, _local_sgd, _Step, learning_rate_schedule

GRAD_BOUND_FLOOR = 1e-6
LOCAL_OPTIMUM_TOL = 1e-7          # max |gradient| at a shard's optimum
LOCAL_OPTIMUM_MAX_ITER = 2000     # L-BFGS iterations per shard
_PAIRS = 10                       # L-BFGS correction pairs kept
_ARMIJO = 1e-4                    # sufficient-decrease constant of the line search
_MAX_BACKTRACKS = 30              # trial steps per line search


def estimate_grad_bounds(
    dataset: FederatedDataset,
    cfg: TrainConfig,
    pilot_rounds: int,
    seed: int = 0,
) -> list:
    """Per-client bound on the stochastic gradient norm from a full-participation pilot.

    Runs ``pilot_rounds`` rounds with every client active, under cfg's
    learning-rate schedule, records each local minibatch gradient norm along
    the update trajectory, and reports the maximum per client.
    """
    if pilot_rounds < 1:
        raise ValueError(f"pilot_rounds must be >= 1, got {pilot_rounds}")
    rng = np.random.default_rng(seed)
    clients = list(range(dataset.n_clients))
    w = np.zeros((dataset.n_classes, dataset.dim + 1))
    norms = np.empty((pilot_rounds, dataset.n_clients, cfg.local_steps))
    learning_rate = learning_rate_schedule(cfg, dataset)
    with _blas.one_thread():
        for r in range(pilot_rounds):
            models = np.repeat(w[None], len(clients), axis=0)
            _local_sgd(dataset, models, clients, [rng] * len(clients), cfg.local_steps,
                       cfg.batch, learning_rate(r), cfg.l2, norms=norms[r])
            w = _aggregate(w, models, dataset.weights)   # a_n / q_n with every q_n = 1

    bounds = []
    for n, g in enumerate(norms.max(axis=(0, 2)).tolist()):
        if g < GRAD_BOUND_FLOOR:
            warnings.warn(
                f"client {n}: observed gradient norms are degenerate; flooring the "
                f"bound at {GRAD_BOUND_FLOOR}"
            )
            g = GRAD_BOUND_FLOOR
        bounds.append(g)
    return bounds


def estimate_alpha(
    q_vectors: list,
    final_losses: list,
    population: Population,
    rounds: int,
) -> float:
    """Fit the bound coefficient from pilot losses at distinct participation vectors.

    Least squares of loss differences against differences of the per-round
    participation penalty sum(1 - q_n) a_n^2 G_n^2 / q_n / R, over all run
    pairs. The fitted slope is clamped to be nonnegative.
    """
    if len(q_vectors) < 2 or len(q_vectors) != len(final_losses):
        raise ValueError("need matched losses for at least two participation settings")
    xs = np.array([participation_penalty(q, population) / rounds for q in q_vectors])
    ys = np.array(final_losses, dtype=float)
    dx, dy = [], []
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dx.append(xs[i] - xs[j])
            dy.append(ys[i] - ys[j])
    dx = np.array(dx)
    dy = np.array(dy)
    denom = float(np.sum(dx * dx))
    if denom < 1e-12 * max(1.0, float(np.max(np.abs(xs))) ** 2):
        raise ValueError("participation settings are too similar: regression ill-conditioned")
    return max(0.0, float(np.sum(dx * dy) / denom))


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS direction -H g, with H built from the correction pairs
    (s, y, 1/(s·y)) oldest first, and scaled by s·y/(y·y) of the newest."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.vdot(s, q)
        q -= a * y
        alphas.append(a)
    _, y, rho = pairs[-1]
    q /= rho * np.vdot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * np.vdot(y, q)) * s
    return -q


def _backtrack(t: float, f0: float, slope0: float, f1: float, slope1: float) -> float:
    """The next trial step once step t failed: the minimizer of the cubic through
    the loss and its slope at 0 and at t (Nocedal & Wright, eq. 3.59), clipped
    to [0.1t, 0.5t]. Python floats, so that no case raises a numpy warning."""
    d1 = slope0 + slope1 - 3.0 * (f1 - f0) / t
    d2 = math.sqrt(max(d1 * d1 - slope0 * slope1, 0.0))
    den = slope1 - slope0 + 2.0 * d2
    step = t - t * (slope1 + d2 - d1) / den if den > 0.0 else 0.5 * t
    return min(step, 0.5 * t) if step > 0.1 * t else 0.1 * t


def _minimize_logistic(xa: np.ndarray, y: np.ndarray, shape: tuple, l2: float) -> np.ndarray:
    """Weights of ``shape`` at the optimum of the regularized cross-entropy on
    the rows ``xa``, which carry the bias column, and labels ``y``.

    Limited-memory BFGS (Liu & Nocedal 1989) from zero weights, keeping the
    last ``_PAIRS`` corrections. The line search backtracks (``_backtrack``)
    until the step decreases the loss sufficiently (Armijo), or reaches a
    point whose largest gradient entry is at most ``LOCAL_OPTIMUM_TOL``, or,
    where roundoff hides the decrease near the optimum, does not raise the
    loss and lowers that entry. Stops once the entry is at most the tolerance;
    raises if it is still above ten times that.
    """
    w = np.zeros(shape)
    step = _Step(w[None], len(y))
    f, g = step.loss_and_grad(w, xa, y, l2)
    pairs = collections.deque(maxlen=_PAIRS)
    for _ in range(LOCAL_OPTIMUM_MAX_ITER):
        g_max = np.max(np.abs(g))
        if g_max <= LOCAL_OPTIMUM_TOL:
            break
        d = _two_loop(g, pairs) if pairs else -g
        slope = np.vdot(g, d)
        if not slope < 0.0:   # not a descent direction: restart from steepest descent
            pairs.clear()
            d, slope = -g, -np.vdot(g, g)
        t = 1.0 if pairs else 1.0 / max(1.0, math.sqrt(-slope))
        for _ in range(_MAX_BACKTRACKS):
            w_new = w + t * d
            f_new, g_new = step.loss_and_grad(w_new, xa, y, l2)
            g_max_new = np.max(np.abs(g_new))
            if (f_new <= f + _ARMIJO * t * slope or g_max_new <= LOCAL_OPTIMUM_TOL
                    or f_new <= f and g_max_new < g_max):
                break
            t = _backtrack(t, float(f), float(slope), float(f_new), float(np.vdot(g_new, d)))
        else:
            break   # no acceptable step: the gradient check below decides
        s, dg = w_new - w, g_new - g
        sy = np.vdot(s, dg)
        if sy > 1e-12 * np.vdot(dg, dg):
            pairs.append((s, dg, 1.0 / sy))
        w, f, g = w_new, f_new, g_new
    grad_norm = float(np.max(np.abs(g)))
    if grad_norm > 10.0 * LOCAL_OPTIMUM_TOL:
        raise RuntimeError(
            f"local optimizer did not converge within {LOCAL_OPTIMUM_MAX_ITER} iterations "
            f"(final gradient norm {grad_norm})"
        )
    return w


def local_optimum_losses(dataset: FederatedDataset, cfg: TrainConfig) -> list:
    """Global loss at each client's own-shard optimum, F_local, in client order.

    F_local enters a client's utility only through the offset
    v_n * (F_local - F(w_R)), which does not depend on q.
    """
    shape = (dataset.n_classes, dataset.dim + 1)
    x, y = dataset.features, dataset.labels
    with _blas.one_thread():
        return [fltrain.global_loss(_minimize_logistic(x[rows], y[rows], shape, cfg.l2),
                                    dataset, cfg.l2)
                for rows in dataset.client_rows]
