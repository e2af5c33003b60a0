"""Empirical estimation of the game parameters: per-client gradient bounds,
the bound coefficient alpha, and the local-optimum losses F_local behind the
intrinsic-value offsets.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import _blas
from .bound import participation_penalty
from .core import FederatedDataset, Population
from .fltrain import (
    TrainConfig,
    _aggregate,
    _augment,
    _loss_and_grad,
    _Shards,
    learning_rate_schedule,
)

GRAD_BOUND_FLOOR = 1e-6
LOCAL_OPTIMUM_TOL = 1e-7          # max |gradient| at a shard's optimum
LOCAL_OPTIMUM_MAX_ITER = 2000     # L-BFGS iterations per shard


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
    shards = _Shards(dataset.shards)
    clients = list(range(dataset.n_clients))
    w = np.zeros((dataset.n_classes, dataset.dim + 1))
    norms = np.empty((pilot_rounds, dataset.n_clients, cfg.local_steps))
    learning_rate = learning_rate_schedule(cfg, dataset)
    with _blas.one_thread():
        for r in range(pilot_rounds):
            models = np.repeat(w[None], len(clients), axis=0)
            shards.local_sgd(models, clients, [rng] * len(clients), cfg.local_steps, cfg.batch,
                             learning_rate(r), cfg.l2, norms=norms[r])
            w = _aggregate(w, models, shards.weights)   # a_n / q_n with every q_n = 1

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


def _minimize_logistic(x: np.ndarray, y: np.ndarray, shape: tuple, l2: float) -> np.ndarray:
    from scipy.optimize import minimize

    xa = _augment(x)   # once per fit, not once per evaluation

    def fun(flat):
        w = flat.reshape(shape)
        loss, grad = _loss_and_grad(w, xa, y, l2)
        return loss, grad.ravel()

    res = minimize(
        fun,
        np.zeros(shape).ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": LOCAL_OPTIMUM_MAX_ITER, "gtol": LOCAL_OPTIMUM_TOL, "ftol": 0.0},
    )
    grad_norm = float(np.max(np.abs(res.jac)))
    if grad_norm > 10.0 * LOCAL_OPTIMUM_TOL:
        raise RuntimeError(
            f"local optimizer did not converge within {LOCAL_OPTIMUM_MAX_ITER} iterations "
            f"(final gradient norm {grad_norm})"
        )
    return res.x.reshape(shape)


def local_optimum_losses(dataset: FederatedDataset, cfg: TrainConfig) -> list:
    """Global loss at each client's own-shard optimum, F_local, in client order.

    F_local enters a client's utility only through the offset
    v_n * (F_local - F(w_R)), which does not depend on q.
    """
    import scipy.optimize  # noqa: F401  (loaded before pinning, so its OpenBLAS is pinned too)

    shape = (dataset.n_classes, dataset.dim + 1)
    shards = _Shards(dataset.shards)
    with _blas.one_thread():
        return [shards.loss(_minimize_logistic(x, y, shape, cfg.l2), cfg.l2)
                for x, y in dataset.shards]
