"""Empirical estimation of the game parameters: per-client gradient bounds,
the bound coefficient alpha, and the local-optimum losses behind the
intrinsic-value offsets.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import minimize

from .bound import participation_penalty
from .core import FederatedDataset, ParticipationVector
from .fltrain import TrainConfig, aggregate, global_loss, learning_rate_schedule, loss_and_grad

GRAD_BOUND_FLOOR = 1e-6


def estimate_grad_bounds(
    dataset: FederatedDataset,
    cfg: TrainConfig,
    pilot_rounds: int,
    seed: int = 0,
    quantile: float | None = None,
) -> list:
    """Per-client bound on the stochastic gradient norm from a full-participation pilot.

    Runs ``pilot_rounds`` rounds with every client active, under cfg's
    learning-rate schedule, records each local minibatch gradient norm along
    the update trajectory, and reports the maximum per client (or an
    optional quantile, for robustness to outliers).
    """
    if pilot_rounds < 1:
        raise ValueError(f"pilot_rounds must be >= 1, got {pilot_rounds}")
    rng = np.random.default_rng(seed)
    n_clients = dataset.n_clients
    total = dataset.total_samples
    weights = [len(x) / total for x, _ in dataset.shards]

    class _Prof:
        __slots__ = ("weight",)

        def __init__(self, weight):
            self.weight = weight

    profiles = [_Prof(a) for a in weights]
    q_full = ParticipationVector([1.0] * n_clients)
    w = np.zeros((dataset.n_classes, dataset.dim + 1))
    norms: list = [[] for _ in range(n_clients)]
    learning_rate = learning_rate_schedule(cfg, dataset)
    for r in range(pilot_rounds):
        lr = learning_rate(r)
        updates = {}
        for n in range(n_clients):
            x, y = dataset.shards[n]
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
        w = aggregate(w, updates, q_full, profiles)

    bounds = []
    for n in range(n_clients):
        values = norms[n]
        g = float(np.quantile(values, quantile)) if quantile is not None else max(values)
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
    profiles: list,
    rounds: int,
) -> float:
    """Fit the bound coefficient from pilot losses at distinct participation vectors.

    Least squares of loss differences against differences of the per-round
    participation penalty sum(1 - q_n) a_n^2 G_n^2 / q_n / R, over all run
    pairs. The fitted slope is clamped to be nonnegative.
    """
    if len(q_vectors) < 2 or len(q_vectors) != len(final_losses):
        raise ValueError("need matched losses for at least two participation settings")
    xs = np.array([participation_penalty(q, profiles) / rounds for q in q_vectors])
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


def _minimize_logistic(x: np.ndarray, y: np.ndarray, shape: tuple, l2: float,
                       tol: float, max_iter: int) -> np.ndarray:
    def fun(flat):
        w = flat.reshape(shape)
        loss, grad = loss_and_grad(w, x, y, l2)
        return loss, grad.ravel()

    res = minimize(
        fun,
        np.zeros(shape).ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": tol, "ftol": 0.0},
    )
    grad_norm = float(np.max(np.abs(res.jac)))
    if grad_norm > 10.0 * tol:
        raise RuntimeError(
            f"local optimizer did not converge within {max_iter} iterations "
            f"(final gradient norm {grad_norm})"
        )
    return res.x.reshape(shape)


def local_optimum_losses(
    dataset: FederatedDataset,
    cfg: TrainConfig,
    tol: float = 1e-7,
    max_iter: int = 2000,
):
    """Global loss at each client's own-shard optimum, plus a pooled-training
    proxy for the global minimum.

    Both enter utilities only through a q-independent offset; the proxy is a
    trained stand-in for the true minimum, not the minimum itself.
    """
    shape = (dataset.n_classes, dataset.dim + 1)
    f_locals = []
    for x, y in dataset.shards:
        w_star = _minimize_logistic(x, y, shape, cfg.l2, tol, max_iter)
        f_locals.append(global_loss(w_star, dataset, cfg.l2))
    px, py = dataset.pooled()
    w_pooled = _minimize_logistic(px, py, shape, cfg.l2, tol, max_iter)
    f_star = global_loss(w_pooled, dataset, cfg.l2)
    return f_locals, f_star
