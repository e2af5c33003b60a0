import os
import subprocess
import sys

import numpy as np
import pytest

import fedpricing
from fedpricing import _blas

from fedpricing.bound import participation_penalty
from fedpricing.calibrate import (
    GRAD_BOUND_FLOOR,
    estimate_alpha,
    estimate_grad_bounds,
    local_optimum_losses,
)
from fedpricing.core import FederatedDataset, ParticipationVector, make_population
from fedpricing.data import gen_synthetic
from fedpricing.fltrain import TrainConfig, global_loss, loss_and_grad

import oracles


def tiny_dataset(seed=0):
    return gen_synthetic(n_clients=3, dim=5, n_classes=3, total_samples=90, seed=seed)


def pilot_cfg(**kwargs):
    defaults = dict(local_steps=3, batch=8, rounds=5, seed=0, eta0=0.1, decay=0.99)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------- gradient bounds


def test_grad_bounds_positive_and_deterministic():
    ds = tiny_dataset()
    cfg = pilot_cfg()
    g1 = estimate_grad_bounds(ds, cfg, pilot_rounds=2, seed=3)
    g2 = estimate_grad_bounds(ds, cfg, pilot_rounds=2, seed=3)
    assert g1 == g2
    assert len(g1) == 3
    assert all(g > 0 for g in g1)


def test_grad_bounds_rejects_zero_pilot_rounds():
    with pytest.raises(ValueError, match="pilot_rounds"):
        estimate_grad_bounds(tiny_dataset(), pilot_cfg(), pilot_rounds=0)


def test_grad_bounds_follow_the_theoretical_schedule():
    # Under the theoretical schedule eta0 and decay play no part, so the pilot
    # trajectory, and with it every bound, must not move when they change.
    ds = tiny_dataset()
    base = estimate_grad_bounds(ds, pilot_cfg(lr_schedule="theoretical"), pilot_rounds=3, seed=1)
    other = estimate_grad_bounds(ds, pilot_cfg(lr_schedule="theoretical", eta0=5.0, decay=0.5),
                                 pilot_rounds=3, seed=1)
    exponential = estimate_grad_bounds(ds, pilot_cfg(), pilot_rounds=3, seed=1)
    assert other == base
    assert exponential != base


@pytest.mark.parametrize("batch", [None, 1, 8])
@pytest.mark.parametrize("schedule", ["exponential", "theoretical"])
def test_grad_bounds_equal_the_per_client_pilot(batch, schedule):
    ds = tiny_dataset(seed=4)
    cfg = pilot_cfg(batch=batch, lr_schedule=schedule)
    with _blas.one_thread():
        norms = oracles.pilot_gradient_norms(ds, cfg, pilot_rounds=3, seed=5)
    assert estimate_grad_bounds(ds, cfg, pilot_rounds=3, seed=5) == [max(v) for v in norms]


def test_grad_bounds_floor_on_degenerate_data():
    # One-class shards with zero features: the gradient vanishes immediately
    # except for the label-offset term... use identical constant labels and
    # all-zero weights so only the softmax-vs-onehot term remains; with a
    # single class the model is already optimal and gradients are ~0.
    x = np.zeros((10, 2))
    y = np.zeros(10, dtype=np.int64)
    ds = FederatedDataset(
        shards=((x, y),), test_features=np.zeros((0, 2)),
        test_labels=np.zeros((0,), dtype=np.int64), n_classes=1, dim=2,
    )
    with pytest.warns(UserWarning, match="degenerate"):
        bounds = estimate_grad_bounds(ds, pilot_cfg(l2=0.0), pilot_rounds=1)
    assert bounds == [GRAD_BOUND_FLOOR]


# ---------------------------------------------------------------- alpha regression


def test_estimate_alpha_recovers_planted_slope():
    rng = np.random.default_rng(0)
    profiles = make_population([3, 2, 1], [1.0, 2.0, 0.5], [1, 1, 1], [0, 0, 0], [1, 1, 1])
    rounds = 50
    true_alpha = 2.5
    base = 0.7
    q_vectors, losses = [], []
    for _ in range(8):
        q = ParticipationVector(rng.uniform(0.2, 1.0, size=3))
        q_vectors.append(q)
        losses.append(base + true_alpha * participation_penalty(q, profiles) / rounds)
    got = estimate_alpha(q_vectors, losses, profiles, rounds)
    assert got == pytest.approx(true_alpha, rel=1e-9)


def test_estimate_alpha_clamps_negative_slope():
    profiles = make_population([1, 1], [1.0, 1.0], [1, 1], [0, 0], [1, 1])
    qs = [ParticipationVector([0.2, 0.2]), ParticipationVector([1.0, 1.0])]
    # Loss *increases* with participation here: slope would be negative.
    losses = [0.5, 1.5]
    assert estimate_alpha(qs, losses, profiles, rounds=10) == 0.0


def test_estimate_alpha_rejects_degenerate_design():
    profiles = make_population([1], [1.0], [1], [0], [1])
    qs = [ParticipationVector([0.5]), ParticipationVector([0.5])]
    with pytest.raises(ValueError, match="ill-conditioned"):
        estimate_alpha(qs, [1.0, 2.0], profiles, rounds=10)


def test_estimate_alpha_needs_two_runs():
    profiles = make_population([1], [1.0], [1], [0], [1])
    with pytest.raises(ValueError, match="two"):
        estimate_alpha([ParticipationVector([0.5])], [1.0], profiles, rounds=10)


# ---------------------------------------------------------------- local optima


def test_local_optimum_losses_ordering():
    ds = tiny_dataset(seed=4)
    cfg = pilot_cfg(l2=1e-3)
    f_locals = local_optimum_losses(ds, cfg)
    assert len(f_locals) == ds.n_clients
    # No single-shard optimum beats the pooled optimum on the global loss,
    # which the pooled fit minimizes directly.
    f_pooled = oracles.pooled_optimum_loss(ds, cfg.l2)
    assert all(f_loc >= f_pooled - 1e-9 for f_loc in f_locals)


def test_local_optimum_losses_are_global_losses():
    ds = tiny_dataset(seed=5)
    cfg = pilot_cfg(l2=1e-3)
    f_locals = local_optimum_losses(ds, cfg)
    # Rough sanity: finite, positive, and on a plausible cross-entropy scale.
    # Single-shard optima can be arbitrarily bad on other shards under strong
    # heterogeneity, so only a loose upper bound applies.
    assert all(0.0 < f < 1e4 and np.isfinite(f) for f in f_locals)


def test_importing_the_pipeline_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedpricing.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fedpricing.experiment; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
