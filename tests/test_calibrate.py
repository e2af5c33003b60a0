import os
import subprocess
import sys

import numpy as np
import pytest

import fedpricing
from fedpricing import _blas, calibrate

from fedpricing.bound import participation_penalty
from fedpricing.calibrate import (
    GRAD_BOUND_FLOOR,
    estimate_alpha,
    estimate_grad_bounds,
    local_optimum_losses,
)
from fedpricing.core import FederatedDataset, make_population
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
    ds = FederatedDataset.from_shards(
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
        q = rng.uniform(0.2, 1.0, size=3)
        q_vectors.append(q)
        losses.append(base + true_alpha * participation_penalty(q, profiles) / rounds)
    got = estimate_alpha(q_vectors, losses, profiles, rounds)
    assert got == pytest.approx(true_alpha, rel=1e-9)


def test_estimate_alpha_clamps_negative_slope():
    profiles = make_population([1, 1], [1.0, 1.0], [1, 1], [0, 0], [1, 1])
    qs = [[0.2, 0.2], [1.0, 1.0]]
    # Loss *increases* with participation here: slope would be negative.
    losses = [0.5, 1.5]
    assert estimate_alpha(qs, losses, profiles, rounds=10) == 0.0


def test_estimate_alpha_rejects_degenerate_design():
    profiles = make_population([1], [1.0], [1], [0], [1])
    qs = [[0.5], [0.5]]
    with pytest.raises(ValueError, match="ill-conditioned"):
        estimate_alpha(qs, [1.0, 2.0], profiles, rounds=10)


def test_estimate_alpha_needs_two_runs():
    profiles = make_population([1], [1.0], [1], [0], [1])
    with pytest.raises(ValueError, match="two"):
        estimate_alpha([[0.5]], [1.0], profiles, rounds=10)


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


def test_a_fit_that_runs_out_of_iterations_raises(monkeypatch):
    monkeypatch.setattr(calibrate, "LOCAL_OPTIMUM_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match=r"^local optimizer did not converge within 1 "
                                           r"iterations \(final gradient norm \d"):
        local_optimum_losses(tiny_dataset(seed=4), pilot_cfg(l2=1e-3))


def package_env():
    """The environment of a Python subprocess that imports this fedpricing."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedpricing.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_importing_the_pipeline_leaves_scipy_optimize_unloaded():
    code = "import sys, fedpricing.experiment; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=package_env())


# Generate, train and solve as the benchmark's fleet and market do: no step
# reads or writes YAML, so none may load PyYAML.
RUN_WITHOUT_YAML = """
import sys
from fedpricing import core, data, experiment, fltrain, formats

ds = data.gen_synthetic(n_clients=3, dim=5, n_classes=3, total_samples=90, seed=0)
fltrain.train(ds, fltrain.TrainConfig(rounds=2, local_steps=2, batch=8, participation=[0.5] * 3))
population = core.make_population(ds.datasizes, [1.0] * 3, [5.0] * 3, [0.0] * 3, [1.0] * 3)
constants = core.GameConstants(alpha=1.0, beta=0.0, rounds=10, local_steps=2)
for scheme in formats.SCHEMES:
    experiment.solve_scheme(scheme, population, constants, 1.0)
print(*sorted(name for name in sys.modules if name.partition(".")[0] == "yaml"))
"""


def test_generating_training_and_solving_load_no_yaml():
    done = subprocess.run([sys.executable, "-c", RUN_WITHOUT_YAML], check=True,
                          env=package_env(), capture_output=True, text=True)
    assert done.stdout == "\n"


# `fedpricing solve` from a population file, without --config, as the CLI
# runs it: reading the population file loads no configparser, and the CLI's
# error handler names no PyYAML class, so neither module may load.
SOLVE_WITHOUT_YAML = """
import contextlib, io, os, sys, tempfile
from fedpricing import cli, core, formats

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "population.ini")
    population = core.make_population([4, 2], [1.0, 2.0], [2.0, 1.0], [0.1, 0.0], [1.0, 1.0])
    formats.write_population(path, population, meta={"alpha": 1.0, "beta": 0.0, "rounds": 10.0,
                                                     "local_steps": 2.0, "q_floor": 0.01})
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", "--population", path, "--out", os.path.join(tmp, "solve")])
    assert code == 0, code
print(*sorted(name for name in sys.modules
              if name.partition(".")[0] in ("yaml", "configparser")))
"""


def test_solving_from_a_population_file_loads_neither_yaml_nor_configparser():
    done = subprocess.run([sys.executable, "-c", SOLVE_WITHOUT_YAML], check=True,
                          env=package_env(), capture_output=True, text=True)
    assert done.stdout == "\n"


# A whole run_experiment on a tiny config, with the local optima fitted in a
# forked helper or in process as argv[1] says. The fit prints where it ran and
# the scipy modules loaded there; the run prints those loaded at its end.
RUN_WITHOUT_SCIPY = """
import os, sys
from fedpricing import _fork, experiment

parent, fit = os.getpid(), experiment.local_optimum_losses

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

def traced_fit(*args):
    f_locals = fit(*args)
    print("fit in", "parent" if os.getpid() == parent else "helper", *scipy_modules(), flush=True)
    return f_locals

experiment.local_optimum_losses = traced_fit
_fork.second_cpu = lambda: sys.argv[1] == "helper"
cfg = experiment.build_config(overrides={
    "n_clients": 3, "dim": 5, "classes": 3, "total_samples": 90, "rounds": 8,
    "local_steps": 2, "batch": 8, "repeats": 1, "pilot_rounds": 2, "alpha_pilot_seeds": 1,
    "budget": 20.0, "mean_cost": 5.0, "mean_value": 1.0, "eval_stride": 2})
experiment.run_experiment(cfg, sys.argv[2])
print("end", *scipy_modules())
"""


@pytest.mark.parametrize("where", [
    "parent",
    pytest.param("helper", marks=pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="the local-optimum helper is forked on Linux only")),
])
def test_a_pipeline_run_loads_no_scipy(tmp_path, where):
    done = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, where, str(tmp_path / "run")],
                          check=True, env=package_env(), capture_output=True, text=True)
    assert done.stdout.splitlines() == [f"fit in {where}", "end"]
