import json
import math
import multiprocessing
import os
import sys
import threading

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpricing import _blas, _fork, calibrate
from fedpricing import experiment as exp
from fedpricing.calibrate import estimate_alpha
from fedpricing.core import GameConstants, make_population
from fedpricing.experiment import (
    PRESETS,
    SCHEMES,
    build_config,
    build_report,
    calibrate_population,
    format_report,
    generate_dataset,
    rounds_to_target,
    run_experiment,
    solve_scheme,
    train_config,
)

import oracles


def fast_config(**overrides):
    base = {
        "n_clients": 3,
        "dim": 5,
        "classes": 3,
        "total_samples": 90,
        "rounds": 8,
        "local_steps": 2,
        "batch": 8,
        "repeats": 2,
        "pilot_rounds": 2,
        "alpha_pilot_seeds": 1,
        "budget": 20.0,
        "mean_cost": 5.0,
        "mean_value": 1.0,
        "eval_stride": 2,
    }
    base.update(overrides)
    return build_config(overrides=base)


def test_build_config_layering(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("rounds: 77\nbudget: 9.5\n")
    cfg = build_config("desk", str(cfg_file), {"budget": 11.0, "seed": None})
    assert cfg["n_clients"] == PRESETS["desk"]["n_clients"]  # from preset
    assert cfg["rounds"] == 77                               # file beats preset
    assert cfg["budget"] == 11.0                             # override beats file
    assert cfg["seed"] == 100                                # None override ignored


def test_build_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("no_such_knob: 1\n")
    with pytest.raises(ValueError, match="no_such_knob"):
        build_config(None, str(cfg_file))
    with pytest.raises(ValueError, match="preset"):
        build_config("setup9")


def test_generate_dataset_synthetic_shape():
    cfg = fast_config()
    ds = generate_dataset(cfg)
    assert ds.n_clients == 3
    assert ds.dim == 5
    assert sum(len(x) for x, _ in ds.shards) == 90


def test_calibrate_population_produces_valid_game():
    cfg = fast_config()
    ds = generate_dataset(cfg)
    profiles, constants, f_locals = calibrate_population(ds, cfg)
    assert len(profiles) == 3
    assert constants.alpha > 0
    assert constants.rounds == cfg["rounds"]
    assert len(f_locals) == 3
    assert all(math.isfinite(f) for f in f_locals)
    assert all(p.grad_bound > 0 and p.cost_coeff > 0 for p in profiles)


def test_calibrate_population_alpha_equals_pilots_run_one_by_one():
    cfg = build_config("desk", overrides={"rounds": 30, "pilot_rounds": 2, "alpha_pilot_seeds": 2})
    ds = generate_dataset(cfg)
    profiles, constants, _ = calibrate_population(ds, cfg)
    n = ds.n_clients
    q_vectors, losses = [], []
    for s in range(cfg["alpha_pilot_seeds"]):
        for q in ([1.0] * n, [cfg["alpha_pilot_q"]] * n):
            with _blas.one_thread():
                metrics = oracles.train(ds, train_config(cfg, seed=cfg["data_seed"] + 1000 + s, q=q),
                                        profiles)
            q_vectors.append(q)
            losses.append(metrics[-1].loss)
    expected = max(estimate_alpha(q_vectors, losses, profiles, cfg["rounds"]), cfg["alpha_floor"])
    assert expected > cfg["alpha_floor"]
    assert constants.alpha == expected


# ---------------------------------------------------------------- local optima in a forked helper

LINUX = sys.platform.startswith("linux")
linux_only = pytest.mark.skipif(not LINUX, reason="the local-optimum helper is forked on Linux only")


def count_process_starts(mp):
    starts = []
    real = multiprocessing.process.BaseProcess.start
    mp.setattr(multiprocessing.process.BaseProcess, "start",
               lambda self: starts.append(self.name) or real(self))
    return starts


def calibrated(ds, cfg):
    """calibrate_population's outputs, as text that is equal only when every bit is."""
    population, constants, f_locals = calibrate_population(ds, cfg)
    return repr(([col.tolist() for col in population.columns], constants, f_locals))


@linux_only
@settings(max_examples=5, deadline=None)
@given(data_seed=st.integers(0, 2**16), n_clients=st.integers(2, 4),
       total_samples=st.integers(40, 90), l2=st.sampled_from([1e-4, 1e-2]))
def test_forked_local_optima_equal_the_in_process_ones_bit_for_bit(data_seed, n_clients,
                                                                    total_samples, l2):
    cfg = fast_config(data_seed=data_seed, n_clients=n_clients, total_samples=total_samples,
                      l2=l2, mean_value=3.0)
    ds = generate_dataset(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "second_cpu", lambda: False)
        starts = count_process_starts(mp)
        inline = calibrated(ds, cfg)
    assert starts == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "second_cpu", lambda: True)
        starts = count_process_starts(mp)
        forked = calibrated(ds, cfg)
    assert starts == ["fedpricing-optima"]
    assert multiprocessing.active_children() == []
    assert forked == inline


def pretend_two_cpus(mp):
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@linux_only
def test_a_fit_error_in_the_helper_is_raised_in_the_parent(monkeypatch):
    pretend_two_cpus(monkeypatch)
    parent = os.getpid()

    def fail(*args):
        raise ValueError(f"no fit in process {'parent' if os.getpid() == parent else 'helper'}")

    monkeypatch.setattr(calibrate, "_minimize_logistic", fail)
    cfg = fast_config()
    with pytest.raises(RuntimeError,
                       match="local-optimum helper failed: ValueError: no fit in process helper"):
        calibrate_population(generate_dataset(cfg), cfg)
    assert multiprocessing.active_children() == []


@linux_only
def test_a_local_optimum_helper_that_dies_is_reported_with_its_exit_code(monkeypatch):
    pretend_two_cpus(monkeypatch)
    parent = os.getpid()

    def die(*args):
        if os.getpid() == parent:
            raise AssertionError("fitted in the parent")
        os._exit(7)

    monkeypatch.setattr(calibrate, "_minimize_logistic", die)
    cfg = fast_config()
    with pytest.raises(RuntimeError, match="local-optimum helper exited with code 7"):
        calibrate_population(generate_dataset(cfg), cfg)
    assert multiprocessing.active_children() == []


@linux_only
def test_a_pilot_error_stops_and_reaps_the_helper(monkeypatch):
    pretend_two_cpus(monkeypatch)
    starts = count_process_starts(monkeypatch)

    def fail(dataset, cfgs):
        raise ValueError("no pilots")

    monkeypatch.setattr(exp, "train_runs", fail)
    cfg = fast_config()
    with pytest.raises(ValueError, match="no pilots"):
        calibrate_population(generate_dataset(cfg), cfg)
    assert starts == ["fedpricing-optima"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("why", ["one CPU", "a second thread"])
def test_no_local_optimum_helper_on_one_cpu_or_beside_a_second_thread(monkeypatch, why):
    cfg = fast_config()
    ds = generate_dataset(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "second_cpu", lambda: False)
        inline = calibrated(ds, cfg)
    cpus = {0} if why == "one CPU" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    starts = count_process_starts(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if why == "a second thread":
        thread.start()
    try:
        got = calibrated(ds, cfg)
    finally:
        done.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert starts == []
    assert got == inline


def test_solve_scheme_all_schemes_and_unknown():
    profiles = make_population([4, 2, 1], [1.0, 2.0, 1.5], [2.0, 1.0, 3.0],
                               [0.1, 0.0, 0.2], [1.0, 1.0, 1.0])
    constants = GameConstants(alpha=2.0, beta=0.0, rounds=20, local_steps=5)
    for scheme in SCHEMES:
        result = solve_scheme(scheme, profiles, constants, budget=3.0)
        assert result.spend <= 3.0 + 1e-6
        assert len(result.q_star) == 3
    with pytest.raises(ValueError, match="pricebot"):
        solve_scheme("pricebot", profiles, constants, budget=3.0)


def test_rounds_to_target():
    rows = [
        {"round": 0, "loss": 2.0, "sim_time": 1.0},
        {"round": 2, "loss": 1.0, "sim_time": 3.0},
        {"round": 4, "loss": 0.5, "sim_time": 5.0},
    ]
    assert rounds_to_target(rows, 1.0) == (2, 3.0)
    assert rounds_to_target(rows, 0.1) == (None, None)


def test_run_experiment_artifacts_and_report(tmp_path):
    cfg = fast_config()
    out = str(tmp_path / "run")
    summary = run_experiment(cfg, out)

    for name in ["config.yaml", "dataset.bin", "population.ini", "summary.json"]:
        assert os.path.exists(os.path.join(out, name)), name
    for scheme in SCHEMES:
        assert os.path.exists(os.path.join(out, f"equilibrium_{scheme}.json"))
        for k in range(cfg["repeats"]):
            seed = cfg["seed"] + k
            assert os.path.exists(os.path.join(out, f"metrics_{scheme}_seed{seed}.csv"))

    assert set(summary["mean_final_loss"]) == set(SCHEMES)
    assert set(summary["total_client_utility"]) == set(SCHEMES)
    assert all(v >= 0 for v in summary["negative_payment_clients"].values())

    # The written summary matches a recomputation from the artifacts alone.
    recomputed = build_report(out)
    with open(os.path.join(out, "summary.json")) as f:
        on_disk = json.load(f)
    assert json.loads(json.dumps(recomputed)) == on_disk

    # And the config snapshot reproduces the run configuration.
    with open(os.path.join(out, "config.yaml")) as f:
        saved_cfg = yaml.safe_load(f)
    assert saved_cfg == cfg

    text = format_report(summary)
    assert "target loss" in text
    for scheme in SCHEMES:
        assert scheme in text


def test_build_report_skips_stray_metrics_names(tmp_path):
    cfg = fast_config()
    out = str(tmp_path / "run")
    summary = run_experiment(cfg, out)
    (tmp_path / "run" / "metrics_x_seedfoo.csv").write_text("not a metrics file\n")
    assert build_report(out) == summary


def test_build_report_without_metrics_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="metrics"):
        build_report(str(tmp_path))
