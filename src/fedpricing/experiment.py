"""End-to-end experiment pipeline: data, calibration, equilibria, training, report.

Everything is driven by a flat key/value config (YAML on disk); run
directories contain a config snapshot, the dataset container, the calibrated
population, one equilibrium manifest per pricing scheme, one metrics CSV per
(scheme, seed), and a summary recomputable from those files alone. Each
stage writes its files through one ``write_*`` function here, which both
``run_experiment`` and the CLI's staged subcommands call.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import glob
import json
import math
import os
import re

import numpy as np

from . import _fork
from . import data as datamod
from .calibrate import estimate_alpha, estimate_grad_bounds, local_optimum_losses
from .core import (
    EquilibriumResult,
    FederatedDataset,
    GameConstants,
    Population,
    check_rules,
    is_finite,
    is_integer,
    make_population,
)
from .fltrain import TrainConfig, train_runs
from .formats import (
    SCHEMES,
    read_equilibrium_manifest,
    read_metrics_csv,
    read_population,
    write_equilibrium_manifest,
    write_metrics_csv,
    write_population,
)
from .game import baseline_uniform, baseline_weighted, server_solve

DEFAULT_CONFIG = {
    "setup": "custom",
    # data
    "n_clients": 10,
    "dim": 60,
    "classes": 10,
    "total_samples": 2000,
    "power_exponent": 1.5,
    "synth_alpha": 1.0,
    "synth_beta": 1.0,
    "data_seed": 1,
    "idx_images": None,
    "idx_labels": None,
    "idx_test_images": None,
    "idx_test_labels": None,
    "subsample": None,
    "classes_min": 1,
    "classes_max": 6,
    "label_filter": None,
    # economics
    "budget": 200.0,
    "mean_cost": 50.0,
    "mean_value": 4000.0,
    "economics_seed": 2,
    "q_max": 1.0,
    "q_floor": 0.01,
    # training
    "rounds": 200,
    "local_steps": 10,
    "batch": 24,
    "l2": 1e-4,
    "lr_schedule": "exponential",
    "eta0": 0.1,
    "decay": 0.996,
    "eval_stride": 1,
    "sim_t_base": 1.0,
    "sim_t_comp": 0.001,
    # calibration
    "pilot_rounds": 5,
    "alpha_pilot_seeds": 3,
    "alpha_pilot_q": 0.3,
    "alpha_floor": 1e-6,
    "beta": 0.0,
    # experiment
    "repeats": 5,
    "seed": 100,
    "target_loss": None,
}

PRESETS = {
    # setup1-3 are full-scale benchmark configurations; "desk" is the tuned
    # small configuration used by the acceptance suite.
    "setup1": {
        "setup": "1", "n_clients": 40, "dim": 60, "classes": 10,
        "total_samples": 22377, "budget": 200.0, "mean_cost": 50.0,
        "mean_value": 4000.0, "rounds": 1000, "local_steps": 100, "repeats": 20,
    },
    "setup2": {
        "setup": "2", "n_clients": 40, "subsample": 14463,
        "classes_min": 1, "classes_max": 6, "budget": 40.0,
        "mean_cost": 20.0, "mean_value": 30000.0, "rounds": 1000,
        "local_steps": 100, "repeats": 20,
    },
    "setup3": {
        "setup": "3", "n_clients": 40, "subsample": 35155,
        "classes_min": 1, "classes_max": 10, "budget": 500.0,
        "mean_cost": 80.0, "mean_value": 10000.0, "rounds": 1000,
        "local_steps": 100, "repeats": 20,
    },
    "desk": {
        "setup": "custom", "n_clients": 10, "total_samples": 2000,
        "budget": 20.0, "mean_cost": 50.0, "mean_value": 50.0,
        "economics_seed": 3, "data_seed": 1,
        "rounds": 200, "local_steps": 10, "repeats": 20, "eval_stride": 5,
    },
}


def _unique_key_loader():
    """A ``yaml.SafeLoader`` that rejects a mapping which sets a key twice."""
    import yaml

    class _UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _value_node in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # "<<: *anchor" keys may be set again
                key = self.construct_object(key_node, deep=deep)
                if not isinstance(key, collections.abc.Hashable):
                    continue  # SafeLoader rejects it, with its own message
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    return _UniqueKeyLoader


# Keys whose default is None: a test of a set value, and what it must be.
_OPTIONAL_KINDS = {
    "target_loss": (is_finite, "a finite number"),
    "subsample": (lambda v: is_integer(v) and v >= 1, "a positive integer"),
    "label_filter": (lambda v: isinstance(v, list) and all(map(is_integer, v)),
                     "a list of integers"),
    **{key: (lambda v: isinstance(v, str), "a path")
       for key in ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels")},
}


def _check_kinds(cfg: dict) -> None:
    """Each numeric key must be of its default's kind: an integer (not a bool)
    where the default is an int, a finite real (not a bool) where it is a float.
    A key whose default is None must be null or of its ``_OPTIONAL_KINDS`` kind."""
    for key, default in DEFAULT_CONFIG.items():
        value = cfg[key]
        if isinstance(default, int) and not (key == "batch" and value is None):
            if not is_integer(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        elif isinstance(default, float):
            if not is_finite(value):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        elif default is None and value is not None:
            is_kind, kind = _OPTIONAL_KINDS[key]
            if not is_kind(value):
                raise ValueError(f"{key} must be {kind} or null, got {value!r}")


def _check_ranges(cfg: dict) -> None:
    """The counts, seeds and data keys must be in range, each IDX path must
    come with its partner, the training keys must make a ``TrainConfig`` and
    the game keys a ``GameConstants``, each of which checks its ranges, and the
    economics keys must describe a population the game can solve. Each error
    names its key."""
    check_rules(cfg, (
        *((key, cfg[key] >= 1, ">= 1")
          for key in ("n_clients", "dim", "repeats", "pilot_rounds", "alpha_pilot_seeds")),
        *((key, cfg[key] >= 0, ">= 0") for key in ("seed", "data_seed", "economics_seed")),
        ("classes", cfg["classes"] >= 2, ">= 2"),
        *((key, cfg[key] >= 0.0, "nonnegative") for key in ("synth_alpha", "synth_beta")),
        ("alpha_floor", cfg["alpha_floor"] > 0.0, "positive"),
        *((key, cfg[key] or not cfg[partner], f"set with {partner}") for key, partner in (
            ("idx_labels", "idx_images"), ("idx_images", "idx_labels"),
            ("idx_test_labels", "idx_test_images"), ("idx_test_images", "idx_test_labels"))),
    ))
    train_config(cfg, seed=cfg["seed"])
    game_constants(cfg, {})
    check_rules(cfg, (
        ("alpha_pilot_q", 0.0 < cfg["alpha_pilot_q"] <= 1.0, "in (0, 1]"),
        ("q_max", 0.0 < cfg["q_max"] <= 1.0, "in (0, 1]"),
        ("q_max", cfg["q_max"] > cfg["q_floor"], f"above q_floor {cfg['q_floor']}"),
        ("mean_cost", cfg["mean_cost"] > 0.0, "positive"),
        ("mean_value", cfg["mean_value"] >= 0.0, "nonnegative"),
    ))


def _read_yaml(path: str, unique_keys: bool = False):
    """The YAML document in ``path``, read by ``yaml.SafeLoader`` or, with
    ``unique_keys``, by one that rejects a key set twice; a file that is not
    UTF-8 text or not valid YAML is a ValueError naming it.

    PyYAML is imported here and in ``write_dataset``, not at the top: it adds
    1 MB to every process, and training or solving reads no YAML.
    """
    import yaml

    loader = _unique_key_loader() if unique_keys else yaml.SafeLoader
    with open(path) as f:
        try:
            return yaml.load(f, Loader=loader)
        except (UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def build_config(preset: str | None = None, config_path: str | None = None,
                 overrides: dict | None = None) -> dict:
    """Defaults < preset < config file < explicit overrides, checked once merged."""
    cfg = dict(DEFAULT_CONFIG)
    if preset:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        cfg.update(PRESETS[preset])
    if config_path:
        loaded = _read_yaml(config_path, unique_keys=True)
        if loaded is None:      # an empty file sets nothing
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path}: expected a mapping of config keys, "
                             f"got {type(loaded).__name__}")
        unknown = set(loaded) - set(DEFAULT_CONFIG)
        if unknown:
            raise ValueError(f"{config_path}: unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    _check_kinds(cfg)
    _check_ranges(cfg)
    return cfg


def train_config(cfg: dict, seed: int, q=None) -> TrainConfig:
    knobs = {f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)
             if f.name not in ("seed", "participation")}
    return TrainConfig(**knobs, seed=seed, participation=q)


def game_constants(cfg: dict, meta: dict) -> GameConstants:
    """The game constants: each from ``meta`` where it is set, else from the
    config (α from ``alpha_floor``). ``meta`` holds floats, so a count from it
    must be integral."""
    counts = {}
    for key in ("rounds", "local_steps"):
        value = meta.get(key, cfg[key])
        if not (is_integer(value) or value.is_integer()):
            raise ValueError(f"{key} must be an integer, got {value}")
        counts[key] = int(value)
    return GameConstants(alpha=meta.get("alpha", cfg["alpha_floor"]),
                         beta=meta.get("beta", cfg["beta"]),
                         q_floor=meta.get("q_floor", cfg["q_floor"]), **counts)


def generate_dataset(cfg: dict) -> FederatedDataset:
    if cfg["idx_images"]:
        samples, labels = datamod.load_idx(cfg["idx_images"], cfg["idx_labels"])
        if cfg["label_filter"]:
            samples, labels = datamod.filter_labels(samples, labels, cfg["label_filter"])
        if cfg["subsample"]:
            samples, labels = datamod.subsample(samples, labels, cfg["subsample"], cfg["data_seed"])
        test_x = test_y = None
        if cfg["idx_test_images"]:
            test_x, test_y = datamod.load_idx(cfg["idx_test_images"], cfg["idx_test_labels"])
            if cfg["label_filter"]:
                test_x, test_y = datamod.filter_labels(test_x, test_y, cfg["label_filter"])
        return datamod.partition_label_limited(
            samples, labels, cfg["n_clients"],
            cfg["classes_min"], cfg["classes_max"],
            power_exponent=cfg["power_exponent"], seed=cfg["data_seed"],
            test_features=test_x, test_labels=test_y,
        )
    return datamod.gen_synthetic(
        n_clients=cfg["n_clients"], dim=cfg["dim"], n_classes=cfg["classes"],
        alpha=cfg["synth_alpha"], beta=cfg["synth_beta"],
        total_samples=cfg["total_samples"], power_exponent=cfg["power_exponent"],
        seed=cfg["data_seed"],
    )


def calibrate_population(dataset: FederatedDataset, cfg: dict):
    """Estimate gradient bounds and alpha, sample economics, and build the
    population plus game constants.

    Returns (population, constants, f_locals).
    """
    pilot_cfg = train_config(cfg, seed=cfg["data_seed"])
    grad_bounds = estimate_grad_bounds(dataset, pilot_cfg, cfg["pilot_rounds"], seed=cfg["data_seed"])

    rng = np.random.default_rng(cfg["economics_seed"])
    n = dataset.n_clients
    costs = rng.exponential(cfg["mean_cost"], size=n)
    values = (
        rng.exponential(cfg["mean_value"], size=n)
        if cfg["mean_value"] > 0 else np.zeros(n)
    )
    population = make_population(
        datasizes=dataset.datasizes,
        grad_bounds=grad_bounds,
        cost_coeffs=costs,
        intrinsic_prefs=values,
        q_maxes=[cfg["q_max"]] * n,
    )

    # Alpha from matched-seed pilot pairs at two participation settings. Only
    # each pilot's final loss is read, and the last round is always evaluated.
    final_only = {**cfg, "eval_stride": cfg["rounds"]}
    pilots = [
        train_config(final_only, seed=cfg["data_seed"] + 1000 + s, q=q)
        for s in range(cfg["alpha_pilot_seeds"])
        for q in ([1.0] * n, [cfg["alpha_pilot_q"]] * n)
    ]
    # The local-optimum fits do not depend on the pilots, which never fork an
    # evaluation helper: where a second CPU is free, a forked helper fits them
    # while the pilots train.
    with _fork.call("fedpricing-optima", "local-optimum",
                    local_optimum_losses, dataset, pilot_cfg) as f_locals:
        losses = [metrics[-1].loss for metrics in train_runs(dataset, pilots)]
        levels = [run_cfg.participation for run_cfg in pilots]
        alpha = max(estimate_alpha(levels, losses, population, cfg["rounds"]), cfg["alpha_floor"])
        return population, game_constants(cfg, {"alpha": alpha}), f_locals()


def solve_scheme(scheme: str, population: Population, constants: GameConstants,
                 budget: float) -> EquilibriumResult:
    """Solve one pricing scheme's equilibrium."""
    # Built per call, so that a solver rebound on this module, such as a timing
    # wrapper, is the one called.
    solvers = {"optimal": server_solve, "uniform": baseline_uniform, "weighted": baseline_weighted}
    if scheme not in solvers:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return solvers[scheme](population, constants, budget)


def _run_file(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_dataset(cfg: dict, out_dir: str):
    """Generate the dataset into ``config.yaml`` and ``dataset.bin``; returns (path, dataset)."""
    import yaml

    dataset = generate_dataset(cfg)
    with open(_run_file(out_dir, "config.yaml"), "w") as f:
        yaml.safe_dump(cfg, f, sort_keys=True)
    path = _run_file(out_dir, "dataset.bin")
    datamod.save_dataset(path, dataset)
    return path, dataset


def write_calibration(dataset: FederatedDataset, cfg: dict, out_dir: str):
    """Calibrate into ``population.ini``, with the game constants as its ``[meta]``;
    returns (path, population, constants)."""
    population, constants, f_locals = calibrate_population(dataset, cfg)
    path = _run_file(out_dir, "population.ini")
    write_population(path, population, f_locals, meta=constants.to_dict())
    return path, population, constants


def write_equilibrium(scheme: str, population: Population, constants: GameConstants,
                      budget: float, out_dir: str):
    """Solve one scheme into ``equilibrium_<scheme>.json``; returns (path, result)."""
    result = solve_scheme(scheme, population, constants, budget)
    path = _run_file(out_dir, f"equilibrium_{scheme}.json")
    write_equilibrium_manifest(path, result, scheme, budget)
    return path, result


def write_runs(dataset: FederatedDataset, cfg: dict, levels: dict, out_dir: str) -> list:
    """Train ``repeats`` seeds of every scheme in ``levels`` (scheme → participation
    levels) as one stack, each run into ``metrics_<scheme>_seed<S>.csv``; returns
    (path, metrics) per run."""
    runs = [(scheme, cfg["seed"] + k) for scheme in levels for k in range(cfg["repeats"])]
    run_cfgs = [train_config(cfg, seed=seed, q=levels[scheme]) for scheme, seed in runs]
    written = []
    for (scheme, seed), metrics in zip(runs, train_runs(dataset, run_cfgs)):
        path = _run_file(out_dir, f"metrics_{scheme}_seed{seed}.csv")
        write_metrics_csv(path, run_id=f"{scheme}-{seed}", seed=seed, metrics=metrics)
        written.append((path, metrics))
    return written


def run_experiment(cfg: dict, out_dir: str) -> dict:
    """Full pipeline: data, calibration, per-scheme equilibria and training runs.

    Writes every artifact into ``out_dir`` and returns the summary. The
    budget must be nonnegative, as the baselines require; it is checked here,
    before any work, since ``server_solve`` alone may take a negative one.
    """
    if cfg["budget"] < 0.0:
        raise ValueError(f"budget must be nonnegative, got {cfg['budget']}")
    _, dataset = write_dataset(cfg, out_dir)
    _, population, constants = write_calibration(dataset, cfg, out_dir)
    levels = {}
    for scheme in SCHEMES:
        _, result = write_equilibrium(scheme, population, constants, cfg["budget"], out_dir)
        levels[scheme] = result.q_star
    write_runs(dataset, cfg, levels, out_dir)
    return build_report(out_dir, write=True)


_METRICS_NAME = re.compile(r"metrics_(\w+)_seed(\d+)\.csv$")


def _load_runs(run_dir: str) -> dict:
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(run_dir, "metrics_*_seed*.csv"))):
        m = _METRICS_NAME.search(os.path.basename(path))
        if m is None:
            continue  # the glob also matches names like metrics_x_seedfoo.csv
        scheme, seed = m.group(1), int(m.group(2))
        runs.setdefault(scheme, {})[seed] = read_metrics_csv(path)
    if not runs:
        raise FileNotFoundError(f"no metrics CSVs found under {run_dir}")
    return runs


def check_same_clients(path: str, count: int, other_path: str, other_count: int) -> None:
    """Two run files that describe the same clients must have as many of them."""
    if count != other_count:
        raise ValueError(f"{path} has {count} clients, but {other_path} has {other_count}")


def rounds_to_target(rows: list, target_loss: float):
    """(round, sim_time) of the first evaluated round at or below the target,
    or (None, None) if never reached."""
    for row in rows:
        if row["loss"] <= target_loss:
            return row["round"], row["sim_time"]
    return None, None


def build_report(run_dir: str, write: bool = False) -> dict:
    """Pure function of the saved CSVs and manifests in a run directory.

    Tables: time/rounds to target loss per scheme, total client utility per
    scheme (empirical final losses in the intrinsic term), and negative-
    payment counts. Recomputing over the same files is byte-identical.
    """
    runs = _load_runs(run_dir)
    cfg_path = os.path.join(run_dir, "config.yaml")
    cfg = _read_yaml(cfg_path)
    if not isinstance(cfg, dict):
        raise ValueError(f"{cfg_path}: expected a mapping of config keys, "
                         f"got {type(cfg).__name__}")

    population = f_locals = None
    pop_path = os.path.join(run_dir, "population.ini")
    if os.path.exists(pop_path):
        population, f_locals, _meta = read_population(pop_path)

    manifests = {}
    for scheme in runs:
        path = os.path.join(run_dir, f"equilibrium_{scheme}.json")
        if os.path.exists(path):
            manifests[scheme] = read_equilibrium_manifest(path)
            if population is not None:
                check_same_clients(path, len(manifests[scheme][0].q_star), pop_path,
                                   len(population))

    final = {
        scheme: {seed: rows[-1] for seed, rows in sorted(by_seed.items())}
        for scheme, by_seed in runs.items()
    }
    mean_final_loss = {
        scheme: float(np.mean([r["loss"] for r in by_seed.values()]))
        for scheme, by_seed in final.items()
    }
    mean_final_acc = {
        scheme: float(np.mean([r["accuracy"] for r in by_seed.values()]))
        for scheme, by_seed in final.items()
    }

    target = cfg.get("target_loss")
    if target is None:
        target = max(mean_final_loss.values())

    to_target = {}
    for scheme, by_seed in runs.items():
        per_seed = {}
        for seed, rows in sorted(by_seed.items()):
            r, t = rounds_to_target(rows, target)
            per_seed[seed] = {"round": r, "sim_time": t}
        reached = [v for v in per_seed.values() if v["round"] is not None]
        to_target[scheme] = {
            "per_seed": per_seed,
            "mean_rounds": float(np.mean([v["round"] for v in reached])) if reached else None,
            "mean_sim_time": float(np.mean([v["sim_time"] for v in reached])) if reached else None,
            "reached": len(reached),
        }

    utilities = {}
    negative_payments = {}
    for scheme, (result, _, _budget) in manifests.items():
        negative_payments[scheme] = int(np.count_nonzero(result.p_star < 0.0))
        if population is not None and f_locals is not None and scheme in mean_final_loss:
            q = result.q_star
            terms = (result.p_star * q - population.c * (q * q)
                     + population.v * (np.array(f_locals) - mean_final_loss[scheme]))
            utilities[scheme] = math.fsum(terms.tolist())

    summary = {
        "target_loss": target,
        "mean_final_loss": mean_final_loss,
        "mean_final_accuracy": mean_final_acc,
        "rounds_to_target": to_target,
        "total_client_utility": utilities,
        "negative_payment_clients": negative_payments,
        "sim_time_constants": {"t_base": cfg.get("sim_t_base"), "t_comp": cfg.get("sim_t_comp")},
    }
    if write:
        with open(os.path.join(run_dir, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    return summary


def format_report(summary: dict) -> str:
    lines = [f"target loss: {summary['target_loss']:.6g}", ""]
    lines.append(f"{'scheme':<10} {'final loss':>12} {'final acc':>10} "
                 f"{'rounds->target':>15} {'sim time->target':>17} {'neg pay':>8} {'sum U_n':>12}")
    for scheme in sorted(summary["mean_final_loss"]):
        tt = summary["rounds_to_target"][scheme]
        rounds = f"{tt['mean_rounds']:.1f}" if tt["mean_rounds"] is not None else "n/a"
        time_s = f"{tt['mean_sim_time']:.1f}" if tt["mean_sim_time"] is not None else "n/a"
        util = summary["total_client_utility"].get(scheme)
        util_s = f"{util:.4g}" if util is not None else "n/a"
        neg = summary["negative_payment_clients"].get(scheme, "n/a")
        lines.append(
            f"{scheme:<10} {summary['mean_final_loss'][scheme]:>12.6g} "
            f"{summary['mean_final_accuracy'][scheme]:>10.4f} {rounds:>15} "
            f"{time_s:>17} {neg!s:>8} {util_s:>12}"
        )
    return "\n".join(lines)
