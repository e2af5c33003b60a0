"""Command-line entry point.

Subcommands: gen-data, calibrate, solve, train, experiment, report.
Every flag can also be supplied through an environment variable with the
FEDPRICING_ prefix (e.g. FEDPRICING_SEED=3 mirrors --seed 3); explicit flags
win over the environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiment as exp
from . import data as datamod
from .core import GameConstants, PopulationError
from .formats import (
    read_equilibrium_manifest,
    read_population,
    write_equilibrium_manifest,
    write_metrics_csv,
    write_population,
)
from .fltrain import train_runs
from .game import InfeasibleBudgetError

ENV_PREFIX = "FEDPRICING_"


def _env_default(flag: str, cast, fallback=None):
    raw = os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"))
    if raw is None:
        return fallback
    return cast(raw)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=_env_default("config", str),
                        help="YAML config file")
    parser.add_argument("--preset", default=_env_default("preset", str),
                        choices=["setup1", "setup2", "setup3", "desk"],
                        help="named parameter preset")
    parser.add_argument("--out", default=_env_default("out", str, "runs/latest"),
                        help="output directory")
    parser.add_argument("--seed", type=int, default=_env_default("seed", int))


def _config_from(args, **extra) -> dict:
    overrides = {"seed": getattr(args, "seed", None)}
    overrides.update(extra)
    return exp.build_config(args.preset, args.config, overrides)


def cmd_gen_data(args) -> int:
    cfg = _config_from(args, data_seed=args.seed)
    dataset = exp.generate_dataset(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "dataset.bin")
    datamod.save_dataset(path, dataset)
    exp.save_config(cfg, os.path.join(args.out, "config.yaml"))
    print(f"wrote {path}: {dataset.n_clients} clients, {dataset.total_samples} samples, "
          f"{len(dataset.test_labels)} test samples")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _config_from(args)
    dataset = datamod.load_dataset(args.dataset)
    cfg["n_clients"] = dataset.n_clients
    profiles, constants, f_locals, f_star = exp.calibrate_population(dataset, cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "population.ini")
    write_population(path, profiles, f_locals,
                     meta={"alpha": constants.alpha, "beta": constants.beta,
                           "f_star": f_star, "rounds": constants.rounds,
                           "local_steps": constants.local_steps,
                           "q_floor": constants.q_floor})
    print(f"wrote {path}: alpha={constants.alpha:.6g}, f_star proxy={f_star:.6g}")
    return 0


def _constants_from_meta(meta: dict, cfg: dict) -> GameConstants:
    return GameConstants(
        alpha=meta.get("alpha", cfg["alpha_floor"]),
        beta=meta.get("beta", cfg["beta"]),
        rounds=int(meta.get("rounds", cfg["rounds"])),
        local_steps=int(meta.get("local_steps", cfg["local_steps"])),
        q_floor=meta.get("q_floor", cfg["q_floor"]),
    )


def cmd_solve(args) -> int:
    cfg = _config_from(args, budget=args.budget)
    profiles, _f_locals, meta = read_population(args.population)
    constants = _constants_from_meta(meta, cfg)
    result = exp.solve_scheme(args.scheme, profiles, constants, cfg["budget"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"equilibrium_{args.scheme}.json")
    write_equilibrium_manifest(path, result, args.scheme, cfg["budget"])
    print(f"wrote {path}: spend={result.spend:.6g}, bound={result.bound_value:.6g}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from(args, repeats=args.repeats)
    if cfg["repeats"] < 1:
        raise ValueError(f"repeats must be >= 1, got {cfg['repeats']}")
    dataset = datamod.load_dataset(args.dataset)
    profiles, _f_locals, _meta = read_population(args.population)
    result, scheme, _budget = read_equilibrium_manifest(args.equilibrium)
    os.makedirs(args.out, exist_ok=True)
    seeds = [cfg["seed"] + k for k in range(cfg["repeats"])]
    run_cfgs = [exp.train_config(cfg, seed=seed, q=result.q_star) for seed in seeds]
    for seed, metrics in zip(seeds, train_runs(dataset, run_cfgs, profiles)):
        path = os.path.join(args.out, f"metrics_{scheme}_seed{seed}.csv")
        write_metrics_csv(path, run_id=f"{scheme}-{seed}", seed=seed, metrics=metrics)
        print(f"wrote {path}: final loss {metrics[-1].loss:.6g}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _config_from(args, repeats=args.repeats, budget=args.budget)
    summary = exp.run_experiment(cfg, args.out)
    print(exp.format_report(summary))
    print(f"\nartifacts in {args.out}")
    return 0


def cmd_report(args) -> int:
    summary = exp.build_report(args.run_dir, write=True)
    print(exp.format_report(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpricing",
        description="Participation-level pricing for federated learning: "
                    "equilibrium solvers plus a desk-scale training simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate or partition a federated dataset")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("calibrate", help="estimate game parameters from pilot training")
    _add_common(p)
    p.add_argument("--dataset", required=True, help="dataset container path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("solve", help="solve one pricing scheme's equilibrium")
    _add_common(p)
    p.add_argument("--population", required=True, help="population file path")
    p.add_argument("--scheme", default=_env_default("scheme", str, "optimal"),
                   choices=list(exp.SCHEMES))
    p.add_argument("--budget", type=float, default=_env_default("budget", float))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="run seeded training under a solved equilibrium")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--equilibrium", required=True, help="equilibrium manifest path")
    p.add_argument("--repeats", type=int, default=_env_default("repeats", int))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("experiment", help="full pipeline with per-scheme comparison")
    _add_common(p)
    p.add_argument("--repeats", type=int, default=_env_default("repeats", int))
    p.add_argument("--budget", type=float, default=_env_default("budget", float))
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="recompute summary tables from a run directory")
    p.add_argument("--run-dir", default=_env_default("out", str, "runs/latest"))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, PopulationError, InfeasibleBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
