"""Command-line entry point.

Subcommands: gen-data, calibrate, solve, train, experiment, report.
Every flag can also be supplied through an environment variable with the
FEDPRICING_ prefix (e.g. FEDPRICING_SEED=3 mirrors --seed 3); explicit flags
win over the environment. A variable is read only when the chosen subcommand
has its flag.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiment as exp
from . import data as datamod
from .core import PopulationError
from .formats import read_equilibrium_manifest, read_population
from .game import BracketError, InfeasibleBudgetError

ENV_PREFIX = "FEDPRICING_"


class _EnvDefault:
    """A flag's default from its FEDPRICING_ variable, read by ``_read_env_defaults``
    only when the chosen subcommand has the flag and it was not given."""

    def __init__(self, flag: str, cast, fallback=None):
        self.name = ENV_PREFIX + flag.upper().replace("-", "_")
        self.cast = cast
        self.fallback = fallback

    def read(self):
        raw = os.environ.get(self.name)
        if raw is None:
            return self.fallback
        try:
            return self.cast(raw)
        except ValueError:
            raise ValueError(f"{self.name}: expected {self.cast.__name__}, got {raw!r}") from None


def _read_env_defaults(args: argparse.Namespace) -> argparse.Namespace:
    for dest, value in vars(args).items():
        if isinstance(value, _EnvDefault):
            setattr(args, dest, value.read())
    return args


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=_EnvDefault("config", str),
                        help="YAML config file")
    parser.add_argument("--preset", default=_EnvDefault("preset", str),
                        choices=["setup1", "setup2", "setup3", "desk"],
                        help="named parameter preset")
    parser.add_argument("--out", default=_EnvDefault("out", str, "runs/latest"),
                        help="output directory")
    parser.add_argument("--seed", type=int, default=_EnvDefault("seed", int))


def _config_from(args, **extra) -> dict:
    overrides = {"seed": getattr(args, "seed", None)}
    overrides.update(extra)
    return exp.build_config(args.preset, args.config, overrides)


def cmd_gen_data(args) -> int:
    cfg = _config_from(args, data_seed=args.seed)
    path, dataset = exp.write_dataset(cfg, args.out)
    print(f"wrote {path}: {dataset.n_clients} clients, {dataset.total_samples} samples, "
          f"{len(dataset.test_labels)} test samples")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _config_from(args)
    dataset = datamod.load_dataset(args.dataset)
    path, _population, constants = exp.write_calibration(dataset, cfg, args.out)
    print(f"wrote {path}: alpha={constants.alpha:.6g}")
    return 0


def cmd_solve(args) -> int:
    cfg = _config_from(args, budget=args.budget)
    population, _f_locals, meta = read_population(args.population)
    try:
        constants = exp.game_constants(cfg, meta)
    except ValueError as exc:       # the config's values were checked: a [meta] value is bad
        raise ValueError(f"{args.population}: [meta] {exc}") from None
    path, result = exp.write_equilibrium(args.scheme, population, constants, cfg["budget"],
                                         args.out)
    print(f"wrote {path}: spend={result.spend:.6g}, bound={result.bound_value:.6g}")
    return 0


def _check_population_matches(population, dataset, population_path: str,
                              dataset_path: str) -> None:
    """Training takes a_n from the dataset's shards, so the population file
    must describe the same clients: the same count and every d_n."""
    exp.check_same_clients(population_path, len(population), dataset_path, dataset.n_clients)
    for n, (d, size) in enumerate(zip(population.d.tolist(), dataset.datasizes)):
        if d != size:
            raise ValueError(f"{population_path}: client {n} has d = {int(d)}, but its shard "
                             f"in {dataset_path} has {size} samples")


def cmd_train(args) -> int:
    cfg = _config_from(args, repeats=args.repeats)
    dataset = datamod.load_dataset(args.dataset)
    population, _f_locals, _meta = read_population(args.population)
    _check_population_matches(population, dataset, args.population, args.dataset)
    result, scheme, _budget = read_equilibrium_manifest(args.equilibrium)
    exp.check_same_clients(args.equilibrium, len(result.q_star), args.population, len(population))
    for path, metrics in exp.write_runs(dataset, cfg, {scheme: result.q_star}, args.out):
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
    p.add_argument("--scheme", default=_EnvDefault("scheme", str, "optimal"),
                   choices=list(exp.SCHEMES))
    p.add_argument("--budget", type=float, default=_EnvDefault("budget", float))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="run seeded training under a solved equilibrium")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--equilibrium", required=True, help="equilibrium manifest path")
    p.add_argument("--repeats", type=int, default=_EnvDefault("repeats", int))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("experiment", help="full pipeline with per-scheme comparison")
    _add_common(p)
    p.add_argument("--repeats", type=int, default=_EnvDefault("repeats", int))
    p.add_argument("--budget", type=float, default=_EnvDefault("budget", float))
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="recompute summary tables from a run directory")
    p.add_argument("--run-dir", default=_EnvDefault("out", str, "runs/latest"))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list | None = None) -> int:
    try:
        args = _read_env_defaults(build_parser().parse_args(argv))
        return args.func(args)
    except (FileNotFoundError, PopulationError, InfeasibleBudgetError, ValueError,
            BracketError) as exc:
        message = " ".join(line.strip() for line in str(exc).splitlines())
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
