"""The three benchmark workloads: how each builds its inputs from the seed,
what its measured operation is, and how its outputs are checked.

Every call into the package goes through a module attribute
(``fltrain.train``, not a name imported from it), so that the traced run can
swap in timing wrappers without touching ``src/``.
"""

from __future__ import annotations

import os

import numpy as np

from fedpricing import core, data, experiment, fltrain, formats, game

import checks

# desk: the acceptance preset run end to end. Its dataset and economics stay
# at the preset's seeds: L-BFGS work for the local optima varies 2.3x across
# data seeds (3250 to 7515 loss evaluations for seeds 1 to 4), so drawing the
# data from the workload seed would measure the dataset, not the program. The
# workload seed picks the training seeds.
DESK_REPEATS = 3

# market: a population large enough that per-client Python loops dominate.
MARKET_CLIENTS = 10_000
MARKET_ROUNDS = 200
MARKET_LOCAL_STEPS = 10
MARKET_FLOOR = 0.01
MARKET_CAPPED_SHARE = 0.25      # clients with q_max < 1
MARKET_TYPICAL_Q = 0.2          # level of a median client at the target dual

# fleet: many shards, so per-round evaluation and per-participant SGD dominate.
FLEET_CLIENTS = 100
FLEET_SAMPLES = 20_000
FLEET_PARTICIPANTS = 34.0       # expected participants per round
FLEET_MIN_Q = 0.05
FLEET_RUNS = 3
FLEET_ROUNDS = 200


class Desk:
    """``run_experiment`` on the desk preset into a fresh run directory."""

    ops_per_round = 1

    def __init__(self, seed: int):
        self.cfg = experiment.build_config(
            "desk", overrides={"repeats": DESK_REPEATS, "seed": seed}
        )

    def describe(self) -> dict:
        cfg = self.cfg
        return {"n_clients": cfg["n_clients"], "total_samples": cfg["total_samples"],
                "budget": cfg["budget"], "repeats": cfg["repeats"],
                "training_seeds": [cfg["seed"] + k for k in range(cfg["repeats"])],
                "data_seed": cfg["data_seed"], "economics_seed": cfg["economics_seed"]}

    def operate(self, out_dir: str) -> None:
        experiment.run_experiment(self.cfg, out_dir)

    def save(self, out_dir: str) -> None:
        """run_experiment already wrote every artifact."""

    def check(self, out_dir: str) -> dict:
        cfg = self.cfg
        mix = checks.check_equilibria(out_dir, game.SolverOptions().budget_tol)
        # The baselines leave large clients at low q, where the unbiased update
        # a_n/q_n (up to 4.2 on desk) can end above the starting loss ln(C); only
        # the optimal scheme is held to it.
        losses = {
            s: [checks.check_metrics_csv(os.path.join(out_dir, f"metrics_{s}_seed{cfg['seed'] + k}.csv"),
                                         cfg["rounds"], cfg["eval_stride"], cfg["classes"],
                                         cfg["n_clients"], converges=s == "optimal")
                for k in range(cfg["repeats"])]
            for s in experiment.SCHEMES
        }
        checks.check_report_purity(out_dir, out_dir + "-report", experiment.build_report)
        return {"optimal": mix, "final_loss_max": {s: max(v) for s, v in losses.items()}}


def market_population(seed: int):
    """Seeded synthetic population with a known regime mix at the target dual.

    Returns (datasizes, G, c, v, q_max, alpha, budget). The budget is the
    spend of the KKT levels at dual 1/T, where T makes a median client sit at
    MARKET_TYPICAL_Q; intrinsic preferences are drawn as fractions of T, so
    40% of clients have v = 0, 57% lie below T/3 (positive prices), 2.5% lie
    in (T/3, T) (negative prices) and 0.5% lie above T (pinned at the floor).
    """
    n = MARKET_CLIENTS
    rng = np.random.default_rng(seed)
    d = rng.integers(20, 401, n)
    grad = rng.uniform(1.0, 10.0, n)
    cost = 10.0 + rng.exponential(40.0, n)
    q_max = np.where(rng.random(n) < MARKET_CAPPED_SHARE, rng.uniform(0.3, 0.9, n), 1.0)
    alpha = 1.0
    a = d / d.sum()
    k = alpha / MARKET_ROUNDS * a**2 * grad**2
    target = float(np.median(4.0 * cost * MARKET_TYPICAL_Q**3 / k))
    u, w = rng.random(n), rng.random(n)
    v = target * np.select(
        [u < 0.40, u < 0.97, u < 0.995],
        [0.0 * w, 0.3 * w, 0.34 + 0.6 * w],
        1.05 + 0.45 * w,
    )
    q = np.cbrt(np.maximum(k * (target - v), 0.0) / (4.0 * cost))
    q = np.clip(np.where(v >= target, MARKET_FLOOR, q), MARKET_FLOOR, q_max)
    budget = float(np.sum(2.0 * cost * q**2 - k * v / q))
    if not budget > 0.0:
        raise ValueError(f"market seed {seed}: non-positive budget {budget}")
    return d, grad, cost, v, q_max, alpha, budget


class Market:
    """The three pricing schemes solved on one ~1e4-client population."""

    ops_per_round = len(experiment.SCHEMES)

    def __init__(self, seed: int):
        d, grad, cost, v, q_max, alpha, budget = market_population(seed)
        self.profiles = core.make_population(d, grad, cost, v, q_max)
        self.constants = core.GameConstants(
            alpha=alpha, beta=0.0, rounds=MARKET_ROUNDS,
            local_steps=MARKET_LOCAL_STEPS, q_floor=MARKET_FLOOR,
        )
        self.budget = budget
        self.results = {}

    def describe(self) -> dict:
        v = np.array([p.intrinsic_pref for p in self.profiles])
        caps = np.array([p.q_max for p in self.profiles])
        return {"n_clients": len(self.profiles), "budget": self.budget,
                "v_zero": int(np.sum(v == 0.0)), "q_max_below_1": int(np.sum(caps < 1.0)),
                "alpha": self.constants.alpha, "rounds": self.constants.rounds,
                "q_floor": self.constants.q_floor}

    def operate(self, out_dir: str) -> None:
        self.results = {
            scheme: experiment.solve_scheme(scheme, self.profiles, self.constants, self.budget)
            for scheme in experiment.SCHEMES
        }

    def save(self, out_dir: str) -> None:
        c = self.constants
        formats.write_population(
            os.path.join(out_dir, "population.ini"), self.profiles,
            meta={"alpha": c.alpha, "beta": c.beta, "rounds": c.rounds,
                  "local_steps": c.local_steps, "q_floor": c.q_floor},
        )
        for scheme, result in self.results.items():
            formats.write_equilibrium_manifest(
                os.path.join(out_dir, f"equilibrium_{scheme}.json"), result, scheme, self.budget
            )

    def check(self, out_dir: str) -> dict:
        mix = checks.check_equilibria(out_dir, game.SolverOptions().budget_tol)
        checks.check_regime_mix(mix)
        return mix


def fleet_levels(datasizes, total: float = FLEET_PARTICIPANTS, low: float = FLEET_MIN_Q):
    """Participation levels growing with a_n^(2/3), clipped to [low, 1] and
    scaled so that they sum to ``total`` (the expected participants per round).

    Low levels on large shards make the inverse-probability update a_n/q_n
    large enough to diverge; levels that grow with the data share keep every
    run converging.
    """
    a = np.asarray(datasizes, dtype=float)
    shape = (a / a.sum()) ** (2.0 / 3.0)
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(low + mid * shape, low, 1.0).sum() > total:
            hi = mid
        else:
            lo = mid
    return np.clip(low + lo * shape, low, 1.0)


class Fleet:
    """A few seeded ``train`` runs on a 100-client synthetic dataset."""

    ops_per_round = FLEET_RUNS

    def __init__(self, seed: int):
        self.dataset = data.gen_synthetic(
            n_clients=FLEET_CLIENTS, total_samples=FLEET_SAMPLES, seed=seed
        )
        self.q = core.ParticipationVector(fleet_levels(self.dataset.datasizes))
        self.configs = [
            fltrain.TrainConfig(
                rounds=FLEET_ROUNDS, seed=1000 * seed + k, lr_schedule="theoretical",
                participation=self.q, eval_stride=1,
            )
            for k in range(FLEET_RUNS)
        ]
        self.metrics = []

    def describe(self) -> dict:
        q = np.array(self.q.q)
        return {"n_clients": self.dataset.n_clients, "samples": self.dataset.total_samples,
                "test_samples": len(self.dataset.test_labels),
                "largest_shard": max(self.dataset.datasizes),
                "smallest_shard": min(self.dataset.datasizes),
                "expected_participants": float(q.sum()), "q_min": float(q.min()),
                "q_at_1": int(np.sum(q >= 1.0)), "runs": len(self.configs),
                "rounds": FLEET_ROUNDS, "lr_schedule": "theoretical", "eval_stride": 1}

    def operate(self, out_dir: str) -> None:
        self.metrics = [fltrain.train(self.dataset, cfg) for cfg in self.configs]

    def save(self, out_dir: str) -> None:
        for cfg, metrics in zip(self.configs, self.metrics):
            formats.write_metrics_csv(
                os.path.join(out_dir, f"metrics_fleet_seed{cfg.seed}.csv"),
                run_id=f"fleet-{cfg.seed}", seed=cfg.seed, metrics=metrics,
            )

    def check(self, out_dir: str) -> dict:
        ds = self.dataset
        losses = [
            checks.check_metrics_csv(os.path.join(out_dir, f"metrics_fleet_seed{cfg.seed}.csv"),
                                     cfg.rounds, cfg.eval_stride, ds.n_classes, ds.n_clients)
            for cfg in self.configs
        ]
        return {"final_loss_max": max(losses)}


WORKLOADS = {"desk": Desk, "market": Market, "fleet": Fleet}
