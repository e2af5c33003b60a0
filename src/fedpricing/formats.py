"""On-disk formats: population files, equilibrium manifests, metric CSVs.

Population files are INI-style: one ``[client N]`` section per client with
keys d, G, c, v, q_max (plus optional F_local from calibration) and an
optional ``[meta]`` section for file-level scalars: the pipeline writes the
``GameConstants`` fields there. See the README FORMATS section for the grammar.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import re

from .core import EquilibriumResult, ParticipationVector, Population, PricingVector, make_population

METRICS_HEADER = ["run_id", "seed", "round", "sim_time", "participants", "loss", "accuracy"]

_CLIENT_SECTION = re.compile(r"^client (\d+)$")


def write_population(path: str, population: Population, f_locals: list | None = None,
                     meta: dict | None = None) -> None:
    """Write the file as ``configparser`` writes it, byte for byte, without
    building a parser object per client."""
    lines = []
    if meta:
        lines += ["[meta]", *(f"{k} = {float(v)!r}" for k, v in meta.items()), ""]
    columns = zip(population.d.tolist(), population.G.tolist(), population.c.tolist(),
                  population.v.tolist(), population.q_max.tolist())
    for n, (d, G, c, v, q_max) in enumerate(columns):
        lines += [f"[client {n}]", f"d = {int(d)}", f"G = {G!r}", f"c = {c!r}", f"v = {v!r}",
                  f"q_max = {q_max!r}"]
        if f_locals is not None:
            lines.append(f"F_local = {float(f_locals[n])!r}")
        lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_population(path: str):
    """Returns (population, f_locals or None, meta dict)."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with open(path) as f:
        cp.read_file(f)
    meta = {k: float(v) for k, v in cp["meta"].items()} if cp.has_section("meta") else {}
    rows = []
    for name in cp.sections():
        m = _CLIENT_SECTION.match(name)
        if not m:
            if name != "meta":
                raise ValueError(f"{path}: unexpected section [{name}]")
            continue
        sec = cp[name]
        rows.append((
            int(m.group(1)),
            float(sec["d"]),
            float(sec["G"]),
            float(sec["c"]),
            float(sec["v"]),
            float(sec.get("q_max", "1.0")),
            float(sec["F_local"]) if "F_local" in sec else None,
        ))
    rows.sort()
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: client indices must be contiguous from 0")
    population = make_population(
        datasizes=[r[1] for r in rows],
        grad_bounds=[r[2] for r in rows],
        cost_coeffs=[r[3] for r in rows],
        intrinsic_prefs=[r[4] for r in rows],
        q_maxes=[r[5] for r in rows],
    )
    f_locals = [r[6] for r in rows]
    if any(v is None for v in f_locals):
        f_locals = None
    return population, f_locals, meta


def write_equilibrium_manifest(path: str, result: EquilibriumResult, scheme: str,
                               budget: float) -> None:
    payload = {"scheme": scheme, "budget": budget}
    payload.update(result.to_dict())
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_equilibrium_manifest(path: str):
    """Returns (result, scheme, budget)."""
    with open(path) as f:
        payload = json.load(f)
    scheme = payload.pop("scheme")
    budget = payload.pop("budget")
    return EquilibriumResult.from_dict(payload), scheme, budget


def baseline_as_result(prices: PricingVector, q: ParticipationVector,
                       bound_value: float = float("nan")) -> EquilibriumResult:
    """Wrap a baseline (prices, responses) pair in the manifest-friendly record.

    Baselines have no dual value or threshold; those fields are filled with
    placeholder values and flagged in diagnostics.
    """
    payments = tuple(p * qn for p, qn in zip(prices.p, q.q))
    return EquilibriumResult(
        q_star=q,
        p_star=prices,
        lambda_star=float("nan"),
        v_threshold=float("nan"),
        spend=math.fsum(payments),
        bound_value=bound_value,
        payments=payments,
        interior=tuple(False for _ in q.q),
        diagnostics={"solver": "baseline"},
    )


def write_metrics_csv(path: str, run_id: str, seed: int, metrics: list) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        for m in metrics:
            writer.writerow([
                run_id,
                seed,
                m.round_index,
                f"{m.sim_time:.6f}",
                len(m.participants),
                f"{m.loss:.12g}",
                f"{m.accuracy:.12g}",
            ])


def read_metrics_csv(path: str) -> list:
    """Rows as dicts with numeric fields parsed."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != METRICS_HEADER:
            raise ValueError(f"{path}: unexpected metrics header {reader.fieldnames}")
        for row in reader:
            rows.append({
                "run_id": row["run_id"],
                "seed": int(row["seed"]),
                "round": int(row["round"]),
                "sim_time": float(row["sim_time"]),
                "participants": int(row["participants"]),
                "loss": float(row["loss"]),
                "accuracy": float(row["accuracy"]),
            })
    return rows
