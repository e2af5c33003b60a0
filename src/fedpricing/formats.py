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
import re

from .core import EquilibriumResult, Population, PopulationError, is_finite, make_population

# The pricing schemes, by the name a manifest and its metrics CSVs carry.
SCHEMES = ("optimal", "uniform", "weighted")

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


def _number(path: str, section, key: str) -> float:
    """The value of ``key`` in a population file section, as a float."""
    raw = section.get(key)
    if raw is None:
        raise ValueError(f"{path}: [{section.name}] has no {key}")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{path}: [{section.name}] {key}: expected a number, got {raw!r}") from None


def read_population(path: str):
    """Returns (population, f_locals or None, meta dict)."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    with open(path) as f:
        try:
            cp.read_file(f)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    meta = {k: _number(path, cp["meta"], k) for k in cp["meta"]} if cp.has_section("meta") else {}
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
            _number(path, sec, "d"),
            _number(path, sec, "G"),
            _number(path, sec, "c"),
            _number(path, sec, "v"),
            _number(path, sec, "q_max") if "q_max" in sec else 1.0,
            _number(path, sec, "F_local") if "F_local" in sec else None,
        ))
    rows.sort()
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: client indices must be contiguous from 0")
    try:
        population = make_population(
            datasizes=[r[1] for r in rows],
            grad_bounds=[r[2] for r in rows],
            cost_coeffs=[r[3] for r in rows],
            intrinsic_prefs=[r[4] for r in rows],
            q_maxes=[r[5] for r in rows],
        )
    except PopulationError as exc:
        raise PopulationError(f"{path}: {exc}") from None
    f_locals = [r[6] for r in rows]
    if any(v is None for v in f_locals):
        f_locals = None
    return population, f_locals, meta


# A manifest's scalars, each the result's field of that name.
_MANIFEST_SCALARS = ("lambda_star", "v_threshold", "spend", "bound_value")


# How ``json.dumps`` writes the floats that ``repr`` writes otherwise.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps`` writes it."""
    text = repr(x)
    return _JSON_NONFINITE.get(text, text)


def write_equilibrium_manifest(path: str, result: EquilibriumResult, scheme: str,
                               budget: float) -> None:
    """The result as the manifest the README FORMATS section states: the bytes
    of ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.

    ``json.dumps`` with an indent encodes in pure Python, so the clients,
    which are most of the file, are written here one by one as it would write
    them, and only the rest goes through ``json``.
    """
    payload = {"scheme": scheme, "budget": budget, "diagnostics": dict(result.diagnostics),
               **{key: getattr(result, key) for key in _MANIFEST_SCALARS}, "clients": []}
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w") as f:
        if len(result.q_star):
            # The only line that starts with two spaces and "clients" is the top-level key.
            head, tail = text.split('\n  "clients": []', 1)
            columns = zip(map(_json_float, result.p_star.tolist()), result.interior.tolist(),
                          map(_json_float, result.payments.tolist()),
                          map(_json_float, result.q_star.tolist()))
            f.write(head + '\n  "clients": [')
            f.writelines(
                f'{"," if n else ""}\n    {{\n      "P": {price},\n      "interior": '
                f'{"true" if flag else "false"},\n      "n": {n},\n      "payment": {payment},'
                f'\n      "q": {q}\n    }}'
                for n, (price, flag, payment, q) in enumerate(columns))
            text = "\n  ]" + tail
        f.write(text + "\n")


def _client_field(path: str, client: dict, key: str):
    """The value of ``key`` in a manifest's client entry: true or false for
    ``interior``, and a number for the others."""
    value = client[key]
    if key == "interior":
        ok, kind = isinstance(value, bool), "true or false"
    else:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    if not ok:
        raise ValueError(f"{path}: client {client['n']}: {key}: expected {kind}, got {value!r}")
    return value


def read_equilibrium_manifest(path: str):
    """Returns (result, scheme, budget): the scheme one of ``SCHEMES``, and the
    budget a finite number."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    try:
        scheme, budget = payload["scheme"], payload["budget"]
        clients = sorted(payload["clients"], key=lambda c: c["n"])
        if [c["n"] for c in clients] != list(range(len(clients))):
            raise ValueError(f"{path}: client numbers must run from 0 to "
                             f"{len(clients) - 1}, each once")
        q, prices, payments, interior = ([_client_field(path, c, key) for c in clients]
                                         for key in ("q", "P", "payment", "interior"))
        scalars = {key: payload[key] for key in _MANIFEST_SCALARS}
        diagnostics = dict(payload.get("diagnostics", {}))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if scheme not in SCHEMES:
        raise ValueError(f"{path}: scheme: expected one of {', '.join(SCHEMES)}, got {scheme!r}")
    if not is_finite(budget):
        raise ValueError(f"{path}: budget: expected a finite number, got {budget!r}")
    try:
        result = EquilibriumResult(q_star=q, p_star=prices,
                                   payments=payments, interior=interior,
                                   diagnostics=diagnostics, **scalars)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return result, scheme, budget


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


# How each metrics CSV field is read, in header order, and what it must be.
_METRICS_KINDS = ((str, "text"), (int, "an integer"), (int, "an integer"), (float, "a number"),
                  (int, "an integer"), (float, "a number"), (float, "a number"))


def read_metrics_csv(path: str) -> list:
    """Rows as dicts with numeric fields parsed. A row with the wrong number
    of fields, or a field that does not parse, is named by its line."""
    with open(path, newline="") as f:
        try:
            return _metrics_rows(path, csv.reader(f))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _metrics_rows(path: str, reader) -> list:
    """read_metrics_csv's rows, from a ``csv.reader`` over the file at ``path``."""
    header = next(reader, None)
    if header != METRICS_HEADER:
        raise ValueError(f"{path}: unexpected metrics header {header}")
    rows = []
    for fields in reader:
        if not fields:
            continue
        where = f"{path}: line {reader.line_num}"
        if len(fields) != len(METRICS_HEADER):
            raise ValueError(f"{where}: expected {len(METRICS_HEADER)} fields, "
                             f"got {len(fields)}")
        row = {}
        for name, raw, (parse, kind) in zip(METRICS_HEADER, fields, _METRICS_KINDS):
            try:
                row[name] = parse(raw)
            except ValueError:
                raise ValueError(f"{where}: {name}: expected {kind}, got {raw!r}") from None
        rows.append(row)
    return rows
