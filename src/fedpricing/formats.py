"""On-disk formats: population files, equilibrium manifests, metric CSVs.

Population files are INI-style: one ``[client N]`` section per client with
keys d, G, c, v, q_max (plus optional F_local from calibration) and an
optional ``[meta]`` section for file-level scalars: the pipeline writes the
``GameConstants`` fields there. See the README FORMATS section for the grammar.
"""

from __future__ import annotations

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
    """Write the file as ``configparser`` writes it, byte for byte, one client
    at a time."""
    head = "".join(["[meta]\n", *(f"{k} = {float(v)!r}\n" for k, v in meta.items()), "\n"]
                   if meta else [])
    n_clients = len(population)
    f_local_lines = (f"F_local = {float(f_locals[n])!r}\n" if f_locals is not None else ""
                     for n in range(n_clients))
    columns = (map(float, column) for column in (population.G, population.c, population.v,
                                                 population.q_max))
    clients = zip(range(n_clients), map(int, population.d), *columns, f_local_lines)
    with open(path, "w") as f:
        f.write(head)
        f.writelines(f"[client {n}]\nd = {d}\nG = {G!r}\nc = {c!r}\nv = {v!r}\nq_max = {q_max!r}\n"
                     f"{f_local}\n" for n, d, G, c, v, q_max, f_local in clients)


# The keys of a client section, in the order the reader checks them. The
# first four are required; a client without q_max has q_max = 1.0.
_CLIENT_KEYS = ("d", "G", "c", "v", "q_max", "F_local")
_REQUIRED = _CLIENT_KEYS[:4]

_SECTION = re.compile(r"\[(.+)\]")


def _number_or_text(text: str):
    """``text`` as a float, or ``text`` itself when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def _problem(key: str, value) -> str | None:
    """What is wrong with a client's ``value`` of ``key``, if anything."""
    if isinstance(value, str):
        return f"{key}: expected a number, got {value!r}"
    if value is None and key in _REQUIRED:
        return f"has no {key}"
    return None


class _Sections:
    """A population file read line by line as ``configparser.ConfigParser``
    reads it, keys kept as written, but without a section object per client:
    each client's values go straight into one list per key of
    ``_CLIENT_KEYS``, in file order, each a float, the text where it is not
    a number, or None where the section does not set the key.

    What ``configparser`` rejects raises a ``ValueError`` that names the file
    and then gives ``configparser``'s own message: at once for a line before
    the first section header and for a section, or a key within one section,
    set twice; at the end of the file for every line that is neither a
    header, a ``key = value`` or ``key: value`` option, a comment nor blank.
    Full-line ``#`` and ``;`` comments, values continued on more indented
    lines, and a ``[DEFAULT]`` section, whose keys every section has unless
    it sets them, read as in ``configparser``. Values are taken as written,
    without interpolation.
    """

    def __init__(self, path: str, lines):
        self.path = path
        self.columns = {key: [] for key in _CLIENT_KEYS}
        self.indices = []       # each client section's N, in file order
        self.names = {}         # the client sections not named "client N", by position
        self.meta = None        # [meta]'s options, when the file has the section
        self.defaults = {}      # [DEFAULT]'s options
        self.unexpected = None  # the first other section: (client sections before it, name)
        self._client = {}       # the options of the client section being read
        self._read(lines)

    def _fail(self, message: str):
        raise ValueError(f"{self.path}: {message}")

    def _read(self, lines) -> None:
        path, seen, bad_lines = self.path, set(), []
        options = name = key = None     # the section being read, and its last key
        columns = {}                    # the client columns, in a client section
        indent_level = blank_lines = 0
        for lineno, line in enumerate(lines, start=1):
            value = line.strip()
            if not value:
                blank_lines += 1
                continue
            first = value[0]
            if first in "#;":
                continue
            if first == line[0]:
                indent_level = 0
            else:       # indented deeper than the last option's line, it continues that value
                indent = len(line) - len(line.lstrip())
                if key and indent > indent_level:
                    options[key] += "\n" * (blank_lines + 1) + value
                    if key in columns:
                        columns[key][-1] = _number_or_text(options[key])
                    blank_lines = 0
                    continue
                indent_level = indent
            header = first == "[" and _SECTION.match(value)
            if header:
                name, key = header.group(1), None
                options = self._start(name, seen, lineno)
                columns = self.columns if options is self._client else {}
            elif options is None:
                self._fail(f"File contains no section headers.\nfile: {path!r}, "
                           f"line: {lineno}\n{line!r}")
            else:
                option, delimiter, text = value.partition("=")
                if not delimiter or ":" in option:
                    option, delimiter, text = value.partition(":")
                if not delimiter:
                    bad_lines.append((lineno, line))
                    continue
                key = option.rstrip()
                if not key:
                    bad_lines.append((lineno, line))
                if key in options:
                    self._fail(f"While reading from {path!r} [line {lineno:2d}]: option {key!r} "
                               f"in section {name!r} already exists")
                options[key] = text = text.strip()
                if key in columns:
                    columns[key][-1] = _number_or_text(text)
            blank_lines = 0
        if bad_lines:
            self._fail(f"Source contains parsing errors: {path!r}" + "".join(
                f"\n\t[line {lineno:2d}]: {line!r}" for lineno, line in bad_lines))

    def _start(self, name: str, seen: set, lineno: int) -> dict:
        """The dict that takes the options of section ``name``, whose header
        is at ``lineno``; ``seen`` holds the sections read before it. A client
        section gets a None in every column, for its values to replace."""
        if name == "DEFAULT":
            return self.defaults
        client = _CLIENT_SECTION.match(name)
        index = int(client.group(1)) if client else None
        tag = index if client and name == f"client {index}" else name
        if tag in seen:
            self._fail(f"While reading from {self.path!r} [line {lineno:2d}]: section {name!r} "
                       f"already exists")
        seen.add(tag)
        if client:
            if tag == name:
                self.names[len(self.indices)] = name
            self.indices.append(index)
            for column in self.columns.values():
                column.append(None)
            self._client.clear()
            return self._client
        if name == "meta":
            self.meta = {}
            return self.meta
        if self.unexpected is None:
            self.unexpected = (len(self.indices), name)
        return {}

    def meta_values(self) -> dict:
        """[meta]'s values and then [DEFAULT]'s, as floats; {} without [meta]."""
        if self.meta is None:
            return {}
        texts = dict(self.meta)
        for key, text in self.defaults.items():
            texts.setdefault(key, text)
        values = {key: _number_or_text(text) for key, text in texts.items()}
        for key, value in values.items():
            if isinstance(value, str):
                self._fail(f"[meta] {key}: expected a number, got {value!r}")
        return values

    def client_columns(self) -> dict:
        """The client columns in client order, keyed as ``_CLIENT_KEYS``, with
        [DEFAULT]'s values where a section sets none and q_max 1.0 where
        neither does. Raises at the first section, in file order, that is not
        a client or [meta], or that lacks a required key or has a value that
        is not a number, and if the clients are not numbered 0 to N-1."""
        columns = self.columns
        for key, text in self.defaults.items():
            if key in columns:
                value = _number_or_text(text)
                columns[key] = [value if x is None else x for x in columns[key]]
        first = len(self.indices)
        for key, column in columns.items():
            if str in set(map(type, column)) or (key in _REQUIRED and None in column):
                first = min(first, next(n for n, x in enumerate(column) if _problem(key, x)))
        if self.unexpected and self.unexpected[0] <= first:
            self._fail(f"unexpected section [{self.unexpected[1]}]")
        if first < len(self.indices):
            name = self.names.get(first, f"client {self.indices[first]}")
            self._fail(f"[{name}] " + next(filter(None, (
                _problem(key, columns[key][first]) for key in _CLIENT_KEYS))))
        clients = list(range(len(self.indices)))
        if self.indices != clients:
            order = sorted(clients, key=self.indices.__getitem__)
            if [self.indices[n] for n in order] != clients:
                self._fail("client indices must be contiguous from 0")
            columns = {key: [column[n] for n in order] for key, column in columns.items()}
        if None in columns["q_max"]:
            columns["q_max"] = [1.0 if q is None else q for q in columns["q_max"]]
        return columns


def read_population(path: str):
    """Returns (population, f_locals or None, meta dict): f_locals when every
    client has F_local.

    The file is parsed line by line (``_Sections``), and every error is a
    ValueError naming the file: ``configparser``'s message for a file it
    does not read, and the section and key for a missing value or one that
    is not a number.
    """
    with open(path) as f:
        try:
            sections = _Sections(path, f)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    meta = sections.meta_values()
    columns = sections.client_columns()
    try:
        population = make_population(
            datasizes=columns["d"],
            grad_bounds=columns["G"],
            cost_coeffs=columns["c"],
            intrinsic_prefs=columns["v"],
            q_maxes=columns["q_max"],
        )
    except PopulationError as exc:
        raise PopulationError(f"{path}: {exc}") from None
    f_locals = columns["F_local"]
    return population, None if None in f_locals else f_locals, meta


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
    of fields, or a field that does not parse, is named by its line; a file
    with no rows is an error too."""
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
    if not rows:
        raise ValueError(f"{path}: no metrics rows")
    return rows
