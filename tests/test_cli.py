import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpricing import experiment as exp
from fedpricing import game
from fedpricing.cli import main
from fedpricing.core import GameConstants, make_population
from fedpricing.formats import read_population, write_population
from fedpricing.game import BracketError
from oracles import write_idx


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAST_ARGS = [
    "--config", None,  # placeholder replaced per test
]


def write_fast_config(tmp_path):
    cfg = tmp_path / "fast.yaml"
    cfg.write_text(
        "n_clients: 3\ndim: 5\nclasses: 3\ntotal_samples: 90\n"
        "rounds: 6\nlocal_steps: 2\nbatch: 8\nrepeats: 1\n"
        "pilot_rounds: 2\nalpha_pilot_seeds: 1\n"
        "budget: 20.0\nmean_cost: 5.0\nmean_value: 1.0\neval_stride: 3\n"
    )
    return str(cfg)


def test_pipeline_subcommands(tmp_path, capsys):
    cfg = write_fast_config(tmp_path)
    out = str(tmp_path / "run")

    code, stdout, _ = run_cli(["gen-data", "--config", cfg, "--out", out], capsys)
    assert code == 0
    assert "dataset.bin" in stdout
    dataset = os.path.join(out, "dataset.bin")
    assert os.path.exists(dataset)

    code, stdout, _ = run_cli(
        ["calibrate", "--config", cfg, "--dataset", dataset, "--out", out], capsys
    )
    assert code == 0
    population = os.path.join(out, "population.ini")
    assert os.path.exists(population)
    assert "alpha=" in stdout

    code, stdout, _ = run_cli(
        ["solve", "--config", cfg, "--population", population,
         "--scheme", "optimal", "--out", out], capsys
    )
    assert code == 0
    manifest = os.path.join(out, "equilibrium_optimal.json")
    assert os.path.exists(manifest)
    with open(manifest) as f:
        payload = json.load(f)
    assert payload["scheme"] == "optimal"
    assert payload["budget"] == 20.0

    code, stdout, _ = run_cli(
        ["train", "--config", cfg, "--dataset", dataset, "--population", population,
         "--equilibrium", manifest, "--out", out, "--seed", "5"], capsys
    )
    assert code == 0
    assert os.path.exists(os.path.join(out, "metrics_optimal_seed5.csv"))


def test_experiment_and_report_commands(tmp_path, capsys):
    cfg = write_fast_config(tmp_path)
    out = str(tmp_path / "exp")
    code, stdout, _ = run_cli(["experiment", "--config", cfg, "--out", out], capsys)
    assert code == 0
    assert "target loss" in stdout
    assert os.path.exists(os.path.join(out, "summary.json"))

    code, stdout, _ = run_cli(["report", "--run-dir", out], capsys)
    assert code == 0
    assert "optimal" in stdout and "uniform" in stdout and "weighted" in stdout


def test_population_meta_is_the_game_constants(tmp_path, capsys):
    cfg_path = write_fast_config(tmp_path)
    cfg = exp.build_config(config_path=cfg_path)
    constants = exp.calibrate_population(exp.generate_dataset(cfg), cfg)[1]
    exp_dir, cal_dir = tmp_path / "exp", tmp_path / "cal"
    assert run_cli(["experiment", "--config", cfg_path, "--out", str(exp_dir)], capsys)[0] == 0
    assert run_cli(["calibrate", "--config", cfg_path, "--dataset", str(exp_dir / "dataset.bin"),
                    "--out", str(cal_dir)], capsys)[0] == 0
    # Fallbacks unlike every calibrated value, so a constant missing from
    # [meta] would change the rebuilt constants.
    fallback = {**cfg, "alpha_floor": 2.0 * constants.alpha + 1.0, "beta": constants.beta + 1.0,
                "rounds": constants.rounds + 1, "local_steps": constants.local_steps + 1,
                "q_floor": constants.q_floor / 2.0}
    for run_dir in (exp_dir, cal_dir):
        _, _, meta = read_population(str(run_dir / "population.ini"))
        assert list(meta) == [f.name for f in dataclasses.fields(GameConstants)]
        assert exp.game_constants(fallback, meta) == constants


def test_missing_file_is_reported_not_raised(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["calibrate", "--dataset", str(tmp_path / "nope.bin"), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "error:" in stderr


def test_bad_config_key_is_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("bogus: 1\n")
    code, _, stderr = run_cli(
        ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")], capsys
    )
    assert code == 1
    assert "bogus" in stderr


def test_env_var_supplies_default(tmp_path, capsys, monkeypatch):
    cfg = write_fast_config(tmp_path)
    out = str(tmp_path / "envrun")
    monkeypatch.setenv("FEDPRICING_OUT", out)
    # Re-import the parser builder so env defaults are re-evaluated.
    code, stdout, _ = run_cli(["gen-data", "--config", cfg], capsys)
    assert code == 0
    assert os.path.exists(os.path.join(out, "dataset.bin"))


def test_infeasible_budget_reported(tmp_path, capsys):
    cfg = write_fast_config(tmp_path)
    out = str(tmp_path / "run2")
    run_cli(["gen-data", "--config", cfg, "--out", out], capsys)
    run_cli(["calibrate", "--config", cfg,
             "--dataset", os.path.join(out, "dataset.bin"), "--out", out], capsys)
    code, _, stderr = run_cli(
        ["solve", "--config", cfg, "--population", os.path.join(out, "population.ini"),
         "--scheme", "optimal", "--budget=-1e9", "--out", out], capsys
    )
    assert code == 1
    assert "infeasible" in stderr


def run_module(args, env_vars=None):
    """``python -m fedpricing.cli`` in a fresh interpreter, with the package from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **(env_vars or {}))
    return subprocess.run([sys.executable, "-m", "fedpricing.cli"] + args,
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("var,value,message", [
    ("FEDPRICING_SEED", "abc", "error: FEDPRICING_SEED: expected int, got 'abc'"),
    ("FEDPRICING_BUDGET", "x", "error: FEDPRICING_BUDGET: expected float, got 'x'"),
])
def test_a_bad_environment_value_is_one_error_line(tmp_path, var, value, message):
    # Each variable is read by a subcommand that has its flag.
    args = {"FEDPRICING_SEED": ["gen-data", "--out", str(tmp_path)],
            "FEDPRICING_BUDGET": ["solve", "--population", str(tmp_path / "population.ini"),
                                  "--out", str(tmp_path)]}[var]
    proc = run_module(args, {var: value})
    assert proc.returncode != 0
    assert proc.stderr.splitlines() == [message], proc.stderr


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    """A run directory of the fast config's experiment."""
    root = tmp_path_factory.mktemp("fast")
    out = str(root / "run")
    assert main(["experiment", "--config", write_fast_config(root), "--out", out]) == 0
    return out


def test_report_reads_no_variable_of_another_subcommand(fast_run, capsys, monkeypatch):
    monkeypatch.setenv("FEDPRICING_SEED", "abc")
    monkeypatch.setenv("FEDPRICING_BUDGET", "x")
    code, stdout, stderr = run_cli(["report", "--run-dir", fast_run], capsys)
    assert (code, stderr) == (0, "")
    assert "optimal" in stdout


def one_error_line(stderr: str) -> str:
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    return lines[0]


@pytest.mark.parametrize("key", ["scheme", "budget"])
def test_a_manifest_without_its_scheme_or_budget_is_named(fast_run, tmp_path, capsys, key):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = run_dir / "equilibrium_optimal.json"
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    code, _, stderr = run_cli(["report", "--run-dir", str(run_dir)], capsys)
    assert code == 1
    assert one_error_line(stderr) == f"error: {path}: missing key '{key}'"


def damage_manifest(run_dir, edit):
    path = run_dir / "equilibrium_optimal.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


def damage_metrics(run_dir, edit):
    path = run_dir / "metrics_optimal_seed100.csv"
    lines = path.read_text().splitlines()
    lines[1] = edit(lines[1])
    path.write_text("\n".join(lines) + "\n")
    return path


def report_error(run_dir, capsys) -> str:
    code, _, stderr = run_cli(["report", "--run-dir", str(run_dir)], capsys)
    assert code == 1
    return one_error_line(stderr)


def test_report_names_a_malformed_manifest(fast_run, tmp_path, capsys):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = run_dir / "equilibrium_optimal.json"
    path.write_text(path.read_text().replace('"scheme"', "scheme", 1))
    assert report_error(run_dir, capsys).startswith(f"error: {path}: not valid JSON: ")


@pytest.mark.parametrize("key,value,message", [
    ("q", "x", ": client 1: q: expected a number, got 'x'"),
    ("P", "x", ": client 1: P: expected a number, got 'x'"),
    ("payment", "x", ": client 1: payment: expected a number, got 'x'"),
    ("q", 1.5, ": client 1: participation probability 1.5 outside [0, 1]"),
    ("interior", "no", ": client 1: interior: expected true or false, got 'no'"),
    ("n", 0, ": client numbers must run from 0 to 2, each once"),
], ids=["q", "P", "payment", "q-above-1", "interior", "n-twice"])
def test_report_names_a_bad_manifest_value(fast_run, tmp_path, capsys, key, value, message):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = damage_manifest(run_dir, lambda payload: payload["clients"][1].update({key: value}))
    assert report_error(run_dir, capsys) == f"error: {path}{message}"


@pytest.mark.parametrize("edit,message", [
    (lambda payload: payload["clients"].pop(), " has 2 clients, but {population} has 3"),
    (lambda payload: payload.update(clients=[1, 2, 3]), ": 'int' object is not subscriptable"),
], ids=["too-few", "not-objects"])
def test_report_names_a_manifest_with_bad_clients(fast_run, tmp_path, capsys, edit, message):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = damage_manifest(run_dir, edit)
    message = message.format(population=run_dir / "population.ini")
    assert report_error(run_dir, capsys) == f"error: {path}{message}"


@pytest.mark.parametrize("key,value,message", [
    ("scheme", "nope", "scheme: expected one of optimal, uniform, weighted, got 'nope'"),
    ("budget", "x", "budget: expected a finite number, got 'x'"),
    ("budget", float("nan"), "budget: expected a finite number, got nan"),
    ("budget", True, "budget: expected a finite number, got True"),
], ids=["scheme-nope", "budget-x", "budget-nan", "budget-bool"])
def test_train_rejects_a_manifest_scheme_or_budget(fast_run, tmp_path, capsys, key, value,
                                                   message):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = damage_manifest(run_dir, lambda payload: payload.update({key: value}))
    out = tmp_path / "train"
    code, _, stderr = run_cli(["train", "--dataset", str(run_dir / "dataset.bin"),
                               "--population", str(run_dir / "population.ini"),
                               "--equilibrium", str(path), "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr) == f"error: {path}: {message}"
    assert not out.exists()


def test_train_rejects_a_manifest_with_too_few_clients(fast_run, tmp_path, capsys):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = damage_manifest(run_dir, lambda payload: payload["clients"].pop())
    out = tmp_path / "train"
    code, _, stderr = run_cli(["train", "--dataset", str(run_dir / "dataset.bin"),
                               "--population", str(run_dir / "population.ini"),
                               "--equilibrium", str(path), "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr) == (
        f"error: {path} has 2 clients, but {run_dir / 'population.ini'} has 3")
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    (lambda row: ",".join(row.split(",")[:5] + ["abc"] + row.split(",")[6:]),
     "loss: expected a number, got 'abc'"),
    (lambda row: ",".join(row.split(",")[:2] + ["zero"] + row.split(",")[3:]),
     "round: expected an integer, got 'zero'"),
    (lambda row: ",".join(row.split(",")[:5]), "expected 7 fields, got 5"),
], ids=["loss-abc", "round-zero", "short-row"])
def test_report_names_a_bad_metrics_row(fast_run, tmp_path, capsys, edit, message):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = damage_metrics(run_dir, edit)
    assert report_error(run_dir, capsys) == f"error: {path}: line 2: {message}"


def test_report_names_a_config_that_is_not_a_mapping(fast_run, tmp_path, capsys):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = run_dir / "config.yaml"
    path.write_text("- rounds\n- 6\n")
    assert report_error(run_dir, capsys) == (
        f"error: {path}: expected a mapping of config keys, got list")


@pytest.mark.parametrize("line,message", [
    ("target_loss: abc", "target_loss must be a finite number or null, got 'abc'"),
    ("target_loss: .nan", "target_loss must be a finite number or null, got nan"),
    ("sim_t_base: [1]", "sim_t_base must be a finite number, got [1]"),
], ids=["target_loss-abc", "target_loss-nan", "sim_t_base-list"])
def test_report_names_a_bad_config_value(fast_run, tmp_path, capsys, line, message):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = run_dir / "config.yaml"
    key = line.split(":")[0]
    path.write_text(re.sub(rf"(?m)^{key}: .*$", line, path.read_text()))
    assert report_error(run_dir, capsys) == f"error: {path}: {message}"


def test_report_leaves_a_config_key_the_file_does_not_set_unset(fast_run, tmp_path, capsys):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = run_dir / "config.yaml"
    path.write_text(re.sub(r"(?m)^(target_loss|sim_t_base|sim_t_comp): .*\n", "",
                           path.read_text()))
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["sim_time_constants"] == {"t_base": None, "t_comp": None}
    assert summary["target_loss"] == max(summary["mean_final_loss"].values())


def small_population_file(tmp_path) -> str:
    path = str(tmp_path / "population.ini")
    population = make_population([4, 2], [1.0, 2.0], [2.0, 1.0], [0.1, 0.0], [1.0, 1.0])
    write_population(path, population, meta={"alpha": 1.0, "beta": 0.0, "rounds": 10.0,
                                             "local_steps": 2.0, "q_floor": 0.01})
    return path


@pytest.mark.parametrize("edit,message", [
    (("G = 2.0", "G = two"), "[client 1] G: expected a number, got 'two'"),
    (("G = 2.0\n", ""), "[client 1] has no G"),
    (("alpha = 1.0", "alpha = "), "[meta] alpha: expected a number, got ''"),
], ids=["not-a-number", "missing", "meta"])
def test_a_population_value_that_is_not_a_number_is_named(tmp_path, capsys, edit, message):
    path = small_population_file(tmp_path)
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace(*edit))
    code, _, stderr = run_cli(["solve", "--population", path, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert one_error_line(stderr) == f"error: {path}: {message}"


def test_a_malformed_config_file_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("n_clients: [3, 4\n")
    code, _, stderr = run_cli(["gen-data", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert str(cfg) in one_error_line(stderr)


@pytest.mark.parametrize("text,kind", [("5\n", "int"), ("- {rounds: 6}\n", "list"),
                                       ("rounds\n", "str")])
def test_a_config_file_that_is_not_a_mapping_is_one_error_line(tmp_path, capsys, text, kind):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    code, _, stderr = run_cli(["gen-data", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert one_error_line(stderr) == f"error: {cfg}: expected a mapping of config keys, got {kind}"


def test_a_budget_that_cannot_be_bracketed_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "nan.yaml"
    cfg.write_text("budget: .nan\n")
    code, _, stderr = run_cli(["solve", "--config", str(cfg),
                               "--population", small_population_file(tmp_path),
                               "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "budget must be a finite number, got nan" in one_error_line(stderr)


def test_a_bracket_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    def unbracketed(*args, **kwargs):
        raise BracketError("could not bracket the budget dual")

    monkeypatch.setattr(exp, "solve_scheme", unbracketed)
    code, _, stderr = run_cli(["solve", "--population", small_population_file(tmp_path),
                               "--out", str(tmp_path / "solve")], capsys)
    assert code == 1
    assert one_error_line(stderr) == "error: could not bracket the budget dual"
    assert not (tmp_path / "solve").exists()


# Doubled from 1 for 200 trials, the price scale's last trial, 2^199, still
# spends far less than the budget on the small population; the line names the
# next doubling, 2^200, and the spend there.
@pytest.mark.parametrize("scheme,spend", [("uniform", "3.2138760885179806e+60"),
                                          ("weighted", "9.641628265553942e+60")])
def test_a_budget_no_baseline_price_can_exhaust_is_one_error_line(tmp_path, capsys, scheme,
                                                                  spend):
    code, _, stderr = run_cli(["solve", "--scheme", scheme, "--budget", "1e300",
                               "--population", small_population_file(tmp_path),
                               "--out", str(tmp_path / "solve")], capsys)
    assert code == 1
    assert one_error_line(stderr) == ("error: baseline pricing cannot exhaust budget 1e+300: "
                                      f"spend(1.6069380442589903e+60) = {spend}")
    assert not (tmp_path / "solve").exists()


def test_a_dual_the_doubling_cannot_bracket_is_one_error_line(tmp_path, capsys, monkeypatch):
    """Two doublings of the cap dual, 0.00555..., leave the spend above the budget."""
    monkeypatch.setattr(game, "_OPTS", game.SolverOptions(max_iter=2))
    code, _, stderr = run_cli(["solve", "--scheme", "optimal", "--budget", "1",
                               "--population", small_population_file(tmp_path),
                               "--out", str(tmp_path / "solve")], capsys)
    assert code == 1
    assert one_error_line(stderr) == ("error: could not bracket the budget dual: "
                                      "spend(0.02220988339811216) = 2.8389653871879985 > 1.0")
    assert not (tmp_path / "solve").exists()


@pytest.mark.parametrize("budget", ["1", "100"])
def test_a_cap_dual_that_underflows_is_one_error_line(tmp_path, capsys, budget):
    """alpha a^2 G^2 is 0 in floating point for G = 1e-300; at budget 100 the caps bind."""
    path = str(tmp_path / "population.ini")
    population = make_population([4, 2], [1.0, 1e-300], [2.0, 1.0], [0.1, 0.0], [1.0, 1.0])
    write_population(path, population, meta={"alpha": 1.0, "beta": 0.0, "rounds": 10.0,
                                             "local_steps": 2.0, "q_floor": 0.01})
    out = tmp_path / "solve"
    code, _, stderr = run_cli(["solve", "--scheme", "optimal", "--budget", budget,
                               "--population", path, "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr).startswith("error: client 1: alpha a^2 G^2 underflows to 0")
    assert not out.exists()
    for scheme in ("uniform", "weighted"):
        code, _, _ = run_cli(["solve", "--scheme", scheme, "--budget", budget,
                              "--population", path, "--out", str(out)], capsys)
        assert code == 0 and (out / f"equilibrium_{scheme}.json").exists()


def test_an_idx_header_claiming_more_than_the_file_is_one_error_line(tmp_path, capsys):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 65535, 65535) + b"\x00" * 10)
    labels.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    cfg = tmp_path / "idx.yaml"
    cfg.write_text(f"idx_images: {images}\nidx_labels: {labels}\n")
    out = tmp_path / "run"
    code, _, stderr = run_cli(["gen-data", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert "truncated image data" in one_error_line(stderr)
    assert not out.exists()


def test_a_label_filter_naming_no_label_is_one_error_line(tmp_path, capsys):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx(str(images), str(labels), np.zeros((60, 16)), np.arange(60) % 3, 4, 4)
    cfg = tmp_path / "idx.yaml"
    cfg.write_text(f"idx_images: {images}\nidx_labels: {labels}\nlabel_filter: [7]\n")
    out = tmp_path / "run"
    code, _, stderr = run_cli(["gen-data", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr) == ("error: label_filter [7] names no label in the data "
                                      "(its labels: [0, 1, 2])")
    assert not out.exists()


IDX_PARTNERS = {"idx_images": "idx_labels", "idx_labels": "idx_images",
                "idx_test_images": "idx_test_labels", "idx_test_labels": "idx_test_images"}


@pytest.mark.parametrize("command", ["gen-data", "experiment"])
@pytest.mark.parametrize("key", sorted(IDX_PARTNERS))
def test_an_idx_path_without_its_partner_is_one_error_line_naming_it(tmp_path, capsys,
                                                                    command, key):
    paths = {"images": tmp_path / "images.idx", "labels": tmp_path / "labels.idx"}
    rng = np.random.default_rng(0)
    write_idx(str(paths["images"]), str(paths["labels"]), rng.random((60, 16)),
              rng.integers(0, 3, size=60), 4, 4)
    cfg = fast_config_with(tmp_path, f"{key}: {paths[key.rsplit('_', 1)[1]]}")
    out = tmp_path / "run"
    code, _, stderr = run_cli([command, "--config", cfg, "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr) == f"error: {IDX_PARTNERS[key]} must be set with {key}, got None"
    assert not out.exists()


# Keys read only with idx_images, each set without it; the test paths come as
# a pair, since one alone is named by its partner rule first.
IDX_ONLY_KEYS = {"test-pair": ("idx_test_images", "idx_test_labels"),
                 "subsample": ("subsample",), "label_filter": ("label_filter",)}


@pytest.mark.parametrize("command", ["gen-data", "experiment"])
@pytest.mark.parametrize("case", sorted(IDX_ONLY_KEYS))
def test_an_idx_only_key_without_idx_images_is_one_error_line_naming_it(tmp_path, capsys,
                                                                       command, case):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    rng = np.random.default_rng(0)
    write_idx(str(images), str(labels), rng.random((60, 16)), rng.integers(0, 3, size=60), 4, 4)
    values = {"idx_test_images": images, "idx_test_labels": labels, "subsample": 7,
              "label_filter": [0, 1]}
    keys = IDX_ONLY_KEYS[case]
    cfg = pathlib.Path(write_fast_config(tmp_path))
    cfg.write_text(cfg.read_text() + "".join(f"{key}: {values[key]}\n" for key in keys))
    out = tmp_path / "run"
    code, _, stderr = run_cli([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr) == f"error: idx_images must be set with {keys[0]}, got None"
    assert not out.exists()


@pytest.mark.parametrize("change,message", [("count", "has 2 clients, but"),
                                            ("datasize", "client 1 has d = ")])
def test_train_rejects_a_population_that_does_not_match_the_dataset(tmp_path, capsys,
                                                                   change, message):
    cfg = write_fast_config(tmp_path)
    out = str(tmp_path / "run")
    run_cli(["gen-data", "--config", cfg, "--out", out], capsys)
    dataset = os.path.join(out, "dataset.bin")
    run_cli(["calibrate", "--config", cfg, "--dataset", dataset, "--out", out], capsys)
    population = os.path.join(out, "population.ini")
    run_cli(["solve", "--config", cfg, "--population", population, "--out", out], capsys)
    pop, f_locals, meta = read_population(population)
    keep = slice(0, 2) if change == "count" else slice(None)
    d = pop.d.copy()
    if change == "datasize":
        d[1] += 1
    wrong = make_population(d[keep], pop.G[keep], pop.c[keep], pop.v[keep], pop.q_max[keep])
    write_population(population, wrong, f_locals[keep], meta)
    proc = run_module(["train", "--config", cfg, "--dataset", dataset, "--population", population,
                       "--equilibrium", os.path.join(out, "equilibrium_optimal.json"),
                       "--out", out])
    assert proc.returncode != 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert message in lines[0]
    assert "Traceback" not in proc.stderr
    assert not any(name.startswith("metrics_") for name in os.listdir(out))


@pytest.mark.parametrize("where,message", [("header", "truncated header"), ("body", "truncated")])
def test_truncated_dataset_is_one_error_line(tmp_path, capsys, where, message):
    cfg = write_fast_config(tmp_path)
    out = str(tmp_path / "run")
    run_cli(["gen-data", "--config", cfg, "--out", out], capsys)
    payload = (tmp_path / "run" / "dataset.bin").read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(payload[:10] if where == "header" else payload[:len(payload) // 2])
    proc = run_module(["calibrate", "--config", cfg, "--dataset", str(cut),
                       "--out", str(tmp_path / "cal")])
    assert proc.returncode != 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert message in lines[0]
    assert "Traceback" not in proc.stderr


def fast_config_with(tmp_path, line: str) -> str:
    """The fast config with the key of ``line`` set by that line."""
    path = pathlib.Path(write_fast_config(tmp_path))
    key = line.split(":")[0] + ":"
    kept = [old for old in path.read_text().splitlines() if not old.startswith(key)]
    path.write_text("\n".join(kept + [line]) + "\n")
    return str(path)


@pytest.mark.parametrize("line,message", [
    ("rounds: abc", "error: rounds must be an integer, got 'abc'"),
    ("rounds: true", "error: rounds must be an integer, got True"),
    ("eta0: .inf", "error: eta0 must be a finite number, got inf"),
], ids=["rounds-abc", "rounds-bool", "eta0-inf"])
def test_a_bad_training_value_is_one_error_line_before_training(tmp_path, capsys, monkeypatch,
                                                                line, message):
    def never(*args, **kwargs):
        raise AssertionError("the gradient pilot ran")

    monkeypatch.setattr(exp, "estimate_grad_bounds", never)
    cfg = fast_config_with(tmp_path, line)
    code, _, stderr = run_cli(["experiment", "--config", cfg, "--out", str(tmp_path / "run")],
                              capsys)
    assert code == 1
    assert one_error_line(stderr) == message
    assert "Traceback" not in stderr


@pytest.mark.parametrize("line,message", [
    ("seed: abc", "error: seed must be an integer, got 'abc'"),
    ("n_clients: abc", "error: n_clients must be an integer, got 'abc'"),
    ("pilot_rounds: abc", "error: pilot_rounds must be an integer, got 'abc'"),
    ("budget: .nan", "error: budget must be a finite number, got nan"),
    ("repeats: true", "error: repeats must be an integer, got True"),
    ("repeats: 0", "error: repeats must be >= 1, got 0"),
    ("target_loss: abc", "error: target_loss must be a finite number or null, got 'abc'"),
    ("target_loss: .inf", "error: target_loss must be a finite number or null, got inf"),
    ("subsample: 0", "error: subsample must be a positive integer or null, got 0"),
    ("subsample: 2.5", "error: subsample must be a positive integer or null, got 2.5"),
    ("label_filter: 3", "error: label_filter must be a list of integers or null, got 3"),
    ("label_filter: [1, a]",
     "error: label_filter must be a list of integers or null, got [1, 'a']"),
    ("idx_images: 5", "error: idx_images must be a path or null, got 5"),
    ("idx_test_labels: [x]", "error: idx_test_labels must be a path or null, got ['x']"),
    ("alpha_pilot_q: 1.5", "error: alpha_pilot_q must be in (0, 1], got 1.5"),
    ("alpha_pilot_q: 0.0", "error: alpha_pilot_q must be in (0, 1], got 0.0"),
    ("q_max: 1.5", "error: q_max must be in (0, 1], got 1.5"),
    ("q_max: 0.001", "error: q_max must be above q_floor 0.01, got 0.001"),
    ("q_floor: 2.0", "error: q_floor must be in (0, 1), got 2.0"),
    ("mean_cost: -5.0", "error: mean_cost must be positive, got -5.0"),
    ("mean_value: -1.0", "error: mean_value must be nonnegative, got -1.0"),
    ("alpha_floor: 0.0", "error: alpha_floor must be positive, got 0.0"),
    ("beta: -1.0", "error: beta must be nonnegative, got -1.0"),
    ("synth_alpha: -1.0", "error: synth_alpha must be nonnegative, got -1.0"),
    ("synth_beta: -1.0", "error: synth_beta must be nonnegative, got -1.0"),
    ("seed: -1", "error: seed must be >= 0, got -1"),
    ("data_seed: -1", "error: data_seed must be >= 0, got -1"),
    ("economics_seed: -1", "error: economics_seed must be >= 0, got -1"),
    ("alpha_pilot_seeds: 0", "error: alpha_pilot_seeds must be >= 1, got 0"),
    ("pilot_rounds: 0", "error: pilot_rounds must be >= 1, got 0"),
    ("classes: 1", "error: classes must be >= 2, got 1"),
    ("classes: 0", "error: classes must be >= 2, got 0"),
    ("budget: -5.0", "error: budget must be nonnegative, got -5.0"),
    ("eta0: -1.0", "error: eta0 must be positive, got -1.0"),
    ("sim_t_base: -1.0", "error: sim_t_base must be nonnegative, got -1.0"),
], ids=["seed-abc", "n_clients-abc", "pilot_rounds-abc", "budget-nan", "repeats-bool",
        "repeats-0", "target_loss-abc", "target_loss-inf", "subsample-0", "subsample-real",
        "label_filter-int", "label_filter-str", "idx_images-int", "idx_test_labels-list",
        "alpha_pilot_q-above-1", "alpha_pilot_q-0", "q_max-above-1", "q_max-below-floor",
        "q_floor-above-1", "mean_cost-negative", "mean_value-negative", "alpha_floor-0",
        "beta-negative", "synth_alpha-negative", "synth_beta-negative", "seed-negative",
        "data_seed-negative", "economics_seed-negative", "alpha_pilot_seeds-0", "pilot_rounds-0",
        "classes-1", "classes-0", "budget-negative", "eta0-negative", "sim_t_base-negative"])
def test_a_bad_config_value_is_one_error_line_before_any_work(tmp_path, capsys, monkeypatch,
                                                              line, message):
    def never(*args, **kwargs):
        raise AssertionError("the dataset was generated")

    monkeypatch.setattr(exp, "generate_dataset", never)
    out = tmp_path / "run"
    code, _, stderr = run_cli(["experiment", "--config", fast_config_with(tmp_path, line),
                               "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr) == message
    assert not out.exists()


# One rule of each config key that no other test names, with its error text;
# ``batch: null`` is accepted.
@pytest.mark.parametrize("line,message", [
    ("dim: 0", "dim must be >= 1, got 0"),
    ("n_clients: 0", "n_clients must be >= 1, got 0"),
    ("local_steps: 0", "local_steps must be >= 1, got 0"),
    ("batch: 0", "batch must be >= 1, got 0"),
    ("eval_stride: 0", "eval_stride must be >= 1, got 0"),
    ("rounds: 0", "rounds must be >= 1, got 0"),
    ("l2: -1.0", "l2 must be nonnegative, got -1.0"),
    ("decay: 0.0", "decay must be positive, got 0.0"),
    ("sim_t_comp: -1.0", "sim_t_comp must be nonnegative, got -1.0"),
    ("q_floor: 0.0", "q_floor must be in (0, 1), got 0.0"),
    ("batch: null", None),
])
def test_a_config_rule_names_its_key(tmp_path, line, message):
    path = fast_config_with(tmp_path, line)
    if message is None:
        ((key, value),) = yaml.safe_load(line).items()
        assert exp.build_config(config_path=path)[key] == value
    else:
        with pytest.raises(ValueError) as info:
            exp.build_config(config_path=path)
        assert str(info.value) == message


@pytest.mark.parametrize("line,message", [
    ("lr_schedule: 5", "error: unknown lr_schedule 5"),
    ("lr_schedule: cosine", "error: unknown lr_schedule 'cosine'"),
], ids=["int", "unknown-name"])
def test_a_bad_lr_schedule_is_one_error_line_before_any_file(tmp_path, capsys, line, message):
    out = tmp_path / "run"
    out.mkdir()
    code, _, stderr = run_cli(["experiment", "--config", fast_config_with(tmp_path, line),
                               "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr) == message
    assert list(out.iterdir()) == []


def test_train_rejects_zero_repeats(fast_run, tmp_path, capsys):
    out = tmp_path / "train"
    code, _, stderr = run_cli(
        ["train", "--dataset", os.path.join(fast_run, "dataset.bin"),
         "--population", os.path.join(fast_run, "population.ini"),
         "--equilibrium", os.path.join(fast_run, "equilibrium_optimal.json"),
         "--repeats", "0", "--out", str(out)], capsys)
    assert code == 1
    assert one_error_line(stderr) == "error: repeats must be >= 1, got 0"
    assert not out.exists()


def test_a_config_key_set_twice_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "twice.yaml"
    cfg.write_text("rounds: 6\nbudget: 20.0\nrounds: 7\n")
    out = tmp_path / "run"
    code, _, stderr = run_cli(["gen-data", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    line = one_error_line(stderr)
    assert str(cfg) in line and "duplicate key 'rounds'" in line
    assert not out.exists()


def test_the_subcommands_write_the_run_directory_experiment_writes(tmp_path, capsys):
    cfg = fast_config_with(tmp_path, "repeats: 2")
    staged, whole = tmp_path / "staged", tmp_path / "whole"
    out = ["--out", str(staged)]
    dataset, population = str(staged / "dataset.bin"), str(staged / "population.ini")
    assert main(["gen-data", "--config", cfg] + out) == 0
    assert main(["calibrate", "--config", cfg, "--dataset", dataset] + out) == 0
    for scheme in exp.SCHEMES:
        assert main(["solve", "--config", cfg, "--population", population,
                     "--scheme", scheme] + out) == 0
        assert main(["train", "--config", cfg, "--dataset", dataset, "--population", population,
                     "--equilibrium", str(staged / f"equilibrium_{scheme}.json")] + out) == 0
    assert main(["report", "--run-dir", str(staged)]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(whole)]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(whole))
    assert len(names) == 13 and sorted(os.listdir(staged)) == names
    for name in names:
        assert (staged / name).read_bytes() == (whole / name).read_bytes(), name


NUMERIC_KEYS = sorted(key for key, default in exp.DEFAULT_CONFIG.items()
                      if isinstance(default, (int, float)) and not isinstance(default, bool))
# Wrong kinds, non-finite values, and small values at or below 0: a value the
# config accepts runs the whole 3-client pipeline, in a fraction of a second.
FUZZ_VALUES = ["abc", True, [1], 0.5, math.nan, math.inf, -math.inf, -1, -1.0, 0, 0.0]


@settings(max_examples=120, deadline=None)
@given(key=st.sampled_from(NUMERIC_KEYS), value=st.sampled_from(FUZZ_VALUES))
def test_a_numeric_config_value_runs_or_stops_before_any_file(key, value):
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        cfg = yaml.safe_load(pathlib.Path(write_fast_config(root)).read_text())
        cfg[key] = value
        path = root / "fuzz.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = root / "run"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["experiment", "--config", str(path), "--out", str(out)])
        if code != 0:
            assert code == 1
            one_error_line(stderr.getvalue())
            assert not out.exists()


def population_text_with_meta(key: str, value: str):
    """An edit of a population file's text that sets ``[meta]`` ``key`` to ``value``."""
    return lambda text: re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text, count=1)


def population_text_with_client_value(client: int, key: str, value: str):
    """An edit of a population file's text that sets ``[client n]`` ``key`` to ``value``."""
    return lambda text: re.sub(rf"(?m)^(\[client {client}\]\n(?:[^\[\n].*\n)*?){key} = .*$",
                               rf"\g<1>{key} = {value}", text, count=1)


# Population files the INI parser or the game constants reject, each with
# what its error line says after the file's name.
BAD_POPULATION_FILES = {
    "only-a-bracket": (lambda text: "[\n", "File contains no section headers."),
    "first-line-dropped": (lambda text: text.split("\n", 1)[1],
                           "File contains no section headers."),
    "d-set-twice": (lambda text: text.replace("[client 1]\n", "[client 1]\nd = 3\n"),
                    "option 'd' in section 'client 1' already exists"),
    "rounds-inf": (population_text_with_meta("rounds", "inf"),
                   "[meta] rounds must be an integer, got inf"),
    "rounds-nan": (population_text_with_meta("rounds", "nan"),
                   "[meta] rounds must be an integer, got nan"),
    "rounds-fraction": (population_text_with_meta("rounds", "2.5"),
                        "[meta] rounds must be an integer, got 2.5"),
    "local-steps-fraction": (population_text_with_meta("local_steps", "1.5"),
                             "[meta] local_steps must be an integer, got 1.5"),
    "alpha-inf": (population_text_with_meta("alpha", "inf"),
                  "[meta] alpha must be a finite number, got inf"),
    "beta-inf": (population_text_with_meta("beta", "inf"),
                 "[meta] beta must be a finite number, got inf"),
    "percent": (population_text_with_client_value(1, "G", "2%"),
                "[client 1] G: expected a number, got '2%'"),
}


@pytest.mark.parametrize("edit,message", BAD_POPULATION_FILES.values(),
                         ids=BAD_POPULATION_FILES.keys())
def test_a_bad_population_file_is_one_error_line_naming_it(tmp_path, capsys, edit, message):
    path = pathlib.Path(small_population_file(tmp_path))
    path.write_text(edit(path.read_text()))
    out = tmp_path / "solve"
    code, _, stderr = run_cli(["solve", "--population", str(path), "--out", str(out)], capsys)
    assert code == 1
    line = one_error_line(stderr)
    assert line.startswith(f"error: {path}: ") and message in line, line
    assert not out.exists()


# Damage done to one run file: ``garbage`` is bytes that are neither UTF-8
# nor any of the formats.
RUN_FILE_DAMAGE = {
    "empty": lambda data: b"",
    "half": lambda data: data[:len(data) // 2],
    "one-byte": lambda data: data[:1],
    "first-line-dropped": lambda data: data.split(b"\n", 1)[-1],
    "first-line-only": lambda data: data.split(b"\n", 1)[0] + b"\n",
    "garbage": lambda data: bytes(range(255, -1, -7)) * 3,
}
RUN_FILES = ["config.yaml", "dataset.bin", "population.ini", "equilibrium_optimal.json",
             "metrics_optimal_seed100.csv"]


def check_subcommands_on(run_dir: pathlib.Path, out: pathlib.Path, damaged: pathlib.Path) -> None:
    """``report``, ``solve`` and ``train`` on the run directory each exit 0, or
    exit 1 with one ``error:`` line naming the ``damaged`` file; a traceback
    escapes ``main`` and fails."""
    inputs = ["--config", run_dir / "config.yaml", "--population", run_dir / "population.ini"]
    for command in (["report", "--run-dir", run_dir],
                    ["solve", *inputs, "--out", out],
                    ["train", *inputs, "--dataset", run_dir / "dataset.bin",
                     "--equilibrium", run_dir / "equilibrium_optimal.json", "--out", out]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([str(arg) for arg in command])
        if code != 0:
            assert code == 1, command
            line = one_error_line(stderr.getvalue())
            assert str(damaged) in line, (command, line)


@pytest.mark.parametrize("damage", RUN_FILE_DAMAGE)
@pytest.mark.parametrize("name", RUN_FILES)
def test_a_damaged_run_file_is_one_error_line_or_none(fast_run, tmp_path, name, damage):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = run_dir / name
    path.write_bytes(RUN_FILE_DAMAGE[damage](path.read_bytes()))
    check_subcommands_on(run_dir, tmp_path / "out", path)


def first_label_set_to_99(data: bytes) -> bytes:
    n_clients, dim = struct.unpack_from("<II", data, 8)
    (first_size,) = struct.unpack_from("<Q", data, 28)
    at = 28 + 8 * n_clients + 8 * first_size * dim
    return data[:at] + struct.pack("<q", 99) + data[at + 8:]


# Damage to dataset.bin that leaves its magic and version intact: header
# fields (n_clients at byte 8, n_test at byte 20), a training label, the last
# test label (the file's last 8 bytes), or the length.
DATASET_DAMAGE = {
    "n_clients-2^32-1": lambda data: data[:8] + struct.pack("<I", 2**32 - 1) + data[12:],
    "n_test-2^62": lambda data: data[:20] + struct.pack("<Q", 2**62) + data[28:],
    "no-clients": lambda data: data[:8] + struct.pack("<I", 0) + data[12:],
    "label-99": first_label_set_to_99,
    "test-label-99": lambda data: data[:-8] + struct.pack("<q", 99),
    "4-bytes-appended": lambda data: data + b"\0" * 4,
}


@pytest.mark.parametrize("damage", DATASET_DAMAGE)
def test_a_damaged_dataset_is_one_error_line_naming_it(fast_run, tmp_path, damage):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = run_dir / "dataset.bin"
    path.write_bytes(DATASET_DAMAGE[damage](path.read_bytes()))
    inputs = ["--config", run_dir / "config.yaml", "--dataset", path]
    for command in (["calibrate", *inputs, "--out", tmp_path / "cal"],
                    ["train", *inputs, "--population", run_dir / "population.ini",
                     "--equilibrium", run_dir / "equilibrium_optimal.json",
                     "--out", tmp_path / "out"]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([str(arg) for arg in command])
        assert code == 1, command
        assert one_error_line(stderr.getvalue()).startswith(f"error: {path}: "), command


@pytest.mark.parametrize("edit", [edit for edit, _ in BAD_POPULATION_FILES.values()],
                         ids=BAD_POPULATION_FILES.keys())
def test_a_bad_population_file_in_a_run_directory_is_one_error_line_or_none(fast_run, tmp_path,
                                                                            edit):
    run_dir = shutil.copytree(fast_run, tmp_path / "run")
    path = run_dir / "population.ini"
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    check_subcommands_on(run_dir, tmp_path / "out", path)
