import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from fedpricing import experiment as exp
from fedpricing.cli import _constants_from_meta, main
from fedpricing.core import GameConstants, make_population
from fedpricing.formats import read_population, write_population


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
        assert _constants_from_meta(meta, fallback) == constants


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


def test_a_budget_that_cannot_be_bracketed_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "nan.yaml"
    cfg.write_text("budget: .nan\n")
    code, _, stderr = run_cli(["solve", "--config", str(cfg),
                               "--population", small_population_file(tmp_path),
                               "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "could not bracket the budget dual" in one_error_line(stderr)


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
