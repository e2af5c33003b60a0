import json
import os
import subprocess
import sys

import pytest

from fedpricing.cli import main


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


@pytest.mark.parametrize("where,message", [("header", "truncated header"), ("body", "truncated")])
def test_truncated_dataset_is_one_error_line(tmp_path, capsys, where, message):
    cfg = write_fast_config(tmp_path)
    out = str(tmp_path / "run")
    run_cli(["gen-data", "--config", cfg, "--out", out], capsys)
    payload = (tmp_path / "run" / "dataset.bin").read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(payload[:10] if where == "header" else payload[:len(payload) // 2])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-m", "fedpricing.cli", "calibrate", "--config", cfg,
         "--dataset", str(cut), "--out", str(tmp_path / "cal")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert message in lines[0]
    assert "Traceback" not in proc.stderr
