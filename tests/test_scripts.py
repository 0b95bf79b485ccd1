"""The scripts run end to end, so an API change that breaks one fails here."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import machina.cli

ROOT = Path(__file__).resolve().parents[1]
LORENZ_TABLES = (
    "coin_machine_vs_split",
    "even_odd_vs_split",
    "mbw4_vs_q4",
    "q4_vs_d4",
    "q3_vs_d3",
    "concentrated_vs_spread",
    "crossing_pair",
)


def _run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_lorenz_figures_writes_the_seven_tables(tmp_path):
    done = _run_script("lorenz_figures.py", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.csv" for n in LORENZ_TABLES)
    for name in LORENZ_TABLES:
        assert (tmp_path / f"{name}.csv").read_text().startswith("verdict,")
    golden = ROOT / "tests" / "golden"
    for table, expected in (("q3_vs_d3", "lorenz_q3_d3"), ("mbw4_vs_q4", "lorenz_mbw4_q4")):
        assert (tmp_path / f"{table}.csv").read_bytes() == (golden / f"{expected}.csv").read_bytes()


def test_qubit_uniqueness_writes_the_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    done = _run_script("qubit_uniqueness.py", "--grid", "200", "--out", str(out))
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,matrix_residual,analytic_residual"
    assert len(lines) == 1 + 400


def test_qubit_uniqueness_refuses_a_grid_the_cli_refuses(tmp_path):
    done = _run_script("qubit_uniqueness.py", "--grid", "1_000", "--out", str(tmp_path / "s.csv"))
    assert done.returncode == 2
    assert "invalid int value: '1_000'" in done.stderr
    assert not (tmp_path / "s.csv").exists()


def test_lorenz_figures_refuses_a_bias_the_cli_refuses(tmp_path):
    done = _run_script("lorenz_figures.py", "--bias", "٠.٥", "--outdir", str(tmp_path / "out"))
    assert done.returncode == 2
    assert "--bias" in done.stderr
    assert not (tmp_path / "out").exists()


def test_qubit_uniqueness_exits_as_the_cli_does_on_a_small_grid(tmp_path):
    done = _run_script("qubit_uniqueness.py", "--grid", "50", "--out", str(tmp_path / "s.csv"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: grid must have at least 100 points, got 50\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "bias, reason",
    [("1.5", "bias must lie strictly between 0 and 1, got 1.5"), ("abc", "bad parameter 'abc'")],
)
def test_lorenz_figures_refuses_a_bias_in_one_line(tmp_path, bias, reason):
    done = _run_script("lorenz_figures.py", "--bias", bias, "--outdir", str(tmp_path / "out"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: --bias {bias!r}: ") and done.stderr.count("\n") == 1
    assert reason in done.stderr and "_plain" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_lorenz_figures_reads_a_fractional_bias(tmp_path):
    for bias in ("3/5", "0.6"):
        done = _run_script("lorenz_figures.py", "--bias", bias, "--outdir", str(tmp_path / bias[-1]))
        assert done.returncode == 0, done.stderr
    table = "coin_machine_vs_split.csv"
    assert (tmp_path / "5" / table).read_bytes() == (tmp_path / "6" / table).read_bytes()


def test_qubit_uniqueness_exits_one_when_memory_runs_out(tmp_path, monkeypatch, capsys):
    # in-process, with the sweep replaced: a grid that really runs out of memory is not probed
    def out_of_memory(grid):
        raise MemoryError

    path = ROOT / "scripts" / "qubit_uniqueness.py"
    spec = importlib.util.spec_from_file_location("qubit_uniqueness", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(machina.cli, "counterexample_report", out_of_memory)
    monkeypatch.setattr(sys, "argv", ["qubit_uniqueness.py", "--out", str(tmp_path / "s.csv")])
    assert script.main() == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("name", ["lorenz_figures.py", "qubit_uniqueness.py"])
def test_scripts_refuse_an_unknown_option_in_one_line(name):
    done = _run_script(name, "--bogus")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: unrecognized arguments: --bogus\n"


def test_lorenz_figures_makes_no_outdir_on_an_unknown_option(tmp_path):
    done = _run_script("lorenz_figures.py", "--bogus", "--outdir", str(tmp_path / "D"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: unrecognized arguments: --bogus\n"
    assert not (tmp_path / "D").exists()
