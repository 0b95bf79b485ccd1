
import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from machina import cli, qubit_family
from machina.cli import main
from machina.hmm import parse_model, renyi_memory, serialize_model
from machina.catalog import even_odd_split, mbw3
from machina.quantum import parse_quantum_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- validate

def test_validate_good_classical_file(tmp_path, capsys):
    path = tmp_path / "mbw3.hmm"
    path.write_text(serialize_model(mbw3()))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "row-stochastic: ok" in out
    assert "irreducible: ok" in out


def test_validate_bad_row_sum_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.hmm"
    path.write_text(
        "model: classical\nalphabet: 0 1\nstates: A\nt: A 0 0.4 A\nt: A 1 0.5 A\n"
    )
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "error" in err


def test_validate_garbage_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.hmm"
    path.write_text("garbage\n")
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_validate_refuses_a_written_model_whose_read_off_is_ambiguous(tmp_path, capsys):
    path = tmp_path / "twin.qm"
    code, _, _ = run(capsys, "qmachine", "biased_coin_split:0.6:b", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (1, "", "error: state 'B' under K['0']: 2 matching states\n")


def test_validate_missing_file_exits_two(capsys):
    code, _, _ = run(capsys, "validate", "/nonexistent/nothing.hmm")
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "entropy"])
def test_directory_as_model_exits_two(command, tmp_path, capsys):
    code, out, err = run(capsys, command, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_path_that_is_a_directory_exits_two(tmp_path, capsys):
    # the file is written before the report, so a failed write prints no report
    for argv in (("export", "--process"), ("epsilonize",), ("qmachine", "--process")):
        code, out, err = run(capsys, *argv, "mbw3", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_validate_quantum_file(tmp_path, capsys):
    path = tmp_path / "d3.qm"
    code, _, _ = run(capsys, "export", "--process", "d3", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "completeness-residual" in out


def test_a_short_file_claiming_a_large_dim_is_refused_before_any_allocation(tmp_path):
    # a 20000x20000 complex Kraus array needs 6 GiB; under a 2 GiB address-space
    # limit, allocating it before reading the 1-wide row would run out of memory
    path = tmp_path / "big.qm"
    path.write_text("model: quantum\ndim: 20000\nalphabet: 0\nkraus: 0 (1,0)\nstate: A (1,0)\n")
    limit = 2 << 30
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "machina.cli", "validate", str(path)],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: line 4: kraus for '0' is not 20000x20000\n"


# ----------------------------------------------------------------- entropy

def test_entropy_q3(capsys):
    code, out, _ = run(capsys, "entropy", "--process", "q3", "--alpha", "1")
    assert code == 0
    value = float(out.strip().split()[-1])
    assert value == pytest.approx(0.614, abs=0.005)


def test_entropy_d4_min_entropy(capsys):
    code, out, _ = run(capsys, "entropy", "--process", "d4", "--alpha", "inf")
    assert code == 0
    assert float(out.strip().split()[-1]) == pytest.approx(1.0, abs=1e-6)


def test_entropy_at_an_alpha_whose_power_sum_underflows(capsys):
    # mbw3's stationary state is uniform on three states, and (1/3)**700 is 0 in double
    code, out, err = run(capsys, "entropy", "--process", "mbw3", "--alpha", "700,1e308")
    assert (code, err) == (0, "")
    assert [row.split()[-1] for row in out.strip().split("\n")[1:]] == ["1.58496"] * 2


def test_an_integral_alpha_prints_in_full_only_while_exact(capsys):
    alphas = "1e308,1e20,9007199254740992,9007199254740991,2,0.5,inf"
    shown = ["1e+308", "1e+20", "9.0072e+15", "9007199254740991", "2", "0.5", "inf"]
    code, out, _ = run(capsys, "entropy", "--process", "mbw3", "--alpha", alphas)
    assert code == 0
    assert [row.split()[0] for row in out.strip().split("\n")[1:]] == shown
    code, out, _ = run(capsys, "entropy", "--process", "mbw3", "--alpha", alphas, "--format", "csv")
    assert code == 0
    assert [row.split(",")[0] for row in out.strip().split("\n")[1:]] == shown


def test_entropy_fair_coin_is_zero(capsys):
    code, out, _ = run(capsys, "entropy", "--process", "biased_coin:0.5", "--alpha", "1")
    assert code == 0
    assert float(out.strip().split()[-1]) == pytest.approx(0.0, abs=1e-12)


def test_one_state_entropy_prints_zero_not_minus_zero(capsys):
    code, out, _ = run(capsys, "entropy", "--process", "biased_coin:0.5")
    assert code == 0
    assert [line.split() for line in out.strip().split("\n")[1:]] == [
        [a, "0"] for a in ("0", "0.5", "1", "2", "inf")
    ]
    code, out, _ = run(capsys, "entropy", "--process", "biased_coin:0.5", "--format", "csv")
    assert code == 0
    assert out == "alpha,bits\n0,0\n0.5,0\n1,0\n2,0\ninf,0\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["wordprob", "--process", "mbw3", "--max-len", "\u0662"], "invalid int value: '\u0662'"),
        (["wordprob", "--process", "mbw3", "--max-len", "1_0"], "invalid int value: '1_0'"),
        (["counterexample", "--grid", "1_000"], "invalid int value: '1_000'"),
        (["counterexample", "--grid", "many"], "invalid int value: 'many'"),
        (["entropy", "--process", "biased_coin:\u0660.\u0665"], "bad parameter '\u0660.\u0665'"),
        (["entropy", "--process", "even_odd:0_5"], "bad parameter '0_5' for even_odd"),
    ],
)
def test_numbers_with_separators_or_non_ascii_digits_exit_two(capsys, argv, err):
    code, out, stderr = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err in stderr


def test_human_entropy_rows_keep_a_blank_after_a_long_alpha(capsys):
    code, out, _ = run(capsys, "entropy", "--process", "mbw3", "--alpha", "1e-320,0.3333333,0.5")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [row.split()[0] for row in rows] == ["9.99989e-321", "0.333333", "0.5"]
    assert all(len(row.split()) == 2 for row in rows)
    assert rows[2] == "0.5     1.58496"  # an alpha of up to 7 characters keeps its 8-wide column
    cli._print_entropies([(1e-320, 1.0, 2.0), (0.5, 1.0, 2.0)], "H_machine", "H_model")
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [row.split() for row in rows] == [["9.99989e-321", "1", "2"], ["0.5", "1", "2"]]
    assert rows[1] == "0.5     1             2"


def test_entropy_csv_format(capsys):
    code, out, _ = run(capsys, "entropy", "--process", "mbw4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,bits"
    assert lines[1] == "0,2"
    assert len(lines) == 6


def test_entropy_requires_exactly_one_model(capsys):
    code, _, err = run(capsys, "entropy")
    assert code == 2
    code, _, _ = run(capsys, "entropy", "mbw3", "--process", "mbw4")
    assert code == 2


def test_entropy_unknown_process(capsys):
    code, _, err = run(capsys, "entropy", "--process", "nonesuch")
    assert code == 2
    assert "unknown process" in err


# ------------------------------------------------------------ lorenz/compare

def test_lorenz_csv_q4_vs_d4(capsys):
    code, out, _ = run(capsys, "lorenz", "q4", "d4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "verdict,Incomparable"
    assert lines[1] == "k,cumulative_a,cumulative_b"
    assert len(lines) == 2 + 5  # padded to 4 events + the origin row


def test_lorenz_verdict_spectrum_majorizes_stationary(capsys):
    code, out, _ = run(capsys, "lorenz", "mbw4", "q4")
    assert code == 0
    assert "verdict: StrictlyMajorizedBy" in out


def test_compare_equivalent_to_itself(capsys):
    code, out, _ = run(capsys, "compare", "mbw3", "mbw3")
    assert code == 0
    assert "Equivalent" in out


def test_compare_reads_files(tmp_path, capsys):
    path = tmp_path / "m.hmm"
    path.write_text(serialize_model(mbw3()))
    code, out, _ = run(capsys, "compare", str(path), "mbw3")
    assert code == 0
    assert "Equivalent" in out


def test_compare_env_tolerance(capsys, monkeypatch):
    args = ("compare", "biased_coin_split:0.5:b", "biased_coin_split:0.6:b")
    code, out, _ = run(capsys, *args)
    assert "StrictlyMajorizedBy" in out
    monkeypatch.setenv("MACHINA_TOL", "0.2")
    code, out, _ = run(capsys, *args)
    assert "Equivalent" in out


def test_csv_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "lorenz", "q3", "d3", "--format", "csv")
    _, second, _ = run(capsys, "lorenz", "q3", "d3", "--format", "csv")
    assert first == second


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = {
    "entropy_mbw4.csv": ["entropy", "mbw4", "--format", "csv"],
    "entropy_q3.csv": ["entropy", "q3", "--format", "csv"],
    "lorenz_q3_d3.csv": ["lorenz", "q3", "d3", "--format", "csv"],
    "lorenz_mbw4_q4.csv": ["lorenz", "mbw4", "q4", "--format", "csv"],
    "wordprob_mbw3_4.csv": ["wordprob", "mbw3", "--max-len", "4", "--format", "csv"],
    "wordprob_even_odd_6.csv": ["wordprob", "even_odd:0.5", "--max-len", "6", "--format", "csv"],
    "export_mbw4.hmm": ["export", "--process", "mbw4"],
    "qmachine_mbw3.txt": ["qmachine", "--process", "mbw3"],
    "qmachine_even_odd.txt": ["qmachine", "--process", "even_odd"],
    "epsilonize_even_odd_split.txt": ["epsilonize", "even_odd_split:0.5"],
    "counterexample_150.csv": ["counterexample", "--grid", "150", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_output_matches_golden_bytes(name, capsys):
    """stdout is byte-for-byte what tests/golden recorded; regenerate only on purpose."""
    code, out, _ = run(capsys, *GOLDEN_COMMANDS[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


# --------------------------------------------------------------- epsilonize

def test_epsilonize_split_model(tmp_path, capsys):
    src = tmp_path / "split.hmm"
    src.write_text(serialize_model(even_odd_split(0.5)))
    out_path = tmp_path / "merged.hmm"
    code, out, _ = run(capsys, "epsilonize", str(src), "--out", str(out_path))
    assert code == 0
    assert "states: 5 -> 4" in out
    assert "StrictlyMajorizes" in out
    merged = parse_model(out_path.read_text())
    assert len(merged.states) == 4


def test_epsilonize_minimal_input_notes_identity(capsys):
    code, out, _ = run(capsys, "epsilonize", "mbw3")
    assert code == 0
    assert "already minimal" in out
    assert "states: 3 -> 3" in out


def test_epsilonize_merges_coin_split(capsys):
    code, out, _ = run(capsys, "epsilonize", "biased_coin_split:0.6:b")
    assert code == 0
    assert "states: 2 -> 1" in out


# ----------------------------------------------------------------- qmachine

def test_qmachine_report_and_export(tmp_path, capsys):
    out_path = tmp_path / "q3.qm"
    code, out, _ = run(capsys, "qmachine", "--process", "mbw3", "--out", str(out_path))
    assert code == 0
    assert "gram:" in out
    assert "StrictlyMajorizes" in out
    q = parse_quantum_model(out_path.read_text())
    assert renyi_memory(q, 1) == pytest.approx(0.6144, abs=0.005)


def test_qmachine_warns_on_redundant_input(capsys):
    code, out, err = run(capsys, "qmachine", "--process", "biased_coin_split:0.6:b")
    assert code == 0
    assert "warning" in err
    assert "spectrum:" in out


def test_qmachine_trivial_coin(capsys):
    code, out, _ = run(capsys, "qmachine", "--process", "biased_coin:0.6")
    assert code == 0
    assert "dim: 1" in out


# ------------------------------------------------------------ counterexample

def test_counterexample_small_grid_passes(capsys):
    code, out, _ = run(capsys, "counterexample", "--grid", "500")
    assert code == 0
    assert "result: PASS" in out
    assert "Incomparable" in out


def test_counterexample_grid_too_small(capsys):
    code, _, err = run(capsys, "counterexample", "--grid", "50")
    assert code == 2
    assert "at least 100" in err


def test_counterexample_csv_table(capsys):
    code, out, _ = run(capsys, "counterexample", "--grid", "150", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,matrix_residual,analytic_residual"
    assert len(lines) == 1 + 300


def test_counterexample_default_grid_csv_digest(capsys):
    """The 20,000-row table at the default grid, pinned by digest instead of a golden file."""
    code, out, _ = run(capsys, "counterexample", "--format", "csv")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "428d4b5c03cce7dcce62f80c0c4ff7364bb2591e9b21c23782dffd2593ee4caa"


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 2.24 GiB"), "Unable to allocate 2.24 GiB"),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy-message", "bare"],
)
def test_running_out_of_memory_is_one_error_line_and_exit_one(exc, message, monkeypatch, capsys):
    def sweep(grid_size):
        raise exc

    monkeypatch.setattr(qubit_family, "uniqueness_sweep", sweep)
    code, out, err = run(capsys, "counterexample", "--grid", "300000000")
    assert (code, out, err) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------- wordprob

def test_wordprob_single_word(capsys):
    code, out, _ = run(capsys, "wordprob", "--process", "biased_coin:0.6", "--word", "11")
    assert code == 0
    assert "0.36" in out


def test_wordprob_unknown_symbol(capsys):
    code, _, _ = run(capsys, "wordprob", "--process", "biased_coin:0.6", "--word", "12")
    assert code == 2


def test_wordprob_quantum_cross_check(capsys):
    code, out, _ = run(
        capsys, "wordprob", "--process", "q3", "--max-len", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "word,probability,classical_delta"
    deltas = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(deltas) < 1e-9


def test_wordprob_table_sums_to_one(capsys):
    code, out, _ = run(
        capsys, "wordprob", "--process", "even_odd:0.5", "--max-len", "4", "--format", "csv"
    )
    assert code == 0
    total = sum(float(line.split(",")[1]) for line in out.strip().split("\n")[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_wordprob_needs_word_or_length(capsys):
    code, _, _ = run(capsys, "wordprob", "--process", "mbw3")
    assert code == 2


# ------------------------------------------------------------------- export

def test_export_round_trips(tmp_path, capsys):
    for name in ("mbw4", "even_odd:0.5"):
        path = tmp_path / f"{name.replace(':', '_')}.hmm"
        code, _, _ = run(capsys, "export", "--process", name, "--out", str(path))
        assert code == 0
        parse_model(path.read_text())


def test_export_to_stdout(capsys):
    code, out, _ = run(capsys, "export", "--process", "mbw3")
    assert code == 0
    assert out.startswith("model: classical")


def test_no_command_prints_help(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
