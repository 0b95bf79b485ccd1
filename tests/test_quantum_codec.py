"""The quantum model file codec against the per-entry formatter and the
per-token reader it replaced, kept here as references: same bytes out, same
bits in, same message for every file the reader refuses."""

import ast
import inspect
import re

import numpy as np
import pytest

from machina import quantum
from machina.catalog import get_process
from machina.errors import ModelFormatError
from machina.hmm import _parse_number
from machina.minimize import merge
from machina.quantum import (
    PureStateQuantumModel,
    build_qmachine,
    parse_quantum_model,
    serialize_quantum_model,
)
from random_models import random_unifilar_model

# ------------------------------------------------------------- references

_REF_PAIR = re.compile(r"\(([^(),]*),([^(),]*)\)")
_REF_KRAUS_ROW = re.compile(r"(?<=\))\s*/")


def _ref_pairs(values) -> str:
    return " ".join(f"({z.real:.12g},{z.imag:.12g})" for z in np.asarray(values).tolist())


def _ref_serialize(q: PureStateQuantumModel) -> str:
    lines = ["model: quantum", f"dim: {q.dim}", "alphabet: " + " ".join(q.alphabet)]
    lines += [f"state: {label}  {_ref_pairs(col)}" for label, col in zip(q.labels, q.states.T)]
    lines += [f"kraus: {x}  " + " / ".join(map(_ref_pairs, q.kraus[x])) for x in q.alphabet]
    return "\n".join(lines) + "\n"


def _ref_read(text: str, lineno: int = 1) -> np.ndarray:
    pieces = _REF_PAIR.split(text)
    if stray := [s.strip() for s in pieces[::3] if s.strip()]:
        raise ModelFormatError(f"expected '(re,im)' pairs, got stray text {stray[0]!r}", lineno)
    del pieces[::3]
    return np.array([_parse_number(tok, lineno) for tok in pieces]).view(complex)


def _ref_kraus(body: str, lineno: int = 1) -> np.ndarray:
    return np.array([_ref_read(chunk, lineno) for chunk in _REF_KRAUS_ROW.split(body)])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


# ------------------------------------------------------------- inputs

# signed zeros, subnormals, huge and tiny magnitudes, integers, and values at
# (or one ulp off) the rounding edge of 12 significant digits
EDGE = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300, -1e-300,
    1e300, -1e300, 1.0, -1.0, 3.0, -7.0, 1e16, 123456789012.5, 0.1234567890125,
    0.9999999999995, -0.99999999999949996, np.nextafter(0.9999999999995, 0.0),
    9.9999999999995e-5, 1e-5, 0.0001, 1.0 / 3.0, 2.0**-1074 * 3,
]


def _edge_row(rng: np.random.Generator, n: int) -> np.ndarray:
    """n complex entries: half from ``EDGE``, half random with wild exponents."""
    picks = rng.choice(np.array(EDGE), size=2 * n)
    wild = rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-320, 300, size=2 * n)
    return np.where(rng.random(2 * n) < 0.5, picks, wild).view(complex)


def _phase_model(rng: np.random.Generator, dim: int) -> PureStateQuantumModel:
    """A valid model whose files carry signed zeros, subnormals, tiny entries and
    integers: near-basis states, diagonal Kraus operators with random phases
    and weights, every off-diagonal zero replaced by an edge value."""
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-310])
    states = rng.choice(tiny, size=(dim, dim, 2)).view(complex)[..., 0]
    states[np.diag_indices(dim)] = rng.choice([1.0, -1.0, 1j, -1j], size=dim)
    weights = rng.dirichlet(np.ones(3), size=dim).T
    weights[0, : dim // 2] = 1.0  # integers
    weights[1:, : dim // 2] = 0.0
    kraus = {}
    for x, w in zip("abc", weights):
        k_mat = rng.choice(tiny, size=(dim, dim, 2)).view(complex)[..., 0]
        k_mat[np.diag_indices(dim)] = np.sqrt(w) * np.exp(2j * np.pi * rng.random(dim))
        kraus[x] = k_mat
    labels = tuple(f"s{i}" for i in range(dim))
    return PureStateQuantumModel(dim, labels, states, tuple("abc"), kraus)


def _models():
    rng = np.random.default_rng(17)
    for name in ("d3", "q3", "q4"):
        yield name, get_process(name)
    for dim in range(1, 17):
        yield f"phase-{dim}", _phase_model(rng, dim)
    yield "phase-121", _phase_model(rng, 121)
    for n_states, seed in ((2, 1), (5, 2), (9, 3), (16, 4), (121, 5)):
        m = merge(random_unifilar_model(np.random.default_rng(seed), n_states, 4))
        yield f"built-{len(m.states)}", build_qmachine(m)


MODELS = dict(_models())


# ------------------------------------------------------------- parity

@pytest.mark.parametrize("name", sorted(MODELS))
def test_serialize_matches_the_per_entry_formatter(name):
    q = MODELS[name]
    assert serialize_quantum_model(q) == _ref_serialize(q)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_parse_is_bit_identical_to_the_per_token_reader(name):
    text = serialize_quantum_model(MODELS[name])
    q = parse_quantum_model(text)
    lines = text.splitlines()
    states = [_ref_read(line.split(None, 2)[2]) for line in lines if line.startswith("state:")]
    assert _same_bits(q.states, np.array(states).T)
    for line in lines:
        if line.startswith("kraus:"):
            _, sym, body = line.split(None, 2)
            assert _same_bits(q.kraus[sym], _ref_kraus(body))


def test_edge_values_format_and_read_back_like_the_references():
    rng = np.random.default_rng(5)
    for n in [*range(1, 17), 121]:
        mat = np.stack([_edge_row(rng, n) for _ in range(n)])
        # a column of a C-ordered matrix is strided, as the state columns are
        for row in (mat[0], mat[:, -1]):
            text = quantum._pairs(row)
            assert text == _ref_pairs(row)
            assert _same_bits(quantum._fast_pairs(text), _ref_read(text))
        body = " / ".join(map(quantum._pairs, mat))
        assert _same_bits(quantum._kraus_matrix(body, n, "0", 1), _ref_kraus(body))


# ------------------------------------------------------------- error parity

DIM = 9
ROW, COL = 4, 6  # the entry of K['b'] the cases below rewrite
BASE = serialize_quantum_model(_phase_model(np.random.default_rng(3), DIM))
KRAUS_LINE = 3 + DIM + 2  # three header lines, the states, kraus a, then kraus b


def _with_kraus_row(edit) -> str:
    """BASE with row ``ROW`` of K['b'], a list of entry texts, passed through ``edit``."""
    lines = BASE.splitlines()
    head, body = lines[KRAUS_LINE - 1].split("  ", 1)
    assert head == "kraus: b"
    rows = [re.findall(r"\([^()]*\)", chunk) for chunk in body.split(" / ")]
    rows[ROW] = edit(rows[ROW])
    lines[KRAUS_LINE - 1] = f"{head}  " + " / ".join(" ".join(r) for r in rows)
    return "\n".join(lines) + "\n"


def _entry(token: str, col: int = COL):
    def edit(row):
        row[col] = f"({token},0)"
        return row
    return edit


def _joined_rows(text: str) -> str:
    """Remove the separator after row ``ROW``, leaving dim - 1 of them."""
    line = text.splitlines()[KRAUS_LINE - 1]
    cut = [m.start() for m in re.finditer(" / ", line)][ROW]
    return text.replace(line, line[:cut] + " " + line[cut + 3:])


def _stray(row):
    row[COL] += " junk"
    return row


def _two_bad(first: str, second: str):
    return lambda row: _entry(second)(_entry(first, 2)(row))


NOT_SQUARE = f"kraus for 'b' is not {DIM}x{DIM}"
ERRORS = {
    "nan": (_with_kraus_row(_entry("nan")), "non-finite number 'nan'"),
    "inf": (_with_kraus_row(_entry("-inf")), "non-finite number '-inf'"),
    "overflow": (_with_kraus_row(_entry("1e999")), "non-finite number '1e999'"),
    "underscore": (_with_kraus_row(_entry("1_0")), "bad number '1_0'"),
    "arabic-digit": (_with_kraus_row(_entry("\u0662")), "bad number '\u0662'"),
    "zero-denominator": (_with_kraus_row(_entry("1/0")), "bad number '1/0'"),
    "empty": (_with_kraus_row(_entry("")), "bad number ''"),
    "stray": (_with_kraus_row(_stray), "expected '(re,im)' pairs, got stray text 'junk'"),
    "unterminated": (
        _with_kraus_row(lambda row: row[:COL] + ["(0.5,0"] + row[COL + 1:]),
        "expected '(re,im)' pairs, got stray text '(0.5,0'",
    ),
    "short-row": (_with_kraus_row(lambda row: row[:-1]), NOT_SQUARE),
    # the fraction's '/' brings the count back to dim - 1: a cut at every '/' is wrong here
    "fraction-at-the-cut": (_joined_rows(_with_kraus_row(_entry("1/2"))), NOT_SQUARE),
    "joined-rows": (_joined_rows(BASE), NOT_SQUARE),
    "two-bad-nan-first": (_with_kraus_row(_two_bad("nan", "1_0")), "non-finite number 'nan'"),
    "two-bad-underscore-first": (_with_kraus_row(_two_bad("1_0", "nan")), "bad number '1_0'"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_a_refused_kraus_row_gets_the_per_token_message(case):
    text, message = ERRORS[case]
    with pytest.raises(ModelFormatError) as info:
        parse_quantum_model(text)
    assert str(info.value) == f"line {KRAUS_LINE}: {message}"
    assert info.value.lineno == KRAUS_LINE


@pytest.mark.parametrize("token", ["nan", "1e999", "1_0", "\u0662", "1/0", "junk"])
def test_a_refused_state_line_gets_the_per_token_message(token):
    lines = BASE.splitlines()
    label, body = lines[7].split(None, 2)[1:]
    entries = re.findall(r"\([^()]*\)", body)
    entries[COL] = "(0,0) junk" if token == "junk" else f"({token},0)"
    lines[7] = f"state: {label}  " + " ".join(entries)
    message = {
        "nan": "non-finite number 'nan'",
        "1e999": "non-finite number '1e999'",
        "junk": "expected '(re,im)' pairs, got stray text 'junk'",
    }.get(token, f"bad number {token!r}")
    with pytest.raises(ModelFormatError, match=f"^line 8: {re.escape(message)}$"):
        parse_quantum_model("\n".join(lines) + "\n")


def test_a_fraction_entry_reads_like_the_reference():
    text = _with_kraus_row(_entry("0/3"))
    q = parse_quantum_model(text)
    body = text.splitlines()[KRAUS_LINE - 1].split(None, 2)[2]
    assert _same_bits(q.kraus["b"], _ref_kraus(body))
    assert q.kraus["b"][ROW, COL] == 0


# ------------------------------------------------------------- hot path

def test_only_the_fallback_reads_token_by_token(monkeypatch):
    tree = ast.parse(inspect.getsource(quantum))

    def callers(name):
        return {
            f.name
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for n in ast.walk(f)
            if isinstance(n, ast.Name) and n.id == name
        }

    assert callers("_parse_number") == {"_parse_pairs"}
    assert callers("_parse_pairs") == {"parse_quantum_model", "_kraus_matrix"}
    assert callers("_fast_pairs") == {"parse_quantum_model", "_kraus_matrix"}

    def refuse(token, lineno):
        raise AssertionError(f"per-token read of {token!r} on line {lineno}")

    monkeypatch.setattr(quantum, "_parse_number", refuse)
    for name in ("q3", "phase-9", "built-16"):
        parse_quantum_model(serialize_quantum_model(MODELS[name]))
