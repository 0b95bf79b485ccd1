"""The quantum model file codec against the per-entry formatter and the
per-token reader it replaced, kept here as references: same bytes out, same
bits in, same message for every file the reader refuses."""

import ast
import inspect
import re
import tracemalloc
import warnings
from unittest import mock

import hypothesis
import hypothesis.strategies as st
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
    quantum_models_equal,
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
            assert _same_bits(quantum._read_pairs(text, 1), _ref_read(text))
        body = quantum._pairs(mat)
        assert body == " / ".join(map(_ref_pairs, mat))
        rows = [quantum._read_pairs(row, 1) for row in quantum._kraus_rows(body)]
        assert _same_bits(np.array(rows), _ref_kraus(body))


@pytest.mark.parametrize(
    "row",
    [
        np.array([complex(1, -0.0), 0.5]),  # an imaginary -0.0 still prints -0
        np.array([0.25, complex(0.5, 1e-300), -1.0]),  # one nonzero imaginary part
        np.array([0.25, complex(-0.0, 0.0), 5e-324]),  # every imaginary part +0.0
        np.zeros(3, dtype=complex),
    ],
    ids=["minus-zero", "one-imaginary", "real", "zeros"],
)
def test_real_and_signed_zero_rows_format_like_the_reference(row):
    assert quantum._pairs(row) == _ref_pairs(row)
    column = np.stack([row, row]).T[:, 0]  # strided, as a state column is
    assert quantum._pairs(column) == _ref_pairs(column)
    # a matrix is written in one call; one complex row sends the whole matrix to the
    # complex format, which prints a +0.0 imaginary part as 0 too
    for mat in (np.stack([row, row.real]), np.stack([row.real, row.real])):
        assert quantum._pairs(mat) == " / ".join(map(_ref_pairs, mat))


# rows the skeleton test must decline, or read like the reference when it accepts them;
# the last three put a numeral outside the pairs and leave a slot empty, so their token
# count matches although the reference finds stray text
ROWS = [
    "(1 2,)", "(,1)", "( 1,2)", "(1,2)(3,4)", "(1,2)\t(3,4)", "(1,2)  (3,4)", " (1,2) (3,4) ",
    "(1e999,0)", "(\u0662,0)", "(1_0,0)", "(1/2,0)", "(e,0)", "(1,2) (3,4) ", "",
    "(1,\ud800)", "(1,2)\u00a0(3,4)",
    "5(,1)", "(1,)2", "(1,2)5 (,4)",
]


def _read_outcome(read, row):
    try:
        return read(row, 7)
    except ModelFormatError as exc:
        return str(exc), exc.lineno


@pytest.mark.parametrize("row", ROWS)
def test_a_row_reads_like_the_per_token_reader(row):
    got, expected = _read_outcome(quantum._read_pairs, row), _read_outcome(_ref_read, row)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert _same_bits(got, expected)
    block = quantum._read_block(row, 1, row.count("(") or 1)
    assert block is None or not isinstance(expected, tuple) and _same_bits(block[0], expected)


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


# ------------------------------------------------------------- whole bodies

def _file(dim: int, kraus_body: str, state_body: str) -> str:
    """A one-symbol, one-state file: the Kraus body on line 4, the state line on line 5."""
    return f"model: quantum\ndim: {dim}\nalphabet: a\nkraus: a  {kraus_body}\nstate: s  {state_body}\n"


def _parsed(dim: int, kraus_body: str, state_body: str):
    """The reader's Kraus matrix and state, before the model checks, or its refusal."""
    with mock.patch.object(quantum, "PureStateQuantumModel", lambda **kw: kw):
        try:
            got = parse_quantum_model(_file(dim, kraus_body, state_body))
        except ModelFormatError as exc:
            return str(exc), exc.lineno
    return got["kraus"]["a"], got["states"][:, 0]


def _ref_parsed(dim: int, kraus_body: str, state_body: str):
    mat = _ref_outcome(kraus_body, dim)
    if isinstance(mat, str):
        return mat, 4
    try:
        state = _ref_read(state_body, 5)
    except ModelFormatError as exc:
        return str(exc), exc.lineno
    if len(state) != dim:
        return f"line 5: state 's' has {len(state)} != {dim} entries", 5
    return mat, state


def _same_outcome(got, expected) -> bool:
    if isinstance(expected[0], str):
        return got == expected
    return not isinstance(got[0], str) and all(map(_same_bits, got, expected))


def _last(token: str):
    """Put ``token`` in the last slot of a body or state line."""
    return lambda text: text[: text.rindex(",") + 1] + token + ")"


def _middle(token: str):
    """Put ``token`` in the real slot of the second pair."""
    def edit(text):
        start = text.index("(", 1) + 1
        return text[:start] + token + text[text.index(",", start):]
    return edit


# every case keeps the writer's spacing; the block reader declines, or reads what the
# per-token reader reads
BLOCK_CASES = {
    "last-0e": _last("0e"),
    "last-3.5.5": _last("3.5.5"),
    "last-1e+": _last("1e+"),
    "last-1e999": _last("1e999"),
    "last-minus-zero": _last("-0"),
    "last-fraction": _last("1/2"),
    "last-empty": _last(""),
    "last-surrogate": _last("1\ud800"),
    "middle-3.5.5": _middle("3.5.5"),
    "middle-0e": _middle("0e"),
    "middle-minus-zero": _middle("-0"),
    "middle-surrogate": _middle("\ud800"),
    "middle-fraction": _middle("0/3"),
    "leading-nbsp": "\u00a0{}".format,
    "leading-ideographic-space": "\u3000{}".format,
    "leading-number": "5 {}".format,
    "trailing-number": "{} 5".format,
    "number-after-a-pair": lambda text: text.replace(") ", ")5 ", 1),
    "number-before-a-pair": lambda text: text.replace(" (", " 5(", 1),
    "empty-slot": lambda text: text.replace("(", "(,", 1).replace(",", "", 1),
    # an empty slot and a number outside the pairs leave the count of numbers as it was
    "number-then-empty-slot": lambda text: "5(," + text[text.index(",") + 1:],
    "empty-slot-then-number": lambda text: re.sub(r",([^,()]*)\)", r",)\1", text, count=1),
    "number-after-a-slash": lambda text: text.replace(" / ", " /5 ", 1),
    "number-before-a-slash": lambda text: text.replace(" / ", " 5/ ", 1),
    "extra-pair": "{} (0,0)".format,
    "missing-pair": lambda text: text[text.index(" ") + 1:],
    "extra-row": "{0} / {0}".format,
}


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_a_declined_block_reads_like_the_reference(case, dim):
    edit = BLOCK_CASES[case]
    mat = _edge_row(np.random.default_rng(dim), dim * dim).reshape(dim, dim)
    body, state = quantum._pairs(mat), quantum._pairs(mat[0])
    for kraus_body, state_body in ((edit(body), state), (body, edit(state))):
        got = _parsed(dim, kraus_body, state_body)
        assert _same_outcome(got, _ref_parsed(dim, kraus_body, state_body)), (kraus_body, got)
    for text, rows in ((edit(body), dim), (edit(state), 1)):
        block = quantum._read_block(text, rows, dim)
        if block is not None:
            assert _same_bits(block, _ref_kraus(text)), text


def test_a_short_body_claiming_a_large_dim_builds_no_large_string():
    tracemalloc.start()
    try:
        assert quantum._read_block("(1,0) (0,1)", 3000, 3000) is None  # a 36 MB skeleton
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_warning_fromstring_is_a_decline(monkeypatch):
    """Older numpy warns on a token it reads only part of and returns a short array;
    under the default filters that warning is not shown."""
    calls = []

    def old_fromstring(text, sep, count):
        calls.append(count)
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([0.0, np.nan])

    monkeypatch.setattr(np, "fromstring", old_fromstring)
    mat = _phase_model(np.random.default_rng(8), 3).kraus["b"]
    body, state = quantum._pairs(mat), quantum._pairs(mat[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kraus_body in (body, _middle("3.5.5")(body)):
            got = _parsed(3, kraus_body, state)
            assert _same_outcome(got, _ref_parsed(3, kraus_body, state))
    assert calls


# ------------------------------------------------------------- hot path

def test_only_the_fallback_reads_token_by_token(monkeypatch):
    tree = ast.parse(inspect.getsource(quantum))
    compiles = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "re.compile"
    ]
    assert len(compiles) == 1
    callers = {
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for n in ast.walk(f)
        if isinstance(n, ast.Name) and n.id == "_parse_number"
    }
    assert callers == {"_read_pairs"}

    def refuse(token, lineno):
        raise AssertionError(f"per-token read of {token!r} on line {lineno}")

    class NoRegex:
        def split(self, text):
            raise AssertionError(f"regex split of {text[:20]!r}")

    def no_rows(*args):
        raise AssertionError("row-by-row read of a writer-spaced body")

    monkeypatch.setattr(quantum, "_parse_number", refuse)
    monkeypatch.setattr(quantum, "_PAIR", NoRegex())
    monkeypatch.setattr(quantum, "_kraus_rows", no_rows)
    monkeypatch.setattr(quantum, "_read_pairs", no_rows)
    for name in ("q3", "phase-9", "built-16"):
        q = parse_quantum_model(serialize_quantum_model(MODELS[name]))
        assert quantum_models_equal(q, MODELS[name])


# ------------------------------------------------------------- fuzzed Kraus bodies

# tokens from the characters of decimals, exponents and fractions: most are
# numbers, some are junk, '1/0' or an overflow, so a body may hold several faults
_TOKENS = st.tuples(
    st.integers(min_value=0, max_value=19),
    st.sampled_from(["0", "1", "-0", ".5", "1e-1", "-1/1", "0/1", "1.e0", "1e-07", "10"]),
    st.text(".-e01/ ", max_size=5),
).map(lambda t: t[2] if t[0] == 0 else "1e1111" if t[0] == 1 else t[1])


@st.composite
def _kraus_bodies(draw):
    """A dimension and a Kraus body: rows of pairs, most of them dim x dim, or raw text."""
    dim = draw(st.integers(min_value=1, max_value=3))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return dim, draw(st.text("(),/.-e01 ", min_size=1, max_size=40))
    size = st.just(dim)
    if draw(st.booleans()):
        size = st.integers(min_value=dim - 1, max_value=dim + 1)
    pair = st.builds("({},{})".format, _TOKENS, _TOKENS)
    rows = [
        draw(st.sampled_from(["", " ", "  "])).join(draw(pair) for _ in range(draw(size)))
        for _ in range(draw(size))
    ]
    return dim, draw(st.sampled_from(["/", " / ", " /", "/ ", "//"])).join(rows)


@st.composite
def _writer_bodies(draw):
    """A dimension and a Kraus body spaced as the writer spaces it, most of them dim x dim."""
    dim = draw(st.integers(min_value=1, max_value=3))
    rows, cols = dim, dim
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        rows, cols = draw(st.sampled_from([(dim, dim + 1), (dim + 1, dim), (dim - 1, dim)]))
    pair = st.builds("({},{})".format, _TOKENS, _TOKENS)
    body = " / ".join(" ".join(draw(pair) for _ in range(cols)) for _ in range(rows))
    return dim, body


def _ref_outcome(body: str, dim: int):
    """The matrix the reference reads from a Kraus body on line 4, or its message."""
    try:
        mat = _ref_kraus(body, 4)
    except ModelFormatError as exc:
        return str(exc)
    except ValueError:  # rows of different lengths
        mat = None
    if mat is None or mat.shape != (dim, dim):
        return f"line 4: kraus for 'a' is not {dim}x{dim}"
    return mat


@hypothesis.settings(derandomize=True, max_examples=500, deadline=None)
@hypothesis.given(st.one_of(_kraus_bodies(), _writer_bodies()))
def test_fuzzed_kraus_bodies_read_like_the_reference(case):
    dim, body = case
    body = body.strip()
    hypothesis.assume(body)
    text = (
        f"model: quantum\ndim: {dim}\nalphabet: a\nkraus: a {body}\n"
        f"state: s {' '.join(['(1,0)'] * dim)}\n"
    )
    # the reader's output, before the model checks that a random operator would fail
    with mock.patch.object(quantum, "PureStateQuantumModel", lambda **kw: kw):
        try:
            got = parse_quantum_model(text)["kraus"]["a"]
        except ModelFormatError as exc:
            got = str(exc)
    expected = _ref_outcome(body, dim)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert _same_bits(got, expected)
