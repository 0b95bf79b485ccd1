"""One reader owns the model-file grammar, and the library and the CLI both follow it:
``model: KIND`` first, each header line once and anywhere after it, every other
directive a record of the kind."""

import ast
import re
from pathlib import Path

import pytest

import machina
from machina.catalog import catalog_names, get_process
from machina.cli import main
from machina.errors import ModelFormatError
from machina.hmm import parse_model, serialize_model
from machina.quantum import PureStateQuantumModel, parse_quantum_model, serialize_quantum_model


def _model_line_tests(tree: ast.AST, where: str, func: str | None = None):
    """Yield ``file:function`` for each comparison below ``tree`` with the operand "model"."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
            if any(isinstance(n, ast.Constant) and n.value == "model" for n in operands):
                yield f"{where}:{func}"
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else func
        yield from _model_line_tests(node, where, inner)


def test_only_the_header_reader_looks_for_the_model_line():
    found = []
    for path in sorted(Path(machina.__file__).parent.glob("*.py")):
        found += _model_line_tests(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == ["hmm.py:_model_kind"]


def _exported():
    """Each catalog entry as (name, its exported file, the parser of its kind)."""
    for name in catalog_names():
        m = get_process(name)
        if isinstance(m, PureStateQuantumModel):
            yield name, serialize_quantum_model(m), parse_quantum_model
        else:
            yield name, serialize_model(m), parse_model


EXPORTED = list(_exported())


def _lines(text: str) -> list[str]:
    return text.rstrip("\n").split("\n")


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _validate(capsys, tmp_path, text: str):
    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name,text,parse", EXPORTED, ids=[e[0] for e in EXPORTED])
def test_a_model_line_that_is_not_first_is_rejected_alike(name, text, parse, tmp_path, capsys):
    model, *rest = _lines(text)
    for moved in ([rest[0], model, *rest[1:]], [*rest, model]):
        message = "line 1: file must start with a 'model:' line"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            parse(_join(moved))
        assert _validate(capsys, tmp_path, _join(moved)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name,text,parse", EXPORTED, ids=[e[0] for e in EXPORTED])
def test_records_may_come_before_the_header_lines(name, text, parse):
    model, head_a, head_b, *records = _lines(text)
    m = parse(_join([model, *records, head_b, head_a]))
    serialize = serialize_quantum_model if parse is parse_quantum_model else serialize_model
    assert serialize(m) == text


@pytest.mark.parametrize("dim", ["0_2", "٢", "２", "+2", "-1", "2.0", ""])
def test_dim_takes_ascii_digits_only(dim, tmp_path, capsys):
    text = serialize_quantum_model(get_process("d3"))
    assert "\ndim: 2\n" in text
    text = text.replace("\ndim: 2\n", f"\ndim: {dim}\n")
    message = f"line 2: bad dimension {dim!r}"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        parse_quantum_model(text)
    assert _validate(capsys, tmp_path, text) == (2, "", f"error: {message}\n")
    assert main(["compare", str(tmp_path / "model.txt"), "mbw3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dim_zero_is_not_positive():
    text = serialize_quantum_model(get_process("d3")).replace("dim: 2", "dim: 00")
    with pytest.raises(ModelFormatError, match="^line 2: dimension must be positive$"):
        parse_quantum_model(text)


@pytest.mark.parametrize(
    "name,head",
    [("mbw3", "model"), ("mbw3", "alphabet"), ("mbw3", "states"),
     ("q3", "model"), ("q3", "dim"), ("q3", "alphabet")],
)
def test_a_repeated_header_line_is_a_duplicate(name, head, tmp_path, capsys):
    _, text, parse = next(e for e in EXPORTED if e[0] == name)
    lines = _lines(text)
    again = next(line for line in lines if line.startswith(f"{head}:"))
    message = f"line {len(lines) + 1}: duplicate {head} line"
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        parse(_join([*lines, again]))
    assert _validate(capsys, tmp_path, _join([*lines, again])) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "name,head",
    [("mbw3", "alphabet"), ("mbw3", "states"), ("mbw3", "t"), ("q3", "dim"),
     ("q3", "alphabet"), ("q3", "state")],
)
def test_a_missing_line_is_named(name, head, tmp_path, capsys):
    _, text, parse = next(e for e in EXPORTED if e[0] == name)
    kept = [line for line in _lines(text) if not line.startswith(f"{head}:")]
    with pytest.raises(ModelFormatError, match=f"^missing {head} line$"):
        parse(_join(kept))
    assert _validate(capsys, tmp_path, _join(kept)) == (2, "", f"error: missing {head} line\n")


@pytest.mark.parametrize("name,stray", [("mbw3", "dim: 2"), ("mbw3", "kraus: 0 (1,0)"),
                                        ("q3", "t: A 0 1 A"), ("q3", "states: A")])
def test_a_directive_of_the_other_kind_is_unrecognized(name, stray):
    _, text, parse = next(e for e in EXPORTED if e[0] == name)
    head = stray.split(":")[0]
    with pytest.raises(ModelFormatError, match=f"^line 2: unrecognized directive '{head}'$"):
        parse(_join([_lines(text)[0], stray, *_lines(text)[1:]]))


def test_the_cli_names_an_unknown_kind_and_an_empty_file(tmp_path, capsys):
    text = serialize_model(get_process("mbw3")).replace("model: classical", "model: hybrid")
    assert _validate(capsys, tmp_path, text) == (2, "", "error: unknown model kind 'hybrid'\n")
    message = "file must start with a 'model:' line"
    assert _validate(capsys, tmp_path, "# nothing\n") == (2, "", f"error: {message}\n")
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        parse_model("")
