"""Algorithms read a model's ``probs``/``succ`` arrays, never the name-keyed ``trans``."""

import ast
from pathlib import Path

import machina


def _trans_reads(tree: ast.AST, where: str):
    """Yield each ``.trans`` attribute read below ``tree``, skipping the model class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef) and node.name == "FinitePredictiveModel":
            continue
        if isinstance(node, ast.Attribute) and node.attr == "trans":
            yield f"{where}:{node.lineno}"
        yield from _trans_reads(node, where)


def test_only_the_model_class_reads_trans():
    found = []
    for path in sorted(Path(machina.__file__).parent.glob("*.py")):
        found += _trans_reads(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []
