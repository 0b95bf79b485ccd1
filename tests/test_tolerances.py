"""Every tolerance lives in ``machina.tolerances``; no call takes one as an argument."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import machina

KNOBS = {"tol", "rank_tol", "max_iter", "ndigits", "alphas", "rho"}


def _package_nodes():
    for path in sorted(Path(machina.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_small_float_literal_outside_tolerances():
    found = [
        f"{name}:{node.lineno}: {node.value!r}"
        for name, node in _package_nodes()
        if name != "tolerances.py"
        and isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < node.value <= 1e-6
    ]
    assert found == []


def test_no_allclose_or_isclose_in_the_package():
    """Their default ``rtol`` is a tolerance that ``machina.tolerances`` does not define."""
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in ("allclose", "isclose"):
                found.append(f"{name}:{node.lineno}: {called}")
    assert found == []


def _public_callables():
    for info in pkgutil.iter_modules(machina.__path__):
        module = importlib.import_module(f"machina.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                if not issubclass(obj, Exception):
                    yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_call_takes_a_tolerance_knob():
    found = [
        f"{qualname}({param})"
        for qualname, obj in _public_callables()
        for param in inspect.signature(obj).parameters
        if param in KNOBS
    ]
    assert found == []
