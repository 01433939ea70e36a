"""Repository-level checks: every demo runs, every exported name exists, and
the package holds no assert."""

import ast
import importlib
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no runtime invariant may rest on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "powergroups").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_all_entry_resolves():
    missing = []
    for path in sorted((ROOT / "src" / "powergroups").glob("*.py")):
        name = "powergroups" if path.stem == "__init__" else f"powergroups.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []



def _cap_error_calls(source):
    """(enclosing function or None, line) of each CapExceededError(...) call."""
    calls = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name == "CapExceededError":
                    calls.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return calls


def test_only_check_cap_raises_cap_exceeded():
    # Every size cap goes through errors.check_cap, so each one is checked
    # and worded the same way.
    mutant = "def f(n):\n    if n > 3:\n        raise errors.CapExceededError(n)\n"
    assert _cap_error_calls(mutant) == [("f", 3)]
    found = [
        (path.name, func)
        for path in sorted((ROOT / "src" / "powergroups").glob("*.py"))
        for func, _ in _cap_error_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == [("errors.py", "check_cap")]
