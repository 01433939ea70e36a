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
