"""The package namespace: every exported name exists, and none loads early.

``_EXPORTS`` in ``realcert/__init__.py`` is the package's only export
list, so no other module may assign ``__all__``, and each class or
function it lists is defined in the home module it is listed under,
where the lazy ``__getattr__`` reads it.
"""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import realcert

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "realcert"


def all_assignments(tree: ast.AST) -> list[int]:
    """The lines that bind ``__all__``, by plain, annotated or augmented assignment."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            lines.append(node.lineno)
    return lines


def test_all_names_resolve():
    for name in realcert.__all__:
        getattr(realcert, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from realcert import *", namespace)
    assert set(realcert.__all__) <= namespace.keys()
    assert namespace["jump_search"] is realcert.jumps.jump_search


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        realcert.no_such_name


def test_fresh_import_loads_no_submodule():
    code = ("import sys, realcert\n"
            "print(sorted(m for m in sys.modules if m.startswith('realcert.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_only_the_package_declares_exports():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {str(path.relative_to(SRC)): lines for path in modules
             if (lines := all_assignments(ast.parse(path.read_text(encoding="utf-8"))))}
    assert set(found) == {"__init__.py"}


def test_guard_catches_each_way_of_binding_all():
    code = """
__all__ = ["a"]
__all__: list[str] = ["a"]
__all__ += ["b"]
x = __all__ = ["c"]
all_ = ["d"]
"""
    assert all_assignments(ast.parse(code)) == [2, 3, 4, 5]


def test_each_export_is_defined_in_its_home_module():
    checked = 0
    for home, names in realcert._EXPORTS.items():
        module = import_module(f"realcert.{home}")
        for name in names:
            obj = getattr(module, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__module__ == module.__name__, name
                checked += 1
    assert checked >= 50
