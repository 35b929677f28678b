"""Fraction's gcd-free constructor is named in one module: ``rational``.

``Fraction._from_coprime_ints`` (CPython 3.12 on) and the ``_normalize``
keyword (3.10 and 3.11) build a Fraction from a numerator and a
denominator that the caller vouches are coprime, the denominator
positive.  A pair that is not builds a Fraction that compares and hashes
wrongly, so ``rational`` binds the constructor once, as ``_coprime``,
and only ``dyadic_sum``, which reduces by trailing zero bits first, calls
it.  An AST walk keeps every other module from naming either spelling or
the binding.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "realcert"

PRIVATE = {"_from_coprime_ints", "_normalize", "_coprime"}


def private_uses(tree: ast.AST) -> list[str]:
    """Every node that names the private constructor, as 'line: name'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.keyword):
            name = node.arg
        elif isinstance(node, ast.alias):
            name = node.name  # what is imported, under any local name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in PRIVATE:
            found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_only_rational_names_the_private_constructor():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {path.name for path in modules
             if private_uses(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"rational.py"}


def test_only_dyadic_sum_calls_it():
    tree = ast.parse((SRC / "rational.py").read_text(encoding="utf-8"))
    callers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and private_uses(node.func)}
    assert callers == {"dyadic_sum"}


def test_guard_catches_each_spelling():
    code = """
from fractions import Fraction
from realcert.rational import _coprime as make

def build(n, d):
    a = Fraction._from_coprime_ints(n, d)
    b = Fraction(n, d, _normalize=False)
    c = getattr(Fraction, "_from_coprime_ints")
    return _coprime(n, d)
"""
    assert private_uses(ast.parse(code)) == [
        "3: _coprime", "6: _from_coprime_ints", "7: _normalize", "8: _from_coprime_ints", "9: _coprime"]


def test_an_interpreter_without_it_gets_the_public_constructor():
    from fractions import Fraction

    from realcert.rational import _coprime, _unnormalised

    class Public(Fraction):
        # neither spelling: no coprime classmethod, no _normalize keyword
        _from_coprime_ints = None

        def __new__(cls, numerator=0, denominator=None):
            return super().__new__(cls, numerator, denominator)

    assert _unnormalised(Public) is Public
    assert _coprime is not Fraction and _coprime(3, 4) == Fraction(3, 4)
