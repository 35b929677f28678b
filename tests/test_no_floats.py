"""No float enters a proof path: an AST walk over every module of the package.

Every verdict is an exact rational or a sound rational enclosure, so a
float literal, a reference to the float builtin (a ``float(...)`` call or
otherwise) or a math name outside the exact integer ones is refused
anywhere under ``src/realcert/``.  Float-valued math names such as
``sqrt``, ``log``, ``exp``, ``sin``, ``cos``, ``pi`` and ``e`` fall under
the last rule.  The only code that may name float is code that refuses
it: the JSON parse hook ``cli._reject_float`` and the serializer
``certificates.jsonable``.  An integer ``/`` that slips into a kernel
yields a Fraction, not a float, and the exact oracles of the kernels
catch it instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "realcert"

# math functions that are exact on ints and Fractions
EXACT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod",
              "trunc"}
# functions that refuse floats, by module stem and function name
REFUSERS = {("cli", "_reject_float"), ("certificates", "jsonable")}


def float_uses(tree: ast.AST, module: str) -> list[str]:
    """Every place in the tree where a float can enter, as 'line: what'."""
    found = []
    math_names = {"math"}

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        refuser = (module, func) in REFUSERS
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float" and not refuser:
            found.append(f"{line}: float builtin")
        elif isinstance(node, ast.Import):
            math_names.update(a.asname or a.name for a in node.names if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{line}: math.{a.name}" for a in node.names
                         if a.name not in EXACT_MATH)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in EXACT_MATH):
            found.append(f"{line}: math.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_float_in_the_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {}
    for path in modules:
        uses = float_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if uses:
            found[str(path.relative_to(SRC))] = uses
    assert found == {}


def test_refusers_exist():
    # a renamed refuser would leave a stale entry that excuses nothing
    for module, func in REFUSERS:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert func in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_guard_catches_each_kind_of_float():
    code = """
import math
import math as m
from math import pi, isqrt

def kernel(x):
    a = 0.5
    b = float(x)
    c = math.sqrt(x) + m.log(x) + math.e + pi
    return math.floor(x) + math.prod([x]) + isqrt(4) + 2j

def jsonable(x):
    return isinstance(x, float)
"""
    found = float_uses(ast.parse(code), "certificates")
    assert found == ["4: math.pi", "7: literal 0.5", "8: float builtin", "9: math.sqrt",
                     "9: math.log", "9: math.e", "10: literal 2j"]
    assert float_uses(ast.parse(code), "elsewhere")[-1] == "13: float builtin"
