"""One writer of the wire format: ``certificates.jsonable``.

Rationals print as "p/q" and enclosures as {"lo", "hi"}, and only
``jsonable`` turns a value into that form.  An ``as_json`` method hands it
exact values (Fractions, enclosures, nested result objects), and jsonable
writes whatever comes back, so a float anywhere in an outcome is refused
instead of printed.  An AST walk keeps ``format_fraction`` to its
definition, jsonable and the two human-readable reasons that quote a
rational, and keeps every ``as_json`` from writing the format itself.

Results speak one protocol: a construction module hands exact values
through ``as_json`` and names no claim or verdict.  A second walk refuses
any function named ``certificate`` and any import of ``certificates`` by a
construction module beyond ``InconclusiveAtBudget``; claims are set in
``cli`` and ``checklist``, where outcomes print.
"""

import ast
from pathlib import Path

import pytest

from realcert.certificates import CERTIFIED, Certificate, canonical_dumps, jsonable

SRC = Path(__file__).resolve().parents[1] / "src" / "realcert"

# (module, function) that may call format_fraction: the writer, and the two
# reasons that quote a rational in prose
WRITERS = {("certificates", "jsonable"), ("oscillator", "nonlebesgue_witness"),
           ("checklist", "_check_density")}


def printer_uses(tree: ast.AST, module: str) -> list[str]:
    """Every place outside the allowed ones that writes the format, as 'line: name'."""
    found = []

    def allowed(name: str, func: str | None, kind: str, in_as_json: bool) -> bool:
        if in_as_json:
            return False  # an as_json hands exact values to jsonable
        if name == "jsonable" or module == "rational":
            return True
        if kind == "import":
            return module in {m for m, _ in WRITERS}
        if kind == "string":
            return module == "__init__"  # the export table
        return (module, func) in WRITERS

    def visit(node: ast.AST, func: str | None, in_as_json: bool, line: int) -> None:
        kind = "name"
        name = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = name = node.name
            in_as_json = in_as_json or func == "as_json"
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name, kind = node.name, "import"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name, kind = node.value, "string"
        line = getattr(node, "lineno", line)
        if name in ("format_fraction", "jsonable") and not allowed(name, func, kind,
                                                                   in_as_json):
            found.append(f"{line}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, func, in_as_json, line)

    visit(tree, None, False, 0)
    return found


def test_the_format_is_written_only_by_jsonable():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {}
    for path in modules:
        uses = printer_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if uses:
            found[str(path.relative_to(SRC))] = uses
    assert found == {}


def test_writers_exist():
    # a renamed writer would leave a stale entry that excuses nothing
    for module, func in WRITERS:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert func in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_guard_catches_each_way_of_naming_the_writer():
    code = """
from .rational import format_fraction
from . import rational

def jsonable(x):
    return format_fraction(x)

class Witness:
    def as_json(self):
        return {"v": rational.format_fraction(self.v), "w": jsonable(self.w)}

def report():
    write = getattr(rational, "format_fraction")
    def format_fraction(q):
        return str(q)
"""
    tree = ast.parse(code)
    assert printer_uses(tree, "stepseries") == [
        "2: format_fraction", "6: format_fraction", "10: format_fraction", "10: jsonable",
        "13: format_fraction", "14: format_fraction"]
    assert printer_uses(tree, "certificates") == [
        "10: format_fraction", "10: jsonable", "13: format_fraction", "14: format_fraction"]
    assert printer_uses(tree, "__init__") == [
        "2: format_fraction", "6: format_fraction", "10: format_fraction", "10: jsonable",
        "14: format_fraction"]
    assert printer_uses(tree, "rational") == ["10: format_fraction", "10: jsonable"]


# -- one protocol: as_json, with claims set where outcomes print -------------

CONSTRUCTIONS = ("cantor", "enclosure", "jumps", "oscillator", "rational", "stepseries")


def protocol_breaches(tree: ast.AST, module: str) -> list[str]:
    """Each certificate() definition, and in a construction module each import
    of certificates beyond InconclusiveAtBudget, as 'line: name'."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "certificate"):
            found.append(f"{node.lineno}: def certificate")
        if module not in CONSTRUCTIONS:
            continue
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "certificates":
                found += [f"{node.lineno}: {a.name}" for a in node.names
                          if a.name != "InconclusiveAtBudget"]
            else:
                found += [f"{node.lineno}: {a.name}" for a in node.names
                          if a.name == "certificates"]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: {a.name}" for a in node.names
                      if a.name.split(".")[-1] == "certificates"]
    return found


def test_results_speak_only_as_json():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        breaches = protocol_breaches(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if breaches:
            found[str(path.relative_to(SRC))] = breaches
    assert found == {}


def test_constructions_exist():
    # a renamed module would leave a name that guards nothing
    assert {m for m in CONSTRUCTIONS if (SRC / f"{m}.py").is_file()} == set(CONSTRUCTIONS)


def test_protocol_guard_catches_each_spelling():
    code = """
from .certificates import CERTIFIED, InconclusiveAtBudget
from realcert.certificates import Certificate
from . import certificates
import realcert.certificates

class Witness:
    def certificate(self):
        from .certificates import Certificate as C
        return C("claim", CERTIFIED, {})
"""
    tree = ast.parse(code)
    assert protocol_breaches(tree, "jumps") == [
        "2: CERTIFIED", "3: Certificate", "4: certificates", "5: realcert.certificates",
        "8: def certificate", "9: Certificate"]
    assert protocol_breaches(tree, "cli") == ["8: def certificate"]


# -- jsonable refuses what is not exact ---------------------------------------


class _FloatResult:
    def as_json(self) -> dict:
        return {"value": 0.5}


def test_jsonable_refuses_floats_and_unknown_types():
    with pytest.raises(TypeError, match=r"^refusing to serialize float 0\.5; use Fraction$"):
        jsonable(0.5)
    with pytest.raises(TypeError, match="^not serializable: object$"):
        jsonable(object())


def test_jsonable_refuses_a_float_inside_an_as_json_result():
    with pytest.raises(TypeError, match=r"^refusing to serialize float 0\.5"):
        jsonable({"payload": _FloatResult()})
    with pytest.raises(TypeError, match=r"^refusing to serialize float 0\.5"):
        canonical_dumps(Certificate("c", CERTIFIED, {"witness": _FloatResult()}))
