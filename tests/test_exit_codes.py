"""One verdict-to-code rule: an AST walk over every module of the package.

A check or command returns only its outcome, and the exit code is read
from the printed verdict by ``certificates.exit_code``.  So no module
outside ``certificates`` may name ``EXIT_OK`` or ``EXIT_INCONCLUSIVE``,
and ``EXIT_FAILED`` may appear only in ``cli.main``, on the path for a
malformed request, and in the import that brings it there.  A second
channel of exit codes, which could disagree with the verdict, has
nowhere to live.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "realcert"

EXIT_NAMES = {"EXIT_OK", "EXIT_FAILED", "EXIT_INCONCLUSIVE"}


def exit_name_uses(tree: ast.AST, module: str) -> list[str]:
    """Every place outside the allowed ones that names an exit code, as 'line: name'."""
    found = []

    def allowed(name: str, func: str | None, imported: bool) -> bool:
        if module == "certificates":
            return True
        return (module, name) == ("cli", "EXIT_FAILED") and (func == "main" or imported)

    def visit(node: ast.AST, func: str | None, line: int) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        line = getattr(node, "lineno", line)
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in EXIT_NAMES and not allowed(name, func, isinstance(node, ast.alias)):
            found.append(f"{line}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, func, line)

    visit(tree, None, 0)
    return found


def test_exit_codes_are_named_only_where_verdicts_become_codes():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {}
    for path in modules:
        uses = exit_name_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if uses:
            found[str(path.relative_to(SRC))] = uses
    assert found == {}


def test_guard_catches_each_way_of_naming_a_code():
    code = """
from .certificates import EXIT_FAILED, EXIT_OK
from . import certificates

def check():
    if certificates.EXIT_INCONCLUSIVE:
        return EXIT_FAILED, {}
    return EXIT_OK, {}

def main():
    return EXIT_FAILED
"""
    assert exit_name_uses(ast.parse(code), "checklist") == [
        "2: EXIT_FAILED", "2: EXIT_OK", "6: EXIT_INCONCLUSIVE", "7: EXIT_FAILED",
        "8: EXIT_OK", "11: EXIT_FAILED"]
    assert exit_name_uses(ast.parse(code), "cli") == [
        "2: EXIT_OK", "6: EXIT_INCONCLUSIVE", "7: EXIT_FAILED", "8: EXIT_OK"]
    assert exit_name_uses(ast.parse(code), "certificates") == []
