"""A spent budget is raised, and caught only where outcomes are printed.

Every bounded search raises InconclusiveAtBudget when its budget runs
out, so no layer between a search and the printer tests for it.  An AST
walk over every module of the package refuses an ``isinstance`` test
against the class, and an ``except`` clause that names it anywhere but
the three catchers: ``cli.main`` prints it as the command's outcome,
``certificates.timed_check`` records it as a check's payload, and
``checklist._check_density`` raises it again with its window in the
reason.  It is not a ValueError, which ``cli.main`` reports as a bad
request with exit 1.
"""

import ast
from pathlib import Path

from realcert.certificates import InconclusiveAtBudget

SRC = Path(__file__).resolve().parents[1] / "src" / "realcert"
NAME = "InconclusiveAtBudget"
# functions that may catch it, by module stem and function name
CATCHERS = {("cli", "main"), ("certificates", "timed_check"), ("checklist", "_check_density")}


def _names_it(node: ast.AST) -> bool:
    """Whether an expression names the class: bare, as an attribute, or in a tuple."""
    return any((isinstance(n, ast.Name) and n.id == NAME)
               or (isinstance(n, ast.Attribute) and n.attr == NAME)
               for n in ast.walk(node))


def budget_checks(tree: ast.AST, module: str) -> list[str]:
    """Every isinstance test and every stray except clause on the class, as 'line: what'."""
    found = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        line = getattr(node, "lineno", 0)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _names_it(node.args[1])):
            found.append(f"{line}: isinstance test")
        elif (isinstance(node, ast.ExceptHandler) and node.type is not None
              and _names_it(node.type) and (module, func) not in CATCHERS):
            found.append(f"{line}: except in {func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_budget_check_in_the_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {}
    for path in modules:
        checks = budget_checks(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if checks:
            found[str(path.relative_to(SRC))] = checks
    assert found == {}


def test_each_catcher_catches_it():
    # a renamed or emptied catcher would leave a stale entry that excuses nothing
    for module, func in CATCHERS:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        [node] = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == func]
        assert any(isinstance(h, ast.ExceptHandler) and h.type is not None and _names_it(h.type)
                   for h in ast.walk(node)), (module, func)


def test_guard_catches_each_spelling():
    code = """
def search(got):
    if isinstance(got, InconclusiveAtBudget):
        return got
    if isinstance(got, (dict, certificates.InconclusiveAtBudget)):
        return got
    try:
        pass
    except InconclusiveAtBudget:
        pass
    except (ValueError, certificates.InconclusiveAtBudget) as err:
        pass

def main():
    try:
        pass
    except InconclusiveAtBudget:
        pass
    except ValueError:
        pass
"""
    tree = ast.parse(code)
    assert budget_checks(tree, "stepseries") == [
        "3: isinstance test", "5: isinstance test", "9: except in search",
        "11: except in search", "17: except in main"]
    # the same main is a catcher in cli
    assert budget_checks(tree, "cli") == [
        "3: isinstance test", "5: isinstance test", "9: except in search",
        "11: except in search"]


def test_a_spent_budget_is_an_exception_but_not_a_bad_request():
    assert issubclass(InconclusiveAtBudget, Exception)
    assert not issubclass(InconclusiveAtBudget, ValueError)
    spent = InconclusiveAtBudget("gone", {"maxgen": 1})
    assert str(spent) == "gone"
    assert spent == InconclusiveAtBudget("gone", {"maxgen": 1})
    assert spent.as_json() == {"verdict": "inconclusive-at-budget", "reason": "gone",
                               "budget": {"maxgen": 1}}
