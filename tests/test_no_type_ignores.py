"""No ``type: ignore`` comment under ``src/realcert/``.

The spec readers in ``rational.SpecValue`` check every JSON value before
a constructor sees it, so no module needs to silence a type checker
about unchecked JSON access.  A comment that does would mark the return
of such access.
"""

import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "realcert"
IGNORE = re.compile(r"#\s*type:\s*ignore")


def type_ignores(source: str) -> list[int]:
    """The lines whose comment silences a type checker."""
    return [tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT and IGNORE.match(tok.string)]


def test_no_type_ignore_in_the_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = {str(p.relative_to(SRC)): type_ignores(p.read_text(encoding="utf-8"))
             for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_catches_a_type_ignore_comment():
    code = 'a = f(x)  # type: ignore[index]\nb = "# type: ignore"\nc = g(y)  #type:ignore\n'
    assert type_ignores(code) == [1, 3]
