"""README's budget table is rendered from ``cli.BUDGETS`` and compared line by line.

Each row gives a key's default, its accepted range and its lower
ceilings, in the order ``BUDGETS`` declares them.  A row may end in a
note after its ceilings, opened by " (".  The search cap named under the
table is ``jumps.INDEX_CEILING``, and the spec ceilings are
``jumps.EXP_CEILING`` and ``jumps.SURD_CEILING``.
"""

from pathlib import Path

from realcert.cli import BUDGETS
from realcert.jumps import EXP_CEILING, INDEX_CEILING, SURD_CEILING

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| key | default | accepted range | lower ceilings |"


def rendered_rows() -> list[str]:
    """Each key's row of BUDGETS, up to the end of its ceilings."""
    rows = []
    for key, (default, least, most, ceilings) in BUDGETS.items():
        capped = ", ".join(f"`{where}` {most_there}" for where, most_there in ceilings.items())
        # str prints a Fraction as p/q and an int as itself
        rows.append(f"| `{key}` | {default} | {least}..{most} | {capped or 'none'}")
    return rows


def readme_rows() -> list[str]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
    return lines[start:end]


def test_budget_table_matches_budgets():
    rows = readme_rows()
    assert len(rows) == len(BUDGETS)
    for row, head in zip(rows, rendered_rows()):
        assert row.startswith(head), (row, head)
        assert row[len(head):] == " |" or row[len(head):].startswith(" ("), row


def test_index_ceiling_is_quoted():
    assert f"`INDEX_CEILING` = {INDEX_CEILING}" in README.read_text(encoding="utf-8")


def test_spec_ceilings_are_quoted():
    text = README.read_text(encoding="utf-8")
    assert f"`EXP_CEILING` = {EXP_CEILING}" in text
    assert f"`SURD_CEILING` = {SURD_CEILING}" in text
