"""Self-validating result records.

A certificate bundles the claim being checked, a verdict, and the exact
rationals / enclosures that let a reader re-check the claim without
trusting this code.  Serialization is canonical (sorted keys, no float
round-trips) so identical runs produce byte-identical output.  A bounded
search that spends its budget raises InconclusiveAtBudget, which is then
printed like any other outcome.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .rational import format_fraction


CERTIFIED = "certified"
COMPUTED = "computed"
FAILED = "failed"
INCONCLUSIVE = "inconclusive-at-budget"

# process exit codes: certified or computed; failed or malformed request;
# budget spent before the claim settled (never a refutation)
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INCONCLUSIVE = 2


def exit_code(printed: dict) -> int:
    """The exit code of a printed outcome, read from its verdict.

    A report exits with the worst code among its entries' payloads.
    """
    if "entries" in printed:
        return max((exit_code(e["payload"]) for e in printed["entries"]), default=EXIT_OK)
    verdict = printed.get("verdict")
    if verdict == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_FAILED if verdict == FAILED else EXIT_OK


@dataclass(frozen=True)
class InconclusiveAtBudget(Exception):
    """The finite search did not settle the claim; never a refutation.

    Every bounded search raises this when its budget, named in budget, runs
    out.  Only the code that prints outcomes catches it: `cli.main` prints
    it as the command's outcome and `timed_check` as a check's payload.  It
    is not a ValueError, which `cli.main` reports as a bad request.
    """

    reason: str
    budget: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.reason

    def as_json(self) -> dict:
        return {"verdict": INCONCLUSIVE, "reason": self.reason, "budget": self.budget}


def jsonable(x: Any) -> Any:
    """Exact JSON form: Fractions as "p/q", enclosures as {"lo","hi"}.

    The only writer of that form; an as_json method returns exact values.
    """
    if isinstance(x, Fraction):
        return format_fraction(x)
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    as_json = getattr(x, "as_json", None)
    if as_json is not None:
        return jsonable(as_json())
    if isinstance(x, float):
        raise TypeError(f"refusing to serialize float {x!r}; use Fraction")
    raise TypeError(f"not serializable: {type(x).__name__}")


def canonical_dumps(data: Any, indent: int | None = None) -> str:
    if indent is None:
        return json.dumps(jsonable(data), sort_keys=True, separators=(",", ":"))
    return json.dumps(jsonable(data), sort_keys=True, indent=indent)


@dataclass(frozen=True)
class Certificate:
    claim: str
    verdict: str
    payload: dict
    budget: dict = field(default_factory=dict)

    def as_json(self) -> dict:
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "payload": self.payload,
            "budget": self.budget,
        }


def timed_check(check: Callable[[], Any]) -> dict:
    """Run one check: its outcome as JSON, with wall_ms.

    A spent budget is the check's outcome, not an error.
    """
    started = time.monotonic()
    try:
        outcome = check()
    except InconclusiveAtBudget as spent:
        outcome = spent
    wall = int(round(1000 * (time.monotonic() - started)))
    return {"payload": jsonable(outcome), "wall_ms": wall}
