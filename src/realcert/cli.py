"""Command line front end.

Reads function-spec JSON, dispatches to the construction modules, and
prints canonical JSON so identical runs are byte-identical.  Each command
returns its outcome and main reads the exit code from the printed
verdict (`certificates.exit_code`): 0 means certified or computed, 2
means the finite budget was exhausted without settling the claim, 1
means the claim failed or the request itself was bad.  A search that
spends its budget raises InconclusiveAtBudget, and main prints it as the
command's outcome, with no CSV rows.  Inconclusive is deliberately not
an error; no finite search can refute a density or unboundedness
statement.

Each command imports the construction modules it runs when it runs, so a
short command does not pay to load the other constructions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import __version__
from .certificates import (CERTIFIED, COMPUTED, EXIT_FAILED, Certificate,
                           InconclusiveAtBudget, canonical_dumps, exit_code,
                           jsonable, timed_check)
from .enclosure import Enclosure
from .rational import SpecError, SpecValue, as_fraction, dyadic_floor

KINDS = ("tower-series", "jump-polynomial", "oscillator-combination")

# Every budget key: (default, least, most, ceilings).  A request outside
# least..most exits 1.  ceilings maps a command, or a "report:" check, to
# the most it runs that key at; a larger request runs at the ceiling.  The
# report's Alexiewicz check runs the "norm alexiewicz" search and ceiling.
BUDGETS: dict[str, tuple] = {
    "maxgen": (20, 1, 64, {"tower build": 24, "report: measure": 6}),
    "depth": (20, 1, 64, {"tower build": 40, "tower show": 20, "certify basis": 20,
                          "report: measure": 16, "report: l1": 20}),
    "terms": (64, 1, 4096, {"norm l1": 200, "certify basis": 48, "report: l1": 48,
                            "report: variation": 64}),
    "precision": (128, 1, 1024, {"norm alexiewicz": 128}),
    "tolerance": (Fraction(1, 10**6), Fraction(1, 10**6), Fraction(1), {}),
}
DEFAULT_BUDGET: dict[str, object] = {key: row[0] for key, row in BUDGETS.items()}
# tower show lists at most LIST_CEILING components
LIST_CEILING = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for inconclusive
    def error(self, message: str):
        raise SpecError(message)


def _ranged_int(least: int, most: int):
    """Flag type: an integer in least..most, checked before anything runs."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not least <= value <= most:
            raise argparse.ArgumentTypeError(f"must lie in {least}..{most}, got {value}")
        return value
    return parse


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise SpecError(f"not a rational: {text!r}") from err


@dataclass(frozen=True)
class FunctionSpec:
    kind: str
    body: dict
    budget: dict

    @property
    def sha256(self) -> str:
        return hashlib.sha256(canonical_dumps(self.body).encode()).hexdigest()

    def provenance(self) -> dict:
        return {
            "library": f"realcert {__version__}",
            "spec_sha256": self.sha256,
            "budget": dict(self.budget),
        }


def _validate_budget_items(raw: object, where: str) -> dict:
    """Type- and range-check the keys actually present, without filling defaults."""
    if not isinstance(raw, dict):
        raise SpecError(f"{where}: budget must be an object")
    out: dict[str, object] = {}
    for key, value in raw.items():
        if key not in BUDGETS:
            raise SpecError(f"{where}: unknown budget key {key!r}")
        if key == "tolerance":
            try:
                value = as_fraction(value)
            except (TypeError, ValueError, ZeroDivisionError) as err:
                raise SpecError(f"{where}: bad tolerance {value!r}") from err
        elif isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{where}: budget {key} must be an integer")
        _, least, most, _ = BUDGETS[key]
        if not least <= value <= most:
            raise SpecError(f"{where}: budget {key} must lie in {least}..{most}, "
                            f"got {value}")
        out[key] = value
    return out


def _at_ceilings(budget: dict, command: str) -> dict:
    """The budget a command runs at: each key cut to its ceiling there."""
    return {key: min(value, BUDGETS[key][3].get(command, value))
            for key, value in budget.items()}


def _index_budget(budget: dict) -> int:
    """A jump search's index budget: min(2^maxgen, INDEX_CEILING)."""
    from .jumps import INDEX_CEILING  # here, so other commands skip loading jumps
    return min(2 ** budget["maxgen"], INDEX_CEILING)


def _reject_float(text: str):
    # json.load hook for floats, NaN and Infinity: none of them is exact
    raise SpecError(f"{text} is a float; write it as a \"p/q\" string")


def _load_json(path: str, what: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float, parse_constant=_reject_float)
    except OSError as err:
        raise SpecError(f"cannot read {what} {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecError(f"{what} {path} is not valid JSON: {err}") from err
    except SpecError as err:
        raise SpecError(f"{what} {path}: {err}") from err


def load_spec(path: str, overrides: dict | None = None) -> FunctionSpec:
    data = _load_json(path, "spec")
    if not isinstance(data, dict):
        raise SpecError(f"spec {path}: top level must be an object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SpecError(f"spec {path}: kind must be one of {', '.join(KINDS)}")
    body = data.get("body")
    if not isinstance(body, dict):
        raise SpecError(f"spec {path}: body must be an object")
    budget = _validate_budget_items(data.get("budget", {}), f"spec {path}")
    # overrides were validated at flag-parse time
    return FunctionSpec(kind, body, {**DEFAULT_BUDGET, **budget, **(overrides or {})})


def build_function(spec: FunctionSpec):
    """Instantiate the object a spec body describes.

    The jump-polynomial kind accepts any of the module's shapes: a
    polynomial body carries "G", a shift combination carries "terms",
    anything else parses as the plain or shifted staircase itself.  The
    oscillator kind likewise accepts a combination ("alphas") or a single
    host interval ("lo"/"hi"/"kind").
    """
    if spec.kind == "tower-series":
        from .stepseries import StepSeries
        return StepSeries.from_json(spec.body)
    if spec.kind == "jump-polynomial":
        from .jumps import JumpPolynomial, JumpSeries, ShiftCombination
        if "G" in spec.body:
            return JumpPolynomial.from_json(spec.body)
        if "terms" in spec.body:
            return ShiftCombination.from_json(spec.body)
        return JumpSeries.from_json(spec.body)
    from .oscillator import OscCombination, Oscillator
    if "alphas" in spec.body:
        return OscCombination.from_json(spec.body)
    body = SpecValue(spec.body)
    return Oscillator(body.get("lo", 0).rational(), body.get("hi", 1).rational(),
                      body.get("kind", "derivative").string())


def _single_spec(args, *kinds: str) -> tuple[FunctionSpec, object]:
    """The command's one --spec, checked to be of one of kinds, and its object."""
    paths = args.spec or []
    if len(paths) != 1:
        raise SpecError("exactly one --spec is required here")
    spec = load_spec(paths[0], args.budget_overrides)
    _require_kind(spec, *kinds)
    return spec, build_function(spec)


def _require_kind(spec: FunctionSpec, *kinds: str) -> None:
    if spec.kind not in kinds:
        raise SpecError(f"this command needs kind {' or '.join(kinds)}, "
                        f"got {spec.kind}")


def _certified(claim: str, result, spec: FunctionSpec) -> dict:
    """A library result certified under claim, stamped with the spec's provenance."""
    return {**Certificate(claim, CERTIFIED, result.as_json()).as_json(),
            "provenance": spec.provenance()}


def _csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in jsonable([header, *rows]))


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------


def _cmd_tower_build(args):
    from .cantor import tower_generation
    spec, series = _single_spec(args, "tower-series")
    tower = series.tower
    budget = _at_ceilings(spec.budget, "tower build")
    depth, maxgen = budget["depth"], budget["maxgen"]
    rows = []
    entries = []
    for j in range(1, tower.upto(maxgen) + 1):
        approx = tower_generation(tower, j, depth)
        enc = approx.measure_enclosure
        rows.append((j, enc.lo, enc.hi))
        entries.append({
            "generation": j,
            "mass": tower.mass(j),
            "measure": enc,
            "component_count": str(approx.component_count),
        })
    cert = Certificate(
        claim="measure-enclosure",
        verdict=CERTIFIED,
        payload={"tower": tower, "generations": entries,
                 "provenance": spec.provenance()},
        budget={"depth": depth, "maxgen": maxgen},
    )
    return cert, lambda: (("index", "lo", "hi"), rows)


def _cmd_tower_show(args):
    from .cantor import tower_generation
    spec, series = _single_spec(args, "tower-series")
    tower = series.tower
    j = args.generation
    depth = _at_ceilings(spec.budget, "tower show")["depth"]
    approx = tower_generation(tower, j, depth)
    count = approx.component_count
    if count > LIST_CEILING:
        raise SpecError(f"generation {j} at depth {depth} has {count} "
                        "components; lower --budget depth to list them")
    rows = [(i, c.spec.a, c.spec.b) for i, c in enumerate(approx.iter_components())]
    payload = {
        "tower": tower,
        "generation": j,
        "depth": depth,
        "component_count": count,
        "measure": approx.measure_enclosure,
        "components": [[a, b] for _, a, b in rows],
        "provenance": spec.provenance(),
    }
    return payload, lambda: (("index", "lo", "hi"), rows)


# ---------------------------------------------------------------------------
# fn
# ---------------------------------------------------------------------------


def _cmd_fn_eval(args):
    spec, obj = _single_spec(args, *KINDS)
    budget = spec.budget
    at = args.at
    if spec.kind == "tower-series":
        if args.grid:
            raise SpecError("--grid needs enclosure-valued kinds, not tower-series")
        if args.csv:
            raise SpecError("--csv needs enclosure-valued kinds, not tower-series")
        from .stepseries import eval_series
        got = eval_series(obj, at, budget["maxgen"], budget["depth"])
        return {"at": at, "result": got, "provenance": spec.provenance()}, None

    def value(x: Fraction) -> Enclosure:
        if spec.kind == "jump-polynomial":
            raw = obj.value_at(x, budget["terms"], budget["precision"])
        else:
            raw = obj.value_at(x, budget["precision"])
        return raw.outward(budget["precision"])

    enc = value(at)

    def rows() -> tuple:
        grid = [Fraction(k, args.grid) for k in range(args.grid + 1)] if args.grid else []
        points = [(x, value(x)) for x in grid] or [(at, enc)]
        return ("x", "lo", "hi"), [(x, e.lo, e.hi) for x, e in points]

    return {"at": at, "value": enc, "provenance": spec.provenance()}, rows


def _cmd_fn_integrate(args):
    from .oscillator import kurzweil_integral
    spec, obj = _single_spec(args, "oscillator-combination")
    enc = kurzweil_integral(obj, args.lo, args.hi, spec.budget["precision"])
    return {"from": args.lo, "to": args.hi,
            "integral": enc.outward(spec.budget["precision"]),
            "provenance": spec.provenance()}, None


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------


def _cmd_norm_l1(args):
    from .stepseries import l1_norm
    spec, series = _single_spec(args, "tower-series")
    terms = _at_ceilings(spec.budget, "norm l1")["terms"]
    enc = l1_norm(series, terms, spec.budget["depth"])
    # exact power sums carry huge denominators; display on a dyadic grid
    cert = Certificate("norm-enclosure", COMPUTED,
                       {"space": "L1", "norm": enc.outward(spec.budget["precision"]),
                        "provenance": spec.provenance()})
    return cert, None


def _cmd_norm_bv(args):
    from .jumps import variation_bounds
    spec, obj = _single_spec(args, "jump-polynomial")
    result = variation_bounds(obj, terms=spec.budget["terms"],
                              precision=spec.budget["precision"])
    return _certified("variation-bounds", result, spec), None


def _cmd_norm_alexiewicz(args):
    from .oscillator import alexiewicz_norm
    spec, obj = _single_spec(args, "oscillator-combination")
    tol = spec.budget["tolerance"]
    enc = alexiewicz_norm(obj, tol, _at_ceilings(spec.budget, "norm alexiewicz")["precision"])
    cert = Certificate("norm-enclosure", COMPUTED,
                       {"space": "Alexiewicz",
                        "norm": enc.outward(spec.budget["precision"]),
                        "tolerance": tol, "provenance": spec.provenance()})
    return cert, None


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _cmd_certify_unbounded(args):
    from .stepseries import unbounded_witness
    spec, series = _single_spec(args, "tower-series")
    lo, hi = args.interval
    got = unbounded_witness(series, lo, hi, args.bound,
                            spec.budget["maxgen"], spec.budget["depth"])
    cert = Certificate("unbounded", CERTIFIED, {
        "interval": [lo, hi],
        "bound": args.bound,
        "witness": got,
        "provenance": spec.provenance(),
    })
    return cert, None


def _as_polynomial(obj):
    """The polynomial a jump search runs on: obj itself or the plain staircase.

    None for a wrapped staircase or a shift combination, whose jumps sit at
    irrational wrap points that no enumerated rational reaches.
    """
    from .jumps import JumpPolynomial, JumpSeries, staircase_polynomial
    if isinstance(obj, JumpPolynomial):
        return obj
    if isinstance(obj, JumpSeries) and obj.shift is None:
        return staircase_polynomial()
    return None


def _cmd_certify_jump_dense(args):
    from .jumps import jump_search
    spec, obj = _single_spec(args, "jump-polynomial")
    poly = _as_polynomial(obj)
    if poly is None:
        raise SpecError("jump search needs the plain staircase or a polynomial in it")
    lo, hi = args.interval
    budget = spec.budget
    got = jump_search(poly, lo, hi, args.eps, _index_budget(budget),
                      budget["terms"], budget["precision"])
    return _certified("jump-dense-sample", got, spec), None


def _nonlebesgue(obj, bar, precision: int, max_peaks: int):
    """The non-Lebesgue witness of a combination or of a single oscillator."""
    from .oscillator import OscCombination, nonlebesgue_witness, restriction_witness
    witness = restriction_witness if isinstance(obj, OscCombination) else nonlebesgue_witness
    return witness(obj, bar, precision, max_peaks)


def _cmd_certify_non_lebesgue(args):
    spec, obj = _single_spec(args, "oscillator-combination")
    got = _nonlebesgue(obj, args.bound, spec.budget["precision"],
                       1000 * spec.budget["maxgen"])
    base = got.base if hasattr(got, "base") else got
    return (_certified("non-lebesgue", got, spec),
            lambda: (("index", "lo", "hi"),
                     [(k, running, running) for k, _, running in base.rows()]))


def _cmd_certify_basis(args):
    from .stepseries import BasisComparison, basis_inequality_check, disjoint_power_family
    paths = args.spec or []
    if not paths:
        raise SpecError("at least one --spec is required")
    specs = [load_spec(p, args.budget_overrides) for p in paths]
    for s in specs:
        _require_kind(s, "tower-series")
    coeffs = [_fraction_flag(c) for c in args.coeffs.split(",")]
    m2 = args.m2 or len(coeffs)
    m1 = args.m1
    if len(specs) == 1 and m2 > 1:
        series = build_function(specs[0])
        rule = series.rule
        theta = getattr(rule, "theta", None)
        if theta is None:
            raise SpecError("a single monomial-rule spec cannot seed a family; "
                            "pass one --spec per member")
        # the library's own refusals, made before m2 series are built
        if not 1 <= m1 <= m2:
            raise SpecError(f"need 1 <= m1 <= m2 <= {m2}")
        if len(coeffs) < m2:
            raise SpecError("fewer coefficients than m2")
        family = disjoint_power_family(theta, m2, series.tower)
    else:
        family = tuple(build_function(s) for s in specs)
    budget = _at_ceilings(specs[0].budget, "certify basis")
    result = basis_inequality_check(coeffs, m1, m2, family,
                                    budget["terms"], budget["depth"])
    # exact norms can run to thousands of digits; emit on a dyadic grid
    comparison = BasisComparison(result.left.outward(96), result.right.outward(96),
                                 dyadic_floor(result.margin_lower, 96))
    cert = Certificate("basis-inequality", CERTIFIED,
                       {"coefficients": coeffs, "m1": m1, "m2": m2,
                        "comparison": comparison,
                        "provenance": specs[0].provenance()})
    return cert, None


def _cmd_certify_perturbation(args):
    from .stepseries import StepFunction, comeager_perturbation
    rows = (SpecValue(_load_json(args.pieces, "pieces file"), "pieces").elements()
            if args.pieces else [])
    for row in rows:
        if len(row.elements()) != 3:
            raise SpecError(f"{row.path}: a piece is [lo, hi, value]")
    f = StepFunction(tuple(tuple(x.rational() for x in row.elements()) for row in rows))
    lo, hi = args.interval
    result = comeager_perturbation(f, args.bound, (lo, hi), args.radius)
    return Certificate("perturbation", CERTIFIED, result.as_json()), None


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _battery(spec: FunctionSpec) -> list[tuple[str, Callable[[], object]]]:
    """Claim checks appropriate to one spec's kind, at its budgets."""
    budget = spec.budget
    obj = build_function(spec)
    checks: list[tuple[str, Callable[[], object]]] = []

    if spec.kind == "tower-series":
        from .cantor import tower_generation
        from .stepseries import l1_norm, unbounded_witness

        def measure() -> dict:
            capped = _at_ceilings(budget, "report: measure")
            entries = []
            for j in range(1, obj.tower.upto(capped["maxgen"]) + 1):
                enc = tower_generation(obj.tower, j, capped["depth"]).measure_enclosure
                entries.append({"generation": j, "measure": enc})
            return {"verdict": CERTIFIED, "generations": entries}

        def series_l1() -> dict:
            capped = _at_ceilings(budget, "report: l1")
            enc = l1_norm(obj, capped["terms"], capped["depth"])
            return {"verdict": COMPUTED, "norm": enc.outward(96)}

        def unbounded() -> dict:
            got = unbounded_witness(obj, Fraction(3, 8), Fraction(5, 8), 2,
                                    budget["maxgen"], budget["depth"])
            return {"verdict": CERTIFIED, "witness": got}

        checks += [("measure-enclosure", measure), ("norm-enclosure", series_l1),
                   ("unbounded", unbounded)]

    elif spec.kind == "jump-polynomial":
        from .jumps import jump_enclosure, jump_search, variation_bounds
        poly = _as_polynomial(obj)

        def nonzero() -> dict:
            got = jump_enclosure(poly, Fraction(1, 2), budget["terms"],
                                 budget["precision"])
            if got.certified_nonzero:
                return {"verdict": CERTIFIED, "jump": got.value}
            raise InconclusiveAtBudget(
                "the jump enclosure at 1/2 still contains zero",
                {"terms": budget["terms"], "precision": budget["precision"]})

        def dense() -> dict:
            got = jump_search(poly, Fraction(2, 5), Fraction(3, 5),
                              Fraction(1, 1000), _index_budget(budget),
                              budget["terms"], budget["precision"])
            return {"verdict": CERTIFIED, "witness": got}

        def variation() -> Certificate:
            got = variation_bounds(obj, terms=_at_ceilings(budget, "report: variation")["terms"],
                                   precision=budget["precision"])
            return Certificate("variation-bounds", CERTIFIED, got.as_json())

        # the jump checks need a polynomial; the variation bounds take every shape
        if poly is not None:
            checks += [("jump-nonzero", nonzero), ("jump-dense-sample", dense)]
        checks.append(("norm-enclosure", variation))

    else:
        from .oscillator import alexiewicz_norm

        def not_lebesgue() -> dict:
            got = _nonlebesgue(obj, 4, budget["precision"], 1000)
            return {"verdict": CERTIFIED, "witness": got}

        def alexiewicz() -> dict:
            tol = budget["tolerance"]
            enc = alexiewicz_norm(obj, tol, _at_ceilings(budget, "norm alexiewicz")["precision"])
            return {"verdict": COMPUTED, "norm": enc, "tolerance": tol}

        checks += [("non-lebesgue", not_lebesgue), ("norm-enclosure", alexiewicz)]
    return checks


def _cmd_report(args):
    entries = []
    specs = [(path, load_spec(path, args.budget_overrides)) for path in args.specs]
    if args.bundled:
        from .checklist import run_checklist
        entries += run_checklist()
    for path, spec in specs:
        for claim, check in _battery(spec):
            entries.append({"spec": path, "spec_sha256": spec.sha256, "claim": claim,
                            **timed_check(check)})
    return {"library": f"realcert {__version__}", "entries": entries}, None


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_budget_flags(p: _Parser) -> None:
    p.add_argument("--budget", default="", metavar="K=V,...",
                   help="override budget keys: maxgen, depth, terms, "
                        "precision, tolerance")
    p.add_argument("--precision", type=int, metavar="BITS")
    p.add_argument("--tolerance", type=_fraction_flag, metavar="P/Q")
    p.add_argument("--csv", metavar="PATH", help="also write plot rows here")
    p.add_argument("--json", action="store_true",
                   help="emit JSON on stdout (the default; flag kept for "
                        "scripting symmetry)")


def _budget_overrides(args) -> dict:
    """The budget flags, each integer in --budget read from its text here."""
    out: dict[str, object] = {}
    if args.budget:
        for pair in args.budget.split(","):
            if "=" not in pair:
                raise SpecError(f"--budget expects K=V pairs, got {pair!r}")
            key, _, text = (part.strip() for part in pair.partition("="))
            out[key] = text  # _validate_budget_items refuses an unknown key
            if key in BUDGETS and key != "tolerance":
                try:
                    out[key] = int(text)
                except ValueError:
                    raise SpecError(f"flags: budget {key} must be an integer") from None
    if args.precision is not None:
        out["precision"] = args.precision
    if args.tolerance is not None:
        out["tolerance"] = args.tolerance
    return _validate_budget_items(out, "flags")


def build_parser() -> _Parser:
    parser = _Parser(prog="realcert",
                     description="certified pathological integrable functions")
    parser.add_argument("--version", action="version",
                        version=f"realcert {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    def group(name: str, help: str):
        return top.add_parser(name, help=help).add_subparsers(dest="sub", required=True)

    def command(within, name: str, help: str, handler: Callable, spec: bool = True,
                rows: bool = False) -> _Parser:
        # rows marks the commands that write --csv rows; main refuses the rest
        p = within.add_parser(name, help=help)
        if spec:
            p.add_argument("--spec", action="append", metavar="PATH",
                           help="function spec JSON file")
        _add_budget_flags(p)
        p.set_defaults(handler=handler, rows=rows)
        return p

    def interval(p: _Parser) -> None:
        p.add_argument("--interval", nargs=2, type=_fraction_flag, required=True,
                       metavar=("LO", "HI"))

    tower = group("tower", "fat Cantor towers")
    command(tower, "build", "measure enclosures per generation", _cmd_tower_build,
            rows=True)
    p = command(tower, "show", "component spans of one generation", _cmd_tower_show,
                rows=True)
    p.add_argument("--generation", type=_ranged_int(*BUDGETS["maxgen"][1:3]),
                   required=True)

    fn = group("fn", "pointwise and integral values")
    p = command(fn, "eval", "enclose or decide the value at a point", _cmd_fn_eval,
                rows=True)
    p.add_argument("--at", type=_fraction_flag, required=True, metavar="P/Q")
    p.add_argument("--grid", type=_ranged_int(0, LIST_CEILING), default=0, metavar="N",
                   help="with --csv: sample k/N for k = 0..N (0: off)")
    p = command(fn, "integrate", "gauge integral by primitive difference",
                _cmd_fn_integrate)
    p.add_argument("--from", dest="lo", type=_fraction_flag, required=True,
                   metavar="P/Q")
    p.add_argument("--to", dest="hi", type=_fraction_flag, required=True,
                   metavar="P/Q")

    norm = group("norm", "certified norm enclosures")
    command(norm, "l1", "integral of the absolute step series", _cmd_norm_l1)
    command(norm, "bv", "total variation bounds", _cmd_norm_bv)
    command(norm, "alexiewicz", "sup of the primitive, to tolerance", _cmd_norm_alexiewicz)

    certify = group("certify", "claim certificates")
    p = command(certify, "unbounded", "component pushing past a bound",
                _cmd_certify_unbounded)
    interval(p)
    p.add_argument("--bound", type=_fraction_flag, required=True, metavar="M")
    p = command(certify, "jump-dense", "certified jump inside a window",
                _cmd_certify_jump_dense)
    interval(p)
    p.add_argument("--eps", type=_fraction_flag, default=Fraction(1, 1000),
                   metavar="P/Q", help="jump size to aim for (default 1/1000)")
    p = command(certify, "non-lebesgue", "absolute integral exceeds any bar",
                _cmd_certify_non_lebesgue, rows=True)
    p.add_argument("--bound", type=_fraction_flag, required=True, metavar="M")
    p = command(certify, "basis", "nested-sum norm inequality", _cmd_certify_basis)
    p.add_argument("--coeffs", required=True, metavar="C1,C2,...")
    p.add_argument("--m1", type=int, default=1)
    p.add_argument("--m2", type=int, default=0, help="defaults to len(coeffs)")
    p = command(certify, "perturbation", "ball around a step function meets the target set",
                _cmd_certify_perturbation, spec=False)
    p.add_argument("--bound", type=_fraction_flag, required=True, metavar="N")
    p.add_argument("--radius", type=_fraction_flag, required=True, metavar="R")
    interval(p)
    p.add_argument("--pieces", metavar="PATH",
                   help="JSON [[lo,hi,value],...]; default: the zero function")

    p = top.add_parser("report", help="aggregate certificates for spec sets")
    p.add_argument("specs", nargs="*", metavar="SPEC",
                   help="spec files; none plus no --bundled gives an empty report")
    p.add_argument("--bundled", action="store_true",
                   help="also run the built-in claim checklist")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_report, rows=False)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # exact numbers are read and printed in full, however long: lift the
    # int-to-str digit limit of CPython 3.10.7+ (default 4,300) in this process
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.budget_overrides = _budget_overrides(args)
        if args.csv and not args.rows:
            raise SpecError("this command does not emit CSV")
        # a row command hands back a function that builds its rows; only --csv calls it
        outcome, rows = args.handler(args)
        if args.csv and rows is not None:
            text = _csv(*rows())
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
    except InconclusiveAtBudget as spent:  # the outcome, with no rows to write
        outcome = spent
    except (ValueError, OSError) as err:  # SpecError is a ValueError
        print(f"realcert: {err}", file=sys.stderr)
        print(canonical_dumps({"error": str(err)}, indent=2))
        return EXIT_FAILED
    printed = jsonable(outcome)
    print(canonical_dumps(printed, indent=2))
    return exit_code(printed)


if __name__ == "__main__":
    sys.exit(main())
