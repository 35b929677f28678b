"""Correctness checks on realcert's outputs, all stdlib.

Three kinds, all run outside the timed region:

* digests: the canonical payload of every operation is hashed; it must
  match the committed reference (bundled-report always, the other
  workloads at the reference seed) and the first pass of the run;
* verdicts: a certificate verdict must be "certified" or "computed";
* spot checks: exactly checkable numbers are re-derived independently,
  e.g. kernel enclosures against a ``decimal`` reference value, staircase
  jumps at q_i equal to 2^-i exactly, tower measures against mu_j.
"""

from __future__ import annotations

import decimal
import functools
import hashlib
import json
import math
from decimal import Decimal
from fractions import Fraction

from inputs import cw_index

OK_VERDICTS = ("certified", "computed")
# fields outside the byte-identity contract: timing, effort, library version
VOLATILE = frozenset({"wall_ms", "effort", "library"})
_DIGITS = 90
_SLACK = Fraction(1, 10**60)  # decimal references are good to ~1e-85


def canonical(obj: object) -> str:
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k not in VOLATILE}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x
    return json.dumps(strip(obj), sort_keys=True, separators=(",", ":"))


def digest(obj: object) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# decimal references
# ---------------------------------------------------------------------------


def _ctx() -> decimal.Context:
    return decimal.Context(prec=_DIGITS + 10)


@functools.lru_cache(maxsize=None)
def dec_pi() -> Decimal:
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239)."""
    with decimal.localcontext(_ctx()):
        def atan_inv(n: int) -> Decimal:
            x = Decimal(1) / n
            total, term, k = x, x, 1
            eps = Decimal(10) ** -(_DIGITS + 5)
            while abs(term) > eps:
                term = -term * x * x
                total += term / (2 * k + 1)
                k += 1
            return total
        return +(16 * atan_inv(5) - 4 * atan_inv(239))


def dec_sin(x: Decimal) -> Decimal:
    with decimal.localcontext(_ctx()):
        two_pi = 2 * dec_pi()
        x = x - two_pi * (x / two_pi).to_integral_value(rounding=decimal.ROUND_FLOOR)
        total, term, k = Decimal(0), x, 1
        eps = Decimal(10) ** -(_DIGITS + 5)
        while abs(term) > eps:
            total += term
            term = -term * x * x / ((k + 1) * (k + 2))
            k += 2
        return +total


def dec_cos(x: Decimal) -> Decimal:
    with decimal.localcontext(_ctx()):
        return dec_sin(x + dec_pi() / 2)


def dec(q: Fraction) -> Decimal:
    with decimal.localcontext(_ctx()):
        return Decimal(q.numerator) / Decimal(q.denominator)


def encloses(pair, ref: Decimal) -> bool:
    """[lo, hi] (strings "p/q" or Fractions) contains ref, up to the slack."""
    lo, hi = (Fraction(v) for v in pair)
    r = Fraction(ref)
    return lo - _SLACK <= r <= hi + _SLACK


def unit_primitive(t: Fraction) -> Decimal:
    """4 s^2 sin(pi/(4 s^2)) on the left half, mirrored with a sign flip."""
    if t in (0, 1):
        return Decimal(0)
    s, sign = (t, 1) if t <= Fraction(1, 2) else (1 - t, -1)
    with decimal.localcontext(_ctx()):
        s2 = dec(s) ** 2
        return sign * 4 * s2 * dec_sin(dec_pi() / (4 * s2))


def unit_derivative(t: Fraction) -> Decimal:
    """8 s sin(pi/(4 s^2)) - (2 pi / s) cos(pi/(4 s^2)), s the distance to the edge."""
    s = t if t <= Fraction(1, 2) else 1 - t
    with decimal.localcontext(_ctx()):
        d = dec(s)
        phase = dec_pi() / (4 * d * d)
        return 8 * d * dec_sin(phase) - 2 * dec_pi() / d * dec_cos(phase)


def oscillator_value(lo: Fraction, hi: Fraction, kind: str, x: Fraction) -> Decimal:
    if not lo <= x <= hi:
        return Decimal(0)
    t = (x - lo) / (hi - lo)
    if kind == "primitive":
        return unit_primitive(t)
    with decimal.localcontext(_ctx()):
        return unit_derivative(t) / dec(hi - lo)


def tower_mass(preset: str, j: int) -> Fraction:
    if preset == "dyadic":
        return Fraction(1, 2**j)
    return Fraction(1, 2 * math.factorial(j))


# ---------------------------------------------------------------------------
# library-sweep
# ---------------------------------------------------------------------------


def library_spot(op: dict, result) -> str | None:
    """Why a library result is unsound, or None when it checks out."""
    kind = op["kind"]
    with decimal.localcontext(_ctx()):
        if kind in ("sin_pi", "cos_pi", "exp_enc", "sqrt_enc"):
            xs = op["x"] if isinstance(op["x"], list) else [op["x"]]
            for x in xs:  # an interval's endpoints lie inside its image
                q = dec(Fraction(x))
                ref = {"sin_pi": lambda: dec_sin(dec_pi() * q),
                       "cos_pi": lambda: dec_cos(dec_pi() * q),
                       "exp_enc": q.exp, "sqrt_enc": q.sqrt}[kind]()
                if not encloses(result, ref):
                    return f"{kind}({x}) misses the decimal reference {ref:.30e}"
            return None
        if kind == "pi_const":
            return None if encloses(result, dec_pi()) else "pi_const misses pi"
        if kind == "chain":
            x = dec(Fraction(op["a"])).sqrt()
            y = dec(Fraction(op["coeffs"][0]))
            for c in op["coeffs"][1:]:
                y = y * x + dec(Fraction(c))
            return None if encloses(result, y) else "chain misses its decimal value"
        if kind == "osc_eval":
            ref = oscillator_value(Fraction(op["lo"]), Fraction(op["hi"]), op["osc"],
                                   Fraction(op["x"]))
            return None if encloses(result, ref) else "osc_eval misses its decimal value"
    if kind in ("jump_enclosure", "staircase_jump"):
        if result["index"] != op["i"]:
            return f"index {result['index']} is not the enumeration index {op['i']}"
        if kind == "staircase_jump":
            exact = Fraction(1, 2 ** op["i"])
            if [Fraction(v) for v in result["jump"]] != [exact, exact]:
                return f"staircase jump at q_{op['i']} is not exactly 2^-{op['i']}"
        return None
    if kind == "jump_search":
        point = Fraction(result["point"])
        if not Fraction(op["lo"]) <= point <= Fraction(op["hi"]):
            return "witness lies outside its window"
        if cw_index(point) != result["index"]:
            return "witness index disagrees with the enumeration"
        lo, hi = (Fraction(v) for v in result["jump"])
        return None if lo > 0 or hi < 0 else "witness jump does not exclude zero"
    if kind == "alexiewicz":
        lo, hi = (Fraction(v) for v in result)
        peak = max(abs(Fraction(v)) for v in op["alphas"].values())
        tol = Fraction(op["tol"])
        # sup |4 t^2 sin(pi/(4 t^2))| lies in [0.68, 0.69]
        if hi - lo > tol or hi < peak * Fraction(68, 100) or lo > peak * Fraction(69, 100):
            return "norm enclosure is wider than tol or misses |c| * [0.68, 0.69]"
        return None
    if kind == "tower":
        lo, hi = (Fraction(v) for v in result)
        mu = tower_mass(op["preset"], op["j"])
        residual = 1 - sum(tower_mass(op["preset"], i) for i in range(1, op["j"]))
        if not lo <= mu <= hi or hi - lo > residual / 2 ** op["d"]:
            return "tower measure misses mu_j or is wider than S_j 2^-d"
        return None
    return None


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def verdicts(obj: dict) -> list[str]:
    """Certificate verdicts an output carries: top level, or per report entry."""
    if "entries" in obj:
        return [e["payload"].get("verdict") for e in obj["entries"]]
    return [obj["verdict"]] if "verdict" in obj else []


def cli_spot(cmd: dict, obj: dict) -> str | None:
    name, argv = cmd["name"], cmd["argv"]

    def flag(f: str, n: int = 1):
        k = argv.index(f)
        return argv[k + 1] if n == 1 else argv[k + 1:k + 1 + n]

    if name == "tower-build":
        for g in obj["payload"]["generations"]:
            mu = Fraction(1, 2 ** g["generation"])
            lo, hi = Fraction(g["measure"]["lo"]), Fraction(g["measure"]["hi"])
            if Fraction(g["mass"]) != mu or not lo <= mu <= hi:
                return f"generation {g['generation']} measure misses 2^-j"
    elif name == "fn-eval" and cmd["check"]["kind"] == "tower":
        if obj["result"]["verdict"] != "zero":
            return "a skeleton endpoint did not evaluate to zero"
    elif name == "fn-eval" and cmd["check"]["kind"] == "osc":
        ref = oscillator_value(Fraction(1, 4), Fraction(1, 2), "derivative",
                               Fraction(flag("--at")))
        if not encloses((obj["value"]["lo"], obj["value"]["hi"]), ref):
            return "oscillator value misses its decimal reference"
    elif name == "fn-integrate":
        a, b = Fraction(flag("--from")), Fraction(flag("--to"))
        with decimal.localcontext(_ctx()):
            ref = (oscillator_value(Fraction(1, 4), Fraction(1, 2), "primitive", b)
                   - oscillator_value(Fraction(1, 4), Fraction(1, 2), "primitive", a))
        if not encloses((obj["integral"]["lo"], obj["integral"]["hi"]), ref):
            return "integral misses the decimal primitive difference"
    elif name == "norm-alexiewicz":
        norm = obj["payload"]["norm"]
        lo, hi = Fraction(norm["lo"]), Fraction(norm["hi"])
        if hi < Fraction(68, 100) or lo > Fraction(69, 100):
            return "Alexiewicz norm misses [0.68, 0.69]"
    elif name == "certify-unbounded":
        if Fraction(obj["payload"]["witness"]["value"]) <= Fraction(flag("--bound")):
            return "unbounded witness does not pass the bound"
    elif name == "certify-jump-dense":
        p = obj["payload"]
        lo, hi = (Fraction(v) for v in flag("--interval", 2))
        point = Fraction(p["point"])
        jlo, jhi = Fraction(p["jump"]["lo"]), Fraction(p["jump"]["hi"])
        if not lo <= point <= hi or cw_index(point) != p["index"] or jlo <= 0 <= jhi:
            return "jump witness is outside the window, misindexed or not nonzero"
    elif name == "certify-perturbation":
        p = obj["payload"]
        if not (Fraction(p["perturbation_l1_distance"]) <= Fraction(p["half_radius"])
                and Fraction(p["violation_threshold"]) > Fraction(p["radius_seventh"])):
            return "perturbation inequalities fail"
    return None


def bundled_spot(entry: dict) -> str | None:
    """Re-derive the exactly checkable numbers of a bundled check."""
    n, p = entry["criterion"], entry["payload"]
    if n == 1:
        for g in p["generations"]:
            mu = Fraction(1, 2 ** g["generation"])
            if Fraction(g["target"]) != mu or not (
                    Fraction(g["measure"]["lo"]) <= mu <= Fraction(g["measure"]["hi"])):
                return "tower measure misses 2^-j"
    elif n == 2:
        if not Fraction(p["norm"]["lo"]) <= Fraction(9, 7) <= Fraction(p["norm"]["hi"]):
            return "L1 norm misses 9/7"
    elif n == 11:
        if Fraction(p["bar_1"]["sum"]) != Fraction(16, 15):
            return "first peak-gap sum is not 16/15"
    return None
