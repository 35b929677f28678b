"""Seeded inputs for the spec-cli and library-sweep workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical inputs, and realcert only ever sees what these return.
Ranges are chosen so that every operation exits 0 on the current code.
The seed moves arguments but never the number or kind of operations in
a pass, and library-sweep precisions form a fixed cycle, so the cost of
a pass varies little from seed to seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

SPECS = "src/realcert/specs"
PRECISIONS = (128, 192, 256, 320, 384, 448, 512)
# density searches stay in the band the first 10^5 enumerated rationals cover
COVERED_LO, COVERED_HI, WINDOW = Fraction(1, 18), Fraction(16, 17), Fraction(1, 50)


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _frac(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """A rational in [lo, hi] on a grid of about 1/den."""
    return lo + Fraction(rng.randint(0, den), den) * (hi - lo)


def cw_rational(i: int) -> Fraction:
    """i-th entry of the Calkin-Wilf enumeration of (0, 1), i >= 1."""
    a, b = 1, 1
    for bit in bin(i)[3:]:
        if bit == "1":
            a += b
        else:
            b += a
    return Fraction(a, a + b)


def cw_index(q: Fraction) -> int:
    """Inverse of cw_rational, by climbing to the root one step at a time."""
    a, b = q.numerator, q.denominator - q.numerator
    bits = []
    while (a, b) != (1, 1):
        if a > b:
            bits.append("1")
            a -= b
        else:
            bits.append("0")
            b -= a
    return int("1" + "".join(reversed(bits)), 2)


def _generator_poly(rng: random.Random, positive: bool) -> dict:
    basis = rng.choice(((1,), (2, 3), (2, 3, 5)))
    size = rng.randint(1, min(3, 3 ** len(basis) - 1))
    terms = {}
    while len(terms) < size:
        exps = tuple(rng.randint(0, 2) for _ in basis)
        if any(exps):
            c = rng.randint(1, 3) if positive else rng.choice((-3, -2, -1, 1, 2, 3))
            terms[exps] = c
    return {"basis": list(basis),
            "coeffs": [[list(e), c] for e, c in sorted(terms.items())]}


# ---------------------------------------------------------------------------
# library-sweep
# ---------------------------------------------------------------------------


def library_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops: list[dict] = []
    for p in PRECISIONS:
        ops.append({"kind": "pi_const", "prec": p})
        for kind in ("sin_pi", "cos_pi"):
            for _ in range(3):
                c = Fraction(rng.randint(1, 2 * 10**6 - 1), 10**6 + rng.randint(1, 999))
                ops.append({"kind": kind, "x": fmt(c), "prec": p})
            c = Fraction(rng.randint(1, 10**6), 10**6 + 3)
            w = Fraction(1, rng.randint(10**4, 10**6))
            ops.append({"kind": kind, "x": [fmt(c), fmt(c + w)], "prec": p})
        for _ in range(4):
            ops.append({"kind": "exp_enc", "prec": p,
                        "x": fmt(_frac(rng, Fraction(-4), Fraction(4), 10**6))})
            ops.append({"kind": "sqrt_enc", "prec": p,
                        "x": fmt(_frac(rng, Fraction(1, 100), Fraction(100), 10**6))})
        for _ in range(2):
            ops.append({"kind": "chain", "prec": p,
                        "a": fmt(_frac(rng, Fraction(1), Fraction(10), 10**4)),
                        "coeffs": [fmt(_frac(rng, Fraction(-3), Fraction(3), 10**3))
                                   for _ in range(12)]})
        for n in range(8):
            k = rng.randint(0, 4)
            lo, hi = (Fraction(0), Fraction(1)) if k == 0 else \
                (Fraction(1, 2 ** (k + 1)), Fraction(1, 2 ** k))
            t = _frac(rng, Fraction(1, 10), Fraction(9, 10), 10**4)
            ops.append({"kind": "osc_eval", "prec": p,
                        "osc": "derivative" if n % 2 else "primitive",
                        "lo": fmt(lo), "hi": fmt(hi), "x": fmt(lo + t * (hi - lo))})
        for _ in range(2):
            i = rng.randint(2, 300)
            ops.append({"kind": "jump_enclosure", "prec": p, "terms": 64,
                        "poly": _generator_poly(rng, positive=False),
                        "i": i, "q": fmt(cw_rational(i))})
        for _ in range(3):
            i = rng.randint(1, 100)
            ops.append({"kind": "staircase_jump", "i": i, "q": fmt(cw_rational(i))})
    for n in range(10):
        lo = _frac(rng, COVERED_LO, COVERED_HI - WINDOW, 10**6)
        ops.append({"kind": "jump_search", "prec": PRECISIONS[n % len(PRECISIONS)],
                    "terms": 64, "poly": _generator_poly(rng, positive=True),
                    "lo": fmt(lo), "hi": fmt(lo + WINDOW), "eps": "1/1000",
                    "budget": 10**5})
    for tol in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10**4)):
        k = rng.randint(1, 6)
        sign = rng.choice((-1, 1))
        ops.append({"kind": "alexiewicz", "alphas": {str(k): fmt(Fraction(sign))},
                    "tol": fmt(tol), "prec": 64})
    for n in range(4):
        ops.append({"kind": "tower", "preset": ("dyadic", "factorial")[n % 2],
                    "j": rng.randint(40, 80), "d": rng.randint(16, 32)})
    return ops


# ---------------------------------------------------------------------------
# spec-cli
# ---------------------------------------------------------------------------


def _skeleton_point(rng: random.Random) -> Fraction:
    """An endpoint of a level-n hole of the dyadic tower's first generation.

    Generation 1 spans [0, 1] with mass 1/2, so its level-n holes have
    length 4^-n and its kept intervals 2^-n - (2^-n - 4^-n)/2; the
    walk picks a side at each level and stops on a hole endpoint.
    """
    p = Fraction(0)
    for n in range(1, rng.randint(1, 8) + 1):
        kept = Fraction(1, 2**n) - (Fraction(1, 2**n) - Fraction(1, 4**n)) / 2
        g1 = p + kept
        g2 = g1 + Fraction(1, 4**n)
        if rng.random() < 0.5:
            p = g2
        last = (g1, g2)
    return rng.choice(last)


def cli_script(seed: int, pieces_path: str) -> tuple[list[dict], list]:
    """Commands for one spec-cli pass, and the step pieces they read.

    Each command is {"name", "argv", "check"}; "check" holds what the
    spot checks need and is never shown to realcert.
    """
    rng = random.Random(seed)
    tower, jump, osc = (f"{SPECS}/{n}.json" for n in ("tower", "jump", "osc"))
    cmds: list[dict] = []

    def add(name: str, argv: list[str], **check) -> None:
        cmds.append({"name": name, "argv": argv, "check": check})

    maxgen, depth = rng.randint(8, 16), rng.randint(12, 24)
    add("tower-build", ["tower", "build", "--spec", tower,
                        "--budget", f"maxgen={maxgen},depth={depth}"])
    add("tower-show", ["tower", "show", "--spec", tower,
                       "--generation", str(rng.randint(1, 2)),
                       "--budget", f"depth={rng.randint(2, 3)}"])
    add("fn-eval", ["fn", "eval", "--spec", tower, "--at", fmt(_skeleton_point(rng))],
        kind="tower")
    x = Fraction(rng.randint(1, 10**4 - 1), 10**4 + rng.randint(1, 99))
    add("fn-eval", ["fn", "eval", "--spec", jump, "--at", fmt(x),
                    "--precision", str(rng.randint(96, 192))], kind="jump")
    t = _frac(rng, Fraction(1, 10), Fraction(9, 10), 10**4)
    add("fn-eval", ["fn", "eval", "--spec", osc, "--at", fmt(Fraction(1, 4) + t / 4),
                    "--precision", str(rng.randint(96, 192))], kind="osc")
    a = _frac(rng, Fraction(0), Fraction(1, 2), 10**4)
    b = _frac(rng, Fraction(1, 2), Fraction(1), 10**4)
    add("fn-integrate", ["fn", "integrate", "--spec", osc, "--from", fmt(a),
                         "--to", fmt(b)])
    add("norm-bv", ["norm", "bv", "--spec", jump,
                    "--precision", str(rng.randint(96, 160))])
    add("norm-alexiewicz", ["norm", "alexiewicz", "--spec", osc,
                            "--tolerance", f"1/{rng.randint(100, 300)}"])
    lo = Fraction(rng.randint(0, 960), 1000)
    add("certify-unbounded", ["certify", "unbounded", "--spec", tower,
                              "--interval", fmt(lo), fmt(lo + Fraction(1, 25)),
                              "--bound", str(10 ** rng.randint(2, 6))])
    lo = _frac(rng, COVERED_LO, COVERED_HI - WINDOW, 10**6)
    add("certify-jump-dense", ["certify", "jump-dense", "--spec", jump,
                               "--interval", fmt(lo), fmt(lo + WINDOW),
                               "--eps", "1/1000"])
    add("certify-non-lebesgue", ["certify", "non-lebesgue", "--spec", osc,
                                 "--bound", str(rng.randint(1, 4))])
    cuts = sorted({Fraction(rng.randint(1, 99), 100) for _ in range(4)})
    edges = [Fraction(0), *cuts, Fraction(1)]
    bound = rng.randint(1, 3)  # the precondition is sup|f| <= bound
    pieces = [[fmt(u), fmt(v), fmt(Fraction(rng.randint(-4 * bound, 4 * bound), 4))]
              for u, v in zip(edges, edges[1:])]
    lo = _frac(rng, Fraction(0), Fraction(1, 2), 100)
    add("certify-perturbation", ["certify", "perturbation", "--bound", str(bound),
                                 "--radius", fmt(_frac(rng, Fraction(1, 5), Fraction(4, 5), 100)),
                                 "--interval", fmt(lo), fmt(lo + Fraction(1, 2)),
                                 "--pieces", pieces_path])
    add("report", ["report", jump, "--precision", str(rng.randint(96, 160))])
    add("report", ["report", osc, "--tolerance", f"1/{rng.randint(300, 1000)}"])
    return cmds, pieces


def dumps(obj: object) -> str:
    """Canonical text of generated inputs, for byte-identity checks."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
