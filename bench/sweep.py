"""library-sweep: call realcert's public functions on given inputs.

    python3 bench/sweep.py OPS_JSON [--trace OUT]
    python3 bench/sweep.py --setup

Prints one JSON line per operation, in order and as soon as it ends:
{"i", "ok", "error", "result"}, with every rational as "p/q" and every
enclosure as [lo, hi].  An operation that runs past OP_DEADLINE_S is
interrupted and reported as failed, and the sweep goes on with the next.
``--setup`` only imports realcert and exits: the sweep's set-up time.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from fractions import Fraction

# functions are looked up on the package at call time, so the tracer's
# wrappers (installed on the package namespace) are the ones called
import realcert as rc
from inputs import fmt
from realcert import Enclosure

OP_DEADLINE_S = 20.0


class OpDeadline(Exception):
    pass


def _raise_deadline(signum, frame):
    raise OpDeadline()


def enc(e: Enclosure) -> list[str]:
    return [fmt(e.lo), fmt(e.hi)]


def _arg(x):
    if isinstance(x, list):
        return Enclosure(Fraction(x[0]), Fraction(x[1]))
    return Fraction(x)


def _poly(spec: dict):
    coeffs = {tuple(e): c for e, c in spec["coeffs"]}
    return rc.expand_generator_polynomial(coeffs, tuple(spec["basis"]))


def run_op(op: dict):
    kind = op["kind"]
    if kind in ("sin_pi", "cos_pi", "exp_enc", "sqrt_enc"):
        return enc(getattr(rc, kind)(_arg(op["x"]), op["prec"]))
    if kind == "pi_const":
        return enc(rc.pi_const(op["prec"]))
    if kind == "chain":
        p = op["prec"]
        x = rc.sqrt_enc(Fraction(op["a"]), p)
        y = Enclosure.point(Fraction(op["coeffs"][0]))
        for c in op["coeffs"][1:]:
            y = (y * x + Fraction(c)).outward(p)
        return enc(y)
    if kind == "osc_eval":
        o = rc.Oscillator(Fraction(op["lo"]), Fraction(op["hi"]), op["osc"])
        return enc(rc.osc_eval(o, Fraction(op["x"]), op["prec"]))
    if kind in ("jump_enclosure", "staircase_jump"):
        g = rc.staircase_polynomial() if kind == "staircase_jump" else _poly(op["poly"])
        got = rc.jump_enclosure(g, Fraction(op["q"]), op.get("terms", 64), op.get("prec", 96))
        return {"index": got.index, "point": fmt(got.point), "jump": enc(got.value),
                "nonzero": got.certified_nonzero}
    if kind == "jump_search":
        got = rc.jump_search(_poly(op["poly"]), Fraction(op["lo"]), Fraction(op["hi"]),
                             Fraction(op["eps"]), op["budget"], op["terms"], op["prec"])
        if not hasattr(got, "index"):
            raise RuntimeError(f"inconclusive: {got.reason}")
        return {"index": got.index, "point": fmt(got.point), "jump": enc(got.jump),
                "via": got.via}
    if kind == "alexiewicz":
        combo = rc.OscCombination.of({int(k): Fraction(v) for k, v in op["alphas"].items()})
        return enc(rc.alexiewicz_norm(combo, Fraction(op["tol"]), op["prec"]))
    if kind == "tower":
        got = rc.tower_generation(rc.TowerSpec(op["preset"]), op["j"], op["d"])
        return enc(got.measure_enclosure)
    raise ValueError(f"unknown operation kind {kind!r}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="sweep.py")
    parser.add_argument("ops", nargs="?")
    parser.add_argument("--trace", metavar="OUT")
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)
    if args.setup:
        print(rc.__version__)
        return 0
    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _raise_deadline)
    out = sys.stdout
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        line = {"i": i, "ok": True, "error": None, "result": None}
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        try:
            line["result"] = run_op(op)
        except OpDeadline:
            line.update(ok=False, error=f"passed its {OP_DEADLINE_S:g} s deadline")
        except Exception as err:  # report and go on: one bad op must not end the sweep
            line.update(ok=False, error=f"{type(err).__name__}: {err}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        out.write(json.dumps(line, separators=(",", ":")) + "\n")
        out.flush()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
