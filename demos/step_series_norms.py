"""A step series with closed-form L1 norm that is unbounded on every window.

The series puts value (3/2)^g on generation g of the dyadic tower, for
even g only.  Its L1 norm is the geometric sum 9/7; yet inside any
subinterval some deep generation pushes the value past any bar, and the
witness below pins that down with an exact component of positive measure.
"""

from fractions import Fraction

from realcert.cantor import TowerSpec
from realcert.certificates import InconclusiveAtBudget
from realcert.stepseries import (PowerAlongSubsequence, StepSeries,
                                 eval_series, l1_norm, unbounded_witness)

series = StepSeries(TowerSpec("dyadic"),
                    PowerAlongSubsequence(Fraction(3, 2), "arith:2:2"))

# outward(64) trades exactness for printable endpoints, rounding away
# from the enclosed value only
enc = l1_norm(series, terms=40, depth=20)
shown = enc.outward(64)
print("L1 norm enclosure (40 terms, depth 20):")
print(f"  [{shown.lo}, {shown.hi}]")
print(f"  contains 9/7: {enc.lo <= Fraction(9, 7) <= enc.hi},"
      f" width {float(enc.hi - enc.lo):.3e}")

print()
print("pointwise verdicts for the a.e. representative:")
for x in (Fraction(3, 8), Fraction(1, 3), Fraction(829, 2048)):
    try:
        v = eval_series(series, x, maxgen=24, depth=24)
    except InconclusiveAtBudget as spent:
        print(f"  f({x}) -> inconclusive: {spent.reason}")
    else:
        print(f"  f({x}) -> 0: {v.detail}")

bar = Fraction(10**6)
lo, hi = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 50)
wit = unbounded_witness(series, lo, hi, bar, maxgen=40, depth=24)
print()
print(f"witness that |f| exceeds {bar} inside [{lo}, {hi}]:")
print(f"  generation {wit.generation}, value {wit.value}")
print(f"  = (3/2)^{wit.generation} > 10^6, on a positive-measure component")
