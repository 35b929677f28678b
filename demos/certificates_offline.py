"""Certificates are plain JSON a dozen lines of independent code can re-check.

Every rational is serialized "p/q" and every enclosure as {"lo", "hi"},
so a verifier needs nothing beyond fractions.Fraction.  Below, a norm-ball
perturbation certificate is dumped, re-parsed, and its inequalities are
re-established from the serialized payload alone.
"""

import json
from fractions import Fraction

from realcert.certificates import canonical_dumps
from realcert.rational import ONE, ZERO
from realcert.stepseries import StepFunction, comeager_perturbation

result = comeager_perturbation(StepFunction(), 1, (ZERO, ONE), Fraction(3, 5))
text = canonical_dumps(result.certificate(), indent=2)
print("certificate as canonical JSON:")
print(text)

# ---- the re-verifier: standard library only from here on ------------------

doc = json.loads(text)
payload = doc["payload"]


def q(s: str) -> Fraction:
    p, den = s.split("/")
    return Fraction(int(p), int(den))


distance = q(payload["perturbation_l1_distance"])
half = q(payload["half_radius"])
threshold = q(payload["violation_threshold"])
seventh = q(payload["radius_seventh"])

print("offline re-check of the claimed inequalities:")
print(f"  perturbation stays in the half ball: {distance} <= {half}"
      f" -> {distance <= half}")
print(f"  violation threshold clears the 1/7 mark: {threshold} > {seventh}"
      f" -> {threshold > seventh}")

# determinism: the same request serializes byte-identically
again = comeager_perturbation(StepFunction(), 1, (ZERO, ONE), Fraction(3, 5))
same = canonical_dumps(again.certificate(), indent=2)
print(f"byte-identical on a second run: {same == text}")
