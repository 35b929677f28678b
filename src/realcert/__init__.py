"""realcert: exact-arithmetic pathological functions with certificates.

The library builds classical "bad" integrable functions -- fat Cantor
towers carrying unbounded step series, monotone functions with a jump at
every rational, and gauge-integrable oscillators that are not Lebesgue
integrable -- and certifies their finitely checkable properties with
exact rational enclosures and explicit witnesses.

Importing the package loads none of its modules: each public name is
looked up in its home module when it is first read (PEP 562), so a
caller pays only for the constructions it uses.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.5.0"

# home module -> the public names it exports through the package: the
# package's only export list, as no module declares __all__
_EXPORTS: dict[str, tuple[str, ...]] = {
    "cantor": ("CantorApprox", "CantorSpec", "ComponentWitness", "TowerApprox",
               "TowerSpec", "find_component", "tower_generation"),
    "certificates": ("CERTIFIED", "COMPUTED", "INCONCLUSIVE", "Certificate",
                     "InconclusiveAtBudget", "canonical_dumps", "jsonable"),
    "enclosure": ("DivisorContainsZero", "Enclosure", "NegativeSqrtDomain", "cos_pi",
                  "exp_enc", "pi_const", "sin_pi", "sqrt_enc"),
    "jumps": ("ExpPoly", "JumpPolynomial", "JumpSeries", "ShiftCombination", "SqrtShift",
              "enum_index", "enum_rational", "eval_jump_series",
              "expand_generator_polynomial", "jump_contribution_table", "jump_enclosure",
              "jump_search", "one_sided_limits", "staircase_polynomial",
              "variation_bounds"),
    "oscillator": ("Extremum", "OscCombination", "Oscillator", "alexiewicz_norm",
                   "hake_table", "kurzweil_integral", "nonlebesgue_witness", "osc_eval",
                   "restriction_witness", "slope_bound"),
    "rational": ("as_fraction", "format_fraction"),
    "stepseries": ("MonomialCombination", "PowerAlongSubsequence", "StepFunction",
                   "StepSeries", "basis_inequality_check", "comeager_perturbation",
                   "disjoint_power_family", "dominance_index", "eval_series", "l1_norm",
                   "unbounded_witness"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name: str):
    # not cached in the package: a name always reads its home module's
    # current binding, so a wrapper patched onto that module shows through
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)
