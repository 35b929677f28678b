"""realcert: exact-arithmetic pathological functions with certificates.

The library builds classical "bad" integrable functions -- fat Cantor
towers carrying unbounded step series, monotone functions with a jump at
every rational, and gauge-integrable oscillators that are not Lebesgue
integrable -- and certifies their finitely checkable properties with
exact rational enclosures and explicit witnesses.
"""

from __future__ import annotations

from .cantor import (
    CantorApprox,
    CantorSpec,
    ComponentWitness,
    TowerApprox,
    TowerSpec,
    find_component,
    tower_generation,
)
from .certificates import (
    CERTIFIED,
    COMPUTED,
    INCONCLUSIVE,
    Certificate,
    InconclusiveAtBudget,
    canonical_dumps,
    jsonable,
)
from .enclosure import (
    DivisorContainsZero,
    Enclosure,
    NegativeSqrtDomain,
    cos_pi,
    exp_enc,
    pi_const,
    sin_pi,
    sqrt_enc,
)
from .jumps import (
    ExpPoly,
    JumpPolynomial,
    JumpSeries,
    ShiftCombination,
    SqrtShift,
    enum_index,
    enum_rational,
    eval_jump_series,
    expand_generator_polynomial,
    jump_contribution_table,
    jump_enclosure,
    jump_search,
    one_sided_limits,
    staircase_polynomial,
    variation_bounds,
)
from .oscillator import (
    Extremum,
    OscCombination,
    Oscillator,
    alexiewicz_norm,
    hake_table,
    kurzweil_integral,
    nonlebesgue_witness,
    osc_eval,
    restriction_witness,
    slope_bound,
)
from .rational import as_fraction, format_fraction
from .stepseries import (
    MonomialCombination,
    PowerAlongSubsequence,
    StepFunction,
    StepSeries,
    basis_inequality_check,
    comeager_perturbation,
    disjoint_power_family,
    dominance_index,
    eval_series,
    l1_norm,
    unbounded_witness,
)

__version__ = "0.5.0"

__all__ = [
    "CERTIFIED",
    "COMPUTED",
    "CantorApprox",
    "CantorSpec",
    "Certificate",
    "ComponentWitness",
    "DivisorContainsZero",
    "Enclosure",
    "ExpPoly",
    "Extremum",
    "INCONCLUSIVE",
    "InconclusiveAtBudget",
    "JumpPolynomial",
    "JumpSeries",
    "MonomialCombination",
    "NegativeSqrtDomain",
    "OscCombination",
    "Oscillator",
    "PowerAlongSubsequence",
    "ShiftCombination",
    "SqrtShift",
    "StepFunction",
    "StepSeries",
    "TowerApprox",
    "TowerSpec",
    "__version__",
    "alexiewicz_norm",
    "as_fraction",
    "basis_inequality_check",
    "canonical_dumps",
    "comeager_perturbation",
    "cos_pi",
    "disjoint_power_family",
    "dominance_index",
    "enum_index",
    "enum_rational",
    "eval_jump_series",
    "eval_series",
    "exp_enc",
    "expand_generator_polynomial",
    "find_component",
    "format_fraction",
    "hake_table",
    "jsonable",
    "jump_contribution_table",
    "jump_enclosure",
    "jump_search",
    "kurzweil_integral",
    "l1_norm",
    "nonlebesgue_witness",
    "one_sided_limits",
    "osc_eval",
    "pi_const",
    "restriction_witness",
    "sin_pi",
    "slope_bound",
    "sqrt_enc",
    "staircase_polynomial",
    "tower_generation",
    "unbounded_witness",
    "variation_bounds",
]
