"""Acceptance battery: fourteen numbered checks, one test per check.

Each test runs the same check function as the bundled report (`realcert
report --bundled`), on larger samples drawn from its own fixed seed, and
ends with a wall-clock guard.  The pass predicates live in
`realcert.checklist` only, and each test reads the exit code from the
printed outcome as the command line does; a failing test prints it.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from fractions import Fraction

from realcert import checklist
from realcert.certificates import (FAILED, INCONCLUSIVE, InconclusiveAtBudget, exit_code,
                                   jsonable, timed_check)
from realcert.checklist import (
    _check_alexiewicz, _check_basis_inequality, _check_density,
    _check_dominance, _check_faithfulness, _check_finite_difference,
    _check_gauge_integral, _check_jump_exactness, _check_l1, _check_measure,
    _check_nonlebesgue, _check_perturbation, _check_unbounded,
    _check_variation, _draw_combinations, _draw_density_windows,
    _draw_monomial_vectors, _draw_points, _draw_windows)


def _spends(spent: InconclusiveAtBudget):
    """A stand-in search that spends its budget."""
    def search(*args, **kwargs):
        raise spent
    return search


def _printed(check) -> dict:
    """The check's outcome as the bundled report prints it."""
    return timed_check(check)["payload"]


def test_criterion_01_tower_measure_recursion():
    start = time.monotonic()
    printed = jsonable(_check_measure())
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 5.0


def test_criterion_02_l1_closed_form():
    start = time.monotonic()
    printed = jsonable(_check_l1())
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 10.0


def test_criterion_03_unbounded_on_random_windows():
    start = time.monotonic()
    printed = jsonable(_check_unbounded(_draw_windows(random.Random(20), 20, Fraction(1, 50))))
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 30.0


def test_criterion_03_spent_budget_is_inconclusive(monkeypatch):
    # no window of length >= 1/100 is known to spend maxgen 40 within seconds
    spent = InconclusiveAtBudget("depth budget exhausted", {"maxgen": 40, "depth": 24})
    monkeypatch.setattr(checklist, "unbounded_witness", _spends(spent))
    printed = _printed(lambda: _check_unbounded([(Fraction(1, 5), Fraction(6, 25))]))
    assert exit_code(printed) == 2
    assert printed == jsonable(spent)


def test_criterion_04_dominance_index_minimality():
    start = time.monotonic()
    printed = jsonable(_check_dominance())
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 1.0


def test_criterion_05_perturbation_inequalities():
    start = time.monotonic()
    printed = jsonable(_check_perturbation())
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 1.0


def test_criterion_05_broken_inequality_is_failed(monkeypatch):
    # a perturbation at distance 1/3 lies outside the half radius 3/10
    real = checklist.comeager_perturbation
    monkeypatch.setattr(checklist, "comeager_perturbation",
                        lambda *args: replace(real(*args), distance=Fraction(1, 3)))
    printed = jsonable(_check_perturbation())
    assert printed["verdict"] == FAILED
    assert exit_code(printed) == 1


def test_criterion_06_staircase_jump_exactness():
    start = time.monotonic()
    printed = jsonable(_check_jump_exactness(range(1, 1001)))
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 10.0


def test_criterion_07_shift_combination_variation():
    start = time.monotonic()
    printed = jsonable(_check_variation())
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 10.0


def test_criterion_08_dense_jumps_on_random_windows():
    start = time.monotonic()
    printed = jsonable(_check_density(_draw_density_windows(random.Random(8), 50)))
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 60.0


def test_criterion_08_spent_budget_names_its_window(monkeypatch):
    # no window of length >= 1/1000 is known to spend 10^5 indices within seconds
    spent = InconclusiveAtBudget("no enumerated rational in the window certified a nonzero jump",
                                 {"index_budget": 10**5, "terms": 64, "precision": 128})
    monkeypatch.setattr(checklist, "jump_search", _spends(spent))
    printed = _printed(lambda: _check_density([("surd-rate-mix", Fraction(1, 5),
                                                Fraction(11, 50))]))
    assert exit_code(printed) == 2
    assert printed == {"verdict": INCONCLUSIVE,
                       "reason": f"surd-rate-mix on [1/5, 11/50]: {spent.reason}",
                       "budget": {"index_budget": 10**5, "terms": 64, "precision": 128}}


def test_criterion_09_generator_polynomial_faithfulness():
    start = time.monotonic()
    printed = jsonable(_check_faithfulness(_draw_monomial_vectors(random.Random(9), 20)))
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 300.0


def test_criterion_10_gauge_integral_and_hake_cutoffs():
    start = time.monotonic()
    printed = jsonable(_check_gauge_integral())
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 5.0


def test_criterion_11_nonlebesgue_minimal_witness():
    start = time.monotonic()
    printed = jsonable(_check_nonlebesgue())
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 1.0


def test_criterion_12_alexiewicz_norm_scaling():
    start = time.monotonic()
    printed = jsonable(_check_alexiewicz(range(2, 6), _draw_combinations(random.Random(12), 10)))
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 60.0


def test_criterion_12_spent_budget_is_inconclusive(monkeypatch):
    spent = InconclusiveAtBudget("7 boxes alive", {"tolerance": Fraction(1, 1000)})
    monkeypatch.setattr("realcert.checklist.alexiewicz_norm", _spends(spent))
    printed = _printed(lambda: _check_alexiewicz((2,), []))
    assert exit_code(printed) == 2
    assert printed == jsonable(spent)


def test_criterion_13_basis_inequality_random_vectors():
    start = time.monotonic()
    rng = random.Random(13)
    trials = []
    for _ in range(100):
        m2 = rng.randint(2, 6)
        m1 = rng.randint(1, m2)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m2)]
        trials.append((coeffs, m1, m2))
    printed = jsonable(_check_basis_inequality(trials))
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 60.0


def test_criterion_14_finite_difference_consistency():
    start = time.monotonic()
    printed = jsonable(_check_finite_difference(_draw_points(random.Random(14), 1000)))
    assert exit_code(printed) == 0, printed
    assert time.monotonic() - start < 30.0
