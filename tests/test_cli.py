"""Command line contract: exit codes, JSON payloads, CSV, determinism.

Everything runs in process through main(argv), so stdout assertions use
capsys and no subprocesses are spawned.  Exit code 2 marks inconclusive
at budget; 1 is reserved for malformed requests.
"""

import argparse
import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from realcert.certificates import INCONCLUSIVE, InconclusiveAtBudget, jsonable
from realcert.cli import build_parser, main
from realcert.jumps import EXP_CEILING, RATE_CEILING, SURD_CEILING
from realcert.stepseries import (K_CEILING, PRODUCT_CEILING, STRIDE_CEILING, SUBSEQ_CEILING,
                                 THETA_CEILING, TILT_CEILING, TILT_DENOMINATOR_CEILING)

TOWER = {
    "kind": "tower-series",
    "body": {"tower": {"preset": "dyadic"},
             "rule": {"power": {"theta": "3/2", "subseq": "arith:2:2"}}},
}
OSC = {
    "kind": "oscillator-combination",
    "body": {"alphas": {"1": "1"}},
    "budget": {"tolerance": "1/1000"},
}
JUMP = {
    "kind": "jump-polynomial",
    "body": {"degree": 1, "basis": [1], "G": [{"terms": [{"c": "1", "exp": [1]}]}]},
}


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, data in (("tower", TOWER), ("osc", OSC), ("jump", JUMP)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def frac(payload_pair):
    return Fraction(payload_pair["lo"]), Fraction(payload_pair["hi"])


# -- tower ------------------------------------------------------------------


def test_tower_build(specs, capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out = run(capsys, "tower", "build", "--spec", specs["tower"],
                    "--csv", str(csv_path))
    assert code == 0
    assert out["claim"] == "measure-enclosure" and out["verdict"] == "certified"
    gen1 = out["payload"]["generations"][0]
    lo, hi = frac(gen1["measure"])
    assert lo <= Fraction(1, 2) <= hi
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,lo,hi"
    assert len(lines) == 21  # default budget runs 20 generations


def test_tower_show_lists_components(specs, capsys):
    code, out = run(capsys, "tower", "show", "--spec", specs["tower"],
                    "--generation", "2", "--budget", "depth=3")
    assert code == 0
    assert out["component_count"] == 7
    assert len(out["components"]) == 7


# -- fn ---------------------------------------------------------------------


def test_fn_eval_tower_zero_and_unknown(specs, capsys):
    code, out = run(capsys, "fn", "eval", "--spec", specs["tower"], "--at", "3/8")
    assert code == 0 and out["result"]["verdict"] == "zero"
    code, out = run(capsys, "fn", "eval", "--spec", specs["tower"], "--at", "1/2")
    assert code == 2
    assert out == {"verdict": "inconclusive-at-budget",
                   "reason": "inside a generation-20 hole at the generation budget",
                   "budget": {"maxgen": 20, "depth": 20}}


def test_fn_eval_oscillator_value(specs, capsys):
    code, out = run(capsys, "fn", "eval", "--spec", specs["osc"], "--at", "7/16")
    assert code == 0
    lo, hi = frac(out["value"])
    assert lo < hi
    # off the combination's support the value is exactly zero
    code, out = run(capsys, "fn", "eval", "--spec", specs["osc"], "--at", "7/8")
    assert code == 0
    assert frac(out["value"]) == (Fraction(0), Fraction(0))


def test_fn_integrate_full_interval(specs, capsys):
    code, out = run(capsys, "fn", "integrate", "--spec", specs["osc"],
                    "--from", "0", "--to", "1")
    assert code == 0
    lo, hi = frac(out["integral"])
    assert lo <= 0 <= hi
    assert out["from"] == "0/1" and out["to"] == "1/1"


def test_fn_integrate_needs_oscillator_kind(specs, capsys):
    code, out = run(capsys, "fn", "integrate", "--spec", specs["tower"],
                    "--from", "0", "--to", "1")
    assert code == 1 and "error" in out


# -- norms ------------------------------------------------------------------


def test_norm_l1_contains_oracle(specs, capsys):
    code, out = run(capsys, "norm", "l1", "--spec", specs["tower"])
    assert code == 0
    lo, hi = frac(out["payload"]["norm"])
    assert lo <= Fraction(9, 7) <= hi
    assert hi - lo < Fraction(1, 1000)


def test_norm_bv_staircase_polynomial(specs, capsys):
    code, out = run(capsys, "norm", "bv", "--spec", specs["jump"])
    assert code == 0
    assert out["claim"] == "variation-bounds"
    assert Fraction(out["payload"]["lower"]) > 0


def test_norm_alexiewicz(specs, capsys):
    code, out = run(capsys, "norm", "alexiewicz", "--spec", specs["osc"])
    assert code == 0
    assert out["payload"]["space"] == "Alexiewicz"
    lo, hi = frac(out["payload"]["norm"])
    assert Fraction(68, 100) < lo <= hi < Fraction(69, 100)


def test_norm_alexiewicz_refuses_primitive_kind(tmp_path, capsys):
    # certify non-lebesgue and report already refuse this host with exit 1
    body = {"lo": "1/4", "hi": "1/2"}
    for kind, want in (("primitive", 1), ("derivative", 0)):
        spec = tmp_path / f"{kind}.json"
        spec.write_text(json.dumps({"kind": "oscillator-combination",
                                    "body": {**body, "kind": kind},
                                    "budget": {"tolerance": "1/1000"}}))
        code, out = run(capsys, "norm", "alexiewicz", "--spec", str(spec))
        assert code == want
        if want:
            assert out == {"error": "witness applies to derivative-kind oscillators"}
            for argv in (("certify", "non-lebesgue", "--spec", str(spec), "--bound", "1"),
                         ("report", str(spec))):
                assert run(capsys, *argv)[0] == 1


# -- certify ----------------------------------------------------------------


def test_certify_unbounded_witness(specs, capsys):
    code, out = run(capsys, "certify", "unbounded", "--spec", specs["tower"],
                    "--interval", "3/8", "5/8", "--bound", "2")
    assert code == 0
    assert out["payload"]["witness"]["generation"] == 2
    assert out["payload"]["witness"]["value"] == "9/4"


def test_certify_unbounded_tiny_budget(specs, capsys):
    code, out = run(capsys, "certify", "unbounded", "--spec", specs["tower"],
                    "--interval", "3/8", "5/8", "--bound", "2",
                    "--budget", "maxgen=1")
    assert code == 2
    assert out["verdict"] == "inconclusive-at-budget"


def test_certify_jump_dense(specs, capsys):
    code, out = run(capsys, "certify", "jump-dense", "--spec", specs["jump"],
                    "--interval", "2/5", "3/5")
    assert code == 0
    assert out["claim"] == "jump-dense-sample"
    assert out["payload"]["point"] == "1/2"


def test_certify_non_lebesgue_bar_four(specs, capsys, tmp_path):
    csv_path = tmp_path / "peaks.csv"
    code, out = run(capsys, "certify", "non-lebesgue", "--spec", specs["osc"],
                    "--bound", "4", "--csv", str(csv_path))
    assert code == 0
    assert out["claim"] == "non-lebesgue"
    assert out["payload"]["restriction"]["peaks_used"] == 10
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,lo,hi" and len(lines) == 11


def test_certify_basis_family(specs, capsys):
    code, out = run(capsys, "certify", "basis", "--spec", specs["tower"],
                    "--coeffs", "1,-2,1", "--m2", "3")
    assert code == 0
    comparison = out["payload"]["comparison"]
    assert comparison["verdict"] == "holds"
    assert Fraction(comparison["margin_lower"]) >= 0


@pytest.mark.parametrize("extra,message", [
    (("--m2", "1000000000"), "fewer coefficients than m2"),
    (("--m1", "0", "--m2", "1000000000"), "need 1 <= m1 <= m2 <= 1000000000"),
], ids=["m2", "m1"])
def test_certify_basis_refuses_m2_before_building_the_family(specs, capsys, extra,
                                                            message):
    # a family of m2 series used to be built first: 7.6 s and 289 MB at m2 = 10^6
    started = time.monotonic()
    code, out = run(capsys, "certify", "basis", "--spec", specs["tower"],
                    "--coeffs", "1,2", *extra)
    assert time.monotonic() - started < 1
    assert (code, out["error"]) == (1, message)


def _tower_series(tmp_path, name: str, preset: str, subseq: str) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"kind": "tower-series", "body": {
        "tower": {"preset": preset},
        "rule": {"power": {"theta": "3/2", "subseq": subseq}}}}))
    return str(path)


@pytest.mark.parametrize("second,message", [
    # arith:1:2 and arith:201:2 first meet at 201, past certify basis's 48 terms
    (("dyadic", "arith:201:2"), "supports of members 1 and 2 overlap"),
    (("factorial", "arith:2:2"), "the family's members must share one tower"),
], ids=["overlap", "two-towers"])
def test_certify_basis_refuses_a_family_without_disjoint_supports(tmp_path, capsys,
                                                                 second, message):
    first = _tower_series(tmp_path, "a", "dyadic", "arith:1:2")
    code, out = run(capsys, "certify", "basis", "--spec", first,
                    "--spec", _tower_series(tmp_path, "b", *second),
                    "--coeffs", "1,-1", "--m1", "1", "--m2", "2")
    assert (code, out) == (1, {"error": message})


def test_certify_basis_accepts_disjoint_members(tmp_path, capsys):
    code, out = run(capsys, "certify", "basis",
                    "--spec", _tower_series(tmp_path, "a", "dyadic", "arith:1:2"),
                    "--spec", _tower_series(tmp_path, "b", "dyadic", "arith:202:2"),
                    "--coeffs", "1,-1", "--m1", "1", "--m2", "2")
    assert (code, out["verdict"]) == (0, "certified")


def _explicit_tower_spec(tmp_path, digits: int) -> tuple[str, list[str]]:
    # masses 1/(10^digits + k), written without converting a long int to str
    masses = [f"1/1{str(k).rjust(digits, '0')}" for k in (7, 37, 39, 49)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "tower-series", "body": {
        "tower": {"preset": "explicit", "masses": masses},
        "rule": {"power": {"theta": "3/2", "subseq": "all"}}}}))
    return str(path), masses


def test_tower_build_prints_numbers_past_the_int_digit_limit(tmp_path, capsys):
    # 1,501-digit masses give measures past CPython's 4,300-digit str limit
    path, masses = _explicit_tower_spec(tmp_path, 1500)
    code, out = run(capsys, "tower", "build", "--spec", path)
    assert (code, out["verdict"]) == (0, "certified")
    generations = out["payload"]["generations"]
    assert [g["mass"] for g in generations] == masses
    assert max(len(g["measure"]["hi"]) for g in generations) > 4300


def test_inputs_past_the_int_digit_limit_are_read(tmp_path, capsys):
    path, masses = _explicit_tower_spec(tmp_path, 5000)
    code, out = run(capsys, "tower", "build", "--spec", path)
    assert (code, out["payload"]["tower"]["masses"]) == (0, masses)


def test_certify_perturbation_default_zero_function(capsys):
    code, out = run(capsys, "certify", "perturbation", "--bound", "1",
                    "--radius", "3/5", "--interval", "0", "1")
    assert code == 0
    assert out["claim"] == "perturbation"
    assert out["payload"]["strict_gap_holds"] is True
    assert out["payload"]["window_measure"] == "1/10"


def test_certify_perturbation_takes_no_spec(capsys):
    # it reads no spec, so a --spec is a usage error, not ignored
    code, out = run(capsys, "certify", "perturbation", "--spec", "nonexistent.json",
                    "--bound", "1", "--radius", "1/2", "--interval", "0", "1")
    assert code == 1
    assert out == {"error": "unrecognized arguments: --spec nonexistent.json"}


def test_certify_perturbation_with_pieces(capsys, tmp_path):
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps([["0", "1/2", "1/2"]]))
    code, out = run(capsys, "certify", "perturbation", "--bound", "1",
                    "--radius", "1/2", "--interval", "0", "1",
                    "--pieces", str(pieces))
    assert code == 0
    assert out["payload"]["strict_gap_holds"] is True


# -- report -----------------------------------------------------------------


@pytest.mark.parametrize("body", [
    {"terms": [{"beta": "2", "shift": 1}, {"beta": "3", "shift": 2}]},
    {"shift": {"sqrt2_multiple": 1}},
], ids=["shift-combination", "wrapped-staircase"])
def test_report_runs_the_checks_that_apply(capsys, tmp_path, body):
    # no enumerated rational reaches these jumps, so only the variation
    # bounds apply; a jump search on them is still a bad request
    spec = tmp_path / "shifted.json"
    spec.write_text(json.dumps({"kind": "jump-polynomial", "body": body}))
    code, out = run(capsys, "report", str(spec))
    assert code == 0
    [entry] = out["entries"]
    assert entry["claim"] == "norm-enclosure"
    assert entry["payload"]["claim"] == "variation-bounds"
    assert entry["payload"]["verdict"] == "certified"
    code, out = run(capsys, "certify", "jump-dense", "--spec", str(spec),
                    "--interval", "0", "1")
    assert code == 1
    assert out == {"error": "jump search needs the plain staircase or a polynomial in it"}


def test_report_empty(capsys):
    code, out = run(capsys, "report")
    assert code == 0
    assert out["entries"] == []


def test_report_battery_certifies(specs, capsys):
    code, out = run(capsys, "report", specs["osc"])
    assert code == 0
    claims = [e["claim"] for e in out["entries"]]
    assert claims == ["non-lebesgue", "norm-enclosure"]
    assert all("wall_ms" in e for e in out["entries"])


def test_report_starved_budget_is_inconclusive(specs, capsys):
    code, out = run(capsys, "report", specs["tower"], "--budget", "maxgen=1")
    assert code == 2
    verdicts = [e["payload"].get("verdict") for e in out["entries"]]
    assert "inconclusive-at-budget" in verdicts
    assert any(v in ("certified", "computed") for v in verdicts)


# -- a spent budget exits 2 and names itself ---------------------------------


def test_unbounded_drill_past_maxgen_names_its_budgets(specs, capsys):
    # generations 1..5 on the drill path all stay below the bound
    bound = 10**21
    code, out = run(capsys, "certify", "unbounded", "--spec", specs["tower"],
                    "--interval", "3/8", "5/8", "--bound", str(bound),
                    "--budget", "maxgen=5")
    assert (code, out) == (2, {
        "verdict": INCONCLUSIVE,
        "reason": f"no generation <= 5 on the drill path exceeds {bound}",
        "budget": {"maxgen": 5, "depth": 20}})


def test_hole_over_the_whole_target_at_maxgen_names_its_budgets(specs, capsys):
    # [7/16, 9/16] lies inside generation 1's central hole: the search would
    # descend into generation 2's filler, which maxgen=1 refuses
    code, out = run(capsys, "certify", "unbounded", "--spec", specs["tower"],
                    "--interval", "7/16", "9/16", "--bound", "2", "--budget", "maxgen=1")
    assert (code, out) == (2, {"verdict": INCONCLUSIVE,
                               "reason": "generation budget exhausted",
                               "budget": {"maxgen": 1, "depth": 20}})


def test_report_non_lebesgue_names_its_peak_budget(capsys, tmp_path):
    # bar 4 / alpha = 4000 lies far past the partial sums of 1000 peaks
    spec = tmp_path / "small.json"
    spec.write_text(json.dumps({**OSC, "body": {"alphas": {"1": "1/1000"}}}))
    code, out = run(capsys, "report", str(spec))
    assert code == 2
    payloads = {e["claim"]: e["payload"] for e in out["entries"]}
    spent = payloads["non-lebesgue"]
    assert (spent["verdict"], spent["budget"]) == (INCONCLUSIVE, {"max_peaks": 1000})
    assert spent["reason"].endswith(" after 1000 peaks has not reached 4000/1")
    assert payloads["norm-enclosure"]["verdict"] == "computed"


def test_report_dense_sample_names_its_index_budget(capsys, tmp_path):
    # G = 7 S - 6 S^2; maxgen=1 lets the search scan 2 enumerated rationals
    spec = tmp_path / "g76.json"
    spec.write_text(json.dumps({"kind": "jump-polynomial", "body": {
        "basis": [1], "G": [{"terms": [{"c": "7", "exp": [0]}]},
                            {"terms": [{"c": "-6", "exp": [0]}]}]}}))
    code, out = run(capsys, "report", str(spec), "--budget", "maxgen=1")
    assert code == 2
    dense = {e["claim"]: e["payload"] for e in out["entries"]}["jump-dense-sample"]
    assert dense["verdict"] == INCONCLUSIVE
    assert dense["budget"] == {"candidates": 1, "index_budget": 2, "precision": 128,
                               "terms": 64}


def test_spent_alexiewicz_search_passes_through(specs, capsys, monkeypatch):
    # no input is known that spends this search within seconds
    from realcert import oscillator
    spent = InconclusiveAtBudget("boxes still open", {"tolerance": Fraction(1, 1000),
                                                      "precision": 128})

    def spends(*args):
        raise spent

    monkeypatch.setattr(oscillator, "alexiewicz_norm", spends)
    code, out = run(capsys, "norm", "alexiewicz", "--spec", specs["osc"])
    assert (code, out) == (2, jsonable(spent))
    assert out["budget"] == {"tolerance": "1/1000", "precision": 128}
    code, out = run(capsys, "report", specs["osc"])
    assert code == 2
    assert [e["payload"] for e in out["entries"]
            if e["claim"] == "norm-enclosure"] == [jsonable(spent)]


# -- failure modes ----------------------------------------------------------


@pytest.mark.parametrize("terms", ["1", "64"])
def test_malformed_explicit_tower_exits_1(capsys, tmp_path, terms):
    # mu_2 = 1/2 is all of S_2: generation 2 has no room in its holes
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps({"kind": "tower-series", "body": {
        "tower": {"masses": ["1/2", "1/2", "1/8"]},
        "rule": {"power": {"theta": "3/2", "subseq": "all"}}}}))
    error = {"error": "generation 2 needs fraction 1 of its holes"}
    for argv in (("norm", "l1", "--budget", f"terms={terms}"), ("tower", "build")):
        assert run(capsys, *argv, "--spec", str(spec)) == (1, error)


def test_explicit_tower_stops_at_its_last_generation(capsys, tmp_path):
    # three feasible generations, run at the default budget (maxgen 20)
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps({"kind": "tower-series", "body": {
        "tower": {"masses": ["1/4", "1/4", "1/8"]},
        "rule": {"power": {"theta": "3/2", "subseq": "all"}}}}))
    code, out = run(capsys, "tower", "build", "--spec", str(spec))
    assert code == 0 and out["budget"]["maxgen"] == 20
    assert [g["generation"] for g in out["payload"]["generations"]] == [1, 2, 3]
    code, out = run(capsys, "report", str(spec))
    assert code == 0
    measure = out["entries"][0]
    assert measure["claim"] == "measure-enclosure"
    assert [g["generation"] for g in measure["payload"]["generations"]] == [1, 2, 3]
    # the largest value is (3/2)^3 = 27/8, so no bar of 100 is ever cleared
    code, out = run(capsys, "certify", "unbounded", "--spec", str(spec),
                    "--interval", "3/8", "5/8", "--bound", "100")
    assert code == 1
    assert "only 3 generations" in out["error"] and "bounded" in out["error"]


def test_malformed_spec_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, out = run(capsys, "norm", "l1", "--spec", str(bad))
    assert code == 1 and "error" in out


def test_unknown_kind_rejected(capsys, tmp_path):
    bad = tmp_path / "kind.json"
    bad.write_text(json.dumps({"kind": "mystery", "body": {}}))
    code, out = run(capsys, "norm", "l1", "--spec", str(bad))
    assert code == 1 and "kind" in out["error"]


def test_unknown_budget_key(specs, capsys):
    code, out = run(capsys, "norm", "l1", "--spec", specs["tower"],
                    "--budget", "frobs=3")
    assert code == 1 and "budget" in out["error"]


@pytest.mark.parametrize("command,spec,extra,key,span", [
    (("fn", "eval"), "osc", ("--at", "3/10", "--precision", "1000000"),
     "precision", "1..1024"),
    (("fn", "eval"), "jump", ("--at", "1/3", "--budget", "terms=10000000"),
     "terms", "1..4096"),
    (("norm", "alexiewicz"), "osc", ("--tolerance", "1/100000000"),
     "tolerance", "1/1000000..1"),
    (("certify", "non-lebesgue"), "osc", ("--bound", "30", "--budget", "maxgen=100000"),
     "maxgen", "1..64"),
    (("certify", "unbounded"), "tower",
     ("--interval", "3/8", "5/8", "--bound", "2", "--budget", "depth=100000"),
     "depth", "1..64"),
], ids=["precision", "terms", "tolerance", "maxgen", "depth"])
def test_out_of_range_budget_is_rejected_fast(specs, capsys, command, spec, extra,
                                              key, span):
    # each of these ran for many seconds, or crashed, before budgets had ranges
    started = time.monotonic()
    code, out = run(capsys, *command, "--spec", specs[spec], *extra)
    assert time.monotonic() - started < 1
    assert code == 1
    assert f"budget {key} must lie in {span}" in out["error"]


@pytest.mark.parametrize("argv,message", [
    (("tower", "show", "--spec", "{tower}", "--generation", "10000"),
     "argument --generation: must lie in 1..64, got 10000"),
    (("fn", "eval", "--spec", "{jump}", "--at", "1/3", "--grid", "-3",
      "--csv", "{csv}"), "argument --grid: must lie in 0..100000, got -3"),
], ids=["generation", "grid"])
def test_out_of_range_flag_is_rejected_fast(specs, capsys, tmp_path, argv, message):
    # --generation 10000 used to fail late on a 4300-digit count, and
    # --grid -3 wrote a header-only CSV with exit 0
    csv_path = tmp_path / "rows.csv"
    argv = [a.format(csv=csv_path, **specs) for a in argv]
    started = time.monotonic()
    code, out = run(capsys, *argv)
    assert time.monotonic() - started < 1
    assert code == 1 and message in out["error"]
    assert not csv_path.exists()


@pytest.mark.parametrize("budget,message", [
    ({"depth": 65}, "budget depth must lie in 1..64"),
    ({"maxgen": True}, "budget maxgen must be an integer"),
    # only --budget text is read as an integer; a spec file writes a JSON integer
    ({"depth": "3"}, "budget depth must be an integer"),
])
def test_spec_file_budget_is_checked(capsys, tmp_path, budget, message):
    spec = tmp_path / "budget.json"
    spec.write_text(json.dumps(dict(TOWER, budget=budget)))
    code, out = run(capsys, "tower", "build", "--spec", str(spec))
    assert code == 1 and message in out["error"]


@pytest.mark.parametrize("spec,argv,message", [
    (dict(JUMP, body={"degree": 1, "basis": [1], "G": [{"terms": [{"c": 0.1, "exp": [1]}]}]}),
     ("fn", "eval", "--at", "1/3"), "0.1 is a float"),
    (dict(OSC, body={"alphas": {"1": 0.1}}), ("fn", "eval", "--at", "3/10"),
     "0.1 is a float"),
    (dict(OSC, body={"alphas": {"1": float("inf")}}), ("fn", "eval", "--at", "3/10"),
     "Infinity is a float"),
    (dict(OSC, budget={"tolerance": 0.001}), ("norm", "alexiewicz"), "0.001 is a float"),
    (dict(OSC, budget={"tolerance": True}), ("norm", "alexiewicz"), "bad tolerance True"),
    ([["0", "1/2", 0.5]], ("certify", "perturbation", "--bound", "1", "--radius", "1/2",
                           "--interval", "0", "1", "--pieces"), "0.5 is a float"),
], ids=["jump-body-float", "osc-body-float", "osc-body-infinity", "tolerance-float",
        "tolerance-bool", "pieces-float"])
def test_inexact_spec_values_are_rejected(capsys, tmp_path, spec, argv, message):
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(spec))
    where = (str(path),) if argv[-1] == "--pieces" else ("--spec", str(path))
    code = main([*argv, *where])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert message in json.loads(captured.out)["error"]


def _tower_rule(power: dict, preset: str = "dyadic") -> dict:
    return dict(TOWER, body={"tower": {"preset": preset}, "rule": {"power": power}})


def _jump_term(c: object = "1", exp: object = (1,), basis: object = (1,)) -> dict:
    return dict(JUMP, body={"basis": basis, "G": [{"terms": [{"c": c, "exp": exp}]}]})


PIECES = ("certify", "perturbation", "--bound", "1", "--radius", "1/2",
          "--interval", "0", "1", "--pieces")


@pytest.mark.parametrize("spec,argv,message", [
    (dict(OSC, body={"alphas": {"1": True}}), ("fn", "eval", "--at", "3/10"),
     "body.alphas.1: bool is not a rational"),
    (dict(OSC, body={"lo": False, "hi": True}), ("fn", "eval", "--at", "3/10"),
     "body.lo: bool is not a rational"),
    (_tower_rule({"theta": "3/2", "subseq": [True, 2]}), ("norm", "l1"),
     "body.rule.power.subseq[0]: bool is not an integer"),
    (_jump_term(exp="1"), ("norm", "bv"), "body.G[0].terms[0].exp: str is not an array"),
    (_jump_term(exp=[True]), ("norm", "bv"),
     "body.G[0].terms[0].exp[0]: bool is not an integer"),
    (_jump_term(basis=[True]), ("norm", "bv"), "body.basis[0]: bool is not an integer"),
    (_jump_term(c=True), ("norm", "bv"), "body.G[0].terms[0].c: bool is not a rational"),
    (_jump_term(c="1/0"), ("norm", "bv"),
     "body.G[0].terms[0].c: '1/0' has a zero denominator"),
    (dict(JUMP, body={"terms": [{"beta": "1", "shift": True}]}), ("norm", "bv"),
     "body.terms[0].shift: bool is not an integer"),
    (dict(JUMP, body={"shift": {"sqrt2_multiple": True}}), ("norm", "bv"),
     "body.shift.sqrt2_multiple: bool is not an integer"),
    (dict(JUMP, body={"basis": [1], "G": [{"terms": [{"c": "1"}]}]}), ("norm", "bv"),
     "body.G[0].terms[0].exp: required key is missing"),
    (dict(OSC, body={"alphas": []}), ("norm", "alexiewicz"),
     "body.alphas: list is not an object"),
    (dict(OSC, body={"alphas": "1"}), ("norm", "alexiewicz"),
     "body.alphas: str is not an object"),
    (dict(OSC, body={"alphas": {"01": "1"}}), ("norm", "alexiewicz"),
     "body.alphas: key '01' is not a positive integer"),
    (dict(TOWER, body={"tower": [], "rule": {}}), ("norm", "l1"),
     "body.tower: list is not an object"),
    (dict(TOWER, body={"tower": {"preset": "dyadic"}, "rule": {}}), ("norm", "l1"),
     "body.rule.monomial: required key is missing"),
    (dict(TOWER, budget=[]), ("norm", "l1"), "budget must be an object"),
    ([[0, 1, True]], PIECES, "pieces[0][2]: bool is not a rational"),
    ({"lo": 0, "hi": 1, "value": 1}, PIECES, "pieces: dict is not an array"),
    ([[0, 1]], PIECES, "pieces[0]: a piece is [lo, hi, value]"),
    (dict(TOWER, body={"tower": {"preset": 5}, "rule": {}}), ("norm", "l1"),
     "body.tower.preset: int is not a string"),
    (dict(OSC, body={"lo": "0", "hi": "1", "kind": 5}), ("fn", "eval", "--at", "3/10"),
     "body.kind: int is not a string"),
    (_tower_rule({"theta": "3/2", "subseq": 5}), ("norm", "l1"),
     "body.rule.power.subseq: int is not an array"),
    # a value of the right type that a constructor refuses gives its message
    (_jump_term(basis=[4]), ("norm", "bv"), "surd 4 is not a squarefree positive integer"),
    (_jump_term(basis=[-2]), ("norm", "bv"), "surd -2 is not a squarefree positive integer"),
    (_tower_rule({"theta": "3/2", "subseq": "arith:x:1"}), ("norm", "l1"),
     "unknown subsequence rule 'arith:x:1'"),
], ids=["alphas-bool", "host-bool", "subseq-bool", "exp-str", "exp-bool", "basis-bool",
        "c-bool", "c-zero-denominator", "shift-bool", "sqrt2-bool", "exp-missing",
        "alphas-list", "alphas-str", "alphas-key", "tower-list", "rule-empty",
        "budget-list", "pieces-bool", "pieces-object", "pieces-short", "preset-int",
        "kind-int", "subseq-int", "basis-value", "basis-negative", "subseq-name"])
def test_malformed_spec_values_name_their_json_path(capsys, tmp_path, spec, argv, message):
    # each of these exited 0 with a result, or escaped main as a traceback
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    where = (str(path),) if argv[-1] == "--pieces" else ("--spec", str(path))
    code = main([*argv, *where])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    error = json.loads(captured.out)["error"]  # one JSON document, nothing else
    assert error == message or error.endswith(f": {message}")


def _refusal(capsys, tmp_path, spec, *argv):
    """(exit code, error, seconds) of a command on the spec document."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code = main([*argv, "--spec", str(path)])
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out).get("error"), seconds


def _monomial(preset: str, theta: object, k: object) -> dict:
    return dict(TOWER, body={"tower": {"preset": preset}, "rule": {"monomial": {
        "thetas": [theta], "rows": [{"beta": "1", "k": [k]}]}}})


_EVAL = ("fn", "eval", "--at", "1/3")
_L1 = ("norm", "l1")


# the squarefree surds up to SURD_CEILING: 61 of them
_SURDS = [d for d in range(1, SURD_CEILING + 1) if all(d % (p * p) for p in range(2, d))]


@pytest.mark.parametrize("spec,argv,where,what,ceiling", [
    # ran past a 10-s timeout in exp_enc
    (_jump_term(exp=[1000000]), _EVAL, "body.G[0].terms[0].exp[0]", "magnitude", EXP_CEILING),
    # took about 9 s in the surd's trial division
    (_jump_term(exp=[0], basis=[1000000000000037]), _EVAL, "body.basis[0]", "magnitude",
     SURD_CEILING),
    # rate about 40,000: norm bv ran past a 15-s timeout
    (_jump_term(exp=[EXP_CEILING] * len(_SURDS), basis=_SURDS), ("norm", "bv"),
     "body.G[0].terms[0].exp", "rate", RATE_CEILING),
    # 1.4 s, 2.7 s and past 30 s in the tower's residuals and the term enclosures
    (_tower_rule({"theta": "3/2", "subseq": [3000]}), _L1, "body.rule.power.subseq[0]",
     "magnitude", SUBSEQ_CEILING),
    (_tower_rule({"theta": "3/2", "subseq": "arith:1000:1"}), _L1, "body.rule.power.subseq",
     "magnitude", SUBSEQ_CEILING),
    (_tower_rule({"theta": "3/2", "subseq": "arith:1:1000"}), _L1, "body.rule.power.subseq",
     "magnitude", STRIDE_CEILING),
    # the factorial tail adds about 2 * 10^4 terms of factorial size: past 20 s
    (_tower_rule({"theta": "10000", "subseq": "all"}, "factorial"), _L1,
     "body.rule.power.theta", "value", TILT_CEILING),
    (_tower_rule({"theta": "1500001/1000000", "subseq": "arith:256:2"}, "factorial"), _L1,
     "body.rule.power.theta", "denominator", TILT_DENOMINATOR_CEILING),
    # ran past a 20-s timeout in l1_norm's powers of 2^1000
    (_monomial("dyadic", 2, 1000), _L1, "body.rule.monomial.rows[0].k[0]", "magnitude",
     K_CEILING),
    # the factorial tail sums about 2 * 5000 terms of factorial size
    (_monomial("factorial", 5000, 1), _L1, "body.rule.monomial.thetas[0]", "magnitude",
     THETA_CEILING),
    # T = 10^6 from two bases at their ceilings: the same tail ran past 15 s
    (dict(TOWER, body={"tower": {"preset": "factorial"}, "rule": {"monomial": {
        "thetas": [THETA_CEILING] * 2, "rows": [{"beta": "1", "k": [K_CEILING] * 2}]}}}),
     _L1, "body.rule.monomial.rows[0].k", "product", PRODUCT_CEILING),
], ids=["exp", "surd", "rate", "subseq", "arith-start", "arith-stride", "theta-value",
        "theta-denominator", "k", "thetas", "product"])
def test_spec_integers_above_their_ceiling_exit_1_at_once(capsys, tmp_path, spec, argv, where,
                                                          what, ceiling):
    code, error, seconds = _refusal(capsys, tmp_path, spec, *argv)
    assert (code, error) == (1, f"{where}: {what} above the ceiling {ceiling}")
    assert seconds < 1


def test_spec_integers_at_their_ceiling_are_read(capsys, tmp_path):
    # the largest squarefree surd under the ceiling, and exponents at both ends
    surd = max(_SURDS)
    body = {"basis": [1, surd], "G": [{"terms": [{"c": "1", "exp": [EXP_CEILING, -EXP_CEILING]},
                                                 {"c": "1", "exp": [-EXP_CEILING, EXP_CEILING]}]}]}
    code, error, _ = _refusal(capsys, tmp_path, dict(JUMP, body=body), *_EVAL)
    assert (code, error) == (0, None)
    # the largest surds at the largest exponent while the rate stays within its ceiling:
    # the slowest term norm bv accepts
    basis, exp = [], []
    for d in sorted(_SURDS, reverse=True):
        if sum(math.isqrt(EXP_CEILING**2 * s) for s in [*basis, d]) > RATE_CEILING:
            break
        basis.append(d)
        exp.append(EXP_CEILING)
    assert len(basis) == 3
    code, error, _ = _refusal(capsys, tmp_path, _jump_term(exp=exp, basis=basis), "norm", "bv")
    assert (code, error) == (0, None)


@pytest.mark.parametrize("spec", [
    dict(TOWER, body={"tower": {"preset": "factorial"}, "rule": {"power": {
        "theta": "3/2", "subseq": f"arith:{SUBSEQ_CEILING}:{STRIDE_CEILING}"}}}),
    dict(TOWER, body={"tower": {"preset": "factorial"}, "rule": {"power": {
        "theta": "3/2", "subseq": list(range(SUBSEQ_CEILING - 199, SUBSEQ_CEILING + 1))}}}),
    _tower_rule({"theta": f"{TILT_CEILING * TILT_DENOMINATOR_CEILING - 1}/"
                          f"{TILT_DENOMINATOR_CEILING}",
                 "subseq": f"arith:{SUBSEQ_CEILING}:{STRIDE_CEILING}"}, "factorial"),
    _monomial("factorial", THETA_CEILING, K_CEILING),
], ids=["arith", "subseq", "theta", "monomial"])
def test_tower_series_integers_at_their_ceiling_are_read(capsys, tmp_path, spec):
    # the slowest specs the ceilings accept, at the default budget: norm l1 sums 64 terms
    code, error, _ = _refusal(capsys, tmp_path, spec, *_L1)
    assert (code, error) == (0, None)


_CEILING_BODY = {"basis": [1, 2], "G": [{"terms": [{"c": "1", "exp": [1, 0]}]}],
                 "continuous": {"terms": [{"c": "1/2", "exp": [0, 1]}]}}
# each exponent and surd site of _CEILING_BODY: (keys, printed path, ceiling)
_CEILING_SITES = [
    (("basis", 0), "body.basis[0]", SURD_CEILING),
    (("basis", 1), "body.basis[1]", SURD_CEILING),
    (("G", 0, "terms", 0, "exp", 0), "body.G[0].terms[0].exp[0]", EXP_CEILING),
    (("continuous", "terms", 0, "exp", 1), "body.continuous.terms[0].exp[1]", EXP_CEILING),
]


@given(st.sampled_from(_CEILING_SITES), st.integers(min_value=1, max_value=10**40),
       st.sampled_from((1, -1)),
       st.sampled_from((("fn", "eval", "--at", "1/3"), ("norm", "bv"),
                        ("certify", "jump-dense", "--interval", "0", "1"))))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_huge_exponents_and_surds_are_refused_by_path(capsys, tmp_path, site, excess, sign,
                                                      argv):
    keys, where, ceiling = site
    body = json.loads(json.dumps(_CEILING_BODY))
    node = body
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = sign * (ceiling + excess)
    code, error, _ = _refusal(capsys, tmp_path, dict(JUMP, body=body), *argv)
    assert (code, error) == (1, f"{where}: magnitude above the ceiling {ceiling}")


def test_report_tolerance_below_range_is_rejected(specs, capsys):
    code, out = run(capsys, "report", specs["osc"], "--tolerance", "1/10000000")
    assert code == 1 and "budget tolerance" in out["error"]


def test_bad_subcommand(capsys):
    code, out = run(capsys, "frobnicate")
    assert code == 1 and "error" in out


def test_missing_spec_flag(capsys):
    code, out = run(capsys, "norm", "l1")
    assert code == 1 and "error" in out


def test_csv_flag_without_csv_output(specs, capsys):
    code, out = run(capsys, "norm", "l1", "--spec", specs["tower"],
                    "--csv", "/tmp/nope.csv")
    assert code == 1 and "CSV" in out["error"]


# every command but the four that write rows; each names an input that does
# not exist, so only a refusal made before the command runs reads "CSV"
@pytest.mark.parametrize("argv", [
    ("fn", "integrate", "--spec", "{missing}", "--from", "0", "--to", "1"),
    ("norm", "l1", "--spec", "{missing}"),
    ("norm", "bv", "--spec", "{missing}"),
    ("norm", "alexiewicz", "--spec", "{missing}"),
    ("certify", "unbounded", "--spec", "{missing}", "--interval", "0", "1",
     "--bound", "2"),
    ("certify", "jump-dense", "--spec", "{missing}", "--interval", "0", "1"),
    ("certify", "basis", "--spec", "{missing}", "--coeffs", "1"),
    ("certify", "perturbation", "--pieces", "{missing}", "--bound", "1",
     "--radius", "1", "--interval", "0", "1"),
    ("report", "{missing}"),
], ids=["fn integrate", "norm l1", "norm bv", "norm alexiewicz", "certify unbounded",
        "certify jump-dense", "certify basis", "certify perturbation", "report"])
def test_csv_is_refused_before_a_rowless_command_runs(capsys, tmp_path, argv):
    csv_path = tmp_path / "rows.csv"
    argv = [a.format(missing=tmp_path / "missing.json") for a in argv]
    code, out = run(capsys, *argv, "--csv", str(csv_path))
    assert code == 1 and out["error"] == "this command does not emit CSV"
    assert not csv_path.exists()


def test_csv_on_a_tower_series_eval_is_refused_before_evaluating(specs, capsys,
                                                                  tmp_path, monkeypatch):
    from realcert import stepseries
    monkeypatch.setattr(stepseries, "eval_series", lambda *a: pytest.fail("evaluated"))
    csv_path = tmp_path / "rows.csv"
    code, out = run(capsys, "fn", "eval", "--spec", specs["tower"], "--at", "3/8",
                    "--csv", str(csv_path))
    assert code == 1 and "--csv" in out["error"]
    assert not csv_path.exists()


def test_inconclusive_row_command_keeps_exit_2_and_writes_no_csv(specs, capsys, tmp_path):
    csv_path = tmp_path / "peaks.csv"
    argv = ("certify", "non-lebesgue", "--spec", specs["osc"], "--bound", "40",
            "--budget", "maxgen=1")
    code, bare = run(capsys, *argv)
    assert code == 2 and bare["verdict"] == "inconclusive-at-budget"
    code, out = run(capsys, *argv, "--csv", str(csv_path))
    assert code == 2 and out == bare
    assert not csv_path.exists()


def test_grid_is_evaluated_only_for_csv_rows(specs, capsys, tmp_path, monkeypatch):
    from realcert.jumps import JumpPolynomial
    calls = []
    real = JumpPolynomial.value_at
    monkeypatch.setattr(JumpPolynomial, "value_at",
                        lambda self, *a: calls.append(a[0]) or real(self, *a))
    argv = ("fn", "eval", "--spec", specs["jump"], "--at", "1/3", "--grid", "50")
    code, _ = run(capsys, *argv)
    assert code == 0 and calls == [Fraction(1, 3)]
    calls.clear()
    code, _ = run(capsys, *argv, "--csv", str(tmp_path / "rows.csv"))
    assert code == 0 and len(calls) == 52  # --at, then k/50 for k = 0..50


@pytest.mark.parametrize("argv", [
    ("tower", "build", "--spec", "{tower}"),
    ("tower", "show", "--spec", "{tower}", "--generation", "2", "--budget", "depth=4"),
    ("fn", "eval", "--spec", "{jump}", "--at", "1/3"),
    ("fn", "eval", "--spec", "{jump}", "--at", "1/3", "--grid", "50"),
    ("certify", "non-lebesgue", "--spec", "{osc}", "--bound", "4"),
], ids=["tower build", "tower show", "fn eval", "fn eval grid", "certify non-lebesgue"])
def test_rows_are_formatted_only_for_csv(specs, capsys, tmp_path, monkeypatch, argv):
    from realcert import cli
    calls = []
    real = cli._csv
    monkeypatch.setattr(cli, "_csv", lambda *a: calls.append(a) or real(*a))
    argv = [a.format(**specs) for a in argv]
    code, bare = run(capsys, *argv)
    assert (code, calls) == (0, [])
    csv_path = tmp_path / "rows.csv"
    code, out = run(capsys, *argv, "--csv", str(csv_path))
    assert (code, out, len(calls)) == (0, bare, 1)
    assert csv_path.read_text() == real(*calls[0])


def test_non_lebesgue_at_bound_18_skips_its_unwritten_rows(capsys):
    # building 11,728 rows that nothing wrote took 26 s; the certificate is unchanged
    start = time.perf_counter()
    osc = Path(__file__).resolve().parents[1] / "src" / "realcert" / "specs" / "osc.json"
    code = main(["certify", "non-lebesgue", "--spec", str(osc), "--bound", "18"])
    seconds = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0 and seconds < 5
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "80dd52837f7a56400a187f497be641f127a760ead52036bef7f2f36abc500232")


@pytest.mark.parametrize("kind", ["jump", "osc"])
def test_grid_rows_are_the_point_values(specs, capsys, tmp_path, kind):
    csv_path = tmp_path / "rows.csv"
    code, _ = run(capsys, "fn", "eval", "--spec", specs[kind], "--at", "1/3",
                  "--grid", "4", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,lo,hi" and len(lines) == 4 + 2
    for k, line in enumerate(lines[1:]):
        code, out = run(capsys, "fn", "eval", "--spec", specs[kind], "--at", f"{k}/4")
        assert code == 0
        x, lo, hi = line.split(",")
        assert Fraction(x) == Fraction(k, 4)
        assert (lo, hi) == (out["value"]["lo"], out["value"]["hi"])


def test_spec_budget_survives_empty_overrides(specs, capsys):
    # the osc spec pins tolerance 1/1000; bare flags must not reset it
    code, out = run(capsys, "norm", "alexiewicz", "--spec", specs["osc"])
    assert code == 0
    assert out["payload"]["tolerance"] == "1/1000"


# -- determinism ------------------------------------------------------------


def test_identical_runs_are_byte_identical(specs, capsys):
    main(["norm", "l1", "--spec", specs["tower"]])
    first = capsys.readouterr().out
    main(["norm", "l1", "--spec", specs["tower"]])
    second = capsys.readouterr().out
    assert first == second


def test_report_deterministic_modulo_wall_clock(specs, capsys):
    def normalized():
        main(["report", specs["tower"]])
        data = json.loads(capsys.readouterr().out)
        for entry in data["entries"]:
            entry["wall_ms"] = 0
        return data

    assert normalized() == normalized()


# -- flag set ---------------------------------------------------------------


def flag_record(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """Each action's declaration, per command path, read off the parser."""
    record: dict = {path: []}
    for action in parser._actions:
        record[path].append({
            "option_strings": action.option_strings, "dest": action.dest,
            "required": action.required, "nargs": action.nargs,
            "default": repr(action.default), "metavar": action.metavar,
            "type": getattr(action.type, "__name__", None), "help": action.help})
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                record.update(flag_record(sub, f"{path} {name}".strip()))
    return record


def test_flag_set_is_pinned():
    # the top level, 4 groups and 13 commands; a flag added, dropped or
    # redeclared changes the digest, whatever the help formatter prints
    record = flag_record(build_parser())
    assert len(record) == 18
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == "ab3673017c96cd56ff5958a0413659431f2ea826a62e6067aea7017ba8c9727d"
