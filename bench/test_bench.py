"""Tests of the benchmark itself (not of realcert).

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import decimal
import json
import os
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from children import run_child  # noqa: E402


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for seed in (1, 7, 123456):
            self.assertEqual(inputs.dumps(inputs.library_ops(seed)),
                             inputs.dumps(inputs.library_ops(seed)))
            self.assertEqual(inputs.dumps(inputs.cli_script(seed, "p.json")),
                             inputs.dumps(inputs.cli_script(seed, "p.json")))

    def test_other_seed_gives_other_inputs(self):
        self.assertNotEqual(inputs.dumps(inputs.library_ops(1)),
                            inputs.dumps(inputs.library_ops(2)))
        self.assertNotEqual(inputs.dumps(inputs.cli_script(1, "p.json")),
                            inputs.dumps(inputs.cli_script(2, "p.json")))

    def test_enumeration_round_trip(self):
        for i in range(1, 2000):
            self.assertEqual(inputs.cw_index(inputs.cw_rational(i)), i)


class _Workload:
    def spot(self, index, payload):
        return checks.bundled_spot(payload) if "criterion" in payload else None


def _pass(payloads):
    return run.Pass(1.0, 1.0, [run.Op(f"op{i}", None, p) for i, p in enumerate(payloads)])


class TamperedPayloads(unittest.TestCase):
    payloads = [{"criterion": 2, "payload": {"norm": {"lo": "1/1", "hi": "3/2"},
                                             "verdict": "computed"}, "wall_ms": 5},
                {"x": ["1/3", "2/3"]}]

    def test_untampered_passes(self):
        ref = [checks.digest(p) for p in self.payloads]
        attempted, failures = run.verify(_Workload(), [_pass(self.payloads)] * 2, ref)
        self.assertEqual((attempted, failures), (4, []))

    def test_wall_ms_is_outside_the_digest(self):
        other = json.loads(json.dumps(self.payloads))
        other[0]["wall_ms"] = 999
        self.assertEqual(checks.digest(other[0]), checks.digest(self.payloads[0]))

    def test_tampered_payload_is_counted_failed(self):
        ref = [checks.digest(p) for p in self.payloads]
        tampered = json.loads(json.dumps(self.payloads))
        tampered[1]["x"][1] = "3/4"
        attempted, failures = run.verify(_Workload(), [_pass(tampered)], ref)
        self.assertEqual(attempted, 2)
        self.assertEqual([name for name, _ in failures], ["op1"])
        # without a reference, a pass that differs from the first one fails
        attempted, failures = run.verify(_Workload(), [_pass(self.payloads),
                                                       _pass(tampered)], None)
        self.assertEqual([name for name, _ in failures], ["op1"])

    def test_spot_check_catches_unsound_payload(self):
        bad = json.loads(json.dumps(self.payloads))
        bad[0]["payload"]["norm"]["hi"] = "6/5"  # no longer contains 9/7
        ref = [checks.digest(p) for p in bad]
        _, failures = run.verify(_Workload(), [_pass(bad)], ref)
        self.assertEqual([name for name, _ in failures], ["op0"])

    def test_unreadable_payload_fails_only_its_operation(self):
        class Strict:
            def spot(self, index, payload):
                return payload["missing"]
        attempted, failures = run.verify(Strict(), [_pass([{"a": 1}])], None)
        self.assertEqual((attempted, [name for name, _ in failures]), (1, ["op0"]))

    def test_library_kernel_checked_against_decimal(self):
        op = {"kind": "exp_enc", "x": "1/3", "prec": 128}
        with decimal.localcontext(checks._ctx()):
            e = checks.dec(Fraction(1, 3)).exp()
        lo, hi = Fraction(e) - Fraction(1, 10**80), Fraction(e) + Fraction(1, 10**80)
        self.assertIsNone(checks.library_spot(op, [str(lo), str(hi)]))
        shifted = [str(lo + Fraction(1, 10**40)), str(hi + Fraction(1, 10**40))]
        self.assertIsNotNone(checks.library_spot(op, shifted))

    def test_staircase_jump_must_be_exact(self):
        op = {"kind": "staircase_jump", "i": 5, "q": str(inputs.cw_rational(5))}
        good = {"index": 5, "jump": ["1/32", "1/32"]}
        self.assertIsNone(checks.library_spot(op, good))
        self.assertIsNotNone(checks.library_spot(op, {"index": 5, "jump": ["1/32", "1/31"]}))


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # a [0, 100] holds b [10, 40] and d [50, 70]; b holds c [20, 30]
        tree = [[0, -1, "a", 0, 100, 0], [1, 0, "b", 10, 40, 0],
                [2, 1, "c", 20, 30, 0], [3, 0, "d", 50, 70, 0]]
        self.assertEqual(spans.self_times(tree), {0: 50, 1: 20, 2: 10, 3: 20})

    def test_overlapping_and_overhanging_children_count_once(self):
        tree = [[0, -1, "a", 0, 100, 0], [1, 0, "b", 10, 40, 0],
                [2, 0, "c", 30, 60, 0], [3, 0, "d", 90, 120, 0]]
        self.assertEqual(spans.self_times(tree)[0], 100 - 50 - 10)

    def test_summarize_sums_processes(self):
        dump = {"spans": [[0, -1, "x.f", 0, 2_000_000_000, 0],
                          [1, 0, "x.g", 0, 500_000_000, 0]],
                "counts": {"x.f": 1, "x.g": 1}, "caches": {},
                "witnesses": 0, "witness_indices": 0}
        out = spans.summarize([dump, dump])
        self.assertEqual(out["x.f.calls"], 2)
        self.assertAlmostEqual(out["x.f.s"], 4.0)
        self.assertAlmostEqual(out["x.f.self_s"], 3.0)


class Tracing(unittest.TestCase):
    def test_wrappers_count_and_are_removed(self):
        import realcert
        from realcert import enclosure, oscillator
        original = realcert.sin_pi
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(realcert.sin_pi, original)
            self.assertIs(oscillator.sin_pi, realcert.sin_pi)
            realcert.cos_pi(Fraction(1, 3), 64)
            realcert.Enclosure.point(1) * 2
            realcert.tower_generation(realcert.TowerSpec("dyadic"), 3, 4)
        finally:
            tracer.uninstall()
        self.assertIs(realcert.sin_pi, original)
        self.assertIs(enclosure.Enclosure.__rmul__, enclosure.Enclosure.__mul__)
        c = tracer.counts
        self.assertEqual((c["enclosure.cos_pi"], c["enclosure.sin_pi"]), (1, 1))
        self.assertEqual(c["cantor.tower_generation"], 1)
        self.assertEqual(c["cantor.TowerSpec.residual"], 3 + 1)  # rho(1..3), then upper
        cos_span, sin_span = [s for s in tracer.spans if s[2].startswith("enclosure.")][:2]
        self.assertEqual(sin_span[1], cos_span[0])  # sin_pi ran inside cos_pi

    def test_layer_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.layer_metric_names())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]))


class Children(unittest.TestCase):
    def test_deadline_kills_a_hang(self):
        got = run_child([sys.executable, "-c", "import time; time.sleep(30)"], 0.5,
                        dict(os.environ), str(HERE))
        self.assertTrue(got.timed_out)
        self.assertLess(got.wall_s, 10)

    def test_output_and_rss(self):
        got = run_child([sys.executable, "-c", "print('x' * 200000)"], 20,
                        dict(os.environ), str(HERE))
        self.assertEqual((got.exit_code, len(got.stdout)), (0, 200001))
        self.assertGreater(got.maxrss_mb, 1)


if __name__ == "__main__":
    unittest.main()
