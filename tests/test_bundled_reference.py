"""Byte guard for `realcert report --bundled`.

The benchmark pins the sha256 of every bundled report entry in
bench/reference.json.  This test recomputes those digests in process, with
the same canonical form as bench/checks.py: keys sorted, no whitespace,
and the wall_ms, effort and library fields stripped at every level.  The
reference file is only read here; moving one of its digests takes a
deliberate re-record of the benchmark.
"""

import hashlib
import json
from pathlib import Path

from realcert.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
VOLATILE = frozenset({"wall_ms", "effort", "library"})


def _strip(data):
    if isinstance(data, dict):
        return {k: _strip(v) for k, v in data.items() if k not in VOLATILE}
    if isinstance(data, list):
        return [_strip(v) for v in data]
    return data


def _digest(entry) -> str:
    text = json.dumps(_strip(entry), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_bundled_report_matches_bench_reference(capsys):
    pinned = json.loads(REFERENCE.read_text(encoding="utf-8"))["bundled-report"]
    assert main(["report", "--bundled", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["criterion"] for e in entries] == list(range(1, len(pinned) + 1))
    for entry, want in zip(entries, pinned):
        assert _digest(entry) == want, f"check {entry['criterion']} {entry['title']}"
