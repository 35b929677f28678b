"""Byte guard for the three workloads the benchmark pins.

The benchmark pins the sha256 of every bundled report entry, and of every
spec-cli command and library-sweep operation at seed 1, in
bench/reference.json.  These tests recompute those digests in process,
with the same canonical form as bench/checks.py: keys sorted, no
whitespace, and the wall_ms, effort and library fields stripped at every
level.  Everything under bench/ is only read here; moving one of its
digests takes a deliberate re-record of the benchmark.

The spec-cli commands are also run the way the benchmark runs them, each
in a fresh interpreter, because which modules a command imports, and in
what order, only shows there; each must load only its own construction.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from realcert import __version__
from realcert.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 1
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


def _pinned(workload: str) -> list[str]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


@pytest.fixture
def bench(monkeypatch):
    """bench/ on the import path, without writing bytecode into it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))


def test_bundled_report_matches_bench_reference(capsys):
    pinned = _pinned("bundled-report")
    assert main(["report", "--bundled", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["criterion"] for e in entries] == list(range(1, len(pinned) + 1))
    for entry, want in zip(entries, pinned):
        assert _digest(entry) == want, f"check {entry['criterion']} {entry['title']}"


def test_spec_cli_matches_bench_reference(bench, capsys, monkeypatch, tmp_path):
    import inputs

    pinned = _pinned("spec-cli")
    pieces_path = tmp_path / "pieces.json"
    cmds, pieces = inputs.cli_script(REFERENCE_SEED, str(pieces_path))
    pieces_path.write_text(inputs.dumps(pieces), encoding="utf-8")
    monkeypatch.chdir(ROOT)  # report entries name src/realcert/specs/...
    assert len(cmds) == len(pinned)
    for k, (cmd, want) in enumerate(zip(cmds, pinned)):
        assert main(cmd["argv"]) == 0, cmd["argv"]
        got = _digest(json.loads(capsys.readouterr().out))
        assert got == want, f"command {k}: {' '.join(cmd['argv'])}"


# construction modules a command must not import, by the spec it reads;
# the step-function command (certify perturbation) reads none
_CONSTRUCTIONS = frozenset({"cantor", "stepseries", "jumps", "oscillator", "checklist"})
_MAY_LOAD = {"tower.json": {"cantor", "stepseries"}, "jump.json": {"jumps"},
             "osc.json": {"oscillator"}, None: {"cantor", "stepseries"}}


def _fresh_cli(argv: list[str]) -> tuple[int, str, set[str]]:
    """Exit code, stdout and the realcert modules loaded by one fresh run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "realcert", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    return done.returncode, done.stdout, {m[len("realcert."):] for m in loaded
                                          if m.startswith("realcert.")}


def test_spec_cli_fresh_interpreters_match_and_load_only_their_modules(bench, tmp_path):
    import inputs

    pinned = _pinned("spec-cli")
    pieces_path = tmp_path / "pieces.json"
    cmds, pieces = inputs.cli_script(REFERENCE_SEED, str(pieces_path))
    pieces_path.write_text(inputs.dumps(pieces), encoding="utf-8")
    assert len(cmds) == len(pinned)

    code, out, loaded = _fresh_cli(["--version"])
    assert (code, out) == (0, f"realcert {__version__}\n")
    assert not loaded & _CONSTRUCTIONS, loaded
    for k, (cmd, want) in enumerate(zip(cmds, pinned)):
        argv = cmd["argv"]
        code, out, loaded = _fresh_cli(argv)
        assert code == 0, argv
        assert _digest(json.loads(out)) == want, f"command {k}: {' '.join(argv)}"
        spec = next((Path(a).name for a in argv if a.endswith(".json")
                     and Path(a).parent.name == "specs"), None)
        assert not loaded & (_CONSTRUCTIONS - _MAY_LOAD[spec]), (argv, loaded)


def test_library_sweep_matches_bench_reference(bench):
    import inputs
    import sweep

    pinned = _pinned("library-sweep")
    ops = inputs.library_ops(REFERENCE_SEED)
    assert len(ops) == len(pinned)
    for i, (op, want) in enumerate(zip(ops, pinned)):
        assert _digest(sweep.run_op(op)) == want, f"operation {i}: {op['kind']}"


def test_benchmark_unit_tests_pass():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "bench"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
