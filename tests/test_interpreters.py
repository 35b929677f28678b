"""Byte identity across every CPython 3.10+ found on PATH as python3.X.

Each interpreter runs a stdlib-only child: the bundled report and the
spec-cli commands at seed 1, in process, digested the way bench/checks.py
digests them and compared with bench/reference.json.  The child runs
isolated and without the site module, so no third-party package can be
imported, and it writes no bytecode; of bench/ it imports only inputs.py
and checks.py.  An interpreter that cannot run `-c pass` (a shim with no
installed version behind it, say) is skipped.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FOUND = [name for name in (f"python3.{x}" for x in range(10, 20)) if shutil.which(name)]

CHILD = r"""
import contextlib, io, json, os, sys, tempfile

root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
import checks, inputs
from realcert.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())

with open(os.path.join(root, "bench", "reference.json"), encoding="utf-8") as fh:
    reference = json.load(fh)
bad = []
code, report = run(["report", "--bundled", "--json"])
digests = [checks.digest(e) for e in report["entries"]]
if code != 0 or digests != reference["bundled-report"]:
    bad.append(("report --bundled", code))
with tempfile.TemporaryDirectory() as tmp:
    pieces_path = os.path.join(tmp, "pieces.json")
    cmds, pieces = inputs.cli_script(1, pieces_path)
    with open(pieces_path, "w", encoding="utf-8") as fh:
        fh.write(inputs.dumps(pieces))
    if len(cmds) != len(reference["spec-cli"]):
        bad.append(("spec-cli command count", len(cmds)))
    for cmd, want in zip(cmds, reference["spec-cli"]):
        code, out = run(cmd["argv"])
        if code != 0 or checks.digest(out) != want:
            bad.append((" ".join(cmd["argv"]), code))
print(json.dumps({"version": sys.version.split()[0], "mismatches": bad}))
"""


@pytest.mark.parametrize("interpreter", FOUND)
def test_bench_reference_bytes_under_each_interpreter(interpreter):
    probe = subprocess.run([interpreter, "-c", "pass"], capture_output=True, timeout=30)
    if probe.returncode != 0:
        pytest.skip(f"{interpreter} does not start")
    done = subprocess.run([interpreter, "-I", "-S", "-B", "-c", CHILD, str(ROOT)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert '"mismatches": []' in done.stdout, done.stdout
