"""realcert benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; realcert is imported from
``src/``.  Workloads:

  bundled-report  one ``realcert report --bundled --json`` per pass
  spec-cli        a seeded script of short CLI commands, one process each
  library-sweep   one process per pass calling the public functions

The load is a closed loop with one client: passes run one after another,
each in fresh interpreters, so caches start cold as a CLI user finds
them.  Passes repeat until the next one would end past ``--seconds``.

``--trace 0`` reports the end-to-end metrics (medians over passes):
wall_s, setup_s, peak_rss_mb and ok_ratio (1 - failed/attempted).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics named in bench/layers.json; the traced passes install
timing wrappers from bench/spans.py, and trace.overhead_s is traced
minus untraced wall time.

Every output is checked after the timed region (bench/checks.py).  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The lines before it print every metric with its unit, quartiles and
sample count, and every failed operation by name.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import spans
from children import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
PY = sys.executable
REFERENCE_SEED = 1
RUN_CAP_S = 165.0          # every run ends well inside 180 s, hangs included
SETUP_REPEATS = 5
DEADLINE_S = {"report": 120.0, "command": 20.0, "sweep": 120.0}


def slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


@dataclass
class Op:
    """One checked operation of one pass."""
    name: str
    error: str | None = None
    payload: object = None


@dataclass
class Pass:
    wall_s: float
    maxrss_mb: float
    ops: list[Op]
    dumps: list[dict] = field(default_factory=list)       # traced passes only
    cmd_s: dict[str, list[float]] = field(default_factory=dict)
    check_s: dict[str, float] = field(default_factory=dict)


class Clock:
    """The run's hard deadline, shared by every child it starts."""

    def __init__(self) -> None:
        self.end = time.perf_counter() + RUN_CAP_S

    def budget(self, op_deadline: float) -> float:
        return min(op_deadline, self.end - time.perf_counter())


# a payload of an unexpected shape fails its operation instead of the run
MALFORMED = (ValueError, KeyError, TypeError, IndexError, AttributeError)


def _child_error(child, what: str) -> str | None:
    if child.timed_out:
        return f"{what} passed its {child.wall_s:.1f} s deadline"
    if child.exit_code != 0:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return f"{what} exited {child.exit_code}: {tail[0][:200]}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """Shared by the two workloads that drive the ``realcert`` command."""

    setup_argv = [PY, "-m", "realcert", "--version"]

    def __init__(self, seed: int, env: dict, clock: Clock) -> None:
        self.seed, self.env, self.clock = seed, env, clock

    def _argv(self, cli_args: list[str], traced: bool, op: int) -> list[str]:
        if not traced:
            return [PY, "-m", "realcert", *cli_args]
        out = OUT / "trace" / f"{self.name}-{op}.json"
        return [PY, str(HERE / "tracecli.py"), str(out), str(op), "--", *cli_args]

    def _run(self, cli_args: list[str], traced: bool, op: int, deadline: float):
        budget = self.clock.budget(deadline)
        if budget <= 0:
            return None, "not started: the run's deadline was reached"
        return run_child(self._argv(cli_args, traced, op), budget, self.env, str(ROOT)), None

    def _dump(self, child, traced: bool, op: int) -> list[dict]:
        """The spans a traced child wrote, read after the timed region."""
        if not traced or child.exit_code != 0:  # exit 0 means the trace was written
            return []
        with open(OUT / "trace" / f"{self.name}-{op}.json", encoding="utf-8") as fh:
            return [json.load(fh)]


class BundledReport(CliWorkload):
    name = "bundled-report"

    def run_pass(self, traced: bool) -> Pass:
        started = time.perf_counter()
        got, err = self._run(["report", "--bundled", "--json"], traced, 0,
                             DEADLINE_S["report"])
        wall = time.perf_counter() - started
        if err:
            return Pass(wall, 0.0, [Op("report --bundled", err)])
        child = got
        p = Pass(wall, child.maxrss_mb, [], self._dump(child, traced, 0))
        p.cmd_s["report"] = [child.wall_s]
        err = _child_error(child, "report --bundled")
        if err:
            p.ops.append(Op("report --bundled", err))
            return p
        try:
            entries = json.loads(child.stdout)["entries"]
        except MALFORMED as err:
            p.ops.append(Op("report --bundled", f"unreadable output: {err!r}"))
            return p
        for entry in entries:
            name = f"check {entry['criterion']:02d} {entry['title']}"
            verdict = entry["payload"].get("verdict")
            p.ops.append(Op(name, None if verdict in checks.OK_VERDICTS
                            else f"verdict {verdict!r}", entry))
            p.check_s[f"{entry['criterion']:02d}-{slug(entry['title'])}"] = \
                entry["wall_ms"] / 1000.0
        return p

    def spot(self, index: int, payload) -> str | None:
        return checks.bundled_spot(payload)

    def reference_key(self) -> str:
        return self.name


class SpecCli(CliWorkload):
    name = "spec-cli"

    def __init__(self, seed: int, env: dict, clock: Clock) -> None:
        super().__init__(seed, env, clock)
        pieces_path = OUT / f"pieces-{seed}.json"
        self.cmds, pieces = inputs.cli_script(seed, str(pieces_path.relative_to(ROOT)))
        pieces_path.write_text(inputs.dumps(pieces), encoding="utf-8")

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(0.0, 0.0, [])
        started = time.perf_counter()
        results = []
        for k, cmd in enumerate(self.cmds):
            results.append(self._run(cmd["argv"], traced, k, DEADLINE_S["command"]))
        p.wall_s = time.perf_counter() - started
        for k, (cmd, (child, err)) in enumerate(zip(self.cmds, results)):
            label = f"{cmd['name']} " + " ".join(cmd["argv"][2:])
            if err:
                p.ops.append(Op(label, err))
                continue
            p.maxrss_mb = max(p.maxrss_mb, child.maxrss_mb)
            p.cmd_s.setdefault(cmd["name"], []).append(child.wall_s)
            p.dumps += self._dump(child, traced, k)
            err = _child_error(child, cmd["name"])
            payload = None
            if err is None:
                try:
                    payload = json.loads(child.stdout)
                    bad = [v for v in checks.verdicts(payload)
                           if v not in checks.OK_VERDICTS]
                    err = f"verdicts {bad}" if bad else None
                except MALFORMED as exc:
                    err = f"unreadable output: {exc!r}"
            p.ops.append(Op(label, err, payload))
        return p

    def spot(self, index: int, payload) -> str | None:
        return checks.cli_spot(self.cmds[index], payload)

    def reference_key(self) -> str | None:
        return self.name if self.seed == REFERENCE_SEED else None


class LibrarySweep:
    name = "library-sweep"
    setup_argv = [PY, str(HERE / "sweep.py"), "--setup"]

    def __init__(self, seed: int, env: dict, clock: Clock) -> None:
        self.seed, self.env, self.clock = seed, env, clock
        self.ops = inputs.library_ops(seed)
        self.ops_path = OUT / f"library-ops-{seed}.json"
        self.ops_path.write_text(inputs.dumps(self.ops), encoding="utf-8")

    def _label(self, i: int) -> str:
        op = self.ops[i]
        return f"{i}:{op['kind']}" + (f"@{op['prec']}" if "prec" in op else "")

    def run_pass(self, traced: bool) -> Pass:
        argv = [PY, str(HERE / "sweep.py"), str(self.ops_path)]
        trace_path = OUT / "trace" / f"{self.name}.json"
        if traced:
            argv += ["--trace", str(trace_path)]
        budget = self.clock.budget(DEADLINE_S["sweep"])
        if budget <= 0:
            return Pass(0.0, 0.0, [Op(self._label(i), "not started: the run's deadline "
                                      "was reached") for i in range(len(self.ops))])
        child = run_child(argv, budget, self.env, str(ROOT))
        p = Pass(child.wall_s, child.maxrss_mb, [])
        lines = {}
        for raw in child.stdout.decode(errors="replace").splitlines():
            try:
                line = json.loads(raw)
                lines[line["i"]] = line
            except MALFORMED:
                continue  # not a result line; its operation shows as missing
        for i in range(len(self.ops)):
            line = lines.get(i)
            if line is None:
                err = _child_error(child, "sweep") or "sweep ended without it"
                p.ops.append(Op(self._label(i), f"no result: {err}"))
            else:
                p.ops.append(Op(self._label(i), line["error"], line["result"]))
        if traced and child.exit_code == 0:
            with open(trace_path, encoding="utf-8") as fh:
                p.dumps.append(json.load(fh))
        return p

    def spot(self, index: int, payload) -> str | None:
        return checks.library_spot(self.ops[index], payload)

    def reference_key(self) -> str | None:
        return self.name if self.seed == REFERENCE_SEED else None


WORKLOADS = {w.name: w for w in (BundledReport, SpecCli, LibrarySweep)}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def measure(workload, seconds: int, with_traced: bool, clock: Clock,
            between=lambda: None):
    """Untraced passes (alternating with traced ones when asked) for `seconds`.

    `between` runs after every pass, so samples it takes spread over the
    whole window rather than one stretch of it.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()
    turn = False
    while True:
        done = traced if turn else plain
        needed = not plain or (with_traced and not traced)
        if done:
            estimate = statistics.median(p.wall_s for p in done)
        else:
            estimate = plain[-1].wall_s if plain else 0.0
        now = time.perf_counter()
        if now + estimate > clock.end:
            break
        if not needed and now - started + estimate > seconds:
            break
        done.append(workload.run_pass(turn))
        between()
        if with_traced:
            turn = not turn
    return plain, traced


def repeat_child(argv: list[str], env: dict, clock: Clock, n: int = SETUP_REPEATS):
    """Wall times of n runs of argv, and the failures among them."""
    walls, failures = [], []
    for _ in range(n):
        label = "set-up " + " ".join(Path(a).name for a in argv[1:])
        budget = clock.budget(DEADLINE_S["command"])
        if budget <= 0:
            failures.append((label, "not started: the run's deadline was reached"))
            continue
        child = run_child(argv, budget, env, str(ROOT))
        err = _child_error(child, label)
        if err:
            failures.append((label, err))
        walls.append(child.wall_s)
    return walls, failures


def verify(workload, passes: list[Pass], reference: dict | None):
    """(attempted, failures) over every operation of every pass."""
    attempted = 0
    failures: list[tuple[str, str]] = []
    first: dict[int, str] = {}
    for p in passes:
        for i, op in enumerate(p.ops):
            attempted += 1
            reason = op.error
            if reason is None:
                d = checks.digest(op.payload)
                if reference is not None and i < len(reference) and reference[i] != d:
                    reason = "payload differs from the committed reference digest"
                elif i not in first:
                    # later passes must repeat these bytes, so one spot check covers them
                    first[i] = d
                    try:
                        reason = workload.spot(i, op.payload)
                    except MALFORMED as err:
                        reason = f"spot check cannot read the payload: {err!r}"
                elif first[i] != d:
                    reason = "payload differs from the first pass"
            if reason:
                failures.append((op.name, reason))
    return attempted, failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("indices_per_witness"):
        return "indices"
    return "count"


def layer_metric_names() -> list[str]:
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        layers = json.load(fh)
    return [m for layer in layers.values() for m in layer["metrics"]]


def per_layer(plain: list[Pass], traced: list[Pass], start_s: list[float],
              import_s: list[float]) -> tuple[dict[str, list[float]], list[str]]:
    """Samples of every per-layer metric, and any count mismatch between traced passes."""
    sums = [spans.summarize(p.dumps) for p in traced]
    problems = []
    calls = {k: v for k, v in sums[0].items() if not k.endswith(("_s", ".s"))}
    for other in sums[1:]:
        for k, v in calls.items():
            if other.get(k, 0) != v:
                problems.append(f"{k}: {v} != {other.get(k, 0)}")
    samples: dict[str, list[float]] = {}
    for name in layer_metric_names():
        samples[name] = [0.0]
    for k, v in calls.items():
        samples[k] = [v]
    for k in {k for s in sums for k in s if k.endswith(("_s", ".s"))}:
        samples[k] = [s.get(k, 0.0) for s in sums]
    hits = calls.get("stepseries.l1_norm.cache_hits", 0)
    lookups = hits + calls.get("stepseries.l1_norm.cache_misses", 0)
    samples["stepseries.l1_norm.cache_lookups"] = [lookups]
    samples["stepseries.l1_norm.cache_hit_ratio"] = [hits / lookups if lookups else 0.0]
    found = calls.get("jumps.jump_search.witnesses", 0)
    samples["jumps.jump_search.indices_per_witness"] = [
        calls.get("jumps.jump_search.witness_indices", 0) / found if found else 0.0]
    for check in {c for p in plain for c in p.check_s}:
        samples[f"checklist.{check}.s"] = [p.check_s[check] for p in plain if check in p.check_s]
    for cmd in {c for p in plain for c in p.cmd_s}:
        samples[f"cli.{cmd}.s"] = [t for p in plain for t in p.cmd_s.get(cmd, [])]
    samples["cli.python_start_s"] = start_s
    samples["cli.import_s"] = [statistics.median(import_s) - statistics.median(start_s)]
    samples["trace.overhead_s"] = [statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in plain)]
    return samples, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this run's payload digests to bench/reference.json")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error(f"references are recorded at seed {REFERENCE_SEED}")

    if not (ROOT / "src" / "realcert" / "__init__.py").is_file():
        print(f"bench: no realcert sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    clock = Clock()
    workload = WORKLOADS[args.workload](args.seed, env, clock)

    # untimed: compiles bytecode once, as an installed package would have it
    _, failures = repeat_child(workload.setup_argv, env, clock, 1)
    setup_runs = 1
    start_s, import_s, setup_s = [], [], []

    def sample(into: list, argv: list[str], n: int) -> None:
        nonlocal setup_runs
        walls, errors = repeat_child(argv, env, clock, n)
        into += walls
        failures.extend(errors)
        setup_runs += n

    if args.trace:
        sample(start_s, [PY, "-c", "pass"], SETUP_REPEATS)
        sample(import_s, [PY, "-c", "import realcert"], SETUP_REPEATS)
        plain, traced = measure(workload, args.seconds, True, clock)
    else:
        sample(setup_s, workload.setup_argv, SETUP_REPEATS)
        plain, traced = measure(workload, args.seconds, False, clock,
                                lambda: sample(setup_s, workload.setup_argv, 1))

    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    key = None if args.record_reference else workload.reference_key()
    reference = references.get(key) if key else None
    attempted, op_failures = verify(workload, plain + traced, reference)
    attempted += setup_runs
    failures += op_failures
    if args.record_reference:
        references[args.workload] = [checks.digest(op.payload) for op in plain[0].ops]
        (HERE / "reference.json").write_text(
            json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if args.trace:
        samples, problems = per_layer(plain, traced, start_s, import_s)
        failures += [("traced passes", f"call counts differ: {p}") for p in problems]
        names = layer_metric_names()
    else:
        samples = {
            "wall_s": [p.wall_s for p in plain],
            "setup_s": setup_s,
            "peak_rss_mb": [p.maxrss_mb for p in plain],
            "ok_ratio": [(attempted - len(failures)) / attempted],
        }
        names = list(samples)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  window {args.seconds} s")
    metrics = {}
    for name in names:
        values = samples[name]
        q1, med, q3 = quartiles(values)
        unit = unit_of(name)
        print(f"  {name:<48} {med:>14.6g} {unit:<7} q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
        metrics[name] = {"value": med, "unit": unit}
    for name, reason in failures:
        print(f"  FAILED {name}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
