"""Per-layer tracing installed from outside the realcert package.

`Tracer.install` replaces each listed function with a timing wrapper in
every realcert module namespace that binds it (``from .x import f``
binds f at import time, so patching the defining module alone would miss
callers), and replaces each listed method on its class.  Nothing under
``src/`` changes.

A wrapper either records a span (name, start, end, parent, operation id)
or only counts the call; the hottest leaf functions are count-only so
the trace stays small.  A call nested inside a call of the same name is
neither counted nor spanned: it belongs to the outer call, so recursive
functions report outermost calls and inclusive time is never counted
twice.  Spans stay in memory and are written out when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str      # realcert submodule that defines the object
    attr: str        # "func" or "Class.method"
    name: str        # metric prefix
    span: bool = True


def _t(module: str, attr: str, span: bool = True, name: str | None = None) -> Target:
    return Target(module, attr, name or f"{module}.{attr.replace('__', '')}", span)


TARGETS: tuple[Target, ...] = (
    _t("enclosure", "sin_pi"),
    _t("enclosure", "cos_pi"),
    _t("enclosure", "exp_enc"),
    _t("enclosure", "sqrt_enc"),
    _t("enclosure", "pi_const"),
    _t("enclosure", "Enclosure.__mul__", span=False),
    _t("enclosure", "Enclosure.__add__", span=False),
    _t("rational", "pow2", span=False),
    _t("cantor", "tower_generation"),
    _t("cantor", "TowerSpec.residual"),
    _t("cantor", "TowerSpec.mass", span=False),
    _t("cantor", "find_component"),
    _t("stepseries", "l1_norm"),
    _t("stepseries", "basis_inequality_check"),
    _t("stepseries", "unbounded_witness"),
    _t("jumps", "enum_index"),
    _t("jumps", "RationalEnumeration.pairs"),
    _t("jumps", "ExpPoly.evaluate"),
    _t("jumps", "jump_enclosure"),
    _t("jumps", "jump_search"),
    _t("jumps", "jump_contribution_table"),
    _t("jumps", "variation_bounds"),
    _t("oscillator", "alexiewicz_norm"),
    # both primitives count as one work unit of the branch and bound; a
    # combination's call into its oscillators nests and is not recounted
    _t("oscillator", "Oscillator.primitive_at", span=False, name="oscillator.primitive_at"),
    _t("oscillator", "OscCombination.primitive_at", span=False,
       name="oscillator.primitive_at"),
    _t("oscillator", "osc_eval"),
    _t("oscillator", "kurzweil_integral"),
    _t("oscillator", "hake_table"),
    _t("oscillator", "nonlebesgue_witness"),
    _t("oscillator", "slope_bound"),
    _t("certificates", "jsonable"),
    _t("certificates", "canonical_dumps"),
)

# modules the CLI imports lazily; imported up front so their names get patched
_EAGER = ("realcert", "realcert.cli", "realcert.checklist")


class Tracer:
    """Spans and call counts for one process."""

    def __init__(self, op: int = 0) -> None:
        self.op = op
        self.spans: list[list] = []     # [id, parent, name, start_ns, end_ns, op]
        self.counts: dict[str, int] = {}
        self.witnesses = 0              # jump_search results that carry an index
        self.witness_indices = 0
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, span: bool) -> Callable:
        counts, active, stack, spans = self.counts, self._active, self._stack, self.spans
        counts.setdefault(name, 0)
        clock = time.perf_counter_ns
        observe = self._observe_search if name == "jumps.jump_search" else None

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if name in active:
                    return fn(*args, **kwargs)
                active.add(name)
                counts[name] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.discard(name)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            counts[name] += 1
            record = [len(spans), stack[-1] if stack else -1, name, 0, 0, self.op]
            spans.append(record)
            stack.append(record[0])
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
                active.discard(name)
            if observe is not None:
                observe(result)
            return result
        return spanned

    def _observe_search(self, result: object) -> None:
        index = getattr(result, "index", None)
        if isinstance(index, int):
            self.witnesses += 1
            self.witness_indices += index

    # -- install / remove ------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        for mod in _EAGER:
            importlib.import_module(mod)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "realcert" or n.startswith("realcert."))]
        for target in targets:
            home = sys.modules[f"realcert.{target.module}"]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self._wrap(target.name, orig, target.span)
                # aliases such as __rmul__ = __mul__ share the wrapper
                for key, value in list(cls.__dict__.items()):
                    if value is orig:
                        self._restore.append((cls, key, value))
                        setattr(cls, key, wrapper)
                continue
            orig = getattr(home, target.attr)
            if hasattr(orig, "cache_info"):
                self._caches[target.name] = orig
            wrapper = self._wrap(target.name, orig, target.span)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._restore.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def dump(self) -> dict:
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {"spans": self.spans, "counts": self.counts, "caches": caches,
                "witnesses": self.witnesses, "witness_indices": self.witness_indices}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and merged, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, start, end, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Per-layer figures summed over the traced processes of one pass."""
    out: dict[str, float] = {}
    for dump in dumps:
        for name, calls in dump["counts"].items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
        selfs = self_times(dump["spans"])
        for sid, _, name, start, end, *_ in dump["spans"]:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start) / 1e9
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[sid] / 1e9
        for name, info in dump["caches"].items():
            for key in ("hits", "misses"):
                out[f"{name}.cache_{key}"] = out.get(f"{name}.cache_{key}", 0) + info[key]
        out["jumps.jump_search.witnesses"] = (out.get("jumps.jump_search.witnesses", 0)
                                              + dump["witnesses"])
        out["jumps.jump_search.witness_indices"] = (
            out.get("jumps.jump_search.witness_indices", 0) + dump["witness_indices"])
        out["trace.spans"] = out.get("trace.spans", 0) + len(dump["spans"])
    return out
