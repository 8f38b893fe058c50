"""Spans recorded by wrapping the program's public functions.

Tracing lives entirely in the benchmark: :func:`install` replaces public
names in the module that looks them up (``posgames.cli``, ``posgames.mb``,
``posgames.strategy.mutations``) with wrappers that record a span per call.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time


class Span:
    """One call: name, start, end, parent span id, run id and the counts
    read from its return value."""

    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, id, name, start, parent, run, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.run, attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None, fn_name: str | None = None):
        """``fn`` recording a span named ``name``; ``counts(result)`` gives the
        span's counts."""
        fn_name = fn_name or fn.__name__

        def traced(*args, **kwargs):
            span = self.open(name, {"fn": fn_name})
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.attrs.update(counts(result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


# --- return-value counts --------------------------------------------------


def verification_counts(rep) -> dict:
    cex = rep.counterexample
    return {
        "verified": rep.verified,
        "lines_checked": rep.lines_checked,
        "max_depth": rep.max_depth,
        "cex_kind": cex.kind if cex else None,
    }


def _solve_counts(rep) -> dict:
    cert = rep.certificate
    return {"nodes": rep.nodes_expanded, "certificate": cert.kind if cert else None}


def _validate_counts(rep) -> dict:
    return {"nodes": rep.nodes_expanded}


def layer_of(fn_name: str) -> str | None:
    """The layer a public function belongs to, or None if it is not traced."""
    if fn_name.startswith("gen_") or fn_name == "split_pendant":
        return "constructions.gen"
    if fn_name.startswith("build_") and fn_name.endswith("_strategy"):
        return "strategy.build"
    if fn_name.startswith("lift_"):
        return "strategy.lift"
    return None


# Explicitly named wrappers: (module, attribute, span name, counts).
NAMED = (
    ("posgames.cli", "verify_maker_strategy", "verifier.verify", verification_counts),
    ("posgames.cli", "solve_mb", "mb.solve_mb", _solve_counts),
    ("posgames.cli", "solve_cp", "cp.solve_cp", _solve_counts),
    ("posgames.cli", "validate_case_table", "cp.validate_case_table", _validate_counts),
    ("posgames.cli", "load_hypergraph", "core.load_hypergraph", None),
    ("posgames.mb", "solve_mb", "mb.solve_mb", _solve_counts),
    ("posgames.mb", "find_pairing", "mb.find_pairing", None),
    ("posgames.mb", "es_potential", "mb.es_potential", None),
    ("posgames.mb", "reduce_lemma21", "constructions.reduce_lemma21", None),
)

# Modules whose gen_*/split_pendant/build_*/lift_* names are wrapped.
BY_PREFIX = ("posgames.cli", "posgames.strategy.mutations")


def install(tracer: Tracer) -> list:
    """Wrap every traced name; returns the originals for :func:`uninstall`."""
    saved = []
    targets = list(NAMED)
    for mod_name in BY_PREFIX:
        mod = importlib.import_module(mod_name)
        for attr in sorted(vars(mod)):
            layer = layer_of(attr)
            if layer and callable(getattr(mod, attr)):
                targets.append((mod_name, attr, layer, None))
    for mod_name, attr, name, counts in targets:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        saved.append((mod, attr, original))
        setattr(mod, attr, tracer.wrap(name, original, counts, attr))
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)
