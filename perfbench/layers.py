"""Per-layer metrics derived from the spans of a traced run.

Every traced run reports the whole catalogue; a layer a workload does not
reach reads 0 there, which is itself the prediction for that workload.
"""

from __future__ import annotations

from stats import median
from tracing import Span, self_times
from workloads import MUTANT_PINS, SOLVE_OPS, VERIFY_OPS

CLI_LABELS = tuple(op.label for op in VERIFY_OPS + SOLVE_OPS)
TARGETS = tuple(op.label[len("verify-"):] for op in VERIFY_OPS)
CERT_KINDS = (
    "erdos_selfridge", "pairing", "completed_edge", "all_blocked", "reduction",
    "none",
)
MB_SHORTCUTS = ("mb.find_pairing", "mb.es_potential", "constructions.reduce_lemma21")

CATALOGUE = (
    [
        ("proc.import_s", "s"),
        ("proc.raw_wall_s", "s"),
        ("proc.yardstick_s", "s"),
        ("proc.cpu_s", "s"),
        ("proc.gc_s", "s"),
        ("proc.gc_collections", "count"),
    ]
    + [(f"cli.{label}.s", "s") for label in CLI_LABELS]
    + [
        ("cli.self_s", "s"),
        ("cli.payload_mismatches", "count"),
        ("core.load_hypergraph.s", "s"),
        ("core.save_hypergraph.s", "s"),
        ("constructions.gen.s", "s"),
        ("constructions.reduce_lemma21.s", "s"),
        ("strategy.build.s", "s"),
        ("strategy.lift.s", "s"),
        ("strategy.named_mutations.s", "s"),
    ]
    + [
        (f"verifier.{t}.{part}", unit)
        for t in TARGETS
        for part, unit in (
            ("s", "s"), ("lines_checked", "count"), ("max_depth", "count"),
            ("us_per_line", "us"),
        )
    ]
    + [
        ("verifier.mutants.s", "s"),
        ("verifier.mutants.lines_checked", "count"),
        ("verifier.mutants.refuted", "count"),
        ("verifier.mutants.cex_kind_match", "count"),
        ("mb.solve_mb.s", "s"),
        ("mb.shortcut_s", "s"),
        ("mb.search_s", "s"),
        ("mb.nodes_expanded", "count"),
        ("mb.nodes_per_s", "1/s"),
    ]
    + [(f"mb.certificate.{kind}", "count") for kind in CERT_KINDS]
    + [
        ("cp.solve_cp.s", "s"),
        ("cp.nodes_expanded", "count"),
        ("cp.nodes_per_s", "1/s"),
        ("cp.validate_case_table.s", "s"),
        ("cp.validate.nodes", "count"),
        ("solve.seeded_s", "s"),
        ("solve.seeded_nodes", "count"),
        ("trace.overhead_s", "s"),
        ("failed_ratio", "ratio"),
    ]
)


class _Segment:
    """The spans of one setup or pass, with parent links resolved."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.self_s = self_times(spans)

    def ancestors(self, s: Span):
        while s.parent is not None and s.parent in self.by_id:
            s = self.by_id[s.parent]
            yield s

    def op_label(self, s: Span) -> str | None:
        for a in (s, *self.ancestors(s)):
            if a.name in ("cli", "refute"):
                return a.attrs.get("label")
        return None

    def outermost(self, names) -> list[Span]:
        """Spans named in ``names`` that no other such span encloses."""
        return [
            s for s in self.spans
            if s.name in names
            and not any(a.name in names for a in self.ancestors(s))
        ]

    def total(self, *names) -> float:
        return sum(s.duration for s in self.outermost(names))


def segment_metrics(spans: list[Span]) -> dict:
    """The additive per-layer figures of one segment (rates come later)."""
    seg = _Segment(spans)
    m: dict = {}
    for s in seg.outermost(("cli",)):
        _add(m, f"cli.{s.attrs['label']}.s", s.duration)
    m["cli.self_s"] = sum(seg.self_s[s.id] for s in seg.spans if s.name == "cli")
    for name in (
        "core.load_hypergraph", "core.save_hypergraph", "constructions.gen",
        "constructions.reduce_lemma21", "strategy.build", "strategy.lift",
        "strategy.named_mutations", "mb.solve_mb", "cp.solve_cp",
        "cp.validate_case_table",
    ):
        m[f"{name}.s"] = seg.total(name)
    m["mb.shortcut_s"] = sum(
        s.duration for s in seg.outermost(MB_SHORTCUTS)
        if any(a.name == "mb.solve_mb" for a in seg.ancestors(s))
    )
    m["mb.search_s"] = sum(
        seg.self_s[s.id] for s in seg.spans if s.name == "mb.solve_mb"
    )
    solves = seg.outermost(("mb.solve_mb",))
    m["mb.nodes_expanded"] = sum(s.attrs.get("nodes", 0) for s in solves)
    for kind in CERT_KINDS:
        m[f"mb.certificate.{kind}"] = sum(
            1 for s in solves if (s.attrs.get("certificate") or "none") == kind
        )
    m["cp.nodes_expanded"] = sum(
        s.attrs.get("nodes", 0) for s in seg.outermost(("cp.solve_cp",))
    )
    m["cp.validate.nodes"] = sum(
        s.attrs.get("nodes", 0) for s in seg.outermost(("cp.validate_case_table",))
    )
    for s in seg.outermost(("verifier.verify",)):
        label = seg.op_label(s) or ""
        a = s.attrs
        if label.startswith("verify-"):
            p = f"verifier.{label[len('verify-'):]}"
            m[f"{p}.max_depth"] = max(m.get(f"{p}.max_depth", 0), a["max_depth"])
        else:
            p = "verifier.mutants"
            _add(m, f"{p}.refuted", not a["verified"])
            pinned_kind = MUTANT_PINS.get(label, (None,))[0]
            _add(m, f"{p}.cex_kind_match", a["cex_kind"] == pinned_kind)
        _add(m, f"{p}.s", s.duration)
        _add(m, f"{p}.lines_checked", a["lines_checked"])
    return m


def run_metrics(setup: list[Span], passes: list[list[Span]]) -> dict:
    """Setup figures plus the median over passes, then the derived rates.

    Keys of the catalogue that neither the spans nor the caller fill are
    left out; :func:`complete` zero-fills them.
    """
    per_pass = [segment_metrics(p) for p in passes]
    out = segment_metrics(setup)
    for key in {k for p in per_pass for k in p}:
        out[key] = out.get(key, 0) + median([p.get(key, 0) for p in per_pass])
    _rate(out, "mb.nodes_per_s", "mb.nodes_expanded", "mb.solve_mb.s")
    _rate(out, "cp.nodes_per_s", "cp.nodes_expanded", "cp.solve_cp.s")
    for t in TARGETS:
        p = f"verifier.{t}"
        _rate(out, f"{p}.us_per_line", f"{p}.s", f"{p}.lines_checked", 1e6)
    return out


def _add(m: dict, key: str, value) -> None:
    m[key] = m.get(key, 0) + value


def _rate(m: dict, key: str, num: str, den: str, scale: float = 1.0) -> None:
    den_v = m.get(den, 0)
    m[key] = scale * m.get(num, 0) / den_v if den_v else 0.0


def complete(m: dict) -> dict:
    """The whole catalogue, in catalogue order, as ``{name: {value, unit}}``."""
    return {
        name: {"value": m.get(name, 0), "unit": unit} for name, unit in CATALOGUE
    }
