"""Exact Chooser-Picker solver and first-offer case tables.

Picker (side B) repeatedly offers a pair of unclaimed vertices; Chooser
(side A) claims one and Picker gets the other.  A final odd vertex goes to
Chooser.  Chooser wins on fully claiming an edge, Picker wins otherwise.
Value recurrence: Picker wins a position iff SOME offer exists whose BOTH
responses are Picker wins.

The search memoizes positions (never the transient mid-offer state) under a
value-preserving canonical key: the set of live residual edges plus the
number of unclaimed vertices outside them.  Unclaimed vertices outside every
live edge are interchangeable, so offers touching them are explored through
a single representative; a Chooser response taking a live vertex over a dead
one dominates, so the dead branch of a mixed offer is skipped.

A child's residuals are derived from its parent's canonical residuals rather
than from every board edge: a superset the parent dropped either stays
dominated in the child or dies with its subset, so the canonical set, and
with it the memo key, is the same either way.  The search is single-threaded
and deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .constructions import gcp_x, gcp_y, gcp_z
from .core import Hypergraph, Position, Side, iter_bits
from .mb import SolveReport, _Budget, _canon, _Exhausted

__all__ = [
    "CPOptions",
    "CaseRule",
    "CaseTable",
    "CaseFailure",
    "CaseValidationReport",
    "solve_cp",
    "cp_winner_from",
    "lemma23_offer",
    "gcp_case_table",
    "validate_case_table",
]


@dataclass(frozen=True)
class CPOptions:
    """Solver switches; the forced-offer restriction changes only the work
    done, never the verdict."""

    use_lemma23: bool = True
    node_limit: int | None = None


def lemma23_offer(p: Position) -> tuple[int, int] | None:
    """The forced offer, if any: the two unclaimed vertices of the first
    (lowest-index) edge that has no Picker vertex and exactly two unclaimed
    vertices.  Picker may restrict the next offer to this pair without
    changing the game value."""
    for m in p.board.edge_masks:
        if m & p.b_mask:
            continue
        r = m & ~p.a_mask
        if r.bit_count() == 2:
            lo = r & -r
            return (lo.bit_length() - 1, (r ^ lo).bit_length() - 1)
    return None


class _CPSearch:
    """Memoized Chooser-Picker evaluation on one board."""

    def __init__(self, board: Hypergraph, opts: CPOptions):
        self.board = board
        self.opts = opts
        self.masks = board.edge_masks
        self.full = board.full_mask
        self.memo: dict = {}
        self.budget = _Budget(opts.node_limit)

    def _analyze(self, a: int, b: int, masks):
        """("win", side) or ("open", memo_key, canon, unclaimed_mask) for the
        position (a, b), whose residuals are read off ``masks``: the board's
        edge masks, or the canonical residuals of an ancestor position."""
        rs = [m & ~a for m in masks if not m & b]
        if not rs:
            return ("win", Side.B, None, None)
        for r in rs:
            if r & (r - 1) == 0:
                # A completed edge, or a live edge one vertex short: Picker
                # can never claim that vertex (Chooser takes it from any
                # offer, or by the final odd-vertex rule), so Chooser wins.
                return ("win", Side.A, None, None)
        canon = _canon(rs)
        unclaimed = self.full & ~(a | b)
        live = 0
        for r in canon:
            live |= r
        key = (canon, (unclaimed & ~live).bit_count())
        return ("open", key, canon, unclaimed)

    def _offers(self, a: int, b: int, canon, unclaimed) -> list[list[tuple[int, int]]]:
        """Candidate offers as branch lists; Picker wins the node iff some
        offer has every branch Picker-winning."""
        if self.opts.use_lemma23:
            for r in canon:
                if r.bit_count() == 2:
                    x = r & -r
                    y = r ^ x
                    return [[(a | x, b | y), (a | y, b | x)]]
        live = 0
        for r in canon:
            live |= r
        us = [1 << v for v in iter_bits(unclaimed & live)]
        ds = []
        for v in iter_bits(unclaimed & ~live):
            ds.append(1 << v)
            if len(ds) == 2:
                break
        offers: list[list[tuple[int, int]]] = []
        for i, x in enumerate(us):
            for y in us[i + 1 :]:
                offers.append([(a | x, b | y), (a | y, b | x)])
        if ds:
            # Dead vertices are interchangeable; Chooser keeping the live
            # vertex of a mixed offer dominates, so one branch suffices.
            offers.extend([(a | x, b | ds[0])] for x in us)
        if len(ds) >= 2:
            offers.append([(a | ds[0], b | ds[1])])
        return offers

    def value(self, a: int, b: int, masks=None) -> Side:
        """Value of the position (a, b); ``masks`` as in :meth:`_analyze`,
        the board's edge masks by default."""
        state = self._analyze(a, b, self.masks if masks is None else masks)
        if state[0] == "win":
            return state[1]
        _tag, key, canon, unclaimed = state
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.budget.spend()
        result = Side.A
        for branches in self._offers(a, b, canon, unclaimed):
            for a2, b2 in branches:
                if self.value(a2, b2, canon) is not Side.B:
                    break
            else:
                result = Side.B
                break
        self.memo[key] = result
        return result


def solve_cp(h: Hypergraph, opts: CPOptions | None = None) -> SolveReport:
    """Decide the Chooser-Picker game on ``h`` (Picker always acts first,
    by offering)."""
    opts = opts or CPOptions()
    start = time.perf_counter()
    search = _CPSearch(h, opts)

    def report(winner, exhausted=False):
        ms = int((time.perf_counter() - start) * 1000)
        return SolveReport(
            winner, Side.B, search.budget.count, ms, None, exhausted
        )

    try:
        winner = search.value(0, 0)
    except _Exhausted:
        return report(None, exhausted=True)
    return report(winner)


def cp_winner_from(p: Position, opts: CPOptions | None = None) -> Side | None:
    """Game value from an arbitrary position (None only on node-limit
    exhaustion)."""
    search = _CPSearch(p.board, opts or CPOptions())
    try:
        return search.value(p.a_mask, p.b_mask)
    except _Exhausted:
        return None


# ---------------------------------------------------------------------------
# First-offer case tables.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseRule:
    """One row of a case table: a predicate over the unordered first offer
    (given as lo < hi vertex ids) and the vertex Chooser should keep."""

    name: str
    description: str
    applies: Callable[[int, int], bool]
    choose: Callable[[int, int], int]


@dataclass(frozen=True)
class CaseTable:
    rules: tuple[CaseRule, ...]

    def classify(self, x: int, y: int) -> CaseRule | None:
        lo, hi = min(x, y), max(x, y)
        for rule in self.rules:
            if rule.applies(lo, hi):
                return rule
        return None


@dataclass(frozen=True)
class CaseFailure:
    pair: tuple[int, int]
    rule: str | None
    reason: str  # uncovered | bad_choice | chooser_loses
    winner: Side | None


@dataclass(frozen=True)
class CaseValidationReport:
    passed: bool
    total_offers: int
    rule_counts: dict[str, int]
    failures: tuple[CaseFailure, ...]
    nodes_expanded: int
    elapsed_ms: int


def gcp_case_table() -> CaseTable:
    """The built-in seven-class first-offer table for gen_gcp(), one class
    per shape of the offered pair; validated against the exact solver."""
    xs = {gcp_x(i) for i in (1, 2, 3)}
    ys = {gcp_y(k) for k in range(1, 7)}

    def own_fan(x: int) -> set:
        i = x + 1
        return {gcp_y(2 * i - 1), gcp_y(2 * i), gcp_z(2 * i - 1), gcp_z(2 * i)}

    def y_index(v: int) -> int:
        return v - 2

    def z_index(v: int) -> int:
        return v - 8

    rules = (
        CaseRule(
            "two_hubs",
            "both vertices are hubs; keep the cyclic successor",
            lambda lo, hi: lo in xs and hi in xs,
            lambda lo, hi: hi if (lo, hi) in ((0, 1), (1, 2)) else 0,
        ),
        CaseRule(
            "hub_with_own_fan",
            "a hub with a pendant vertex of its own fan; keep the hub",
            lambda lo, hi: lo in xs and hi in own_fan(lo),
            lambda lo, hi: lo,
        ),
        CaseRule(
            "hub_with_other",
            "a hub with any other non-hub vertex; keep the hub",
            lambda lo, hi: lo in xs and hi not in xs,
            lambda lo, hi: lo,
        ),
        CaseRule(
            "long_edge_pair",
            "the two y vertices of one long edge; keep the odd one",
            lambda lo, hi: lo in ys
            and hi in ys
            and (y_index(lo) + 1) // 2 == (y_index(hi) + 1) // 2,
            lambda lo, hi: lo,
        ),
        CaseRule(
            "fan_pair",
            "the y and z of one fan edge; keep the y",
            lambda lo, hi: lo in ys
            and hi not in ys
            and y_index(lo) == z_index(hi),
            lambda lo, hi: lo,
        ),
        CaseRule(
            "spread_pair",
            "a y with an unrelated y or z; keep the lowest offered y",
            lambda lo, hi: lo in ys,
            lambda lo, hi: lo,
        ),
        CaseRule(
            "two_tails",
            "two z vertices; keep the lower",
            lambda lo, hi: lo not in xs and lo not in ys,
            lambda lo, hi: lo,
        ),
    )
    return CaseTable(rules)


def validate_case_table(
    h: Hypergraph, table: CaseTable, opts: CPOptions | None = None
) -> CaseValidationReport:
    """Check a first-offer table against the exact solver: every unordered
    pair must be covered, the prescribed choice must be one of the offered
    vertices, and the position after the exchange must be a Chooser win."""
    opts = opts or CPOptions()
    start = time.perf_counter()
    search = _CPSearch(h, opts)
    failures: list[CaseFailure] = []
    counts: dict[str, int] = {}
    total = 0
    try:
        for lo in range(h.vertex_count):
            for hi in range(lo + 1, h.vertex_count):
                total += 1
                rule = table.classify(lo, hi)
                if rule is None:
                    failures.append(CaseFailure((lo, hi), None, "uncovered", None))
                    continue
                counts[rule.name] = counts.get(rule.name, 0) + 1
                keep = rule.choose(lo, hi)
                if keep not in (lo, hi):
                    failures.append(
                        CaseFailure((lo, hi), rule.name, "bad_choice", None)
                    )
                    continue
                other = hi if keep == lo else lo
                winner = search.value(1 << keep, 1 << other)
                if winner is not Side.A:
                    failures.append(
                        CaseFailure((lo, hi), rule.name, "chooser_loses", winner)
                    )
    except _Exhausted:
        raise RuntimeError("node limit exhausted during case validation") from None
    ms = int((time.perf_counter() - start) * 1000)
    return CaseValidationReport(
        passed=not failures,
        total_offers=total,
        rule_counts=counts,
        failures=tuple(failures),
        nodes_expanded=search.budget.count,
        elapsed_ms=ms,
    )
