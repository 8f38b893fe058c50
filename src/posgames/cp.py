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

An offer that loses Picker the game on the spot is not listed, so its
children are never built.  Say Chooser keeps x while a 2-residual {x, s}
is live: the residual becomes the singleton {s}, and unless Picker's
vertex is s, Chooser wins, by the argument of the one-vertex-short test in
:meth:`_CPSearch.value` (Hefetz, Krivelevich, Stojakovic & Szabo,
*Positional Games*, 2014).  So an offer {x, y} can win for Picker only if
every 2-residual through x is {x, y} and every 2-residual through y is
{x, y}, and a mixed offer of x and a dead vertex only if x lies in no
2-residual.  Every dropped offer has a Chooser-winning branch, and Picker
wins a position only through an offer whose branches all win for Picker,
so the value is unchanged.  This is not Lemma 23: Lemma 23 keeps one offer
and drops others that might still win, by a dominance argument, while this
filter keeps every offer that could still win and only skips building
children whose loss for Picker the parent already knows.  With Lemma 23
on it never fires, since a node with a 2-residual gets the single Lemma 23
offer.

A position is searched as the Maker-Breaker solver's canonical residual
set, and a child's set is derived from its parent's with the same claims
(``mb._maker_claim`` for Chooser's vertex, ``mb._breaker_claim`` for
Picker's), not rebuilt from the board.  The search is single-threaded and
deterministic.

At the empty board :func:`solve_cp` offers one live pair per orbit of the
board's automorphism group on pairs (:func:`_pair_orbits`, with
``mb._one_per_orbit``).  This is exact: an automorphism g maps edges onto
edges, so it maps the game after the offer {x, y} and either choice onto
the game after {g(x), g(y)} and the corresponding choice, and Picker wins
the one iff the other.  Every merge of two offers is by a permutation that
``core.is_automorphism`` has checked, one of ``core.automorphism_generators``,
which are built once per board value per process.  The orbits are built
lazily, after the root's first offer has been refuted, so a search that
stops at the node limit or on a Picker win there pays nothing for them.  Dead-vertex offers,
interior nodes, :func:`cp_winner_from` and :func:`validate_case_table`
search as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .constructions import gcp_x, gcp_y, gcp_z
from .core import (
    Hypergraph,
    Position,
    Side,
    automorphism_generators,
    iter_bits,
    mask_orbits,
)
from .mb import (
    SolveReport,
    _breaker_claim,
    _Budget,
    _Exhausted,
    _maker_claim,
    _one_per_orbit,
    _residuals,
)

__all__ = [
    "CPOptions",
    "CaseRule",
    "CaseTable",
    "CaseFailure",
    "CaseValidationReport",
    "solve_cp",
    "cp_winner_from",
    "gcp_case_table",
    "validate_case_table",
]


@dataclass(frozen=True)
class CPOptions:
    """Solver switches; the forced-offer restriction changes only the work
    done, never the verdict."""

    use_lemma23: bool = True
    node_limit: int | None = None


class _CPSearch:
    """Memoized Chooser-Picker evaluation on one board.  A position is its
    canonical residual set and its number of unclaimed vertices; the memo
    key counts only the dead ones, outside every residual."""

    def __init__(self, board: Hypergraph, opts: CPOptions):
        self.board = board
        self.opts = opts
        self.memo: dict = {}
        self.budget = _Budget(opts.node_limit)

    def position(self, a: int, b: int) -> Side:
        """Value of the position in which Chooser holds ``a`` and Picker
        ``b``."""
        canon = _residuals(self.board, a, b)
        if canon is None:
            return Side.A
        return self.value(canon, (self.board.full_mask & ~(a | b)).bit_count())

    def _offers(self, canon, live: int, dead: int) -> list[tuple[int, int]]:
        """Candidate offers (x, y) as single-bit masks, 0 standing for a
        dead vertex; Chooser keeping x is tried first.  Only offers that
        pass the 2-residual test of the module docstring are listed, in
        enumeration order; an empty list is a Chooser win."""
        r = canon[0]
        if self.opts.use_lemma23 and r.bit_count() == 2:
            # Lemma 23: offer the first 2-residual; none is smaller.
            x = r & -r
            return [(x, r ^ x)]
        # The 2-residual partners of each vertex; canon is size-sorted.
        partners: dict[int, int] = {}
        paired = 0
        for r in canon:
            if r.bit_count() > 2:
                break
            lo = r & -r
            partners[lo] = partners.get(lo, 0) | r ^ lo
            partners[r ^ lo] = partners.get(r ^ lo, 0) | lo
            paired |= r
        # Partner-free vertices pair with each other; an isolated 2-residual
        # {x, y} is offered at x's place; no other pair passes the test.
        lone = [1 << v for v in iter_bits(live & ~paired)]
        offers = []
        i = 0
        while live:
            x = live & -live
            live ^= x
            p = partners.get(x)
            if p is None:
                i += 1
                offers += [(x, y) for y in lone[i:]]
            elif p > x and partners.get(p) == x:
                offers.append((x, p))
        if dead:
            # Dead vertices are interchangeable; Chooser keeping the live
            # vertex of a mixed offer dominates, so one branch suffices.
            offers += [(x, 0) for x in lone]
        if dead >= 2:
            offers.append((0, 0))
        return offers

    def value(self, canon, free: int, root: bool = False) -> Side:
        """Value of the canonical residual set ``canon`` with ``free``
        unclaimed vertices; Picker wins iff some offer has every branch
        Picker-winning.  At the empty board (``root``) one offer per orbit
        is searched."""
        if not canon:
            return Side.B
        if canon[0].bit_count() <= 1:
            # A live edge one vertex short: Picker can never claim that
            # vertex (Chooser takes it from any offer, or by the final
            # odd-vertex rule), so Chooser wins.
            return Side.A
        live = 0
        for r in canon:
            live |= r
        dead = free - live.bit_count()
        key = (canon, dead)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.budget.spend()
        free -= 2
        # Chooser's claim per kept vertex, shared by the offers holding it;
        # no residual is a singleton, so none is emptied by the claim.
        kept = {0: canon}

        def picker_wins(x: int, y: int) -> bool:
            child = kept.get(x)
            if child is None:
                child = kept[x] = _maker_claim(canon, x)
            if y:
                child = _breaker_claim(child, y)
            return self.value(child, free) is Side.B

        offers = self._offers(canon, live, dead)
        if root:
            # A dead-vertex offer's key is no pair, so it is its own orbit.
            offers = _one_per_orbit(
                offers, lambda: _pair_orbits(self.board), lambda o: o[0] | o[1]
            )
        result = Side.A
        for x, y in offers:
            if picker_wins(x, y) and (not y or picker_wins(y, x)):
                result = Side.B
                break
        self.memo[key] = result
        return result


def _pair_orbits(board: Hypergraph) -> Callable[[int], int]:
    """The orbits of the board's automorphism group on vertex pairs, as a
    map from a two-bit mask to the least mask of its orbit; the generators
    are ``core.automorphism_generators``, each checked by
    ``core.is_automorphism``."""
    n = board.vertex_count
    pairs = [1 << x | 1 << y for x in range(n) for y in range(x + 1, n)]
    return mask_orbits(automorphism_generators(board), pairs)


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

    canon = _residuals(h, 0, 0)
    try:
        winner = Side.A if canon is None else search.value(canon, h.vertex_count, True)
    except _Exhausted:
        return report(None, exhausted=True)
    return report(winner)


def cp_winner_from(p: Position, opts: CPOptions | None = None) -> Side | None:
    """Game value from an arbitrary position (None only on node-limit
    exhaustion)."""
    search = _CPSearch(p.board, opts or CPOptions())
    try:
        return search.position(p.a_mask, p.b_mask)
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
                winner = search.position(1 << keep, 1 << other)
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
