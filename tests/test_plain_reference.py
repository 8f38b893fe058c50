"""The exact solvers against plain game searches.

``solve_mb`` and ``solve_cp`` search canonical residual sets and prune with
Lemmas 21, 22 and 23, the Erdős–Selfridge cutoff, pairings and Chooser's
dead-vertex rule.  The references below use none of that: they play the
games by their rules alone on raw (Maker mask, Breaker mask) positions,
memoised, so each pruning rule is checked against a search that does not
trust it.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hypergraph
from posgames.constructions import gen_gcp
from posgames.core import Hypergraph, Position, Side, iter_bits
from posgames.cp import CPOptions, cp_winner_from, solve_cp
from posgames.mb import MBOptions, solve_mb, solve_winner

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_MB_FLAGS = ("use_es_certificate", "use_pairing_certificate", "use_lemma21", "use_lemma22")


def _completes(h: Hypergraph, a: int, v: int) -> bool:
    """Whether claiming ``v`` on top of ``a`` completes an edge."""
    a |= 1 << v
    return any(h.edge_masks[e] & ~a == 0 for e in h.incidence[v])


def _won(h: Hypergraph, a: int) -> bool:
    """Whether the claims ``a`` hold a whole edge."""
    return any(mask & ~a == 0 for mask in h.edge_masks)


def _plain_mb(h: Hypergraph, to_move: Side, a: int = 0, b: int = 0) -> tuple[Side, int]:
    """The Maker-Breaker winner by plain minimax from Maker's claims ``a``
    and Breaker's ``b`` with ``to_move`` to move, and the positions
    searched.

    Each side claims any free vertex in turn; Maker wins on completing an
    edge, or at once if ``a`` holds one, and Breaker once the board is
    full."""
    if _won(h, a):
        return Side.A, 0
    memo: dict = {}

    def maker_wins(a: int, b: int, maker: bool) -> bool:
        key = (a, b, maker)
        if key not in memo:
            free = list(iter_bits(h.full_mask & ~(a | b)))
            if maker:
                memo[key] = any(
                    _completes(h, a, v) or maker_wins(a | 1 << v, b, False) for v in free
                )
            else:
                memo[key] = bool(free) and all(maker_wins(a, b | 1 << v, True) for v in free)
        return memo[key]

    won = maker_wins(a, b, to_move is Side.A)
    return (Side.A if won else Side.B), len(memo)


def _plain_cp(h: Hypergraph, a: int = 0, b: int = 0) -> Side:
    """The Chooser-Picker winner by plain minimax from Chooser's claims
    ``a`` and Picker's ``b``.

    Picker offers any two free vertices, Chooser claims one and Picker the
    other, and a last odd vertex goes to Chooser; Chooser wins on
    completing an edge, or at once if ``a`` holds one, and Picker once the
    board is full."""
    if _won(h, a):
        return Side.A
    memo: dict = {}

    def chooser_wins(a: int, b: int) -> bool:
        key = (a, b)
        if key not in memo:
            free = list(iter_bits(h.full_mask & ~(a | b)))
            if len(free) < 2:
                memo[key] = bool(free) and _completes(h, a, free[0])
            else:
                memo[key] = all(
                    any(
                        _completes(h, a, c) or chooser_wins(a | 1 << c, b | 1 << p)
                        for c, p in ((x, y), (y, x))
                    )
                    for i, x in enumerate(free)
                    for y in free[i + 1 :]
                )
        return memo[key]

    return Side.A if chooser_wins(a, b) else Side.B


def test_plain_search_finds_gcp_a_breaker_win():
    """The first half of the gcp result, Breaker wins Maker-Breaker with
    Maker first, found without any of the solver's pruning rules."""
    winner, positions = _plain_mb(gen_gcp(), Side.A)
    assert winner is Side.B
    assert positions == 112_987
    assert solve_mb(gen_gcp(), Side.A).winner is Side.B


@_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_mb_matches_the_plain_search(seed):
    """Every option combination of ``solve_mb`` agrees with the plain
    search, for both first movers."""
    h = random_hypergraph(random.Random(seed), max_vertices=8)
    for first in (Side.A, Side.B):
        want = _plain_mb(h, first)[0]
        for flags in itertools.product((False, True), repeat=len(_MB_FLAGS)):
            opts = MBOptions(**dict(zip(_MB_FLAGS, flags)))
            assert solve_mb(h, first, opts).winner is want, (first, flags)


@_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_cp_matches_the_plain_search(seed):
    """``solve_cp`` agrees with the plain search with and without Lemma
    23's forced offer."""
    h = random_hypergraph(random.Random(seed), max_vertices=8)
    want = _plain_cp(h)
    for lemma23 in (False, True):
        assert solve_cp(h, CPOptions(use_lemma23=lemma23)).winner is want, lemma23


def test_solve_winner_matches_the_plain_search_from_positions():
    """``solve_winner`` agrees with the plain search from positions reached
    by random play, including ones where Maker has already completed an
    edge and ones where the side to move is not the first mover, for both
    first movers and every option combination."""
    seen = set()

    @_SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, max_vertices=8)
        played = rng.sample(range(h.vertex_count), rng.randint(0, h.vertex_count))
        for first in (Side.A, Side.B):
            movers = itertools.cycle((first, first.other()))
            a = b = 0
            for v, side in zip(played, movers):
                if side is Side.A:
                    a |= 1 << v
                else:
                    b |= 1 << v
            p = Position(h, a, b, first)
            want = _plain_mb(h, p.to_move(), a, b)[0]
            seen.add((_won(h, a), p.to_move() is first))
            for flags in itertools.product((False, True), repeat=len(_MB_FLAGS)):
                opts = MBOptions(**dict(zip(_MB_FLAGS, flags)))
                assert solve_winner(p, opts) is want, (first, flags)

    check()
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_cp_winner_from_matches_the_plain_search_from_positions():
    """``cp_winner_from`` agrees with the plain search, with and without
    Lemma 23, after random full exchanges: Picker offers two free vertices
    and Chooser keeps either.  Some positions have an edge Chooser has
    already completed."""
    seen = set()

    @_SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, max_vertices=8)
        exchanges = rng.randint(0, h.vertex_count // 2)
        played = rng.sample(range(h.vertex_count), 2 * exchanges)
        a = b = 0
        for x, y in zip(played[::2], played[1::2]):
            if rng.random() < 0.5:
                x, y = y, x
            a |= 1 << x
            b |= 1 << y
        want = _plain_cp(h, a, b)
        seen.add(_won(h, a))
        p = Position(h, a, b)
        for lemma23 in (False, True):
            assert cp_winner_from(p, CPOptions(use_lemma23=lemma23)) is want, lemma23

    check()
    assert seen == {False, True}
