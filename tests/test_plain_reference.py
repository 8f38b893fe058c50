"""The exact solvers against plain game searches.

``solve_mb`` and ``solve_cp`` search canonical residual sets and prune with
Lemmas 21, 22 and 23, the Erdős–Selfridge cutoff, pairings and Chooser's
dead-vertex rule.  The references below use none of that: they play the
games by their rules alone on raw (Maker mask, Breaker mask) positions,
memoised, so each pruning rule is checked against a search that does not
trust it, and the offers that Chooser-Picker's search never lists are
checked to lose for Picker.  ``bounded_win`` is the plain reference for
the strategy verifier's ``BoundedWin`` search.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hypergraph
from posgames.constructions import gen_complete_multipartite, gen_gcp, split_pendant
from posgames.core import Hypergraph, Position, Side, iter_bits, permute_hypergraph
from posgames.cp import CPOptions, _CPSearch, cp_winner_from, solve_cp
from posgames.mb import MBOptions, _residuals, solve_mb, solve_winner

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


def bounded_win(p: Position, k: int) -> bool:
    """Whether Maker, to move, can complete an edge within ``k`` own moves.

    Full minimax over the at-most ``2k - 1`` remaining plies, with the
    opponent restricted to vertices of still-completable edges (blocking
    elsewhere never helps the opponent).
    """
    if p.to_move() is not Side.A:
        raise ValueError("bounded_win requires Maker to move")
    if k < 0:
        raise ValueError("k must be non-negative")
    masks = p.board.edge_masks
    memo: dict = {}

    def maker(a: int, b: int, kk: int) -> bool:
        key = (a, b, kk)
        got = memo.get(key)
        if got is not None:
            return got
        best: dict = {}
        done = False
        for mask in masks:
            if mask & b:
                continue
            needed = mask & ~a
            u = needed.bit_count()
            if u == 0:
                done = True
                break
            if u <= kk:
                for v in iter_bits(needed):
                    if u < best.get(v, kk + 1):
                        best[v] = u
        if done:
            memo[key] = True
            return True
        result = False
        for v in sorted(best, key=lambda v: (best[v], v)):
            a2 = a | (1 << v)
            union = 0
            immediate = False
            for mask in masks:
                if mask & b:
                    continue
                needed = mask & ~a2
                u = needed.bit_count()
                if u == 0:
                    immediate = True
                    break
                if u <= kk - 1:
                    union |= needed
            if immediate:
                result = True
                break
            if union == 0:
                continue
            if all(maker(a2, b | (1 << w), kk - 1) for w in iter_bits(union)):
                result = True
                break
        memo[key] = result
        return result

    return maker(p.a_mask, p.b_mask, k)


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


def _cp_agrees(h: Hypergraph) -> None:
    """``solve_cp``, which offers one pair per automorphism orbit at the
    empty board, ``cp_winner_from`` at the empty position, which offers
    every pair, and the plain search agree on ``h``."""
    want = _plain_cp(h)
    for lemma23 in (False, True):
        opts = CPOptions(use_lemma23=lemma23)
        assert solve_cp(h, opts).winner is want, lemma23
        assert cp_winner_from(Position(h), opts) is want, lemma23


@_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_cp_root_orbits_match_the_plain_search(seed):
    """Root orbits keep the verdict on a random board, on a relabelling of
    it, and on the ``split_pendant`` image of a smaller one, whose fresh
    vertices come in swappable pairs."""
    rng = random.Random(seed)
    h = random_hypergraph(rng, max_vertices=8)
    perm = rng.sample(range(h.vertex_count), h.vertex_count)
    small = random_hypergraph(rng, max_vertices=4, max_edges=2)
    for board in (h, permute_hypergraph(h, perm), split_pendant(small)):
        _cp_agrees(board)


@pytest.mark.parametrize("k, n", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)])
def test_cp_root_orbits_on_complete_multipartite_boards(k, n):
    """Boards with large groups, where most root offers share an orbit."""
    _cp_agrees(gen_complete_multipartite(k, n))


_MB_SEARCH_ONLY = MBOptions(**dict.fromkeys(_MB_FLAGS, False))
_MULTIPARTITE = [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)]
# The multipartite boards whose split_pendant image has at most 12 vertices.
_SPLIT_MULTIPARTITE = [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)]
_SYMMETRIC = {
    **{f"K{k}x{n}": gen_complete_multipartite(k, n) for k, n in _MULTIPARTITE},
    **{
        f"split-K{k}x{n}": split_pendant(gen_complete_multipartite(k, n))
        for k, n in _SPLIT_MULTIPARTITE
    },
    # Paths of 2-edges: with Breaker first, only the centre of the 5-vertex
    # path wins, and a relabelling can order it after both of its
    # neighbours, which share an orbit.
    **{f"path{n}": Hypergraph(n, [(i, i + 1) for i in range(n - 1)]) for n in (5, 6, 7)},
}


@pytest.mark.parametrize("name", list(_SYMMETRIC))
def test_mb_root_orbits_match_the_plain_search(name):
    """``solve_mb``, which searches one root move per automorphism orbit,
    agrees with the plain search for both first movers, with every shortcut
    on and with every one off, on symmetric boards: complete multipartite
    boards, the ``split_pendant`` images of small ones and paths, each as
    built and relabelled."""
    board = _SYMMETRIC[name]
    want = {first: _plain_mb(board, first)[0] for first in Side}

    @settings(_SETTINGS, max_examples=10)
    @given(st.permutations(range(board.vertex_count)))
    def check(perm):
        for b in (board, permute_hypergraph(board, perm)):
            for first in Side:
                for opts in (MBOptions(), _MB_SEARCH_ONLY):
                    assert solve_mb(b, first, opts).winner is want[first], (first, opts)

    check()


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


def _random_exchanges(rng: random.Random, h: Hypergraph) -> tuple[int, int]:
    """Chooser's and Picker's claims after random full exchanges: Picker
    offers two free vertices and Chooser keeps either."""
    exchanges = rng.randint(0, h.vertex_count // 2)
    played = rng.sample(range(h.vertex_count), 2 * exchanges)
    a = b = 0
    for x, y in zip(played[::2], played[1::2]):
        if rng.random() < 0.5:
            x, y = y, x
        a |= 1 << x
        b |= 1 << y
    return a, b


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
        a, b = _random_exchanges(rng, h)
        want = _plain_cp(h, a, b)
        seen.add(_won(h, a))
        p = Position(h, a, b)
        for lemma23 in (False, True):
            assert cp_winner_from(p, CPOptions(use_lemma23=lemma23)) is want, lemma23

    check()
    assert seen == {False, True}


def _every_offer(live: int, dead: int) -> list[tuple[int, int]]:
    """Every offer of a position with ``live`` vertices in residuals and
    ``dead`` free ones outside them, unfiltered, in the search's order:
    live pairs, then a live vertex with a dead one, then two dead ones."""
    us = [1 << v for v in iter_bits(live)]
    offers = [(x, y) for i, x in enumerate(us) for y in us[i + 1 :]]
    if dead:
        offers += [(x, 0) for x in us]
    if dead >= 2:
        offers.append((0, 0))
    return offers


def test_every_offer_left_out_is_a_chooser_win():
    """Without Lemma 23, ``_CPSearch._offers`` lists a subsequence of every
    offer, in order, and after each offer it leaves out the plain search
    finds a Chooser choice that wins: such an offer cannot win for Picker.
    Both kinds of offer are left out somewhere: two live vertices, and a
    live vertex with a dead one."""
    dropped = set()

    @_SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, max_vertices=8)
        for _ in range(4):
            check_position(h, *_random_exchanges(rng, h))

    def check_position(h: Hypergraph, a: int, b: int) -> None:
        canon = _residuals(h, a, b)
        if not canon or canon[0].bit_count() < 2:
            return
        live = 0
        for r in canon:
            live |= r
        dead_mask = h.full_mask & ~(a | b | live)
        search = _CPSearch(h, CPOptions(use_lemma23=False))
        listed = search._offers(canon, live, dead_mask.bit_count())
        every = _every_offer(live, dead_mask.bit_count())
        rest = iter(every)
        assert all(offer in rest for offer in listed)
        for x, y in every:
            if (x, y) in listed:
                continue
            dropped.add(bool(y))
            y = y or dead_mask & -dead_mask
            assert any(
                _plain_cp(h, a | keep, b | give) is Side.A
                for keep, give in ((x, y), (y, x))
            ), (h, a, b, x, y)

    check()
    assert dropped == {False, True}
