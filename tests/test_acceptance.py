"""End-to-end acceptance checks.

One test per headline claim, in order: the G_CP verdict split between the
two games, the first-offer case table, the three strategy verifications
(pentagon board, gadget board, apex board), the verifier's and the
solvers' pinned counters, the degree bookkeeping, the multipartite
fixtures, solver option equivalence and mutation sensitivity.  Each test
asserts its runtime budget.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import product

from helpers import (
    g3_split_report,
    g4_report,
    gamma_prime_report,
    gamma_report,
    random_hypergraph,
    random_uniform_low_degree,
)
from posgames.constructions import (
    gcp_x,
    gen_complete_multipartite,
    gen_g3,
    gen_g4,
    gen_gamma,
    gen_gamma_prime,
    gen_gcp,
    split_pendant,
)
from posgames.core import Position, Side
from posgames.cp import (
    CPOptions,
    cp_winner_from,
    gcp_case_table,
    solve_cp,
    validate_case_table,
)
from posgames.mb import MBOptions, find_pairing, solve_mb, verify_pairing
from posgames.strategy import named_mutations, verify_maker_strategy

_ORACLE_SEED = 20260815
_MB_FLAGS = (
    "use_es_certificate",
    "use_pairing_certificate",
    "use_lemma21",
    "use_lemma22",
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@lru_cache(maxsize=None)
def _mb_gcp():
    return solve_mb(gen_gcp(), Side.A)


@lru_cache(maxsize=None)
def _cp_gcp():
    return solve_cp(gen_gcp())


@lru_cache(maxsize=None)
def _case_table():
    return validate_case_table(gen_gcp(), gcp_case_table())


def _multipartite():
    mb = {
        (k, n): solve_mb(gen_complete_multipartite(k, n), Side.A).winner
        for (k, n) in ((2, 2), (2, 3), (3, 2))
    }
    cp = solve_cp(gen_complete_multipartite(4, 2)).winner
    return mb, cp


def _oracle_boards():
    rng = random.Random(_ORACLE_SEED)
    return [random_hypergraph(rng) for _ in range(200)]


def test_gcp_splits_the_two_games():
    """Breaker wins the Maker-Breaker game on G_CP while Chooser wins the
    Chooser-Picker game on the same board."""
    mb, mb_s = _timed(_mb_gcp)
    assert mb.winner is Side.B
    assert mb_s < 10
    cp, cp_s = _timed(_cp_gcp)
    assert cp.winner is Side.A
    assert cp_s < 300
    unrestricted, extra_s = _timed(
        lambda: solve_cp(gen_gcp(), CPOptions(use_lemma23=False))
    )
    assert unrestricted.winner is Side.A
    assert cp_s + extra_s < 300


def test_gcp_first_offer_case_table():
    """Every one of the 105 first offers is covered by the case table and the
    prescribed choice wins; keeping the other x-vertex of the {x1,x2} offer
    would lose."""
    rep, elapsed = _timed(_case_table)
    assert rep.passed, rep.failures
    assert rep.total_offers == 105
    x1, x2 = gcp_x(1), gcp_x(2)
    gcp = gen_gcp()
    assert cp_winner_from(Position.make(gcp, [x2], [x1])) is Side.A
    assert cp_winner_from(Position.make(gcp, [x1], [x2])) is Side.B
    assert elapsed < 600


def test_pentagon_board_strategy_verifies():
    h = gen_gamma()
    assert h.vertex_count == 35
    assert len(h.edges) == 20
    rep, elapsed = _timed(gamma_report)
    assert rep.verified, rep.counterexample
    assert elapsed < 10


def test_gadget_board_strategy_verifies():
    h = gen_gamma_prime()
    assert h.vertex_count == 185
    assert len(h.edges) == 110
    sizes = sorted(len(e) for e in h.edges)
    assert sizes == [3] * 5 + [4] * 105
    assert max(sum(v in e for e in h.edges) for v in range(185)) == 3
    from posgames.constructions import CONSTRUCTIONS

    note = CONSTRUCTIONS["gamma_prime"].erratum_note
    assert note and "155" in note
    rep, elapsed = _timed(gamma_prime_report)
    assert rep.verified, rep.counterexample
    assert elapsed < 60


def test_apex_board_strategy_verifies():
    h = gen_g4()
    assert all(len(e) == 4 for e in h.edges)
    assert len(h.edges) == 331
    assert h.vertex_count == 562
    assert max(sum(v in e for e in h.edges) for v in range(562)) == 3
    rep, elapsed = _timed(g4_report)
    assert rep.verified, rep.counterexample
    assert rep.lines_checked < 10**7
    assert elapsed < 300


def test_verifier_counters_are_pinned():
    """Explored lines and deepest line of the four verifications.  Both are
    deterministic, so a change means the traversal itself changed.

    On g4 the copies share memo successes: copy 2 is entered first (after
    five moves) and searched in full.  Copies 3 and 1 look their keys up
    in copy 2's entries, 387 lookups that all hit, and file nothing there
    (see ``test_copy_sharing_traffic_is_pinned``), so the 35-move line
    that ran inside copy 3 (entered after seven moves) is a memo hit at
    its entry.

    On gamma, an opponent turn plays only the lowest of the replies that
    would call the same bounded-win search: 8,548 replies instead of
    27,897 (see ``test_without_repeat_drops_every_reply_is_played_again``).
    Those replies were memo hits, so no count moves.

    At an opponent node whose innermost board holds no stones (the
    pentagon's first move, and copy 2's) only one opening per symmetry
    orbit is explored: gamma 6 of 35, gamma-prime 6 of 35 and g4 7 of 36.
    Without that pruning the counts are gamma 20,806, gamma-prime 215,788
    and g4 224,962 (see
    ``test_without_symmetry_the_unpruned_lines_come_back``); g3-split has
    no such node.

    On g3-split an opponent node on the pendant layer does not play the
    free pendants: Breaker's move on one and Maker's answer on its partner
    can only help Maker, since every continuation on the layer claims a
    whole pendant pair and ends the line.  Completing a base edge there
    hands over to a continuation that claims whichever pendant of the
    edge is free; while both are free, no single reply can stop it, so the
    verifier decides it as one line instead of expanding every reply.
    With neither rule g3-split takes 256,247 lines at depth 28, with the
    finishing rule alone 202,272, with the pendant rule alone 67,940 at
    depth 11 and with both 13,965 at depth 11 (see
    ``test_without_dead_pairs_the_unpruned_lines_come_back`` and
    ``test_without_finishing_the_expanded_lines_come_back``).  It took
    76,832 lines at depth 28 while a pendant pair was dropped only once
    every edge through it held a Breaker stone.

    In a g4 copy, a move off the copy is a pass that the gadget script's
    opening answers as the opening on w_1 (``lift_g4``).  Before that the
    verifier answered such a move as an imagined opponent move on the
    lowest free coordinate and marked it in the copy's masks: g4 took
    51,927 lines then and 57,057 right after.

    On the pentagon layer, a move inside a gadget whose tip is taken is a
    pass too (``lift_gamma_prime``).  gamma-prime took 46,639 lines and g4
    57,057 when such a move counted as an imagined move on the first free
    x-vertex of an ordered fallback list.  Without those orders the
    pentagon's reflection also passes the stack checks on gamma-prime, so
    its stone-free root explores 6 openings where it explored 7, and g4's
    copy 2 explores 7 where it explored 8."""
    expected = {
        gamma_report: (3_865, 20),
        gamma_prime_report: (41_398, 28),
        g4_report: (49_405, 33),
        g3_split_report: (13_965, 11),
    }
    for report, (lines, depth) in expected.items():
        rep = report()
        assert (rep.lines_checked, rep.max_depth) == (lines, depth), report


def test_solver_counters_are_pinned():
    """Verdicts and expanded nodes of the six exact solves on the shipped
    boards.  The search is deterministic, so a change in a count means its
    traversal, pruning or memo keys changed.  Chooser-Picker without Lemma
    23 went from 6,984 to 4,783 nodes when offers that lose on the spot to
    a 2-residual stopped being listed: such an offer's other branch is no
    longer searched.

    Maker-Breaker searches one root move per automorphism orbit once the
    first root move is refuted: gamma with Breaker first went from 59,246
    to 13,772 nodes (5 of its 35 openings searched) and gcp from 169 to 56.
    On g3-split Maker's first root move wins, so its count is unchanged."""
    expected = {
        "mb gamma, Breaker first": (
            lambda: solve_mb(gen_gamma(), Side.B),
            Side.A,
            13_772,
        ),
        "mb g3-split, Maker first": (
            lambda: solve_mb(split_pendant(gen_g3()), Side.A),
            Side.A,
            66_827,
        ),
        "cp gcp without lemma 23": (
            lambda: solve_cp(gen_gcp(), CPOptions(use_lemma23=False)),
            Side.A,
            4_783,
        ),
        "mb gcp": (_mb_gcp, Side.B, 56),
        "cp gcp": (_cp_gcp, Side.A, 53),
    }
    for name, (solve, winner, nodes) in expected.items():
        rep, elapsed = _timed(solve)
        assert (rep.winner, rep.nodes_expanded) == (winner, nodes), name
        assert elapsed < 60, name
    cases = _case_table()
    assert (cases.passed, cases.nodes_expanded) == (True, 253)


def test_degree_bookkeeping():
    """Maker wins the degree-2 3-graph outright; pairings always exist at
    half-uniformity degree; the pendant split lifts the win to 4 sets."""
    assert solve_mb(gen_g3(), Side.A).winner is Side.A
    rng = random.Random(_ORACLE_SEED + 1)
    for i in range(50):
        n = 2 + i % 5
        h = random_uniform_low_degree(
            rng, n, vertices=rng.randint(8, 14), max_edges=rng.randint(2, 8)
        )
        pr = find_pairing(h)
        assert pr is not None and verify_pairing(h, pr)
    split = split_pendant(gen_g3())
    assert all(len(e) == 4 for e in split.edges)
    rep, _ = _timed(g3_split_report)
    assert rep.verified, rep.counterexample


def test_multipartite_fixtures():
    (mb, cp), elapsed = _timed(_multipartite)
    assert mb == {(2, 2): Side.A, (2, 3): Side.A, (3, 2): Side.A}
    assert cp is Side.B
    assert elapsed < 60


def test_option_combinations_agree_with_plain_search():
    start = time.perf_counter()
    for h in _oracle_boards():
        for mover in (Side.A, Side.B):
            base = solve_mb(
                h, mover, MBOptions(False, False, False, False)
            ).winner
            for combo in product((False, True), repeat=4):
                opts = MBOptions(**dict(zip(_MB_FLAGS, combo)))
                assert solve_mb(h, mover, opts).winner is base
        plain = solve_cp(h, CPOptions(use_lemma23=False)).winner
        assert solve_cp(h).winner is plain
    assert time.perf_counter() - start < 600


def test_every_strategy_mutation_is_caught():
    for name, board, mutant in named_mutations():
        rep = verify_maker_strategy(board, mutant)
        assert not rep.verified, name
        assert rep.counterexample is not None, name
