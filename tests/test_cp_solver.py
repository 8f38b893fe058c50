"""Tests for the exact Chooser-Picker solver and the first-offer table."""

from __future__ import annotations

import random
import time

import pytest

from helpers import count_finds, patch_candidate, random_hypergraph
from posgames.constructions import gen_complete_multipartite, gen_gamma_prime, gen_gcp
from posgames.core import Hypergraph, Position, Side, apply_claim, iter_bits
from posgames.cp import (
    _CPSearch,
    _pair_orbits,
    CaseRule,
    CaseTable,
    CPOptions,
    cp_winner_from,
    gcp_case_table,
    solve_cp,
    validate_case_table,
)
from posgames.mb import _canon, _residuals, solve_mb


class TestHeadlineVerdicts:
    def test_gcp_is_a_chooser_win(self):
        report = solve_cp(gen_gcp())
        assert report.winner is Side.A

    def test_refutation_pair(self):
        # The same board separates the two games.
        assert solve_mb(gen_gcp(), Side.A).winner is Side.B
        assert solve_cp(gen_gcp()).winner is Side.A

    def test_multipartite_is_a_picker_win(self):
        assert solve_cp(gen_complete_multipartite(4, 2)).winner is Side.B

    def test_pair_edge_is_a_picker_win(self):
        assert solve_cp(Hypergraph(2, [(0, 1)])).winner is Side.B

    def test_last_vertex_goes_to_chooser(self):
        assert solve_cp(Hypergraph(1, [(0,)])).winner is Side.A

    def test_edgeless_is_a_picker_win(self):
        assert solve_cp(Hypergraph(4)).winner is Side.B


def _forced_offer(h, claimed_a=(), claimed_b=()):
    """The one offer the search restricts Picker to at this position, or
    None when it tries them all."""
    p = Position.make(h, claimed_a=claimed_a, claimed_b=claimed_b)
    canon = _residuals(h, p.a_mask, p.b_mask)
    live = 0
    for r in canon:
        live |= r
    offers = _CPSearch(h, CPOptions())._offers(canon, live, 0)
    if len(offers) > 1:
        return None
    ((x, y),) = offers
    return (x.bit_length() - 1, y.bit_length() - 1)


def _filtered_offers(canon, live: int, dead: int, lemma23: bool) -> list:
    """The offers of ``_CPSearch._offers`` built the plain way: every live
    pair, every mixed offer and the two-dead offer, in that order, less
    those that fail the 2-residual test."""
    r = canon[0]
    if lemma23 and r.bit_count() == 2:
        x = r & -r
        return [(x, r ^ x)]
    partners: dict[int, int] = {}
    for r in canon:
        if r.bit_count() > 2:
            break
        lo = r & -r
        partners[lo] = partners.get(lo, 0) | r ^ lo
        partners[r ^ lo] = partners.get(r ^ lo, 0) | lo
    us = [1 << v for v in iter_bits(live)]
    offers = [(x, y) for i, x in enumerate(us) for y in us[i + 1 :]]
    if dead:
        offers += [(x, 0) for x in us]
    if dead >= 2:
        offers.append((0, 0))
    get = partners.get
    return [(x, y) for x, y in offers if get(x, y) == y and get(y, x) == x]


@pytest.mark.parametrize("lemma23", [False, True])
def test_offers_match_the_plain_enumeration(lemma23):
    """``_offers`` pairs only the partner-free vertices and the isolated
    2-residuals, and gives the same list, in the same order, as filtering
    every offer, on random canonical residual sets.  The sets cover lists
    with an isolated 2-residual, with a vertex of two 2-residuals and with
    mixed offers."""
    rng = random.Random(11)
    search = _CPSearch(Hypergraph(0), CPOptions(use_lemma23=lemma23))
    seen = set()
    for _ in range(3000):
        n = rng.randint(2, 9)
        masks = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(2, min(n, 4))
            masks.append(sum(1 << v for v in rng.sample(range(n), size)))
        canon = _canon(masks)
        live = 0
        for r in canon:
            live |= r
        dead = rng.randint(0, 3)
        want = _filtered_offers(canon, live, dead, lemma23)
        assert search._offers(canon, live, dead) == want, (canon, dead)
        twos = [r for r in canon if r.bit_count() == 2]
        seen.add(("isolated", any((r & -r, r ^ r & -r) in want for r in twos)))
        seen.add(("shared", any(a & b for a in twos for b in twos if a != b)))
        seen.add(("mixed", any(not y for _, y in want)))
    assert seen == {(k, v) for k in ("isolated", "shared", "mixed") for v in (False, True)}


class TestLemma23Offer:
    def test_forced_offer_is_the_first_canonical_residual(self):
        # With Chooser on x_2 the long edge {y_1, y_2} comes first in edge
        # order, but the hub pair {x_1, x_3} is first in (size, value) order.
        assert _forced_offer(gen_gcp(), claimed_a=[1]) == (0, 2)

    def test_two_qualifying_edges(self):
        # Both pairs qualify; the one with the smaller mask is offered,
        # whatever the edge order.
        assert _forced_offer(Hypergraph(4, [(2, 3), (0, 1)])) == (0, 1)

    def test_fresh_board_has_no_forced_offer(self):
        assert _forced_offer(gen_gcp()) is None

    def test_picker_vertex_disqualifies(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        assert _forced_offer(h, claimed_b=[0]) == (2, 3)


class TestPositionValues:
    def test_prefix_closed_chooser_win(self):
        h = Hypergraph(4, [(0, 1)])
        p = Position.make(h, claimed_a=[0, 1], claimed_b=[2])
        assert cp_winner_from(p) is Side.A

    def test_single_uncovered_threat_vertex(self):
        h = Hypergraph(3, [(0, 1)])
        p = Position.make(h, claimed_a=[0])
        assert cp_winner_from(p) is Side.A

    def test_case1_asymmetry(self):
        board = gen_gcp()
        keep_x2 = Position.make(board, claimed_a=[1], claimed_b=[0])
        keep_x1 = Position.make(board, claimed_a=[0], claimed_b=[1])
        assert cp_winner_from(keep_x2) is Side.A
        assert cp_winner_from(keep_x1) is Side.B


class TestGameMechanics:
    def test_last_vertex_parity_in_playout(self):
        # Drive a full game with arbitrary (first-pair) offers and
        # (lower-vertex) choices on an odd board.
        h = gen_gcp()
        p = Position(h)
        while True:
            free = sorted(
                v for v in range(h.vertex_count) if (p.unclaimed_mask >> v) & 1
            )
            if len(free) == 1:
                p = apply_claim(p, Side.A, free[0])
                break
            if not free:
                break
            x, y = free[0], free[1]
            p = apply_claim(apply_claim(p, Side.A, x), Side.B, y)
        assert p.unclaimed_mask == 0
        assert p.a_mask.bit_count() == p.b_mask.bit_count() + 1


class TestOptions:
    def test_lemma23_equivalence(self):
        rng = random.Random(2024)
        for _ in range(10):
            h = random_hypergraph(rng, max_vertices=9, max_edges=6)
            on = solve_cp(h, CPOptions(use_lemma23=True)).winner
            off = solve_cp(h, CPOptions(use_lemma23=False)).winner
            assert on is off

    def test_restriction_never_changes_position_values(self):
        """Lemma 23 acts where the smallest residual has two vertices.
        Positions are drawn, within a fixed number of attempts, until 20 of
        them are such positions, and each keeps its value."""
        rng = random.Random(77)
        checked = 0
        for _ in range(400):
            h = random_hypergraph(rng, max_vertices=8, max_edges=5)
            vs = list(range(h.vertex_count))
            rng.shuffle(vs)
            k = rng.randint(0, h.vertex_count // 2)
            p = Position.make(h, claimed_a=vs[:k], claimed_b=vs[k : 2 * k])
            canon = _residuals(h, p.a_mask, p.b_mask)
            if not canon or canon[0].bit_count() != 2:
                continue
            on = cp_winner_from(p, CPOptions(use_lemma23=True))
            off = cp_winner_from(p, CPOptions(use_lemma23=False))
            assert on is off
            checked += 1
            if checked == 20:
                break
        assert checked == 20

    def test_node_limit_is_explicit(self):
        report = solve_cp(gen_gcp(), CPOptions(node_limit=2))
        assert report.exhausted and report.winner is None

    def test_an_exhausted_search_counts_the_nodes_it_expanded(self):
        report = solve_cp(gen_gcp(), CPOptions(node_limit=2))
        assert (report.exhausted, report.nodes_expanded) == (True, 2)


class TestRootOrbits:
    @pytest.mark.parametrize("lemma23, nodes", [(False, 4_783), (True, 53)])
    def test_find_calls_on_gcp_are_pinned(self, monkeypatch, lemma23, nodes):
        """gcp's group has order 24; its stabiliser chain needs four
        candidate searches, and its 105 pairs fall into 15 orbits.  Without
        Lemma 23 the count was 6,984 until offers that lose on the spot to
        a 2-residual stopped being listed."""
        calls = count_finds(monkeypatch)
        report = solve_cp(gen_gcp(), CPOptions(use_lemma23=lemma23))
        assert (report.winner, report.nodes_expanded) == (Side.A, nodes)
        assert len(calls) == 4

    def test_gcp_pairs_fall_into_fifteen_orbits(self):
        orbit = _pair_orbits(gen_gcp())
        reps = {orbit(1 << x | 1 << y) for x in range(15) for y in range(x + 1, 15)}
        assert len(reps) == 15

    @pytest.mark.parametrize(
        "h, opts, winner",
        [
            (gen_gcp(), CPOptions(node_limit=2), None),
            (Hypergraph(4, [(0, 1, 2, 3)]), CPOptions(use_lemma23=False), Side.B),
            (Hypergraph(4, [(0, 1), (2, 3)]), CPOptions(), Side.B),
            (Hypergraph(3, [(0,), (1, 2)]), CPOptions(), Side.A),
            # Every offer on the path {0, 1}, {0, 2} lets Chooser keep a
            # vertex of a 2-residual whose other vertex Picker does not get.
            (Hypergraph(3, [(0, 1), (0, 2)]), CPOptions(use_lemma23=False), Side.A),
        ],
        ids=[
            "node-limit",
            "picker-wins-first-offer",
            "lemma23-offer",
            "decided",
            "no-offer-listed",
        ],
    )
    def test_no_orbit_work_unless_the_first_offer_is_refuted(
        self, monkeypatch, h, opts, winner
    ):
        calls = count_finds(monkeypatch)
        assert solve_cp(h, opts).winner is winner
        assert calls == []

    @pytest.mark.parametrize("lemma23, nodes", [(False, 10_032), (True, 267)])
    @pytest.mark.parametrize("kind", ["transposition", "no-permutation"])
    def test_a_candidate_that_is_no_automorphism_merges_nothing(
        self, monkeypatch, kind, lemma23, nodes
    ):
        """The search is not trusted.  A candidate that maps as asked but is
        no automorphism of gcp merges no offers, so every root offer is
        searched, as the node counts of a search without orbits show.
        Without Lemma 23 the count was 13,287 until offers that lose on the
        spot to a 2-residual stopped being listed."""

        def bad(self, depth, pairs):
            *_, (p, q) = pairs
            if kind == "transposition":
                return [q if v == p else p if v == q else v for v in range(15)]
            return [q if v == p else v for v in range(15)]

        patch_candidate(monkeypatch, bad)
        orbit = _pair_orbits(gen_gcp())
        pairs = [1 << x | 1 << y for x in range(15) for y in range(x)]
        assert [orbit(m) for m in pairs] == pairs
        report = solve_cp(gen_gcp(), CPOptions(use_lemma23=lemma23))
        assert (report.winner, report.nodes_expanded) == (Side.A, nodes)

    def test_a_node_limit_on_gamma_prime_stops_at_once(self):
        """A search that hits the node limit before the first root offer is
        refuted builds no orbits; on gamma-prime they would cost seconds of
        ``automorphism_generators``."""
        start = time.perf_counter()
        report = solve_cp(gen_gamma_prime(), CPOptions(node_limit=1000))
        assert report.exhausted and report.winner is None
        assert time.perf_counter() - start < 2


class TestCaseTable:
    def test_builtin_table_passes_all_offers(self):
        report = validate_case_table(gen_gcp(), gcp_case_table())
        assert report.passed
        assert report.total_offers == 105
        assert not report.failures
        assert sum(report.rule_counts.values()) == 105

    def test_rule_counts(self):
        report = validate_case_table(gen_gcp(), gcp_case_table())
        assert report.rule_counts == {
            "two_hubs": 3,
            "hub_with_own_fan": 12,
            "hub_with_other": 24,
            "long_edge_pair": 3,
            "fan_pair": 6,
            "spread_pair": 42,
            "two_tails": 15,
        }

    def test_inverted_hub_rule_fails_on_first_pair(self):
        table = gcp_case_table()
        inverted = CaseTable(
            (
                CaseRule(
                    "two_hubs_inverted",
                    "keep the cyclic predecessor instead",
                    table.rules[0].applies,
                    lambda lo, hi: lo if (lo, hi) in ((0, 1), (1, 2)) else hi,
                ),
            )
            + table.rules[1:]
        )
        report = validate_case_table(gen_gcp(), inverted)
        assert not report.passed
        bad = [f for f in report.failures if f.reason == "chooser_loses"]
        assert bad[0].pair == (0, 1)
        assert bad[0].winner is Side.B

    def test_uncovered_pairs_reported(self):
        report = validate_case_table(Hypergraph(3), CaseTable(()))
        assert not report.passed
        assert report.total_offers == 3
        assert all(f.reason == "uncovered" for f in report.failures)

    def test_bad_choice_reported(self):
        rule = CaseRule("grab", "always vertex 99", lambda lo, hi: True, lambda lo, hi: 99)
        report = validate_case_table(Hypergraph(3, [(0, 1, 2)]), CaseTable((rule,)))
        assert not report.passed
        assert all(f.reason == "bad_choice" for f in report.failures)
