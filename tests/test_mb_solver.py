"""Tests for the exact Maker-Breaker solver and its certificates."""

from __future__ import annotations

import gc
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    count_finds,
    patch_candidate,
    random_hypergraph,
    random_uniform_low_degree,
)
from posgames.constructions import (
    gcp_rotation,
    gen_complete_multipartite,
    gen_g3,
    gen_gamma,
    gen_gamma_prime,
    gen_gcp,
    split_pendant,
)
from posgames import mb
from posgames.core import Hypergraph, Position, Side, permute_hypergraph
from posgames.mb import (
    _lemma22_vertex,
    _residuals,
    Certificate,
    MBOptions,
    Pairing,
    check_certificate,
    es_potential,
    find_pairing,
    solve_mb,
    solve_winner,
    verify_pairing,
)

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "perfbench")]

import workloads  # noqa: E402

ALL_OFF = MBOptions(
    use_es_certificate=False,
    use_pairing_certificate=False,
    use_lemma21=False,
    use_lemma22=False,
)


class TestHeadlineVerdicts:
    def test_gcp_is_a_breaker_win(self):
        report = solve_mb(gen_gcp(), Side.A)
        assert report.winner is Side.B

    def test_gcp_breaker_first_is_still_a_breaker_win(self):
        assert solve_mb(gen_gcp(), Side.B).winner is Side.B

    def test_g3_is_a_maker_win(self):
        assert solve_mb(gen_g3(), Side.A).winner is Side.A

    def test_edgeless_board(self):
        report = solve_mb(Hypergraph(4), Side.A)
        assert report.winner is Side.B
        assert report.certificate.kind == "all_blocked"
        assert check_certificate(
            Hypergraph(4), report.certificate, report.winner, report.first_mover
        )

    def test_single_vertex_edge(self):
        h = Hypergraph(2, [(0,)])
        report = solve_mb(h, Side.A)
        assert report.winner is Side.A
        assert report.certificate.kind == "completed_edge"
        assert check_certificate(
            h, report.certificate, report.winner, report.first_mover
        )

    def test_multipartite_small_cases(self):
        assert solve_mb(gen_complete_multipartite(2, 2), Side.A).winner is Side.A
        assert solve_mb(gen_complete_multipartite(2, 3), Side.A).winner is Side.A
        assert solve_mb(gen_complete_multipartite(3, 2), Side.A).winner is Side.A


class TestEsPotential:
    def test_fresh_gcp(self):
        assert es_potential(Position(gen_gcp())) == Fraction(10, 8)

    def test_no_edges(self):
        assert es_potential(Position(Hypergraph(3))) == 0

    def test_boundary_not_below_half(self):
        h = Hypergraph(2, [(0, 1)])
        p = Position.make(h, claimed_a=[0])
        assert es_potential(p) == Fraction(1, 2)

    def test_breaker_claims_remove_edges(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        p = Position.make(h, claimed_b=[2])
        assert es_potential(p) == Fraction(1, 4)

    def test_es_certificate_at_root(self):
        # Overlaps keep the degree-1 pair reduction out of the picture.
        h = Hypergraph(5, [(0, 1, 2, 3), (0, 1, 2, 4)])
        report = solve_mb(h, Side.A, MBOptions(use_pairing_certificate=False))
        assert report.winner is Side.B
        assert report.certificate.kind == "erdos_selfridge"
        assert report.certificate.payload["potential"] == "1/8"
        assert check_certificate(
            h, report.certificate, report.winner, report.first_mover
        )


class TestPairing:
    def test_two_disjoint_edges(self):
        h = Hypergraph(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
        pr = find_pairing(h)
        assert pr is not None
        assert verify_pairing(h, pr)
        report = solve_mb(h, Side.A)
        assert report.winner is Side.B
        assert report.certificate.kind == "pairing"
        assert check_certificate(
            h, report.certificate, report.winner, report.first_mover
        )

    def test_g3_has_no_pairing(self):
        assert find_pairing(gen_g3()) is None

    def test_single_two_edge(self):
        h = Hypergraph(2, [(0, 1)])
        pr = find_pairing(h)
        assert pr.pairs == [(0, 1)]
        assert pr.edge_cover == {0: (0, 1)}

    def test_verify_rejects_overlapping_pairs(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        bad = Pairing([(0, 1), (1, 2)], {0: (0, 1), 1: (1, 2)})
        assert not verify_pairing(h, bad)

    def test_verify_rejects_missing_assignment(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        bad = Pairing([(0, 1)], {0: (0, 1)})
        assert not verify_pairing(h, bad)

    def test_verify_rejects_pair_outside_edge(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        bad = Pairing([(0, 1), (1, 2)], {0: (0, 1), 1: (1, 2)})
        assert not verify_pairing(h, bad)

    def test_low_degree_uniform_boards_always_pair(self):
        rng = random.Random(20240817)
        for _ in range(10):
            h = random_uniform_low_degree(rng, 4, 12, 5)
            pr = find_pairing(h)
            assert pr is not None and verify_pairing(h, pr)


class TestLemma22Vertex:
    def test_pendant_two_edge_forces_partner(self):
        h = Hypergraph(4, [(0, 1), (1, 2, 3)])
        assert _lemma22_vertex(h.edge_masks) == 1

    def test_both_degree_one(self):
        h = Hypergraph(3, [(1, 2), (0,)])
        assert _lemma22_vertex(h.edge_masks) == 1

    def test_no_two_edge(self):
        assert _lemma22_vertex(gen_gcp().edge_masks) is None

    def test_gcp_residual_after_y1(self):
        assert _lemma22_vertex(_residuals(gen_gcp(), 1 << 3, 0)) == 0

    def test_lowest_edge_index_wins(self):
        h = Hypergraph(6, [(0, 1), (2, 3), (0, 4, 5)])
        # Both 2-edges hold a degree-1 vertex and the first one decides: in
        # {0, 1} only 1 has degree 1, so Maker must claim its partner 0.
        assert _lemma22_vertex(h.edge_masks) == 0


@pytest.mark.parametrize("limit", [None, 5])
def test_search_frees_its_memos_on_return(limit):
    """The search's two recursive functions refer to each other.  The cycle
    is broken on return, so the memos are freed at once, not left for the
    cyclic collector, where one large solve's memos would add to the next
    one's peak memory."""
    gc.collect()
    gc.disable()
    try:
        solve_winner(Position(gen_gcp()), MBOptions(node_limit=limit))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "h",
    [gen_gcp(), Hypergraph(8, [(0, 1, 2, 3), (4, 5, 6, 7)])],
    ids=["gcp", "pairable"],
)
def test_pairing_search_leaves_no_garbage(h):
    """The augmenting-path search refers to nothing that refers back to it,
    so a failed or a found pairing leaves nothing for the cyclic
    collector."""
    gc.collect()
    gc.disable()
    try:
        find_pairing(h)
        solve_mb(h, Side.A)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestReduction:
    def test_reduction_certificate(self):
        h = Hypergraph(2, [(0, 1)])
        report = solve_mb(h, Side.A, MBOptions(use_pairing_certificate=False))
        assert report.winner is Side.B
        assert report.certificate.kind == "reduction"
        assert report.certificate.payload["pairs"] == [[0, 1]]
        assert check_certificate(
            h, report.certificate, report.winner, report.first_mover
        )

    def test_reduction_falls_through_on_maker_win(self):
        """The edge {15, 16, 17} reduces away and leaves g3, where Maker
        wins moving first.  The reduced board's edges are edges of the
        full board, so that verdict is returned as it stands: the search
        of g3 alone, not of the full board (1,218 nodes)."""
        h = Hypergraph(18, [*gen_g3().edges, (15, 16, 17)])
        report = solve_mb(h, Side.A)
        assert (report.winner, report.nodes_expanded) == (Side.A, 789)
        assert report.certificate is None
        full = solve_mb(h, Side.A, MBOptions(use_lemma21=False))
        assert (full.winner, full.nodes_expanded) == (Side.A, 1_218)


class TestPositionSolving:
    def test_double_threat(self):
        h = Hypergraph(3, [(0, 1), (0, 2)])
        p = Position.make(h, claimed_a=[0])
        assert solve_winner(p) is Side.A

    def test_forced_block_saves_breaker(self):
        h = Hypergraph(3, [(0, 1)])
        p = Position.make(h, claimed_a=[0])
        assert solve_winner(p) is Side.B

    def test_completed_edge_detected(self):
        h = Hypergraph(3, [(0, 1)])
        p = Position.make(h, claimed_a=[0, 1], claimed_b=[2])
        assert solve_winner(p) is Side.A


class TestNodeLimit:
    def test_exhaustion_is_explicit(self):
        report = solve_mb(gen_gcp(), Side.A, MBOptions(node_limit=3))
        assert report.exhausted
        assert report.winner is None

    def test_an_exhausted_search_counts_the_nodes_it_expanded(self):
        """The node that would pass the limit is refused before it is
        counted, so an exhausted search reports the limit itself."""
        report = solve_mb(gen_gcp(), Side.A, MBOptions(node_limit=3))
        assert (report.exhausted, report.nodes_expanded) == (True, 3)

    def test_limit_large_enough_is_exact(self):
        report = solve_mb(gen_gcp(), Side.A, MBOptions(node_limit=10**7))
        assert not report.exhausted
        assert report.winner is Side.B


class TestInvariants:
    def test_option_equivalence_small_suite(self):
        rng = random.Random(42)
        for _ in range(25):
            h = random_hypergraph(rng)
            for first in (Side.A, Side.B):
                base = solve_mb(h, first, ALL_OFF).winner
                assert solve_mb(h, first).winner is base

    def test_certificate_soundness_on_suite(self):
        rng = random.Random(43)
        for _ in range(25):
            h = random_hypergraph(rng)
            report = solve_mb(h, Side.A)
            if report.certificate and report.winner is Side.B:
                assert check_certificate(
                    h, report.certificate, report.winner, report.first_mover
                )
                assert solve_mb(h, Side.A, ALL_OFF).winner is Side.B

    def test_certificates_check_without_the_solver(self, monkeypatch):
        """``check_certificate`` trusts the certificate alone: with the
        solver gone it accepts every certificate that ``solve_mb`` gives on
        the suite, with and without the pairing shortcut, and refuses a
        ``reduction`` that carries no certificate of the reduced board."""
        rng = random.Random(43)
        certified = []
        for _ in range(25):
            h = random_hypergraph(rng)
            for first in (Side.A, Side.B):
                for opts in (MBOptions(), MBOptions(use_pairing_certificate=False)):
                    report = solve_mb(h, first, opts)
                    if report.certificate:
                        certified.append((h, report))

        def no_solver(*args, **kwargs):
            raise AssertionError("check_certificate ran the solver")

        monkeypatch.setattr(mb, "solve_mb", no_solver)
        for h, report in certified:
            assert check_certificate(
                h, report.certificate, report.winner, report.first_mover
            )
        kinds = {report.certificate.kind for _, report in certified}
        assert {"pairing", "reduction"} <= kinds
        bare = Certificate("reduction", {"pairs": [[0, 1]], "sub_certificate": None})
        assert not check_certificate(Hypergraph(2, [(0, 1)]), bare, Side.B, Side.A)

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("reduction", {"pairs": [[0, 1]], "sub_certificate": {}}),
            ("reduction", {"pairs": [[0, 1]], "sub_certificate": "all_blocked"}),
            ("pairing", {"pairs": [1], "edge_cover": {0: [0, 1]}}),
            ("pairing", {"pairs": [[0, 1]], "edge_cover": {"a": [0, 1]}}),
        ],
        ids=["empty-sub", "string-sub", "pair-not-a-sequence", "key-not-an-int"],
    )
    def test_an_unreadable_payload_is_refused(self, kind, payload):
        """A malformed payload is refused, not raised on; the board is one
        2-edge, reduced by the listed pair to a board with no edge."""
        h = Hypergraph(2, [(0, 1)])
        assert not check_certificate(h, Certificate(kind, payload), Side.B, Side.A)

    def test_edge_monotonicity(self):
        rng = random.Random(44)
        for _ in range(15):
            h = random_hypergraph(rng, max_vertices=9, max_edges=5)
            before = solve_mb(h, Side.A).winner
            size = rng.randint(1, min(3, h.vertex_count))
            extra = tuple(sorted(rng.sample(range(h.vertex_count), size)))
            if frozenset(extra) in {frozenset(e) for e in h.edges}:
                continue
            bigger = Hypergraph(h.vertex_count, list(h.edges) + [extra])
            after = solve_mb(bigger, Side.A).winner
            if before is Side.A:
                assert after is Side.A

    def test_automorphism_invariance_on_gcp(self):
        rot = gcp_rotation()
        permuted = permute_hypergraph(gen_gcp(), rot)
        for first in (Side.A, Side.B):
            assert solve_mb(permuted, first).winner is solve_mb(gen_gcp(), first).winner


def _seeded_g3_split() -> Hypergraph:
    """g3-split under the benchmark's seed-1 relabelling."""
    h = split_pendant(gen_g3())
    sizes = {"gamma": 35, "g3-split": h.vertex_count, "gcp": 15}
    return permute_hypergraph(h, workloads.seeded_permutations(1, sizes)["g3-split"])


class TestRootOrbits:
    @pytest.mark.parametrize(
        "board, first, winner, nodes, finds",
        [
            (gen_gamma, Side.B, Side.A, 13_772, 2),
            (gen_gcp, Side.A, Side.B, 56, 4),
            (lambda: split_pendant(gen_g3()), Side.A, Side.A, 66_827, 0),
            (_seeded_g3_split, Side.A, Side.A, 4_258, 0),
        ],
        ids=["gamma-breaker", "gcp-maker", "g3-split-maker", "g3-split-seed-1"],
    )
    def test_find_calls_and_nodes_are_pinned(
        self, monkeypatch, board, first, winner, nodes, finds
    ):
        """gamma's group is the dihedral group of order 10, found with two
        candidate searches; gcp's has order 24 and takes four.  On g3-split,
        shipped or relabelled, Maker's first root move wins, so no orbit is
        built and the tree is the one without orbits."""
        h = board()
        calls = count_finds(monkeypatch)
        report = solve_mb(h, first)
        assert (report.winner, report.nodes_expanded) == (winner, nodes)
        assert len(calls) == finds

    def test_a_later_orbit_can_hold_the_only_winning_move(self, monkeypatch):
        """On the path 2-0-3-1-4 with Breaker first, the root's search
        order begins 0, 1, 3, and of these only the centre 3 wins.  The
        reflection merges 0 with 1, so 1 is skipped once 0 is refuted and
        3 is searched next: 6 nodes, where a search without orbits takes
        8."""
        h = Hypergraph(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
        calls = count_finds(monkeypatch)
        report = solve_mb(h, Side.B)
        assert (report.winner, report.nodes_expanded) == (Side.B, 6)
        assert calls == [[(2, 4)]]
        patch_candidate(monkeypatch, lambda self, depth, pairs: None)
        assert solve_mb(h, Side.B).nodes_expanded == 8

    @pytest.mark.parametrize(
        "h, first, opts, winner",
        [
            (gen_gcp(), Side.A, MBOptions(node_limit=2), None),
            # Maker's first move, vertex 0, wins on the triangle.
            (Hypergraph(3, [(0, 1), (0, 2), (1, 2)]), Side.A, MBOptions(), Side.A),
            # Lemma 22 forces Maker onto vertex 1 of the path.
            (Hypergraph(4, [(0, 1), (1, 2), (2, 3)]), Side.A, MBOptions(), Side.A),
            # Breaker must take the singleton.
            (Hypergraph(3, [(0,), (1, 2)]), Side.B, MBOptions(), Side.B),
            # Breaker's first move, vertex 0, wins on one 3-edge.
            (
                Hypergraph(3, [(0, 1, 2)]),
                Side.B,
                MBOptions(use_pairing_certificate=False, use_lemma21=False),
                Side.B,
            ),
        ],
        ids=["node-limit", "maker-wins-first", "lemma22", "singleton", "breaker-wins-first"],
    )
    def test_no_orbit_work_unless_the_first_move_is_refuted(
        self, monkeypatch, h, first, opts, winner
    ):
        calls = count_finds(monkeypatch)
        report = solve_mb(h, first, opts)
        assert report.winner is winner
        assert report.nodes_expanded > 0
        assert calls == []

    @pytest.mark.parametrize(
        "board, first, winner, nodes",
        [(gen_gamma, Side.B, Side.A, 59_246), (gen_gcp, Side.A, Side.B, 169)],
        ids=["gamma-breaker", "gcp-maker"],
    )
    @pytest.mark.parametrize("kind", ["transposition", "no-permutation"])
    def test_a_candidate_that_is_no_automorphism_merges_nothing(
        self, monkeypatch, kind, board, first, winner, nodes
    ):
        """The search is not trusted.  A candidate that maps as asked but is
        no automorphism merges no moves, so every root move is searched, as
        the node counts of a search without orbits show."""

        def bad(self, depth, pairs):
            *_, (p, q) = pairs
            n = self.board.vertex_count
            if kind == "transposition":
                return [q if v == p else p if v == q else v for v in range(n)]
            return [q if v == p else v for v in range(n)]

        patch_candidate(monkeypatch, bad)
        report = solve_mb(board(), first)
        assert (report.winner, report.nodes_expanded) == (winner, nodes)

    def test_a_node_limit_on_gamma_prime_stops_at_once(self, monkeypatch):
        """A search that hits the node limit before the first root move is
        refuted builds no orbits; on gamma-prime they would cost seconds of
        ``automorphism_generators``."""
        h = gen_gamma_prime()
        calls = count_finds(monkeypatch)
        start = time.perf_counter()
        report = solve_mb(h, Side.B, MBOptions(node_limit=1000))
        assert report.exhausted and report.winner is None
        assert time.perf_counter() - start < 2
        assert calls == []


class TestDeterminism:
    def test_repeat_solves_agree(self):
        r1 = solve_mb(gen_gcp(), Side.A)
        r2 = solve_mb(gen_gcp(), Side.A)
        assert r1.winner is r2.winner
        assert r1.nodes_expanded == r2.nodes_expanded
