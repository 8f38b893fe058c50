"""Tests for the core data model and the `.hg` format."""

from __future__ import annotations

import io
import itertools
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cold_searches
from posgames.constructions import (
    compose_perms,
    gamma_rho,
    gamma_sigma,
    gamma_w,
    gamma_x,
    gen_g3,
    gen_gamma,
    gen_gamma_prime,
    gen_gcp,
)
from posgames.core import (
    ClaimError,
    HgParseError,
    Hypergraph,
    Position,
    Side,
    apply_claim,
    automorphism_generators,
    is_automorphism,
    is_uniform,
    load_hypergraph,
    mask_orbits,
    max_degree,
    permute_hypergraph,
    save_hypergraph,
)
from posgames.mb import _residuals


def _triangle() -> Hypergraph:
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


def _savable(name: str) -> bool:
    """Whether an ``n`` line of a .hg file can carry ``name``: the parser
    strips the line, and a text-mode read breaks lines at "\n" and "\r"."""
    return bool(name) and name == name.strip() and not {"\n", "\r"} & set(name)


@st.composite
def _named_boards(draw):
    n = draw(st.integers(1, 9))
    edge = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=4)
    edges = draw(st.lists(edge, max_size=8, unique=True))
    names = draw(st.dictionaries(st.integers(0, n - 1), st.text(max_size=6)))
    return n, [sorted(e) for e in edges], names


class TestHypergraph:
    def test_edges_are_sorted_tuples(self):
        h = Hypergraph(4, [(3, 1, 0)])
        assert h.edges == ((0, 1, 3),)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Hypergraph(2, [(-1, 0)])

    def test_rejects_duplicate_vertex_in_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 1, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 1), (1, 0)])

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [()])

    def test_equality_ignores_edge_order(self):
        a = Hypergraph(3, [(0, 1), (1, 2)])
        b = Hypergraph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_respects_names(self):
        a = Hypergraph(2, [(0, 1)], names={0: "u"})
        b = Hypergraph(2, [(0, 1)])
        assert a != b

    def test_degree_and_uniformity(self):
        h = _triangle()
        assert h.degrees() == (2, 2, 2)
        assert max_degree(h) == 2
        assert is_uniform(h, 2)
        assert not is_uniform(h, 3)
        assert max_degree(Hypergraph(5)) == 0

    def test_immutable(self):
        h = _triangle()
        with pytest.raises(AttributeError):
            h.vertex_count = 7


class TestPosition:
    def test_disjointness_enforced(self):
        h = _triangle()
        with pytest.raises(ValueError):
            Position.make(h, claimed_a=[0], claimed_b=[0])

    def test_out_of_range_claims_rejected(self):
        h = _triangle()
        with pytest.raises(ValueError):
            Position.make(h, claimed_a=[3])

    def test_to_move_alternates(self):
        h = _triangle()
        p = Position.make(h, first_mover=Side.B)
        assert p.to_move() is Side.B
        p = apply_claim(p, Side.B, 0)
        assert p.to_move() is Side.A
        p = apply_claim(p, Side.A, 1)
        assert p.to_move() is Side.B

    def test_apply_claim_rejects_taken_vertex(self):
        h = _triangle()
        p = Position.make(h, claimed_a=[0])
        with pytest.raises(ClaimError):
            apply_claim(p, Side.B, 0)
        with pytest.raises(ClaimError):
            apply_claim(p, Side.A, 5)

    def test_claimed_sets_round_trip(self):
        h = _triangle()
        p = Position.make(h, claimed_a=[2, 0], claimed_b=[1])
        assert p.claimed_a == frozenset({0, 2})
        assert p.claimed_b == frozenset({1})
        assert p.unclaimed_mask == 0


class TestResidual:
    """The residual set of a position, as both solvers build it: the edges
    free of B's claims, shrunk by A's, as masks."""

    def test_drops_blocked_and_shrinks(self):
        h = Hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
        assert _residuals(h, 1 << 1, 1 << 3) == (0b101,)

    def test_deduplicates_shrunken_edges(self):
        h = Hypergraph(3, [(0, 1), (0, 2)])
        assert _residuals(h, 0b110, 0) == (0b001,)

    def test_rejects_completed_edge(self):
        h = Hypergraph(3, [(0, 1)])
        assert _residuals(h, 0b011, 0) is None


class TestPermutations:
    def test_permute_moves_names_and_edges(self):
        h = Hypergraph(3, [(0, 1)], names={0: "u", 1: "v"})
        g = permute_hypergraph(h, [2, 0, 1])
        assert g.edges == ((0, 2),)
        assert g.names == {2: "u", 0: "v"}

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_hypergraph(_triangle(), [0, 0, 1])

    def test_automorphism_detection(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        assert is_automorphism(h, [1, 0, 2, 3])
        assert is_automorphism(h, [2, 3, 0, 1])
        assert not is_automorphism(h, [0, 2, 1, 3])
        assert not is_automorphism(h, [0, 1, 2, 2])


@st.composite
def _small_boards(draw):
    n = draw(st.integers(1, 7))
    edge = st.frozensets(st.integers(0, n - 1), min_size=1)
    edges = draw(st.lists(edge, max_size=8, unique=True))
    return Hypergraph(n, edges), draw(st.integers(0, n - 1))


def _closure(gens, n: int) -> set:
    """Every element of the group generated by ``gens``, listed."""
    group = {tuple(range(n))}
    queue = list(group)
    for p in queue:
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                queue.append(q)
    return group


class TestAutomorphisms:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_small_boards())
    def test_search_matches_brute_force(self, case):
        """The generators generate exactly the group found by trying every
        permutation."""
        h, _ = case
        n = h.vertex_count
        brute = {p for p in itertools.permutations(range(n)) if is_automorphism(h, p)}
        assert _closure(automorphism_generators(h), n) == brute

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_small_boards())
    def test_generators_give_the_orbits_of_the_whole_group(self, case):
        """Every generator is an automorphism, and the orbits they give on
        vertices and on vertex pairs are those of the group found by trying
        every permutation."""
        h, _ = case
        n = h.vertex_count
        brute = [p for p in itertools.permutations(range(n)) if is_automorphism(h, p)]
        gens = automorphism_generators(h)
        assert all(is_automorphism(h, g) for g in gens)
        for size in (1, 2):
            masks = [sum(1 << v for v in c) for c in itertools.combinations(range(n), size)]
            orbit = mask_orbits(gens, masks)
            for m in masks:
                images = {sum(1 << p[v] for v in range(n) if m >> v & 1) for p in brute}
                assert orbit(m) == min(images)

    def test_pentagon_has_the_ten_rotations_and_reflections(self):
        """The generators of gamma generate exactly the ten elements of the
        dihedral group D5.  The reflections fix spoke position 1, so no
        element fixes w1 and moves x11 to x12."""
        rho, sigma = gamma_rho(), gamma_sigma()
        rotations = [list(range(35))]
        for _ in range(4):
            rotations.append(compose_perms(rho, rotations[-1]))
        group = rotations + [compose_perms(r, sigma) for r in rotations]
        assert len({tuple(p) for p in group}) == 10
        closure = _closure(automorphism_generators(gen_gamma()), 35)
        assert closure == {tuple(p) for p in group}
        w1, x11, x12 = gamma_w(1), gamma_x(1, 1), gamma_x(1, 2)
        assert not any(p[w1] == w1 and p[x11] == x12 for p in closure)

    def test_a_group_too_large_to_list_is_searched_without_listing_it(self):
        """Twelve disjoint edges have 2**12 * 12! automorphisms; their
        generators come back without listing any, and put all 24 vertices
        in one orbit."""
        h = Hypergraph(24, [(2 * i, 2 * i + 1) for i in range(12)])
        started = time.perf_counter()
        gens = automorphism_generators(h)
        assert time.perf_counter() - started < 1.0
        assert all(is_automorphism(h, g) for g in gens)
        orbit = mask_orbits(gens, [1 << v for v in range(24)])
        assert {orbit(1 << v) for v in range(24)} == {1}

    @pytest.mark.parametrize(
        "board, count",
        [(gen_gcp, 4), (gen_gamma, 2), (gen_g3, 5), (gen_gamma_prime, 62)],
        ids=["gcp", "gamma", "g3", "gamma-prime"],
    )
    def test_generator_counts_are_pinned(self, board, count):
        """One generator per orbit met along the stabiliser chain: the
        solvers' root orbits and the verifier's stone-free candidates
        come from these lists."""
        assert len(automorphism_generators(board())) == count

    @pytest.mark.parametrize(
        "board",
        [gen_gcp, gen_gamma, gen_g3, gen_gamma_prime],
        ids=["gcp", "gamma", "g3", "gamma-prime"],
    )
    def test_a_cached_answer_equals_the_cold_search(self, monkeypatch, board):
        """On a cold cache the first call searches; an equal board built
        afresh then gets the same generators, in the same order, from the
        cache without a second search."""
        builds = cold_searches(monkeypatch)
        cold = automorphism_generators(board())
        assert automorphism_generators(board()) == cold
        assert builds == [board()]

    def test_a_caller_that_edits_a_generator_changes_no_later_answer(
        self, monkeypatch
    ):
        builds = cold_searches(monkeypatch)
        gens = automorphism_generators(gen_gamma())
        cold = [list(g) for g in gens]
        gens[0].reverse()
        gens.append(list(range(35)))
        assert automorphism_generators(gen_gamma()) == cold
        assert len(builds) == 1

    def test_edge_order_shares_the_cache_entry(self, monkeypatch):
        """A board with its edge list reversed compares equal, so it gets
        the entry its original filled.  That is the cold search of the
        reversed board, whose generators are each an automorphism of it:
        the search never reads the edge order."""
        h = gen_gamma()
        flipped = Hypergraph(h.vertex_count, reversed(h.edges), h.names or None)
        assert flipped == h and flipped.edges != h.edges
        builds = cold_searches(monkeypatch)
        automorphism_generators(h)
        cached = automorphism_generators(flipped)
        assert len(builds) == 1 and builds[0].edges == h.edges
        builds = cold_searches(monkeypatch)
        assert automorphism_generators(flipped) == cached
        assert len(builds) == 1 and builds[0].edges == flipped.edges
        assert all(is_automorphism(flipped, g) for g in cached)


class TestHgFormat:
    def test_round_trip_is_byte_identical(self):
        h = Hypergraph(5, [(0, 1, 2), (2, 3, 4)], names={0: "root", 4: "tip"})
        text = save_hypergraph(h)
        again = load_hypergraph(text)
        assert again == h
        assert save_hypergraph(again) == text

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_named_boards())
    def test_every_constructible_board_round_trips(self, board):
        n, edges, names = board
        if not all(map(_savable, names.values())):
            with pytest.raises(ValueError):
                Hypergraph(n, edges, names)
            return
        h = Hypergraph(n, edges, names)
        text = save_hypergraph(h)
        again = load_hypergraph(text)
        assert again == h
        assert save_hypergraph(again) == text
        # what reading the saved file in text mode, as the CLI does, gives
        read_back = io.StringIO(text, newline=None).read()
        assert load_hypergraph(read_back) == h

    @pytest.mark.parametrize(
        "name",
        ["", " a", "a ", "a\nb", "a\rb", "\t"],
        ids=["empty", "lead-space", "trail-space", "newline", "cr", "tab"],
    )
    def test_names_the_format_cannot_carry_are_rejected(self, name):
        with pytest.raises(ValueError):
            Hypergraph(2, [(0, 1)], names={0: name})

    def test_readme_example_parses(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(
            r"### Board file format\n.*?```\n(.*?)```",
            readme.read_text(encoding="utf-8"),
            re.DOTALL,
        ).group(1)
        h = load_hypergraph(block)
        assert h == Hypergraph(5, [(0, 1, 2), (2, 3, 4)], names={0: "a"})

    def test_empty_board(self):
        assert save_hypergraph(Hypergraph(0)) == "p hg 0 0\n"
        assert load_hypergraph("p hg 0 0\n") == Hypergraph(0)

    def test_accepts_bytes_comments_and_blank_lines(self):
        text = "# a board\n\np hg 3 1\n# names\nn 1 u\ne 1 3\n"
        h = load_hypergraph(text.encode())
        assert h.vertex_count == 3
        assert h.edges == ((0, 2),)
        assert h.names == {0: "u"}

    def test_file_indices_are_one_based(self):
        h = load_hypergraph("p hg 2 1\ne 1 2\n")
        assert h.edges == ((0, 1),)

    @pytest.mark.parametrize(
        "text,reason,line",
        [
            ("e 1 2\n", "malformed header", 1),
            ("p hg 2\ne 1 2\n", "malformed header", 1),
            ("p hg 2 1\np hg 2 1\ne 1 2\n", "malformed header", 2),
            ("p hg x 1\ne 1 2\n", "malformed header", 1),
            ("p hg 2 1\ne 1 1\n", "duplicate vertex", 2),
            ("p hg 2 2\ne 1 2\ne 2 1\n", "duplicate edge", 3),
            ("p hg 2 1\ne 1 3\n", "index out of range", 2),
            ("p hg 2 1\nn 3 u\ne 1 2\n", "index out of range", 2),
            ("p hg 2 2\ne 1 2\n", "edge count mismatch", 1),
            ("p hg 2 1\nq 1 2\ne 1 2\n", "malformed line", 2),
            ("p hg 2 1\ne\ne 1 2\n", "malformed line", 2),
            ("p hg 2 1\ne 1 z\n", "malformed line", 2),
            ("p hg 2 1\nn 1\ne 1 2\n", "malformed line", 2),
            ("p hg 1 0\nn 1 a\rb\n", "malformed name", 2),
            (b"p hg 2 1\n\xff\ne 1 2\n", "invalid UTF-8", 2),
        ],
    )
    def test_parse_errors_report_line(self, text, reason, line):
        with pytest.raises(HgParseError) as err:
            load_hypergraph(text)
        assert err.value.reason == reason
        assert err.value.line == line
        assert str(err.value) == f"{reason}, line {line}"
