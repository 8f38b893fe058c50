"""Tests for the named boards and board transformations."""

from __future__ import annotations

import pytest

from posgames import constructions
from posgames.constructions import (
    CONSTRUCTIONS,
    GENERATORS,
    G4_COPY_OFFSETS,
    compose_perms,
    g4_s,
    g4_v,
    gadget_base,
    gadget_y,
    gadget_z,
    gamma_rho,
    gamma_sigma,
    gamma_t,
    gamma_w,
    gamma_x,
    gcp_rotation,
    gcp_x,
    gcp_y,
    gcp_z,
    gen_complete_multipartite,
    gen_g3,
    gen_g4,
    gen_gamma,
    gen_gamma_prime,
    gen_gcp,
    meta_mismatches,
    reduce_lemma21,
    split_pendant,
)
from posgames.core import (
    Hypergraph,
    is_automorphism,
    is_uniform,
    load_hypergraph,
    max_degree,
    save_hypergraph,
)


class TestMetaRegistry:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_generators_match_meta(self, name):
        h = GENERATORS[name]()
        assert meta_mismatches(h, CONSTRUCTIONS[name]) == []

    def test_mismatch_reporting(self):
        h = Hypergraph(3, [(0, 1)])
        bad = CONSTRUCTIONS["g3"]
        assert len(meta_mismatches(h, bad)) >= 2


class TestG3:
    def test_shape(self):
        h = gen_g3()
        assert (h.vertex_count, len(h.edges)) == (15, 10)
        assert is_uniform(h, 3)
        assert h.degrees() == (2,) * 15
        assert h.names == {0: "v1", 1: "v2", 2: "v3"}

    def test_edge_list(self):
        h = gen_g3()
        assert h.edges[:4] == ((3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14))
        assert set(h.edges[4:]) == {
            (0, 5, 8),
            (0, 11, 14),
            (1, 3, 6),
            (1, 4, 7),
            (2, 9, 12),
            (2, 10, 13),
        }


class TestGcp:
    def test_edge_list(self):
        h = gen_gcp()
        assert h.edges == (
            (1, 3, 4),
            (2, 5, 6),
            (0, 7, 8),
            (0, 3, 9),
            (0, 4, 10),
            (1, 5, 11),
            (1, 6, 12),
            (2, 7, 13),
            (2, 8, 14),
            (0, 1, 2),
        )

    def test_degrees(self):
        h = gen_gcp()
        for i in (1, 2, 3):
            assert h.degree(gcp_x(i)) == 4
        for k in range(1, 7):
            assert h.degree(gcp_y(k)) == 2
            assert h.degree(gcp_z(k)) == 1

    def test_names_and_round_trip(self):
        h = gen_gcp()
        assert h.names[gcp_x(1)] == "x1"
        assert h.names[gcp_y(6)] == "y6"
        assert h.names[gcp_z(6)] == "z6"
        assert load_hypergraph(save_hypergraph(h)) == h

    def test_rotation_is_automorphism(self):
        h = gen_gcp()
        rot = gcp_rotation()
        assert is_automorphism(h, rot)
        assert compose_perms(rot, compose_perms(rot, rot)) == list(range(15))


class TestGamma:
    def test_shape(self):
        h = gen_gamma()
        assert (h.vertex_count, len(h.edges)) == (35, 20)
        assert is_uniform(h, 3)
        for i in range(1, 6):
            assert h.degree(gamma_w(i)) == 3
            for j in range(1, 4):
                assert h.degree(gamma_x(i, j)) == 2
                assert h.degree(gamma_t(i, j)) == 1

    def test_long_edges(self):
        h = gen_gamma()
        assert set(h.edges[15]) == {gamma_x(1, 1), gamma_x(3, 2), gamma_x(4, 3)}
        assert set(h.edges[19]) == {gamma_x(5, 1), gamma_x(2, 2), gamma_x(3, 3)}

    def test_rho_and_sigma_are_automorphisms(self):
        h = gen_gamma()
        rho, sigma = gamma_rho(), gamma_sigma()
        assert is_automorphism(h, rho)
        assert is_automorphism(h, sigma)
        ident = list(range(35))
        five = ident
        for _ in range(5):
            five = compose_perms(rho, five)
        assert five == ident
        assert compose_perms(sigma, sigma) == ident

    def test_sigma_moves_long_edges_correctly(self):
        # The reflection sends the long edge at hub i to the one at hub -i.
        h = gen_gamma()
        sigma = gamma_sigma()
        img = {frozenset(sigma[v] for v in h.edges[15 + (i - 1)]): i for i in range(1, 6)}
        expected = {1: 4, 2: 3, 3: 2, 4: 1, 5: 5}
        for edge, i in img.items():
            target = 15 + (expected[i] - 1)
            assert frozenset(h.edges[target]) == edge


class TestGammaPrime:
    def test_shape(self):
        h = gen_gamma_prime()
        assert (h.vertex_count, len(h.edges)) == (185, 110)
        assert max_degree(h) == 3

    def test_edge_sizes(self):
        h = gen_gamma_prime()
        assert all(len(e) == 4 for e in h.edges[:105])
        assert all(len(e) == 3 for e in h.edges[105:])
        assert h.edges[105:] == gen_gamma().edges[15:]

    def test_gadget_block_layout(self):
        h = gen_gamma_prime()
        w, x, t = gamma_w(2), gamma_x(2, 3), gamma_t(2, 3)
        base = gadget_base(2, 3)
        block = 7 * (3 * 1 + 2)
        assert set(h.edges[block]) == {w, t, base, base + 1}
        assert set(h.edges[block + 1]) == {x, t, base + 2, base + 3}
        assert set(h.edges[block + 2]) == {x, t, base + 4, base + 5}
        assert set(h.edges[block + 3]) == {base, base + 2, base + 4, base + 6}
        assert set(h.edges[block + 6]) == {base + 1, base + 3, base + 5, base + 9}
        assert h.names[gadget_y(2, 3, 1)] == "y231"
        assert h.names[gadget_z(2, 3, 4)] == "z234"

    def test_no_edge_spans_two_gadgets(self):
        h = gen_gamma_prime()
        for e in h.edges:
            blocks = {(v - 35) // 10 for v in e if v >= 35}
            assert len(blocks) <= 1

    def test_fresh_degrees(self):
        h = gen_gamma_prime()
        for i in range(1, 6):
            for j in range(1, 4):
                for k in range(1, 7):
                    assert h.degree(gadget_y(i, j, k)) == 3
                for k in range(1, 5):
                    assert h.degree(gadget_z(i, j, k)) == 1


class TestG4:
    def test_shape(self):
        h = gen_g4()
        assert (h.vertex_count, len(h.edges)) == (562, 331)
        assert is_uniform(h, 4)
        assert max_degree(h) == 3

    def test_apex_edge_and_degrees(self):
        h = gen_g4()
        assert h.edges[330] == (g4_v(1), g4_v(2), g4_v(3), g4_v(4))
        for i in (1, 2, 3):
            assert h.degree(g4_v(i)) == 3
            assert h.degree(g4_s(i)) == 3
        assert h.degree(g4_v(4)) == 1

    def test_long_edge_retargeting(self):
        h = gen_g4()
        gp = gen_gamma_prime()
        for c, off in enumerate(G4_COPY_OFFSETS, start=1):
            for local in range(105, 110):
                shifted = {v + off for v in gp.edges[local]}
                extra = g4_v(c) if local < 107 else g4_s(c)
                assert set(h.edges[110 * (c - 1) + local]) == shifted | {extra}

    def test_copies_are_disjoint(self):
        h = gen_g4()
        for idx, e in enumerate(h.edges[:330]):
            copies = {v // 185 for v in e if v < 555}
            assert copies == {idx // 110}

    def test_names(self):
        h = gen_g4()
        assert h.names[g4_v(1)] == "v1"
        assert h.names[g4_s(3)] == "s3"
        assert h.names[185 + gamma_w(1)] == "c2:w1"


class TestCompleteMultipartite:
    def test_two_by_two(self):
        h = gen_complete_multipartite(2, 2)
        assert (h.vertex_count, len(h.edges)) == (4, 4)
        assert set(h.edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_three_by_two(self):
        h = gen_complete_multipartite(3, 2)
        assert (h.vertex_count, len(h.edges)) == (6, 8)
        assert is_uniform(h, 3)

    def test_single_class(self):
        h = gen_complete_multipartite(1, 3)
        assert h.edges == ((0,), (1,), (2,))

    def test_rejects_bad_parameters(self, monkeypatch):
        with pytest.raises(ValueError):
            gen_complete_multipartite(0, 2)
        with pytest.raises(ValueError):
            gen_complete_multipartite(2, 0)
        with pytest.raises(ValueError, match="edge cap 1000000"):
            gen_complete_multipartite(7, 8)
        monkeypatch.setattr(constructions, "_EDGE_CAP", 3)
        with pytest.raises(ValueError):
            gen_complete_multipartite(2, 2)
        monkeypatch.setattr(constructions, "_EDGE_CAP", 4)
        assert len(gen_complete_multipartite(2, 2).edges) == 4


class TestSplitPendant:
    def test_single_edge(self):
        h = split_pendant(Hypergraph(1, [(0,)]))
        assert h.vertex_count == 3
        assert h.edges == ((0, 1), (0, 2))
        assert h.degree(0) == 2
        assert h.degree(1) == h.degree(2) == 1

    def test_on_g3(self):
        h = split_pendant(gen_g3())
        assert (h.vertex_count, len(h.edges)) == (35, 20)
        assert is_uniform(h, 4)
        assert max_degree(h) == 4
        base = gen_g3()
        for idx, e in enumerate(base.edges):
            assert h.edges[2 * idx] == e + (15 + 2 * idx,)
            assert h.edges[2 * idx + 1] == e + (15 + 2 * idx + 1,)
        assert h.names[15] == "xe1"
        assert h.names[16] == "ye1"

    def test_fresh_vertices_have_degree_one(self):
        h = split_pendant(gen_g3())
        for v in range(15, 35):
            assert h.degree(v) == 1


class TestReduceLemma21:
    def test_identity_on_gcp(self):
        h = gen_gcp()
        reduced, pairs = reduce_lemma21(h)
        assert pairs == []
        assert reduced.edges == h.edges

    def test_identity_on_gamma(self):
        h = gen_gamma()
        reduced, pairs = reduce_lemma21(h)
        assert pairs == []
        assert reduced.edges == h.edges

    def test_single_pair_edge(self):
        reduced, pairs = reduce_lemma21(Hypergraph(2, [(0, 1)]))
        assert reduced.edges == ()
        assert reduced.vertex_count == 2
        assert pairs == [(0, 1)]

    def test_cascade(self):
        h = Hypergraph(4, [(0, 1), (1, 2, 3)])
        reduced, pairs = reduce_lemma21(h)
        assert reduced.edges == ()
        assert pairs == [(2, 3), (0, 1)]

    def test_takes_lowest_vertices(self):
        h = Hypergraph(4, [(1, 2, 3), (0, 3)])
        # Edge 0 has degree-1 vertices 1 and 2 (3 has degree 2).
        reduced, pairs = reduce_lemma21(h)
        assert pairs[0] == (1, 2)
        assert pairs == [(1, 2), (0, 3)]
        assert reduced.edges == ()
