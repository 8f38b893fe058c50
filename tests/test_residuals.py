"""Differential property tests for the solvers' residual bookkeeping.

Both exact solvers search canonical residual sets and derive each child's
set from its parent's with the Maker and Breaker claims, instead of reading
it off every board edge again; Chooser-Picker's exchanges, mixed offers
and dead offers are made of the same claims.  These tests check each
shortcut against a brute-force reference on random inputs, and check that
relabelling a board's vertices leaves both solvers' verdicts alone.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_hypergraph
from posgames.core import Hypergraph, Side, iter_bits, permute_hypergraph
from posgames.cp import solve_cp
from posgames.mb import (
    _breaker_claim,
    _canon,
    _lemma22_vertex,
    _maker_claim,
    _ordered_bits,
    _residuals,
    solve_mb,
)

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Residuals of at least two vertices over 12 vertices: what Maker faces
# when no single-vertex threat is left.
_residual_lists = st.lists(
    st.integers(1, (1 << 12) - 1).filter(lambda m: m.bit_count() >= 2),
    min_size=1,
    max_size=14,
)


@st.composite
def _boards(draw, max_vertices: int = 10, max_edges: int = 8) -> Hypergraph:
    n = draw(st.integers(2, max_vertices))
    edge = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(4, n))
    edges = draw(st.lists(edge, max_size=max_edges, unique=True))
    return Hypergraph(n, [sorted(e) for e in edges])


def _reference_canon(masks) -> tuple[int, ...]:
    """The minimal residuals, found by comparing every pair, in (size,
    value) order."""
    uniq = set(masks)
    minimal = {m for m in uniq if not any(o != m and o & m == o for o in uniq)}
    return tuple(sorted(minimal, key=lambda m: (m.bit_count(), m)))


def _reference_lemma22(masks) -> int | None:
    """Lemma 22's forced vertex from explicit degree counts."""
    deg: dict[int, int] = {}
    for m in masks:
        for v in iter_bits(m):
            deg[v] = deg.get(v, 0) + 1
    for m in masks:
        if m.bit_count() == 2:
            a, b = iter_bits(m)
            if deg[a] == 1 and deg[b] != 1:
                return b
            if deg[a] == 1 or deg[b] == 1:
                return a
    return None


def _reference_ordered_bits(masks) -> list[int]:
    """The move order by explicit per-vertex scores: a dict update per
    (residual, vertex), then a sort by index and a stable sort by score."""
    score: dict[int, int] = {}
    for m in masks:
        size = m.bit_count()
        w = 1 << (12 - size) if size < 12 else 1
        while m:
            bit = m & -m
            score[bit] = score.get(bit, 0) + w
            m ^= bit
    return sorted(sorted(score), key=score.__getitem__, reverse=True)


# Residuals of 2 to 13 of 16 vertices, many of them through vertex 0, so
# that sizes past the weight floor and long carries both occur.
_hub_residual_lists = st.lists(
    st.tuples(st.integers(2, 13), st.integers(0, 2**32 - 1), st.booleans()),
    min_size=1,
    max_size=80,
).map(
    lambda drawn: [
        sum(1 << v for v in random.Random(seed).sample(range(hub, 16), size - hub))
        | hub
        for size, seed, hub in drawn
    ]
)


def _some_vertex(data, masks) -> int:
    union = 0
    for m in masks:
        union |= m
    return 1 << data.draw(st.sampled_from(list(iter_bits(union))))


@_SETTINGS
@given(_residual_lists)
def test_canon_matches_brute_force(raw):
    assert _canon(raw) == _reference_canon(raw)


@_SETTINGS
@given(_residual_lists, st.data())
def test_incremental_maker_claim_equals_full_canon(raw, data):
    canon = _canon(raw)
    bit = _some_vertex(data, canon)
    shrunk = _maker_claim(canon, bit)
    assert shrunk == _canon([m & ~bit for m in canon])
    # The claim commutes with canonicalisation of the uncanonical list.
    assert shrunk == _reference_canon([m & ~bit for m in raw])


@_SETTINGS
@given(_residual_lists, st.data())
def test_breaker_claim_equals_full_canon(raw, data):
    canon = _canon(raw)
    bit = _some_vertex(data, canon)
    expected = _reference_canon([m for m in raw if not m & bit])
    assert _breaker_claim(canon, bit) == expected


@_SETTINGS
@given(st.one_of(_residual_lists, _hub_residual_lists))
@example([1 | 1 << v for v in range(1, 16)])
def test_move_order_is_urgency_then_index(raw):
    """The bit-sliced ranking gives the order of the dict-and-sort one,
    ties included, on canonical sets and on raw lists, where many small
    residuals through one vertex carry its score up many planes."""
    for masks in (_canon(raw), raw):
        assert list(_ordered_bits(masks)) == _reference_ordered_bits(masks)


@_SETTINGS
@given(_boards(max_vertices=8, max_edges=6))
def test_lemma22_vertex_matches_degree_counts(h):
    assert _lemma22_vertex(h.edge_masks) == _reference_lemma22(h.edge_masks)


@_SETTINGS
@given(_boards(), st.data())
def test_cp_children_match_the_board(h, data):
    """Along a random line of exchanges, mixed offers and dead offers, the
    residual set and unclaimed count Chooser-Picker derives from the
    parent's equal those read off the board at the line's claims."""
    canon, free = _residuals(h, 0, 0), h.vertex_count
    a = b = 0
    while canon and canon[0].bit_count() > 1:
        live = 0
        for r in canon:
            live |= r
        dead = [1 << v for v in iter_bits(h.full_mask & ~(a | b | live))]
        us = [1 << v for v in iter_bits(live)]
        kinds = ["exchange", "mixed", "dead"][: 1 + len(dead)]
        kind = data.draw(st.sampled_from(kinds))
        if kind == "exchange":
            x, y = data.draw(st.permutations(us))[:2]
            canon = _breaker_claim(_maker_claim(canon, x), y)
        elif kind == "mixed":
            x, y = data.draw(st.sampled_from(us)), data.draw(st.sampled_from(dead))
            canon = _maker_claim(canon, x)
        else:
            x, y = data.draw(st.permutations(dead))[:2]
        a, b, free = a | x, b | y, free - 2
        assert canon == _residuals(h, a, b)
        assert free == (h.full_mask & ~(a | b)).bit_count()


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.data())
def test_verdicts_survive_relabelling(seed, data):
    """Move order, residual order and memo keys all follow vertex indices;
    the winner must not."""
    h = random_hypergraph(random.Random(seed))
    perm = data.draw(st.permutations(range(h.vertex_count)))
    g = permute_hypergraph(h, perm)
    for first in (Side.A, Side.B):
        assert solve_mb(g, first).winner is solve_mb(h, first).winner
    assert solve_cp(g).winner is solve_cp(h).winner
