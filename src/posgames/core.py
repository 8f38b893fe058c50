"""Hypergraph boards and game positions.

Vertices are dense 0-based indices.  Claimed sets are exposed as frozensets
but carried internally as integer bitmasks, so membership and subset tests
stay O(1) on boards of several hundred vertices.  Every type in this module
is an immutable value: operations return new objects and never mutate their
inputs, which makes boards and positions safe to share across threads.

Invariants:
  * every edge is a non-empty, duplicate-free, sorted tuple of valid indices;
  * the edge list contains no duplicate edge (set-of-sets semantics);
  * a position's two claimed sets are disjoint subsets of the board.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Side",
    "side_name",
    "HgParseError",
    "ClaimError",
    "Hypergraph",
    "Position",
    "mask_of",
    "set_of",
    "iter_bits",
    "max_degree",
    "is_uniform",
    "apply_claim",
    "permute_hypergraph",
    "is_automorphism",
    "automorphism_generators",
    "mask_orbits",
    "load_hypergraph",
    "save_hypergraph",
]


class Side(Enum):
    """The two players. Side A claims winning sets (Maker or Chooser); side B
    opposes (Breaker or Picker)."""

    A = "A"
    B = "B"

    def other(self) -> "Side":
        return Side.B if self is Side.A else Side.A


def side_name(side: Side, game: str) -> str:
    """Render a side as the conventional player name for a game ("mb" or "cp")."""
    if game == "mb":
        return "maker" if side is Side.A else "breaker"
    if game == "cp":
        return "chooser" if side is Side.A else "picker"
    raise ValueError(f"unknown game {game!r}")


class HgParseError(ValueError):
    """Malformed `.hg` input. The message carries the 1-based line number."""

    def __init__(self, reason: str, line: int):
        super().__init__(f"{reason}, line {line}")
        self.reason = reason
        self.line = line


class ClaimError(ValueError):
    """An attempt to claim a vertex that is not available."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset:
    return frozenset(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _savable_name(name: str) -> bool:
    """Exactly the names an ``n`` line of a .hg file can carry; a text-mode
    read breaks lines at a lone "\r" as well."""
    return bool(name) and name == name.strip() and not {"\n", "\r"} & set(name)


class Hypergraph:
    """A finite hypergraph: ``vertex_count`` vertices and an ordered edge list.

    Edges are stored as sorted duplicate-free index tuples.  Equality is
    order-insensitive on the edge list (set-of-sets) but exact on the vertex
    count and the optional name map.
    """

    __slots__ = (
        "vertex_count",
        "edges",
        "names",
        "edge_masks",
        "full_mask",
        "incidence",
        "_edge_set",
        "_hash",
    )

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[Iterable[int]] = (),
        names: Mapping[int, str] | None = None,
    ):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        object.__setattr__(self, "vertex_count", vertex_count)

        norm = []
        seen: set = set()
        for raw in edges:
            edge = tuple(sorted(raw))
            if not edge:
                raise ValueError("empty edge")
            if len(set(edge)) != len(edge):
                raise ValueError(f"duplicate vertex in edge {edge}")
            if edge[0] < 0 or edge[-1] >= vertex_count:
                raise ValueError(f"edge {edge} has a vertex out of range")
            key = frozenset(edge)
            if key in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(key)
            norm.append(edge)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_edge_set", frozenset(seen))

        nm: dict[int, str] = {}
        if names:
            for idx, name in names.items():
                if not 0 <= idx < vertex_count:
                    raise ValueError(f"name index {idx} out of range")
                name = str(name)
                if not _savable_name(name):
                    raise ValueError(f"vertex name {name!r} cannot be saved")
                nm[int(idx)] = name
        object.__setattr__(self, "names", nm)

        object.__setattr__(
            self, "edge_masks", tuple(mask_of(e) for e in self.edges)
        )
        object.__setattr__(self, "full_mask", (1 << vertex_count) - 1)
        inc: list[list[int]] = [[] for _ in range(vertex_count)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        object.__setattr__(self, "incidence", tuple(tuple(x) for x in inc))
        object.__setattr__(
            self,
            "_hash",
            hash((vertex_count, self._edge_set, tuple(sorted(nm.items())))),
        )

    def __setattr__(self, *_):  # pragma: no cover - defensive
        raise AttributeError("Hypergraph is immutable")

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.incidence)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self._edge_set == other._edge_set
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph({self.vertex_count} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Position:
    """A game position: the board plus the two disjoint claimed sets.

    ``first_mover`` records which side moved first; with the claimed-set
    sizes this determines the side to move in an alternating game.
    """

    board: Hypergraph
    a_mask: int = 0
    b_mask: int = 0
    first_mover: Side = Side.A

    def __post_init__(self):
        full = self.board.full_mask
        if self.a_mask & ~full or self.b_mask & ~full:
            raise ValueError("claimed vertex out of range")
        if self.a_mask & self.b_mask:
            raise ValueError("claimed sets overlap")

    @staticmethod
    def make(
        board: Hypergraph,
        claimed_a: Iterable[int] = (),
        claimed_b: Iterable[int] = (),
        first_mover: Side = Side.A,
    ) -> "Position":
        return Position(board, mask_of(claimed_a), mask_of(claimed_b), first_mover)

    @property
    def claimed_a(self) -> frozenset:
        return set_of(self.a_mask)

    @property
    def claimed_b(self) -> frozenset:
        return set_of(self.b_mask)

    @property
    def unclaimed_mask(self) -> int:
        return self.board.full_mask & ~(self.a_mask | self.b_mask)

    def moves_made(self) -> int:
        return self.a_mask.bit_count() + self.b_mask.bit_count()

    def to_move(self) -> Side:
        return self.first_mover if self.moves_made() % 2 == 0 else self.first_mover.other()


def max_degree(h: Hypergraph) -> int:
    """Largest vertex degree; 0 on an edgeless or empty board."""
    return max(h.degrees(), default=0)


def is_uniform(h: Hypergraph, k: int) -> bool:
    return all(len(e) == k for e in h.edges)


def apply_claim(p: Position, side: Side, vertex: int) -> Position:
    """Claim a vertex for a side, returning the new position."""
    if not 0 <= vertex < p.board.vertex_count:
        raise ClaimError(f"vertex {vertex} out of range")
    bit = 1 << vertex
    if bit & (p.a_mask | p.b_mask):
        raise ClaimError(f"vertex {vertex} already claimed")
    if side is Side.A:
        return Position(p.board, p.a_mask | bit, p.b_mask, p.first_mover)
    return Position(p.board, p.a_mask, p.b_mask | bit, p.first_mover)


def permute_hypergraph(h: Hypergraph, perm: Sequence[int]) -> Hypergraph:
    """Apply a vertex permutation (``perm[v]`` is the image of ``v``).

    Edge order is preserved; names travel with their vertices.
    """
    if sorted(perm) != list(range(h.vertex_count)):
        raise ValueError("not a permutation of the vertex set")
    edges = [tuple(sorted(perm[v] for v in e)) for e in h.edges]
    names = {perm[v]: nm for v, nm in h.names.items()}
    return Hypergraph(h.vertex_count, edges, names or None)


def is_automorphism(h: Hypergraph, perm: Sequence[int]) -> bool:
    """True iff ``perm`` maps the edge set onto itself (names are ignored)."""
    if sorted(perm) != list(range(h.vertex_count)):
        return False
    return all(frozenset(perm[v] for v in e) in h._edge_set for e in h.edges)


def _dense(keys: list) -> list[int]:
    """Each key's rank among the distinct keys."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


class _Search:
    """The automorphism search of a hypergraph: individualise vertices and
    refine colourings (McKay, "Practical graph isomorphism", 1981), so the
    group is never listed.

    A colouring gives each vertex a colour 0..k-1.  Refinement recolours a
    vertex by its colour and the multiset of the colour multisets of its
    edges until no colour class splits; colours are ranked by sorting, so
    the result commutes with relabelling the board.  Individualising a
    vertex gives it a colour of its own and refines.  The first search
    path (``path``, ending in ``leaf``) individualises the lowest vertex of
    the smallest non-singleton class (the lowest-ranked one among equals)
    until every class is a singleton; its nodes are (colouring, target
    class) pairs.  Any path that individualises counterpart vertices ends
    in a leaf that, with the first leaf, defines a permutation, which is
    kept when it is an automorphism and maps each required vertex onto its
    image.
    """

    __slots__ = ("board", "_bits", "path", "leaf")

    def __init__(self, h: Hypergraph):
        self.board = h
        self._bits = (
            max(map(len, h.edges), default=0).bit_length(),
            max_degree(h).bit_length(),
        )
        col = self._refine([0] * h.vertex_count)
        self.path = []
        while len(set(col)) < len(col):
            target = min((size, c) for c, size in Counter(col).items() if size > 1)[1]
            cell = [v for v, c in enumerate(col) if c == target]
            self.path.append((col, cell))
            col = self._individualise(col, cell[0])
        self.leaf = col

    def _refine(self, col: list[int]) -> list[int]:
        # A multiset of ranks is a sum of one counter per rank, each wide
        # enough for an edge's size or a vertex's degree.
        edges, incidence = self.board.edges, self.board.incidence
        vbits, ebits = self._bits
        cells = len(set(col))
        while True:
            edge_col = _dense([sum([1 << col[v] * vbits for v in e]) for e in edges])
            new = _dense(
                [
                    (c, sum([1 << edge_col[e] * ebits for e in incidence[v]]))
                    for v, c in enumerate(col)
                ]
            )
            k = max(new, default=-1) + 1
            if k == cells:
                return col
            col, cells = new, k

    def _individualise(self, col: list[int], v: int) -> list[int]:
        return self._refine(_dense([(c, u != v) for u, c in enumerate(col)]))

    def candidate(self, depth: int, pairs) -> list[int] | None:
        """An automorphism that maps each ``p`` onto its ``q`` for ``(p, q)``
        in ``pairs``, or None.  ``pairs`` fixes the vertices individualised
        above ``path[depth]`` and ends with (the node's vertex, ``v``): the
        search individualises ``v`` in the node's colouring and follows the
        path below it."""
        col = self._individualise(self.path[depth][0], pairs[-1][1])
        return self._match(col, depth + 1, pairs)

    def _match(self, col, depth: int, pairs):
        """An automorphism mapping ``leaf`` onto a leaf below ``col`` (the
        counterpart of ``path[depth]``'s colouring) that maps each pair's
        first vertex onto its second, or None."""
        if depth == len(self.path):
            if len(set(col)) != len(col):
                return None
            at = sorted(range(len(col)), key=col.__getitem__)  # colour -> vertex
            g = [at[c] for c in self.leaf]
            if all(g[p] == q for p, q in pairs) and is_automorphism(self.board, g):
                return g
            return None
        node, cell = self.path[depth]
        if sorted(col) != sorted(node):  # the same class sizes
            return None
        target = node[cell[0]]
        for v, c in enumerate(col):
            if c == target:
                g = self._match(self._individualise(col, v), depth + 1, pairs)
                if g is not None:
                    return g
        return None


def automorphism_generators(h: Hypergraph) -> list[list[int]]:
    """Generators of the automorphism group of ``h``, each checked.

    The group is generated along the stabiliser chain of the first search
    path (McKay 1981; see :class:`_Search`), deepest level first.  The
    level of a path node fixes the vertices individualised above it; the
    search is asked for a candidate that maps the node's vertex onto each
    vertex of its cell that lies in no orbit already reached or refused
    under the generators found so far.  The leaf is discrete, so the last
    stabiliser is trivial and the generators generate the whole group when
    the search is exact.  The search is not trusted: a candidate is kept
    only if :func:`is_automorphism` holds and it maps as asked, so every
    generator is an automorphism, whatever the search returns.

    The generators of the last few boards are cached, keyed by the board's
    value: boards that compare equal (the same vertex count, edge set and
    names) share one entry, and the cache holds a fixed number of boards,
    least recently used first out.  This is exact because the search reads
    only the vertex count and the edge set, never the edge order:
    ``_Search._refine`` ranks its keys by sorting.  The cache keeps tuples,
    and each call returns fresh lists, so a caller that edits a generator
    changes no later answer."""
    return [list(g) for g in _checked_generators(h)]


@functools.lru_cache(maxsize=8)
def _checked_generators(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """The search behind :func:`automorphism_generators`, run once per
    board value while the value stays in the cache."""
    search = _Search(h)
    path = search.path
    verts: dict[int, int] = {}
    gens = []
    for depth in range(len(path) - 1, -1, -1):
        base, *cell = path[depth][1]
        fixed = [(c[0], c[0]) for _, c in path[:depth]]
        known = [base]
        for v in cell:
            if any(_top(verts, v) == _top(verts, r) for r in known):
                continue
            pairs = fixed + [(base, v)]
            g = search.candidate(depth, pairs)
            if g and is_automorphism(h, g) and all(g[p] == q for p, q in pairs):
                gens.append(tuple(g))
                for u in range(h.vertex_count):
                    _merge(verts, u, g[u])
            else:
                known.append(v)
    return tuple(gens)


def mask_orbits(
    gens: Sequence[Sequence[int]], masks: Iterable[int]
) -> Callable[[int], int]:
    """The orbits on ``masks`` of the group generated by the permutations
    ``gens``, which move a mask's bits, as a map from a mask to the least
    mask of its orbit.  ``masks`` must be closed under ``gens``; a mask
    outside them is its own orbit."""
    up: dict[int, int] = {}
    masks = list(masks)
    for g in gens:
        images = [1 << w for w in g]
        moved = mask_of([v for v, w in enumerate(g) if v != w])
        for m in masks:
            if not m & moved:
                continue
            image = 0
            rest = m
            while rest:
                low = rest & -rest
                image |= images[low.bit_length() - 1]
                rest ^= low
            _merge(up, m, image)
    return lambda m: _top(up, m)


def _top(up: dict, k: int) -> int:
    """The root of ``k`` in the union-find forest ``up``: the least
    member of its class."""
    while up.get(k, k) != k:
        k = up[k]
    return k


def _merge(up: dict, a: int, b: int) -> None:
    a, b = _top(up, a), _top(up, b)
    if a != b:
        up[max(a, b)] = min(a, b)


def load_hypergraph(data: str | bytes) -> Hypergraph:
    """Parse the `.hg` text format.

    Format: a ``p hg <vertices> <edges>`` header, optional ``n <index> <name>``
    lines, and ``e <v1> ... <vk>`` lines, all 1-based; a line starting with
    ``#`` is a comment.
    Raises :class:`HgParseError` with the offending 1-based line number.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise HgParseError("invalid UTF-8", line) from None

    vertex_count = -1
    edge_count = -1
    header_line = 0
    names: dict[int, str] = {}
    edges: list[tuple[int, ...]] = []
    seen_edges: set[frozenset] = set()

    for lineno, raw in enumerate(data.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if vertex_count >= 0:
                raise HgParseError("malformed header", lineno)
            if len(parts) != 4 or parts[1] != "hg":
                raise HgParseError("malformed header", lineno)
            try:
                vertex_count, edge_count = int(parts[2]), int(parts[3])
            except ValueError:
                raise HgParseError("malformed header", lineno) from None
            if vertex_count < 0 or edge_count < 0:
                raise HgParseError("malformed header", lineno)
            header_line = lineno
        elif kind == "n":
            if vertex_count < 0:
                raise HgParseError("malformed header", lineno)
            sub = line.split(None, 2)
            if len(sub) < 3:
                raise HgParseError("malformed line", lineno)
            try:
                idx = int(sub[1])
            except ValueError:
                raise HgParseError("malformed line", lineno) from None
            if not 1 <= idx <= vertex_count:
                raise HgParseError("index out of range", lineno)
            if not _savable_name(sub[2]):
                raise HgParseError("malformed name", lineno)
            names[idx - 1] = sub[2]
        elif kind == "e":
            if vertex_count < 0:
                raise HgParseError("malformed header", lineno)
            try:
                verts = [int(t) for t in parts[1:]]
            except ValueError:
                raise HgParseError("malformed line", lineno) from None
            if not verts:
                raise HgParseError("malformed line", lineno)
            for v in verts:
                if not 1 <= v <= vertex_count:
                    raise HgParseError("index out of range", lineno)
            zero_based = tuple(sorted(v - 1 for v in verts))
            if len(set(zero_based)) != len(zero_based):
                raise HgParseError("duplicate vertex", lineno)
            key = frozenset(zero_based)
            if key in seen_edges:
                raise HgParseError("duplicate edge", lineno)
            seen_edges.add(key)
            edges.append(zero_based)
        else:
            raise HgParseError("malformed line", lineno)

    if vertex_count < 0:
        raise HgParseError("malformed header", 1)
    if len(edges) != edge_count:
        raise HgParseError("edge count mismatch", header_line)
    return Hypergraph(vertex_count, edges, names or None)


def save_hypergraph(h: Hypergraph) -> str:
    """Serialize to canonical `.hg` text: header, name lines sorted by index,
    then edges in stored order with ascending 1-based vertex indices."""
    lines = [f"p hg {h.vertex_count} {len(h.edges)}"]
    for idx in sorted(h.names):
        lines.append(f"n {idx + 1} {h.names[idx]}")
    for e in h.edges:
        lines.append("e " + " ".join(str(v + 1) for v in e))
    return "\n".join(lines) + "\n"
