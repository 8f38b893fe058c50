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

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Side",
    "side_name",
    "HgParseError",
    "ClaimError",
    "Hypergraph",
    "EdgeStatus",
    "Position",
    "mask_of",
    "set_of",
    "iter_bits",
    "max_degree",
    "is_uniform",
    "edge_statuses",
    "apply_claim",
    "residual",
    "permute_hypergraph",
    "is_automorphism",
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
                # exactly the names an ``n`` line of a .hg file can carry; a
                # text-mode read breaks lines at a lone "\r" as well
                if not name or name != name.strip() or {"\n", "\r"} & set(name):
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

    def edge_index(self, vertices: Iterable[int]) -> int:
        """Index of the edge with exactly this vertex set; raises if absent."""
        key = frozenset(vertices)
        for i, e in enumerate(self.edges):
            if len(e) == len(key) and key.issuperset(e):
                return i
        raise KeyError(f"no edge {sorted(key)}")

    def name_of(self, v: int) -> str:
        return self.names.get(v, str(v))

    def index_of(self, name: str) -> int:
        """Vertex index for a name; raises KeyError if no vertex has it."""
        for idx, nm in self.names.items():
            if nm == name:
                return idx
        raise KeyError(name)

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
class EdgeStatus:
    """Per-edge summary relative to a position: how many vertices remain
    unclaimed and whether the opponent has touched the edge."""

    edge: int
    unclaimed_count: int
    blocked: bool


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


def edge_statuses(p: Position, winner_side: Side = Side.A) -> list[EdgeStatus]:
    """Status of every edge from the perspective of the completing side."""
    opp = p.b_mask if winner_side is Side.A else p.a_mask
    taken = p.a_mask | p.b_mask
    out = []
    for i, m in enumerate(p.board.edge_masks):
        out.append(EdgeStatus(i, (m & ~taken).bit_count(), bool(m & opp)))
    return out


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


def residual(p: Position) -> Hypergraph:
    """The residual board: edges free of B-claims, shrunk by A's claims.

    Vertex indices are preserved (claimed vertices simply become isolated).
    Edges that shrink to the same set are deduplicated; a fully A-claimed
    edge means the position is already won and has no residual.
    """
    out = []
    seen = set()
    for e, m in zip(p.board.edges, p.board.edge_masks):
        if m & p.b_mask:
            continue
        rest = tuple(v for v in e if not (p.a_mask >> v) & 1)
        if not rest:
            raise ValueError("position already contains a completed edge")
        key = frozenset(rest)
        if key in seen:
            continue
        seen.add(key)
        out.append(rest)
    return Hypergraph(p.board.vertex_count, out)


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
    edge_set = {frozenset(e) for e in h.edges}
    return all(frozenset(perm[v] for v in e) in edge_set for e in h.edges)


def load_hypergraph(data: str | bytes) -> Hypergraph:
    """Parse the `.hg` text format.

    Format: a ``p hg <vertices> <edges>`` header, optional ``n <index> <name>``
    lines, and ``e <v1> ... <vk>`` lines, all 1-based; a line starting with
    ``#`` is a comment.
    Raises :class:`HgParseError` with the offending 1-based line number.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")

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
