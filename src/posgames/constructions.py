"""Named boards and board transformations.

All generators are deterministic pure functions returning freshly built
:class:`~posgames.core.Hypergraph` values.  Vertex numbering conventions are
fixed here and relied on by the strategy builders:

* ``g3`` - 15 vertices: the three hubs ``v1..v3`` are 0..2, the four columns
  occupy 3..14.
* ``gcp`` - 15 vertices: ``x1..x3`` are 0..2, ``y1..y6`` are 3..8,
  ``z1..z6`` are 9..14.
* ``gamma`` - 35 vertices: ``w_i`` at ``i-1``, ``x_ij`` at ``5+3(i-1)+(j-1)``,
  ``t_ij`` at ``20+3(i-1)+(j-1)`` (``i`` in 1..5, ``j`` in 1..3).
* ``gamma_prime`` - the 35 base vertices keep their indices; the gadget for
  spoke ``(i,j)`` owns the ten indices starting at ``35+10(3(i-1)+(j-1))``:
  six y-vertices then four z-vertices.
* ``g4`` - three copies of ``gamma_prime`` at offsets 0/185/370, then
  ``v1..v4`` at 555..558 and ``s1..s3`` at 559..561.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import Hypergraph, is_uniform, max_degree

__all__ = [
    "ConstructionMeta",
    "CONSTRUCTIONS",
    "GENERATORS",
    "meta_mismatches",
    "gen_g3",
    "gen_gcp",
    "gen_gamma",
    "gen_gamma_prime",
    "gen_g4",
    "gen_complete_multipartite",
    "split_pendant",
    "reduce_lemma21",
    "gamma_w",
    "gamma_x",
    "gamma_t",
    "gadget_base",
    "gadget_y",
    "gadget_z",
    "gamma_rho",
    "gamma_sigma",
    "compose_perms",
    "gcp_x",
    "gcp_y",
    "gcp_z",
    "gcp_rotation",
    "G4_COPY_OFFSETS",
    "g4_v",
    "g4_s",
]


@dataclass(frozen=True)
class ConstructionMeta:
    """Expected shape of a named construction; generators are tested
    against every non-optional field."""

    name: str
    expected_vertex_count: int
    expected_edge_count: int
    expected_max_degree: int
    uniformity: int | None = None
    erratum_note: str | None = None


def meta_mismatches(h: Hypergraph, meta: ConstructionMeta) -> list[str]:
    """Human-readable list of deviations of ``h`` from ``meta`` (empty = ok)."""
    out = []
    if h.vertex_count != meta.expected_vertex_count:
        out.append(
            f"vertex count {h.vertex_count} != {meta.expected_vertex_count}"
        )
    if len(h.edges) != meta.expected_edge_count:
        out.append(f"edge count {len(h.edges)} != {meta.expected_edge_count}")
    if max_degree(h) != meta.expected_max_degree:
        out.append(f"max degree {max_degree(h)} != {meta.expected_max_degree}")
    if meta.uniformity is not None and not is_uniform(h, meta.uniformity):
        out.append(f"not {meta.uniformity}-uniform")
    return out


# ---------------------------------------------------------------------------
# G_3: the 3-uniform board of maximum degree 2 that Maker wins.
# ---------------------------------------------------------------------------


def gen_g3() -> Hypergraph:
    """Three hub vertices and four 3-vertex columns.

    Each column is an edge; six further edges tie each hub to two cells of
    each of two columns, so every vertex has degree exactly 2.
    """
    columns = [(3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14)]
    arms = [
        (0, 5, 8),
        (0, 11, 14),
        (1, 3, 6),
        (1, 4, 7),
        (2, 9, 12),
        (2, 10, 13),
    ]
    names = {0: "v1", 1: "v2", 2: "v3"}
    return Hypergraph(15, columns + arms, names)


# ---------------------------------------------------------------------------
# G_CP: the board separating the Maker-Breaker and Chooser-Picker verdicts.
# ---------------------------------------------------------------------------


def gcp_x(i: int) -> int:
    """Index of x_i (i in 1..3)."""
    return i - 1


def gcp_y(k: int) -> int:
    """Index of y_k (k in 1..6)."""
    return 2 + k


def gcp_z(k: int) -> int:
    """Index of z_k (k in 1..6)."""
    return 8 + k


def gen_gcp() -> Hypergraph:
    """Fifteen vertices x_1..x_3, y_1..y_6, z_1..z_6 and ten 3-edges:
    e_i = {y_{2i-1}, y_{2i}, x_{i+1}} (x index wrapping 4 to 1),
    f_k = {x_{ceil(k/2)}, y_k, z_k}, and g = {x_1, x_2, x_3}."""
    edges = []
    for i in (1, 2, 3):
        xi = i + 1 if i < 3 else 1
        edges.append((gcp_x(xi), gcp_y(2 * i - 1), gcp_y(2 * i)))
    for k in range(1, 7):
        edges.append((gcp_x((k + 1) // 2), gcp_y(k), gcp_z(k)))
    edges.append((gcp_x(1), gcp_x(2), gcp_x(3)))
    names = {gcp_x(i): f"x{i}" for i in (1, 2, 3)}
    names.update({gcp_y(k): f"y{k}" for k in range(1, 7)})
    names.update({gcp_z(k): f"z{k}" for k in range(1, 7)})
    return Hypergraph(15, edges, names)


def gcp_rotation() -> list[int]:
    """The order-3 automorphism of gen_gcp(): x_i -> x_{i+1}, y_k -> y_{k+2},
    z_k -> z_{k+2} (cyclically)."""
    perm = [0] * 15
    for i in (1, 2, 3):
        perm[gcp_x(i)] = gcp_x(i % 3 + 1)
    for k in range(1, 7):
        perm[gcp_y(k)] = gcp_y((k + 1) % 6 + 1)
        perm[gcp_z(k)] = gcp_z((k + 1) % 6 + 1)
    return perm


# ---------------------------------------------------------------------------
# Gamma: the pentagon board (5 hubs w_i, 15 spokes x_ij/t_ij, 5 long edges).
# ---------------------------------------------------------------------------


def gamma_w(i: int) -> int:
    """Index of w_i (i in 1..5)."""
    return i - 1


def gamma_x(i: int, j: int) -> int:
    """Index of x_ij (i in 1..5, j in 1..3)."""
    return 5 + 3 * (i - 1) + (j - 1)


def gamma_t(i: int, j: int) -> int:
    """Index of t_ij (i in 1..5, j in 1..3)."""
    return 20 + 3 * (i - 1) + (j - 1)


def _wrap5(i: int) -> int:
    return (i - 1) % 5 + 1


def gen_gamma() -> Hypergraph:
    """The 35-vertex pentagon board.

    Fifteen spoke edges {w_i, x_ij, t_ij}, then the five long edges
    e_i = {x_{i,1}, x_{i+2,2}, x_{i+3,3}} with hub indices mod 5.
    Degrees: w 3, x 2, t 1.
    """
    edges = []
    names = {}
    for i in range(1, 6):
        names[gamma_w(i)] = f"w{i}"
        for j in range(1, 4):
            names[gamma_x(i, j)] = f"x{i}{j}"
            names[gamma_t(i, j)] = f"t{i}{j}"
    for i in range(1, 6):
        for j in range(1, 4):
            edges.append((gamma_w(i), gamma_x(i, j), gamma_t(i, j)))
    for i in range(1, 6):
        edges.append(
            (gamma_x(i, 1), gamma_x(_wrap5(i + 2), 2), gamma_x(_wrap5(i + 3), 3))
        )
    return Hypergraph(35, edges, names)


def _gamma_index_perm(
    imap: Callable[[int], int], jmap: Callable[[int], int]
) -> list[int]:
    perm = [0] * 35
    for i in range(1, 6):
        perm[gamma_w(i)] = gamma_w(imap(i))
        for j in range(1, 4):
            perm[gamma_x(i, j)] = gamma_x(imap(i), jmap(j))
            perm[gamma_t(i, j)] = gamma_t(imap(i), jmap(j))
    return perm


def gamma_rho() -> list[int]:
    """The rotation automorphism of gen_gamma(): hub index i -> i+1 (mod 5)."""
    return _gamma_index_perm(lambda i: _wrap5(i + 1), lambda j: j)


def gamma_sigma() -> list[int]:
    """The reflection automorphism of gen_gamma(): hub index i -> -i (mod 5)
    with spoke positions 2 and 3 swapped."""
    return _gamma_index_perm(lambda i: _wrap5(-i), lambda j: {1: 1, 2: 3, 3: 2}[j])


def compose_perms(outer: Iterable[int], inner: Iterable[int]) -> list[int]:
    """Composition ``outer after inner`` as vertex permutations."""
    outer = list(outer)
    return [outer[v] for v in inner]


# ---------------------------------------------------------------------------
# Gamma': gadget replacement of every spoke edge.
# ---------------------------------------------------------------------------


def gadget_base(i: int, j: int) -> int:
    """First of the ten fresh indices owned by the gadget at spoke (i, j)."""
    return 35 + 10 * (3 * (i - 1) + (j - 1))


def gadget_y(i: int, j: int, k: int) -> int:
    """Index of the gadget's y_k (k in 1..6)."""
    return gadget_base(i, j) + (k - 1)


def gadget_z(i: int, j: int, k: int) -> int:
    """Index of the gadget's z_k (k in 1..4)."""
    return gadget_base(i, j) + 6 + (k - 1)


def _gadget_edges(w: int, x: int, t: int, y, z) -> list[tuple[int, ...]]:
    return [
        (w, t, y(1), y(2)),
        (x, t, y(3), y(4)),
        (x, t, y(5), y(6)),
        (y(1), y(3), y(5), z(1)),
        (y(1), y(3), y(5), z(2)),
        (y(2), y(4), y(6), z(3)),
        (y(2), y(4), y(6), z(4)),
    ]


def gen_gamma_prime() -> Hypergraph:
    """The pentagon board with every spoke edge replaced, in place, by a
    ten-vertex gadget of seven 4-edges; the five long edges stay 3-edges.

    185 vertices, 110 edges, maximum degree 3.
    """
    base = gen_gamma()
    names = dict(base.names)
    edges: list[tuple[int, ...]] = []
    for i in range(1, 6):
        for j in range(1, 4):
            w, x, t = gamma_w(i), gamma_x(i, j), gamma_t(i, j)
            for k in range(1, 7):
                names[gadget_y(i, j, k)] = f"y{i}{j}{k}"
            for k in range(1, 5):
                names[gadget_z(i, j, k)] = f"z{i}{j}{k}"
            edges.extend(
                _gadget_edges(
                    w,
                    x,
                    t,
                    lambda k, i=i, j=j: gadget_y(i, j, k),
                    lambda k, i=i, j=j: gadget_z(i, j, k),
                )
            )
    edges.extend(base.edges[15:])
    return Hypergraph(185, edges, names)


_GAMMA_PRIME_ERRATUM = (
    "Originally reported as 155 vertices; the explicit gadget (six y- plus "
    "four z-vertices per replaced spoke) yields 35 + 15*10 = 185. The edge "
    "count 110 agrees."
)

_G4_ERRATUM = (
    "Originally reported as 472 vertices; three copies of the 185-vertex "
    "board plus the seven apex vertices yield 562. The edge count 331 agrees."
)


# ---------------------------------------------------------------------------
# G_4: three copies of gamma' joined through an apex chain.
# ---------------------------------------------------------------------------

G4_COPY_OFFSETS = (0, 185, 370)


def g4_v(i: int) -> int:
    """Index of apex vertex v_i (i in 1..4)."""
    return 554 + i


def g4_s(i: int) -> int:
    """Index of switch vertex s_i (i in 1..3)."""
    return 558 + i


def gen_g4() -> Hypergraph:
    """The 4-uniform, maximum-degree-3 board on which Maker wins moving first.

    Three disjoint copies of gen_gamma_prime(); copy i's first two long edges
    gain v_i and its last three gain s_i, and the single apex edge
    {v_1, v_2, v_3, v_4} is appended last.
    """
    gp = gen_gamma_prime()
    edges: list[tuple[int, ...]] = []
    names: dict[int, str] = {}
    for c, off in enumerate(G4_COPY_OFFSETS, start=1):
        for v, nm in gp.names.items():
            names[v + off] = f"c{c}:{nm}"
        for idx, e in enumerate(gp.edges):
            shifted = tuple(v + off for v in e)
            if idx >= 105:
                extra = g4_v(c) if idx < 107 else g4_s(c)
                shifted = shifted + (extra,)
            edges.append(shifted)
    edges.append((g4_v(1), g4_v(2), g4_v(3), g4_v(4)))
    for i in range(1, 5):
        names[g4_v(i)] = f"v{i}"
    for i in range(1, 4):
        names[g4_s(i)] = f"s{i}"
    return Hypergraph(562, edges, names)


# ---------------------------------------------------------------------------
# Parametric and derived boards.
# ---------------------------------------------------------------------------


# the most edges ``gen_complete_multipartite`` builds
_EDGE_CAP = 10**6


def gen_complete_multipartite(k: int, n: int) -> Hypergraph:
    """k vertex classes of size n; the edges are all transversals (one vertex
    per class), in lexicographic order.  k*n vertices and n**k edges, at
    most ``_EDGE_CAP``."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be at least 1")
    if n**k > _EDGE_CAP:
        raise ValueError(f"n**k = {n ** k} exceeds the edge cap {_EDGE_CAP}")
    classes = [range(c * n, (c + 1) * n) for c in range(k)]
    return Hypergraph(k * n, list(itertools.product(*classes)))


def split_pendant(h: Hypergraph) -> Hypergraph:
    """Replace every edge e by e + {x_e} and e + {y_e} with fresh pendant
    vertices, appended in edge order (x before y).

    Every original degree doubles and each fresh vertex has degree 1, so a
    k-uniform board becomes (k+1)-uniform.
    """
    n = h.vertex_count
    edges: list[tuple[int, ...]] = []
    names = dict(h.names)
    for idx, e in enumerate(h.edges):
        xe, ye = n + 2 * idx, n + 2 * idx + 1
        edges.append(e + (xe,))
        edges.append(e + (ye,))
        names[xe] = f"xe{idx + 1}"
        names[ye] = f"ye{idx + 1}"
    return Hypergraph(n + 2 * len(h.edges), edges, names or None)


def reduce_lemma21(h: Hypergraph) -> tuple[Hypergraph, list[tuple[int, int]]]:
    """Repeatedly drop an edge that contains two degree-1 vertices.

    The reduced board has the original's value.  Such a pair can be played
    as an answered pair, so a Breaker win on the reduced board is one on
    the original, and the reduced board's edges are edges of the original,
    so a Maker win on it is one on the original too.
    Scanning order is deterministic: lowest surviving edge index first, and
    within the edge, the two lowest-index degree-1 vertices.  Removed
    vertices become isolated; the vertex count is unchanged.
    """
    alive = list(h.edges)
    pairs: list[tuple[int, int]] = []
    while True:
        degree: dict[int, int] = {}
        for e in alive:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        for pos, e in enumerate(alive):
            ones = [v for v in e if degree[v] == 1]
            if len(ones) >= 2:
                pairs.append((ones[0], ones[1]))
                del alive[pos]
                break
        else:
            return Hypergraph(h.vertex_count, alive, h.names or None), pairs


CONSTRUCTIONS: dict[str, ConstructionMeta] = {
    "g3": ConstructionMeta("g3", 15, 10, 2, uniformity=3),
    "gcp": ConstructionMeta("gcp", 15, 10, 4, uniformity=3),
    "gamma": ConstructionMeta("gamma", 35, 20, 3, uniformity=3),
    "gamma_prime": ConstructionMeta(
        "gamma_prime", 185, 110, 3, erratum_note=_GAMMA_PRIME_ERRATUM
    ),
    "g4": ConstructionMeta("g4", 562, 331, 3, uniformity=4, erratum_note=_G4_ERRATUM),
}

GENERATORS: dict[str, Callable[[], Hypergraph]] = {
    "g3": gen_g3,
    "gcp": gen_gcp,
    "gamma": gen_gamma,
    "gamma_prime": gen_gamma_prime,
    "g4": gen_g4,
}
