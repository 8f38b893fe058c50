"""Exact Maker-Breaker solver.

Maker (side A) and Breaker (side B) alternately claim free vertices; Maker
wins on fully claiming an edge, Breaker wins otherwise.

The search works on the *reduced game*: a position is summarized by the set
of residual edge masks (Breaker-free edges, shrunk by Maker's claims), which
is a complete description of the game value.  Residual sets are canonicalized
(duplicates and dominated supersets dropped, claims outside every live edge
ignored), so transpositions collapse aggressively.  All reductions used are
value-preserving; optional certificates give independently checkable
Breaker-win proofs.

Children are derived from their parent's canonical residuals and built
lazily, one at a time, in search order, so a cutoff skips the siblings that
follow it.  A Breaker claim only drops the residuals through the claimed
vertex, which keeps the set canonical.  A Maker claim shrinks those
residuals instead; only the untouched ones can become dominated, so only
they are re-checked (:func:`_maker_claim`).  The search is single-threaded
and deterministic.

:func:`_search` keeps one memo per side to move, each keyed by the
canonical residual tuple alone and holding whether Maker wins, and expands
a node in place: ``Side`` is used only at the API boundary.

At the empty board :func:`solve_mb` searches one move per orbit of the
board's automorphism group on vertices, whichever side moves first
(:func:`_one_per_orbit`, :func:`_vertex_orbits`).  This is exact: an
automorphism g maps edges onto edges, so it maps the game after the move v
onto the game after g(v), and the mover wins the one iff the other.  A move
is skipped only when an earlier move of its orbit was searched and refuted,
so the first winning move in search order is never skipped, and the root's
value is that of a search without orbits.  The generators come from
``core.automorphism_generators``, each checked by ``core.is_automorphism``
and built once per board value per process (the cache is shared with
``cp`` and the verifier).
The orbits are built lazily, once the root's first move has been refuted
and another one is due, so a root that wins at its first move, has a forced
move or stops at the node limit pays nothing for them.  Interior nodes and
:func:`solve_winner` search as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .constructions import reduce_lemma21
from .core import Hypergraph, Position, Side, automorphism_generators, mask_orbits

__all__ = [
    "MBOptions",
    "Certificate",
    "SolveReport",
    "Pairing",
    "solve_mb",
    "es_potential",
    "find_pairing",
    "verify_pairing",
    "check_certificate",
]


@dataclass(frozen=True)
class MBOptions:
    """Solver switches.  Every combination yields the same verdict; the
    switches only control pruning and which certificate can be produced."""

    use_es_certificate: bool = True
    use_pairing_certificate: bool = True
    use_lemma21: bool = True
    use_lemma22: bool = True
    node_limit: int | None = None


@dataclass(frozen=True)
class Certificate:
    """A self-contained win proof.  Kinds: ``erdos_selfridge``, ``pairing``,
    ``completed_edge``, ``all_blocked``, ``reduction``."""

    kind: str
    payload: dict


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.  ``winner`` is None only when ``exhausted`` is set
    (the node limit was hit before the value was established)."""

    winner: Side | None
    first_mover: Side
    nodes_expanded: int
    elapsed_ms: int
    certificate: Certificate | None = None
    exhausted: bool = False


@dataclass
class Pairing:
    """Disjoint vertex pairs covering every edge: Breaker answers inside the
    touched pair, so every edge permanently keeps a Breaker vertex."""

    pairs: list[tuple[int, int]]
    edge_cover: dict[int, tuple[int, int]]


class _Exhausted(Exception):
    pass


class _Budget:
    """Node counter with an optional cap.  A spend at the cap raises before
    it counts, so ``count`` is the number of nodes expanded."""

    __slots__ = ("limit", "count")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.count = 0

    def spend(self) -> None:
        if self.limit is not None and self.count == self.limit:
            raise _Exhausted()
        self.count += 1


# ---------------------------------------------------------------------------
# Residual-mask machinery.
# ---------------------------------------------------------------------------


def _canon(masks) -> tuple[int, ...]:
    """Canonical residual set: deduplicated, supersets of other residuals
    dropped (they can neither be completed first nor blocked separately),
    sorted by (size, value)."""
    kept: list[int] = []
    for m in sorted(sorted(set(masks)), key=int.bit_count):
        for o in kept:
            if o & m == o:
                break
        else:
            kept.append(m)
    return tuple(kept)


def _residuals(board: Hypergraph, a: int, b: int) -> tuple[int, ...] | None:
    """The canonical residual set of the position in which side A holds
    ``a`` and side B holds ``b``, or None once A has completed an edge."""
    masks = []
    for m in board.edge_masks:
        if m & b:
            continue
        r = m & ~a
        if r == 0:
            return None
        masks.append(r)
    return _canon(masks)


def _maker_claim(masks, bit: int) -> tuple[int, ...]:
    """``_canon`` of the canonical set ``masks`` after Maker claims ``bit``,
    given that every residual through ``bit`` keeps another vertex.

    The shrunk residuals stay distinct and mutually undominated, and an
    untouched residual cannot dominate a shrunk one (it would have dominated
    it before the claim).  So only the untouched residuals are re-checked,
    against the shrunk ones, and both runs keep their (size, value) order.
    """
    shrunk = []
    rest = []
    for m in masks:
        if m & bit:
            shrunk.append(m ^ bit)
        else:
            rest.append(m)
    for s in shrunk:
        rest = [m for m in rest if m & s != s]
    return tuple(sorted(sorted(shrunk + rest), key=int.bit_count))


def _breaker_claim(masks, bit: int) -> tuple[int, ...]:
    """The canonical set ``masks`` after Breaker claims ``bit``: dropping
    residuals keeps it canonical."""
    return tuple([m for m in masks if not m & bit])


def _ordered_bits(masks):
    """Candidate moves, as single-bit masks, yielded lazily: vertices of
    live edges, most urgent first (weight 2^-size per incident edge, as
    2^(12 - size) floored at 1), index ascending as the tie-break.

    The scores are summed bit-sliced: ``planes[k]`` holds the vertices
    whose score has bit k set, and a residual adds its whole mask at its
    weight's plane with ripple carry.  A weight is at most 2^11, so no
    score reaches 2^(11 + len(masks).bit_length()) and no carry leaves
    the planes.  The order is read off the non-empty planes from the top
    down: each class of equal higher bits splits into the vertices with
    the plane's bit set, searched first, and the rest, which wait on a
    stack; a cutoff at the first candidate leaves the waiting classes
    unsplit."""
    planes = [0] * (11 + len(masks).bit_length())
    live = 0
    for m in masks:
        live |= m
        k = 12 - m.bit_count()
        if k < 0:
            k = 0
        while m:
            carry = planes[k] & m
            planes[k] ^= m
            m = carry
            k += 1
    planes = [p for p in reversed(planes) if p]
    stack = [(live, 0)]
    while stack:
        cls, start = stack.pop()
        for k in range(start, len(planes)):
            high = cls & planes[k]
            if high and high != cls:
                stack.append((cls ^ high, k + 1))
                cls = high
        while cls:
            bit = cls & -cls
            yield bit
            cls ^= bit


def _es_below_half(masks) -> bool:
    """Integer-exact test of sum(2^-size) < 1/2 over a canonical residual
    set (its last residual is a largest one)."""
    k = masks[-1].bit_count()
    total = sum([1 << (k - m.bit_count()) for m in masks])
    return 2 * total < (1 << k)


def _lemma22_vertex(masks) -> int | None:
    """In a residual set with an edge {x, y} where x lies in no other edge,
    Maker may restrict the current move to y without changing the value.
    Scans the 2-edges in order; when both vertices have degree 1 the
    lower-indexed one is returned."""
    seen = multi = 0
    for m in masks:
        multi |= seen & m
        seen |= m
    pendant = seen & ~multi
    for m in masks:
        if m.bit_count() == 2 and m & pendant:
            lo = m & -m
            # Only the lower vertex pendant: take the upper; else the lower.
            pick = m ^ lo if m & pendant == lo else lo
            return pick.bit_length() - 1
    return None


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------


def es_potential(p: Position) -> Fraction:
    """Sum over Breaker-free edges of 2^-(vertices not yet claimed by Maker),
    exactly.  Below 1/2 with Maker to move on a residual-fresh position, it
    certifies a Breaker win."""
    total = Fraction(0)
    for m in p.board.edge_masks:
        if m & p.b_mask:
            continue
        total += Fraction(1, 1 << (m & ~p.a_mask).bit_count())
    return total


def _augment(edges, owner: dict[int, int], copy: int, visited: set) -> bool:
    """Match edge copy ``copy`` (copy ``2e`` or ``2e + 1`` of edge ``e``) to
    a vertex along an augmenting path, updating ``owner`` (vertex -> copy);
    vertices in ``visited`` are not tried again."""
    for v in edges[copy // 2]:
        if v in visited:
            continue
        visited.add(v)
        if v not in owner or _augment(edges, owner, owner[v], visited):
            owner[v] = copy
            return True
    return False


def find_pairing(h: Hypergraph) -> Pairing | None:
    """Search for disjoint pairs covering every edge via bipartite matching
    (two copies of every edge against the vertex set, augmenting paths).
    Always succeeds on n-uniform boards of maximum degree at most n/2."""
    owner: dict[int, int] = {}
    for copy in range(2 * len(h.edges)):
        if not _augment(h.edges, owner, copy, set()):
            return None
    matched: dict[int, int] = {}
    for v, copy in owner.items():
        matched[copy] = v
    pairs = []
    cover = {}
    for e in range(len(h.edges)):
        x, y = matched[2 * e], matched[2 * e + 1]
        pair = (min(x, y), max(x, y))
        pairs.append(pair)
        cover[e] = pair
    return Pairing(pairs, cover)


def verify_pairing(h: Hypergraph, pr: Pairing) -> bool:
    """Check the pairing proves a Breaker win: every edge is assigned a pair
    of two distinct vertices inside it, listed in ``pairs``, and distinct
    pairs share no vertex."""
    if set(pr.edge_cover) != set(range(len(h.edges))):
        return False
    listed = {tuple(p) for p in pr.pairs}
    used: set[int] = set()
    for pair in {tuple(p) for p in pr.edge_cover.values()}:
        if len(pair) != 2 or pair[0] == pair[1] or pair not in listed:
            return False
        if pair[0] in used or pair[1] in used:
            return False
        used.update(pair)
    for e, pair in pr.edge_cover.items():
        if not set(pair) <= set(h.edges[e]):
            return False
    return True


def check_certificate(
    h: Hypergraph, cert: Certificate, winner: Side, first_mover: Side
) -> bool:
    """Independently validate a certificate against the board it
    certifies.  The check never runs the solver: it trusts only
    :mod:`posgames.core`, ``reduce_lemma21``, :func:`es_potential` and
    :func:`verify_pairing`, and a ``reduction`` is accepted only with a
    ``sub_certificate`` that checks on the reduced board.  A payload that
    cannot be read, such as a pair that is no sequence or an edge key that
    is no integer, is refused, never raised on."""
    try:
        return _check_certificate(h, cert, winner, first_mover)
    except (AttributeError, KeyError, TypeError, ValueError):
        return False


def _check_certificate(
    h: Hypergraph, cert: Certificate, winner: Side, first_mover: Side
) -> bool:
    if cert.kind == "all_blocked":
        return winner is Side.B and not h.edges
    if cert.kind == "completed_edge":
        idx = cert.payload.get("edge")
        return (
            winner is Side.A
            and first_mover is Side.A
            and isinstance(idx, int)
            and 0 <= idx < len(h.edges)
            and len(h.edges[idx]) == 1
        )
    if cert.kind == "erdos_selfridge":
        if winner is not Side.B or first_mover is not Side.A:
            return False
        pot = es_potential(Position(h))
        return pot < Fraction(1, 2) and cert.payload.get("potential") == str(pot)
    if cert.kind == "pairing":
        if winner is not Side.B:
            return False
        pairs = [tuple(p) for p in cert.payload.get("pairs", [])]
        cover = {
            int(k): tuple(v) for k, v in cert.payload.get("edge_cover", {}).items()
        }
        return verify_pairing(h, Pairing(pairs, cover))
    if cert.kind == "reduction":
        sub = cert.payload.get("sub_certificate")
        if winner is not Side.B or sub is None:
            return False
        reduced, pairs = reduce_lemma21(h)
        if [list(p) for p in pairs] != cert.payload.get("pairs"):
            return False
        return check_certificate(
            reduced, Certificate(sub["kind"], sub["payload"]), Side.B, first_mover
        )
    return False


# ---------------------------------------------------------------------------
# Top-level solve.
# ---------------------------------------------------------------------------


def _one_per_orbit(cands, orbits, key=None):
    """The root's candidates ``cands`` in order, less each whose ``key``
    (the candidate itself by default) shares an orbit with an earlier
    one's.  ``orbits()`` builds the map from a key to its orbit's least
    member; it is called only once the first candidate has been refuted
    and another one is due, so an empty or one-candidate list builds
    none."""
    key = key or (lambda c: c)
    cands = iter(cands)
    first = next(cands, None)
    if first is None:
        return
    yield first
    orbit = seen = None
    for c in cands:
        if orbit is None:
            orbit = orbits()
            seen = {orbit(key(first))}
        rep = orbit(key(c))
        if rep not in seen:
            seen.add(rep)
            yield c


def _vertex_orbits(board: Hypergraph):
    """The orbits of the board's automorphism group on vertices, as a map
    from a one-bit mask to the least mask of its orbit."""
    n = board.vertex_count
    return mask_orbits(automorphism_generators(board), [1 << v for v in range(n)])


def _search(
    canon, maker_moves: bool, opts: MBOptions, board: Hypergraph | None = None
) -> tuple[Side | None, int]:
    """Exact value of the canonical residual set ``canon`` with Maker to
    move iff ``maker_moves``, and the nodes expanded; the value is None
    when the node limit was hit.

    Each side to move has its own memo, keyed by the residual set alone
    and holding whether Maker wins.  A node is shortcut or expanded in
    place; its children are built one at a time, in search order.  Given
    the empty ``board`` whose residuals ``canon`` are, the root searches
    one move per orbit of its automorphisms."""
    budget = _Budget(opts.node_limit)
    spend = budget.spend
    use_es, use_lemma22 = opts.use_es_certificate, opts.use_lemma22
    maker_memo: dict = {}
    breaker_memo: dict = {}

    def maker_wins_moving(masks, root=False) -> bool:
        if not masks:
            return False
        won = maker_memo.get(masks)
        if won is not None:
            return won
        spend()
        if masks[0].bit_count() == 1:
            won = True
        elif use_es and _es_below_half(masks):
            won = False
        else:
            forced = _lemma22_vertex(masks) if use_lemma22 else None
            cands = [1 << forced] if forced is not None else _ordered_bits(masks)
            if root:
                cands = _one_per_orbit(cands, lambda: _vertex_orbits(board))
            won = False
            # No residual is a singleton, so none can be emptied by the claim.
            for bit in cands:
                if maker_wins_waiting(_maker_claim(masks, bit)):
                    won = True
                    break
        maker_memo[masks] = won
        return won

    def maker_wins_waiting(masks, root=False) -> bool:
        won = breaker_memo.get(masks)
        if won is not None:
            return won
        spend()
        # Singletons sort first: two of them are a double threat, one forces
        # Breaker's reply.
        if masks[0].bit_count() != 1:
            cands = _ordered_bits(masks)
        elif len(masks) > 1 and masks[1].bit_count() == 1:
            cands = ()
        else:
            cands = [masks[0]]
        if root:
            cands = _one_per_orbit(cands, lambda: _vertex_orbits(board))
        won = True
        for bit in cands:
            if not maker_wins_moving(_breaker_claim(masks, bit)):
                won = False
                break
        breaker_memo[masks] = won
        return won

    if not canon:
        return Side.B, 0
    try:
        won = (maker_wins_moving if maker_moves else maker_wins_waiting)(
            canon, board is not None
        )
    except _Exhausted:
        return None, budget.count
    finally:
        # The two functions refer to each other: unbinding them breaks the
        # cycle, so the memos are freed now, not at a later collection.
        del maker_wins_moving, maker_wins_waiting
    return (Side.A if won else Side.B), budget.count


def solve_winner(p: Position, opts: MBOptions | None = None) -> Side | None:
    """Game value from an arbitrary position (None only on node-limit
    exhaustion).  Used by tests and the strategy tooling; certificates are
    the business of :func:`solve_mb`."""
    canon = _residuals(p.board, p.a_mask, p.b_mask)
    if canon is None:
        return Side.A
    return _search(canon, p.to_move() is Side.A, opts or MBOptions())[0]


def solve_mb(
    h: Hypergraph, first_mover: Side = Side.A, opts: MBOptions | None = None
) -> SolveReport:
    """Decide the Maker-Breaker game on ``h`` with the designated first
    mover.  The verdict is exact for every option combination; options only
    select which shortcut certificates may be attached.  A verdict that the
    search decides carries no certificate; so does a Lemma 21 reduction
    whose reduced board the search decides, since a ``reduction``
    certificate always carries the reduced board's own."""
    opts = opts or MBOptions()
    start = time.perf_counter()

    def report(winner, nodes, cert=None, exhausted=False):
        ms = int((time.perf_counter() - start) * 1000)
        return SolveReport(winner, first_mover, nodes, ms, cert, exhausted)

    if not h.edges:
        return report(Side.B, 0, Certificate("all_blocked", {}))

    if first_mover is Side.A:
        for idx, e in enumerate(h.edges):
            if len(e) == 1:
                return report(
                    Side.A, 0, Certificate("completed_edge", {"edge": idx, "vertex": e[0]})
                )

    if opts.use_pairing_certificate:
        pr = find_pairing(h)
        if pr is not None:
            payload = {
                "pairs": [list(p) for p in pr.pairs],
                "edge_cover": {k: list(v) for k, v in pr.edge_cover.items()},
            }
            return report(Side.B, 0, Certificate("pairing", payload))

    if opts.use_lemma21:
        reduced, pairs = reduce_lemma21(h)
        if pairs:
            # Breaker answers inside each dropped pair, and the reduced
            # board's edges are edges of h: either side's win carries over.
            sub = solve_mb(reduced, first_mover, opts)
            cert = None
            if sub.winner is Side.B and sub.certificate:
                payload = {
                    "pairs": [list(p) for p in pairs],
                    "sub_certificate": {
                        "kind": sub.certificate.kind,
                        "payload": sub.certificate.payload,
                    },
                }
                cert = Certificate("reduction", payload)
            return report(sub.winner, sub.nodes_expanded, cert, sub.exhausted)

    if first_mover is Side.A and opts.use_es_certificate:
        pot = es_potential(Position(h))
        if pot < Fraction(1, 2):
            return report(
                Side.B, 0, Certificate("erdos_selfridge", {"potential": str(pot)})
            )

    winner, nodes = _search(_residuals(h, 0, 0), first_mover is Side.A, opts, h)
    return report(winner, nodes, exhausted=winner is None)
