"""Exhaustive adversarial verification of scripted Maker strategies.

``verify_maker_strategy`` plays every opponent line against a strategy
tree and reports the first defect it finds instead of raising, so a broken
script always comes back as a ``Counterexample``.  Opponent moves that no
active layer can still react to are grouped into equivalence classes and
only one representative per class is explored: its lowest free member, so
the replies are played in ascending vertex order without walking every
free vertex.  Which classes still have a free member is folded into the
memo key as a profile so the pruning stays exact.  A class of one vertex
shows as that vertex's bit, so all of them come from one mask AND; each
larger class has one flag bit above the real vertices, in the order the
node's ``_Dispatch`` record lists the classes.  The record is built once
per (stack, node), at the node's first visit on the stack, so the flag
bits are a fixed bijection with the classes there, and a memo key starts
with the record, which names its stack and node: two keys with the same
profile have the same classes free.  A key looked up in a representative
stack's frame (below) starts with the representative's record and takes
its profile over the representative's own classes at the node, the
bijection the representative's own keys use.

A layer's ``answers`` pair the opponent's move on a vertex with a Maker
claim of its partner, as a pairing strategy does (Hefetz, Krivelevich,
Stojaković & Szabó, *Positional Games*, 2014).  At every opponent node,
``Respond`` and ``_BWAfter`` alike, the replies outside the relevance
skip each member of the stack's inert pairs (``_Stack.pairs``, see
``_inert_pairs``) whose partner is free too, unless nothing else is left
to play, so a board that only such pairs keep open still fails as
exhausted.  A member whose partner is taken stays a reply: the
opponent's move there is not answered, so it is no exchange.  The memo
key does not change: its profile still shows every free member.  A pair
{v, a} is inert when the stack answers v with a and a with v, marking no
layer, and answers no third vertex with either, neither lies in the real
image I of the innermost board, and every ``on_win`` continuation on the
stack finishes (see ``_finishes``), one whose claims meet the pair
claiming exactly v and a.  This is exact.  Let X be a state at the node
with v and a free, and X' its child after the opponent's v and Maker's
answer a, which returns to the node.  X' is no worse for Maker than X.
Every line from X' is one from X with the two stones added; no layer
sees them, so both dispatch every move alike.  No script on the stack or
inside it and no bounded-win search claims or branches on a vertex
outside I, and no other reply is answered with v or a.  A continuation
of a layer on the stack runs outside it but ends the line at Maker's
next claim, so no script after it reads v or a either; one that may take
v or a runs only once Maker holds its edge's real image, where, by
finishing, Maker's a already completes a real edge, so in X' Maker has
won by then.  So a Breaker stone on v only ends edges that Maker could
not complete, the stone on a only helps Maker, and where X' runs out of
board X has only v and a left, after which its line runs out too.  By
induction on the free vertices, when every other reply succeeds at X it
succeeds at X' with the exchange added, so X' succeeds, and so does the
mirror exchange after a; X succeeds exactly when its other replies do.
Every move takes a vertex, so no line on a board of at most
``_LINE_LIMIT`` vertices meets the line limit; a larger board marks no
pair, since an exchange the rule skips may be what takes a line past it.

A finishing ``on_win`` continuation (see ``_finishes``; each is
classified once per stack, in its ``wins`` table) that runs on the root
stack is decided without expanding it while at least two of the
vertices its claim may take are free and the line has room for two more
moves (see ``_Machine._finish``); otherwise it is expanded, so every
failure and every counterexample comes from the expansion.  This is
exact.  Maker holds the completed edge, so each of those vertices
completes a real edge.  The root stack resolves every real reply to
itself and answers none, so the continuation's ``Respond`` hands every
reply to its default, and the opponent gets no second move before Maker
claims.  One reply takes at most one of two free vertices, so the claim
of the first free vertex completes an edge on every line, and the node
succeeds.  Its expansion would count the node as one line, reach two
moves deeper than the node, and store a success that only this node's
key can read.  The decision counts the node as one line, records the
same depth and stores nothing, so no verdict, counterexample or depth
changes: a later visit to the same key holds as many moves and is
decided again.  Only the line count drops, by the claims not played.

On every stack, at a ``Respond`` node whose replies are played one by
one (not the stone-free pass below), of the replies of one group in the
node record's ``repeats`` that lie outside the bounded-win relevance
``rel`` of the innermost Maker mask and k (see ``_Machine._bw_entry``)
only the lowest is played.  ``repeats`` lists the groups whose replies
go to ``BoundedWin(k)``: each group of a branch, or of what the branches
leave, whose child is one, and, under such a default, each dynamic group
whose members agree on their visible effects (their marks on the layers
whose claim masks enter the key), once its home is taken.  Answered
replies stay out: each is a Maker claim.  This is exact.  None of these
replies changes a Maker mask, so ``rel`` is the same after each, and a
group's members mark the stateful layers alike (a dynamic group's
members pass once its home is taken), so all of them call
``_expand_bw`` with one key (k, stack, sig, ra & rel, rb & rel).  The
lowest, v, runs first.  If it fails, the turn fails with it, before any
later one.  Otherwise the key holds a success, so every later one would
be a memo hit, which counts no line.  Each pushes the line to the same
length as v, so ``max_depth`` and the line-limit check agree too.  A
dynamic group's members agree whenever no layer outside the innermost
keeps state, as on every shipped stack; otherwise two of them may mark
an outer layer at different coordinates and reach different keys.
While the home is free they count as the home, which a branch may
handle.  That bounded-win key and an opponent node's, (record, sig, ra
& rel, rb & rel, profile), are both five entries long but never equal:
one starts with the int k, the other with a ``_Dispatch`` record, which
equals only itself.

A line's layer state is the innermost active layer stack, interned as one
object per distinct stack, plus a tuple of per-layer (Maker, opponent)
claim masks.  Layers are data, which the verifier checks where a layer is
entered and resolves itself: an embedding, whose inverse gives the layer
vertex an opponent move counts as, answers, a constant relevance mask and
dynamic groups, which map parent vertices to a home: a move on one counts
as the home while the home is free and is a pass once it is taken.  A
move that no active layer sees is a pass too.  A ``Respond`` node hands a
pass to its default; without one the pass is an uncovered reply.
Everything that depends only on the stack (how each real vertex
resolves, the layers' fixed relevance, the real images of the innermost
board's edges) is built from the parent stack's tables when the stack is
interned, so a malformed layer fails on the line that enters it.  Caches
keyed by a vertex, a node or a claim mask fill on first use.  One of them
holds the opponent nodes' records: per node, its relevance, branch map,
reply groups and repeats (see ``_Dispatch``).  Another is the bucket
table of the reply classes, filled at the stack's first record: a node's
classes then come from the coordinates its branches name, not from every
real vertex (see ``_reply_buckets``).  Another is the claim table: per
innermost-board vertex, its real vertex, the bit it sets in each layer's
Maker mask, the real edges through it and the ``on_win`` edges through
its coordinate on each layer, so a Maker claim walks no embedding or
incidence list.  Every
Maker claim goes through ``_Machine._claim`` with such an entry, every
opponent turn starts at ``_Machine._expand_opponent`` and every opponent
move is played by ``_Machine._reply``.  A layer's answer is a claim
too, with the root stack's entry for its real vertex, which has no claim
bits and no ``on_win`` edges, so an answer marks no layer and fires no
``on_win`` continuation.  The last is the bounded-win table, per Maker
mask and move budget k: the relevance of a bounded-win state, which
bounds its memo key (the layers' fixed relevance, the members of each
dynamic group whose home the mask holds, and the real image of every
edge within k claims), and, per edge within reach, the needed vertices
as a mask, from which the claims are ordered by distance to a win, then
by vertex.

Sibling layers entered from the real board may share memo successes.  When
a layer is entered beside an earlier one on the same board, the verifier
derives the involution of the real board that swaps the two embeddings
and the vertices each layer's win edges have outside it.  It shares only
if both layers keep no state (see ``_stateful``) and the swap, with the
identity on the layers' common board, passes the one gate that also
accepts a symmetry at a stone-free node (below, ``_Machine._accept``),
with the later stack carried onto the earlier one rather than onto
itself: it maps each stack's resolution table and fixed relevance onto
the other's and, at the empty position, is an automorphism of the real
board that carries each win edge onto its partner.  An opponent node on
the stack entered later, or on a stack pushed on top of it, then also
looks its key up under the earlier stack's, with its masks and reply
profile mapped through the swap, and succeeds at once on a success
there.  It files every result under its own key and nothing in the
earlier stack's frame, so a counterexample keeps its own coordinates and
reply order, and a stack that shares nothing is searched as before.

At an opponent node whose innermost board holds no stones (the root of a
Breaker-first script, or the first opponent turn in a freshly entered
layer) the replies are still explored in ascending order, but a reply w
is skipped when a derived permutation σ maps a reply u that is known to
succeed onto w and w's child is the σ-image of u's, reply classes compared
by vertex set (see ``_Machine._expand_stone_free``).  σ is one of the
innermost board's ``core.automorphism_generators`` that maps the
coordinate u dispatches on onto w's, lifted through each layer's
embedding and the member order of its dynamic groups, and fixing every
other vertex.  A skipped w counts as a succeeded reply too, so a chain
of generators covers a whole orbit.  The generators are asked for lazily,
at the first reply that has a known success before it, and
``core.automorphism_generators`` builds them once per board value per
process: gamma, gamma-prime and g4 share one pentagon board, so their
stone-free nodes, and the mutants', share one build.
The candidate is not trusted: σ is
used only if ``core.is_automorphism`` confirms it is an automorphism of
the innermost board, it maps u onto w on the real board, fixes the real
and every layer's claim masks, is an automorphism of the real board once
the state's Maker stones are taken off every edge, and maps the stack's
resolution table (which names each group member's home), fixed
relevance, ``win_edges`` and ``on_win`` continuations onto themselves
(see ``_Machine._accept``, the gate the copy swap passes too).  This is
sound by monotonicity: an extra Maker stone never hurts Maker, so an
edge is won once its vertices outside Maker's stones are claimed, and a
residual automorphism that fixes the state maps every line after u, and
every win on it, onto a line after w and a win on it.  Every rule the
verifier applies commutes with σ, because σ maps its tables and both
scripts onto themselves.  That includes a group member's resolution: the
member's image belongs to the group at the image home, and since σ fixes
the claim masks that home is free exactly when the member's own is.  The
one exception is a choice of a lowest free vertex: the member that
stands for an out-of-relevance class.  In a pruned branch that member is
the σ-image of the one explored, a member of the image class, which the
relevance hint treats as interchangeable.  So w succeeds exactly when u
does.  Only replies that would succeed are skipped, so memo keys, the
copy sharing and every counterexample are unchanged.

``BoundedWin`` defaults are discharged by the machine's own search over
those tables; the tests compare it with a plain "Maker wins within k of
his own moves" search on raw positions.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

from ..core import Hypergraph, Side, automorphism_generators, is_automorphism, iter_bits
from .nodes import (
    BoundedWin,
    Claim,
    ClaimFirstFree,
    EnterLayer,
    Respond,
    StrategyTree,
    WinNow,
    is_conjugate,
)

__all__ = [
    "Counterexample",
    "VerificationReport",
    "verify_maker_strategy",
]

# Every move pushed onto the line is checked against the limit, not only
# one that sets a new ``max_depth``: a bounded-win search passes over a
# claim that fails the limit, and the next one at that depth must fail too.
_LINE_LIMIT = 200
_RECURSION_LIMIT = 20000


@dataclass(frozen=True)
class Counterexample:
    """A concrete line of play on which the strategy fails.

    ``kind`` is one of ``occupied_claim``, ``uncovered_reply``,
    ``leaf_without_win``, ``bounded_win_failure`` or ``ill_formed``;
    ``moves`` lists the real moves played so far as ("maker"|"breaker",
    vertex) pairs and ``detail`` pins down the defect.
    """

    kind: str
    moves: tuple
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    verified: bool
    lines_checked: int
    max_depth: int
    elapsed_ms: float
    counterexample: Counterexample | None = None


class _Fail(Exception):
    def __init__(self, cex: Counterexample):
        super().__init__(cex.kind)
        self.cex = cex


@dataclass(frozen=True, eq=False)
class _BWAfter:
    """Internal opponent node between searched bounded-win moves."""

    k: int


# one node per ``k``, so a memo key can name it by ``id``
_bw_after = functools.cache(_BWAfter)


class _Stack:
    """One stack of active layers, outermost first, and what is known about
    it independently of the claim masks.

    A line carries its layer state as the innermost ``_Stack`` plus one
    tuple of per-layer ``(va, vb)`` claim masks, outermost first.  The
    machine interns one object per distinct stack (``_Machine.stacks``), so
    the object itself names the layers in a memo key and every per-stack
    table is one of its attributes.  ``outers[i]`` is the stack that
    ``layers[i]`` is entered on.

    The tables that do not depend on the claim masks are built with the
    stack, from its parent's: ``table`` (see ``_layer_table``), ``edges``
    (the real image of each innermost-board edge), ``stateful`` (the
    indices of the layers whose claim masks enter the memo key),
    ``fixed_rel`` (the real image of every layer's relevance mask and
    residue) and ``homes``/``home_rel``: the mask of the innermost layer's
    dynamic-group homes, and per home the real mask of its members.
    The residue of a layer is the parent-board vertices of its win edges
    that lie outside it: completing a virtual edge only wins when its real
    counterpart is complete, so any extra vertices the real edge carries
    must stay in the memo key.
    ``_Machine._push`` checks the layer against the parent board before it
    builds the child, so a malformed layer fails on the line that enters
    it.  Only the caches keyed by a vertex, a node or a claim mask fill on
    first use: ``claims``, ``nodes`` (per opponent node id, its
    ``_Dispatch`` record on this stack, built by ``_Machine._dispatch`` at
    the node's first visit here), ``bw`` (per Maker mask and k,
    ``_Machine._bw_entry``) and ``buckets`` (see ``_reply_buckets``), which
    is None until the first record built on the stack.

    ``wins`` holds one dict per layer, outermost first: the parent's, then
    its own layer's, from each virtual edge with an ``on_win`` continuation
    to (continuation, real edge image from ``edges``, finishing claims from
    ``_finishes``), so each continuation is classified once per stack.

    ``pairs`` maps each member of the stack's inert pairs to its partner,
    as (shift, source mask) pairs built with the stack from ``table`` and
    ``wins`` (see ``_inert_pairs``): a free member whose partner is free
    too is a reply that ``_Machine._expand_opponent`` need not play while
    anything else is left.

    ``claims`` maps an innermost-board vertex to (real vertex, per-layer
    claim bits, masks of the real edges through it, ``on_win`` entries),
    the entry ``_Machine._claim`` takes.  The claim bits are what a Maker
    claim of the vertex ORs into each layer's Maker mask, outermost first.
    An ``on_win`` entry is (layer index, virtual edge mask, continuation,
    stack the continuation runs on, finishing claims or 0) for each edge
    through the vertex's coordinate on a layer that has a continuation
    for it, innermost layer first and in incidence order, read from
    ``wins``; the claims are 0 unless it runs on the root stack.  The
    vertex is range-checked when its entry is built.

    ``rep`` is the stack in whose frame this one also looks its
    opponent-node keys up (see the module docstring), never one that has a
    ``rep`` itself, and ``segs`` the automorphism carrying this stack onto
    it as (shift, source mask) pairs.

    A stack points only outwards: at ``outers``, at the stacks its
    ``on_win`` continuations run on, which enclose it, and at its ``rep``.
    It never points at itself or at a child, so the stacks are freed with
    the machine by reference counting.
    """

    __slots__ = (
        "board",
        "layer",
        "layers",
        "outers",
        "real",
        "stateful",
        "table",
        "buckets",
        "nodes",
        "claims",
        "fixed_rel",
        "homes",
        "home_rel",
        "edges",
        "wins",
        "pairs",
        "bw",
        "rep",
        "segs",
    )

    def __init__(self, board: Hypergraph, layer=None, parent: "_Stack | None" = None):
        self.board = board
        self.layer = layer
        self.homes = 0
        self.home_rel: dict = {}
        if parent is None:
            self.layers = self.outers = self.stateful = self.wins = ()
            self.real = tuple(range(board.vertex_count))
            self.fixed_rel = 0
            self.table = [("vertex", v, ()) for v in self.real]
        else:
            i = len(parent.layers)
            self.layers = parent.layers + (layer,)
            self.outers = parent.outers + (parent,)
            # real vertex of each vertex of ``board``
            self.real = tuple([parent.real[v] for v in layer.embed])
            image = sum(1 << v for v in layer.embed)
            residue = 0
            parent_edges = parent.board.edge_masks
            for pe in layer.win_edges.values():
                residue |= parent_edges[pe]
            self.stateful = parent.stateful + ((i,) if _stateful(layer) else ())
            rel = image if layer.relevance is None else layer.relevance
            self.fixed_rel = parent.fixed_rel | parent.to_real(rel | residue & ~image)
            for v, home in layer.dynamic_groups.items():
                self.homes |= 1 << home
                self.home_rel[home] = self.home_rel.get(home, 0) | 1 << parent.real[v]
            self.table = _layer_table(parent, layer)
        self.edges = tuple([self.to_real(mask) for mask in board.edge_masks])
        if parent is not None:
            real = self.outers[0].board
            own = {}
            for e, cont in layer.on_win.items():
                edge = self.edges[e]
                own[e] = (cont, edge, _finishes(cont, parent, edge, real))
            self.wins = parent.wins + (own,)
        self.pairs = _inert_pairs(self)
        self.buckets = None
        self.nodes: dict = {}
        self.claims: dict = {}
        self.bw: dict = {}
        self.rep = None
        self.segs = None

    def to_real(self, mask: int) -> int:
        """Map a mask on ``board`` to the real board."""
        return _image(self.real, mask)


def _layer_table(parent: _Stack, layer) -> list:
    """Per real vertex, how the layers of ``parent`` and then ``layer``
    resolve an opponent claim: ``parent.table`` continued through ``layer``,
    where a parent vertex is answered, joins a dynamic group or, in that
    order of precedence, is the layer vertex that ``embed`` places on it.

    Entries are ("answer", real reply, effects), ("pass", effects),
    ("vertex", innermost vertex, effects) or ("dyn", home, effects);
    ``effects`` lists the (layer index, layer-board vertex) marks recorded
    along the walk.  ``parent`` has no ``dyn`` entry: ``_Machine._push``
    refuses a layer on top of one.
    """
    fi = len(parent.layers)
    dyn = layer.dynamic_groups
    coords = {p: c for c, p in enumerate(layer.embed)}
    entries = []
    for entry in parent.table:
        if entry[0] == "vertex":
            _kind, coord, effects = entry
            ans = layer.answers.get(coord)
            if ans is not None:
                entry = ("answer", parent.real[ans], effects)
            elif coord in dyn:
                entry = ("dyn", dyn[coord], effects)
            elif coord in coords:
                c = coords[coord]
                entry = ("vertex", c, effects + ((fi, c),))
            else:
                entry = ("pass", effects)
        entries.append(entry)
    return entries


def _reply_buckets(table: list, stateful: tuple) -> tuple:
    """The node-independent part of ``_Machine._dispatch``: the real
    vertices bucketed by how they resolve statically, with their effects
    on the layers whose indices are in ``stateful`` (the visible effects).

    Returns (by_coord, fallback, answers, union, dyn).  ``by_coord`` maps
    an innermost coordinate to a dict from visible effects to the mask of
    each vertex class that resolves onto it, ``fallback`` maps visible
    effects to the mask of every vertex and pass class with them,
    ``answers`` lists the masks that share visible effects and an answered
    real vertex, ``union`` the mask of every class per visible effect and
    ``dyn`` lists (home, member mask, visible effects) per dynamic group,
    by home, with None for effects on which the members disagree.
    """
    by_coord: dict = {}
    fallback: dict = {}
    answers: dict = {}
    union: dict = {}
    dyn: dict = {}
    for rv, entry in enumerate(table):
        kind, bit, effects = entry[0], 1 << rv, entry[-1]
        visible = tuple([e for e in effects if e[0] in stateful]) if effects else ()
        if kind == "dyn":
            mask, seen = dyn.get(entry[1], (0, visible))
            dyn[entry[1]] = (mask | bit, visible if seen == visible else None)
            continue
        union[visible] = union.get(visible, 0) | bit
        if kind == "answer":
            key = (visible, entry[1])
            answers[key] = answers.get(key, 0) | bit
            continue
        fallback[visible] = fallback.get(visible, 0) | bit
        if kind == "vertex":
            classes = by_coord.setdefault(entry[1], {})
            classes[visible] = classes.get(visible, 0) | bit
    dyn_groups = tuple((home, *dyn[home]) for home in sorted(dyn))
    return by_coord, fallback, tuple(answers.values()), tuple(union.values()), dyn_groups


@dataclass(eq=False, slots=True)
class _Dispatch:
    """What an opponent node needs on one layer stack beyond the claim
    masks (see ``_Machine._dispatch``), kept in ``_Stack.nodes``.  An
    opponent memo key starts with it and so names the stack and the node:
    a record equals only itself.

    ``rel`` is the real mask of the node's relevance and the stack's
    ``fixed_rel`` (0 at a ``_BWAfter`` node), ``branches`` maps an
    innermost coordinate to the first branch that names it, ``singles``
    and ``groups`` are the reply groups, and ``repeats`` lists (k, member
    mask, home bit) per group of two or more members whose replies go to
    ``BoundedWin(k)``, with the home of a dynamic group, else 0 (see the
    module docstring).
    """

    rel: int
    branches: dict
    singles: int
    groups: tuple
    repeats: tuple


def _resolve_dyn(masks: tuple, entry):
    """The entry a ``dyn`` entry resolves to at the innermost layer's claim
    masks: ("vertex", home, ...) while the home is free there, otherwise
    ("pass", effects)."""
    _kind, home, effects = entry
    va, vb = masks[-1]
    if (va | vb) >> home & 1:
        return ("pass", effects)
    return ("vertex", home, effects + ((len(masks) - 1, home),))


def _inert_pairs(stack: _Stack) -> tuple:
    """The pairs whose replies ``stack``'s opponent nodes need not play
    while both members are free (see the module docstring), from
    ``stack.table`` and ``stack.wins``, as the map from each member to its
    partner in ``_segments`` form; empty on a real board with more
    vertices than the line limit.

    A pair is two real vertices v and a outside the real image of the
    innermost board that the table answers with each other, marking no
    layer, and with no third vertex.  Every ``on_win`` continuation in
    ``wins`` must finish (see ``_finishes``), and one whose claims meet
    the pair must claim exactly the pair.
    """
    if not any(layer.answers for layer in stack.layers):
        return ()
    if stack.outers[0].board.vertex_count > _LINE_LIMIT:
        return ()
    claims = set()
    for own in stack.wins:
        for _cont, _edge, got in own.values():
            if not got:
                return ()
            claims.add(got)
    table = stack.table
    answering: dict = {}  # real vertex -> how many vertices it answers
    for entry in table:
        if entry[0] == "answer":
            answering[entry[1]] = answering.get(entry[1], 0) + 1
    image = stack.to_real(stack.board.full_mask)
    partner: dict = {}
    for v, entry in enumerate(table):
        a = entry[1]
        if entry != ("answer", a, ()) or table[a] != ("answer", v, ()):
            continue
        pair = 1 << v | 1 << a
        if pair & image or answering[v] != 1 or answering[a] != 1:
            continue
        if all(got == pair or not got & pair for got in claims):
            partner[a - v] = partner.get(a - v, 0) | 1 << v
    return tuple(sorted(partner.items()))


def _finishes(cont, outer: _Stack, edge: int, real: Hypergraph) -> int:
    """The real vertices an ``on_win`` continuation that runs on ``outer``
    may claim, when it ends the line at Maker's next claim once Maker holds
    the edge mask ``edge`` of the real board ``real``, whatever the
    opponent plays; else 0.

    Such a continuation is finishing: a ``Respond`` without branches, with
    no relevance mask or one on ``outer``'s board, whose default claims,
    with nothing after it, one or more vertices that each complete a real
    edge inside ``edge`` and the vertex itself.  The line then fails only
    when every such vertex is taken, which a move off them does not change.
    Its one caller is ``_Stack``, which files the result in ``wins``.
    ``_inert_pairs`` reads it there, since a pair is inert only while
    every continuation finishes and none takes one vertex of it alone, and
    ``_Machine._claim_entry`` to hand one on the root stack to
    ``_Machine._finish``, which decides it while two of these vertices are
    free (see the module docstring)."""
    if type(cont) is not Respond or cont.branches:
        return 0
    if cont.relevance is not None and cont.relevance >> len(outer.real):
        return 0
    claim = cont.default
    if isinstance(claim, Claim):
        vertices = (claim.vertex,)
    elif isinstance(claim, ClaimFirstFree):
        vertices = claim.vertices
    else:
        return 0
    if claim.then is not None or _off(vertices, len(outer.real)):
        return 0
    claims = 0
    for c in vertices:
        u = outer.real[c]
        inside = edge | 1 << u
        if not any(real.edge_masks[f] & ~inside == 0 for f in real.incidence[u]):
            return 0
        claims |= 1 << u
    return claims


def _held_rel(stack: _Stack, va: int) -> int:
    """The real members of each of ``stack``'s dynamic groups whose home
    the innermost Maker mask ``va`` holds."""
    rel = 0
    for c in iter_bits(va & stack.homes):
        rel |= stack.home_rel[c]
    return rel


def _stateful(layer) -> bool:
    """Whether ``layer``'s claim masks must enter the memo key.

    They need not when every virtual claim is the image of a real claim
    the key already holds and nothing else reads them: the layer has no
    dynamic groups, ``on_win`` or ``answers``.
    """
    return bool(layer.dynamic_groups or layer.on_win or layer.answers)


def _off(values, size: int) -> bool:
    """Whether any of ``values`` is not a vertex of a ``size``-vertex board."""
    return any(not 0 <= v < size for v in values)


def _board_name(stack: _Stack) -> str:
    return "the board" if stack.layer is None else f"layer {stack.layer.name!r}"


class _Machine:
    def __init__(self, h: Hypergraph):
        self.h = h
        self.full = h.full_mask
        self.edge_masks = h.edge_masks
        self.incidence = h.incidence
        self.path: list = []
        self.expansions = 0
        self.max_depth = 0
        self.memo: dict = {}
        self.root = _Stack(h)
        # (parent stack, layer) -> the interned stack, in creation order
        self.stacks: dict = {}
        # the profile bit of a stack's first multi-member reply group
        self.group_bit = 1 << h.vertex_count

    # ------------------------------------------------------------------
    # failures

    def _fail(self, kind: str, detail: str):
        raise _Fail(Counterexample(kind, tuple(self.path), detail))

    # ------------------------------------------------------------------
    # layer bookkeeping

    def _push(self, stack: _Stack, layer) -> _Stack:
        """The interned stack that enters ``layer`` on top of ``stack``.

        The layer is checked against ``stack``'s board, and the child's
        tables are built, when the child is first created, so a layer
        reused under another parent is checked again there.
        """
        key = (stack, layer)
        child = self.stacks.get(key)
        if child is None:
            self._check_layer(stack, layer)
            child = self.stacks[key] = _Stack(layer.board, layer, stack)
            if stack.rep is not None:
                child.rep = self._push(stack.rep, layer)
                child.segs = stack.segs
            elif stack is self.root:
                self._share(child)
        return child

    def _check_layer(self, stack: _Stack, layer):
        """Fail unless every field of ``layer`` fits ``stack``'s board and
        the layer's own, and ``stack`` leaves dynamic groups to it."""

        def bad(what: str):
            self._fail("ill_formed", f"layer {layer.name!r}: {what}")

        parent_n = stack.board.vertex_count
        n = layer.board.vertex_count
        embed = layer.embed
        if len(embed) != n:
            bad(f"embedding names {len(embed)} of {n} vertices")
        if _off(embed, parent_n):
            bad("embedding leaves the parent board")
        if len(set(embed)) != n:
            bad("embedding is not injective")
        if _off(layer.win_edges.values(), len(stack.board.edges)):
            bad("win edges leave the parent board")
        if _off(layer.win_edges, len(layer.board.edges)):
            bad("win edges name no edge of the layer board")
        if _off(layer.on_win, len(layer.board.edges)):
            bad("on_win names no edge of the layer board")
        if _off(layer.answers, parent_n) or _off(layer.answers.values(), parent_n):
            bad("answers leave the parent board")
        groups = layer.dynamic_groups
        if _off(groups, parent_n) or _off(groups.values(), n):
            bad("dynamic groups leave their boards")
        if layer.relevance is not None and layer.relevance >> parent_n:
            bad("relevance leaves the parent board")
        if any(entry[0] == "dyn" for entry in stack.table):
            self._fail(
                "ill_formed",
                f"layer {stack.layer.name!r}: state-dependent "
                "translation below another layer",
            )

    # ------------------------------------------------------------------
    # sibling symmetry

    def _share(self, child: _Stack):
        """Let ``child`` look its memo keys up in the frame of the first
        earlier child of the root whose layer it is checked to mirror.

        Neither stack may keep state (see ``_stateful``), so neither layer
        has dynamic groups, ``on_win`` or ``answers``.  ``_accept`` checks
        the swap ``_sibling_sigma`` derives for the two layers, with the
        identity on their common board, at the empty position, with
        ``child`` carried onto the sibling: the swap then maps each
        embedding onto the other and is an automorphism of the real board
        that maps each ``win_edges`` target onto its partner."""
        if child.stateful:
            return
        inner = range(child.board.vertex_count)
        for (parent, _layer), sibling in self.stacks.items():
            if parent is not self.root:
                continue
            if sibling is child:
                return
            if sibling.rep is not None or sibling.stateful:
                continue
            sigma = _sibling_sigma(self.h, child.layer, sibling.layer)
            if sigma is None:
                continue
            if self._accept(child, (sigma, inner), ((0, 0),), 0, 0, sibling) is not None:
                child.rep = sibling
                child.segs = _segments(sigma)
                return

    def _shared_key(self, key: tuple, stack: _Stack, node, out: int) -> tuple:
        """``key``, the memo key of opponent ``node`` on ``stack``, in its
        representative's frame, where ``_expand_opponent`` looks it up: it
        starts with the representative's record of ``node``, the claim
        masks are mapped onto the representative and the reply profile of
        the free out-of-relevance vertices ``out`` is taken over the
        representative's reply groups."""
        segs = stack.segs
        rep = stack.rep
        rec = rep.nodes.get(id(node)) or self._dispatch(rep, node)
        _rec, sig, a, b = key[:4]
        a, b = _apply_segments(segs, a), _apply_segments(segs, b)
        profile = 0
        if out:
            profile = self._profile(rec, _apply_segments(segs, out))[1]
        return (rec, sig, a, b, profile)

    def _enter(self, node, stack: _Stack, masks: tuple):
        """Push the layers of a run of ``EnterLayer`` nodes."""
        while isinstance(node, EnterLayer):
            stack = self._push(stack, node.layer)
            masks += ((0, 0),)
            node = node.then
        return node, stack, masks

    # ------------------------------------------------------------------
    # reply classes

    def _dispatch(self, stack: _Stack, node) -> _Dispatch:
        """Build ``stack.nodes[id(node)]``, the ``_Dispatch`` record of
        opponent ``node`` on ``stack``, at the node's first visit there;
        fail when a ``Respond`` node's relevance leaves the innermost board.

        The relevance is the node's own in real coordinates, else the whole
        board on the root stack and nothing on a layer stack, with the
        stack's ``fixed_rel``.  The reply groups are the merged
        out-of-relevance reply classes: ``singles``, the mask of the real
        vertices that form a group on their own, and ``groups``, the member
        masks of the other groups, which together cover every real vertex,
        disjointly.  Replies with equal visible effects and equal handling
        are interchangeable, so each group contributes one representative;
        dynamic groups are kept apart since their handling resolves per
        state.

        A ``_BWAfter`` node handles every reply alike, so its groups are
        the stack's ``union`` buckets (see ``_reply_buckets``).  At a
        ``Respond`` node each answered real vertex is handled on its own,
        and a vertex class by the branch its coordinate falls in, else
        like a pass.  So the node's groups are the ``answers`` buckets,
        the vertex classes of each coordinate its branch map names, merged
        per (visible effects, branch), and what that leaves of each
        ``fallback`` bucket: the cost is in the coordinates the branches
        name, not in the classes of the stack.  The groups come in that
        order, then the dynamic groups by home; the order only fixes which
        profile bit each group takes (see ``_profile``).  The ``repeats``
        are the branch and ``fallback`` groups whose child is a
        ``BoundedWin`` and, when the default is one, the dynamic groups
        whose members agree on their visible effects.
        """
        buckets = stack.buckets
        if buckets is None:
            buckets = stack.buckets = _reply_buckets(stack.table, stack.stateful)
        by_coord, fallback, answers, union, dyn = buckets
        branches: dict = {}
        repeats: tuple = ()
        if type(node) is _BWAfter:
            rel = 0
            masks = union
        else:
            rel = node.relevance
            if rel is None:
                rel = 0 if stack.layers else self.full
            elif rel >> stack.board.vertex_count:
                self._fail("ill_formed", f"node relevance leaves {_board_name(stack)}")
            else:
                rel = stack.to_real(rel)
            rel |= stack.fixed_rel
            for idx, (cls, _child) in enumerate(node.branches):
                for c in cls.vertices:
                    branches.setdefault(c, idx)
            rest = dict(fallback)
            merged: dict = {}
            for c, idx in branches.items():
                for visible, mask in by_coord.get(c, {}).items():
                    rest[visible] &= ~mask
                    key = (visible, idx)
                    merged[key] = merged.get(key, 0) | mask
            default = node.default
            handled = [(node.branches[idx][1], mask, 0) for (_v, idx), mask in merged.items()]
            handled += [(default, mask, 0) for mask in rest.values()]
            handled += [(default, mask, 1 << c) for c, mask, seen in dyn if seen is not None]
            repeats = tuple(
                (child.k, mask, home)
                for child, mask, home in handled
                if isinstance(child, BoundedWin) and mask & (mask - 1)
            )
            masks = (*answers, *merged.values(), *rest.values())
        singles = 0
        groups = []
        for mask in (*masks, *(mask for _home, mask, _visible in dyn)):
            if mask & (mask - 1):
                groups.append(mask)
            else:
                singles |= mask
        got = stack.nodes[id(node)] = _Dispatch(rel, branches, singles, tuple(groups), repeats)
        return got

    def _profile(self, rec: _Dispatch, out: int):
        """(replies, profile) for the free out-of-relevance vertices ``out``
        at the node and stack of ``rec``: the lowest member of each group
        that meets ``out``, and which groups those are.  A single-vertex
        group is its own vertex bit; the other groups take one bit each
        above the real vertices, in the order of ``rec.groups``.  So the
        profile is 0 exactly when ``out`` is.

        That order is arbitrary but fixed when the record is built, so each
        group keeps its bit for the whole run, and the memo key starts with
        the record: equal profiles mean the same groups meet ``out``.
        ``_shared_key`` calls this with the representative stack's record,
        so a key looked up there carries the representative's own bit for
        each of its groups."""
        profile = replies = out & rec.singles
        bit = self.group_bit
        for mask in rec.groups:
            members = mask & out
            if members:
                replies |= members & -members
                profile |= bit
            bit <<= 1
        return replies, profile

    # ------------------------------------------------------------------
    # relevance

    def _bw_entry(self, stack: _Stack, va: int, k: int):
        """Bounded-win data for Maker mask ``va`` on the innermost board,
        cached per (``va``, ``k``) in ``stack.bw``.

        Returns (rel, levels).  ``rel`` is the relevance of every
        bounded-win state with these masks: ``stack.fixed_rel``, the real
        members of each dynamic group whose home ``va`` holds, and the real
        image of every edge within ``k`` of completion, killed or not:
        opponent stones that rule such an edge out and Maker stones that
        brought it within reach must both stay inside the memo key, so
        neither occupancy mask filters it.  ``levels[u - 1]`` lists (edge
        mask, needed vertex mask) for the edges that need exactly ``u``
        more claims, in board order, for u = 1..k.
        """
        key = (va, k)
        got = stack.bw.get(key)
        if got is None:
            rel = stack.fixed_rel | _held_rel(stack, va)
            levels: list = [[] for _ in range(k)]
            for mask, real in zip(stack.board.edge_masks, stack.edges):
                needed = mask & ~va
                u = needed.bit_count()
                if u > k:
                    continue
                rel |= real
                if u:
                    levels[u - 1].append((mask, needed))
            got = stack.bw[key] = (rel, tuple(map(tuple, levels)))
        return got

    # ------------------------------------------------------------------
    # Maker moves

    def _claim_entry(self, stack: _Stack, v: int):
        """Build ``stack.claims[v]`` (see ``_Stack``)."""
        if not 0 <= v < stack.board.vertex_count:
            self._fail(
                "ill_formed",
                f"strategy claims vertex {v}, which is not on {_board_name(stack)}",
            )
        layers = stack.layers
        bits = [0] * len(layers)
        wins = []
        c = v
        for i in range(len(layers) - 1, -1, -1):
            layer = layers[i]
            bits[i] = 1 << c
            own = stack.wins[i]
            if own:
                board = layer.board
                outer = stack.outers[i]
                for e in board.incidence[c]:
                    if e in own:
                        cont, _edge, claims = own[e]
                        claims = claims if outer is self.root else 0
                        wins.append((i, board.edge_masks[e], cont, outer, claims))
            c = layer.embed[c]
        edges = tuple([self.edge_masks[e] for e in self.incidence[c]])
        entry = stack.claims[v] = (c, tuple(bits), edges, tuple(wins))
        return entry

    def _claim(self, entry, stack: _Stack, masks: tuple, ra: int, rb: int, then):
        """Claim the vertex of ``entry``, its claim-table entry on ``stack``
        (see ``_Stack``), for Maker and continue.

        This is the one place a Maker move joins the line.  It records the
        claim on every active layer, checks real then virtual edge
        completion (innermost first), fires ``on_win`` continuations in the
        owning layer's parent context, through ``_finish`` when the entry
        carries finishing claims, and otherwise proceeds to ``then`` at the
        opponent's turn.  An entry without claim bits, the root
        stack's, leaves ``masks`` as they are: that is how a layer's answer
        comes here (see ``_reply``).
        """
        rv, bits, edges, wins = entry
        if (ra | rb) >> rv & 1:
            self._fail("occupied_claim", f"strategy claims occupied vertex {rv}")
        if bits:
            masks = tuple([(va | bit, vb) for (va, vb), bit in zip(masks, bits)])
        ra_new = ra | (1 << rv)
        path = self.path
        path.append(("maker", rv))
        self.expansions += 1
        if len(path) > self.max_depth:
            self.max_depth = len(path)
        try:
            if len(path) > _LINE_LIMIT:
                self._fail("ill_formed", f"line exceeds {_LINE_LIMIT} real moves")
            for mask in edges:
                if mask & ~ra_new == 0:
                    if isinstance(then, WinNow):
                        self._win_now(then, stack, ra_new)
                    return
            for i, mask, cont, outer, claims in wins:
                if mask & ~masks[i][0] == 0:
                    if claims:
                        self._finish(cont, claims, outer, masks[:i], ra_new, rb)
                    else:
                        self._expand_opponent(cont, outer, masks[:i], ra_new, rb)
                    return
            if then is None:
                self._fail(
                    "leaf_without_win",
                    f"leaf claims vertex {rv} without completing an edge",
                )
            self._expand_opponent(then, stack, masks, ra_new, rb)
        finally:
            path.pop()

    def _finish(self, cont, claims: int, stack: _Stack, masks: tuple, ra: int, rb: int):
        """Decide the finishing ``on_win`` continuation ``cont`` on the root
        stack without expanding it while two of ``claims``, the real
        vertices its claim may take, are free and the line has room for a
        reply and that claim; else expand it.  The decision counts the node
        as one line and records the depth the expansion would reach (see the
        module docstring)."""
        free = claims & ~(ra | rb)
        depth = len(self.path) + 2
        if free & (free - 1) and depth <= _LINE_LIMIT:
            self.expansions += 1
            if depth > self.max_depth:
                self.max_depth = depth
            return
        self._expand_opponent(cont, stack, masks, ra, rb)

    def _maker_turn(self, node, stack: _Stack, masks: tuple, ra: int, rb: int):
        if isinstance(node, EnterLayer):
            node, stack, masks = self._enter(node, stack, masks)
        if isinstance(node, Claim):
            v = node.vertex
            entry = stack.claims.get(v) or self._claim_entry(stack, v)
            self._claim(entry, stack, masks, ra, rb, node.then)
        elif isinstance(node, ClaimFirstFree):
            for v in node.vertices:
                entry = stack.claims.get(v) or self._claim_entry(stack, v)
                if (ra | rb) >> entry[0] & 1:
                    continue
                self._claim(entry, stack, masks, ra, rb, node.then)
                return
            self._fail(
                "occupied_claim",
                f"no free vertex among {tuple(node.vertices)}",
            )
        elif isinstance(node, WinNow):
            self._win_now(node, stack, ra)
        elif isinstance(node, Respond):
            self._fail("ill_formed", "Respond node reached at Maker's turn")
        elif node is None:
            self._fail("leaf_without_win", "strategy ends at Maker's turn")
        else:
            self._fail("ill_formed", f"unknown node {type(node).__name__}")

    def _win_now(self, node: WinNow, stack: _Stack, ra: int):
        e = node.edge
        for layer in reversed(stack.layers):
            if e in layer.on_win:
                self._fail(
                    "ill_formed",
                    f"WinNow targets virtual edge {e} of layer {layer.name!r}",
                )
            if e in layer.win_edges:
                e = layer.win_edges[e]
            else:
                self._fail(
                    "ill_formed",
                    f"WinNow edge {node.edge} has no real counterpart",
                )
        if not 0 <= e < len(self.edge_masks):
            self._fail("ill_formed", f"WinNow edge {e} does not exist")
        missing = self.edge_masks[e] & ~ra
        if missing:
            self._fail(
                "leaf_without_win",
                f"WinNow edge {e} is missing vertices {sorted(iter_bits(missing))}",
            )

    # ------------------------------------------------------------------
    # opponent expansion

    def _expand_opponent(self, node, stack: _Stack, masks: tuple, ra: int, rb: int):
        """The opponent's turn at ``node``, the one entry to it: after a run
        of ``EnterLayer`` nodes, at a ``Respond`` or ``_BWAfter`` node, each
        reply goes to ``_reply``.

        The node's relevance is its record's ``rel`` with the real members
        of each dynamic group whose home the innermost Maker mask holds
        (``_held_rel``), or at a ``_BWAfter`` node the bounded-win
        relevance.  The replies outside it collapse to one per reply group
        (``_profile``), less each member of the stack's inert pairs whose
        partner is free too unless nothing else is left, and of each group
        in the record's ``repeats`` only the lowest reply outside the
        bounded-win relevance is played (see the module docstring)."""
        if isinstance(node, EnterLayer):
            node, stack, masks = self._enter(node, stack, masks)
        if not isinstance(node, (Respond, _BWAfter)):
            if node is None:
                self._fail("leaf_without_win", "strategy ends while the game is open")
            self._fail(
                "ill_formed",
                f"{type(node).__name__} node reached at the opponent's turn",
            )
        unclaimed = self.full & ~(ra | rb)
        if unclaimed == 0:
            self._fail("leaf_without_win", "board exhausted before Maker won")
        rec = stack.nodes.get(id(node)) or self._dispatch(stack, node)
        va, vb = masks[-1] if masks else (ra, rb)
        if type(node) is _BWAfter:
            rel = self._bw_entry(stack, va, node.k)[0]
        else:
            rel = rec.rel
            if stack.homes:
                rel |= _held_rel(stack, va)
        replies = unclaimed & rel
        out = unclaimed & ~rel
        profile = 0
        if out:
            collapsed, profile = self._profile(rec, out)
            if stack.pairs:
                # a free member of an inert pair whose partner is free too
                # is played only when nothing else is left
                inert = collapsed & _apply_segments(stack.pairs, unclaimed)
                if inert and (replies or inert != collapsed):
                    collapsed ^= inert
            replies |= collapsed
        sig = tuple([masks[i] for i in stack.stateful])
        key = (rec, sig, ra & rel, rb & rel, profile)
        got = self.memo.get(key)
        if got is True:
            return
        if got is not None:
            raise _Fail(Counterexample(got[0], tuple(self.path), got[1]))
        # a stack with a representative also looks its key up in that frame
        if stack.rep is not None:
            if self.memo.get(self._shared_key(key, stack, node, out)) is True:
                return
        self.expansions += 1
        try:
            if type(node) is Respond and not va | vb:
                self._expand_stone_free(node, stack, masks, ra, rb, replies)
            else:
                for k, mask, home in rec.repeats:
                    same = replies & mask
                    if same & (same - 1) and not home & ~(va | vb):
                        same &= ~self._bw_entry(stack, va, k)[0]
                        # keep the lowest: the others repeat its key
                        replies ^= same & (same - 1)
                table = stack.table
                for v in iter_bits(replies):
                    self._reply(node, stack, masks, ra, rb, v, table[v])
        except _Fail as fail:
            self.memo[key] = (fail.cex.kind, fail.cex.detail)
            raise
        self.memo[key] = True

    def _expand_stone_free(self, node, stack, masks, ra, rb, replies: int):
        """Explore the replies at an opponent node whose innermost board
        holds no stones, in ascending order, skipping each reply ``w`` that
        an accepted generator maps a reply ``u`` known to succeed onto.

        The candidates are the innermost board's
        ``core.automorphism_generators``: a generator ``g`` is one for ``u``
        and ``w`` when it maps the coordinate ``u`` dispatches on onto
        ``w``'s, and ``_accept`` checks each generator's lift (see
        ``_lift``) at most once here.
        ``w`` is covered when the lift of an accepted ``g`` maps ``u`` onto
        ``w`` on the real board and ``w``'s child is the ``g``-image of
        ``u``'s (``is_conjugate``); ``w`` is then known to succeed as well.
        ``done`` keeps the covered replies beside the searched ones, so a
        chain of generators covers a whole orbit.  A reply that passes, is
        answered or reaches no child has no coordinate or child to compare
        and is always searched.  The innermost board holds no stones, so
        every dynamic group's home is free and each member dispatches on
        it.  The generators are asked for at the first reply with a reply
        in ``done`` before it, so a node that fails before then pays
        nothing for them; ``core.automorphism_generators`` builds them once
        per board value per process and returns fresh lists.
        """
        table = stack.table
        board = stack.board
        branch_map = stack.nodes[id(node)].branches
        gens = None
        lifts: dict = {}  # index in gens -> its lift if accepted here, else None
        done: dict = {}  # reply known to succeed -> (coordinate, child)
        for w in iter_bits(replies):
            entry = table[w]
            if entry[0] == "dyn":
                entry = _resolve_dyn(masks, entry)
            child = None
            if entry[0] == "vertex":
                branch = branch_map.get(entry[1])
                child = node.default if branch is None else node.branches[branch][1]
            if child is None:
                self._reply(node, stack, masks, ra, rb, w, table[w])
                continue
            coord = entry[1]
            if done and gens is None:
                gens = automorphism_generators(board)
            covered = False
            for u, (c, child_u) in done.items():
                for i, g in enumerate(gens):
                    if g[c] != coord:
                        continue
                    if i not in lifts:
                        perms = _lift(stack, g)
                        lifts[i] = perms and self._accept(stack, perms, masks, ra, rb)
                    perms = lifts[i]
                    if (
                        perms is not None
                        and perms[0][u] == w
                        and is_conjugate(child_u, child, g, board)
                    ):
                        covered = True
                        break
                if covered:
                    break
            if not covered:
                self._reply(node, stack, masks, ra, rb, w, table[w])
            done[w] = (coord, child)

    def _accept(self, stack: _Stack, perms, masks: tuple, ra: int, rb: int, other=None):
        """``perms``, one permutation per board of ``stack`` with the real
        board first (as ``_lift`` builds them), if they carry every line
        played under ``stack`` from the state (``masks``, ``ra``, ``rb``)
        onto the same line under ``other``, by default ``stack`` itself;
        else None.

        This is the one gate through which the verifier accepts a
        symmetry.  ``perms[-1]`` must be an automorphism of ``stack``'s
        innermost board, which ``other`` must share, and ``perms`` must pass
        ``_fits_stack`` and, at the state, ``_fits_state``.  The stone-free
        pass brings the lift of each of ``core.automorphism_generators``,
        checked here again so that the pruning trusts no search.  ``_share``
        brings the swap of two sibling copies, which ``_sibling_sigma``
        builds from pairs with no vertex in two of them, so it is an
        involution by construction."""
        if other is None:
            other = stack
        if other.board is not stack.board or not is_automorphism(stack.board, perms[-1]):
            return None
        if not _fits_stack(stack, perms, other):
            return None
        if not _fits_state(stack, perms, self.edge_masks, masks, ra, rb, other):
            return None
        return perms

    def _reply(self, node, stack: _Stack, masks: tuple, ra: int, rb: int, v: int, entry):
        """Play the opponent's move on real vertex ``v`` at ``node``, the
        one place an opponent move joins the line.  ``entry`` is ``v``'s
        entry in ``stack.table``; a ``dyn`` entry is resolved at ``masks``.
        A layer's answer is a Maker claim through ``_claim`` that goes back
        to ``node`` (see the module docstring), or a pass once it is taken.
        """
        path = self.path
        path.append(("breaker", v))
        if len(path) > self.max_depth:
            self.max_depth = len(path)
        try:
            if len(path) > _LINE_LIMIT:
                self._fail("ill_formed", f"line exceeds {_LINE_LIMIT} real moves")
            rb |= 1 << v
            kind = entry[0]
            if kind == "dyn":
                entry = _resolve_dyn(masks, entry)
                kind = entry[0]
            if entry[-1]:
                new = list(masks)
                for fi, coord in entry[-1]:
                    va, vb = new[fi]
                    new[fi] = (va, vb | 1 << coord)
                masks = tuple(new)
            if kind == "answer":
                ans = entry[1]
                if not (ra | rb) >> ans & 1:
                    claim = self.root.claims.get(ans) or self._claim_entry(self.root, ans)
                    self._claim(claim, stack, masks, ra, rb, node)
                    return
                kind = "pass"
            if type(node) is _BWAfter:
                self._expand_bw(node.k, stack, masks, ra, rb)
                return
            child = node.default
            if kind == "vertex":
                branch = stack.nodes[id(node)].branches.get(entry[1])
                if branch is not None:
                    child = node.branches[branch][1]
            if child is None:
                if kind == "vertex":
                    self._fail(
                        "uncovered_reply",
                        f"reply {entry[1]} matches no reply class and there is no default",
                    )
                self._fail(
                    "uncovered_reply",
                    f"real reply {v} is a pass and there is no default",
                )
            if isinstance(child, BoundedWin):
                self._expand_bw(child.k, stack, masks, ra, rb)
            else:
                self._maker_turn(child, stack, masks, ra, rb)
        finally:
            path.pop()

    # ------------------------------------------------------------------
    # bounded-win search

    def _expand_bw(self, k: int, stack: _Stack, masks: tuple, ra: int, rb: int):
        """Search for a Maker win within ``k`` own moves.

        Its memo key starts with the int ``k``, an opponent node's with a
        ``_Dispatch`` record, so the two never compare equal."""
        va, vb = masks[-1] if masks else (ra, rb)
        rel, levels = self._bw_entry(stack, va, k)
        sig = tuple([masks[i] for i in stack.stateful])
        key = (k, stack, sig, ra & rel, rb & rel)
        got = self.memo.get(key)
        if got is True:
            return
        if got is not None:
            raise _Fail(Counterexample(got[0], tuple(self.path), got[1]))
        self.expansions += 1
        then = _bw_after(k - 1) if k > 1 else None
        # A claim on a vertex occupied only in real coordinates fails in
        # ``_claim`` and is passed over.
        claims = stack.claims
        for v in _bw_claims(levels, vb):
            entry = claims.get(v) or self._claim_entry(stack, v)
            try:
                self._claim(entry, stack, masks, ra, rb, then)
            except _Fail:
                continue
            self.memo[key] = True
            return
        detail = f"no win within {k} Maker moves from here"
        self.memo[key] = ("bounded_win_failure", detail)
        self._fail("bounded_win_failure", detail)


def _bw_claims(levels, vb: int):
    """Bounded-win claims in order of distance to a win, then of vertex.

    ``levels`` is the second half of ``_Machine._bw_entry``.  A vertex's
    distance is the fewest further claims that an edge through it still
    needs; an edge the opponent holds a vertex of (in ``vb``) is dead.
    """
    seen = 0
    for level in levels:
        needed = 0
        for mask, vertices in level:
            if not mask & vb:
                needed |= vertices
        needed &= ~seen
        seen |= needed
        while needed:
            low = needed & -needed
            yield low.bit_length() - 1
            needed ^= low


def _lift(stack: _Stack, g) -> tuple | None:
    """``g``, a permutation of the innermost board, carried outwards layer
    by layer: a layer's parent vertex ``embed[c]`` goes to
    ``embed[g(c)]``, the members of the dynamic group at home ``h`` go, in
    the order ``dynamic_groups`` lists them, to those of the group at home
    ``g(h)``, and every other parent vertex stays put.  Returns the
    permutation of each board, real board first, or None when that is not
    a well-defined permutation."""
    perms = [list(g)]
    for i in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[i]
        sigma = perms[0]
        n = stack.outers[i].board.vertex_count
        embed = layer.embed
        p = list(range(n))
        placed = set(embed)
        for c, v in enumerate(embed):
            p[v] = embed[sigma[c]]
        by_home: dict = {}
        for v, home in layer.dynamic_groups.items():
            by_home.setdefault(home, []).append(v)
        for home, members in by_home.items():
            image = by_home.get(sigma[home])
            if image is None or len(image) != len(members):
                return None
            for a, b in zip(members, image):
                if a in placed and p[a] != b:
                    return None
                placed.add(a)
                p[a] = b
        if len(set(p)) != n:
            return None
        perms.insert(0, p)
    return tuple(perms)


def _image(perm, mask: int) -> int:
    """The image of a vertex mask under the vertex map ``perm``."""
    out = 0
    for v in iter_bits(mask):
        out |= 1 << perm[v]
    return out


def _edge_image(board: Hypergraph, perm, e: int):
    """The index of the edge ``perm`` maps edge ``e`` of ``board`` onto,
    or None when the image is not an edge.  ``e`` is an ``on_win`` or
    ``win_edges`` key, which ``_Machine._check_layer`` has checked to be an
    edge of ``board``."""
    image = _image(perm, board.edge_masks[e])
    for f in board.incidence[perm[board.edges[e][0]]]:
        if board.edge_masks[f] == image:
            return f
    return None


def _fits_stack(stack: _Stack, perms: tuple, other: _Stack | None = None) -> bool:
    """Whether the lifted ``perms`` map every claim-independent part of
    ``stack`` onto ``other``, by default ``stack`` itself: the resolution
    table, where a group member's entry names its home, the fixed
    relevance and every layer's ``on_win`` continuations, compared through
    ``is_conjugate``.  ``other`` has the same boards as ``stack``."""
    if other is None:
        other = stack
    real, inner = perms[0], perms[-1]
    if _image(real, stack.fixed_rel) != other.fixed_rel:
        return False

    def effects(effs):
        return tuple([(fi, perms[fi + 1][c]) for fi, c in effs])

    other_table = other.table
    for v, entry in enumerate(stack.table):
        kind = entry[0]
        if kind == "pass":
            image = ("pass", effects(entry[1]))
        elif kind == "answer":
            image = ("answer", real[entry[1]], effects(entry[2]))
        else:  # a "vertex" or "dyn" entry names an innermost coordinate
            image = (kind, inner[entry[1]], effects(entry[2]))
        if other_table[real[v]] != image:
            return False
    for i, layer in enumerate(stack.layers):
        board, parent = layer.board, stack.outers[i].board
        on_win = other.layers[i].on_win
        for e, cont in layer.on_win.items():
            f = _edge_image(board, perms[i + 1], e)
            if f not in on_win or not is_conjugate(cont, on_win[f], perms[i], parent):
                return False
    return True


def _fits_state(
    stack: _Stack,
    perms: tuple,
    edges: tuple,
    masks: tuple,
    ra: int,
    rb: int,
    other: _Stack | None = None,
) -> bool:
    """Whether the lifted ``perms`` fix the claims of a state on ``stack``
    and, once Maker's stones are taken off every edge, map the real board
    (whose edge masks are ``edges``) onto itself and every layer's
    ``win_edges`` onto those of ``other``, by default ``stack`` itself."""
    if other is None:
        other = stack
    real = perms[0]
    if _image(real, ra) != ra or _image(real, rb) != rb:
        return False
    for perm, (va, vb) in zip(perms[1:], masks):
        if _image(perm, va) != va or _image(perm, vb) != vb:
            return False
    moved = 0
    for v, image in enumerate(real):
        if image != v:
            moved |= 1 << v
    residual = {mask & ~ra for mask in edges}
    for mask in edges:
        if mask & moved and _image(real, mask & ~ra) not in residual:
            return False
    for i, layer in enumerate(stack.layers):
        board = layer.board
        parent_edges = stack.outers[i].board.edge_masks
        maker = masks[i - 1][0] if i else ra
        targets = other.layers[i].win_edges
        for e, pe in layer.win_edges.items():
            target = targets.get(_edge_image(board, perms[i + 1], e))
            if target is None or _image(perms[i], parent_edges[pe] & ~maker) != (
                parent_edges[target] & ~maker
            ):
                return False
    return True


def _sibling_sigma(h: Hypergraph, layer, other):
    """The involution of ``h`` that would swap two layers entered from the
    real board, or None when the swap is not well defined.

    It exchanges ``layer.embed[i]`` with ``other.embed[i]`` and, for each
    ``win_edges`` key, the real vertices each layer's target edge has
    outside its embedding (in ascending order), and fixes every other
    vertex.  Both layers' ``win_edges`` targets were checked against ``h``
    when they were pushed.  Nothing here checks that the result is an
    automorphism: ``_Machine._accept`` does.
    """
    if len(layer.embed) != len(other.embed):
        return None
    if layer.win_edges.keys() != other.win_edges.keys():
        return None
    pairs = list(zip(layer.embed, other.embed))
    image = sum(1 << v for v in layer.embed)
    other_image = sum(1 << v for v in other.embed)
    masks = h.edge_masks
    for k, e in layer.win_edges.items():
        mine = list(iter_bits(masks[e] & ~image))
        theirs = list(iter_bits(masks[other.win_edges[k]] & ~other_image))
        if len(mine) != len(theirs):
            return None
        pairs += zip(mine, theirs)
    swap: dict = {}
    for a, b in pairs:
        if swap.setdefault(a, b) != b or swap.setdefault(b, a) != a:
            return None
    return [swap.get(v, v) for v in range(h.vertex_count)]


def _segments(sigma) -> tuple:
    """``sigma`` as (shift, source mask) pairs, one per distinct shift."""
    by_shift: dict = {}
    for v, w in enumerate(sigma):
        by_shift[w - v] = by_shift.get(w - v, 0) | (1 << v)
    return tuple(sorted(by_shift.items()))


def _apply_segments(segs: tuple, mask: int) -> int:
    """The image of a vertex mask under the permutation ``segs`` encodes."""
    out = 0
    for shift, source in segs:
        if shift >= 0:
            out |= (mask & source) << shift
        else:
            out |= (mask & source) >> -shift
    return out


def verify_maker_strategy(h: Hypergraph, s: StrategyTree) -> VerificationReport:
    """Check ``s`` against every opponent line on ``h``, with
    ``s.first_mover`` moving first.

    The result never raises for defects in the strategy itself: those are
    reported as the first counterexample in canonical move order.
    """
    if s.board != h:
        raise ValueError("strategy board does not match the hypergraph")
    machine = _Machine(h)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, _RECURSION_LIMIT))
    started = time.perf_counter()
    try:
        if s.first_mover is Side.A:
            machine._maker_turn(s.root, machine.root, (), 0, 0)
        else:
            machine._expand_opponent(s.root, machine.root, (), 0, 0)
        verified, cex = True, None
    except _Fail as fail:
        verified, cex = False, fail.cex
    finally:
        sys.setrecursionlimit(old_limit)
    elapsed = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        verified=verified,
        lines_checked=machine.expansions,
        max_depth=machine.max_depth,
        elapsed_ms=elapsed,
        counterexample=cex,
    )
