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
larger class has one flag bit above the real vertices.

A layer's ``answers`` pair the opponent's move on a vertex with a Maker
claim of its partner, as a pairing strategy does (Hefetz, Krivelevich,
Stojaković & Szabó, *Positional Games*, 2014).  At a ``Respond`` node,
a free out-of-relevance pair {v, a} is taken out of the replies and the
profile once it is dead (see ``_answered_pairs``): v and a answer each
other alone and mark no layer, neither lies in the real image of the
innermost board, and a Breaker stone inside the relevance meets each
kill mask.  The kill masks are the real edges through v or a without the
pair, and the real image of each virtual edge whose ``on_win``
continuation may read v or a: it may claim them, or it runs where the
pair is not answered and does not end the line at Maker's next claim.
A pair is kept when dropping it would leave no reply.  This is exact.
Let S' be the state S after the opponent plays v and Maker answers a;
replies v and a lead to S' and its mirror image, which share its memo
key.  Every other reply r leads to children of S and S' that differ
only in the dead pair, which stays dead: no script on the stack or above
it and no bounded-win search claims a vertex outside the innermost
image, no live continuation reads the pair, no edge through it can still
be won and no other reply is answered with it.  A continuation that
ends the line at once may run where the opponent can still play v, but
such a move only passes, and the line fails only when Maker's every
finishing claim is taken.  So, by induction on the free vertices, S
succeeds exactly when every other reply does, and S and S' may share a
key.

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
resolves, the reply classes, the layers' fixed relevance, the real images
of the innermost board's edges) is built from the parent stack's tables
when the stack is interned, so a malformed layer fails on the line that
enters it.  Caches keyed by a vertex, a node or a claim mask fill on
first use.  One of them is the claim table: per innermost-board vertex,
its real vertex, the bit it sets in each layer's Maker mask, the real
edges through it and the ``on_win`` edges through its coordinate on each
layer, so a Maker claim walks no embedding or incidence list.  Another
is the bounded-win table: the innermost board's edges within reach of a
given Maker mask, with their real images, which bound the memo key, and
the needed vertices of each edge as a mask, from which the claims are
ordered by distance to a win, then by vertex.

Sibling layers entered from the real board may share memo successes.  When
a layer is entered beside an earlier one on the same board, the verifier
derives the involution of the real board that swaps the two embeddings
and the vertices each layer's win edges have outside it.  It shares only
if both layers keep no state (see ``_stateful``) and the swap, with the
identity on the layers' common board, passes the two checks that accept a
symmetry at a stone-free node (below), with the later stack carried onto
the earlier one rather than onto itself: it maps each stack's resolution
table and fixed relevance onto the other's and, at the empty position, is
an automorphism of the real board that carries each win edge onto its
partner.  The stack entered later then files the successes of its
opponent nodes under the earlier stack's key, with its masks and reply
profile mapped through the swap, and so do the stacks pushed on top of
it.  Failures and bounded-win searches stay under each stack's own key,
so a counterexample keeps its own coordinates and reply order, and a
stack that shares nothing is searched as before.

At an opponent node whose innermost board holds no stones (the root of a
Breaker-first script, or the first opponent turn in a freshly entered
layer) the replies are still explored in ascending order, but a reply w
is skipped when a derived permutation σ maps a reply u that is known to
succeed onto w and w's child is the σ-image of u's, reply classes compared
by vertex set (see ``_Machine._expand_stone_free``).  σ is a candidate
that ``core.Automorphisms.find`` proposes to map the coordinate u
dispatches on onto w's, lifted through each layer's embedding and the
member order of its dynamic groups, and fixing every other vertex.
``find`` is not trusted: σ is used only if ``core.is_automorphism``
confirms it is an automorphism of the innermost board, it maps u onto w
on the real board, fixes the real and every layer's claim masks, is an
automorphism of the real board once the state's Maker stones are taken
off every edge, and maps the stack's resolution table (which names each
group member's home), fixed relevance, ``win_edges`` and ``on_win``
continuations onto themselves (see ``_Machine._accept``).  This is sound
by monotonicity: an extra Maker stone never hurts Maker, so an edge is
won once its vertices outside Maker's stones are claimed, and a residual
automorphism that fixes the state maps every line after u, and every win
on it, onto a line after w and a win on it.  Every rule the verifier
applies commutes with σ, because σ maps its tables and both scripts onto
themselves.  That includes a group member's resolution: the member's
image belongs to the group at the image home, and since σ fixes the
claim masks that home is free exactly when the member's own is.  The one
exception is a choice of a lowest free vertex: the member that
stands for an out-of-relevance class.  In a pruned branch that member is
the σ-image of the one explored, a member of the image class, which the
relevance hint treats as interchangeable.  So w succeeds exactly when u
does.  Only replies that would succeed are skipped, so memo keys, the
copy sharing and every counterexample are unchanged.

``BoundedWin`` defaults are discharged by the machine's own search over
those tables.  ``bounded_win`` is a standalone "Maker wins within k of his
own moves" decision procedure on a plain position, kept as the reference
that tests compare that search against.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

from ..core import Automorphisms, Hypergraph, Position, Side, is_automorphism, iter_bits
from .nodes import (
    BoundedWin,
    Claim,
    ClaimFirstFree,
    EnterLayer,
    Respond,
    StrategyTree,
    WinNow,
    is_conjugate,
    iter_nodes,
)

__all__ = [
    "Counterexample",
    "VerificationReport",
    "bounded_win",
    "verify_maker_strategy",
]

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
    stack, from its parent's: ``table`` (see ``_layer_table``) and
    ``classes`` (see ``_reply_classes``), ``edges`` (the real image of each
    innermost-board edge), ``stateful`` (the indices of the layers whose
    claim masks enter the memo key), ``fixed_rel`` (the real image of every
    layer's relevance mask and residue) and ``homes``/``home_rel`` (see
    ``_Machine._relevance``).  The residue of a layer is the parent-board
    vertices of its win edges that lie outside it: completing a virtual
    edge only wins when its real counterpart is complete, so any extra
    vertices the real edge carries must stay in the memo key.
    ``_Machine._push`` checks the layer against the parent board before it
    builds the child, so a malformed layer fails on the line that enters
    it.  Only the caches keyed by a vertex, a node or a claim mask fill on
    first use: ``claims``, ``groups``, ``static_rel`` and ``bw``.

    ``pairs`` is None or the stack's table of answered pairs (see
    ``_answered_pairs``): per pair the kill masks that must all meet
    Breaker's stones before ``_drop_dead_pairs`` drops it at a ``Respond``
    node, the partner map as ``_segments`` and a cache of the dead pairs
    per set of Breaker stones.

    ``claims`` maps an innermost-board vertex to (real vertex, per-layer
    claim bits, masks of the real edges through it, ``on_win`` entries).
    The claim bits are what a Maker claim of the vertex ORs into each
    layer's Maker mask, outermost first.  An ``on_win`` entry is (layer
    index, virtual edge mask, continuation, stack the continuation runs
    on) for each edge through the vertex's coordinate on a layer that has
    a continuation for it, innermost layer first and in incidence order.
    The vertex is range-checked when its entry is built.

    ``rep`` is the stack whose opponent-node successes this one shares (see
    the module docstring), never one that has a ``rep`` itself, and
    ``segs`` the automorphism carrying this stack onto it as (shift, source
    mask) pairs.

    A stack points only outwards: at its parent and ``outers``, at the
    stacks its ``on_win`` continuations run on, which enclose it, and at
    its ``rep``.  It never points at itself or at a child, so the stacks
    are freed with the machine by reference counting.
    """

    __slots__ = (
        "board",
        "layer",
        "parent",
        "layers",
        "outers",
        "real",
        "stateful",
        "table",
        "classes",
        "groups",
        "claims",
        "static_rel",
        "fixed_rel",
        "homes",
        "home_rel",
        "edges",
        "pairs",
        "bw",
        "rep",
        "segs",
    )

    def __init__(self, board: Hypergraph, layer=None, parent: "_Stack | None" = None):
        self.board = board
        self.layer = layer
        self.parent = parent
        self.homes = 0
        self.home_rel: dict = {}
        if parent is None:
            self.layers = self.outers = self.stateful = ()
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
        self.classes = _reply_classes(self.table, self.stateful)
        self.edges = tuple([self.to_real(mask) for mask in board.edge_masks])
        self.pairs = _answered_pairs(self)
        self.groups: dict = {}
        self.claims: dict = {}
        # id(node) -> real mask of the node's relevance and ``fixed_rel``
        self.static_rel: dict = {}
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


def _reply_classes(table: list, stateful: tuple) -> tuple:
    """The node-independent part of ``_Machine._node_groups``.

    Returns (classes, dyn): ``classes`` lists (visible effects, table
    entry, member mask) for the real vertices that resolve statically to
    the same place with the same effects on the layers whose indices are
    in ``stateful``, and ``dyn`` the member masks of the dynamic groups.
    """
    merged: dict = {}
    dyn: dict = {}
    for rv, entry in enumerate(table):
        if entry[0] == "dyn":
            dyn[entry[1]] = dyn.get(entry[1], 0) | (1 << rv)
            continue
        visible = tuple((fi, c) for fi, c in entry[-1] if fi in stateful)
        key = (visible, entry[0], entry[1])
        got = merged.get(key)
        merged[key] = (visible, entry, (got[2] if got else 0) | (1 << rv))
    return tuple(merged.values()), tuple(dyn[k] for k in sorted(dyn))


def _resolve_dyn(masks: tuple, entry):
    """The entry a ``dyn`` entry resolves to at the innermost layer's claim
    masks: ("vertex", home, ...) while the home is free there, otherwise
    ("pass", effects)."""
    _kind, home, effects = entry
    va, vb = masks[-1]
    if (va | vb) >> home & 1:
        return ("pass", effects)
    return ("vertex", home, effects + ((len(masks) - 1, home),))


def _answered_pairs(stack: _Stack) -> tuple | None:
    """The pairs ``_drop_dead_pairs`` may drop on ``stack``, or None.

    A pair is two real vertices v and a that ``stack`` answers with each
    other, marking no layer, outside the real image of its innermost
    board, that answer no other vertex.  It is dead once a Breaker stone
    meets every kill mask: each real edge through v or a without the pair,
    and the real image of each virtual edge whose ``on_win`` continuation
    may read v or a.  A continuation reads the vertices it claims (see
    ``_named``).  When it runs on a stack that does not answer the pair,
    where the opponent may still play v, it reads every vertex unless it
    ends the line at once (see ``_finishes``).  Returns (kills, partner,
    union, by_killed): ``kills`` lists (pair mask, kill masks) without
    duplicate masks, ``partner`` maps each paired vertex to its partner
    in ``_segments`` form, ``union`` is the union of the kill masks and
    ``by_killed`` caches the pairs that Breaker's stones kill.
    """
    table = stack.table
    if not any(layer.answers for layer in stack.layers):
        return None
    answering: dict = {}  # real vertex -> how many vertices it answers
    for entry in table:
        if entry[0] == "answer":
            answering[entry[1]] = answering.get(entry[1], 0) + 1
    real_board = stack.outers[0].board
    edge_masks, incidence = real_board.edge_masks, real_board.incidence
    # (real image of an on_win edge, real vertices its continuation claims,
    # whether it finishes, the table of the stack it runs on)
    wins = []
    for i, layer in enumerate(stack.layers):
        outer = stack.outers[i]
        for e, cont in layer.on_win.items():
            edge = outer.to_real(_image(layer.embed, layer.board.edge_masks[e]))
            finish = _finishes(cont, outer, edge, edge_masks, incidence)
            wins.append((edge, _named(cont, outer), finish, outer.table))
    image = stack.to_real(stack.board.full_mask)
    kills = []
    partner: dict = {}
    union = 0
    for v, entry in enumerate(table):
        a = entry[1]
        if entry != ("answer", a, ()) or a <= v or table[a] != ("answer", v, ()):
            continue
        pair = 1 << v | 1 << a
        if pair & image or answering[v] != 1 or answering[a] != 1:
            continue
        masks = {edge_masks[e] & ~pair for e in (*incidence[v], *incidence[a])}
        masks.update(
            edge
            for edge, named, finish, outer_table in wins
            if named & pair or not (finish or outer_table[v] == entry)
        )
        kills.append((pair, tuple(sorted(masks))))
        partner[a - v] = partner.get(a - v, 0) | 1 << v
        partner[v - a] = partner.get(v - a, 0) | 1 << a
        for mask in masks:
            union |= mask
    if not kills:
        return None
    return tuple(kills), tuple(sorted(partner.items())), union, {}


def _named(cont, outer: _Stack) -> int:
    """The real vertices an ``on_win`` continuation that runs on ``outer``
    may claim: its ``Claim`` and ``ClaimFirstFree`` vertices, or every
    vertex when it enters a layer or searches a bounded win."""
    named = 0
    for node in iter_nodes(cont):
        if type(node) is Respond:
            node = node.default
        if isinstance(node, (EnterLayer, BoundedWin)):
            return -1
        if isinstance(node, Claim):
            vertices = (node.vertex,)
        elif isinstance(node, ClaimFirstFree):
            vertices = node.vertices
        else:
            continue
        for c in vertices:
            if 0 <= c < len(outer.real):
                named |= 1 << outer.real[c]
    return named


def _finishes(cont, outer: _Stack, edge: int, edge_masks, incidence) -> bool:
    """Whether an ``on_win`` continuation that runs on ``outer`` once
    Maker holds the real edge mask ``edge`` ends the line at Maker's next
    claim, whatever the opponent plays: a ``Respond`` without branches
    whose default claims, with nothing after it, vertices that each
    complete a real edge inside ``edge`` and the vertex itself.  The line
    then fails only when every such vertex is taken, which a move off them
    does not change."""
    if type(cont) is not Respond or cont.branches:
        return False
    claim = cont.default
    if isinstance(claim, Claim):
        vertices = (claim.vertex,)
    elif isinstance(claim, ClaimFirstFree):
        vertices = claim.vertices
    else:
        return False
    if claim.then is not None or _off(vertices, len(outer.real)):
        return False
    for c in vertices:
        u = outer.real[c]
        inside = edge | 1 << u
        if not any(edge_masks[f] & ~inside == 0 for f in incidence[u]):
            return False
    return True


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
        self._branch_maps: dict = {}

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
        if stack.classes[1]:  # masks of the parent's dynamic groups
            self._fail(
                "ill_formed",
                f"layer {stack.layer.name!r}: state-dependent "
                "translation below another layer",
            )

    # ------------------------------------------------------------------
    # sibling symmetry

    def _share(self, child: _Stack):
        """Let ``child`` share the memo successes of the first earlier
        child of the root whose layer it is checked to mirror."""
        for (parent, _layer), sibling in self.stacks.items():
            if parent is not self.root:
                continue
            if sibling is child:
                return
            if sibling.rep is not None:
                continue
            sigma = _sibling_sigma(self.h, child.layer, sibling.layer)
            if sigma is not None and self._symmetric(child, sibling, sigma):
                child.rep = sibling
                child.segs = _segments(sigma)
                return

    def _symmetric(self, child: _Stack, sibling: _Stack, sigma) -> bool:
        """Whether the real-board permutation ``sigma`` carries every line
        played under ``child`` onto the same line under ``sibling``.

        Both must be children of the root, and ``sigma`` the swap
        ``_sibling_sigma`` derives for their layers, which have the same
        ``win_edges`` keys, each checked against the board by ``_push``.
        Neither layer may keep state (see ``_stateful``), so neither has
        dynamic groups, ``on_win`` or ``answers``.
        The layers must share one board, ``sigma`` must be an involution,
        and ``sigma`` with the identity on that board must carry ``child``
        onto ``sibling`` at the empty position (``_fits_stack`` and
        ``_fits_state``).  The table check then maps each embedding onto
        the other, and the state check makes ``sigma`` an automorphism of
        the board that maps each ``win_edges`` target onto its partner.
        """
        if child.stateful or sibling.stateful:
            return False
        board = child.layer.board
        if board is not sibling.layer.board:
            return False
        n = self.h.vertex_count
        if len(sigma) != n or any(sigma[sigma[v]] != v for v in range(n)):
            return False
        perms = (sigma, range(board.vertex_count))
        return _fits_stack(child, perms, sibling) and _fits_state(
            child, perms, self.edge_masks, ((0, 0),), 0, 0, sibling
        )

    def _shared_key(self, key: tuple, stack: _Stack, node, out: int) -> tuple:
        """``key``, the memo key of a success at opponent ``node`` on
        ``stack``, in its representative's frame: the claim masks are mapped
        onto the representative and the reply profile of the free
        out-of-relevance vertices ``out`` is taken over the
        representative's reply groups."""
        segs = stack.segs
        head, _stack, sig, a, b = key[:5]
        a, b = _apply_segments(segs, a), _apply_segments(segs, b)
        profile = 0
        if out:
            profile = self._profile(stack.rep, node, _apply_segments(segs, out))[1]
        return (head, stack.rep, sig, a, b, profile)

    def _enter(self, node, stack: _Stack, masks: tuple):
        """Push the layers of a run of ``EnterLayer`` nodes."""
        while isinstance(node, EnterLayer):
            stack = self._push(stack, node.layer)
            masks += ((0, 0),)
            node = node.then
        return node, stack, masks

    # ------------------------------------------------------------------
    # reply classes

    def _branch_map(self, node: Respond):
        got = self._branch_maps.get(id(node))
        if got is None:
            got = {}
            for idx, (cls, _child) in enumerate(node.branches):
                for v in cls.vertices:
                    got.setdefault(v, idx)
            self._branch_maps[id(node)] = got
        return got

    def _entry_tag(self, node, entry):
        """Memo/grouping tag describing how ``node`` handles this reply."""
        if isinstance(node, _BWAfter):
            return ("w",)
        kind = entry[0]
        if kind == "answer":
            return ("a", entry[1])
        if kind == "vertex":
            branch = self._branch_map(node).get(entry[1])
            if branch is not None:
                return ("b", branch)
        return ("d",) if node.default is not None else ("u",)

    def _node_groups(self, stack: _Stack, node):
        """Merged out-of-relevance reply classes for (layer stack, node).

        Returns (singles, groups): the mask of the real vertices that form
        a group on their own, and the member masks of the other groups.
        Together they cover every real vertex, disjointly.  Replies with
        equal recorded effects and equal handling are interchangeable, so
        each group contributes one representative; state-dependent
        (dynamic) translation groups are kept separate since their
        handling resolves per state.
        """
        got = stack.groups.get(id(node))
        if got is not None:
            return got
        classes, dyn = stack.classes
        merged: dict = {}
        for visible, entry, mask in classes:
            tag = (visible, self._entry_tag(node, entry))
            merged[tag] = merged.get(tag, 0) | mask
        singles = 0
        groups = []
        for mask in (*merged.values(), *dyn):
            if mask & (mask - 1):
                groups.append(mask)
            else:
                singles |= mask
        got = stack.groups[id(node)] = (singles, tuple(groups))
        return got

    def _profile(self, stack: _Stack, node, out: int):
        """(replies, profile) for the free out-of-relevance vertices ``out``
        at (stack, node): the lowest member of each group that meets
        ``out``, and which groups those are.  A single-vertex group is its
        own vertex bit; the other groups take one bit each above the real
        vertices, in ``_node_groups`` order.  So the profile is 0 exactly
        when ``out`` is."""
        singles, groups = self._node_groups(stack, node)
        profile = replies = out & singles
        bit = self.group_bit
        for mask in groups:
            members = mask & out
            if members:
                replies |= members & -members
                profile |= bit
            bit <<= 1
        return replies, profile

    # ------------------------------------------------------------------
    # relevance

    def _relevance(self, node, stack: _Stack, masks: tuple) -> int:
        """Real vertices whose claims ``node`` may still react to.

        The union of the node's own relevance and each active layer's
        relevance (plus its win residue), and the real members of each of
        the innermost layer's dynamic groups whose home its Maker mask
        holds; the whole board when nothing bounds it.  ``node`` is None
        for a bounded-win search, which has no relevance of its own and
        adds the edges within reach itself.  ``stack.homes`` is the mask of
        the group homes and ``stack.home_rel`` maps each home to the real
        members of its groups.
        """
        if node is None:
            rel = stack.fixed_rel
        else:
            rel = stack.static_rel.get(id(node))
            if rel is None:
                rel = self._static_relevance(node, stack)
        if stack.homes:
            held = masks[-1][0] & stack.homes
            if held:
                for c in iter_bits(held):
                    rel |= stack.home_rel[c]
        return rel

    def _static_relevance(self, node, stack: _Stack) -> int:
        """The mask-independent part of ``_relevance``, cached per node."""
        static = node.relevance if type(node) is Respond else None
        if static is not None:
            if static >> stack.board.vertex_count:
                self._fail(
                    "ill_formed", f"node relevance leaves {_board_name(stack)}"
                )
            rel = stack.to_real(static)
        elif stack.layers or type(node) is _BWAfter:
            rel = 0
        else:
            rel = self.full
        rel |= stack.fixed_rel
        stack.static_rel[id(node)] = rel
        return rel

    def _bw_entry(self, stack: _Stack, va: int, k: int):
        """Bounded-win data for Maker mask ``va`` on the innermost board.

        Returns (union, levels).  ``union`` is the real image of every
        edge within ``k`` of completion, killed or not: opponent stones
        that rule such an edge out and Maker stones that brought it within
        reach must both stay inside the memo key, so neither occupancy mask
        filters it.  ``levels[u - 1]`` lists (edge mask, needed vertex
        mask) for the edges that need exactly ``u`` more claims, in board
        order, for u = 1..k.
        """
        key = (va, k)
        got = stack.bw.get(key)
        if got is None:
            union = 0
            levels: list = [[] for _ in range(k)]
            for mask, real in zip(stack.board.edge_masks, stack.edges):
                needed = mask & ~va
                u = needed.bit_count()
                if u > k:
                    continue
                union |= real
                if u:
                    levels[u - 1].append((mask, needed))
            got = stack.bw[key] = (union, tuple(map(tuple, levels)))
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
            if layer.on_win:
                board = layer.board
                for e in board.incidence[c]:
                    cont = layer.on_win.get(e)
                    if cont is not None:
                        outer = stack.outers[i]
                        wins.append((i, board.edge_masks[e], cont, outer))
            c = layer.embed[c]
        edges = tuple([self.edge_masks[e] for e in self.incidence[c]])
        entry = stack.claims[v] = (c, tuple(bits), edges, tuple(wins))
        return entry

    def _claim(self, v: int, stack: _Stack, masks: tuple, ra: int, rb: int, then):
        """Claim innermost-board vertex ``v`` for Maker and continue.

        Records the claim on every active layer, checks real then virtual
        edge completion (innermost first), fires ``on_win`` continuations in
        the owning layer's parent context, and otherwise proceeds to
        ``then`` at the opponent's turn.
        """
        entry = stack.claims.get(v)
        if entry is None:
            entry = self._claim_entry(stack, v)
        rv, bits, edges, wins = entry
        if (ra | rb) >> rv & 1:
            self._fail("occupied_claim", f"strategy claims occupied vertex {rv}")
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
            for i, mask, cont, outer in wins:
                if mask & ~masks[i][0] == 0:
                    self._opponent_turn(cont, outer, masks[:i], ra_new, rb)
                    return
            if then is None:
                self._fail(
                    "leaf_without_win",
                    f"leaf claims vertex {rv} without completing an edge",
                )
            self._opponent_turn(then, stack, masks, ra_new, rb)
        finally:
            path.pop()

    def _opponent_turn(self, node, stack: _Stack, masks: tuple, ra: int, rb: int):
        node, stack, masks = self._enter(node, stack, masks)
        if isinstance(node, Respond) or isinstance(node, _BWAfter):
            self._expand_opponent(node, stack, masks, ra, rb)
        elif node is None:
            self._fail("leaf_without_win", "strategy ends while the game is open")
        else:
            self._fail(
                "ill_formed",
                f"{type(node).__name__} node reached at the opponent's turn",
            )

    def _maker_turn(self, node, stack: _Stack, masks: tuple, ra: int, rb: int):
        node, stack, masks = self._enter(node, stack, masks)
        if isinstance(node, Claim):
            self._claim(node.vertex, stack, masks, ra, rb, node.then)
        elif isinstance(node, ClaimFirstFree):
            for v in node.vertices:
                entry = stack.claims.get(v)
                if entry is None:
                    entry = self._claim_entry(stack, v)
                if (ra | rb) >> entry[0] & 1:
                    continue
                self._claim(v, stack, masks, ra, rb, node.then)
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
        unclaimed = self.full & ~(ra | rb)
        if unclaimed == 0:
            self._fail("leaf_without_win", "board exhausted before Maker won")
        rel = self._relevance(node, stack, masks)
        if type(node) is _BWAfter:
            va = masks[-1][0] if masks else ra
            rel |= self._bw_entry(stack, va, node.k)[0]
        replies = unclaimed & rel
        out = unclaimed & ~rel
        profile = 0
        if out:
            if stack.pairs is not None and type(node) is Respond:
                out = _drop_dead_pairs(stack.pairs, out, rb & rel, replies)
            collapsed, profile = self._profile(stack, node, out)
            replies |= collapsed
        sig = tuple([masks[i] for i in stack.stateful])
        key = (id(node), stack, sig, ra & rel, rb & rel, profile)
        got = self.memo.get(key)
        if got is True:
            return
        if got is not None:
            raise _Fail(Counterexample(got[0], tuple(self.path), got[1]))
        # successes on a stack with a representative are filed in its frame
        success = key
        if stack.segs is not None:
            success = self._shared_key(key, stack, node, out)
            if self.memo.get(success) is True:
                return
        self.expansions += 1
        try:
            if type(node) is Respond and not (
                masks[-1][0] | masks[-1][1] if masks else ra | rb
            ):
                self._expand_stone_free(node, stack, masks, ra, rb, replies)
            else:
                table = stack.table
                for v in iter_bits(replies):
                    self._reply(node, stack, masks, ra, rb, v, table[v])
        except _Fail as fail:
            self.memo[key] = (fail.cex.kind, fail.cex.detail)
            raise
        self.memo[success] = True

    def _expand_stone_free(self, node, stack, masks, ra, rb, replies: int):
        """Explore the replies at an opponent node whose innermost board
        holds no stones, in ascending order, skipping each reply ``w`` that
        a candidate accepted at this node maps a reply ``u`` known to
        succeed onto.

        ``Automorphisms.find`` proposes a candidate ``g`` that maps the
        coordinate ``u`` dispatches on onto ``w``'s, and ``_accept`` checks
        it.  ``w`` is covered when the lift of an accepted ``g`` maps ``u``
        onto ``w`` on the real board and ``w``'s child is the ``g``-image
        of ``u``'s (``is_conjugate``); ``w`` is then known to succeed as
        well.  The candidates already accepted are tried first, then one
        ``find`` builds from ``w`` and each reply in ``done``, in order.  A
        reply that passes, is answered or reaches no child has no
        coordinate or child to compare and is always searched.  The
        innermost board holds no stones, so every dynamic group's home is
        free and each member dispatches on it.  The board's
        ``Automorphisms`` are built at the first ``find``, so a node that
        fails before then pays nothing for them.
        """
        table = stack.table
        board = stack.board
        autos = None
        done: dict = {}  # reply known to succeed -> (coordinate, child)
        tried: dict = {}  # tuple(g) -> its lift if accepted here, else None
        accepted: list = []  # (lift, inverse of its real permutation)
        for w in iter_bits(replies):
            entry = table[w]
            if entry[0] == "dyn":
                entry = _resolve_dyn(masks, entry)
            child = self._child(node, entry) if entry[0] == "vertex" else None
            if child is None:
                self._reply(node, stack, masks, ra, rb, w, table[w])
                continue
            covered = False
            for perms, inverse in accepted:
                got = done.get(inverse[w])
                if got is not None and is_conjugate(got[1], child, perms[-1], board):
                    covered = True
                    break
            else:
                for u, (coord, child_u) in done.items():
                    if autos is None:
                        autos = Automorphisms(board)
                    g = autos.find([(coord, entry[1])])
                    if g is None:
                        continue
                    key = tuple(g)
                    if key in tried:
                        perms = tried[key]
                    else:
                        perms = tried[key] = self._accept(stack, g, masks, ra, rb)
                        if perms is not None:
                            inverse = [0] * len(perms[0])
                            for v, image in enumerate(perms[0]):
                                inverse[image] = v
                            accepted.append((perms, inverse))
                    if (
                        perms is not None
                        and perms[0][u] == w
                        and is_conjugate(child_u, child, g, board)
                    ):
                        covered = True
                        break
            if not covered:
                self._reply(node, stack, masks, ra, rb, w, table[w])
            done[w] = (entry[1], child)

    def _accept(self, stack: _Stack, g, masks: tuple, ra: int, rb: int):
        """The lift of ``g`` (see ``_lift``) if ``g`` is an automorphism of
        ``stack``'s innermost board and the lift passes ``_fits_stack`` and,
        at the state (``masks``, ``ra``, ``rb``), ``_fits_state``, the two
        checks that also decide copy sharing; else None.  ``g`` comes from
        ``Automorphisms.find``, which is not trusted to return one."""
        if not is_automorphism(stack.board, g):
            return None
        perms = _lift(stack, g)
        if perms is None or not _fits_stack(stack, perms):
            return None
        if not _fits_state(stack, perms, self.edge_masks, masks, ra, rb):
            return None
        return perms

    def _child(self, node: Respond, entry):
        """The child ``node`` hands the resolved reply ``entry`` to: the
        branch its coordinate falls in, else the default, which may be
        None."""
        if entry[0] == "vertex":
            branch = self._branch_map(node).get(entry[1])
            if branch is not None:
                return node.branches[branch][1]
        return node.default

    def _reply(self, node, stack: _Stack, masks: tuple, ra: int, rb: int, v: int, entry):
        kind = entry[0]
        rb2 = rb | (1 << v)
        self.path.append(("breaker", v))
        if len(self.path) > self.max_depth:
            self.max_depth = len(self.path)
        try:
            if len(self.path) > _LINE_LIMIT:
                self._fail("ill_formed", f"line exceeds {_LINE_LIMIT} real moves")
            if kind == "dyn":
                entry = _resolve_dyn(masks, entry)
                self._resolved_reply(node, stack, masks, ra, rb2, entry)
            elif kind == "answer":
                self._answer_reply(node, stack, masks, ra, rb2, entry)
            else:
                self._resolved_reply(node, stack, masks, ra, rb2, entry)
        finally:
            self.path.pop()

    def _apply_effects(self, masks: tuple, effects) -> tuple:
        if not effects:
            return masks
        new = list(masks)
        for fi, coord in effects:
            va, vb = new[fi]
            new[fi] = (va, vb | (1 << coord))
        return tuple(new)

    def _answer_reply(self, node, stack: _Stack, masks: tuple, ra: int, rb2: int, entry):
        ans = entry[1]
        masks2 = self._apply_effects(masks, entry[2])
        if (ra | rb2) >> ans & 1:
            self._resolved_reply(node, stack, masks2, ra, rb2, ("pass", ()))
            return
        ra2 = ra | (1 << ans)
        self.path.append(("maker", ans))
        self.expansions += 1
        if len(self.path) > self.max_depth:
            self.max_depth = len(self.path)
        try:
            if len(self.path) > _LINE_LIMIT:
                self._fail("ill_formed", f"line exceeds {_LINE_LIMIT} real moves")
            for e in self.incidence[ans]:
                if self.edge_masks[e] & ~ra2 == 0:
                    return
            self._expand_opponent(node, stack, masks2, ra2, rb2)
        finally:
            self.path.pop()

    def _resolved_reply(self, node, stack: _Stack, masks: tuple, ra: int, rb2: int, entry):
        masks2 = self._apply_effects(masks, entry[-1])
        if type(node) is _BWAfter:
            self._expand_bw(node.k, stack, masks2, ra, rb2)
            return
        child = self._child(node, entry)
        if child is None:
            if entry[0] == "vertex":
                self._fail(
                    "uncovered_reply",
                    f"reply {entry[1]} matches no reply class and there is no default",
                )
            self._fail(
                "uncovered_reply",
                f"real reply {self.path[-1][1]} is a pass and there is no default",
            )
        if isinstance(child, BoundedWin):
            self._expand_bw(child.k, stack, masks2, ra, rb2)
        else:
            self._maker_turn(child, stack, masks2, ra, rb2)

    # ------------------------------------------------------------------
    # bounded-win search

    def _expand_bw(self, k: int, stack: _Stack, masks: tuple, ra: int, rb: int):
        """Search for a Maker win within ``k`` own moves.

        Its memo key starts with ``k``; being one entry shorter than an
        opponent node's, it cannot collide with one."""
        va, vb = masks[-1] if masks else (ra, rb)
        union, levels = self._bw_entry(stack, va, k)
        rel = self._relevance(None, stack, masks) | union
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
        for v in _bw_claims(levels, vb):
            try:
                self._claim(v, stack, masks, ra, rb, then)
            except _Fail:
                continue
            self.memo[key] = True
            return
        detail = f"no win within {k} Maker moves from here"
        self.memo[key] = ("bounded_win_failure", detail)
        self._fail("bounded_win_failure", detail)


def _drop_dead_pairs(pairs: tuple, out: int, killed: int, replies: int) -> int:
    """``out`` without the free pairs of ``pairs`` (see ``_answered_pairs``)
    that are dead: a vertex of ``killed``, Breaker's stones in the memo
    key, meets each of their kill masks.  ``out`` is kept whole when that
    would leave no reply besides ``replies``, so a board that only dead
    pairs leave open is still exhausted."""
    kills, partner, union, by_killed = pairs
    free = out & _apply_segments(partner, out)
    if not free:
        return out
    killed &= union
    dead = by_killed.get(killed)
    if dead is None:
        dead = 0
        for pair, masks in kills:
            if all(mask & killed for mask in masks):
                dead |= pair
        by_killed[killed] = dead
    dead &= free
    if dead and (replies or out != dead):
        return out & ~dead
    return out


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
    automorphism: ``_Machine._symmetric`` does.
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
            machine._opponent_turn(s.root, machine.root, (), 0, 0)
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


def bounded_win(p: Position, k: int) -> bool:
    """Whether Maker, to move, can complete an edge within ``k`` own moves.

    Full minimax over the at-most ``2k - 1`` remaining plies, with the
    opponent restricted to vertices of still-completable edges (blocking
    elsewhere never helps the opponent).
    """
    if p.to_move() is not Side.A:
        raise ValueError("bounded_win requires Maker to move")
    if k < 0:
        raise ValueError("k must be non-negative")
    masks = p.board.edge_masks
    memo: dict = {}

    def maker(a: int, b: int, kk: int) -> bool:
        key = (a, b, kk)
        got = memo.get(key)
        if got is not None:
            return got
        best: dict = {}
        done = False
        for mask in masks:
            if mask & b:
                continue
            needed = mask & ~a
            u = needed.bit_count()
            if u == 0:
                done = True
                break
            if u <= kk:
                for v in iter_bits(needed):
                    if u < best.get(v, kk + 1):
                        best[v] = u
        if done:
            memo[key] = True
            return True
        result = False
        for v in sorted(best, key=lambda v: (best[v], v)):
            a2 = a | (1 << v)
            union = 0
            immediate = False
            for mask in masks:
                if mask & b:
                    continue
                needed = mask & ~a2
                u = needed.bit_count()
                if u == 0:
                    immediate = True
                    break
                if u <= kk - 1:
                    union |= needed
            if immediate:
                result = True
                break
            if union == 0:
                continue
            if all(maker(a2, b | (1 << w), kk - 1) for w in iter_bits(union)):
                result = True
                break
        memo[key] = result
        return result

    return maker(p.a_mask, p.b_mask, k)
