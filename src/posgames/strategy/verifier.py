"""Exhaustive adversarial verification of scripted Maker strategies.

``verify_maker_strategy`` plays every opponent line against a strategy
tree and reports the first defect it finds instead of raising, so a broken
script always comes back as a ``Counterexample``.  Opponent moves that no
active layer can still react to are grouped into equivalence classes and
only one representative per class is explored: its lowest free member, so
the replies are played in ascending vertex order without walking every
free vertex.  A per-class flag recording whether the class still has a
free member is folded into the memo key so the pruning stays exact.

Everything that depends only on the stack of active layers (how each real
vertex resolves, the reply classes, the layers' fixed relevance) is
computed once per stack.  Bounded-win search works from per-stack tables
of the innermost board's edges in real coordinates: the edges within
reach of a given Maker mask are cached with their real images, so whether
such an edge is still winnable is one mask test against the real claims.

Some opponent moves are *invisible* to the active layers: either the
translation chain drops them before reaching the innermost layer, or they
land on a virtual coordinate the layers already count as the opponent's.
When the current node has no default branch such a move is answered as if
the opponent had made the lowest free virtual move instead, and that
imagined move is recorded on the layer's own board.  Later real moves that
collide with the pretence are treated as invisible in turn, which lets
every "wasted" opponent move share the memo entry of the matching direct
reply.  The pretence is only used when the innermost layer is the single
stateful one, so it is always reflected in the memo signature.

``bounded_win`` is the standalone "Maker wins within k of his own moves"
decision procedure used by ``BoundedWin`` defaults and by tests.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from ..core import Hypergraph, Position, Side, iter_bits
from .nodes import (
    BoundedWin,
    Claim,
    ClaimFirstFree,
    EnterLayer,
    Respond,
    StrategyTree,
    WinNow,
)

__all__ = [
    "Counterexample",
    "VerificationReport",
    "audit_coverage",
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
class _BW:
    """Internal Maker node: win within ``k`` own moves, found by search."""

    k: int


@dataclass(frozen=True, eq=False)
class _BWAfter:
    """Internal opponent node between searched bounded-win moves."""

    k: int


_BW_NODES: dict[int, _BW] = {}
_BW_AFTER: dict[int, _BWAfter] = {}


def _bw_node(k: int) -> _BW:
    node = _BW_NODES.get(k)
    if node is None:
        node = _BW_NODES.setdefault(k, _BW(k))
    return node


def _bw_after(k: int) -> _BWAfter:
    node = _BW_AFTER.get(k)
    if node is None:
        node = _BW_AFTER.setdefault(k, _BWAfter(k))
    return node


class _Stack:
    """One stack of active layers, outermost first, and what is known about
    it independently of the claim masks.

    The machine interns one object per distinct stack (a child per layer
    pushed on top of it), so every per-stack table is an attribute reached
    from the innermost frame instead of a dict entry keyed by a tuple of
    layer ids.  Tables are filled lazily, on first use, so a malformed
    layer fails on the first line that needs its table.
    """

    __slots__ = (
        "layer",
        "parent",
        "layers",
        "lid",
        "children",
        "veil",
        "table",
        "arrivals",
        "classes",
        "groups",
        "veils",
        "node_rel",
        "fixed_rel",
        "stateful_rel",
        "real_rel",
        "edges",
        "bw",
    )

    def __init__(self, layer=None, parent: "_Stack | None" = None):
        self.layer = layer
        self.parent = parent
        self.layers = () if parent is None else parent.layers + (layer,)
        self.lid = id(layer)
        self.children: dict = {}
        layers = self.layers
        self.veil = (
            bool(layers)
            and layers[-1].stateful
            and all(not l.stateful for l in layers[:-1])
        )
        self.table = None
        self.arrivals = None
        self.classes = None
        self.groups: dict = {}
        self.veils: dict = {}
        self.node_rel: dict = {}
        self.fixed_rel = None
        # (frame index, stack prefix ending at that frame) for each stateful
        # layer whose relevance depends on its claim masks
        self.stateful_rel = tuple(
            (i, self._prefix(i))
            for i, l in enumerate(layers)
            if l.stateful and l.relevance is not None
        )
        # relevance mask on the parent board of ``layer`` -> its real image
        self.real_rel: dict = {}
        self.edges = None
        self.bw: dict = {}

    def _prefix(self, i: int) -> "_Stack":
        stack = self
        for _ in range(len(self.layers) - 1 - i):
            stack = stack.parent
        return stack

    def push(self, layer) -> "_Stack":
        child = self.children.get(layer)
        if child is None:
            child = self.children[layer] = _Stack(layer, self)
        return child


class _Frame:
    """One active virtual layer: the layer plus its claim masks, and the
    stack this frame closes."""

    __slots__ = ("layer", "va", "vb", "stack")

    def __init__(self, layer, va: int, vb: int, stack: _Stack):
        self.layer = layer
        self.va = va
        self.vb = vb
        self.stack = stack


def _sig(frames) -> tuple:
    """The frames' contribution to a memo key: the identity of each layer,
    with its claim masks when the layer is stateful."""
    return tuple([
        (f.stack.lid, f.va, f.vb) if f.layer.stateful else f.stack.lid
        for f in frames
    ])


class _Machine:
    def __init__(self, h: Hypergraph, tree: StrategyTree):
        self.h = h
        self.tree = tree
        self.full = h.full_mask
        self.edge_masks = h.edge_masks
        self.incidence = h.incidence
        self.node_rel = tree.node_relevance or {}
        self.path: list = []
        self.expansions = 0
        self.max_depth = 0
        self.memo: dict = {}
        self.root = _Stack()
        self._branch_maps: dict = {}
        self._dyn_maps: dict = {}
        self._embed_masks: dict = {}
        self._residues: dict = {}
        # (layer id, va, vb) -> relevance callback value, stateful layers only
        self._rel_values: dict = {}
        self._layers_seen: set = set()

    # ------------------------------------------------------------------
    # failures

    def _fail(self, kind: str, detail: str):
        raise _Fail(Counterexample(kind, tuple(self.path), detail))

    # ------------------------------------------------------------------
    # layer bookkeeping

    def _check_layer(self, layer, parent_n: int) -> None:
        if id(layer) in self._layers_seen:
            return
        self._layers_seen.add(id(layer))
        if len(layer.embed) != layer.board.vertex_count:
            self._fail(
                "ill_formed",
                f"layer {layer.name!r}: embedding names "
                f"{len(layer.embed)} of {layer.board.vertex_count} vertices",
            )
        if any(not 0 <= v < parent_n for v in layer.embed):
            self._fail(
                "ill_formed",
                f"layer {layer.name!r}: embedding leaves the parent board",
            )

    def _enter(self, node, frames):
        """Push the frames of a run of ``EnterLayer`` nodes."""
        while isinstance(node, EnterLayer):
            if frames:
                stack = frames[-1].stack
                parent_n = stack.layer.board.vertex_count
            else:
                stack = self.root
                parent_n = self.h.vertex_count
            self._check_layer(node.layer, parent_n)
            frames = frames + (_Frame(node.layer, 0, 0, stack.push(node.layer)),)
            node = node.then
        return node, frames

    def _dyn_map(self, layer) -> dict:
        got = self._dyn_maps.get(id(layer))
        if got is None:
            got = {}
            for gi, members in enumerate(layer.dynamic_groups):
                for v in members:
                    got[v] = gi
            self._dyn_maps[id(layer)] = got
        return got

    def _embed_mask(self, layer, mask: int) -> int:
        """Map a mask on ``layer.board`` to the parent board."""
        cache = self._embed_masks.setdefault(id(layer), {})
        got = cache.get(mask)
        if got is None:
            embed = layer.embed
            got = 0
            for v in iter_bits(mask):
                got |= 1 << embed[v]
            cache[mask] = got
        return got

    def _to_real(self, mask: int, stack: _Stack) -> int:
        for layer in reversed(stack.layers):
            mask = self._embed_mask(layer, mask)
        return mask

    def _real_vertex(self, v: int, frames) -> int:
        for frame in reversed(frames):
            v = frame.layer.embed[v]
        return v

    # ------------------------------------------------------------------
    # per-stack static analysis

    def _table(self, stack: _Stack):
        """Per real vertex, how the active layers resolve an opponent claim.

        Entries are ("answer", real reply, effects), ("pass", effects),
        ("vertex", innermost vertex, effects) or ("dyn", frame index, group,
        effects, coordinate entering that frame); ``effects`` lists the
        (frame index, frame-board vertex) marks recorded along the walk.
        """
        if stack.table is not None:
            return stack.table
        layers = stack.layers
        entries = []
        for rv in range(self.h.vertex_count):
            coord = rv
            effects: list = []
            entry = None
            for fi, layer in enumerate(layers):
                ans = layer.answers.get(coord)
                if ans is not None:
                    for j in range(fi - 1, -1, -1):
                        ans = layers[j].embed[ans]
                    entry = ("answer", ans, tuple(effects))
                    break
                gi = self._dyn_map(layer).get(coord)
                if gi is not None:
                    if fi != len(layers) - 1:
                        self._fail(
                            "ill_formed",
                            f"layer {layer.name!r}: state-dependent "
                            "translation below another layer",
                        )
                    entry = ("dyn", fi, gi, tuple(effects), coord)
                    break
                nxt = layer.translate(coord, 0, 0)
                if nxt is None:
                    entry = ("pass", tuple(effects))
                    break
                effects.append((fi, nxt))
                coord = nxt
            if entry is None:
                entry = ("vertex", coord, tuple(effects))
            entries.append(entry)
        stack.table = entries
        return entries

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
        if kind == "pass":
            return ("d",) if node.default is not None else ("p",)
        branch = self._branch_map(node).get(entry[1])
        if branch is not None:
            return ("b", branch)
        if node.default is not None:
            return ("d",)
        return ("u",)

    def _node_groups(self, stack: _Stack, node):
        """Merged out-of-relevance reply classes for (layer stack, node).

        Returns (groups, pass_gi) where ``groups`` is a tuple of disjoint
        member masks covering every real vertex and ``pass_gi`` is the
        ordinal of the invisible-move group (None if no vertex passes every
        layer).  Replies with equal recorded effects and equal handling are
        interchangeable, so each group contributes one representative;
        state-dependent (dynamic) translation groups are kept separate
        since their handling resolves per state.
        """
        got = stack.groups.get(id(node))
        if got is not None:
            return got
        classes, dyn = self._static_classes(stack)
        merged: dict = {}
        for visible, entry, mask in classes:
            tag = (visible, self._entry_tag(node, entry))
            merged[tag] = merged.get(tag, 0) | mask
        order = sorted(merged, key=repr)
        masks = [merged[k] for k in order]
        pass_gi = None
        for gi, tag in enumerate(order):
            if tag[0] == () and tag[1] in (("d",), ("p",)):
                pass_gi = gi
                break
        got = (tuple(masks) + dyn, pass_gi)
        stack.groups[id(node)] = got
        return got

    def _static_classes(self, stack: _Stack):
        """The node-independent part of ``_node_groups``.

        Returns (classes, dyn): ``classes`` lists (visible effects, table
        entry, member mask) for the real vertices that resolve statically
        to the same place with the same effects on stateful layers, and
        ``dyn`` the member masks of the dynamic translation groups.
        """
        if stack.classes is None:
            layers = stack.layers
            merged: dict = {}
            dyn: dict = {}
            for rv, entry in enumerate(self._table(stack)):
                if entry[0] == "dyn":
                    dyn[(entry[1], entry[2])] = dyn.get((entry[1], entry[2]), 0) | (1 << rv)
                    continue
                visible = tuple(
                    (fi, c) for fi, c in entry[-1] if layers[fi].stateful
                )
                key = (visible, entry[0], entry[1])
                got = merged.get(key)
                merged[key] = (visible, entry, (got[2] if got else 0) | (1 << rv))
            stack.classes = (
                tuple(merged.values()),
                tuple(dyn[k] for k in sorted(dyn)),
            )
        return stack.classes

    def _veiled_mask(self, frames) -> int:
        """Real vertices whose static resolution the innermost frame hides.

        Static resolution can land several real vertices on one coordinate
        (and imagined stand-ins mark coordinates no real claim covers), so a
        later claim may arrive somewhere the innermost layer already counts
        as the opponent's.  Such a claim carries nothing the layers can see
        and is handled as an invisible move.  The bookkeeping needs the
        innermost state inside the memo signature, so the veil is only
        active (``_Stack.veil``) when the innermost layer is the single
        stateful one; deeper stateful frames would need their own veil
        state, so resolution is taken at face value there.
        """
        if not frames:
            return 0
        frame = frames[-1]
        stack, vb = frame.stack, frame.vb
        if not stack.veil or vb == 0:
            return 0
        got = stack.veils.get(vb)
        if got is None:
            arrivals = stack.arrivals
            if arrivals is None:
                arrivals = stack.arrivals = {}
                for rv, entry in enumerate(self._table(stack)):
                    if entry[0] == "vertex":
                        arrivals[entry[1]] = arrivals.get(entry[1], 0) | (1 << rv)
            got = 0
            for q in iter_bits(vb):
                got |= arrivals.get(q, 0)
            stack.veils[vb] = got
        return got

    # ------------------------------------------------------------------
    # relevance

    def _relevance(self, node, frames, sig: tuple, ra: int) -> int:
        """Real vertices whose claims ``node`` may still react to.

        The union of the node's own relevance, each active layer's
        relevance (plus its win residue) and, for bounded-win nodes, the
        edges within reach; the whole board when nothing bounds it.  Only
        stateful layers with a relevance callback depend on the claim
        masks: by the ``Layer.stateful`` contract the memo key ignores the
        masks of stateless layers, so their relevance, like that of layers
        without a callback, is computed once per stack.
        """
        stack = frames[-1].stack if frames else self.root
        rel = stack.node_rel.get(id(node))
        if rel is None:
            static = self.node_rel.get(id(node))
            if static is not None:
                rel = self._to_real(static, stack)
            elif frames or isinstance(node, (_BW, _BWAfter)):
                rel = 0
            else:
                rel = self.full
            stack.node_rel[id(node)] = rel
        if frames:
            fixed = stack.fixed_rel
            if fixed is None:
                fixed = stack.fixed_rel = self._fixed_relevance(frames)
            rel |= fixed
            for i, prefix in stack.stateful_rel:
                pmask = self._rel_values.get(sig[i])
                if pmask is None:
                    frame = frames[i]
                    pmask = frame.layer.relevance(frame.va, frame.vb)
                    self._rel_values[sig[i]] = pmask
                got = prefix.real_rel.get(pmask)
                if got is None:
                    got = prefix.real_rel[pmask] = self._frame_relevance(prefix, pmask)
                rel |= got
        if isinstance(node, (_BW, _BWAfter)):
            va = frames[-1].va if frames else ra
            rel |= self._bw_entry(stack, va, node.k)[0]
        return rel

    def _fixed_relevance(self, frames) -> int:
        """Relevance of the layers whose relevance ignores their masks."""
        rel = 0
        for frame in frames:
            layer = frame.layer
            if layer.relevance is None:
                pmask = self._embed_mask(layer, layer.board.full_mask)
            elif not layer.stateful:
                pmask = layer.relevance(frame.va, frame.vb)
            else:
                continue
            rel |= self._frame_relevance(frame.stack, pmask)
        return rel

    def _frame_relevance(self, stack: _Stack, pmask: int) -> int:
        """Real image of ``stack.layer``'s parent-board relevance mask,
        with the layer's win residue added."""
        return self._to_real(pmask | self._win_residue(stack), stack.parent)

    def _win_residue(self, stack: _Stack) -> int:
        """Parent-board vertices of win edges that lie outside the layer.

        Completing a virtual edge only wins when its real counterpart is
        complete, so any extra vertices the real edge carries must stay in
        the memo key.
        """
        layer = stack.layer
        got = self._residues.get(id(layer))
        if got is None:
            parent = stack.parent.layer.board if stack.parent.layer else self.h
            image = self._embed_mask(layer, layer.board.full_mask)
            got = 0
            for pe in layer.win_edges.values():
                got |= parent.edge_masks[pe] & ~image
            self._residues[id(layer)] = got
        return got

    def _bw_entry(self, stack: _Stack, va: int, k: int):
        """Bounded-win data for Maker mask ``va`` on the innermost board.

        Returns (union, candidates).  ``union`` is the real image of every
        edge within ``k`` of completion, killed or not: opponent stones
        that rule such an edge out and Maker stones that brought it within
        reach must both stay inside the memo key, so neither occupancy mask
        filters it.  ``candidates`` lists (edge mask, needed vertices,
        count, real image of the needed vertices) for the edges that need
        between 1 and ``k`` more claims, in board order.
        """
        key = (va, k)
        got = stack.bw.get(key)
        if got is None:
            board = stack.layer.board if stack.layer else self.h
            edges = stack.edges
            if edges is None:
                edges = stack.edges = tuple(
                    self._to_real(mask, stack) for mask in board.edge_masks
                )
            free = ~self._to_real(va, stack)
            union = 0
            candidates = []
            for mask, real in zip(board.edge_masks, edges):
                needed = mask & ~va
                u = needed.bit_count()
                if u > k:
                    continue
                union |= real
                if u:
                    candidates.append((mask, tuple(iter_bits(needed)), u, real & free))
            got = stack.bw[key] = (union, tuple(candidates))
        return got

    # ------------------------------------------------------------------
    # Maker moves

    def _claim(self, v: int, frames, ra: int, rb: int, then):
        """Claim innermost-board vertex ``v`` for Maker and continue.

        Records the claim on every active layer, checks real then virtual
        edge completion (innermost first), fires ``on_win`` continuations in
        the owning layer's parent context, and otherwise proceeds to
        ``then`` at the opponent's turn.
        """
        coords = [0] * len(frames)
        rv = v
        for i in range(len(frames) - 1, -1, -1):
            coords[i] = rv
            rv = frames[i].layer.embed[rv]
        if (ra | rb) >> rv & 1:
            self._fail("occupied_claim", f"strategy claims occupied vertex {rv}")
        new_frames = tuple([
            _Frame(f.layer, f.va | (1 << c), f.vb, f.stack)
            for f, c in zip(frames, coords)
        ])
        ra_new = ra | (1 << rv)
        self.path.append(("maker", rv))
        self.expansions += 1
        if len(self.path) > self.max_depth:
            self.max_depth = len(self.path)
        if len(self.path) > _LINE_LIMIT:
            self._fail("ill_formed", f"line exceeds {_LINE_LIMIT} real moves")
        try:
            for e in self.incidence[rv]:
                if self.edge_masks[e] & ~ra_new == 0:
                    if isinstance(then, WinNow):
                        self._win_now(then, new_frames, ra_new)
                    return
            for i in range(len(new_frames) - 1, -1, -1):
                layer = new_frames[i].layer
                if not layer.on_win:
                    continue
                va = new_frames[i].va
                c = coords[i]
                for e in layer.board.incidence[c]:
                    if layer.board.edge_masks[e] & ~va:
                        continue
                    cont = layer.on_win.get(e)
                    if cont is None:
                        continue
                    self._opponent_turn(cont, new_frames[:i], ra_new, rb)
                    return
            if then is None:
                self._fail(
                    "leaf_without_win",
                    f"leaf claims vertex {rv} without completing an edge",
                )
            self._opponent_turn(then, new_frames, ra_new, rb)
        finally:
            self.path.pop()

    def _opponent_turn(self, node, frames, ra: int, rb: int):
        node, frames = self._enter(node, frames)
        if isinstance(node, Respond) or isinstance(node, _BWAfter):
            self._expand_opponent(node, frames, ra, rb)
        elif node is None:
            self._fail("leaf_without_win", "strategy ends while the game is open")
        else:
            self._fail(
                "ill_formed",
                f"{type(node).__name__} node reached at the opponent's turn",
            )

    def _maker_turn(self, node, frames, ra: int, rb: int):
        node, frames = self._enter(node, frames)
        if isinstance(node, Claim):
            self._claim(node.vertex, frames, ra, rb, node.then)
        elif isinstance(node, ClaimFirstFree):
            for v in node.vertices:
                if (ra | rb) >> self._real_vertex(v, frames) & 1:
                    continue
                self._claim(v, frames, ra, rb, node.then)
                return
            self._fail(
                "occupied_claim",
                f"no free vertex among {tuple(node.vertices)}",
            )
        elif isinstance(node, WinNow):
            self._win_now(node, frames, ra)
        elif isinstance(node, _BW):
            self._expand_bw(node, frames, ra, rb)
        elif isinstance(node, Respond):
            self._fail("ill_formed", "Respond node reached at Maker's turn")
        elif node is None:
            self._fail("leaf_without_win", "strategy ends at Maker's turn")
        else:
            self._fail("ill_formed", f"unknown node {type(node).__name__}")

    def _win_now(self, node: WinNow, frames, ra: int):
        e = node.edge
        for i in range(len(frames) - 1, -1, -1):
            layer = frames[i].layer
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

    def _expand_opponent(self, node, frames, ra: int, rb: int):
        unclaimed = self.full & ~(ra | rb)
        if unclaimed == 0:
            self._fail("leaf_without_win", "board exhausted before Maker won")
        stack = frames[-1].stack if frames else self.root
        sig = _sig(frames)
        rel = self._relevance(node, frames, sig, ra)
        replies = unclaimed & rel
        out = unclaimed & ~rel
        if out:
            # Each out-of-relevance class contributes its lowest free member;
            # veiled claims join the invisible-move class, or form their own
            # when no vertex passes every layer.
            masks, pass_gi = self._node_groups(stack, node)
            hidden = out & self._veiled_mask(frames)
            visible = out & ~hidden
            profile = []
            for gi, mask in enumerate(masks):
                members = mask & visible
                if gi == pass_gi:
                    members |= hidden
                replies |= members & -members
                profile.append(1 if members else 0)
            if pass_gi is None:
                replies |= hidden & -hidden
                profile.append(1 if hidden else 0)
            profile = tuple(profile)
        else:
            profile = ()
        key = (id(node), sig, ra & rel, rb & rel, profile)
        got = self.memo.get(key)
        if got is True:
            return
        if got is not None:
            raise _Fail(Counterexample(got[0], tuple(self.path), got[1]))
        self.expansions += 1
        try:
            for v in iter_bits(replies):
                self._reply(node, frames, stack, ra, rb, v)
        except _Fail as fail:
            self.memo[key] = (fail.cex.kind, fail.cex.detail)
            raise
        self.memo[key] = True

    def _reply(self, node, frames, stack: _Stack, ra: int, rb: int, v: int):
        entry = self._table(stack)[v]
        kind = entry[0]
        rb2 = rb | (1 << v)
        self.path.append(("breaker", v))
        if len(self.path) > self.max_depth:
            self.max_depth = len(self.path)
        if len(self.path) > _LINE_LIMIT:
            self._fail("ill_formed", f"line exceeds {_LINE_LIMIT} real moves")
        try:
            if kind == "dyn":
                _kind, fi, _gi, effects, coord = entry
                frame = frames[fi]
                target = frame.layer.translate(coord, frame.va, frame.vb)
                if target is not None:
                    effects = effects + ((fi, target),)
                resolved = ("vertex", target, effects) if target is not None else ("pass", effects)
                self._resolved_reply(node, frames, ra, rb2, resolved)
            elif kind == "answer":
                self._answer_reply(node, frames, ra, rb2, entry)
            else:
                self._resolved_reply(node, frames, ra, rb2, entry)
        finally:
            self.path.pop()

    def _apply_effects(self, frames, effects):
        if not effects:
            return frames
        new = list(frames)
        for fi, coord in effects:
            f = new[fi]
            new[fi] = _Frame(f.layer, f.va, f.vb | (1 << coord), f.stack)
        return tuple(new)

    def _answer_reply(self, node, frames, ra: int, rb2: int, entry):
        ans = entry[1]
        frames2 = self._apply_effects(frames, entry[2])
        if (ra | rb2) >> ans & 1:
            self._resolved_reply(node, frames2, ra, rb2, ("pass", ()))
            return
        ra2 = ra | (1 << ans)
        self.path.append(("maker", ans))
        self.expansions += 1
        if len(self.path) > self.max_depth:
            self.max_depth = len(self.path)
        try:
            for e in self.incidence[ans]:
                if self.edge_masks[e] & ~ra2 == 0:
                    return
            self._expand_opponent(node, frames2, ra2, rb2)
        finally:
            self.path.pop()

    def _resolved_reply(self, node, frames, ra: int, rb2: int, entry):
        invisible = entry[0] == "pass"
        if (
            not invisible
            and frames
            and frames[-1].stack.veil
            and frames[-1].vb >> entry[1] & 1
        ):
            # The resolved coordinate already counts as the opponent's, so
            # this claim tells the layers nothing new.
            invisible = True
        frames2 = self._apply_effects(frames, entry[-1])
        if isinstance(node, _BWAfter):
            self._maker_turn(_bw_node(node.k), frames2, ra, rb2)
            return
        if invisible:
            if node.default is None:
                if not frames2 or not frames2[-1].layer.stateful:
                    self._fail(
                        "ill_formed",
                        "opponent move invisible to a defaultless Respond",
                    )
                frame = frames2[-1]
                free = frame.layer.board.full_mask & ~(frame.va | frame.vb)
                if free == 0:
                    self._fail(
                        "uncovered_reply",
                        "invisible move reaches a defaultless Respond on a "
                        "full board",
                    )
                # Imagine the opponent made the lowest free move instead and
                # answer that; the mark keeps later play consistent with the
                # pretence.
                stand_in = (free & -free).bit_length() - 1
                branch = self._branch_map(node).get(stand_in)
                if branch is None:
                    self._fail(
                        "uncovered_reply",
                        f"stand-in vertex {stand_in} matches no reply class",
                    )
                frames2 = frames2[:-1] + (
                    _Frame(frame.layer, frame.va, frame.vb | (1 << stand_in), frame.stack),
                )
                child = node.branches[branch][1]
            else:
                child = node.default
        else:
            v = entry[1]
            branch = self._branch_map(node).get(v)
            if branch is not None:
                child = node.branches[branch][1]
            elif node.default is not None:
                child = node.default
            else:
                self._fail(
                    "uncovered_reply",
                    f"reply {v} matches no reply class and there is no default",
                )
        if isinstance(child, BoundedWin):
            child = _bw_node(child.k)
        self._maker_turn(child, frames2, ra, rb2)

    # ------------------------------------------------------------------
    # bounded-win search

    def _expand_bw(self, node: _BW, frames, ra: int, rb: int):
        k = node.k
        if frames:
            frame = frames[-1]
            stack, va, vb = frame.stack, frame.va, frame.vb
        else:
            stack, va, vb = self.root, ra, rb
        sig = _sig(frames)
        rel = self._relevance(node, frames, sig, ra)
        key = (id(node), sig, ra & rel, rb & rel)
        got = self.memo.get(key)
        if got is True:
            return
        if got is not None:
            raise _Fail(Counterexample(got[0], tuple(self.path), got[1]))
        self.expansions += 1
        occupied = ra | rb
        best: dict = {}
        for mask, needed, u, real_needed in self._bw_entry(stack, va, k)[1]:
            # the edge is still winnable when the opponent holds none of its
            # virtual or real vertices
            if mask & vb or real_needed & occupied:
                continue
            for v in needed:
                if u < best.get(v, k + 1):
                    best[v] = u
        detail = f"no win within {k} Maker moves from here"
        then = _bw_after(k - 1) if k > 1 else None
        for v in sorted(best, key=lambda v: (best[v], v)):
            try:
                self._claim(v, frames, ra, rb, then)
            except _Fail:
                continue
            self.memo[key] = True
            return
        self.memo[key] = ("bounded_win_failure", detail)
        self._fail("bounded_win_failure", detail)


def verify_maker_strategy(
    h: Hypergraph,
    s: StrategyTree,
    first_mover: Side | None = None,
    worker_count: int = 1,
) -> VerificationReport:
    """Check ``s`` against every opponent line on ``h``.

    ``first_mover`` must match the strategy's declared first mover when
    given.  The result never raises for defects in the strategy itself:
    those are reported as the first counterexample in canonical move order.
    ``worker_count`` is accepted for interface symmetry with the solvers;
    lines are explored in canonical order regardless, so the whole report —
    not just the verdict — is identical for every value.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be positive")
    if s.board != h:
        raise ValueError("strategy board does not match the hypergraph")
    mover = s.first_mover if first_mover is None else first_mover
    if mover is not s.first_mover:
        raise ValueError("first_mover does not match the strategy")
    machine = _Machine(h, s)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, _RECURSION_LIMIT))
    started = time.perf_counter()
    try:
        if mover is Side.A:
            machine._maker_turn(s.root, (), 0, 0)
        else:
            machine._opponent_turn(s.root, (), 0, 0)
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


def audit_coverage(s: StrategyTree) -> dict:
    """Which reply class handles each vertex as the opponent's first move.

    Descends through any initial layers at the empty position, resolves each
    board vertex the way the verifier would, and maps it to the covering
    class name, ``"default"``, or ``None`` when nothing covers it.
    """
    layers: list = []
    node = s.root
    while isinstance(node, EnterLayer):
        layers.append(node.layer)
        node = node.then
    if not isinstance(node, Respond):
        raise ValueError("the strategy root is not a Respond node")
    coverage: dict = {}
    for v in range(s.board.vertex_count):
        coord = v
        resolved: int | None = coord
        for layer in layers:
            if coord in layer.answers:
                resolved = None
                break
            nxt = layer.translate(coord, 0, 0)
            if nxt is None:
                resolved = None
                break
            coord = nxt
            resolved = coord
        name = None
        if resolved is not None:
            for cls, _child in node.branches:
                if resolved in cls:
                    name = cls.name
                    break
        if name is None and node.default is not None:
            name = "default"
        coverage[v] = name
    return coverage
