"""Scripted Maker-strategy trees.

A strategy is a finite tree (shared subtrees make it a DAG) of four node
kinds: Maker claims, opponent-reply dispatches, explicit win assertions, and
entries into virtual layers (used by the lifting constructions).  Trees are
immutable; surgery helpers rebuild the spine.

Verification semantics live in :mod:`posgames.strategy.verifier`; the key
convention to know when reading scripts is that a line ends successfully the
moment a real edge is fully Maker-claimed (checked after every claim), so a
final ``Claim(v, WinNow(e))`` acts as "claim v, which completes e".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Union

from ..core import Hypergraph, Side, is_automorphism, iter_bits

__all__ = [
    "Claim",
    "ClaimFirstFree",
    "Respond",
    "ReplyClass",
    "BoundedWin",
    "WinNow",
    "EnterLayer",
    "Node",
    "StrategyTree",
    "iter_nodes",
    "replace_first",
    "conjugate",
    "is_conjugate",
]


@dataclass(frozen=True)
class ReplyClass:
    """A named set of opponent replies (in the coordinates of the board the
    surrounding script plays on).  Classes compare by vertex set: the name
    is a label for readers and reports."""

    name: str = field(compare=False)
    vertices: frozenset

    def __contains__(self, v: int) -> bool:
        return v in self.vertices


@dataclass(frozen=True)
class BoundedWin:
    """Default rule: Maker completes an edge within k of his own moves; the
    verifier discharges it by exhaustive search."""

    k: int = 2


@dataclass(frozen=True)
class WinNow:
    """Assert that the given edge (of the script's board) is now fully
    Maker-claimed.  Reached only if the completing claim somehow failed to
    end the line, so it doubles as a tripwire for broken scripts."""

    edge: int


@dataclass(frozen=True)
class Claim:
    """Maker claims a vertex.  ``then`` may be None when the claim must end
    the line by completing an edge."""

    vertex: int
    then: "Node | None" = None


@dataclass(frozen=True)
class ClaimFirstFree:
    """Maker claims the first listed vertex that is still unclaimed (used by
    leaf adapters whose exact target depends on earlier exchanges)."""

    vertices: tuple
    then: "Node | None" = None


@dataclass(frozen=True)
class Respond:
    """Opponent to move: dispatch on the (translated) reply.  ``default``
    handles replies outside every branch: a node, a BoundedWin rule, or None
    (in which case an unlisted reply is a verification failure).

    ``relevance`` optionally bounds, as a vertex mask on the node's own
    board, which claims can still matter below this node; the verifier uses
    it to collapse equivalent opponent deviations."""

    branches: tuple  # of (ReplyClass, Node)
    default: "Node | BoundedWin | None" = None
    relevance: int | None = None


@dataclass(frozen=True, eq=False)
class EnterLayer:
    """Switch to a virtual layer and run ``then`` (a node scripted on the
    layer's board) inside it."""

    layer: "object"
    then: "Node"


Node = Union[Claim, ClaimFirstFree, Respond, WinNow, EnterLayer]


@dataclass(frozen=True, eq=False)
class StrategyTree:
    """A complete scripted strategy: the board it plays on, who moves first,
    and the root node."""

    board: Hypergraph
    first_mover: Side
    root: Node


def iter_nodes(node: Node) -> Iterator[Node]:
    """All nodes reachable from ``node`` (each shared subtree visited once),
    in deterministic depth-first order."""
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        yield n
        if isinstance(n, (Claim, ClaimFirstFree, EnterLayer)):
            if n.then is not None:
                stack.append(n.then)
        elif isinstance(n, Respond):
            if isinstance(n.default, (Claim, ClaimFirstFree, Respond, WinNow, EnterLayer)):
                stack.append(n.default)
            for _cls, child in reversed(n.branches):
                stack.append(child)


def replace_first(node: Node, pred: Callable[[Node], bool], repl: Callable[[Node], Node]):
    """Rebuild the tree with the first node satisfying ``pred`` (depth-first,
    branches in listed order before defaults) replaced by ``repl(node)``.
    Returns (new_root, found)."""
    if pred(node):
        return repl(node), True
    if isinstance(node, (Claim, ClaimFirstFree, EnterLayer)):
        if node.then is None:
            return node, False
        child, hit = replace_first(node.then, pred, repl)
        return (replace(node, then=child) if hit else node), hit
    if isinstance(node, Respond):
        new_branches = []
        for i, (cls, child) in enumerate(node.branches):
            sub, hit = replace_first(child, pred, repl)
            if hit:
                new_branches = list(node.branches)
                new_branches[i] = (cls, sub)
                return replace(node, branches=tuple(new_branches)), True
        if isinstance(node.default, (Claim, ClaimFirstFree, Respond, WinNow, EnterLayer)):
            sub, hit = replace_first(node.default, pred, repl)
            if hit:
                return replace(node, default=sub), True
    return node, False


def _relabel(root: Node, perm, board: Hypergraph) -> Node:
    """``root``, a script on ``board``, relabelled through the vertex map
    ``perm``: claim vertices, reply classes, node relevance masks and
    win-edge indices all map through it, and a shared subtree stays shared.

    Raises ``KeyError`` on a vertex off the board or an edge that ``perm``
    maps off it, and ``ValueError`` on an edge index off the board, a
    negative relevance mask and any ``EnterLayer``: the script under a
    layer names vertices of the layer's board, which ``perm`` does not act
    on."""
    # a dict, so that an off-board vertex is a KeyError, not a wrapped index
    to = dict(enumerate(perm))
    masks = board.edge_masks
    cache: dict[int, Node] = {}

    def conv(node):
        if node is None or type(node) is BoundedWin:
            return node
        got = cache.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Claim):
            out: Node = Claim(to[node.vertex], conv(node.then))
        elif isinstance(node, ClaimFirstFree):
            out = ClaimFirstFree(tuple(to[v] for v in node.vertices), conv(node.then))
        elif isinstance(node, WinNow):
            if not 0 <= node.edge < len(masks):
                raise ValueError(
                    f"WinNow names edge {node.edge}, which is not on the board"
                )
            image = sum(1 << to[v] for v in iter_bits(masks[node.edge]))
            # the image is one of the edges through the image of any vertex
            near = board.incidence[to[board.edges[node.edge][0]]]
            out = WinNow({masks[f]: f for f in near}[image])
        elif isinstance(node, Respond):
            branches = tuple(
                (ReplyClass(c.name, frozenset(to[v] for v in c.vertices)), conv(child))
                for c, child in node.branches
            )
            rel = node.relevance
            if rel is not None:
                if rel < 0:
                    raise ValueError("node relevance mask is negative")
                rel = sum(1 << to[v] for v in iter_bits(rel))
            out = Respond(branches, conv(node.default), rel)
        elif isinstance(node, EnterLayer):
            name = getattr(node.layer, "name", node.layer)
            raise ValueError(f"cannot conjugate a script that enters layer {name!r}")
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown node {node!r}")
        cache[id(node)] = out
        return out

    return conv(root)


def conjugate(s: StrategyTree, perm) -> StrategyTree:
    """Relabel a strategy through a board automorphism (see ``_relabel``).
    The verification verdict is invariant.

    Raises ``ValueError`` when ``perm`` is not an automorphism, when the
    script names a vertex or edge off the board (a relevance mask names
    its bits), and on any ``EnterLayer``: relabelling the script under a
    layer would need the layer itself conjugated too."""
    if not is_automorphism(s.board, perm):
        raise ValueError("permutation is not an automorphism of the board")
    try:
        root = _relabel(s.root, perm, s.board)
    except KeyError as missing:
        # an automorphism maps every edge onto an edge, so this is a vertex
        raise ValueError(
            f"strategy names vertex {missing.args[0]}, which is not on the board"
        ) from None
    return StrategyTree(s.board, s.first_mover, root)


def is_conjugate(a, b, perm, board: Hypergraph) -> bool:
    """Whether script ``b`` equals script ``a`` relabelled through the
    permutation ``perm`` of ``board`` as ``conjugate`` relabels it.  Reply
    classes compare by vertex set, not by name.  A script that enters a
    layer or names anything off the board is never the image of another."""
    try:
        return _relabel(a, perm, board) == b
    except (KeyError, ValueError):
        return False
