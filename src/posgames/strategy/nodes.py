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

from dataclasses import dataclass, replace
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
    surrounding script plays on)."""

    name: str
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


def conjugate(s: StrategyTree, perm) -> StrategyTree:
    """Relabel a strategy through a board automorphism: claim vertices,
    reply classes, node relevance masks and win-edge indices all map
    through ``perm``.  The verification verdict is invariant.

    Raises ``ValueError`` when ``perm`` is not an automorphism, when the
    script names a vertex or edge off the board (a relevance mask names
    its bits), and on any ``EnterLayer``: the script under a layer names
    vertices of the layer's board, which ``perm`` does not act on, so
    relabelling it would need the layer itself conjugated too."""
    if not is_automorphism(s.board, perm):
        raise ValueError("permutation is not an automorphism of the board")
    # a dict, so that an off-board vertex is a KeyError, not a wrapped index
    to = dict(enumerate(perm))
    edge_sets = {frozenset(e): i for i, e in enumerate(s.board.edges)}
    cache: dict[int, Node] = {}

    def conv(node: Node | None) -> Node | None:
        if node is None:
            return None
        got = cache.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Claim):
            out: Node = Claim(to[node.vertex], conv(node.then))
        elif isinstance(node, ClaimFirstFree):
            out = ClaimFirstFree(tuple(to[v] for v in node.vertices), conv(node.then))
        elif isinstance(node, WinNow):
            if not 0 <= node.edge < len(s.board.edges):
                raise ValueError(
                    f"WinNow names edge {node.edge}, which is not on the board"
                )
            image = frozenset(to[v] for v in s.board.edges[node.edge])
            out = WinNow(edge_sets[image])
        elif isinstance(node, Respond):
            branches = tuple(
                (ReplyClass(c.name, frozenset(to[v] for v in c.vertices)), conv(child))
                for c, child in node.branches
            )
            default = node.default
            if isinstance(default, (Claim, ClaimFirstFree, Respond, WinNow, EnterLayer)):
                default = conv(default)
            rel = node.relevance
            if rel is not None:
                if rel < 0:
                    raise ValueError("node relevance mask is negative")
                rel = sum(1 << to[v] for v in iter_bits(rel))
            out = Respond(branches, default, rel)
        elif isinstance(node, EnterLayer):
            raise ValueError(
                f"cannot conjugate a script that enters layer {node.layer.name!r}"
            )
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown node {node!r}")
        cache[id(node)] = out
        return out

    try:
        root = conv(s.root)
    except KeyError as missing:
        raise ValueError(
            f"strategy names vertex {missing.args[0]}, which is not on the board"
        ) from None
    return StrategyTree(s.board, s.first_mover, root)


def is_conjugate(a, b, perm, board: Hypergraph) -> bool:
    """Whether script ``b`` is script ``a`` relabelled through the
    permutation ``perm`` of ``board``, as ``conjugate`` relabels it, except
    that reply classes are compared by vertex set and not by name.  A
    script that enters a layer or names anything off the board is never
    the image of another."""
    to = dict(enumerate(perm))
    edge_masks = board.edge_masks
    seen: dict = {}

    def image(mask: int):
        if mask < 0 or mask >> len(perm):
            return None
        return sum(1 << to[v] for v in iter_bits(mask))

    def vertices(vs) -> list:
        return [to.get(v) for v in vs]

    def same(a, b) -> bool:
        key = (id(a), id(b))
        got = seen.get(key)
        if got is None:
            got = seen[key] = compare(a, b)
        return got

    def compare(a, b) -> bool:
        kind = type(a)
        if kind is not type(b):
            return False
        if a is None or kind is BoundedWin:
            return a == b
        if kind is Claim:
            return to.get(a.vertex) == b.vertex and same(a.then, b.then)
        if kind is ClaimFirstFree:
            return vertices(a.vertices) == list(b.vertices) and same(a.then, b.then)
        if kind is WinNow:
            m = len(edge_masks)
            return (
                0 <= a.edge < m
                and 0 <= b.edge < m
                and image(edge_masks[a.edge]) == edge_masks[b.edge]
            )
        if kind is Respond:
            if len(a.branches) != len(b.branches):
                return False
            if (a.relevance is None) != (b.relevance is None) or (
                a.relevance is not None and image(a.relevance) != b.relevance
            ):
                return False
            for (cls_a, child_a), (cls_b, child_b) in zip(a.branches, b.branches):
                if set(vertices(cls_a.vertices)) != cls_b.vertices:
                    return False
                if not same(child_a, child_b):
                    return False
            return same(a.default, b.default)
        return False

    return same(a, b)
