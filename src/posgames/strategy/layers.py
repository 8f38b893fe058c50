"""Virtual layers: playing one board's strategy on a bigger board.

A layer embeds a virtual board into its parent board (the real board, or an
enclosing layer's board).  While a layer is active, Maker's scripted claims
name virtual vertices and are executed at their embedded images, and each
opponent move is translated into a virtual vertex (or discarded as a pass).
Completing a virtual edge either maps to a parent edge whose completion is
then checked for real, or hands control to a continuation script in the
parent context (``on_win``), which is how a gadget endgame follows a virtual
win.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core import Hypergraph

__all__ = ["Layer"]


@dataclass(frozen=True, eq=False)
class Layer:
    """One virtual level.

    ``embed``
        virtual vertex -> parent-board vertex (injective).
    ``translate``
        (parent vertex, virtual Maker mask, virtual opponent mask) ->
        virtual vertex, or None when the move is invisible to this layer
        (a pass).
    ``win_edges``
        virtual edge index -> parent edge index; completing such a virtual
        edge delegates the win check one level up.  Every target must be an
        edge of the parent board.
    ``on_win``
        virtual edge index -> continuation node scripted on the *parent*
        board; completing such a virtual edge pops this layer and runs the
        continuation.
    ``answers``
        parent vertex -> parent vertex: an opponent move on a key is
        answered immediately by a Maker claim of the value and is otherwise
        invisible to this layer and everything below it.  Every value must
        be a vertex of the parent board.
    ``stateful``
        whether the layer's own claim masks can influence later play (they
        are then part of the verifier's memo key).  Set False only when
        every virtual claim is a faithful image of a real claim and nothing
        reads the masks.
    ``relevance``
        optional (virtual Maker mask, virtual opponent mask) -> parent-board
        vertex mask of everything this layer may still react to.  The
        verifier collapses opponent moves outside the union of the active
        layers' masks; a layer that leaves it None counts its whole
        embedded board as relevant.  A stateless layer's callback is read
        once per layer stack, at empty masks.  Parent vertices of
        ``win_edges`` targets that lie outside the embedding are kept
        relevant automatically and need not be listed.  The layer's own virtual
        claim masks travel with the layer, so vertices whose effect is
        fully captured there may be omitted when the layer is the single
        stateful one on its stack.
    ``dynamic_groups``
        parent-vertex groups whose translation depends on the layer's claim
        masks (all members must translate identically in every state); the
        translation of every other vertex must be a pure function of the
        vertex.  Dynamic groups are only supported on the innermost layer.
    """

    name: str
    board: Hypergraph
    embed: tuple
    translate: Callable[[int, int, int], int | None]
    win_edges: Mapping[int, int] = field(default_factory=dict)
    on_win: Mapping[int, object] = field(default_factory=dict)
    answers: Mapping[int, int] = field(default_factory=dict)
    stateful: bool = True
    relevance: Callable[[int, int], int] | None = None
    dynamic_groups: tuple = ()
