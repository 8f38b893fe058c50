"""Virtual layers: playing one board's strategy on a bigger board.

A layer embeds a virtual board into its parent board (the real board, or an
enclosing layer's board).  While a layer is active, Maker's scripted claims
name virtual vertices and are executed at their embedded images, and an
opponent move on an embedded image counts as the virtual vertex placed
there; a move the layer does not see is a pass.
Completing a virtual edge either maps to a parent edge whose completion is
then checked for real, or hands control to a continuation script in the
parent context (``on_win``), which is how a gadget endgame follows a virtual
win.

A layer is plain data: the verifier checks every field against the boards
where the layer is entered and derives from it everything else it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core import Hypergraph

__all__ = ["Layer"]


@dataclass(frozen=True, eq=False)
class Layer:
    """One virtual level.

    ``embed``
        virtual vertex -> parent-board vertex.  It names every virtual
        vertex and is injective.  An opponent move on ``embed[c]`` counts
        as the virtual vertex ``c`` unless ``answers`` or
        ``dynamic_groups`` claim it; a move on any other parent vertex is
        invisible to this layer (a pass).
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
        be a vertex of the parent board.  The answer is a claim on the real
        board only: it marks no layer's claim masks, so it completes no
        virtual edge and runs no ``on_win`` continuation.
    ``relevance``
        parent-board vertex mask of everything this layer may react to, or
        None for its whole embedded board.  The verifier collapses opponent
        moves outside the union of the active layers' masks.  Parent
        vertices of ``win_edges`` targets that lie outside the embedding
        are kept relevant automatically and need not be listed.  Vertices
        whose effect is fully captured by the layer's own claim masks may
        be omitted when those masks are part of the memo key.
    ``dynamic_groups``
        parent vertex -> layer vertex, its home: an opponent move on a key
        counts as the virtual vertex ``home`` while it is free in this
        layer's claim masks, and otherwise as a pass.  The keys that share
        a home form its group.  Dynamic groups are only supported on the
        innermost layer.

    ``answers`` take precedence over ``dynamic_groups``, which take
    precedence over ``embed``.

    Two properties are derived, not declared.  The layer's claim masks join
    the verifier's memo key unless the layer has no ``dynamic_groups``,
    ``on_win`` or ``answers``: every virtual claim is then the image of a
    real one.  And a group's members are relevant while the layer's Maker
    mask holds the group's home: until then a move on any member takes the
    home if it is free and is a pass if not, so the members are
    interchangeable, but once Maker holds it, which members the opponent
    has taken can matter to later play.
    """

    name: str
    board: Hypergraph
    embed: tuple
    win_edges: Mapping[int, int] = field(default_factory=dict)
    on_win: Mapping[int, object] = field(default_factory=dict)
    answers: Mapping[int, int] = field(default_factory=dict)
    relevance: int | None = None
    dynamic_groups: Mapping[int, int] = field(default_factory=dict)
