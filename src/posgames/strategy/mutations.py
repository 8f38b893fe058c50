"""Single-defect variants of the shipped strategies.

Each mutation applies one small, plausible-looking edit to a correct
strategy: a claim aimed at the wrong vertex, a dropped reply branch, a
weakened search bound, a mis-mapped winning edge.  They exist so the test
suite can check that verification rejects broken strategies instead of
rubber-stamping whatever it is handed.
"""

from __future__ import annotations

from dataclasses import replace

from ..constructions import (
    g4_s,
    g4_v,
    gadget_y,
    gamma_t,
    gamma_w,
    gamma_x,
    gen_g3,
)
from ..core import Hypergraph
from .builders import build_g3_strategy, build_gamma_strategy
from .layers import Layer
from .lifts import lift_g4, lift_gamma_prime, lift_split
from .nodes import (
    BoundedWin,
    Claim,
    ClaimFirstFree,
    EnterLayer,
    ReplyClass,
    Respond,
    StrategyTree,
    WinNow,
    replace_first,
)

__all__ = ["named_mutations"]


def _edit(tree: StrategyTree, pred, repl) -> StrategyTree:
    root, found = replace_first(tree.root, pred, repl)
    if not found:
        raise AssertionError("mutation target not found")
    return StrategyTree(tree.board, tree.first_mover, root)


def _edit_root_branches(tree: StrategyTree, fn) -> StrategyTree:
    root = replace(tree.root, branches=fn(tree.root.branches))
    return StrategyTree(tree.board, tree.first_mover, root)


def _edit_layer(tree: StrategyTree, fn) -> StrategyTree:
    enter = tree.root
    if not isinstance(enter, EnterLayer):
        raise AssertionError("expected a layered strategy")
    return StrategyTree(tree.board, tree.first_mover,
                        EnterLayer(fn(enter.layer), enter.then))


def _pentagon_mutations() -> list:
    w, x, t = gamma_w, gamma_x, gamma_t
    out = []

    s = build_gamma_strategy()
    out.append(("case-claims-wrong-hub", s.board, _edit(
        s,
        lambda n: isinstance(n, Claim) and n.vertex == w(2),
        lambda n: replace(n, vertex=w(3)),
    )))

    s = build_gamma_strategy()
    out.append(("forced-reply-swapped", s.board, _edit(
        s,
        lambda n: isinstance(n, Respond) and len(n.branches) == 1
        and n.branches[0][0].vertices == frozenset((t(2, 1),)),
        lambda n: replace(n, branches=(
            (ReplyClass("t22", frozenset((t(2, 2),))), n.branches[0][1]),
        )),
    )))

    s = build_gamma_strategy()
    out.append(("case-branch-dropped", s.board, _edit(
        s,
        lambda n: isinstance(n, Respond) and len(n.branches) == 2
        and n.branches[1][0].name == "toward-e2",
        lambda n: replace(n, branches=n.branches[:1]),
    )))

    s = build_gamma_strategy()

    def _shrink_hub_class(branches):
        cls, child = branches[0]
        cls = ReplyClass(cls.name, cls.vertices - {t(1, 3)})
        return ((cls, child),) + branches[1:]

    out.append(("opening-class-gap", s.board,
                _edit_root_branches(s, _shrink_hub_class)))

    s = build_gamma_strategy()
    out.append(("wrong-win-assertion", s.board, _edit(
        s,
        lambda n: isinstance(n, WinNow) and n.edge == 16,
        lambda n: WinNow(19),
    )))

    s = build_gamma_strategy()
    out.append(("default-claims-taken-vertex", s.board, _edit(
        s,
        lambda n: isinstance(n, Respond) and len(n.branches) == 2
        and n.branches[0][0].name == "toward-e4" and n.default is not None,
        lambda n: replace(n, default=Claim(w(1), n.default)),
    )))

    s = build_gamma_strategy()
    out.append(("win-asserted-too-early", s.board, _edit(
        s,
        lambda n: isinstance(n, Claim) and n.vertex == x(4, 2)
        and isinstance(n.then, WinNow),
        lambda n: n.then,
    )))

    s = build_gamma_strategy()

    def _swap_case(branches):
        cls, _ = branches[1]
        return ((branches[0],) + ((cls, branches[5][1]),) + branches[2:])

    out.append(("case-rotated-wrong", s.board,
                _edit_root_branches(s, _swap_case)))
    return out


def _gadget_mutations() -> list:
    out = []

    def lifted() -> StrategyTree:
        return lift_gamma_prime(build_gamma_strategy())

    def d_opening(layer: Layer) -> Layer:
        eg = layer.on_win[0]
        opener = replace(eg.default, vertex=gadget_y(1, 1, 1))
        return replace(layer, on_win={**layer.on_win,
                                      0: replace(eg, default=opener)})

    s = lifted()
    out.append(("endgame-wrong-opening", s.board, _edit_layer(s, d_opening)))

    def d_branch(layer: Layer) -> Layer:
        eg = layer.on_win[0]
        pruned = replace(eg, branches=eg.branches[:1] + eg.branches[2:])
        return replace(layer, on_win={**layer.on_win, 0: pruned})

    s = lifted()
    out.append(("endgame-branch-dropped", s.board, _edit_layer(s, d_branch)))

    def d_bound(layer: Layer) -> Layer:
        eg, found = replace_first(
            layer.on_win[0],
            lambda n: isinstance(n, Respond) and not n.branches
            and n.default == BoundedWin(2),
            lambda n: replace(n, default=BoundedWin(0)),
        )
        if not found:
            raise AssertionError("mutation target not found")
        return replace(layer, on_win={**layer.on_win, 0: eg})

    s = lifted()
    out.append(("endgame-bound-zero", s.board, _edit_layer(s, d_bound)))

    def d_win_edge(layer: Layer) -> Layer:
        return replace(layer, win_edges={**layer.win_edges, 19: 105})

    s = lifted()
    out.append(("long-edge-mapped-wrong", s.board,
                _edit_layer(s, d_win_edge)))
    return out


def _apex_mutations() -> list:
    out = []

    def lifted() -> StrategyTree:
        return lift_g4(lift_gamma_prime(build_gamma_strategy()))

    s = lifted()
    out.append(("advance-claims-occupied", s.board, _edit(
        s,
        lambda n: isinstance(n, Claim) and n.vertex == g4_v(2),
        lambda n: replace(n, vertex=g4_v(1)),
    )))

    s = lifted()
    out.append(("missing-opening-claim", s.board,
                StrategyTree(s.board, s.first_mover, s.root.then)))

    s = lifted()
    out.append(("switch-claims-apex", s.board, _edit(
        s,
        lambda n: isinstance(n, Claim) and n.vertex == g4_s(2),
        lambda n: replace(n, vertex=g4_v(1)),
    )))

    s = lifted()
    out.append(("switch-claimed-twice", s.board, _edit(
        s,
        lambda n: isinstance(n, Claim) and n.vertex == g4_s(2),
        lambda n: Claim(g4_s(2), Claim(g4_s(2), n.then)),
    )))
    return out


def _tree_mutations() -> list:
    out = []

    s = build_g3_strategy()
    out.append(("class-includes-own-claim", s.board, _edit(
        s,
        lambda n: isinstance(n, Respond) and n.branches
        and n.branches[0][0].name == "right-half",
        lambda n: replace(n, branches=(
            (ReplyClass("right-half",
                        n.branches[0][0].vertices | {1}),
             n.branches[0][1]),
        )),
    )))

    s = build_g3_strategy()
    out.append(("insufficient-bound", s.board, _edit(
        s,
        lambda n: isinstance(n, Respond) and not n.branches
        and n.default == BoundedWin(3),
        lambda n: replace(n, default=BoundedWin(2)),
    )))
    return out


def _split_mutations() -> list:
    out = []

    def lifted() -> StrategyTree:
        return lift_split(build_g3_strategy(), gen_g3())

    s = lifted()
    out.append(("completion-leaves-dropped", s.board,
                _edit_layer(s, lambda layer: replace(layer, on_win={}))))

    def d_shift(layer: Layer) -> Layer:
        m = len(layer.board.edges)
        n = layer.board.vertex_count
        shifted = {}
        for e in range(m):
            f = (e + 1) % m
            shifted[e] = Respond(
                (), ClaimFirstFree((n + 2 * f, n + 2 * f + 1)))
        return replace(layer, on_win=shifted)

    s = lifted()
    out.append(("completion-leaves-shifted", s.board,
                _edit_layer(s, d_shift)))
    return out


def named_mutations() -> list[tuple[str, Hypergraph, StrategyTree]]:
    """Twenty broken strategies as (name, board, tree) triples.

    Every entry is a correct shipped strategy with exactly one defect
    injected; verification must fail on each of them.
    """
    return (
        _pentagon_mutations()
        + _gadget_mutations()
        + _apex_mutations()
        + _tree_mutations()
        + _split_mutations()
    )
