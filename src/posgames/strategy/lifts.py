"""Lifting a verified base-board strategy to the derived boards.

``lift_gamma_prime`` replays a pentagon strategy on the gadget board: real
moves on surviving pentagon vertices carry over unchanged, a move anywhere
in a gadget counts as a move on that spoke's tip while the tip is free,
and completing a spoke hands control to a scripted six-move gadget
endgame.  Once the tip is taken, a later move in its gadget means nothing
to the pentagon game, so it is a pass until the endgame starts.

``lift_g4`` wraps a gadget-board strategy in the apex opening: Maker walks
the apex chain while Breaker answers in the matching region, and enters the
first copy Breaker neglects.  A copy sees only its own vertices, so
Breaker's move off it is a pass, and a pass never hurts Maker (Hefetz,
Krivelevich, Stojaković & Szabó, *Positional Games*, 2014): the copy's
opening answers it as Breaker's opening on base vertex 0, w_1.

``lift_split`` replays a strategy for ``h`` on ``split_pendant(h)``: each
opponent move on a pendant is answered on its twin, and completing a base
edge ends with a claim of whichever pendant survives.
"""

from __future__ import annotations

from dataclasses import replace

from ..constructions import (
    G4_COPY_OFFSETS,
    g4_s,
    g4_v,
    gadget_y,
    gadget_z,
    gamma_t,
    gamma_w,
    gamma_x,
    gen_g4,
    gen_gamma,
    gen_gamma_prime,
    split_pendant,
)
from ..core import Hypergraph, Side
from .layers import Layer
from .nodes import (
    BoundedWin,
    Claim,
    ClaimFirstFree,
    EnterLayer,
    Node,
    ReplyClass,
    Respond,
    StrategyTree,
    WinNow,
    iter_nodes,
)

__all__ = ["lift_g4", "lift_gamma_prime", "lift_split"]

_APEX_MASK = ((1 << 7) - 1) << 555


def _block_mask(g: int) -> int:
    """Gadget-board mask of the ten fresh vertices of spoke ``g`` (0..14)."""
    return ((1 << 10) - 1) << (35 + 10 * g)


def _gadget_endgame(i: int, j: int) -> Node:
    """Scripted finish inside gadget (i, j) once its spoke is complete.

    Maker owns w, x and t, so the three edges pairing consecutive y's are
    one move from double duty; whatever Breaker does first, two forced
    trades leave both z-edges of one parity open.  Every reply dispatch
    carries the gadget and its spoke as its relevance.
    """
    rel = (
        _block_mask(3 * (i - 1) + (j - 1))
        | (1 << gamma_w(i))
        | (1 << gamma_x(i, j))
        | (1 << gamma_t(i, j))
    )

    def y(k: int) -> int:
        return gadget_y(i, j, k)

    def z(k: int) -> int:
        return gadget_z(i, j, k)

    def chain(steps, final: int) -> Node:
        node: Node = Claim(final, Respond((), BoundedWin(2), rel))
        for v, reply in reversed(steps):
            cls = ReplyClass(f"y{i}{j}{reply - gadget_y(i, j, 1) + 1}",
                             frozenset((reply,)))
            node = Claim(v, Respond(((cls, node),), BoundedWin(2), rel))
        return node

    to_odd_a = chain([(y(3), y(4)), (y(5), y(6))], y(1))
    to_even_c = chain([(y(6), y(5)), (y(2), y(1))], y(4))
    to_even_d = chain([(y(5), y(6)), (y(1), y(2))], y(3))
    to_even_e = chain([(y(4), y(3)), (y(2), y(1))], y(6))
    to_odd_f = chain([(y(3), y(4)), (y(1), y(2))], y(5))
    default = chain([(y(4), y(3)), (y(6), y(5))], y(2))
    return Respond(
        (
            (ReplyClass("even-pair", frozenset((y(2), z(3), z(4)))), to_odd_a),
            (ReplyClass("y3", frozenset((y(3),))), to_even_c),
            (ReplyClass("y4", frozenset((y(4),))), to_even_d),
            (ReplyClass("y5", frozenset((y(5),))), to_even_e),
            (ReplyClass("y6", frozenset((y(6),))), to_odd_f),
        ),
        default,
        rel,
    )


def lift_gamma_prime(s: StrategyTree) -> StrategyTree:
    """Lift a pentagon strategy (Breaker first) to the gadget board."""
    base = gen_gamma()
    if s.board != base:
        raise ValueError("expected a strategy for the pentagon board")
    if s.first_mover is not Side.B:
        raise ValueError("expected a strategy with Breaker moving first")
    for node in iter_nodes(s.root):
        if isinstance(node, WinNow) and not 0 <= node.edge < 20:
            raise ValueError(
                "base strategy must win on spoke or long edges only"
            )
    target = gen_gamma_prime()

    layer = Layer(
        name="pentagon-over-gadgets",
        board=base,
        embed=tuple(range(35)),
        win_edges={15 + k: 105 + k for k in range(5)},
        on_win={
            3 * (i - 1) + (j - 1): _gadget_endgame(i, j)
            for i in range(1, 6)
            for j in range(1, 4)
        },
        # the pentagon vertices travel in the layer's own claim masks, and
        # the gadget interiors are relevant through their groups
        relevance=0,
        dynamic_groups={
            v: gamma_t(i, j)
            for i in range(1, 6)
            for j in range(1, 4)
            for v in (
                gamma_t(i, j),
                *(gadget_y(i, j, k) for k in range(1, 7)),
                *(gadget_z(i, j, k) for k in range(1, 5)),
            )
        },
    )
    return StrategyTree(target, Side.B, EnterLayer(layer, s.root))


def lift_g4(s: StrategyTree) -> StrategyTree:
    """Wrap a gadget-board strategy (Breaker first) in the apex opening."""
    base = gen_gamma_prime()
    if s.board != base:
        raise ValueError("expected a strategy for the gadget board")
    if s.first_mover is not Side.B:
        raise ValueError("expected a strategy with Breaker moving first")
    gadget = s.root
    if not (
        isinstance(gadget, EnterLayer)
        and type(gadget.then) is Respond
        and gadget.then.default is None
    ):
        raise ValueError("expected an EnterLayer over a Respond without a default")
    # a pass answered as the opening on base vertex 0 (see the module docstring)
    opening = gadget.then
    answer = next((child for cls, child in opening.branches if 0 in cls.vertices), None)
    if answer is None:
        raise ValueError("expected a reply class for base vertex 0")
    script = EnterLayer(gadget.layer, replace(opening, default=answer))
    target = gen_g4()
    copy_masks = []
    copy_layers = []
    for c in range(3):
        off = G4_COPY_OFFSETS[c]
        copy_layers.append(
            Layer(
                name=f"copy-{c + 1}",
                board=base,
                embed=tuple(range(off, off + 185)),
                win_edges={l: 110 * c + l for l in range(110)},
                relevance=0,
            )
        )
        copy_masks.append(((1 << 185) - 1) << off | (1 << g4_s(c + 1)))
    nxt: Node = Claim(g4_v(4), WinNow(330))
    for c in (3, 2, 1):
        region = frozenset(
            range(G4_COPY_OFFSETS[c - 1], G4_COPY_OFFSETS[c - 1] + 185)
        ) | {g4_s(c)}
        enter = Claim(g4_s(c), EnterLayer(copy_layers[c - 1], script))
        rel = _APEX_MASK
        for cc in range(c, 4):
            rel |= copy_masks[cc - 1]
        respond = Respond(((ReplyClass(f"region-{c}", region), nxt),), enter, rel)
        nxt = Claim(g4_v(c), respond)
    return StrategyTree(target, Side.A, nxt)


def lift_split(s: StrategyTree, h: Hypergraph) -> StrategyTree:
    """Replay a strategy for ``h`` on the pendant-split of ``h``."""
    if s.board != h:
        raise ValueError("strategy board does not match the base hypergraph")
    target = split_pendant(h)
    n = h.vertex_count
    answers = {}
    on_win = {}
    for e in range(len(h.edges)):
        xe, ye = n + 2 * e, n + 2 * e + 1
        answers[xe] = ye
        answers[ye] = xe
        on_win[e] = Respond((), ClaimFirstFree((xe, ye)))
    layer = Layer(
        name="pendant-split",
        board=h,
        embed=tuple(range(n)),
        on_win=on_win,
        answers=answers,
    )
    return StrategyTree(target, s.first_mover, EnterLayer(layer, s.root))
