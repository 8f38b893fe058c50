"""Strategy trees, the exhaustive verifier, the shipped strategies and
their lifted versions, and the mutation suite."""

from __future__ import annotations

import functools
import gc
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    g3_report,
    g3_split_report,
    g4_report,
    gamma_prime_report,
    gamma_report,
    random_hypergraph,
)
from posgames.constructions import (
    G4_COPY_OFFSETS,
    compose_perms,
    g4_s,
    g4_v,
    gadget_y,
    gamma_rho,
    gamma_sigma,
    gamma_t,
    gamma_w,
    gen_g3,
    gen_g4,
    gen_gamma,
    gen_gamma_prime,
    split_pendant,
)
from posgames.core import Automorphisms, Hypergraph, Position, Side, is_automorphism, iter_bits
from posgames.mb import solve_winner
from posgames.strategy import (
    BoundedWin,
    Claim,
    ClaimFirstFree,
    Counterexample,
    EnterLayer,
    Layer,
    ReplyClass,
    Respond,
    StrategyTree,
    WinNow,
    bounded_win,
    build_g3_strategy,
    build_gamma_strategy,
    conjugate,
    is_conjugate,
    iter_nodes,
    lift_g4,
    lift_gamma_prime,
    lift_split,
    named_mutations,
    replace_first,
    verify_maker_strategy,
)
from posgames.strategy import verifier
from posgames.strategy.lifts import _block_mask
from posgames.strategy.verifier import (
    _bw_claims,
    _fits_stack,
    _fits_state,
    _lift,
    _Machine,
    _resolve_dyn,
    _sibling_sigma,
    _Stack,
    _stateful,
)

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _tiny_board() -> Hypergraph:
    return Hypergraph(3, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# tree plumbing


def test_iter_nodes_visits_shared_subtree_once():
    shared = Claim(2, None)
    root = Respond(
        (
            (ReplyClass("a", frozenset((0,))), shared),
            (ReplyClass("b", frozenset((1,))), shared),
        ),
        None,
    )
    nodes = list(iter_nodes(root))
    assert nodes.count(shared) == 1
    assert nodes[0] is root


def test_replace_first_prefers_branches_over_default():
    root = Respond(
        ((ReplyClass("a", frozenset((0,))), Claim(1, None)),),
        Claim(1, None),
    )
    new, found = replace_first(
        root,
        lambda n: isinstance(n, Claim) and n.vertex == 1,
        lambda n: Claim(2, None),
    )
    assert found
    assert new.branches[0][1].vertex == 2
    assert new.default.vertex == 1


def test_conjugate_rejects_non_automorphism():
    s = build_g3_strategy()
    perm = list(range(15))
    perm[3], perm[9] = perm[9], perm[3]
    with pytest.raises(ValueError):
        conjugate(s, perm)


def test_conjugated_pentagon_strategy_still_verifies():
    s = conjugate(build_gamma_strategy(), gamma_rho())
    report = verify_maker_strategy(gen_gamma(), s)
    assert report.verified


def test_conjugate_maps_respond_relevance():
    """The relevance mask is relabelled with the rest of the node, so the
    conjugate collapses the same replies and explores the same lines."""
    h = Hypergraph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    reply = Respond(
        ((ReplyClass("one", frozenset((1,))), Claim(2, WinNow(1))),),
        Claim(1, WinNow(0)),
        0b110,
    )
    s = StrategyTree(h, Side.A, Claim(0, reply))
    image = conjugate(s, [3, 4, 5, 0, 1, 2])
    assert image.root.then.relevance == 0b110000
    before = verify_maker_strategy(h, s)
    after = verify_maker_strategy(h, image)
    assert before.verified and after.verified
    assert after.lines_checked == before.lines_checked


def _copy_swap(a: int, b: int, *, switches: bool = True) -> list:
    """The g4 permutation exchanging copies ``a`` and ``b`` (1..3) with
    v_a and v_b and, when ``switches``, s_a and s_b."""
    perm = list(range(gen_g4().vertex_count))
    pairs = [(G4_COPY_OFFSETS[a - 1] + i, G4_COPY_OFFSETS[b - 1] + i) for i in range(185)]
    pairs.append((g4_v(a), g4_v(b)))
    if switches:
        pairs.append((g4_s(a), g4_s(b)))
    for x, y in pairs:
        perm[x], perm[y] = y, x
    return perm


def test_is_conjugate_compares_classes_by_vertex_set():
    s = build_gamma_strategy()
    rho = gamma_rho()
    image = conjugate(s, rho).root
    renamed = replace(
        image,
        branches=tuple(
            (ReplyClass(f"c{k}", cls.vertices), child)
            for k, (cls, child) in enumerate(image.branches)
        ),
    )
    assert is_conjugate(s.root, renamed, rho, s.board)
    assert not is_conjugate(s.root, s.root, rho, s.board)
    h = _tiny_board()
    assert is_conjugate(Claim(0, WinNow(0)), Claim(1, WinNow(0)), [1, 0, 2], h)
    assert not is_conjugate(Claim(-1), Claim(-1), [1, 0, 2], h)
    layered = EnterLayer(object(), None)
    assert not is_conjugate(layered, layered, [0, 1, 2], h)


def _pentagon_group() -> list:
    """The ten elements of D5 acting on the pentagon board."""
    rho = gamma_rho()
    rotations = [list(range(len(rho)))]
    for _ in range(4):
        rotations.append(compose_perms(rho, rotations[-1]))
    sigma = gamma_sigma()
    return rotations + [compose_perms(g, sigma) for g in rotations]


def _rename_a_class(node):
    """``node`` with the first reply class found below it renamed."""
    renamed, found = replace_first(
        node,
        lambda n: isinstance(n, Respond) and n.branches,
        lambda n: replace(
            n,
            branches=(
                (ReplyClass("renamed", n.branches[0][0].vertices), n.branches[0][1]),
            )
            + n.branches[1:],
        ),
    )
    assert found
    return renamed


def test_is_conjugate_agrees_with_conjugate():
    """``is_conjugate`` accepts exactly the image that ``conjugate`` builds,
    whatever its classes are named, for every element of D5 and every root
    child of the pentagon script."""
    s = build_gamma_strategy()
    group = _pentagon_group()
    assert len({tuple(g) for g in group}) == 10
    children = [child for _cls, child in s.root.branches]
    matches = 0
    for g in group:
        for c in children:
            image = conjugate(StrategyTree(s.board, s.first_mover, c), g).root
            assert is_conjugate(c, image, g, s.board)
            renamed = _rename_a_class(image)
            assert renamed is not image
            assert is_conjugate(c, renamed, g, s.board)
            for d in children:
                assert is_conjugate(c, d, g, s.board) == (image == d)
                matches += c is not d and image == d
    assert matches


def test_conjugate_refuses_layered_strategies():
    """A script under a layer names vertices of the layer's board, which a
    real-board automorphism does not act on: relabelling the g4 strategy
    through a copy swap would leave its layers pointing at the old copies."""
    s = lift_g4(lift_gamma_prime(build_gamma_strategy()))
    with pytest.raises(ValueError, match="enters layer 'copy-"):
        conjugate(s, _copy_swap(1, 2))


@pytest.mark.parametrize(
    "root, detail",
    [
        (Claim(-1, None), "vertex -1"),
        (ClaimFirstFree((0, 3)), "vertex 3"),
        (Respond(((ReplyClass("far", frozenset((4,))), Claim(0, None)),)), "vertex 4"),
        (Respond((), Claim(0, None), 1 << 5), "vertex 5"),
        (Respond((), Claim(0, None), -1), "negative"),
        (Claim(0, WinNow(1)), "edge 1"),
    ],
)
def test_conjugate_rejects_scripts_off_the_board(root, detail):
    """An off-board vertex is reported, not wrapped onto the board by a
    negative index nor left to fail with an ``IndexError``."""
    s = StrategyTree(_tiny_board(), Side.A, root)
    with pytest.raises(ValueError, match=detail):
        conjugate(s, [1, 2, 0])


def test_strategy_tree_takes_no_relevance_table():
    h = _tiny_board()
    with pytest.raises(TypeError):
        StrategyTree(h, Side.B, Respond((), BoundedWin(2)), {})


# ---------------------------------------------------------------------------
# bounded win


def test_bounded_win_one_move():
    h = Hypergraph(2, [(0,), (1,)])
    p = Position(h)
    assert bounded_win(p, 1)
    assert not bounded_win(p, 0)


def test_bounded_win_needs_three_on_tree_board():
    h = gen_g3()
    p = Position.make(h, [0, 2], [3, 4])
    assert bounded_win(p, 3)
    assert not bounded_win(p, 2)


@pytest.mark.parametrize("layered", [False, True], ids=["plain", "split"])
def test_bounded_win_search_matches_standalone(layered):
    """A Breaker-first ``Respond((), BoundedWin(k))`` verifies exactly when
    Maker wins within k moves after every opening reply.  Through
    ``lift_split`` the same search runs inside a layer frame, from the
    layer's real-coordinate edge table."""
    rng = random.Random(9031)
    outcomes = set()
    for _ in range(40):
        h = random_hypergraph(rng, max_vertices=9, max_edges=6)
        for k in (1, 2, 3):
            want = all(
                bounded_win(Position.make(h, [], [b], Side.B), k)
                for b in range(h.vertex_count)
            )
            s = StrategyTree(h, Side.B, Respond((), BoundedWin(k)))
            if layered:
                report = verify_maker_strategy(split_pendant(h), lift_split(s, h))
            else:
                report = verify_maker_strategy(h, s)
            assert report.verified is want, (h.edges, k)
            outcomes.add(want)
    assert outcomes == {True, False}


@st.composite
def _bw_positions(draw):
    n = draw(st.integers(1, 10))
    edge = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(4, n))
    edges = draw(st.lists(edge, max_size=8, unique=True))
    owner = draw(st.lists(st.sampled_from("-ab"), min_size=n, max_size=n))
    va = sum(1 << v for v, o in enumerate(owner) if o == "a")
    vb = sum(1 << v for v, o in enumerate(owner) if o == "b")
    return Hypergraph(n, [sorted(e) for e in edges]), va, vb, draw(st.integers(1, 3))


@_SETTINGS
@given(_bw_positions())
def test_bounded_win_claim_order_is_distance_then_vertex(position):
    """The verifier's bounded-win claims come in the order of a dict of each
    vertex's fewest missing claims over the live edges, sorted by
    (distance, vertex)."""
    h, va, vb, k = position
    machine = _Machine(h)
    got = list(_bw_claims(machine._bw_entry(machine.root, va, k)[1], vb))
    best: dict = {}
    for mask in h.edge_masks:
        if mask & vb:
            continue
        needed = mask & ~va
        u = needed.bit_count()
        if 1 <= u <= k:
            for v in iter_bits(needed):
                best[v] = min(u, best.get(v, u))
    assert got == sorted(best, key=lambda v: (best[v], v))


def test_bounded_win_validates_arguments():
    h = _tiny_board()
    with pytest.raises(ValueError):
        bounded_win(Position(h), -1)
    with pytest.raises(ValueError):
        bounded_win(Position.make(h, [0], [], Side.A), 1)


# ---------------------------------------------------------------------------
# verifier failure kinds on hand-made trees


def test_verifier_reports_leaf_without_win():
    h = Hypergraph(2, [(0, 1)])
    s = StrategyTree(h, Side.A, Claim(0, None))
    report = verify_maker_strategy(h, s)
    assert not report.verified
    assert report.counterexample.kind == "leaf_without_win"


def test_verifier_reports_occupied_claim():
    h = _tiny_board()
    s = StrategyTree(h, Side.A, Claim(0, Respond((), Claim(0, None))))
    report = verify_maker_strategy(h, s)
    assert not report.verified
    assert report.counterexample.kind == "occupied_claim"


def test_verifier_reports_uncovered_reply():
    h = _tiny_board()
    s = StrategyTree(h, Side.A, Claim(0, Respond((), None)))
    report = verify_maker_strategy(h, s)
    assert not report.verified
    assert report.counterexample.kind == "uncovered_reply"


_SMALL = Layer(
    name="small",
    board=Hypergraph(2, [(0, 1)]),
    embed=(0, 1),
)


@pytest.mark.parametrize(
    "root, detail",
    [
        (Claim(7, None), "vertex 7, which is not on the board"),
        (Claim(-1, None), "vertex -1, which is not on the board"),
        (ClaimFirstFree((7,), None), "vertex 7, which is not on the board"),
        (ClaimFirstFree((0, -1), None), "vertex -1, which is not on the board"),
        (
            EnterLayer(_SMALL, Claim(3, None)),
            "vertex 3, which is not on layer 'small'",
        ),
        (
            EnterLayer(_SMALL, ClaimFirstFree((-1,), None)),
            "vertex -1, which is not on layer 'small'",
        ),
    ],
    ids=["claim-7", "claim-neg", "first-free-7", "first-free-neg", "layer-3", "layer-neg"],
)
def test_verifier_reports_claims_off_the_board(root, detail):
    """A scripted claim outside the active board is ill-formed, never an
    ``IndexError`` or a claim of a vertex reached by negative indexing."""
    h = Hypergraph(4, [(0, 1)])
    s = StrategyTree(h, Side.A, Claim(0, Respond((), root)))
    report = verify_maker_strategy(h, s)
    assert not report.verified
    cex = report.counterexample
    assert (cex.kind, cex.detail) == ("ill_formed", f"strategy claims {detail}")
    assert cex.moves == (("maker", 0), ("breaker", 1))


@pytest.mark.parametrize(
    "root, detail",
    [
        (Respond((), BoundedWin(2), 1 << 5), "the board"),
        (Respond((), BoundedWin(2), -1), "the board"),
        (EnterLayer(_SMALL, Respond((), BoundedWin(1), 1 << 2)), "layer 'small'"),
    ],
    ids=["board-5", "board-neg", "layer-2"],
)
def test_verifier_reports_respond_relevance_off_the_board(root, detail):
    """A node relevance mask naming a vertex outside the node's board is
    ill-formed, never an ``IndexError``."""
    h = Hypergraph(4, [(0, 1)])
    report = verify_maker_strategy(h, StrategyTree(h, Side.B, root))
    cex = report.counterexample
    assert (cex.kind, cex.detail, cex.moves) == (
        "ill_formed", f"node relevance leaves {detail}", ()
    )


@pytest.mark.parametrize("name", ["pentagon-over-gadgets", "copy-2"])
def test_verifier_reports_layer_relevance_off_the_board(name):
    """A layer relevance mask that leaves the layer's parent board is
    ill-formed where the layer is entered, on a stateful layer (the
    pentagon's) and on a stateless one (a g4 copy)."""
    lifted = lift_gamma_prime(build_gamma_strategy())
    if name == "copy-2":
        board, layer = gen_g4(), _copy_layers(lift_g4(lifted))[name]
        script = lifted.root
    else:
        board, layer, script = lifted.board, lifted.root.layer, lifted.root.then
    # the first vertex past the parent board
    layer = replace(layer, relevance=1 << board.vertex_count)
    tree = StrategyTree(board, Side.B, EnterLayer(layer, script))
    cex = verify_maker_strategy(board, tree).counterexample
    assert (cex.kind, cex.detail, cex.moves) == (
        "ill_formed", f"layer {name!r}: relevance leaves the parent board", ()
    )


def test_verifier_reports_ill_formed_win_assertion():
    h = Hypergraph(2, [(0, 1)])
    s = StrategyTree(h, Side.A, Claim(0, WinNow(0)))
    report = verify_maker_strategy(h, s)
    assert not report.verified
    assert report.counterexample.kind == "ill_formed"


def test_verifier_rejects_board_mismatch():
    with pytest.raises(ValueError):
        verify_maker_strategy(gen_g3(), build_gamma_strategy())


def test_verifier_checks_each_entry_of_a_reused_layer():
    """A layer whose embedding fits the real board but not a smaller
    enclosing layer is ill-formed where it is entered under that layer,
    even after an earlier line entered it legally."""
    h = Hypergraph(8, [(5,)])
    inner = Layer(
        name="inner",
        board=Hypergraph(2, [(0,)]),
        embed=(5, 6),
        win_edges={0: 0},
    )
    small = Layer(
        name="small",
        board=Hypergraph(5, [(0, 1)]),
        embed=(0, 1, 2, 3, 4),
    )
    root = Respond(
        ((ReplyClass("zero", frozenset((0,))), EnterLayer(inner, Claim(0, None))),),
        EnterLayer(small, EnterLayer(inner, Claim(0, None))),
    )
    report = verify_maker_strategy(h, StrategyTree(h, Side.B, root))
    assert not report.verified
    assert report.counterexample == Counterexample(
        "ill_formed",
        (("breaker", 1),),
        "layer 'inner': embedding leaves the parent board",
    )


@pytest.mark.parametrize("target", [7, -1], ids=["edge-7", "edge-neg"])
def test_verifier_reports_win_edge_targets_off_the_board(target):
    """A layer whose win edge maps onto an edge the parent board lacks is
    ill-formed where it is entered, never an ``IndexError`` or a target
    reached by negative indexing."""
    h = Hypergraph(4, [(0, 1), (2, 3)])
    layer = replace(_SMALL, win_edges={0: target})
    root = EnterLayer(layer, Claim(0, Respond((), BoundedWin(1))))
    cex = verify_maker_strategy(h, StrategyTree(h, Side.A, root)).counterexample
    assert cex == Counterexample(
        "ill_formed", (), "layer 'small': win edges leave the parent board"
    )


def _answering_layer(answers: dict):
    """The board {0, 1}, {0, 2} seen through an identity layer on its first
    three vertices that answers the opponent's moves as ``answers`` says,
    with Maker's script for the layer."""
    base = Hypergraph(3, [(0, 1), (0, 2)])
    h = Hypergraph(4, [(0, 1), (0, 2)])
    layer = Layer(
        name="answering",
        board=base,
        embed=(0, 1, 2),
        win_edges={0: 0, 1: 1},
        answers=answers,
    )
    script = Claim(
        0,
        Respond(
            ((ReplyClass("one", frozenset((1,))), Claim(2, WinNow(1))),),
            Claim(1, WinNow(0)),
        ),
    )
    return h, StrategyTree(h, Side.A, EnterLayer(layer, script))


@pytest.mark.parametrize(
    "answers",
    [{3: 9}, {3: -1}, {9: 3}, {-1: 3}],
    ids=["answer-9", "answer-neg", "key-9", "key-neg"],
)
def test_verifier_reports_answers_off_the_board(answers):
    """An ``answers`` value off the parent board is ill-formed where the
    layer is entered, never an ``IndexError`` or a negative shift.  So is
    a key off it, which no opponent move could ever reach."""
    h, s = _answering_layer(answers)
    cex = verify_maker_strategy(h, s).counterexample
    assert cex == Counterexample(
        "ill_formed", (), "layer 'answering': answers leave the parent board"
    )


_NO_EDGE = "on_win names no edge of the layer board"


@pytest.mark.parametrize(
    "fields, detail",
    [
        ({"embed": (0, 0, 2)}, "embedding is not injective"),
        ({"dynamic_groups": {3: 3}}, "dynamic groups leave their boards"),
        ({"dynamic_groups": {4: 0}}, "dynamic groups leave their boards"),
        ({"win_edges": {0: 0, 2: 1}}, "win edges name no edge of the layer board"),
        ({"win_edges": {-1: 0, 1: 1}}, "win edges name no edge of the layer board"),
        ({"on_win": {2: Respond((), BoundedWin(1))}}, _NO_EDGE),
        ({"on_win": {-1: Respond((), BoundedWin(1))}}, _NO_EDGE),
    ],
    ids=[
        "embed-twice",
        "home-3",
        "member-4",
        "win-edge-key-2",
        "win-edge-key-neg",
        "on-win-key-2",
        "on-win-key-neg",
    ],
)
def test_verifier_reports_malformed_layer_data(fields, detail):
    """A dynamic group whose member leaves the parent board or whose home
    leaves the layer board, an embedding that is not injective and a
    ``win_edges`` or ``on_win`` key that names no edge of the layer board
    are ill-formed where the layer is entered, never a negative shift, a
    silently recorded move off the board, a key that never fires or an
    ``occupied_claim`` later."""
    h, s = _answering_layer({})
    layer = replace(s.root.layer, **fields)
    tree = StrategyTree(h, Side.A, EnterLayer(layer, s.root.then))
    cex = verify_maker_strategy(h, tree).counterexample
    assert cex == Counterexample("ill_formed", (), f"layer 'answering': {detail}")


@pytest.mark.parametrize(
    "field, detail",
    [
        ("win_edges", "win edges name no edge of the layer board"),
        ("on_win", _NO_EDGE),
    ],
    ids=["win_edges", "on_win"],
)
def test_edge_keys_off_the_gadget_layer_are_ill_formed(field, detail):
    """A ``win_edges`` key 99 (onto the real long edge 105) or an
    ``on_win`` key 99 on the pentagon layer of gamma-prime names no edge of
    the 20-edge pentagon and could never fire, so the layer is refused
    where it is entered rather than verified without it."""
    lifted = lift_gamma_prime(build_gamma_strategy())
    layer = lifted.root.layer
    extra = {99: 105} if field == "win_edges" else {99: layer.on_win[0]}
    bad = replace(layer, **{field: {**getattr(layer, field), **extra}})
    tree = StrategyTree(lifted.board, Side.B, EnterLayer(bad, lifted.root.then))
    report = verify_maker_strategy(lifted.board, tree)
    assert report.counterexample == Counterexample(
        "ill_formed", (), f"layer 'pentagon-over-gadgets': {detail}"
    )


def test_a_failed_layer_build_leaves_no_stack_for_the_cyclic_gc():
    """A layer refused where it is entered leaves no ``_Stack`` behind for
    the cyclic gc."""
    lifted = lift_gamma_prime(build_gamma_strategy())
    layer = replace(lifted.root.layer, relevance=1 << 400)
    root = EnterLayer(layer, lifted.root.then)
    runs = [
        _answering_layer({3: 9}),
        _answering_layer({3: -1}),
        (lifted.board, StrategyTree(lifted.board, lifted.first_mover, root)),
    ]
    gc.collect()
    gc.disable()
    try:
        for board, tree in runs:
            cex = verify_maker_strategy(board, tree).counterexample
            assert cex.kind == "ill_formed"
        left = sum(1 for obj in gc.get_objects() if type(obj) is _Stack)
    finally:
        gc.enable()
    assert left == 0


def test_an_answered_move_past_the_line_limit_is_ill_formed():
    """Maker's answer to an opponent move counts against the line limit
    like any other move: here the opponent's 100th move is the 200th move
    of the line, and the answer that would win is the 201st."""
    n = 201
    evens = tuple(range(0, 200, 2))
    h = Hypergraph(n, [evens + (199,), evens + (200,)])
    answering = Layer(
        name="answering",
        board=h,
        embed=tuple(range(n)),
        answers={199: 200, 200: 199},
    )
    assert _stateful(answering)
    node = Claim(198, EnterLayer(answering, Respond(())))
    for v in reversed(evens[:-1]):
        # relevance 0: one reply per node, the lowest free vertex
        node = Claim(v, Respond((), node, 0))
    report = verify_maker_strategy(h, StrategyTree(h, Side.A, node))
    cex = report.counterexample
    assert (cex.kind, cex.detail) == ("ill_formed", "line exceeds 200 real moves")
    assert len(cex.moves) == 201
    assert cex.moves[-2:] == (("breaker", 199), ("maker", 200))
    assert report.max_depth == 201


def test_reply_onto_a_taken_coordinate_follows_its_reply_class():
    """A move on a dynamic group's member counts as the group's home while
    the home is free.  When the opponent later plays the home's own real
    vertex, the reply is dispatched like any other: by the reply class
    that holds its coordinate, not as a pass.

    On the board {2, 8}, {3, 1}, {4, 6}, {4, 7} the layer copies the real
    board, and a move on real 1 counts as coordinate 6 while it is free,
    else as a pass.  Maker claims 2, 3 and 4, each a threat; the opponent
    blocks with 8 and with 1, which counts as coordinate 6.  The
    opponent's real 6 must then reach class "six": with its winning claim
    of 7 swapped for a claim of 0, the line fails right there, where the
    last Respond's default would have claimed 7.  That default answers the
    pass when the opponent plays 6 before 1."""
    h = Hypergraph(10, [(2, 8), (3, 1), (4, 6), (4, 7)])
    layer = Layer(
        name="gadget",
        board=h,
        embed=tuple(range(10)),
        dynamic_groups={1: 6},
    )

    def script(six):
        last = Respond(
            (
                (ReplyClass("six", frozenset((6,))), six),
                (ReplyClass("rest", frozenset(range(10)) - {6}), ClaimFirstFree((6, 1, 7))),
            ),
            Claim(7, None),
        )
        one = Respond(((ReplyClass("one", frozenset((6,))), Claim(4, last)),), Claim(1))
        eight = Respond(((ReplyClass("eight", frozenset((8,))), Claim(3, one)),), Claim(8))
        return StrategyTree(h, Side.A, EnterLayer(layer, Claim(2, eight)))

    tree = script(Claim(7, None))
    assert _stateful(layer)
    machine = _Machine(h)
    _node, stack, _masks = machine._enter(tree.root, machine.root, ())
    assert stack.table[1] == ("dyn", 6, ())
    assert _resolve_dyn(((1 << 2, 1 << 8),), stack.table[1]) == ("vertex", 6, ((0, 6),))
    assert _resolve_dyn(((1 << 2, 1 << 6),), stack.table[1]) == ("pass", ())
    assert stack.table[6] == ("vertex", 6, ((0, 6),))
    report = verify_maker_strategy(h, tree)
    assert report.verified, report.counterexample
    cex = verify_maker_strategy(h, script(Claim(0, None))).counterexample
    assert cex.kind == "leaf_without_win"
    assert cex.moves == (
        ("maker", 2), ("breaker", 8), ("maker", 3), ("breaker", 1),
        ("maker", 4), ("breaker", 6), ("maker", 0),
    )


def test_line_limit_failure_leaves_no_unplayed_move():
    """A claim past the line limit fails and is popped from the line, so a
    bounded-win search that passes over it reports only the moves played.

    Maker claims the even vertices 0..198 while the opponent, whose replies
    all collapse into one class, answers with the odd ones.  The 200 moves
    fill the line, so both bounded-win claims (250 and 251) exceed it."""
    evens = list(range(0, 200, 2))
    h = Hypergraph(260, [evens + [250], evens + [251]])
    node = BoundedWin(1)
    for v in reversed(evens):
        node = Claim(v, Respond((), node, 0))
    report = verify_maker_strategy(h, StrategyTree(h, Side.A, node))
    played = []
    for v in evens:
        played += [("maker", v), ("breaker", v + 1)]
    cex = report.counterexample
    assert cex.kind == "bounded_win_failure"
    assert cex.moves == tuple(played)


def test_winning_claim_accepts_matching_assertion():
    h = Hypergraph(3, [(0, 1), (0, 2)])
    root = Claim(0, Respond(
        ((ReplyClass("one", frozenset((1,))), Claim(2, WinNow(1))),),
        Claim(1, WinNow(0)),
    ))
    report = verify_maker_strategy(h, StrategyTree(h, Side.A, root))
    assert report.verified


def test_winning_claim_rejects_wrong_assertion():
    h = Hypergraph(3, [(0, 1), (0, 2)])
    root = Claim(0, Respond(
        ((ReplyClass("one", frozenset((1,))), Claim(2, WinNow(0))),),
        Claim(1, WinNow(0)),
    ))
    report = verify_maker_strategy(h, StrategyTree(h, Side.A, root))
    assert not report.verified
    assert report.counterexample.kind == "leaf_without_win"


# ---------------------------------------------------------------------------
# shipped strategies


def test_tree_board_strategy_verifies():
    report = g3_report()
    assert report.verified
    assert report.counterexample is None


def test_pentagon_strategy_verifies():
    report = gamma_report()
    assert report.verified
    assert report.lines_checked > 0


def test_layered_opening_coverage_follows_the_base_strategy():
    """Through a layer, each real vertex resolves at the empty position to
    the coordinate whose reply class the base strategy gives it: a gadget
    vertex (a dynamic-group member) to its spoke's tip.  An answered
    pendant is a Maker claim of its twin, which no reply class sees."""
    s = build_gamma_strategy()
    machine = _Machine(gen_gamma_prime())
    _node, stack, masks = machine._enter(lift_gamma_prime(s).root, machine.root, ())
    y, tip = gadget_y(4, 2, 3), gamma_t(4, 2)
    assert stack.table[y] == ("dyn", tip, ())
    assert _resolve_dyn(masks, stack.table[y]) == ("vertex", tip, ((0, tip),))
    machine = _Machine(split_pendant(gen_gamma()))
    lifted = lift_split(s, gen_gamma())
    _node, stack, _masks = machine._enter(lifted.root, machine.root, ())
    pendant = 35 + 2 * 6  # x_e of edge 6; its twin y_e follows it
    assert stack.table[pendant] == ("answer", pendant + 1, ())
    assert stack.table[pendant + 1] == ("answer", pendant, ())


def _pentagon_relevance_by_spoke(va: int, vb: int) -> int:
    rel = 0
    for g in range(15):
        triple = (1 << (g // 3)) | (1 << (5 + g)) | (1 << (20 + g))
        if not vb & triple and (va >> (20 + g)) & 1:
            rel |= _block_mask(g)
    return rel


@functools.cache
def _pentagon_layer():
    return lift_gamma_prime(build_gamma_strategy()).root.layer


def _pentagon_relevance(va: int, vb: int) -> int:
    """The verifier's relevance on the pentagon stack at masks (va, vb)."""
    machine = _Machine(gen_gamma_prime())
    stack = machine._push(machine.root, _pentagon_layer())
    return machine._relevance(None, stack, ((va, vb),))


def _spoke(g: int) -> int:
    """Spoke ``g`` of the pentagon board (hub, x, tip) with its gadget block."""
    triple = (1 << (g // 3)) | (1 << (5 + g)) | (1 << (20 + g))
    return triple | _block_mask(g)


@_SETTINGS
@given(st.integers(0, (1 << 35) - 1), st.integers(0, (1 << 35) - 1))
def test_pentagon_relevance_matches_the_spoke_loop(va, vb):
    """The derived relevance holds the gadget of every open spoke whose tip
    Maker holds (the gadget interior can matter to that spoke's endgame),
    and nothing outside the spokes whose tip Maker holds."""
    rel = _pentagon_relevance(va, vb)
    want = _pentagon_relevance_by_spoke(va, vb)
    assert rel & want == want
    bound = 0
    for g in range(15):
        if (va >> (20 + g)) & 1:
            bound |= _spoke(g)
    assert rel & ~bound == 0


def test_pentagon_relevance_tracks_maker_tips_on_open_spokes():
    for g in range(15):
        hub, x, tip = g // 3, 5 + g, 20 + g
        rel = _pentagon_relevance(1 << tip, 0)
        assert rel & _block_mask(g) == _block_mask(g)
        assert rel & ~_spoke(g) == 0
        for v in (hub, x, tip):
            assert _pentagon_relevance(1 << tip, 1 << v) & ~_spoke(g) == 0
    assert _pentagon_relevance(0, 0) == 0


def test_gadget_board_lift_verifies():
    report = gamma_prime_report()
    assert report.verified


def test_apex_board_lift_verifies():
    report = g4_report()
    assert report.verified
    assert report.lines_checked < 10**7


# ---------------------------------------------------------------------------
# sibling symmetry


def _twin_copies():
    """Two copies of the board {0, 1}, {0, 2}, on vertices 0..2 and 3..5.
    Breaker moves first and Maker plays in the copy Breaker left alone:
    claim its 0, then whichever of 1 and 2 is still free."""
    base = Hypergraph(3, [(0, 1), (0, 2)])
    h = Hypergraph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    script = Claim(
        0,
        Respond(
            ((ReplyClass("one", frozenset((1,))), Claim(2, WinNow(1))),),
            Claim(1, WinNow(0)),
        ),
    )
    layers = [
        Layer(
            name=f"copy-{c + 1}",
            board=base,
            embed=(3 * c, 3 * c + 1, 3 * c + 2),
            win_edges={0: 2 * c, 1: 2 * c + 1},
        )
        for c in range(2)
    ]
    root = Respond(
        ((ReplyClass("first", frozenset((0, 1, 2))), EnterLayer(layers[1], script)),),
        EnterLayer(layers[0], script),
    )
    return h, StrategyTree(h, Side.B, root), layers


def test_layers_keep_state_unless_they_invert_their_embedding():
    """Whether a layer's claim masks enter the memo key is derived: the
    pentagon layer (dynamic groups) and the pendant-split layer (answers
    and ``on_win``) keep state; the g4 copies and the twin copies, which
    have none of these, do not, and a twin copy that also answers a move
    outside its embedding does."""
    lifted = lift_gamma_prime(build_gamma_strategy())
    assert _stateful(lifted.root.layer)
    assert _stateful(lift_split(build_g3_strategy(), gen_g3()).root.layer)
    copies = list(_copy_layers(lift_g4(lifted)).values())
    twins = _twin_copies()[2]
    assert len(copies) == 3
    assert not any(_stateful(layer) for layer in copies + twins)
    assert _stateful(replace(twins[0], answers={3: 4}))


def _refuse_every_pair(monkeypatch):
    monkeypatch.setattr(_Machine, "_symmetric", lambda self, child, sibling, sigma: False)


def test_sibling_copies_share_successes(monkeypatch):
    """The copy entered second is checked against the first and hits its
    memo entries; with sharing refused the same verdict takes more lines.
    A representative has none of its own, so ``rep`` links never cycle."""
    h, s, layers = _twin_copies()
    machine = _Machine(h)
    second = machine._push(machine.root, layers[1])
    first = machine._push(machine.root, layers[0])
    assert first.rep is second and second.rep is None
    assert _sibling_sigma(h, layers[0], layers[1]) == [3, 4, 5, 0, 1, 2]
    shared = verify_maker_strategy(h, s)
    _refuse_every_pair(monkeypatch)
    plain = verify_maker_strategy(h, s)
    assert shared.verified and plain.verified
    assert shared.lines_checked < plain.lines_checked


def _copy_layers(s: StrategyTree) -> dict:
    return {
        node.layer.name: node.layer
        for node in iter_nodes(s.root)
        if isinstance(node, EnterLayer) and node.layer.name.startswith("copy-")
    }


def test_sibling_symmetry_refuses_a_swap_that_forgets_the_switches():
    """Swapping copies 2 and 3 with v_2 and v_3 but not s_2 and s_3 is not
    an automorphism of g4, so the checker refuses it; the derived swap,
    which includes them, passes."""
    h = gen_g4()
    layers = _copy_layers(lift_g4(lift_gamma_prime(build_gamma_strategy())))
    machine = _Machine(h)
    two = machine._push(machine.root, layers["copy-2"])
    three = machine._push(machine.root, layers["copy-3"])
    assert three.rep is two
    derived = _sibling_sigma(h, layers["copy-3"], layers["copy-2"])
    assert derived == _copy_swap(2, 3)
    assert machine._symmetric(three, two, derived)
    assert not machine._symmetric(three, two, _copy_swap(2, 3, switches=False))


def test_sibling_sharing_refuses_a_relevance_one_vertex_short():
    """Copy 1's relevance leaves out vertex 2 of its embedding, so the
    derived swap maps its fixed relevance onto one vertex less than copy
    2's, and copy 1 shares nothing."""
    h, _s, layers = _twin_copies()
    machine = _Machine(h)
    second = machine._push(machine.root, layers[1])
    first = machine._push(machine.root, replace(layers[0], relevance=0b011))
    assert second.fixed_rel == 0b111000 and first.fixed_rel == 0b011
    assert first.rep is None


def test_sibling_symmetry_refuses_an_automorphism_that_misses_the_table():
    """Two copies of the edge {0, 1, 2}.  Swapping them with 1 and 2
    crossed is an involutive automorphism that carries the win edge and
    the fixed relevance across, but it sends copy 1's coordinate 1 onto
    copy 2's coordinate 2, so it does not carry the resolution table and
    is refused.  The derived swap is accepted."""
    base = Hypergraph(3, [(0, 1, 2)])
    h = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    layers = [
        Layer(
            name=f"copy-{c + 1}",
            board=base,
            embed=(3 * c, 3 * c + 1, 3 * c + 2),
            win_edges={0: c},
        )
        for c in range(2)
    ]
    machine = _Machine(h)
    second = machine._push(machine.root, layers[1])
    first = machine._push(machine.root, layers[0])
    assert first.rep is second
    crossed = [3, 5, 4, 0, 2, 1]
    assert is_automorphism(h, crossed)
    assert not machine._symmetric(first, second, crossed)


def test_a_defect_in_one_copy_shares_nothing_and_is_caught(monkeypatch):
    """Copy 3's layer maps long edge 106 onto copy 3's edge 105.  The
    derived swap with copy 2 is still an automorphism, but it does not
    carry that target onto copy 2's, so copy 3 shares nothing and is
    searched itself, where the wrong win assertion fails."""
    s = lift_g4(lift_gamma_prime(build_gamma_strategy()))
    h = gen_g4()
    root, found = replace_first(
        s.root,
        lambda n: isinstance(n, EnterLayer) and n.layer.name == "copy-3",
        lambda n: EnterLayer(
            replace(n.layer, win_edges={**n.layer.win_edges, 106: 325}), n.then
        ),
    )
    assert found
    reps = []
    share = _Machine._share

    def spy(self, child):
        share(self, child)
        reps.append((child.layer.name, child.rep))

    monkeypatch.setattr(_Machine, "_share", spy)
    report = verify_maker_strategy(h, StrategyTree(h, Side.A, root))
    assert reps == [("copy-2", None), ("copy-3", None)]
    cex = report.counterexample
    assert cex.kind == "leaf_without_win"
    assert cex.detail.startswith("WinNow edge 325 is missing vertices")
    assert cex.moves[:7] == (
        ("maker", g4_v(1)),
        ("breaker", 0),
        ("maker", g4_v(2)),
        ("breaker", 185),
        ("maker", g4_v(3)),
        ("breaker", 1),
        ("maker", g4_s(3)),
    )


def test_g4_without_sharing_explores_the_unshared_lines(monkeypatch):
    """Differential gate: with every sibling pair refused, g4 verifies on
    exactly the lines it takes when each copy is searched on its own.

    Each copy explores one opening per symmetry orbit of its pentagon.
    Before that symmetry pruning this took 681,984 lines.  It took 151,635
    lines while a move off a copy was answered as a stand-in move marked in
    the copy's masks, and 167,025 while a gadget move whose tip is taken
    counted as a move on a fallback x-vertex: such a move is now a pass,
    and the reflection joins the rotation in the pruning."""
    _refuse_every_pair(monkeypatch)
    s = lift_g4(lift_gamma_prime(build_gamma_strategy()))
    report = verify_maker_strategy(gen_g4(), s)
    assert report.verified, report.counterexample
    assert (report.lines_checked, report.max_depth) == (144_069, 35)


def test_an_answer_that_completes_an_edge_wins_the_line():
    """Maker holds 0 of the edges {0, 1} and {0, 2}, and the layer answers
    each of 1 and 2 with the other.  Either answer completes an edge, so
    the line ends there: the opponent node after it, which would find the
    board exhausted, is never reached."""
    h = Hypergraph(3, [(0, 1), (0, 2)])
    layer = Layer(
        name="answers",
        board=Hypergraph(1, [(0,)]),
        embed=(0,),
        answers={1: 2, 2: 1},
    )
    s = StrategyTree(h, Side.A, EnterLayer(layer, Claim(0, Respond((), None))))
    report = verify_maker_strategy(h, s)
    assert report.verified, report.counterexample
    assert (report.lines_checked, report.max_depth) == (4, 3)


def test_an_answer_on_a_taken_vertex_is_a_pass():
    """The layer answers 0 with 2.  Once Breaker holds 2, Maker cannot
    answer there, so Breaker's move on 0 counts as a pass.  At a Respond
    without a default that is an uncovered reply, not a Maker claim of
    Breaker's 2 that would complete the edge {1, 2}."""
    h = Hypergraph(4, [(1, 2)])
    layer = Layer(
        name="answers",
        board=Hypergraph(3, [(0, 1)]),
        embed=(1, 2, 3),
        answers={0: 2},
    )
    script = Claim(
        0,
        Respond(
            ((ReplyClass("two", frozenset((1,))), Claim(2, Respond((), None))),),
            Claim(1, None),
        ),
    )
    s = StrategyTree(h, Side.A, EnterLayer(layer, script))
    cex = verify_maker_strategy(h, s).counterexample
    assert cex.kind == "uncovered_reply"
    assert cex.moves == (("maker", 1), ("breaker", 2), ("maker", 3), ("breaker", 0))
    assert cex.detail == "real reply 0 is a pass and there is no default"


# ---------------------------------------------------------------------------
# rotation symmetry at stone-free opponent nodes


def _refuse_every_symmetry(monkeypatch):
    monkeypatch.setattr(_Machine, "_accept", lambda self, *candidate: None)


def _rotation(k: int) -> list:
    perm = list(range(35))
    for _ in range(k):
        perm = compose_perms(gamma_rho(), perm)
    return perm


def _pentagon_targets():
    g3 = gen_g3()
    gamma = build_gamma_strategy()
    lifted = lift_gamma_prime(gamma)
    return {
        "gamma": (gen_gamma(), gamma),
        "gamma-prime": (gen_gamma_prime(), lifted),
        "g4": (gen_g4(), lift_g4(lifted)),
        "g3-split": (split_pendant(g3), lift_split(build_g3_strategy(), g3)),
    }


def test_without_symmetry_the_unpruned_lines_come_back(monkeypatch):
    """Differential gate: with no symmetry derived, every target explores
    exactly the lines it took before the pruning, and every mutant fails on
    the same line; the pruning only skips work, most on
    ``opening-class-gap``.  The gate refuses only symmetry, so g3-split,
    which has no stone-free node, keeps the dead-pair rule and its 130,807
    lines (256,247 without that rule).  gamma-prime took 212,418 lines and
    g4 233,530 while a gadget move whose tip is taken counted as a move on
    a fallback x-vertex rather than as a pass (see
    ``test_verifier_counters_are_pinned``)."""
    pruned = [
        (name, verify_maker_strategy(board, tree))
        for name, board, tree in named_mutations()
    ]
    _refuse_every_symmetry(monkeypatch)
    want = {
        "gamma": (20_806, 20),
        "gamma-prime": (215_788, 28),
        "g4": (224_962, 33),
        "g3-split": (130_807, 28),
    }
    for name, (board, tree) in _pentagon_targets().items():
        report = verify_maker_strategy(board, tree)
        assert report.verified, name
        assert (report.lines_checked, report.max_depth) == want[name], name
    drops = {}
    for (name, board, tree), (_name, fast) in zip(named_mutations(), pruned):
        slow = verify_maker_strategy(board, tree)
        a, b = fast.counterexample, slow.counterexample
        assert (a.kind, a.moves, a.detail) == (b.kind, b.moves, b.detail), name
        assert fast.lines_checked <= slow.lines_checked, name
        drops[name] = slow.lines_checked - fast.lines_checked
    assert max(drops, key=drops.get) == "opening-class-gap"
    assert drops["opening-class-gap"] == 15_889 - 3_496


def _stone_free(h, tree, enter=None):
    """The machine, layer stack and claim masks at the first opponent node
    of ``tree`` (or of the ``EnterLayer`` node ``enter`` in it)."""
    machine = _Machine(h)
    _node, stack, masks = machine._enter(enter or tree.root, machine.root, ())
    return machine, stack, masks


def test_rotation_and_reflection_are_accepted_on_gamma_prime():
    """The pentagon's rotation and its reflection are both accepted at the
    stone-free root of gamma-prime, as on the plain pentagon: each maps
    the gadgets' dynamic groups onto each other, and a gadget move whose
    tip is taken is a pass, so no other layer data has to map onto
    itself."""
    gamma = build_gamma_strategy()
    targets = ((gen_gamma(), gamma), (gen_gamma_prime(), lift_gamma_prime(gamma)))
    for board, tree in targets:
        machine, stack, masks = _stone_free(board, tree)
        assert machine._accept(stack, gamma_rho(), masks, 0, 0) is not None
        assert machine._accept(stack, gamma_sigma(), masks, 0, 0) is not None


def test_a_candidate_that_is_no_permutation_is_refused():
    """``Automorphisms.find`` only proposes candidates, so ``_accept``
    checks that each is an automorphism of the innermost board.  On the
    edge {0, 1, 2} with 3 and 4 on no edge, sending both 3 and 4 onto one
    of them carries the resolution table and the empty state onto
    themselves, but is no permutation and is refused; swapping 3 and 4 is
    accepted."""
    h = Hypergraph(5, [(0, 1, 2)])
    s = StrategyTree(h, Side.B, Respond((), BoundedWin(2)))
    machine, stack, masks = _stone_free(h, s)
    for g in ([0, 1, 2, 4, 4], [0, 1, 2, 3, 3]):
        assert _fits_stack(stack, _lift(stack, g))
        assert machine._accept(stack, g, masks, 0, 0) is None, g
    assert machine._accept(stack, [0, 1, 2, 4, 3], masks, 0, 0) is not None


def test_stone_free_traffic_is_pinned(monkeypatch):
    """Each pentagon target expands one stone-free node, calls
    ``Automorphisms.find`` 82 times there, 3 of which return a candidate,
    and checks 2 distinct candidates; g3-split has no stone-free node."""
    counts: dict = {}
    find, expand, accept = Automorphisms.find, _Machine._expand_stone_free, _Machine._accept

    def spy_find(self, pairs):
        g = find(self, pairs)
        counts["find"] += 1
        counts["found"] += g is not None
        return g

    def spy_expand(self, *state):
        counts["expansions"] += 1
        return expand(self, *state)

    def spy_accept(self, stack, g, *state):
        counts["candidates"].add(tuple(g))
        return accept(self, stack, g, *state)

    monkeypatch.setattr(Automorphisms, "find", spy_find)
    monkeypatch.setattr(_Machine, "_expand_stone_free", spy_expand)
    monkeypatch.setattr(_Machine, "_accept", spy_accept)
    for name, (board, tree) in _pentagon_targets().items():
        counts.update(find=0, found=0, expansions=0, candidates=set())
        assert verify_maker_strategy(board, tree).verified, name
        got = (counts["expansions"], counts["find"], counts["found"], len(counts["candidates"]))
        assert got == ((0, 0, 0, 0) if name == "g3-split" else (1, 82, 3, 2)), name


def test_copy_rotation_needs_the_switch_to_be_makers():
    """Copy 2 of g4 is entered once Maker holds v_1, v_2 and s_2.  The
    rotation of its pentagon, lifted through both layers, maps the copy's
    two v_2 long edges onto s_2 ones, so it is an automorphism of g4 only
    once Maker's stones are off the edges: with s_2 still free the
    residual check refuses it."""
    h = gen_g4()
    s = lift_g4(lift_gamma_prime(build_gamma_strategy()))
    enter = next(
        n for n in iter_nodes(s.root)
        if isinstance(n, EnterLayer) and n.layer.name == "copy-2"
    )
    rb = 1 << 0 | 1 << G4_COPY_OFFSETS[2]
    v12 = 1 << g4_v(1) | 1 << g4_v(2)
    for ra, accepted in ((v12 | 1 << g4_s(2), True), (v12, False)):
        machine, stack, masks = _stone_free(h, s, enter)
        perms = _lift(stack, gamma_rho())
        assert perms[0][G4_COPY_OFFSETS[1]] == G4_COPY_OFFSETS[1] + 1
        assert _fits_stack(stack, perms)
        assert _fits_state(stack, perms, h.edge_masks, masks, ra, rb) is accepted
        accept = machine._accept(stack, gamma_rho(), masks, ra, rb)
        assert (accept is not None) is accepted


def _layer_edits():
    """Pentagon layers with one piece of data that the rotation does not
    map onto itself: the ``endgame-*`` mutants edit the continuation of
    spoke (1, 1) only, and one layer adds a continuation on the long edge
    15 alone."""
    mutants = {name: tree for name, _board, tree in named_mutations()}
    for name in ("endgame-wrong-opening", "endgame-branch-dropped", "endgame-bound-zero"):
        yield name, mutants[name]
    lifted = lift_gamma_prime(build_gamma_strategy())
    layer = lifted.root.layer
    edited = replace(layer, on_win={**layer.on_win, 15: layer.on_win[0]})
    yield "long-edge-continuation", StrategyTree(
        lifted.board, Side.B, EnterLayer(edited, lifted.root.then)
    )


def test_layer_data_the_rotation_does_not_map_refuses_it():
    """A layer whose data no rotation maps onto itself gets nothing
    pruned."""
    for name, tree in _layer_edits():
        _machine, stack, _masks = _stone_free(tree.board, tree)
        for k in range(1, 5):
            perms = _lift(stack, _rotation(k))
            assert not _fits_stack(stack, perms), (name, k)


def test_a_board_the_layer_hides_refuses_its_symmetry():
    """Real edges {2, 3} and {2, 4} lie outside the layer's board, whose
    swap of 1 and 2 is then no automorphism of the real board.  The script
    answers an opening on 1 by taking 2 and forking, and one on 2 by its
    mirror image, taking 1, which loses; the residual check refuses the
    swap, so the opening on 2 is searched and fails."""
    base = Hypergraph(5, [(0, 1), (0, 2)])
    h = Hypergraph(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    layer = Layer(
        name="hiding", board=base, embed=tuple(range(5)),
    )

    def fork(v: int):
        return Claim(v, Respond(((ReplyClass("three", frozenset((3,))), Claim(4)),), Claim(3)))

    root = Respond(
        (
            (ReplyClass("one", frozenset((1,))), fork(2)),
            (ReplyClass("two", frozenset((2,))), fork(1)),
        ),
        fork(2),
        relevance=0b110,
    )
    s = StrategyTree(h, Side.B, EnterLayer(layer, root))
    _machine, stack, masks = _stone_free(h, s)
    perms = _lift(stack, [0, 2, 1, 3, 4])
    assert _fits_stack(stack, perms)
    assert not _fits_state(stack, perms, h.edge_masks, masks, 0, 0)
    cex = verify_maker_strategy(h, s).counterexample
    assert cex.kind == "leaf_without_win"
    assert cex.moves == (("breaker", 2), ("maker", 1), ("breaker", 0), ("maker", 3))


def test_a_defect_in_one_rotated_case_is_searched():
    """Hub w_2's case drops its toward-e2 branch, deep below the claims
    that pick the rotation.  Its child is then no rotation of hub w_1's, so
    the opening on w_2 is searched and fails as ``case-branch-dropped``
    does on w_1."""
    s = build_gamma_strategy()
    cls, child = s.root.branches[1]
    child, found = replace_first(
        child,
        lambda n: isinstance(n, Respond) and len(n.branches) == 2
        and n.branches[1][0].name == "toward-e2",
        lambda n: replace(n, branches=n.branches[:1]),
    )
    assert found
    branches = s.root.branches[:1] + ((cls, child),) + s.root.branches[2:]
    tree = StrategyTree(s.board, Side.B, replace(s.root, branches=branches))
    cex = verify_maker_strategy(s.board, tree).counterexample
    assert cex.kind == "occupied_claim"
    assert cex.moves[:2] == (("breaker", 1), ("maker", 2))


def test_a_group_too_large_to_list_prunes_to_one_opening(monkeypatch):
    """Breaker opens on one of twelve disjoint edges and Maker completes
    another.  The board has 12! automorphisms; one opening is explored and
    the other eleven are its images."""
    h = Hypergraph(12, [(v,) for v in range(12)])
    s = StrategyTree(h, Side.B, Respond((), BoundedWin(1)))
    started = time.perf_counter()
    report = verify_maker_strategy(h, s)
    assert time.perf_counter() - started < 0.5
    assert report.verified
    assert report.lines_checked == 3
    _refuse_every_symmetry(monkeypatch)
    assert verify_maker_strategy(h, s).lines_checked == 1 + 12 * 2


def test_split_lift_verifies_on_tree_board():
    report = g3_split_report()
    assert report.verified


def test_split_lift_single_edge_board():
    h = Hypergraph(1, [(0,)])
    s = StrategyTree(h, Side.A, Claim(0, None))
    assert verify_maker_strategy(h, s).verified
    lifted = lift_split(s, h)
    report = verify_maker_strategy(split_pendant(h), lifted)
    assert report.verified


def _copy_script_without_default(node):
    """A g4 copy's ``EnterLayer`` with the gadget script's opening stripped
    of its default."""
    gadget = node.then
    opening = replace(gadget.then, default=None)
    return EnterLayer(node.layer, EnterLayer(gadget.layer, opening))


def test_g4_fails_without_its_pass_answer():
    """In a copy, a move off the copy is a pass.  Without the default that
    ``lift_g4`` gives the gadget script's opening, the first pass fails as
    an uncovered reply: Breaker's third move in copy 1, once Maker has
    entered copy 2."""
    s = lift_g4(lift_gamma_prime(build_gamma_strategy()))

    def answered(n):
        return (
            isinstance(n, EnterLayer)
            and n.layer.name.startswith("copy-")
            and n.then.then.default is not None
        )

    root = s.root
    for _ in range(3):
        root, found = replace_first(root, answered, _copy_script_without_default)
        assert found
    report = verify_maker_strategy(s.board, StrategyTree(s.board, Side.A, root))
    c1 = G4_COPY_OFFSETS[0]
    assert report.counterexample == Counterexample(
        "uncovered_reply",
        (
            ("maker", g4_v(1)),
            ("breaker", c1 + gamma_w(1)),
            ("maker", g4_v(2)),
            ("breaker", c1 + gamma_w(2)),
            ("maker", g4_s(2)),
            ("breaker", c1 + gamma_w(3)),
        ),
        f"real reply {c1 + gamma_w(3)} is a pass and there is no default",
    )
    assert report.lines_checked == 6


def test_lift_g4_needs_an_opening_to_answer_a_pass_with():
    """``lift_g4`` answers a pass as the opening on base vertex 0, so it
    refuses a gadget script that is not an ``EnterLayer`` over a
    ``Respond`` without a default, or whose opening has no reply class
    for vertex 0."""
    lifted = lift_gamma_prime(build_gamma_strategy())
    layer, opening = lifted.root.layer, lifted.root.then
    zero = next(i for i, (cls, _n) in enumerate(opening.branches) if 0 in cls.vertices)
    for root in (
        opening,
        EnterLayer(layer, replace(opening, default=opening.branches[zero][1])),
        EnterLayer(layer, replace(opening, branches=opening.branches[zero + 1 :])),
    ):
        with pytest.raises(ValueError):
            lift_g4(StrategyTree(lifted.board, Side.B, root))


def test_lift_validations():
    with pytest.raises(ValueError):
        lift_gamma_prime(build_g3_strategy())
    with pytest.raises(ValueError):
        lift_g4(build_gamma_strategy())
    with pytest.raises(ValueError):
        lift_split(build_g3_strategy(), gen_gamma())


# ---------------------------------------------------------------------------
# cross-check against the exact solver


def _synthesize_maker_node(h: Hypergraph, ra: int, rb: int):
    """A winning Maker move from (ra, rb), as a script, via the solver."""
    taken = ra | rb
    for v in range(h.vertex_count):
        if taken >> v & 1:
            continue
        ra2 = ra | 1 << v
        if any(mask & ~ra2 == 0 for mask in h.edge_masks):
            return Claim(v, None)
        if solve_winner(Position(h, ra2, rb)) is Side.A:
            return Claim(v, _synthesize_breaker_node(h, ra2, rb))
    raise AssertionError("solver promised a Maker win but no move works")


def _synthesize_breaker_node(h: Hypergraph, ra: int, rb: int):
    branches = []
    taken = ra | rb
    for v in range(h.vertex_count):
        if taken >> v & 1:
            continue
        child = _synthesize_maker_node(h, ra, rb | 1 << v)
        branches.append((ReplyClass(f"v{v}", frozenset((v,))), child))
    return Respond(tuple(branches), None)


def test_solver_synthesized_strategies_verify():
    rng = random.Random(4107)
    verified = 0
    while verified < 8:
        h = random_hypergraph(rng, max_vertices=8, max_edges=5)
        if solve_winner(Position(h)) is not Side.A:
            continue
        root = _synthesize_maker_node(h, 0, 0)
        s = StrategyTree(h, Side.A, root)
        assert verify_maker_strategy(h, s).verified
        verified += 1


# ---------------------------------------------------------------------------
# mutations


def test_every_mutation_is_rejected():
    mutations = named_mutations()
    assert len(mutations) == 20
    names = [name for name, _, _ in mutations]
    assert len(set(names)) == 20
    for name, board, tree in mutations:
        report = verify_maker_strategy(board, tree)
        assert not report.verified, name
        assert report.counterexample is not None, name


_MUTANT_SNAPSHOT = Path(__file__).with_name("mutant_counterexamples.json")


def test_mutant_counterexamples_match_snapshot():
    """Each mutant's first counterexample, full line included, and the work
    spent finding it.  Reply order decides which line comes first, so this
    pins the order in which the verifier explores replies.

    ``opening-class-gap`` took 15,889 lines before symmetry pruning let it
    explore 6 of the 22 openings it searched up to its gap.  The three
    ``endgame-*`` mutants took 10,662, 10,750 and 10,706 lines, and
    ``long-edge-mapped-wrong`` 3,892, while a gadget move whose tip is
    taken counted as a move on a fallback x-vertex: as a pass it reaches
    states the imagined move had merged.  No counterexample changed."""
    expected = json.loads(_MUTANT_SNAPSHOT.read_text())
    mutations = named_mutations()
    assert [name for name, _, _ in mutations] == [e["name"] for e in expected]
    for (name, board, tree), want in zip(mutations, expected):
        report = verify_maker_strategy(board, tree)
        cex = report.counterexample
        got = {
            "name": name,
            "kind": cex.kind,
            "moves": [list(move) for move in cex.moves],
            "detail": cex.detail,
            "lines_checked": report.lines_checked,
        }
        assert got == want, name


def _without_layer_relevance(tree: StrategyTree) -> tuple[StrategyTree, int]:
    """A copy of ``tree`` whose layers all leave ``relevance`` None, and the
    number of layers that had a mask to drop.

    Every node with a child is rebuilt; a ``Respond`` keeps its own
    relevance.  A shared node or layer is copied once, which keeps it
    shared.
    """
    nodes: dict = {}
    layers: dict = {}
    dropped = 0

    def copy_layer(layer):
        nonlocal dropped
        if id(layer) not in layers:
            dropped += layer.relevance is not None
            layers[id(layer)] = replace(
                layer,
                relevance=None,
                on_win={e: copy(n) for e, n in layer.on_win.items()},
            )
        return layers[id(layer)]

    def copy(node):
        if id(node) in nodes:
            return nodes[id(node)]
        if isinstance(node, EnterLayer):
            new = EnterLayer(copy_layer(node.layer), copy(node.then))
        elif isinstance(node, (Claim, ClaimFirstFree)) and node.then is not None:
            new = replace(node, then=copy(node.then))
        elif isinstance(node, Respond):
            default = node.default
            if default is not None and not isinstance(default, BoundedWin):
                default = copy(default)
            branches = tuple((cls, copy(n)) for cls, n in node.branches)
            new = replace(node, branches=branches, default=default)
        else:
            new = node
        nodes[id(node)] = new
        return new

    return StrategyTree(tree.board, tree.first_mover, copy(tree.root)), dropped


def test_layer_relevance_leaves_mutant_counterexamples_unchanged():
    """Layer relevance only collapses replies that cannot matter, so without
    it every mutant still fails on the same first line.  Node relevance is
    kept: without it the endgame mutants do not finish."""
    expected = json.loads(_MUTANT_SNAPSHOT.read_text())
    stripped = 0
    for (name, board, tree), want in zip(named_mutations(), expected):
        plain, dropped = _without_layer_relevance(tree)
        stripped += dropped
        cex = verify_maker_strategy(board, plain).counterexample
        got = (cex.kind, [list(move) for move in cex.moves], cex.detail)
        assert got == (want["kind"], want["moves"], want["detail"]), name
    assert stripped


def test_gamma_prime_verifies_without_layer_relevance():
    """The pentagon layer's relevance mask only collapses replies that
    cannot matter: without it the gadget-board lift still verifies, on
    534,296 lines instead of 41,398.  Before symmetry pruning, which
    explores one opening per symmetry orbit, this took 3,411,063 lines.  It took
    700,572 while a gadget move whose tip is taken counted as a move on a
    fallback x-vertex rather than as a pass."""
    plain, dropped = _without_layer_relevance(lift_gamma_prime(build_gamma_strategy()))
    assert dropped == 1
    report = verify_maker_strategy(plain.board, plain)
    assert report.verified, report.counterexample
    assert (report.lines_checked, report.max_depth) == (534_296, 28)


def test_verifier_leaves_no_stack_for_the_cyclic_gc():
    """Every layer stack of a run is freed by reference counting when the
    run ends, whether it verified, failed or shared a sibling's memo."""
    mutations = named_mutations()
    twins, twin_tree, _layers = _twin_copies()
    gc.collect()
    gc.disable()
    try:
        for _name, board, tree in mutations:
            verify_maker_strategy(board, tree)
        assert verify_maker_strategy(twins, twin_tree).verified
        left = sum(1 for obj in gc.get_objects() if type(obj) is _Stack)
    finally:
        gc.enable()
    assert left == 0


def test_counterexamples_are_deterministic():
    mutations = {name: (board, tree) for name, board, tree in named_mutations()}
    board, tree = mutations["wrong-win-assertion"]
    first = verify_maker_strategy(board, tree)
    second = verify_maker_strategy(board, tree)
    assert first.counterexample == second.counterexample
    assert first.lines_checked == second.lines_checked


# ----------------------------------------------------------------------
# dead answered pairs


def _rule_off(monkeypatch):
    monkeypatch.setattr(verifier, "_drop_dead_pairs", lambda pairs, out, killed, replies: out)


_DROP_DEAD_PAIRS = verifier._drop_dead_pairs


def _drops(monkeypatch) -> list:
    """Record (out, kept) for every call of ``_drop_dead_pairs``."""
    calls = []

    def spy(pairs, out, killed, replies):
        kept = _DROP_DEAD_PAIRS(pairs, out, killed, replies)
        calls.append((out, kept))
        return kept

    monkeypatch.setattr(verifier, "_drop_dead_pairs", spy)
    return calls


def test_without_dead_pairs_the_unpruned_lines_come_back(monkeypatch):
    """Differential gate: with dead answered pairs kept, g3-split explores
    exactly its 256,247 lines again, the other targets do not move, and
    every mutant fails on the same line with the same detail; the rule
    only skips work.  The others are the pinned counts of
    ``test_verifier_counters_are_pinned``."""
    pruned = [
        (name, verify_maker_strategy(board, tree))
        for name, board, tree in named_mutations()
    ]
    _rule_off(monkeypatch)
    want = {
        "gamma": (3_865, 20),
        "gamma-prime": (41_398, 28),
        "g4": (49_405, 33),
        "g3-split": (256_247, 28),
    }
    for name, (board, tree) in _pentagon_targets().items():
        report = verify_maker_strategy(board, tree)
        assert report.verified, name
        assert (report.lines_checked, report.max_depth) == want[name], name
    for (name, board, tree), (_name, fast) in zip(named_mutations(), pruned):
        slow = verify_maker_strategy(board, tree)
        a, b = fast.counterexample, slow.counterexample
        assert (a.kind, a.moves, a.detail) == (b.kind, b.moves, b.detail), name
        assert fast.lines_checked <= slow.lines_checked, name


def _random_maker_node(rng: random.Random, free: list, depth: int):
    """A Maker move on vertices drawn from ``free`` and, below it,
    ``depth`` more rounds of a defaultful ``Respond`` and a Maker move,
    ending in a claim that must win or a bounded-win search."""
    free = rng.sample(free, len(free))
    if rng.random() < 0.5:
        claim = functools.partial(Claim, free.pop())
    else:
        claim = functools.partial(ClaimFirstFree, (free.pop(), free.pop()))
    if depth == 0 or len(free) < 2:
        bound = rng.randint(2, 4)
        return claim(None if rng.random() < 0.2 else Respond((), BoundedWin(bound)))
    return claim(Respond((), _random_maker_node(rng, free, depth - 1)))


_SPLIT_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_dead_pairs_keep_every_verdict_on_random_split_boards(monkeypatch):
    """On random pendant splits of small boards, scripts of two or three
    levels of claims, defaultful ``Respond`` nodes and bounded wins get the
    same verdict and counterexample kind with and without the dead-pair
    rule, and the rule fires on some of them."""
    fired = []

    @_SPLIT_SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, max_vertices=6, max_edges=5, size_range=(2, 3))
        root = _random_maker_node(rng, list(range(h.vertex_count)), rng.randint(1, 2))
        first = rng.choice((Side.A, Side.B))
        if first is Side.B:
            root = Respond((), root)
        tree = lift_split(StrategyTree(h, first, root), h)
        calls = _drops(monkeypatch)
        fast = verify_maker_strategy(tree.board, tree)
        _rule_off(monkeypatch)
        slow = verify_maker_strategy(tree.board, tree)
        assert fast.verified == slow.verified
        if not fast.verified:
            assert fast.counterexample.kind == slow.counterexample.kind
        assert fast.lines_checked <= slow.lines_checked
        fired.append(any(out != kept for out, kept in calls))

    check()
    assert any(fired)


def _pairs(h: Hypergraph, *layers):
    """``_answered_pairs`` of the stack that enters ``layers`` on ``h``."""
    machine = _Machine(h)
    stack = machine.root
    for layer in layers:
        stack = machine._push(stack, layer)
    return stack.pairs


def test_a_pair_named_by_a_live_continuation_is_kept():
    """On the ``completion-leaves-shifted`` mutant, the continuation of base
    edge 0 claims the pendants of edge 1, so that pair is kept while base
    edge 0 holds no Breaker stone; on the shipped lift the pair's own edge
    is enough.  The mutant's continuations no longer end the line at once,
    so each of them keeps every pair alive until its edge is dead."""
    g3 = gen_g3()
    mutants = {name: tree for name, _board, tree in named_mutations()}
    shifted = mutants["completion-leaves-shifted"]
    shipped = lift_split(build_g3_strategy(), g3)
    pair = 1 << 17 | 1 << 18  # the pendants of base edge 1
    shifted_pairs = _pairs(shifted.board, shifted.root.layer)
    shipped_pairs = _pairs(shipped.board, shipped.root.layer)
    assert dict(shifted_pairs[0])[pair] == tuple(sorted(set(g3.edge_masks)))
    assert dict(shipped_pairs[0])[pair] == (g3.edge_masks[1],)
    out = pair | 1 << 19
    breaker = 1 << 6  # a cell of base edge 1
    assert _DROP_DEAD_PAIRS(shifted_pairs, out, breaker, 1) == out
    assert _DROP_DEAD_PAIRS(shipped_pairs, out, breaker, 1) == 1 << 19
    every = 0b1001001001111  # 0, 1, 2, 3, 6, 9 and 12 meet every base edge
    assert _DROP_DEAD_PAIRS(shifted_pairs, out, every & ~(1 << 3), 1) == out
    assert _DROP_DEAD_PAIRS(shifted_pairs, out, every, 1) == 1 << 19


def _inner_continuation(cont):
    """An outer layer that answers 4 with 5 and back over the whole real
    board, and an inner layer on 0, 1 and 2 whose edge {0, 1} continues
    with ``cont`` on the outer layer, where the pair is still answered."""
    h = Hypergraph(6, [(0, 1), (1, 4), (2, 5), (3,)])
    outer = Layer(
        name="outer",
        board=h,
        embed=tuple(range(6)),
        win_edges={e: e for e in range(4)},
        answers={4: 5, 5: 4},
    )
    inner = Layer(
        name="inner",
        board=Hypergraph(3, [(0, 1)]),
        embed=(0, 1, 2),
        on_win={0: cont},
    )
    return h, outer, inner


@pytest.mark.parametrize(
    "cont, named",
    [
        (Respond((), Claim(4)), True),
        (Respond((), ClaimFirstFree((3, 5))), True),
        (Respond((), BoundedWin(1)), True),
        (Respond((), Claim(3)), False),
    ],
    ids=["claim", "claim-first-free", "bounded-win", "claim-elsewhere"],
)
def test_a_continuation_that_may_claim_a_pair_keeps_it(cont, named):
    """A continuation that runs where the pair is still answered reads the
    pair only by claiming it: by name, or anywhere through a bounded-win
    search.  The pair's real edges {1, 4} and {2, 5} give the kill masks
    {1} and {2}; a continuation that may claim the pair adds its edge's
    image {0, 1}."""
    h, outer, inner = _inner_continuation(cont)
    kills = {0b10, 0b100} | ({0b11} if named else set())
    assert _pairs(h, outer, inner)[0] == ((1 << 4 | 1 << 5, tuple(sorted(kills))),)


def test_a_pair_an_open_continuation_may_read_is_kept(monkeypatch):
    """The continuations of the virtual edges {1} and {3} (real 3 and 8)
    run on the real board, where 0 and 1 are plain moves, and the one for
    a move on 0 claims 2 or 5.  After Breaker 2 the pair {0, 1} is dead
    by its real edge {0, 2}, but a continuation that branches on 0 may
    still read it, so the pair is kept and the line that plays 0 there
    fails as it does with the rule off.  Were the pair dropped, the state
    would share the memo success of the same state after the exchange on
    the pair, and the script would verify."""
    edges = [(0, 2), (2, 3), (2, 8)] + [(w, u) for w in (3, 8) for u in (4, 6, 9, 10)]
    h = Hypergraph(11, edges)
    finish = Respond(
        ((ReplyClass("x", frozenset((0,))), ClaimFirstFree((2, 5))),),
        ClaimFirstFree((4, 6, 9, 10)),
    )
    layer = Layer(
        name="open",
        board=Hypergraph(4, [(1,), (3,)]),
        embed=(2, 3, 7, 8),
        on_win={0: finish, 1: finish},
        answers={0: 1, 1: 0},
    )
    after_kill = Respond((), ClaimFirstFree((1, 3)))
    script = Respond(
        ((ReplyClass("c0", frozenset((0,))), Claim(2, after_kill)),),
        ClaimFirstFree((1, 3)),
    )
    tree = StrategyTree(h, Side.B, EnterLayer(layer, script))
    assert _pairs(h, layer)[0] == ((0b11, (1 << 2, 1 << 3, 1 << 8)),)
    fast = verify_maker_strategy(h, tree)
    _rule_off(monkeypatch)
    slow = verify_maker_strategy(h, tree)
    assert fast.counterexample == slow.counterexample == Counterexample(
        "leaf_without_win",
        (("breaker", 2), ("maker", 7), ("breaker", 3), ("maker", 8), ("breaker", 0), ("maker", 5)),
        "leaf claims vertex 5 without completing an edge",
    )


def test_a_board_left_to_dead_pairs_is_still_exhausted():
    """After Breaker 0 and Maker 1 on the split of the edge {0, 1}, only
    the pendants 2 and 3 are free and their pair is dead.  Dropping it
    would leave no reply, so it is kept and the line still runs out of
    board."""
    h = Hypergraph(2, [(0, 1)])
    script = Respond(
        (
            (ReplyClass("zero", frozenset((0,))), Claim(1, Respond(()))),
            (ReplyClass("one", frozenset((1,))), Claim(0, Respond(()))),
        )
    )
    tree = lift_split(StrategyTree(h, Side.B, script), h)
    report = verify_maker_strategy(tree.board, tree)
    assert report.counterexample == Counterexample(
        "leaf_without_win",
        (("breaker", 0), ("maker", 1), ("breaker", 2), ("maker", 3)),
        "board exhausted before Maker won",
    )


def _killer_layer(relevance):
    """The edge {1, 2} under an identity layer that pairs 3 with 4, on a
    real board where the pair's edges {0, 3} and {0, 4} die only at 0,
    Breaker's lowest reply."""
    h = Hypergraph(5, [(1, 2), (0, 3), (0, 4)])
    layer = Layer(
        name="pairs",
        board=Hypergraph(2, [(0, 1)]),
        embed=(1, 2),
        win_edges={0: 0},
        answers={3: 4, 4: 3},
        relevance=relevance,
    )
    script = Respond((), Claim(0, Respond((), Claim(1, WinNow(0)))))
    return h, StrategyTree(h, Side.B, EnterLayer(layer, script))


def test_a_pair_killed_outside_the_relevance_is_kept(monkeypatch):
    """Breaker's first stone, on 0, kills the pair {3, 4}.  While 0 lies
    outside the relevance the memo key cannot see it, so the next opponent
    node keeps the pair; with 0 relevant the same node drops it."""
    pair = 1 << 3 | 1 << 4
    h, tree = _killer_layer(None)
    assert _pairs(h, tree.root.layer)[0] == ((pair, (1 << 0,)),)
    calls = _drops(monkeypatch)
    verify_maker_strategy(h, tree)
    assert calls[1] == (pair, pair)
    h, tree = _killer_layer(0b111)
    calls.clear()
    verify_maker_strategy(h, tree)
    assert calls[1] == (pair, 0)


def test_answered_pairs_answer_each_other_alone_outside_the_image():
    """A pair is two vertices that answer each other, marking no layer,
    that no third vertex is answered with, outside the image of the
    innermost board."""
    h, tree = _killer_layer(None)
    layer = tree.root.layer
    pair = 1 << 3 | 1 << 4
    assert [p for p, _kills in _pairs(h, layer)[0]] == [pair]
    assert _pairs(h, replace(layer, answers={3: 4})) is None
    assert _pairs(h, replace(layer, answers={3: 4, 4: 3, 0: 4})) is None
    inside = replace(
        layer,
        board=Hypergraph(3, [(0, 1)]),
        embed=(1, 2, 3),
    )
    assert _pairs(h, inside) is None
    whole = Layer(
        name="whole",
        board=h,
        embed=tuple(range(5)),
        win_edges={e: e for e in range(3)},
    )
    assert _pairs(h, whole, layer) is None
