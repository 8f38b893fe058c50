"""Strategy trees, the exhaustive verifier, the shipped strategies and
their lifted versions, and the mutation suite."""

from __future__ import annotations

import collections
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
    cold_searches,
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
from posgames.core import (
    Hypergraph,
    Position,
    Side,
    automorphism_generators,
    is_automorphism,
    iter_bits,
)
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
from posgames.strategy.nodes import _relabel
from posgames.strategy.verifier import (
    _apply_segments,
    _bw_after,
    _bw_claims,
    _BWAfter,
    _fits_stack,
    _fits_state,
    _image,
    _lift,
    _Machine,
    _resolve_dyn,
    _sibling_sigma,
    _Stack,
    _stateful,
)
from test_plain_reference import bounded_win

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


def _random_script(rng: random.Random, n: int, edges: int, depth: int):
    """A random script on a board of ``n`` vertices and ``edges`` edges,
    ``depth`` levels deep, that now and then names vertex ``n``, an edge
    off the board or a negative relevance, and shares a subtree."""

    def vertex():
        return rng.randrange(n + (rng.random() < 0.05))

    def node(d):
        kind = rng.randrange(4 if d else 2)
        if kind == 0:
            return WinNow(rng.randrange(edges + (rng.random() < 0.05)))
        if kind == 1:
            return Claim(vertex(), node(d - 1) if d and rng.random() < 0.7 else None)
        if kind == 2:
            picks = tuple(vertex() for _ in range(rng.randint(1, 3)))
            return ClaimFirstFree(picks, node(d - 1))
        shared = node(d - 1)
        branches = tuple(
            (
                ReplyClass(f"c{k}", frozenset(vertex() for _ in range(rng.randint(1, 2)))),
                shared if rng.random() < 0.3 else node(d - 1),
            )
            for k in range(rng.randint(0, 2))
        )
        default = rng.choice((None, BoundedWin(rng.randint(1, 3)), node(d - 1)))
        roll = rng.random()
        relevance = None if roll < 0.5 else -1 if roll < 0.55 else rng.randrange(1 << n)
        return Respond(branches, default, relevance)

    return node(depth)


def _mutate(rng: random.Random, script, n: int, edges: int):
    """``script`` with one randomly chosen node replaced by a random one."""
    target = rng.choice(list(iter_nodes(script)))
    mutated, _found = replace_first(
        script,
        lambda node: node is target,
        lambda _node: _random_script(rng, n, edges, rng.randint(0, 1)),
    )
    return mutated


def _plain_is_conjugate(a, b, perm, board) -> bool:
    """Whether the whole relabelled image of ``a`` equals ``b``."""
    try:
        return _relabel(a, perm, board) == b
    except (KeyError, ValueError):
        return False


@_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_is_conjugate_agrees_with_the_whole_image(seed):
    """``is_conjugate``, which stops at the first node that differs, gives
    the answer of comparing the whole relabelled image, on random scripts
    against their image, a mutated image, another random script and
    another vertex map."""
    rng = random.Random(seed)
    h = random_hypergraph(rng, max_vertices=6, max_edges=4)
    n, edges = h.vertex_count, len(h.edges)
    perm = rng.sample(range(n), n)
    a = _random_script(rng, n, edges, rng.randint(0, 3))
    try:
        image = _relabel(a, perm, h)
    except (KeyError, ValueError):
        image = _random_script(rng, n, edges, 2)
    others = [image, _random_script(rng, n, edges, 2)]
    if not isinstance(image, BoundedWin) and image is not None:
        others.append(_mutate(rng, image, n, edges))
    for b in others:
        assert is_conjugate(a, b, perm, h) == _plain_is_conjugate(a, b, perm, h)
    other_perm = rng.sample(range(n), n)
    assert is_conjugate(a, image, other_perm, h) == _plain_is_conjugate(a, image, other_perm, h)


def test_relabelling_leaves_no_nodes_for_the_cyclic_gc():
    """The images that ``is_conjugate`` compares at the stone-free nodes of
    ``opening-class-gap`` are freed by reference counting: the run leaves
    no ``Claim``, ``Respond`` or ``ReplyClass`` for the cyclic collector."""
    board, tree = {name: (b, t) for name, b, t in named_mutations()}["opening-class-gap"]
    kinds = (Claim, Respond, ReplyClass)

    def count():
        return sum(type(obj) in kinds for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = count()
        report = verify_maker_strategy(board, tree)
        after = count()
    finally:
        gc.enable()
    assert not report.verified
    assert after == before


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


def test_an_opponent_move_past_the_line_limit_is_ill_formed():
    """The opponent's move counts against the line limit like Maker's: the
    opponent moves first and takes the lowest free vertex, Maker claims
    1, 3, ..., 199, and the opponent's reply on 200 is the 201st move."""
    odds = tuple(range(1, 200, 2))
    h = Hypergraph(202, [odds + (200,), odds + (201,)])
    node = Respond((), ClaimFirstFree((200, 201)), 0)
    for v in reversed(odds):
        # relevance 0: one reply per node, the lowest free vertex
        node = Respond((), Claim(v, node), 0)
    report = verify_maker_strategy(h, StrategyTree(h, Side.B, node))
    cex = report.counterexample
    assert (cex.kind, cex.detail) == ("ill_formed", "line exceeds 200 real moves")
    assert len(cex.moves) == 201
    assert cex.moves[-2:] == (("maker", 199), ("breaker", 200))
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


def test_members_of_a_held_home_are_relevant(monkeypatch):
    """Once Maker holds a dynamic group's home, a move on a member is a
    pass, but which member the opponent took can matter later, so the
    members join the relevance of a ``Respond`` node.

    The layer copies real 0..3 as the star {0, 1}, {0, 2}, {0, 3} and
    groups real 4 and 5 at home 0, which Maker claims first.  Maker
    answers a move on tip i with a claim of the next tip (1, 2, 3, 1), and
    a pass with a claim of 1.  Each virtual edge {0, i} continues on the
    real board with a claim of 5, or of the next tip when the opponent
    takes 5: the real edges are {0, i, 5} and {0, i, next tip}.  So a
    pass on 5 leaves the continuation nothing to win by, and a pass on 4
    does not.  Without the members, 4 and 5 are one reply class, only 4
    is played, and the broken script verifies."""
    h = Hypergraph(6, [(0, 1, 5), (0, 1, 2), (0, 2, 5), (0, 2, 3), (0, 3, 5), (0, 1, 3)])

    def cont(tip: int):
        return Respond(((ReplyClass("five", frozenset((5,))), Claim(tip)),), Claim(5))

    layer = Layer(
        name="star",
        board=Hypergraph(4, [(0, 1), (0, 2), (0, 3)]),
        embed=(0, 1, 2, 3),
        on_win={0: cont(2), 1: cont(3), 2: cont(1)},
        dynamic_groups={4: 0, 5: 0},
    )
    tips = tuple(
        (ReplyClass(f"tip-{i}", frozenset((i,))), Claim(i % 3 + 1)) for i in (1, 2, 3)
    )
    root = EnterLayer(layer, Claim(0, Respond(tips, Claim(1))))
    tree = StrategyTree(h, Side.A, root)
    assert verify_maker_strategy(h, tree).counterexample == Counterexample(
        "occupied_claim",
        (("maker", 0), ("breaker", 5), ("maker", 1), ("breaker", 2)),
        "strategy claims occupied vertex 5",
    )
    monkeypatch.setattr(verifier, "_held_rel", lambda stack, va: 0)
    assert verify_maker_strategy(h, tree).verified


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
    """The verifier's bounded-win relevance on the pentagon stack without
    the edges within reach: the entry for Maker's tips alone at k = 0.
    Every edge of the pentagon board has three vertices and at most one
    tip, so none lies within 0 claims of those tips.  Breaker's ``vb``
    does not enter it."""
    machine = _Machine(gen_gamma_prime())
    stack = machine._push(machine.root, _pentagon_layer())
    return machine._bw_entry(stack, va & stack.homes, 0)[0]


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
    monkeypatch.setattr(verifier, "_sibling_sigma", lambda h, layer, other: None)


def _swaps(machine, child, sibling, sigma) -> bool:
    """Whether ``_accept`` takes ``sigma`` with the identity on the copies'
    board, at the empty position, as a swap of ``child`` onto ``sibling``."""
    perms = (sigma, range(child.board.vertex_count))
    return machine._accept(child, perms, ((0, 0),), 0, 0, sibling) is not None


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


def test_copy_sharing_traffic_is_pinned(monkeypatch):
    """On g4, ``_accept`` checks 2 sibling swaps and accepts both, and
    copies 3 and 1 look 387 keys up in copy 2's frame, all of which hit,
    so no reply is played on a stack with a representative.  A shared
    stack files nothing in its representative's frame, so one that had to
    expand would pay for its whole subtree.  The other targets and the
    mutants share nothing."""
    names = ("swaps", "accepted", "lookups", "hits", "shared_replies")
    counts: dict = {}
    accept, shared_key, reply = _Machine._accept, _Machine._shared_key, _Machine._reply

    def spy_accept(self, stack, perms, masks, ra, rb, other=None):
        got = accept(self, stack, perms, masks, ra, rb, other)
        if other is not None:
            counts["swaps"] += 1
            counts["accepted"] += got is not None
        return got

    def spy_shared_key(self, key, stack, node, out):
        got = shared_key(self, key, stack, node, out)
        counts["lookups"] += 1
        counts["hits"] += self.memo.get(got) is True
        return got

    def spy_reply(self, node, stack, *state):
        counts["shared_replies"] += stack.rep is not None
        return reply(self, node, stack, *state)

    monkeypatch.setattr(_Machine, "_accept", spy_accept)
    monkeypatch.setattr(_Machine, "_shared_key", spy_shared_key)
    monkeypatch.setattr(_Machine, "_reply", spy_reply)

    def traffic(board, tree) -> tuple:
        counts.update(dict.fromkeys(names, 0))
        verify_maker_strategy(board, tree)
        return tuple(counts[name] for name in names)

    for name, (board, tree) in _pentagon_targets().items():
        want = (2, 2, 387, 387, 0) if name == "g4" else (0,) * 5
        assert traffic(board, tree) == want, name
    for name, board, tree in named_mutations():
        assert traffic(board, tree) == (0,) * 5, name


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
    assert _swaps(machine, three, two, derived)
    assert not _swaps(machine, three, two, _copy_swap(2, 3, switches=False))


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
    assert not _swaps(machine, first, second, crossed)


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


def test_an_answer_fires_no_on_win_continuation():
    """The layer answers the opponent's 1 with a Maker claim of 2, the
    image of layer vertex 1, while Maker holds layer vertex 0.  The
    answer is a claim on the real board only, so it leaves the virtual
    edge {0, 1} open and its ``on_win`` continuation, which would fail on
    the real board's reply 3, does not run: the line goes back to the
    layer's node, where 3 is a pass.  The answer counts once: a line for
    Maker's claim of 0, one per expansion of the node, one for the
    answer."""
    h = Hypergraph(4, [(0, 2, 3)])
    layer = Layer(
        name="answers",
        board=Hypergraph(2, [(0, 1)]),
        embed=(0, 2),
        on_win={0: Respond((), None)},
        answers={1: 2},
    )
    s = StrategyTree(h, Side.A, EnterLayer(layer, Claim(0, Respond((), None))))
    report = verify_maker_strategy(h, s)
    cex = report.counterexample
    assert cex == Counterexample(
        "uncovered_reply",
        (("maker", 0), ("breaker", 1), ("maker", 2), ("breaker", 3)),
        "real reply 3 is a pass and there is no default",
    )
    assert (report.lines_checked, report.max_depth) == (4, 4)


# ---------------------------------------------------------------------------
# rotation symmetry at stone-free opponent nodes


def _refuse_every_symmetry(monkeypatch):
    monkeypatch.setattr(verifier, "automorphism_generators", lambda board: [])


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
    which has no stone-free node, keeps the inert-pair rule and the
    decided finishing continuations, and its 13,965 lines at depth 11
    (67,940 without the second rule, 256,247 at depth 28 without both).
    gamma-prime took 212,418 lines and g4 233,530 while a gadget move
    whose tip is taken counted as a move on a fallback x-vertex rather
    than as a pass (see ``test_verifier_counters_are_pinned``)."""
    pruned = [
        (name, verify_maker_strategy(board, tree))
        for name, board, tree in named_mutations()
    ]
    _refuse_every_symmetry(monkeypatch)
    want = {
        "gamma": (20_806, 20),
        "gamma-prime": (215_788, 28),
        "g4": (224_962, 33),
        "g3-split": (13_965, 11),
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
        assert machine._accept(stack, _lift(stack, gamma_rho()), masks, 0, 0) is not None
        assert machine._accept(stack, _lift(stack, gamma_sigma()), masks, 0, 0) is not None


def test_a_candidate_that_is_no_permutation_is_refused():
    """``_accept`` trusts no search for its candidates, so it checks
    that each is an automorphism of the innermost board.  On the
    edge {0, 1, 2} with 3 and 4 on no edge, sending both 3 and 4 onto one
    of them carries the resolution table and the empty state onto
    themselves, but is no permutation and is refused; swapping 3 and 4 is
    accepted."""
    h = Hypergraph(5, [(0, 1, 2)])
    s = StrategyTree(h, Side.B, Respond((), BoundedWin(2)))
    machine, stack, masks = _stone_free(h, s)
    for g in ([0, 1, 2, 4, 4], [0, 1, 2, 3, 3]):
        assert _fits_stack(stack, _lift(stack, g))
        assert machine._accept(stack, _lift(stack, g), masks, 0, 0) is None, g
    assert machine._accept(stack, _lift(stack, [0, 1, 2, 4, 3]), masks, 0, 0) is not None


def test_a_generator_whose_lift_misses_the_reply_skips_nothing():
    """A generator that maps u's coordinate onto w's covers w only if its
    lift maps u onto w on the real board.

    The layer places real 0..3 at its vertices 0, 1, 3, 2 and sends real
    0 and 3 to home 0, real 1 and 2 to home 1.  Its board, the real one
    relabelled, has the one generator (0 1)(2 3), which is accepted and
    whose lift maps real 0 onto 1 and 3 onto 2.  The script answers home
    0 with layer vertex 2 (real 3) and home 1 with layer vertex 3 (real
    2), each completing a single-vertex edge.  Reply 1 is covered by 0.
    Reply 2 also dispatches on home 1, but its true preimage 3 comes after
    it, and its answer claims the vertex the opponent just took, so it
    must be searched and fail."""
    h = Hypergraph(4, [(2,), (3,), (0, 3), (1, 2)])
    board = Hypergraph(4, [(2,), (3,), (0, 2), (1, 3)])
    layer = Layer(
        name="groups",
        board=board,
        embed=(0, 1, 3, 2),
        dynamic_groups={0: 0, 3: 0, 1: 1, 2: 1},
    )
    root = Respond(
        (
            (ReplyClass("home-0", frozenset((0,))), Claim(2)),
            (ReplyClass("home-1", frozenset((1,))), Claim(3)),
        )
    )
    s = StrategyTree(h, Side.B, EnterLayer(layer, root))
    assert automorphism_generators(board) == [[1, 0, 3, 2]]
    machine, stack, masks = _stone_free(h, s)
    assert machine._accept(stack, _lift(stack, [1, 0, 3, 2]), masks, 0, 0)[0] == [1, 0, 3, 2]
    report = verify_maker_strategy(h, s)
    assert report.counterexample == Counterexample(
        "occupied_claim", (("breaker", 2),), "strategy claims occupied vertex 2"
    )
    assert report.lines_checked == 2


def test_stone_free_traffic_is_pinned(monkeypatch):
    """Each pentagon target expands one stone-free node, builds the
    innermost board's generators once there, and checks 2 distinct
    candidates, both generators and both accepted; the 22 Schreier
    transversals it once built there are gone.  g3-split has no
    stone-free node."""
    counts: dict = {}
    gens = verifier.automorphism_generators
    expand, accept = _Machine._expand_stone_free, _Machine._accept

    def spy_gens(board):
        counts["gens"] += 1
        counts["generators"] = gens(board)
        return counts["generators"]

    def spy_expand(self, *state):
        counts["expansions"] += 1
        return expand(self, *state)

    def spy_accept(self, stack, perms, masks, ra, rb, other=None):
        got = accept(self, stack, perms, masks, ra, rb, other)
        if other is None:  # a stone-free candidate, not a copy swap
            g = perms[-1]
            assert g in counts["generators"]
            counts["candidates"][tuple(g)] = got is not None
        return got

    monkeypatch.setattr(verifier, "automorphism_generators", spy_gens)
    monkeypatch.setattr(_Machine, "_expand_stone_free", spy_expand)
    monkeypatch.setattr(_Machine, "_accept", spy_accept)
    for name, (board, tree) in _pentagon_targets().items():
        counts.update(expansions=0, gens=0, generators=[], candidates={})
        assert verify_maker_strategy(board, tree).verified, name
        candidates = counts["candidates"]
        got = (
            counts["expansions"],
            counts["gens"],
            len(candidates),
            sum(candidates.values()),
        )
        assert got == ((0, 0, 0, 0) if name == "g3-split" else (1, 1, 2, 2)), name


def test_generators_are_built_once_per_board_value(monkeypatch):
    """Every stone-free node of the mutants and the pentagon targets lies
    on one board value, gamma's 35-vertex pentagon board, so on a cold
    cache one search serves them all.  Verifying the 20 mutants twice
    searches once; without the cache it searched 10 times, at the five
    stone-free mutants of each pass.  Gamma, gamma-prime and g4 together
    search once too, against 3 without the cache."""
    builds = cold_searches(monkeypatch)
    for _ in range(2):
        for name, board, tree in named_mutations():
            assert not verify_maker_strategy(board, tree).verified, name
    assert builds == [gen_gamma()]
    builds = cold_searches(monkeypatch)
    for name, (board, tree) in _pentagon_targets().items():
        if name != "g3-split":
            assert verify_maker_strategy(board, tree).verified, name
    assert builds == [gen_gamma()]


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
        accept = machine._accept(stack, perms, masks, ra, rb)
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


def test_a_breaker_stone_under_a_fresh_layer_refuses_its_rotation():
    """An opponent stone on a vertex that a layer embeds, played before
    the layer is entered, is no stone on the layer's board, but a symmetry
    that moves it is still refused at the layer's stone-free node.

    Maker holds 4 and 5 and wins by any of 0..3.  The opponent took real
    0 before the layer copied 0..3 as the edges {0, 1}, {0, 2}, {1, 3},
    whose one symmetry swaps 0 with 1 and 2 with 3.  The script answers 2
    with a claim of 1 and 3 with its image under the swap, a claim of the
    taken 0.  The swap fixes Maker's stones, every layer's claim masks
    and the real board once Maker's stones are off, so only the opponent's
    stone on 0 refuses it, and the reply on 3 is searched and fails."""
    h = Hypergraph(7, [(4, k, i) for k in (5, 6) for i in range(4)])
    layer = Layer(name="swap", board=Hypergraph(4, [(0, 1), (0, 2), (1, 3)]), embed=(0, 1, 2, 3))
    replies = tuple(
        (ReplyClass(f"r{c}", frozenset((c,))), Claim(v)) for c, v in ((1, 2), (2, 1), (3, 0))
    )
    inner = EnterLayer(layer, Respond(replies, Claim(1)))
    fork = Respond((), ClaimFirstFree((0, 1, 2, 3)))
    opening = Respond(
        (
            (ReplyClass("zero", frozenset((0,))), Claim(5, inner)),
            (ReplyClass("five", frozenset((5,))), Claim(6, fork)),
        ),
        Claim(5, fork),
    )
    tree = StrategyTree(h, Side.A, Claim(4, opening))
    machine, stack, masks = _stone_free(h, tree, inner)
    maker = 1 << 4 | 1 << 5
    perms = machine._accept(stack, _lift(stack, [1, 0, 3, 2]), masks, maker, 0)
    assert perms is not None
    assert not _fits_state(stack, perms, h.edge_masks, masks, maker, 1 << 0)
    report = verify_maker_strategy(h, tree)
    assert report.counterexample == Counterexample(
        "occupied_claim",
        (("maker", 4), ("breaker", 0), ("maker", 5), ("breaker", 3)),
        "strategy claims occupied vertex 0",
    )


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


def _bounded_win_relevance(stack: _Stack, va: int, k: int) -> int:
    """A bounded-win state's relevance summed from its parts: the stack's
    fixed relevance, the real members of each dynamic group whose home
    ``va`` holds and the real image of each innermost edge within ``k``
    claims of ``va``."""
    rel = stack.fixed_rel
    if stack.layer is not None:
        for v, home in stack.layer.dynamic_groups.items():
            if va >> home & 1:
                rel |= 1 << stack.outers[-1].real[v]
    for mask in stack.board.edge_masks:
        if (mask & ~va).bit_count() <= k:
            rel |= stack.to_real(mask)
    return rel


def test_bounded_win_entries_sum_their_relevance(monkeypatch):
    """Every bounded-win entry built while the four targets and the
    mutants verify has the relevance ``_bounded_win_relevance`` sums.  The
    targets build no entry whose Maker mask holds a group home; the three
    ``endgame-*`` mutants of the pentagon lift build two each."""
    bw_entry = _Machine._bw_entry
    built = []

    def spy(self, stack, va, k):
        fresh = (va, k) not in stack.bw
        got = bw_entry(self, stack, va, k)
        if fresh:
            assert got[0] == _bounded_win_relevance(stack, va, k)
            built.append(bool(va & stack.homes))
        return got

    monkeypatch.setattr(_Machine, "_bw_entry", spy)
    gamma_prime = lift_gamma_prime(build_gamma_strategy())
    targets = [
        (gen_gamma(), build_gamma_strategy()),
        (gen_gamma_prime(), gamma_prime),
        (gen_g4(), lift_g4(gamma_prime)),
        (split_pendant(gen_g3()), lift_split(build_g3_strategy(), gen_g3())),
    ]
    for h, s in targets:
        assert verify_maker_strategy(h, s).verified
    assert not any(built)
    for name, board, tree in named_mutations():
        assert not verify_maker_strategy(board, tree).verified, name
    assert sum(built) == 6


def _clear_relevance(node, bit: int, done: dict):
    """``node`` with ``bit`` cleared from the relevance of every ``Respond``
    below it.  ``done`` maps the id of each node met to (its copy, the
    node), so a shared subtree is copied once."""
    got = done.get(id(node))
    if got is not None:
        return got[0]
    copy = node
    if isinstance(node, Respond):
        rel = node.relevance
        copy = replace(
            node,
            branches=tuple((cls, _clear_relevance(c, bit, done)) for cls, c in node.branches),
            default=_clear_relevance(node.default, bit, done),
            relevance=None if rel is None else rel & ~bit,
        )
    elif isinstance(node, (Claim, ClaimFirstFree, EnterLayer)) and node.then is not None:
        copy = replace(node, then=_clear_relevance(node.then, bit, done))
    done[id(node)] = (copy, node)
    return copy


def _y113_hidden():
    """The ``endgame-branch-dropped`` mutant with y113 (real vertex 37 of
    gamma-prime) cleared from the relevance of every ``Respond`` in its
    gadget endgame ``on_win[0]``, as (board, tree, masks changed)."""
    mutants = {name: (board, tree) for name, board, tree in named_mutations()}
    board, tree = mutants["endgame-branch-dropped"]
    layer = tree.root.layer
    done: dict = {}
    endgame = _clear_relevance(layer.on_win[0], 1 << gadget_y(1, 1, 3), done)
    changed = sum(
        type(node) is Respond and copy.relevance != node.relevance
        for copy, node in done.values()
    )
    edited = replace(layer, on_win={**layer.on_win, 0: endgame})
    tree = StrategyTree(board, tree.first_mover, EnterLayer(edited, tree.root.then))
    return board, tree, changed


def test_the_y113_edit_changes_sixteen_masks():
    """The edit behind the trusted-relevance defect clears y113, vertex
    37, from exactly 16 relevance masks of the mutant's gadget endgame and
    leaves it in none; the unedited mutant fails as a bounded-win failure
    at 11,000 lines.  This test keeps the edit honest, so that the strict
    xfail below cannot pass on a broken edit."""
    assert gadget_y(1, 1, 3) == 37
    board, tree, changed = _y113_hidden()
    assert changed == 16
    assert not any(
        type(node) is Respond and node.relevance is not None and node.relevance >> 37 & 1
        for node in iter_nodes(tree.root.layer.on_win[0])
    )
    mutants = {name: (board, tree) for name, board, tree in named_mutations()}
    report = verify_maker_strategy(*mutants["endgame-branch-dropped"])
    assert report.counterexample.kind == "bounded_win_failure"
    assert report.lines_checked == 11_000


@pytest.mark.xfail(
    strict=True,
    reason="relevance hints are trusted: the verifier accepts this tree "
    "in 188,355 lines at depth 28 until zones check the hints",
)
def test_a_relevance_hint_that_hides_y113_is_refuted():
    """A ``Respond`` relevance that leaves out y113 hides the dropped
    endgame branch from the memo key, and the verifier wrongly accepts
    the mutant.  Checked relevance must refute it; the strict marker makes
    the change that does so drop the marker."""
    board, tree, _changed = _y113_hidden()
    assert not verify_maker_strategy(board, tree).verified


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
# inert answered pairs


def _rule_off(monkeypatch):
    monkeypatch.setattr(verifier, "_inert_pairs", lambda stack: ())


def test_without_dead_pairs_the_unpruned_lines_come_back(monkeypatch):
    """Differential gate: with the inert pairs' replies played and every
    finishing continuation expanded, g3-split explores exactly its 256,247
    lines again, at depth 28, the other targets do not move, and every
    mutant fails on the same line with the same detail; the two rules
    only skip work.  With only the pairs played g3-split takes 202,272
    lines.  The others are the pinned counts of
    ``test_verifier_counters_are_pinned``."""
    pruned = [
        (name, verify_maker_strategy(board, tree))
        for name, board, tree in named_mutations()
    ]
    _rule_off(monkeypatch)
    board, tree = _pentagon_targets()["g3-split"]
    assert verify_maker_strategy(board, tree).lines_checked == 202_272
    _finish_off(monkeypatch)
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


def _random_split_tree(seed: int) -> StrategyTree:
    """A random small board's script of two or three levels of claims,
    defaultful ``Respond`` nodes and bounded wins, for either first
    mover, lifted to the board's pendant split."""
    rng = random.Random(seed)
    h = random_hypergraph(rng, max_vertices=6, max_edges=5, size_range=(2, 3))
    root = _random_maker_node(rng, list(range(h.vertex_count)), rng.randint(1, 2))
    first = rng.choice((Side.A, Side.B))
    if first is Side.B:
        root = Respond((), root)
    return lift_split(StrategyTree(h, first, root), h)


def _random_bounded_split_tree(seed: int) -> StrategyTree:
    """A ``BoundedWin(k)`` search, k from 1 to 4, on a random board of at
    most 7 vertices, lifted to the board's pendant split: at the root
    when Breaker moves first, after a claim of a random vertex when Maker
    does.  Every other draw also joins some pendants to a base vertex by
    a real edge of two, which no continuation's edge accounts for."""
    rng = random.Random(seed)
    h = random_hypergraph(rng, max_vertices=7, max_edges=5, size_range=(2, 3))
    root = Respond((), BoundedWin(rng.randint(1, 4)))
    first = rng.choice((Side.A, Side.B))
    if first is Side.A:
        root = Claim(rng.randrange(h.vertex_count), root)
    tree = lift_split(StrategyTree(h, first, root), h)
    board = tree.board
    if rng.random() < 0.5:
        pendants = range(h.vertex_count, board.vertex_count)
        extra = {(rng.randrange(h.vertex_count), p) for p in pendants if rng.random() < 0.3}
        board = Hypergraph(board.vertex_count, sorted(set(board.edges) | extra))
    return StrategyTree(board, first, tree.root)


_SPLIT_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _check_pairs(make_tree) -> list:
    """Check, on the scripts ``make_tree`` draws from a seed, that skipping
    the inert pairs' replies keeps the verdict and the counterexample and
    plays no more lines; return (verified, fired) per script, where
    fired means the rule left some reply unplayed."""
    records = []

    @_SPLIT_SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        tree = make_tree(seed)
        # a fresh patch per script, so that each fast run has the rule on
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_replies(patch)
            fast = verify_maker_strategy(tree.board, tree)
            played = calls[0]
            _rule_off(patch)
            slow = verify_maker_strategy(tree.board, tree)
            played_off = calls[0] - played
        assert fast.verified == slow.verified
        assert fast.counterexample == slow.counterexample
        assert fast.lines_checked <= slow.lines_checked
        records.append((fast.verified, played < played_off))

    check()
    return records


def test_dead_pairs_keep_every_verdict_on_random_split_boards():
    """On random pendant splits of small boards, scripts of two or three
    levels of claims, defaultful ``Respond`` nodes and bounded wins get the
    same verdict and counterexample with and without the inert-pair rule,
    and the rule fires on some of them."""
    records = _check_pairs(_random_split_tree)
    assert any(fired for _verified, fired in records)


def test_inert_pairs_keep_every_verdict_on_random_bounded_wins():
    """Bounded-win scripts on random pendant splits, some with extra real
    edges through pendants, get the same verdict and counterexample with
    and without the inert-pair rule.  Unlike the scripts of
    ``_random_split_tree``, which mostly fail, many verify, and the rule
    fires on some script that verifies."""
    records = _check_pairs(_random_bounded_split_tree)
    assert any(verified and fired for verified, fired in records)


def _pairs(h: Hypergraph, *layers) -> int:
    """The members of the inert pairs in ``_Stack.pairs`` of the stack
    that enters ``layers`` on ``h``, as a real mask."""
    machine = _Machine(h)
    stack = machine.root
    for layer in layers:
        stack = machine._push(stack, layer)
    return _apply_segments(stack.pairs, machine.full)


def test_a_pair_named_by_a_live_continuation_is_kept():
    """On the shipped g3-split lift every continuation claims the two
    pendants of its own base edge and finishes, so all 20 pendants are
    inert.  On the ``completion-leaves-shifted`` mutant the continuation
    of each base edge claims the pendants of the next one, so it no
    longer ends the line at once, and no pendant is inert."""
    g3 = gen_g3()
    shipped = lift_split(build_g3_strategy(), g3)
    assert _pairs(shipped.board, shipped.root.layer) == sum(1 << v for v in range(15, 35))
    mutants = {name: tree for name, _board, tree in named_mutations()}
    shifted = mutants["completion-leaves-shifted"]
    assert _pairs(shifted.board, shifted.root.layer) == 0


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
    "cont, inert",
    [
        (Respond((), Claim(4)), 0),
        (Respond((), ClaimFirstFree((3, 5))), 0),
        (Respond((), BoundedWin(1)), 0),
        (Respond((), Claim(2)), 0),
        (Respond((), Claim(3)), 1 << 4 | 1 << 5),
    ],
    ids=["claim", "claim-first-free", "bounded-win", "claim-unfinished", "claim-elsewhere"],
)
def test_a_continuation_that_may_claim_a_pair_keeps_it(cont, inert):
    """The pair {4, 5} is inert only while every continuation ends the
    line at Maker's next claim (see ``_finishes``) and none takes one of
    4 and 5 without the other.  A claim of 4 completes {1, 4} but takes
    only 4.  A claim of 3 or 5 (5 leaves {2, 5} open), of 2 (which leaves
    {2, 5} open although it claims neither 4 nor 5) or a bounded-win
    search may not end the line.  A claim of 3 completes the edge {3} at
    once and leaves the pair inert, although the pair's own edges {1, 4}
    and {2, 5} are not the continuation's {0, 1}: Maker never claims 4
    or 5 on the stack, so an exchange on the pair only helps Maker."""
    h, outer, inner = _inner_continuation(cont)
    assert _pairs(h, outer, inner) == inert


def test_a_pair_an_open_continuation_may_read_is_kept(monkeypatch):
    """The continuations of the virtual edges {1} and {3} (real 3 and 8)
    run on the real board, where 0 and 1 are plain moves, and the one for
    a move on 0 claims 2 or 5.  Such a continuation branches, so it does
    not finish and the pair {0, 1} is not inert: the line that plays 0
    there fails as it does with the rule off.  Were the pair's replies
    skipped at the layer's nodes, the script would verify."""
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
    assert _pairs(h, layer) == 0
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
    the pendants 2 and 3 are free and their pair is inert.  Skipping it
    would leave no reply, so it is played and the line still runs out of
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


def _k4_pendants():
    """K4 on 0-3 and the pendants 4 and 5, as (real board, layer): the
    layer embeds the K4 and answers each pendant with the other."""
    h = Hypergraph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    layer = Layer(
        name="k4",
        board=Hypergraph(4, h.edges),
        embed=(0, 1, 2, 3),
        win_edges={e: e for e in range(6)},
        answers={4: 5, 5: 4},
    )
    return h, layer


def _cls(*vertices):
    return ReplyClass(str(vertices), frozenset(vertices))


def test_a_pair_entered_with_maker_on_one_member_is_played(monkeypatch):
    """Maker takes the pendant 5 on the real board and then enters the
    layer, whose first node covers the K4 but has no default.  The pair
    {4, 5} is inert, but with 5 taken Breaker's 4 is not answered, so it
    is no exchange: it passes to the missing default, and the line fails
    as it does with the rule off.  Were 4 skipped the script would
    verify."""
    h, layer = _k4_pendants()
    win = Respond((), ClaimFirstFree((0, 1, 2, 3)))
    first = Respond(tuple((_cls(v), Claim(1 if v == 0 else 0, win)) for v in range(4)))
    tree = StrategyTree(h, Side.A, Claim(5, EnterLayer(layer, first)))
    assert _pairs(h, layer) == 0b11 << 4
    fast = verify_maker_strategy(h, tree)
    _rule_off(monkeypatch)
    slow = verify_maker_strategy(h, tree)
    assert fast.counterexample == slow.counterexample == Counterexample(
        "uncovered_reply",
        (("maker", 5), ("breaker", 4)),
        "real reply 4 is a pass and there is no default",
    )


def test_a_pair_entered_with_breaker_on_one_member_is_played(monkeypatch):
    """Breaker opens on the pendant 4, and Maker takes 0 and enters the
    layer, whose first node covers the rest of the K4 but has no default;
    every other opening is a bounded win.  Breaker's 5 is not answered,
    since 4 is taken, so it passes to the missing default, and the line
    fails as it does with the rule off.  Were 5 skipped the script would
    verify."""
    h, layer = _k4_pendants()
    first = Respond(((_cls(1), Claim(2)), (_cls(2), Claim(1)), (_cls(3), Claim(1))))
    root = Respond(((_cls(4), Claim(0, EnterLayer(layer, first))),), BoundedWin(2))
    tree = StrategyTree(h, Side.B, root)
    fast = verify_maker_strategy(h, tree)
    _rule_off(monkeypatch)
    slow = verify_maker_strategy(h, tree)
    assert fast.counterexample == slow.counterexample == Counterexample(
        "uncovered_reply",
        (("breaker", 4), ("maker", 0), ("breaker", 5)),
        "real reply 5 is a pass and there is no default",
    )


def _center_layer():
    """Six isolated vertices 0-5 and the split of the base edges {6, 7}
    and {6, 8}, with pendants 9, 10 and 11, 12, as (real board, layer):
    the layer embeds 6, 7 and 8, answers each pendant with its partner
    and continues each base edge with a claim of its pendants."""
    h = Hypergraph(13, [(6, 7, 9), (6, 7, 10), (6, 8, 11), (6, 8, 12)])
    layer = Layer(
        name="center",
        board=Hypergraph(3, [(0, 1), (0, 2)]),
        embed=(6, 7, 8),
        on_win={0: Respond((), ClaimFirstFree((9, 10))), 1: Respond((), ClaimFirstFree((11, 12)))},
        answers={9: 10, 10: 9, 11: 12, 12: 11},
    )
    return h, layer


def test_a_layer_entered_on_a_held_image_keeps_its_pairs_in_the_key(monkeypatch):
    """Maker takes the center 6 on the real board before entering the
    layer, so the layer never sees it and no continuation can fire.  After
    Breaker 0 the script exchanges both pendant pairs on the real board
    and enters the layer holding 10 and 12, where each of 7 and 8 wins.
    After Breaker 1 it enters with both pairs free, where neither wins.
    The two entries differ only in the pairs, so a key without them would
    let the second read the first's success and verify the script; the
    key keeps every free member, so the line after Breaker 1 fails as it
    does with the rule off."""
    h, layer = _center_layer()

    def cls(*vertices):
        return ReplyClass(str(vertices), frozenset(vertices))

    enter = EnterLayer(layer, Respond(((cls(1), Claim(2)),), Claim(1)))
    take_8 = Claim(8, Respond((), ClaimFirstFree((11, 12))))
    take_7 = Claim(7, Respond((), ClaimFirstFree((9, 10))))
    after_10 = Respond(((cls(11), Claim(12, enter)), (cls(7), take_8)), Claim(7))
    after_9 = Respond(((cls(7), take_8),), Claim(7))
    after_0 = Respond(
        ((cls(9), Claim(10, after_10)), (cls(10), Claim(9, after_9)), (cls(7), take_8)),
        take_7,
    )
    root = Claim(
        6,
        Respond(
            (
                (cls(0), Claim(3, after_0)),
                (cls(1), Claim(2, enter)),
                (cls(7), take_8),
                (cls(9, 10), take_8),
            ),
            take_7,
        ),
    )
    tree = StrategyTree(h, Side.A, root)
    assert _pairs(h, layer) == 0b1111 << 9
    fast = verify_maker_strategy(h, tree)
    _rule_off(monkeypatch)
    slow = verify_maker_strategy(h, tree)
    assert fast.counterexample == slow.counterexample == Counterexample(
        "leaf_without_win",
        (("maker", 6), ("breaker", 1), ("maker", 2), ("breaker", 0), ("maker", 7)),
        "leaf claims vertex 7 without completing an edge",
    )


def _pair_layer():
    """The edge {1, 2} under a layer that pairs 3 with 4, on a real board
    whose edges {0, 3} and {0, 4} hold the pair, as (real board, layer)."""
    h = Hypergraph(5, [(1, 2), (0, 3), (0, 4)])
    layer = Layer(
        name="pairs",
        board=Hypergraph(2, [(0, 1)]),
        embed=(1, 2),
        win_edges={0: 0},
        answers={3: 4, 4: 3},
    )
    return h, layer


def test_answered_pairs_answer_each_other_alone_outside_the_image():
    """A pair is inert when its vertices answer each other, marking no
    layer, no third vertex is answered with either, neither lies in the
    image of the innermost board and every continuation finishes, one
    that meets the pair claiming exactly the pair.  Each disqualifier
    gives 0: a one-way answer, a third vertex answered with a member, a
    pair inside the image, a pair with one member in it, a pair whose
    moves mark an outer layer, a continuation that does not finish, and a
    finishing continuation that claims one member of the pair, or one
    vertex of each of two pairs.  A real edge through the pair that no
    continuation accounts for, here {0, 3} and {0, 4}, disqualifies
    nothing."""
    h, layer = _pair_layer()
    assert _pairs(h, layer) == 1 << 3 | 1 << 4
    assert _pairs(h, replace(layer, answers={3: 4})) == 0
    assert _pairs(h, replace(layer, answers={3: 4, 4: 3, 0: 4})) == 0
    inside = replace(layer, board=Hypergraph(3, [(0, 1)]), embed=(1, 2, 3))
    assert _pairs(h, inside) == 0
    assert _pairs(h, replace(layer, answers={2: 3, 3: 2})) == 0
    whole = Layer(
        name="whole",
        board=h,
        embed=tuple(range(5)),
        win_edges={e: e for e in range(3)},
    )
    assert _pairs(h, whole, layer) == 0
    h, layer = _center_layer()
    assert _pairs(h, layer) == 0b1111 << 9
    # with {6, 7, 11} an edge too, a claim of 11 also finishes {6, 7}
    h = Hypergraph(13, [*h.edges, (6, 7, 11)])
    for claims, inert in [((9, 10), 0b1111 << 9), ((9,), 0b11 << 11), ((9, 11), 0)]:
        on_win = {0: Respond((), ClaimFirstFree(claims)), 1: layer.on_win[1]}
        assert _pairs(h, replace(layer, on_win=on_win)) == inert, claims
    unfinished = {0: Respond((), BoundedWin(1)), 1: layer.on_win[1]}
    assert _pairs(h, replace(layer, on_win=unfinished)) == 0


def _entry_tag(rec, node, entry):
    """How ``node`` handles a reply that resolves to the table ``entry``:
    alike at a ``_BWAfter`` node; else by the real vertex an answer
    claims, by the branch of ``rec``, the node's record, that a coordinate
    falls in, or by the default."""
    if isinstance(node, _BWAfter):
        return ("w",)
    if entry[0] == "answer":
        return ("a", entry[1])
    if entry[0] == "vertex":
        branch = rec.branches.get(entry[1])
        if branch is not None:
            return ("b", branch)
    return ("d",) if node.default is not None else ("u",)


def _plain_merge(stack, node) -> dict:
    """Every real vertex of ``stack`` by a plain merge at ``node``: each
    vertex outside a dynamic group tagged by ``_entry_tag``, merged per
    (visible effects, tag), and each dynamic group on its own, keyed by
    ("dyn", home).  Each merge holds (real vertex, visible effects)
    pairs."""
    rec = stack.nodes[id(node)]
    merged: dict = {}
    for rv, entry in enumerate(stack.table):
        visible = tuple((fi, c) for fi, c in entry[-1] if fi in stack.stateful)
        if entry[0] == "dyn":
            key = ("dyn", entry[1])
        else:
            key = (visible, _entry_tag(rec, node, entry))
        merged.setdefault(key, []).append((rv, visible))
    return merged


def _reference_groups(stack, node) -> tuple:
    """The reply groups of (``stack``, ``node``) by ``_plain_merge``, as
    (singles, sorted group masks)."""
    merged = _plain_merge(stack, node)
    masks = [sum(1 << rv for rv, _visible in members) for members in merged.values()]
    singles = sum(mask for mask in masks if not mask & (mask - 1))
    return singles, sorted(mask for mask in masks if mask & (mask - 1))


def _reference_repeats(stack, node) -> list:
    """The ``repeats`` of (``stack``, ``Respond`` node ``node``) by
    ``_plain_merge``: (k, member mask, home bit) for each merge of two or
    more members, none of them answered and all with one visible effect,
    whose child is ``BoundedWin(k)``: the branch a tag names, else the
    default, which is also the child of a dynamic group (home bit set)
    once its home is taken."""
    repeats = []
    for key, members in _plain_merge(stack, node).items():
        home = 1 << key[1] if key[0] == "dyn" else 0
        tag = () if home else key[1]
        if tag[:1] == ("a",) or len(members) < 2 or len({v for _rv, v in members}) > 1:
            continue
        child = node.branches[tag[1]][1] if tag[:1] == ("b",) else node.default
        if isinstance(child, BoundedWin):
            repeats.append((child.k, sum(1 << rv for rv, _visible in members), home))
    return sorted(repeats)


def test_reply_groups_match_the_plain_merge(monkeypatch):
    """Differential gate: at every (stack, opponent node) that the four
    targets and the 20 mutants visit, the groups its record holds, built
    from the stack's buckets, are the plain merge's, as a partition of the
    real vertices, and so are its repeats; only their order may differ.
    The record is built once per visited (stack, node), and 13 of the
    mutants' 1,274 builds are at ``_BWAfter`` nodes."""
    dispatch = _Machine._dispatch
    built = []

    def spy(self, stack, node):
        assert id(node) not in stack.nodes
        rec = dispatch(self, stack, node)
        assert (rec.singles, sorted(rec.groups)) == _reference_groups(stack, node)
        if type(node) is _BWAfter:
            assert rec.repeats == ()
        else:
            assert sorted(rec.repeats) == _reference_repeats(stack, node)
        built.append(type(node) is _BWAfter)
        return rec

    monkeypatch.setattr(_Machine, "_dispatch", spy)
    counts = {}
    for name, (board, tree) in _pentagon_targets().items():
        assert verify_maker_strategy(board, tree).verified, name
        counts[name] = len(built)
        built.clear()
    for _name, board, tree in named_mutations():
        assert not verify_maker_strategy(board, tree).verified
    counts["mutants"] = len(built)
    assert counts == {"gamma": 58, "gamma-prime": 324, "g4": 329, "g3-split": 5, "mutants": 1274}
    assert sum(built) == 13


def _bucket_board(default):
    """A machine and the stack of a layer that embeds real 0, 1 and 2 on
    the board {0, 1}, {0, 2}, answers real 3 and 4 with 1 and real 5 with
    2, and sees 6 and 7 as passes; with a ``Respond`` node that branches
    on coordinate 1 and has ``default``."""
    h = Hypergraph(8, [(0, 1), (0, 2)])
    layer = Layer(
        name="buckets",
        board=Hypergraph(3, [(0, 1), (0, 2)]),
        embed=(0, 1, 2),
        win_edges={0: 0, 1: 1},
        answers={3: 1, 4: 1, 5: 2},
    )
    node = Respond(((ReplyClass("one", frozenset((1,))), Claim(2, WinNow(1))),), default)
    machine = _Machine(h)
    _node, stack, _masks = machine._enter(EnterLayer(layer, node), machine.root, ())
    return machine, stack, node


def test_a_bounded_win_node_groups_answers_with_their_visible_effects():
    """A ``_BWAfter`` node handles every reply alike, so the answered
    replies 3, 4 and 5, which mark no layer, share one group with the
    passes 6 and 7; each embedded vertex marks the layer, so it stays on
    its own."""
    machine, stack, _node = _bucket_board(None)
    rec = machine._dispatch(stack, _bw_after(1))
    assert (rec.singles, rec.groups) == (0b111, (0b11111000,))


@pytest.mark.parametrize("default", [None, Claim(1, WinNow(0))], ids=["no-default", "default"])
def test_a_respond_node_keeps_answered_replies_apart(default):
    """At a ``Respond`` node an answered reply is handled by the vertex
    that answers it: 3 and 4, both answered with 1, share a group, 5 is
    on its own and the passes 6 and 7 share another, with or without a
    default to hand them to."""
    machine, stack, node = _bucket_board(default)
    rec = machine._dispatch(stack, node)
    assert (rec.singles, sorted(rec.groups)) == (0b100111, [0b11000, 0b11000000])
    assert (rec.singles, sorted(rec.groups)) == _reference_groups(stack, node)


# ----------------------------------------------------------------------
# finishing continuations


def _finish_off(monkeypatch):
    """Expand every finishing continuation, as the verifier did before it
    decided them."""

    def expand(self, cont, claims, stack, masks, ra, rb):
        self._expand_opponent(cont, stack, masks, ra, rb)

    monkeypatch.setattr(_Machine, "_finish", expand)


def _finish_calls(monkeypatch) -> list:
    """Record each call of ``_Machine._finish``: True when it decided the
    continuation, False when it expanded it."""
    calls = []
    expanded = []
    expand, finish = _Machine._expand_opponent, _Machine._finish

    def spy_expand(self, node, *args):
        expanded.append(node)
        return expand(self, node, *args)

    def spy_finish(self, cont, claims, stack, masks, ra, rb):
        before = len(expanded)
        try:
            finish(self, cont, claims, stack, masks, ra, rb)
        finally:
            calls.append(len(expanded) == before)

    monkeypatch.setattr(_Machine, "_expand_opponent", spy_expand)
    monkeypatch.setattr(_Machine, "_finish", spy_finish)
    return calls


def _outcome(report) -> tuple:
    """Everything a report says but its time."""
    return report.verified, report.lines_checked, report.max_depth, report.counterexample


def test_without_finishing_the_expanded_lines_come_back(monkeypatch):
    """Differential gate: with every finishing continuation expanded,
    g3-split explores its 67,940 lines again, at depth 11; the other
    targets do not move, and every mutant fails with the same kind, moves,
    detail, lines and depth.  On g3-split the rule meets 3,417 pendant
    continuations and decides each of them, counted as one line instead
    of the node and a claim per reply; none falls back to the expansion."""
    calls = _finish_calls(monkeypatch)
    board, tree = _pentagon_targets()["g3-split"]
    report = verify_maker_strategy(board, tree)
    assert (report.lines_checked, report.max_depth) == (13_965, 11)
    assert (calls.count(True), calls.count(False)) == (3_417, 0)
    pruned = [verify_maker_strategy(board, tree) for _name, board, tree in named_mutations()]
    _finish_off(monkeypatch)
    want = {
        "gamma": (3_865, 20),
        "gamma-prime": (41_398, 28),
        "g4": (49_405, 33),
        "g3-split": (67_940, 11),
    }
    for name, (board, tree) in _pentagon_targets().items():
        slow = verify_maker_strategy(board, tree)
        assert slow.verified, name
        assert (slow.lines_checked, slow.max_depth) == want[name], name
    for (name, board, tree), fast in zip(named_mutations(), pruned):
        slow = verify_maker_strategy(board, tree)
        assert _outcome(fast) == _outcome(slow), name


def _two_finishes(relevance=None):
    """A board where Maker holds real 0 and completes {0, 1} or {0, 4}
    on a layer, after which either pendant 2 or 3 wins, and a script
    that plays it, as (real board, layer, script).  The continuation's
    ``Respond`` carries ``relevance``.

    After Breaker 1, Maker's 4 completes {0, 4} with both pendants free.
    After Breaker 2, Maker's 1 completes {0, 1} with only 3 free, and
    Breaker's 3 leaves the continuation no vertex to claim."""
    h = Hypergraph(7, [(0, 1, 2), (0, 1, 3), (0, 4, 2), (0, 4, 3), (5, 6)])
    finish = Respond((), ClaimFirstFree((2, 3)), relevance)
    layer = Layer(
        name="finishes",
        board=Hypergraph(3, [(0, 1), (0, 2)]),
        embed=(0, 1, 4),
        on_win={0: finish, 1: finish},
    )
    script = Claim(0, Respond(((ReplyClass("one", frozenset((1,))), Claim(2)),), Claim(1)))
    return h, layer, script


_ONE_FREE_PENDANT = Counterexample(
    "occupied_claim",
    (("maker", 0), ("breaker", 2), ("maker", 1), ("breaker", 3)),
    "no free vertex among (2, 3)",
)


def test_a_continuation_with_one_free_vertex_is_expanded(monkeypatch):
    """A finishing continuation on the root stack is decided while both
    of its vertices are free, and expanded once one is taken, so the line
    on which Breaker then takes the other fails as it does with the rule
    off."""
    h, layer, script = _two_finishes()
    tree = StrategyTree(h, Side.A, EnterLayer(layer, script))
    calls = _finish_calls(monkeypatch)
    fast = verify_maker_strategy(h, tree)
    assert calls == [True, False]
    _finish_off(monkeypatch)
    slow = verify_maker_strategy(h, tree)
    assert fast.counterexample == slow.counterexample == _ONE_FREE_PENDANT
    assert fast.max_depth == slow.max_depth


@pytest.mark.parametrize("relevance", [1 << 7, -1], ids=["board-7", "board-neg"])
def test_a_continuation_with_relevance_off_the_board_is_expanded(relevance):
    """A continuation whose relevance names a vertex off the board is not
    finishing: it fails as ill-formed on the first line that reaches it,
    although both of its vertices are free there."""
    h, layer, script = _two_finishes(relevance)
    report = verify_maker_strategy(h, StrategyTree(h, Side.A, EnterLayer(layer, script)))
    assert report.counterexample == Counterexample(
        "ill_formed",
        (("maker", 0), ("breaker", 1), ("maker", 4)),
        "node relevance leaves the board",
    )


@pytest.mark.parametrize("answers", [{}, {5: 6, 6: 5}], ids=["plain", "answers"])
def test_a_continuation_off_the_root_stack_is_never_decided(monkeypatch, answers):
    """Under an outer layer over the whole real board, the same
    continuations run on the outer layer's stack, where an answer may give
    the opponent a second move before Maker claims, so none is decided and
    every count is the expansion's."""
    h, layer, script = _two_finishes()
    outer = Layer(
        name="outer",
        board=h,
        embed=tuple(range(7)),
        win_edges={e: e for e in range(5)},
        answers=answers,
    )
    tree = StrategyTree(h, Side.A, EnterLayer(outer, EnterLayer(layer, script)))
    calls = _finish_calls(monkeypatch)
    fast = verify_maker_strategy(h, tree)
    assert calls == []
    assert fast.counterexample == _ONE_FREE_PENDANT
    _finish_off(monkeypatch)
    assert _outcome(fast) == _outcome(verify_maker_strategy(h, tree))


def test_each_continuation_is_classified_once_per_stack(monkeypatch):
    """``_finishes`` runs only while a stack's ``wins`` table is built,
    once per edge of the stack's own layer: never on gamma, 15 times on
    gamma-prime (the gadget endgames), 45 on g4 (15 on each of its three
    pentagon-over-gadgets stacks), 10 on g3-split (the pendant claims) and
    70 times over the 20 mutants.  Every table entry holds its layer's
    continuation, the real image of its edge and the finishing claims,
    recomputed here from the layer data; only g3-split's 10 finish.  Every
    claim-table entry copies them, with the claims only on the root
    stack."""
    finishes, push = verifier._finishes, _Machine._push
    calls = [0]
    stacks: dict = {}

    def spy_finishes(*args):
        calls[0] += 1
        return finishes(*args)

    def spy_push(self, stack, layer):
        child = push(self, stack, layer)
        stacks[id(child)] = (child, self.root)
        return child

    monkeypatch.setattr(verifier, "_finishes", spy_finishes)
    monkeypatch.setattr(_Machine, "_push", spy_push)

    def traffic(board, tree) -> int:
        calls[0] = 0
        verify_maker_strategy(board, tree)
        return calls[0]

    got = {name: traffic(*target) for name, target in _pentagon_targets().items()}
    assert got == {"gamma": 0, "gamma-prime": 15, "g4": 45, "g3-split": 10}
    assert sum(traffic(board, tree) for _name, board, tree in named_mutations()) == 70
    finishing = 0
    for stack, root in stacks.values():
        assert len(stack.wins) == len(stack.layers)
        real = stack.outers[0].board
        for i, layer in enumerate(stack.layers):
            outer, own = stack.outers[i], stack.wins[i]
            assert own.keys() == layer.on_win.keys()
            for e, cont in layer.on_win.items():
                edge = outer.to_real(_image(layer.embed, layer.board.edge_masks[e]))
                claims = finishes(cont, outer, edge, real)
                assert own[e][0] is cont and own[e][1:] == (edge, claims)
                finishing += bool(claims)
        for entry in stack.claims.values():
            for i, mask, cont, outer, claims in entry[3]:
                layer = stack.layers[i]
                e = layer.board.edge_masks.index(mask)
                assert cont is layer.on_win[e] and outer is stack.outers[i]
                assert claims == (stack.wins[i][e][2] if outer is root else 0)
    assert finishing == 10


def _check_finishing(make_tree) -> list:
    """Check, on the scripts ``make_tree`` draws from a seed, that deciding
    finishing continuations keeps the verdict, the counterexample and the
    depth of expanding them; return each script's ``_finish_calls``."""
    records = []

    @_SPLIT_SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        tree = make_tree(seed)
        # a fresh patch per script, so that each fast run has the rule on
        with pytest.MonkeyPatch.context() as patch:
            calls = _finish_calls(patch)
            fast = verify_maker_strategy(tree.board, tree)
            _finish_off(patch)
            slow = verify_maker_strategy(tree.board, tree)
        assert fast.verified == slow.verified
        assert fast.counterexample == slow.counterexample
        assert fast.max_depth == slow.max_depth
        records.append(calls)

    check()
    return records


def test_finishing_keeps_every_line_on_random_split_boards():
    """On random pendant splits (the scripts of the inert-pair comparison),
    deciding finishing continuations keeps the verdict, the counterexample
    and the depth, and it decides some."""
    records = _check_finishing(_random_split_tree)
    assert any(True in calls for calls in records)


def _random_layered_tree(seed: int) -> StrategyTree:
    """A random small board's script, drawn as ``_random_split_tree``
    draws it, on a layer that copies the board into a real board with two
    to four more vertices.  Each virtual edge continues with a
    ``ClaimFirstFree`` over some of the added vertices, and its image
    with each of some of them is a real edge, so the continuation
    finishes when each vertex it may claim is one of those.  The
    opponent's move on an added vertex is a pass, so a continuation may
    start with one of its vertices taken."""
    rng = random.Random(seed)
    base = random_hypergraph(rng, max_vertices=6, max_edges=5, size_range=(2, 3))
    n = base.vertex_count
    added = range(n, n + rng.randint(2, 4))
    edges = set()
    on_win = {}
    for e, edge in enumerate(base.edges):
        edges.update(edge + (x,) for x in rng.sample(added, rng.randint(1, len(added))))
        claims = tuple(rng.sample(added, rng.randint(1, len(added))))
        on_win[e] = Respond((), ClaimFirstFree(claims))
    h = Hypergraph(n + len(added), sorted(edges))
    layer = Layer(name="random", board=base, embed=tuple(range(n)), on_win=on_win)
    root = _random_maker_node(rng, list(range(n)), rng.randint(1, 2))
    first = rng.choice((Side.A, Side.B))
    if first is Side.B:
        root = Respond((), root)
    return StrategyTree(h, first, EnterLayer(layer, root))


def test_finishing_keeps_every_line_on_random_layered_boards():
    """On random layered boards whose continuations claim from free real
    vertices and nothing is answered, deciding finishing continuations
    keeps the verdict, the counterexample and the depth.  Some
    continuations are decided, and some are expanded because at most one
    of their vertices is free."""
    records = _check_finishing(_random_layered_tree)
    assert any(True in calls for calls in records)
    assert any(False in calls for calls in records)


# ----------------------------------------------------------------------
# replies that repeat a bounded-win key


def _repeats_off(monkeypatch):
    """Play every reply, also one that repeats a sibling's bounded-win key:
    every record is built without repeats."""
    dispatch = _Machine._dispatch

    def without_repeats(self, stack, node):
        rec = dispatch(self, stack, node)
        rec.repeats = ()
        return rec

    monkeypatch.setattr(_Machine, "_dispatch", without_repeats)


def _count_replies(monkeypatch) -> list:
    """A one-item list that counts the calls of ``_Machine._reply``."""
    calls = [0]
    reply = _Machine._reply

    def spy(self, *args):
        calls[0] += 1
        return reply(self, *args)

    monkeypatch.setattr(_Machine, "_reply", spy)
    return calls


def _played(monkeypatch) -> list:
    """Record the line of every ``_Machine._reply`` call, its reply last."""
    lines = []
    reply = _Machine._reply

    def spy(self, node, stack, masks, ra, rb, v, entry):
        lines.append((*self.path, ("breaker", v)))
        return reply(self, node, stack, masks, ra, rb, v, entry)

    monkeypatch.setattr(_Machine, "_reply", spy)
    return lines


def test_without_repeat_drops_every_reply_is_played_again(monkeypatch):
    """Differential gate: with every reply played, also one that repeats
    a sibling's bounded-win key, the four targets keep their lines and
    depth, and every mutant fails with the same kind, moves, detail, lines
    and depth; the rule only skips memo hits, which count no line.  With
    the rule, gamma plays 8,548 replies instead of 27,897, gamma-prime
    33,564 instead of 34,625, g4 42,465 instead of 43,529 and the 20
    mutants 36,131 instead of 60,639; g3-split drops none, and plays
    7,920 either way, since its inert pendant pairs are skipped before
    the repeat rule looks."""
    calls = _count_replies(monkeypatch)

    def run():
        counts, outcomes = {}, {}
        for name, (board, tree) in _pentagon_targets().items():
            calls[0] = 0
            outcomes[name] = _outcome(verify_maker_strategy(board, tree))
            counts[name] = calls[0]
        calls[0] = 0
        for name, board, tree in named_mutations():
            outcomes[name] = _outcome(verify_maker_strategy(board, tree))
        counts["mutants"] = calls[0]
        return counts, outcomes

    fast_counts, fast = run()
    _repeats_off(monkeypatch)
    slow_counts, slow = run()
    assert fast_counts == {
        "gamma": 8_548,
        "gamma-prime": 33_564,
        "g4": 42_465,
        "g3-split": 7_920,
        "mutants": 36_131,
    }
    assert slow_counts == {
        "gamma": 27_897,
        "gamma-prime": 34_625,
        "g4": 43_529,
        "g3-split": 7_920,
        "mutants": 60_639,
    }
    want = {
        "gamma": (3_865, 20),
        "gamma-prime": (41_398, 28),
        "g4": (49_405, 33),
        "g3-split": (13_965, 11),
    }
    for name, (lines, depth) in want.items():
        assert slow[name] == (True, lines, depth, None), name
    assert fast == slow


def test_a_reply_inside_the_bounded_win_relevance_is_played(monkeypatch):
    """Maker holds 0 and has one claim: {0, 4} is within reach and
    {0, 1, 2} is not, so the bounded-win relevance is {0, 4}.  Breaker's
    1, 2 and 3 lie outside it and lead to one key, so only 1 is played.
    4 lies inside it, so it is played, and no claim wins after it."""
    h = Hypergraph(5, [(0, 4), (0, 1, 2)])
    tree = StrategyTree(h, Side.A, Claim(0, Respond((), BoundedWin(1))))
    lines = _played(monkeypatch)
    report = verify_maker_strategy(h, tree)
    assert report.counterexample == Counterexample(
        "bounded_win_failure",
        (("maker", 0), ("breaker", 4)),
        "no win within 1 Maker moves from here",
    )
    assert [line[-1][1] for line in lines] == [1, 4]
    _repeats_off(monkeypatch)
    lines.clear()
    assert _outcome(verify_maker_strategy(h, tree)) == _outcome(report)
    assert [line[-1][1] for line in lines] == [1, 2, 3, 4]


def _layered_repeats() -> StrategyTree:
    """A script on a layer that embeds real 1..4 as its vertices 0..3, on
    the board {0, 1}, {0, 2} with an empty relevance.  The layer answers
    real 5 with 6 and sends real 7 to home 3; real 0 and 6 are passes.
    Maker claims the layer's 0 (real 1) and then, after any reply, wins
    the real edge {1, 2} or {1, 3} within one claim."""
    h = Hypergraph(8, [(1, 2), (1, 3)])
    layer = Layer(
        name="repeats",
        board=Hypergraph(4, [(0, 1), (0, 2)]),
        embed=(1, 2, 3, 4),
        win_edges={0: 0, 1: 1},
        answers={5: 6},
        dynamic_groups={7: 3},
        relevance=0,
    )
    return StrategyTree(h, Side.A, EnterLayer(layer, Claim(0, Respond((), BoundedWin(1)))))


@pytest.mark.parametrize("reply", [4, 5, 7], ids=["layer-effects", "answered", "dyn"])
def test_a_reply_that_may_lead_to_another_key_is_played(monkeypatch, reply):
    """After Maker's first claim the bounded-win relevance is {1, 2, 3}.
    Outside it, the pass 0 is played first: it leads to the default's
    bounded win and leaves the claim masks as they are.  Real 4 marks the
    layer, 5 is answered and 7 resolves at the layer's masks, so each may
    lead to another key, and each is played right after Maker's first
    claim too."""
    tree = _layered_repeats()
    lines = _played(monkeypatch)
    assert verify_maker_strategy(tree.board, tree).verified
    assert reply in [line[1][1] for line in lines if len(line) == 2]


def test_a_layer_plays_one_reply_per_bounded_win_key(monkeypatch):
    """On a layer that keeps no state, the ``Respond`` after Maker's
    claims of 0 and 6 has the relevance {4, 5} and the default
    ``BoundedWin(1)``, whose relevance is {0, 2, 3, 6}.  Every free real
    vertex, the pass 7 too, is in the default's one reply group, which
    plays 4 and 5 and, for the others, 2.  4 and 5 lie outside the
    bounded win's relevance, lead to one key, and only the lower, 4, is
    played.  The outcome is the one with every reply played."""
    h = Hypergraph(8, [(0, 2, 6), (0, 3, 6)])
    layer = Layer(
        name="plain",
        board=Hypergraph(7, [(0, 2, 6), (0, 3, 6)]),
        embed=tuple(range(7)),
        win_edges={0: 0, 1: 1},
        relevance=0,
    )
    last = Respond((), BoundedWin(1), relevance=1 << 4 | 1 << 5)
    tree = StrategyTree(h, Side.A, EnterLayer(layer, Claim(0, Respond((), Claim(6, last)))))
    line = (("maker", 0), ("breaker", 1), ("maker", 6))
    lines = _played(monkeypatch)
    report = verify_maker_strategy(h, tree)
    assert report.verified
    assert [p[-1][1] for p in lines if p[:-1] == line] == [2, 4]
    _repeats_off(monkeypatch)
    lines.clear()
    assert _outcome(verify_maker_strategy(h, tree)) == _outcome(report)
    assert [p[-1][1] for p in lines if p[:-1] == line] == [2, 4, 5]


def test_replies_answered_alike_are_all_played(monkeypatch):
    """A layer that embeds real 1..5 as its vertices 0..4, on the board
    {0, 1}, {0, 2}, answers real 4 and 5 with 7, and its ``Respond`` after
    Maker's claim of real 1 keeps them in its relevance, outside the
    bounded win's, {1, 2, 3}.  They are one reply group, but each is
    answered with a Maker claim, which counts a line, so both are played,
    and the outcome is the one with every reply played."""
    h = Hypergraph(8, [(1, 2), (1, 3)])
    layer = Layer(
        name="answers",
        board=Hypergraph(5, [(0, 1), (0, 2)]),
        embed=(1, 2, 3, 4, 5),
        win_edges={0: 0, 1: 1},
        answers={4: 7, 5: 7},
        relevance=0,
    )
    node = Respond((), BoundedWin(1), relevance=1 << 3 | 1 << 4)
    tree = StrategyTree(h, Side.A, EnterLayer(layer, Claim(0, node)))
    lines = _played(monkeypatch)
    report = verify_maker_strategy(h, tree)
    assert report.verified
    assert [p[-1][1] for p in lines if len(p) == 2] == [0, 2, 3, 4, 5]
    _repeats_off(monkeypatch)
    assert _outcome(verify_maker_strategy(h, tree)) == _outcome(report)


def _dynamic_group_on_a_layer(outer_answers: dict | None) -> StrategyTree:
    """A script on layer "inner", whose board embeds real 0..6 as itself
    with the edges {0, 1, 6}, {0, 2, 6} and {0, 3, 6}, the real edges.
    The layer sends real 4 and 5 to home 1 and, placed by ``embed`` too,
    keeps them in the last ``Respond``'s relevance.  Maker claims 0 and,
    after any reply, 6; then Maker claims 3 after a reply that counts as
    the home, and every other reply goes to ``BoundedWin(1)``.

    With ``outer_answers`` the layer sits on layer "outer", which copies
    the real board with two more vertices and has those answers, so it
    keeps state and a move on 4 or 5 marks it there."""
    n = 7 if outer_answers is None else 9
    edges = [(0, 1, 6), (0, 2, 6), (0, 3, 6)]
    h = Hypergraph(n, edges)
    inner = Layer(
        name="inner",
        board=Hypergraph(7, edges),
        embed=tuple(range(7)),
        win_edges={0: 0, 1: 1, 2: 2},
        relevance=0,
        dynamic_groups={4: 1, 5: 1},
    )
    home = ((ReplyClass("home", frozenset((1,))), Claim(3)),)
    last = Respond(home, BoundedWin(1), relevance=1 << 4 | 1 << 5)
    root = EnterLayer(inner, Claim(0, Respond((), Claim(6, last))))
    if outer_answers is not None:
        outer = Layer(
            name="outer",
            board=h,
            embed=tuple(range(n)),
            win_edges={0: 0, 1: 1, 2: 2},
            answers=outer_answers,
            relevance=0,
        )
        root = EnterLayer(outer, root)
    return StrategyTree(h, Side.A, root)


@pytest.mark.parametrize(
    "outer_answers, first, played",
    [(None, 1, [2, 3, 4]), ({7: 8}, 1, [2, 3, 4, 5, 7, 8]), (None, 2, [1, 3, 4, 5])],
    ids=["taken-home", "outer-state", "free-home"],
)
def test_a_dynamic_group_repeats_only_at_a_taken_home_with_equal_effects(
    monkeypatch, outer_answers, first, played
):
    """At the last ``Respond`` of ``_dynamic_group_on_a_layer``, 4 and 5
    lie in its relevance but outside the bounded win's, {0, 1, 2, 3, 6}.
    Once the opponent's first reply has taken home 1, a move on 4 or 5 is
    a pass that goes to ``BoundedWin(1)``.  With no layer outside the
    innermost they mark nothing else, lead to one key and only 4 is
    played.  When the outer layer keeps state, 4 and 5 mark it at their
    own coordinates, lead to two keys and are both played, as are 7,
    which the outer layer answers, and 8, which marks it.  After a first
    reply of 2 the home is free, a move on 4 or 5 counts as the home and
    Maker claims 3 after each, so both are played.  Each time the outcome
    is the one with every reply played."""
    tree = _dynamic_group_on_a_layer(outer_answers)
    line = (("maker", 0), ("breaker", first), ("maker", 6))
    lines = _played(monkeypatch)
    report = verify_maker_strategy(tree.board, tree)
    assert [p[-1][1] for p in lines if p[:-1] == line] == played
    _repeats_off(monkeypatch)
    assert _outcome(verify_maker_strategy(tree.board, tree)) == _outcome(report)


def _random_bounded_tree(seed: int, relevance: bool = False) -> StrategyTree:
    """A random small board's script, for either first mover, whose
    ``Respond`` nodes send each reply, by up to two branches or by the
    default, to a bounded win of one to three claims or to a further
    Maker claim.  The board's vertices 0, 1 and 2 lie on no edge, so they
    are the first replies outside every bounded-win relevance.  With
    ``relevance`` most ``Respond`` nodes bound their relevance by a random
    mask."""
    rng = random.Random(seed)
    base = random_hypergraph(rng, max_vertices=6, max_edges=5, size_range=(2, 3))
    n = base.vertex_count + 3
    h = Hypergraph(n, [tuple(v + 3 for v in edge) for edge in base.edges])
    free = rng.sample(range(n), n)

    def respond(depth: int) -> Respond:
        def child():
            if depth and len(free) > 2 and rng.random() < 0.4:
                return Claim(free.pop(), respond(depth - 1))
            return BoundedWin(rng.randint(1, 3))

        branches = tuple(
            (ReplyClass(f"b{i}", frozenset(rng.sample(range(n), rng.randint(1, 2)))), child())
            for i in range(rng.randint(0, 2))
        )
        default = child()
        rel = rng.getrandbits(n) if relevance and rng.random() < 0.8 else None
        return Respond(branches, default, rel)

    first = rng.choice((Side.A, Side.B))
    root = respond(2) if first is Side.B else Claim(free.pop(), respond(2))
    return StrategyTree(h, first, root)


def _random_layered_bounded_tree(seed: int) -> StrategyTree:
    """``_random_bounded_tree``'s script, with random ``Respond``
    relevance, on a layer that embeds its board at random in a real board
    with one to three more vertices, whose edges are the images of the
    board's, under no, an empty or a random relevance.  On half the
    layers one of the board's vertices 0, 1 and 2, which lie on no edge,
    is the home of a dynamic group of two or more real vertices drawn from
    the added ones and the images of the other two.  A third of those
    layers sit on an outer layer that copies the real board with two more
    vertices and answers one of them with the other, so it keeps state and
    every other real vertex marks it at its own coordinate."""
    script = _random_bounded_tree(seed, relevance=True)
    rng = random.Random(seed + 2**32)
    base = script.board
    n = base.vertex_count
    m = n + rng.randint(1, 3)
    embed = tuple(rng.sample(range(m), n))
    h = Hypergraph(m, [tuple(embed[v] for v in edge) for edge in base.edges])
    groups = {}
    if rng.random() < 0.5:
        home = rng.randrange(3)
        spare = [embed[c] for c in range(3) if c != home]
        spare += [v for v in range(m) if v not in embed]
        groups = dict.fromkeys(rng.sample(spare, rng.randint(2, len(spare))), home)
    layer = Layer(
        name="random",
        board=base,
        embed=embed,
        win_edges={e: e for e in range(len(base.edges))},
        relevance=rng.choice((None, 0, rng.getrandbits(m))),
        dynamic_groups=groups,
    )
    root = EnterLayer(layer, script.root)
    if groups and rng.random() < 1 / 3:
        outer = Layer(
            name="outer",
            board=h,
            embed=tuple(range(m)),
            win_edges={e: e for e in range(len(h.edges))},
            answers={m: m + 1},
            relevance=0,
        )
        h = Hypergraph(m + 2, h.edges)
        root = EnterLayer(outer, root)
    return StrategyTree(h, script.first_mover, root)


def _check_repeats(make_tree, examples: int = 200) -> list:
    """Verify ``examples`` scripts that ``make_tree`` draws from random
    seeds with every reply played and with the replies that repeat a
    bounded-win key dropped, and assert that the verdict, the
    counterexample, the lines and the depth agree.  Returns, per script,
    how many replies were dropped by (whether on a layer stack, kind of
    table entry)."""
    records = []
    reply = _Machine._reply

    @settings(_SPLIT_SETTINGS, max_examples=examples)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        tree = make_tree(seed)
        kinds = collections.Counter()

        def spy(self, node, stack, masks, ra, rb, v, entry):
            kinds[stack.layer is not None, entry[0]] += 1
            return reply(self, node, stack, masks, ra, rb, v, entry)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Machine, "_reply", spy)
            fast = verify_maker_strategy(tree.board, tree)
            played = kinds.copy()
            kinds.clear()
            _repeats_off(patch)
            slow = verify_maker_strategy(tree.board, tree)
        assert _outcome(fast) == _outcome(slow)
        records.append(kinds - played)

    check()
    return records


def test_repeat_drops_keep_every_outcome_on_random_boards():
    """On random scripts on the real board, dropping the replies that
    repeat a bounded-win key keeps the verdict, the counterexample, the
    lines and the depth, and it drops some replies."""
    assert any(_check_repeats(_random_bounded_tree))


def test_repeat_drops_keep_every_outcome_on_random_layer_stacks():
    """On ``_random_layered_bounded_tree``'s scripts, dropping the replies
    that repeat a bounded-win key keeps the verdict, the counterexample,
    the lines and the depth, and it drops some replies on a layer stack,
    also some members of a dynamic group whose home is taken."""
    records = _check_repeats(_random_layered_bounded_tree, 500)
    assert any(sum(n for (layered, _kind), n in got.items() if layered) for got in records)
