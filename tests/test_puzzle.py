import contextlib
import functools
import hashlib
import itertools
import math
import random
import re

import numpy as np
import pytest

from pebblex import puzzle as _p
from pebblex.catalog import connected_graphs
from pebblex.classify import girth5_reachable_oracle
from pebblex.errors import CapExceededError, IllegalMoveError, PuzzleError
from pebblex.flips import apply_flip, flip_bfs_oracle, flip_bfs_witness, flip_reachable_set
from pebblex.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_multipartite,
    cycle,
    hypercube,
    path,
    square,
    star,
)
from pebblex.names import graph_from_desc
from pebblex.perms import automorphisms, identity_perm, perm_power, sign
from pebblex.puzzle import (
    Puz,
    apply_move,
    bfs_witness,
    check_configuration,
    equivalent,
    exchange_group_counts,
    identity_configuration,
    is_feasible,
    is_peb_normal_in_aut,
    pebble_exchange_group,
    puz_on,
    reachable_count,
    reachable_set,
    replay,
    transpose_instance,
    transpose_sequence,
)


def test_puz_validates_sizes():
    with pytest.raises(ValueError):
        Puz(path(3), path(4))
    pz = Puz(path(3), star(2))
    assert pz.n == 3


def test_identity_and_check():
    pz = puz_on(path(3))
    ident = identity_configuration(pz)
    assert ident == (1, 2, 3)
    check_configuration(pz, (3, 1, 2))
    for bad in [(1, 2), (1, 2, 2), (1, 2, 4)]:
        with pytest.raises(PuzzleError):
            check_configuration(pz, bad)


def test_apply_move():
    pz = puz_on(square(path(3)))  # triangle board, triangle pebbles
    cfg = apply_move(pz, (1, 2, 3), (1, 3))
    assert cfg == (3, 2, 1)
    out = replay(pz, (1, 2, 3), [(1, 3), (1, 2)])
    assert out == (2, 3, 1)


@pytest.mark.parametrize("cfg", [(9, 1, 2), (1, 2)])
def test_apply_move_checks_its_configuration(cfg):
    # as apply_flip does: a tuple that is no arrangement of the pebbles is
    # refused, not moved
    pz = puz_on(path(3))
    move = (2, 3) if len(cfg) == 3 else (1, 2)
    with pytest.raises(PuzzleError, match="not an arrangement of the pebbles"):
        apply_move(pz, cfg, move)
    with pytest.raises(PuzzleError, match="not an arrangement of the pebbles"):
        apply_flip(pz, cfg, move)


def test_illegal_moves_are_distinguished():
    pz = Puz(path(3), star(2))  # pebble 2 and 3 not adjacent
    with pytest.raises(IllegalMoveError) as e1:
        apply_move(pz, (1, 2, 3), (1, 9))
    assert "board" in str(e1.value) or "vertex" in str(e1.value)
    with pytest.raises(IllegalMoveError) as e2:
        apply_move(pz, (1, 2, 3), (1, 3))  # 1-3 not a board edge of p3
    with pytest.raises(IllegalMoveError) as e3:
        apply_move(pz, (1, 2, 3), (2, 3))  # pebbles 2,3 on a board edge, not pebble-adjacent
    assert str(e2.value) != str(e3.value)


# the four texts of the move check, as the package has always worded them;
# (9, 9) shows the missing-vertex test runs before the distinctness test
MOVE_ERRORS = [
    ((1, 2, 3, 4), (1, 9), "move (1,9) names a missing board vertex"),
    ((1, 2, 3, 4), (9, 9), "move (9,9) names a missing board vertex"),
    ((1, 2, 3, 4), (2, 2), "move (2,2) must name two distinct vertices"),
    ((1, 2, 3, 4), (1, 4), "board vertices 1 and 4 are not adjacent"),
    ((1, 4, 2, 3), (1, 2),
     "pebbles 1 and 4 (on board vertices 1,2) are not adjacent in the "
     "pebble graph"),
]


@pytest.mark.parametrize("cfg,move,text", MOVE_ERRORS)
def test_move_check_texts_are_pinned(cfg, move, text):
    pz = puz_on(square(path(4)))
    with pytest.raises(IllegalMoveError) as e1:
        apply_move(pz, cfg, move)
    assert str(e1.value) == text
    with pytest.raises(IllegalMoveError) as e2:
        replay(pz, cfg, [move])
    assert str(e2.value) == text
    if cfg == (1, 2, 3, 4):  # after a legal first move that puts 4 back
        with pytest.raises(IllegalMoveError) as e3:
            replay(pz, cfg, [(3, 4), (3, 4), move])
        assert str(e3.value) == text


def test_apply_move_and_replay_leave_their_inputs_alone():
    pz = puz_on(square(path(4)))
    start = (1, 2, 3, 4)
    assert apply_move(pz, start, (1, 3)) == (3, 2, 1, 4)
    assert replay(pz, start, [(1, 3), (2, 3), (3, 4)]) == (3, 1, 4, 2)
    assert replay(pz, start, []) == start
    assert start == (1, 2, 3, 4)


def test_replay_agrees_with_one_move_at_a_time():
    # replay makes legal moves without _move_in_place's checks; it must end
    # where _move_in_place ends, or fail at the same move with the same
    # message, also on gapped labels and for moves given as lists
    board = graph_from_desc("p6^2~3")
    pebbles = Graph([2, 4, 6, 8, 10], [(u, v) for u in range(2, 11, 2)
                                       for v in range(u + 2, 11, 2) if (u, v) != (2, 4)])
    pz = Puz(board, pebbles)
    labels = list(board.vertices) + [3, 7]
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        start = tuple(rng.sample(pebbles.vertices, 5))
        moves = [rng.choice(board.edges()) if rng.random() < 0.9
                 else (rng.choice(labels), rng.choice(labels)) for _ in range(6)]
        moves = [mv[::-1] if rng.random() < 0.5 else mv for mv in moves]
        try:
            cfg = list(start)
            for mv in moves:
                _p._move_in_place(pz, cfg, mv)
            want = tuple(cfg)
        except IllegalMoveError as exc:
            want = str(exc)
        for given in (moves, [list(mv) for mv in moves]):
            try:
                got = replay(pz, start, given)
            except IllegalMoveError as exc:
                got = str(exc)
            assert got == want
        outcomes.add(re.sub(r"\d+", "#", want) if isinstance(want, str) else "end")
    # every kind of outcome came up: an end, and each of the four messages
    assert outcomes == {
        "end",
        "move (#,#) names a missing board vertex",
        "move (#,#) must name two distinct vertices",
        "board vertices # and # are not adjacent",
        "pebbles # and # (on board vertices #,#) are not adjacent in the pebble graph",
    }


def test_reach_counts():
    assert reachable_count(puz_on(path(3))) == 3
    # squared paths are feasible at small sizes
    for n in (3, 4, 5):
        assert is_feasible(puz_on(square(path(n))))
    # cycles are not: the rotation class is thin
    assert reachable_count(puz_on(cycle(4))) < math.factorial(4)
    rot = (2, 3, 4, 1)
    assert rot not in reachable_set(puz_on(cycle(4)))


def test_complete_pebbles_always_mix():
    assert is_feasible(Puz(path(4), complete(4)))
    assert is_feasible(Puz(star(3), complete(4)))


def test_one_free_pebble_parity_example():
    board, _ = cartesian_product(path(2), path(3))
    pz = Puz(board, star(5))
    reach = reachable_set(pz)
    assert len(reach) == 360
    home = [c for c in reach if c[0] == 1]
    assert len(home) == 60
    assert all(sign(tuple(x - 1 for x in c[1:])) == 1 for c in home)


def test_equivalent_is_symmetric():
    pz = puz_on(path(3))
    assert equivalent(pz, (1, 2, 3), (2, 1, 3))
    assert equivalent(pz, (2, 1, 3), (1, 2, 3))
    assert not equivalent(pz, (1, 2, 3), (3, 2, 1))


def test_bfs_witness_replays():
    pz = puz_on(square(path(4)))
    target = (4, 3, 2, 1)
    moves = bfs_witness(pz, identity_configuration(pz), target)
    assert moves is not None
    assert replay(pz, identity_configuration(pz), moves) == target
    assert bfs_witness(pz, (1, 2, 3, 4), (1, 2, 3, 4)) == []
    assert bfs_witness(puz_on(cycle(4)), (1, 2, 3, 4), (2, 3, 4, 1)) is None


def test_bfs_witness_refuses_a_move_list_that_misses_its_target(monkeypatch):
    # the move list is replayed from the start: a trail that loses its last
    # move still replays, to the wrong configuration, and is refused
    search = _p._search

    def short_trail(*args, **kwargs):
        found = search(*args, **kwargs)
        return found._replace(moves_to=lambda config: found.moves_to(config)[:-1])

    pz = puz_on(square(path(4)))
    ident = identity_configuration(pz)
    assert len(bfs_witness(pz, ident, (4, 3, 2, 1))) > 1
    monkeypatch.setattr(_p, "_search", short_trail)
    with pytest.raises(PuzzleError, match="do not reach"):
        bfs_witness(pz, ident, (4, 3, 2, 1))



# move lists of bfs_witness for 10 targets drawn by random.Random(13) from
# each reachable set (all of them when fewer): their lengths and the sha256
# of their repr, recorded before the witness search moved off tuples.  The
# p4/star3 and c7/star6 searches start from a seeded arrangement that is
# not the identity.  The c7, theta122 and theta122/p7 searches visit 29,
# 34 and 13 states: their rows were recorded while such small 7-vertex
# searches still ran the block body to the end

def _seeded_start(pz):
    return tuple(random.Random(13).sample(identity_configuration(pz), pz.n))


@pytest.mark.parametrize(
    "pz, start, lengths, digest",
    [(puz_on(hypercube(3)), identity_configuration, [5, 8, 8, 7, 3, 8, 5, 11, 7, 6],
      "41a6f92dfb5d3c758e5b7342392370ae82fe5edd949d2a225f19021f115d6979"),
     (Puz(hypercube(3), star(7)), identity_configuration,
      [16, 15, 13, 14, 12, 10, 11, 12, 10, 14],
      "03abb9b04db30b5c7d030a99a51831ffb000b4e712fb1bdd793b4e447235ebc8"),
     (Puz(graph_from_desc("p9^2~8"), path(8)), identity_configuration,
      [2, 3, 6, 3, 4, 4, 6, 1, 3, 4],
      "ebec0508632bef511ffe91e24efee8def537431cf88b57069aff4da104463651"),
     (puz_on(path(16)), identity_configuration, [4, 6, 4, 4, 2, 5, 4, 2, 3, 4],
      "e3b246d5feeedad9973de6e74c99a1d7dd5c6119ace9ca3b4af94a814e546883"),
     (Puz(path(4), star(3)), _seeded_start, [0, 1, 2, 1],
      "e4d529dd9969cfeb172fd3715b76bedd1c4b279f5c815c033019f8f8297cde54"),
     (Puz(cycle(7), star(6)), _seeded_start, [0, 11, 15, 2, 13, 5, 6, 12, 19, 3],
      "620b33b8eb4df45794c3faefb7da00a9b480921e7b10f2bef7986307f07d220b"),
     (puz_on(cycle(7)), identity_configuration, [1, 2, 1, 2, 1, 3, 2, 3, 2, 2],
      "c59fb77ff85708ead025c631fcc8b4213f9dee2d3d15d30d8273b7ba8e7d1fb3"),
     (puz_on(graph_from_desc("theta122")), identity_configuration,
      [3, 3, 3, 2, 1, 2, 2, 2, 3, 2],
      "df70c2a4d4dd369002989d621ccf7338161723941c80523816f5c1178fb368e8"),
     (Puz(graph_from_desc("theta122"), path(7)), identity_configuration,
      [2, 3, 2, 1, 1, 2, 2, 1, 1, 2],
      "d7b92c2bd0ff172732dbaa9e2629d1f9b422db848a2d66d766b2fe5f0a8288e0")],
    ids=["q3", "q3/star7", "p9^2~8/p8", "p16", "p4/star3", "c7/star6", "c7",
         "theta122", "theta122/p7"],
)
def test_bfs_witnesses_are_pinned(pz, start, lengths, digest):
    start = start(pz)
    reach = sorted(reachable_set(pz, start))
    targets = random.Random(13).sample(reach, min(10, len(reach)))
    moves = [bfs_witness(pz, start, target) for target in targets]
    assert [len(m) for m in moves] == lengths
    assert hashlib.sha256(repr(moves).encode()).hexdigest() == digest
    for target, m in zip(targets, moves):
        assert replay(pz, start, m) == target


def test_cap_enforcement():
    with pytest.raises(CapExceededError):
        reachable_set(puz_on(square(path(5))), cap=50)
    with pytest.raises(CapExceededError):
        is_feasible(puz_on(square(path(8))), cap=1000)  # 8! > cap, refused upfront


@pytest.mark.parametrize(
    "g,order",
    [
        (path(2), 2),
        (cycle(5), 1),
        (cycle(7), 1),
        (hypercube(2), 4),
        (square(path(6)), 2),
    ],
)
def test_pebble_exchange_group_orders(g, order):
    assert pebble_exchange_group(g).order == order


def test_exchange_group_counts_match_the_reachable_set(packed):
    boards = [g for n in range(1, 6) for g in connected_graphs(n)]
    # n = 6, 7, 8 and 16: ranks, int64 keys and byte keys
    boards += [square(path(6)), cycle(7), hypercube(3), cycle(16)]
    for g in boards:
        auts = automorphisms(g)
        reach = set().union(*_levels(puz_on(g), tuple(g.vertices)))
        for engine in (contextlib.nullcontext(), packed()):
            with engine:
                group, aut_order, states = exchange_group_counts(g)
                assert pebble_exchange_group(g) == group
            assert group.elements == tuple(sorted(p for p in auts if p in reach))
            assert (group.order, aut_order, states) == (
                len(group.elements), len(auts), len(reach)
            )


@pytest.mark.parametrize("desc, flips", [
    ("c7", False), ("q3", False), ("p16", False), ("c6", True), ("c7", True),
])
def test_reached_is_membership_in_the_reachable_set(packed, desc, flips):
    # a probe search's hits are the probes in the reachable set: ranks (c6,
    # c7), int64 keys (q3, and the smaller boards with the packed loop
    # forced) and byte keys (p16), over pebble swaps and over the flip
    # space, with and without parents
    from pebblex.flips import all_flip_paths

    g = graph_from_desc(desc)
    pz = puz_on(g)
    paths = all_flip_paths(g) if flips else None
    reach = flip_reachable_set(g) if flips else reachable_set(pz)
    rng = random.Random(desc)
    configs = rng.sample(sorted(reach), min(len(reach), 40))
    configs += [tuple(rng.sample(g.vertices, g.n)) for _ in range(40)]
    rng.shuffle(configs)
    expected = [c for c in configs if c in reach]
    assert 0 < len(expected) < len(configs)
    for engine, witness in itertools.product((contextlib.nullcontext, packed), (False, True)):
        def search(probes):
            return _p._search(pz, None, 10**7, witness=witness, paths=paths, probes=probes)

        with engine():
            assert search(configs) == (len(reach), None, None, expected)
            assert search([]).hits == []
            with pytest.raises(PuzzleError):
                search([g.vertices[:-1]])


def test_hypercube_group_elements_are_involutions():
    group = pebble_exchange_group(hypercube(2))
    assert group.order == 4
    n = 4
    for p in group.elements:
        assert perm_power(p, 2) == identity_perm(n)
    # coordinate reflections, never the single-step rotation
    assert (3, 4, 1, 2) in group.elements
    assert (2, 1, 4, 3) in group.elements
    assert (2, 4, 1, 3) not in group.elements


def test_peb_is_normal(monkeypatch):
    searches = []

    def counted(g):
        searches.append(g)
        return automorphisms(g)

    monkeypatch.setattr(_p, "automorphisms", counted)
    for g in (cycle(5), hypercube(2)):
        searches.clear()
        assert is_peb_normal_in_aut(g)
        assert searches == [g]  # one automorphism search per check
    with pytest.raises(ValueError):
        is_peb_normal_in_aut(star(6))  # Aut too large for the exhaustive check


def test_transpose_swaps_roles():
    pz = Puz(path(3), square(path(3)))
    tz = transpose_instance(pz)
    assert tz.board.adj == pz.pebbles.adj
    assert tz.pebbles.adj == pz.board.adj


def test_transpose_sequence_self_validates():
    pz = puz_on(square(path(3)))
    start = (1, 2, 3)
    moves = [(1, 3), (1, 2)]
    t_start, t_moves = transpose_sequence(pz, start, moves)
    assert t_moves == [(1, 3), (3, 2)]
    # replaying the transposed moves in the transposed instance works
    tz = transpose_instance(pz)
    replay(tz, t_start, t_moves)


@pytest.mark.parametrize(
    "pz, moves, text",
    [(Puz(complete(4), path(4)), [(1, 2), (2, 3), (1, 3)],
      "pebbles 1 and 3 (on board vertices 2,3) are not adjacent in the "
      "pebble graph"),
     (Puz(complete(4), path(4)), [(1, 2), (3, 3)],
      "move (3,3) must name two distinct vertices"),
     (Puz(path(4), complete(4)), [(1, 2), (2, 3), (1, 3)],
      "board vertices 1 and 3 are not adjacent")],
)
def test_transpose_sequence_rejects_an_illegal_move(pz, moves, text):
    # the texts transpose_sequence raised when it made each move by
    # apply_move, recorded before it moved in place
    with pytest.raises(IllegalMoveError) as exc:
        transpose_sequence(pz, (1, 2, 3, 4), moves)
    assert str(exc.value) == text


def _agreement_instances():
    """A few hand-picked instances, every connected board up to 5 vertices
    against path, clique and star pebbles, then pebble graphs labeled other
    than 1..n (the pebbles of seq_C)."""
    yield from (puz_on(path(3)), Puz(path(4), star(3)), puz_on(cycle(5)))
    for n in range(1, 6):
        pebble_graphs = [path(n), complete(n)] + ([star(n - 1)] if n > 1 else [])
        for board in connected_graphs(n):
            for pebbles in pebble_graphs:
                yield Puz(board, pebbles)
    for n in range(2, 7):
        gapped = graph_from_desc(f"p{n + 1}^2~{n}")
        yield Puz(path(n), gapped)
        yield puz_on(gapped)


def _answers(pz, start, targets):
    """(reachable set, count, equivalence verdicts, the end and length of
    each witness) from the public entries."""
    witnesses = [bfs_witness(pz, start, t) for t in targets]
    return (reachable_set(pz, start), reachable_count(pz, start),
            [equivalent(pz, start, t) for t in targets],
            [None if w is None else (replay(pz, start, w), len(w))
             for w in witnesses])


def test_numpy_and_python_searches_agree(packed):
    rng = random.Random(7)
    instances = list(_agreement_instances())
    assert {pz.n for pz in instances} == {1, 2, 3, 4, 5, 6}
    for pz in instances:
        ident = identity_configuration(pz)
        starts = [ident] + [tuple(rng.sample(ident, pz.n)) for _ in range(2)]
        for start in starts:
            levels = _levels(pz, start)
            depth = {f: d for d, level in enumerate(levels) for f in level}
            reach = frozenset(depth)
            targets = [start, max(reach), tuple(rng.sample(ident, pz.n))]
            expected = (reach, len(reach), [t in reach for t in targets],
                        [(t, depth[t]) if t in reach else None for t in targets])
            assert _answers(pz, start, targets) == expected, (pz, start)
            with packed():
                assert _answers(pz, start, targets) == expected, (pz, start)


def _levels(pz, start):
    """BFS levels from start by a reference search written from the move
    rule alone."""
    levels, seen = [[start]], {start}
    while levels[-1]:
        nxt = []
        for f in levels[-1]:
            for u, v in pz.board.edges():
                i, j = pz.board.index_of(u), pz.board.index_of(v)
                if pz.pebbles.has_edge(f[i], f[j]):
                    g = list(f)
                    g[i], g[j] = g[j], g[i]
                    if tuple(g) not in seen:
                        seen.add(tuple(g))
                        nxt.append(tuple(g))
        levels.append(nxt)
    return levels[:-1]


@pytest.mark.parametrize(
    "pz",
    [puz_on(cycle(5)), Puz(path(4), star(3)), puz_on(square(path(5))),
     puz_on(hypercube(2)), Puz(cycle(7), star(6)), puz_on(hypercube(3)),
     Puz(graph_from_desc("p9^2~8"), path(8)), puz_on(path(16))],
    ids=["c5", "p4/star3", "p5^2", "q2", "c7/star6", "q3", "p9^2~8/p8",
         "p16"],
)
def test_cap_boundary(pz, packed):
    # boards over 7 vertices go to the packed-key loop (p16 on byte keys);
    # it is also forced on the smaller boards, to hold it to the same
    # boundary as the ranked loop
    start = identity_configuration(pz)

    def packed_count(pz, cap):
        with packed():
            return reachable_count(pz, cap=cap)

    def packed_found(target, cap):
        with packed():
            return equivalent(pz, start, target, cap=cap)

    def witness(target, cap):
        moves = bfs_witness(pz, start, target, cap=cap)
        assert replay(pz, start, moves) == target
        return len(moves)

    def packed_witness(target, cap):
        with packed():
            return witness(target, cap)

    count = reachable_count(pz)
    message = f"visited {count} configurations, cap is {count - 1}"
    for search in (reachable_count, reachable_set, packed_count):
        with pytest.raises(CapExceededError) as exc:
            search(pz, cap=count - 1)
        assert str(exc.value) == message
    assert reachable_count(pz, cap=count) == count
    assert len(reachable_set(pz, cap=count)) == count
    assert packed_count(pz, cap=count) == count
    # a query with a target stops on the level where the target first
    # appears, and that level's states count against the cap
    levels = _levels(pz, start)
    assert sum(map(len, levels)) == count
    for depth in range(1, len(levels)):
        through = sum(len(level) for level in levels[: depth + 1])
        for target in (levels[depth][0], levels[depth][-1]):
            queries = (functools.partial(equivalent, pz, start), packed_found,
                       witness, packed_witness)
            for query in queries:
                with pytest.raises(CapExceededError) as exc:
                    query(target, cap=through - 1)
                assert str(exc.value) == (
                    f"visited {through} configurations, cap is {through - 1}"
                )
                assert query(target, cap=through)
            assert witness(target, cap=through) == depth
            assert packed_witness(target, cap=through) == depth


@pytest.mark.parametrize("n", [1, 5, 8, 16])
def test_one_cap_rule_when_no_move_is_legal(n):
    # on an edgeless board the start is the whole search, on ranks (1 and 5
    # vertices), int64 keys (8) and byte keys (16), and the flip space has
    # no paths.  The cap is checked after every level, the start's too, so
    # every query that searches raises at cap 0; equivalent(f, f) and
    # is_feasible's up-front n! check answer before any search
    g = Graph(range(1, n + 1))
    pz = puz_on(g)
    ident = identity_configuration(pz)
    other = ident[::-1]
    P = functools.partial
    queries = [(P(reachable_count, pz), 1), (P(reachable_set, pz), {ident}),
               (P(bfs_witness, pz, ident, ident), []),
               (P(flip_reachable_set, g), {ident}),
               (P(flip_bfs_oracle, g, ident), True),
               (P(flip_bfs_witness, g, ident), [])]
    if n > 1:  # a target no move reaches
        queries += [(P(equivalent, pz, ident, other), False),
                    (P(bfs_witness, pz, ident, other), None),
                    (P(flip_bfs_oracle, g, other), False),
                    (P(flip_bfs_witness, g, other), None)]
    if n <= 5:  # Aut(g) is the whole symmetric group
        queries += [(lambda cap: pebble_exchange_group(g, cap=cap).order, 1),
                    (lambda cap: exchange_group_counts(g, cap=cap)[1:],
                     (math.factorial(n), 1)),
                    (P(is_peb_normal_in_aut, g), True)]
    for query, answer in queries:
        assert query(cap=1) == answer, query
        with pytest.raises(CapExceededError) as exc:
            query(cap=0)
        assert str(exc.value) == "visited 1 configurations, cap is 0", query
    assert equivalent(pz, ident, ident, cap=0)
    with pytest.raises(CapExceededError) as exc:
        is_feasible(pz, cap=0)
    assert str(exc.value) == (
        f"full configuration space has {math.factorial(n)} states, cap is 0"
    )
    assert is_feasible(pz, cap=math.factorial(n)) == (n == 1)


@pytest.mark.parametrize(
    "pz, oracle_graphs, count",
    [(puz_on(hypercube(3)), lambda o: (o.hypercube(3),) * 2, 744),
     (Puz(hypercube(3), star(7)), lambda o: (o.hypercube(3), o.star(7)), 20160),
     (puz_on(square(path(8))), lambda o: (o.square(o.path(8)),) * 2, 35892)],
    ids=["q3", "q3/star7", "p8^2"],
)
def test_packed_search_matches_the_oracle(pz, oracle_graphs, count, oracle):
    # boards over 7 vertices search on packed keys; the oracle is a plain
    # BFS over tuples that shares no code with the package.  count is the
    # identity's component; random starts may lie in other components
    board, pebbles = oracle_graphs(oracle)
    rng = random.Random(count)
    ident = identity_configuration(pz)
    starts = [ident] + [tuple(rng.sample(ident, pz.n)) for _ in range(2)]
    reaches = [oracle.puzzle_bfs(board, pebbles, start) for start in starts]
    assert len(reaches[0]) == count
    for start, reach in zip(starts, reaches):
        assert reachable_set(pz, start) == reach
        assert reachable_count(pz, start) == len(reach)


# boards over 15 vertices key each configuration as an n-byte string; these
# cases run through the public entries on both sides of that boundary

@pytest.mark.parametrize("desc", ["p16", "p20", "c17"])
def test_packed_bytes_match_the_girth5_oracle(desc):
    g = graph_from_desc(desc)
    reach = reachable_set(puz_on(g))
    assert reach == girth5_reachable_oracle(g)
    assert reachable_count(puz_on(g)) == len(reach)


@pytest.mark.parametrize("n", [15, 16])
def test_equivalent_across_the_key_boundary(n):
    pz = puz_on(path(n))
    ident = identity_configuration(pz)
    swapped = (2, 1, 4, 3) + ident[4:]
    assert equivalent(pz, ident, swapped)
    assert equivalent(pz, swapped, ident)
    assert not equivalent(pz, ident, ident[::-1])
    assert not equivalent(pz, ident, (1, 3, 2) + ident[3:][::-1])


def test_cap_message_at_16_vertices():
    pz = puz_on(path(16))
    assert reachable_count(pz) == 1597  # the 17th Fibonacci number
    for search in (reachable_count, reachable_set):
        with pytest.raises(CapExceededError) as exc:
            search(pz, cap=1596)
        assert str(exc.value) == "visited 1597 configurations, cap is 1596"
    ident = identity_configuration(pz)
    with pytest.raises(CapExceededError) as exc:
        equivalent(pz, ident, (2, 1) + ident[2:], cap=15)
    assert str(exc.value) == "visited 16 configurations, cap is 15"
    assert equivalent(pz, ident, (2, 1) + ident[2:], cap=16)


# count and sha256 of the sorted reachable set, recorded before the packed
# engine stepped keys by per-edge deltas: int64 keys from 8 vertices
# (the board of p9^2~8 skips the label 8), byte keys from 16

@pytest.mark.parametrize(
    "pz, count, digest",
    [(puz_on(hypercube(3)), 744,
      "0bff6af30b5c14fe38dff591cc26945c03fd23fb41f35e74b9c87a32ffb16755"),
     (Puz(hypercube(3), star(7)), 20160,
      "0472caea158dac41e16c13678dbedb3bff5505dcabcb85965b77a8961c33b623"),
     (puz_on(complete(8)), 40320,
      "8416f2f2657578027c10c90eeb537fd67bd63e3ef951090a1959ee35fb96e911"),
     (Puz(graph_from_desc("p9^2~8"), path(8)), 181,
      "5dee8bf43b57a7fdd5c7a0a3e73ea2a3941aeb6747ab78d04d94602643422eb2"),
     (puz_on(path(16)), 1597,
      "60d9bd3c46818d352de66a22cb61b32093f03f9b3665deeb06cf8b7e88420aa5"),
     (puz_on(cycle(17)), 3571,
      "943e8559b1a7511a4af25251669ff0058042132c740fd174082d1bc7d6b1b726")],
    ids=["q3", "q3/star7", "k8", "p9^2~8/p8", "p16", "c17"],
)
def test_packed_reachable_sets_are_pinned(pz, count, digest):
    reach = reachable_set(pz)
    assert len(reach) == count
    assert hashlib.sha256(repr(sorted(reach)).encode()).hexdigest() == digest


def test_p9_squared_answers_are_pinned():
    pz = puz_on(square(path(9)))
    assert reachable_count(pz) == 245690
    rng = random.Random(9)
    ident = identity_configuration(pz)
    pairs = [(tuple(rng.sample(ident, 9)), tuple(rng.sample(ident, 9)))
             for _ in range(5)]
    verdicts = [equivalent(pz, a, b) for a, b in pairs]
    assert verdicts == [False, False, False, True, True]


@pytest.mark.parametrize("n", [8, 15, 16])
def test_int64_child_keys_step_by_the_edge_delta(n):
    # 15 vertices is the widest int64 key; overflow in the delta would
    # show as a key that differs from the reversed row's.  The moves are
    # every swap of the clique K_n and a few longer paths on it; at 16
    # vertices the byte keys gather their child rows instead.  The back
    # cells given, legal or not, are skipped
    rng = np.random.default_rng(n)
    rows = np.array([rng.permutation(n) for _ in range(40)]
                    + [np.arange(n)[::-1], np.arange(n)], dtype=np.uint8)
    P = rng.random((n, n)) < 0.7
    P = P | P.T
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    paths = edges + [tuple(rng.permutation(n)[:k]) for k in range(3, n + 1)]
    moves = _p._moves(edges, paths)
    keys = _p._keys(rows)
    cells = len(rows) * len(paths)
    for skip in (None, 3):  # no back cells; every third (row, move) cell
        back = np.arange(0, cells, skip) if skip else np.zeros(0, dtype=np.intp)
        expected = []
        for r, row in enumerate(rows):
            for c, p in enumerate(paths):
                if (not skip or (r * len(paths) + c) % skip) and all(
                        P[row[a], row[b]] for a, b in zip(p, p[1:])):
                    kid = row.copy()
                    kid[list(p)] = kid[list(p[::-1])]
                    expected.append(kid)
        got, _, _ = _p._children(keys, _p._rows(keys, n), moves, P.ravel(),
                                 _p._steps(moves, n), back)
        assert len(expected) > 500
        assert got.tolist() == _p._keys(np.array(expected)).tolist()


@pytest.mark.parametrize(
    "pz",
    [Puz(path(8), star(7)), puz_on(cycle(11)), Puz(cycle(12), star(11)),
     puz_on(path(15)), Puz(cycle(15), star(14))],
    ids=["p8/star7", "c11", "c12/star11", "p15", "c15/star14"],
)
def test_int64_and_byte_keys_agree(pz, monkeypatch):
    # the same searches with every key a byte string; at 15 vertices the
    # first position's digit sits in bits 56-59 of an int64 key
    rng = random.Random(pz.n)
    ident = identity_configuration(pz)
    probes = (rng.sample(sorted(reachable_set(pz)), 3)
              + [tuple(rng.sample(ident, pz.n)) for _ in range(3)])

    def answers():
        search = _p._search(pz, None, 10**6, probes=probes)
        return (search.count, search.hits,
                [bfs_witness(pz, ident, target) for target in probes])

    int64 = answers()
    with monkeypatch.context() as m:
        m.setattr(_p, "_INT64_MAX_N", 0)
        assert _p._keys(np.zeros((1, pz.n), dtype=np.uint8)).dtype.kind == "V"
        assert answers() == int64
    count, reached, witnesses = int64
    assert count == reachable_count(pz) and len(reached) >= 3
    for target, moves in zip(probes, witnesses):
        assert (moves is None) == (target not in reached)
        assert moves is None or replay(pz, ident, moves) == target


@pytest.mark.parametrize("n", range(1, _p._RANKED_MAX_N + 1))
def test_a_swap_entry_packs_the_child_rank_over_the_pebble_pair_code(n):
    # an entry is a child rank in ``child`` beside a pebble pair code in
    # ``code``, each kept row-major and edge-major
    tables = _p._rank_tables(n)
    perms, child, code = tables.perms, tables.child, tables.code
    for a, b in itertools.combinations(range(n), 2):
        col = tables.pair[a, b]
        swapped = perms.copy()
        swapped[:, [a, b]] = perms[:, [b, a]]
        assert child[:, col].tolist() == _p._ranks(tables, swapped).tolist()
        assert code[:, col].tolist() == (perms[:, a] * n + perms[:, b]).tolist()
    assert child[:, -1].tolist() == list(range(math.factorial(n)))
    for rows, cols in ((child, tables.child_cols), (code, tables.code_cols)):
        assert rows.flags.c_contiguous and cols.flags.c_contiguous
        assert np.array_equal(rows.T, cols)
    assert not any(table.flags.writeable for table in tables)
    # two bytes of child rank and one of pair code per (permutation, swap
    # column), in each of the two layouts
    entries = math.factorial(n) * (math.comb(n, 2) + 1)
    assert ([t.nbytes for t in (child, code, tables.child_cols, tables.code_cols)]
            == [2 * entries, entries, 2 * entries, entries])
    # the narrow dtypes hold every rank and code up to the ranked limit
    top = _p._RANKED_MAX_N
    assert np.iinfo(child.dtype).max >= math.factorial(top) - 1
    assert np.iinfo(code.dtype).max >= top * top - 1


@pytest.mark.parametrize("pz", [
    puz_on(complete(5)),
    puz_on(complete(7)),
    puz_on(complete(8)),  # the packed loop
    Puz(graph_from_desc("p6^2"), complete_multipartite((1, 5))),  # a Wilson item
], ids=["k5", "k7", "k8", "p6^2/star"])
def test_a_search_stops_once_it_has_visited_every_configuration(pz, monkeypatch):
    total = math.factorial(pz.n)
    everything = frozenset(itertools.permutations(pz.pebbles.vertices))
    counts = []
    check_cap = _p._check_cap
    monkeypatch.setattr(_p, "_check_cap",
                        lambda count, cap: (counts.append(count), check_cap(count, cap)))
    for witness in (False, True):
        counts.clear()
        search = _p._search(pz, None, _p.DEFAULT_CAP, witness=witness)
        # the cap is checked once at n!, and no level is expanded after it
        assert counts[-1] == search.count == total and counts.count(total) == 1
        assert search.states() == everything
        with pytest.raises(CapExceededError) as exc:
            _p._search(pz, None, total - 1, witness=witness)
        assert str(exc.value) == f"visited {total} configurations, cap is {total - 1}"
        assert _p._search(pz, None, total, witness=witness).count == total


@pytest.mark.parametrize("n", range(1, 7))
def test_packed_and_ranked_engines_agree_to_six_vertices(n, packed):
    # every connected board, against itself, a star and a clique; one cap
    # boundary per n, on the instance with the largest component
    widest = None
    for board in connected_graphs(n):
        pebble_graphs = [board, complete(n)] + ([star(n - 1)] if n > 1 else [])
        for pz in (Puz(board, pebbles) for pebbles in pebble_graphs):
            ranked = reachable_set(pz)
            with packed():
                got = reachable_set(pz), reachable_count(pz)
            assert got == (ranked, len(ranked)), pz
            assert reachable_count(pz) == len(ranked), pz
            if widest is None or len(ranked) > widest[1]:
                widest = (pz, len(ranked))
    pz, count = widest
    for engine in (contextlib.nullcontext, packed):
        with engine():
            # the start is a level too: with one state, cap 0 raises
            with pytest.raises(CapExceededError) as exc:
                reachable_count(pz, cap=count - 1)
            assert str(exc.value) == (
                f"visited {count} configurations, cap is {count - 1}"
            )
            assert reachable_count(pz, cap=count) == count


def test_the_child_table_and_the_block_body_agree():
    # pebble swaps read a per-call child table from the first level; the
    # same swaps passed as two-vertex paths run the block body.  Every
    # connected board up to 5 vertices and seeded samples of 6- and
    # 7-vertex boards plus theta122, each against itself, a clique and a
    # star, from a seeded start
    rng = random.Random(20)
    boards = [b for n in range(1, 6) for b in connected_graphs(n)]
    boards += rng.sample(connected_graphs(6), 12)
    boards += rng.sample(connected_graphs(7), 3) + [graph_from_desc("theta122")]
    for board in boards:
        n, edges = board.n, board.edges()
        for pebbles in [board, complete(n)] + ([star(n - 1)] if n > 1 else []):
            pz = Puz(board, pebbles)
            ident = identity_configuration(pz)
            start = ident
            while start == ident and n > 1:
                start = tuple(rng.sample(ident, n))
            for witness in (False, True):
                table, body = (_p._search(pz, start, _p.DEFAULT_CAP, witness=witness,
                                          paths=paths) for paths in (None, edges))
                states = table.states()
                assert (table.count, states) == (body.count, body.states()), pz
                for config in states if witness else ():
                    assert table.moves_to(config) == body.moves_to(config), (pz, config)
                messages = []
                for paths in (None, edges):
                    with pytest.raises(CapExceededError) as exc:
                        _p._search(pz, start, table.count - 1, witness=witness, paths=paths)
                    messages.append(str(exc.value))
                assert messages == [f"visited {table.count} configurations, "
                                    f"cap is {table.count - 1}"] * 2, pz


def test_every_ranked_pebble_swap_search_builds_one_child_table(monkeypatch):
    # a pebble-swap search reads its child table from the first level, at
    # every n up to 7: small 7-vertex searches build it as full ones do
    built = []

    def child_table(*args):
        built.append(args)
        return real(*args)

    real = _p._child_table
    monkeypatch.setattr(_p, "_child_table", child_table)
    theta = graph_from_desc("theta122")
    small = [puz_on(graph_from_desc("c7")), puz_on(theta), Puz(theta, graph_from_desc("p7"))]
    for pz in small + [Puz(theta, complete(7)), puz_on(square(path(6)))]:
        for witness in (False, True):
            built.clear()
            count = _p._search(pz, None, _p.DEFAULT_CAP, witness=witness).count
            assert len(built) == 1, (pz, witness)
            assert (count < 40) == (pz in small) and count in (13, 29, 34, 5040, 720)
    # flip paths never read a child table
    built.clear()
    assert len(flip_reachable_set(theta)) == 4928
    assert not built


def test_a_search_takes_at_most_256_vertices():
    # a position and a pebble index each fit one byte; a wider board is
    # refused before anything is packed, not deep inside numpy
    wide = puz_on(path(300))
    ident = identity_configuration(wide)
    message = "a search takes boards of at most 256 vertices, this one has 300"
    with pytest.raises(ValueError, match=message):
        reachable_count(wide, cap=0)
    with pytest.raises(ValueError, match=message):
        equivalent(wide, ident, (ident[1], ident[0], *ident[2:]))
    with pytest.raises(CapExceededError) as exc:
        reachable_count(puz_on(path(256)), cap=0)
    assert str(exc.value) == "visited 1 configurations, cap is 0"


@pytest.mark.parametrize("n", range(1, 7))
def test_packed_levels_are_the_ranked_levels(n, packed, monkeypatch):
    # the packed loop skips each state's back cells and the ranked loop
    # does not: the visited count after every level, read at the cap check,
    # is the same in both, over pebble swaps and flip paths, with and
    # without parents, on every connected board against itself, a clique
    # and a star
    from pebblex.flips import all_flip_paths

    counts = []
    check_cap = _p._check_cap
    monkeypatch.setattr(_p, "_check_cap",
                        lambda count, cap: (counts.append(count), check_cap(count, cap)))

    def levels(pz, witness, paths):
        counts.clear()
        _p._search(pz, None, _p.DEFAULT_CAP, witness=witness, paths=paths)
        return counts[:]

    for board in connected_graphs(n):
        flips = all_flip_paths(board)
        for pebbles in [board, complete(n)] + ([star(n - 1)] if n > 1 else []):
            pz = Puz(board, pebbles)
            for witness, paths in itertools.product((False, True), (None, flips)):
                ranked = levels(pz, witness, paths)
                with packed():
                    assert levels(pz, witness, paths) == ranked, (pz, witness, paths)


def test_ranked_levels_on_multipartite_pebbles_are_pinned(monkeypatch):
    # the count and the visited count after every level, read at the cap
    # check, of reachable_count on every connected 5-vertex board and a
    # seeded sample of 6- and 7-vertex boards, each against K_n, K_{1,n-1},
    # K_{2,n-2} and K_{2,2,n-4}; recorded before the ranked engine's set-up
    # and level marking were trimmed, and before small 7-vertex searches
    # read a child table from their first level
    counts = []
    check_cap = _p._check_cap
    monkeypatch.setattr(_p, "_check_cap",
                        lambda count, cap: (counts.append(count), check_cap(count, cap)))
    rng = random.Random(30)
    boards = [*connected_graphs(5), *rng.sample(connected_graphs(6), 24),
              *rng.sample(connected_graphs(7), 16), path(7)]
    pinned = []
    for board in boards:
        n = board.n
        for parts in [(1,) * n, (1, n - 1), (2, n - 2), (2, 2, n - 4)]:
            counts.clear()
            count = reachable_count(Puz(board, complete_multipartite(parts)))
            assert counts[-1] == count
            pinned.append((count, tuple(counts)))
    assert len(pinned) == 4 * len(boards)
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == (
        "0678494840ffea67298b7d1af7ebcf063888c95d628a03a3b2f0319be06abb7f")


@pytest.mark.parametrize("n", [14, 15])
def test_move_bits_fill_63_bits_of_a_key_and_no_more(n, monkeypatch):
    # K14 against a 7-edge perfect matching: 56 key bits and 7 bits for
    # one of 91 moves make 63, so the moves ride in the keys through the
    # sort.  K15 against the matching and an isolated pebble needs 67 and
    # takes the stable argsort.  Both reach the 2^7 matching swaps
    pz = Puz(complete(n), Graph(range(1, n + 1), [(k, k + 1) for k in range(1, 14, 2)]))
    edges = n * (n - 1) // 2
    assert _p._move_bits(n, edges) == (7 if n == 14 else None)

    def answers():
        cap_text = None
        try:
            reachable_count(pz, cap=127)
        except CapExceededError as exc:
            cap_text = str(exc)
        return reachable_count(pz), reachable_set(pz), cap_text

    count, states, cap_text = answers()
    assert count == len(states) == 128
    assert cap_text == "visited 128 configurations, cap is 127"
    with monkeypatch.context() as m:
        m.setattr(_p, "_INT64_MAX_N", 0)
        assert _p._move_bits(n, edges) is None
        assert answers() == (count, states, cap_text)


@pytest.mark.parametrize("flips", [False, True])
@pytest.mark.parametrize("keys", ["ranks", "int64", "bytes"])
def test_a_probe_search_answers_as_an_open_search_does(keys, flips, packed, monkeypatch):
    # ranks (c7), and the same board forced to the packed loop with int64
    # and with byte keys; the probes mix reached configurations with
    # others, some given twice, and come back as hits in their own order.
    # A witness search's moves_to answers None off its record
    from pebblex.flips import all_flip_paths

    g = cycle(7)
    pz = puz_on(g)
    paths = all_flip_paths(g) if flips else None
    rng = random.Random(7)
    reach = sorted(flip_reachable_set(g) if flips else reachable_set(pz))
    probes = rng.sample(reach, 10) + [tuple(rng.sample(g.vertices, 7)) for _ in range(10)]
    probes += probes[::7]  # asked twice
    with contextlib.ExitStack() as stack:
        if keys != "ranks":
            stack.enter_context(packed())
        if keys == "bytes":
            monkeypatch.setattr(_p, "_INT64_MAX_N", 0)
        open_search = _p._search(pz, None, 10**6, paths=paths)
        probe_search = _p._search(pz, None, 10**6, paths=paths, probes=probes)
        witness_search = _p._search(pz, None, 10**6, witness=True, paths=paths)
    assert probe_search.count == open_search.count == witness_search.count == len(reach)
    assert probe_search.hits == [c for c in probes if c in open_search.states()]
    assert 0 < len(probe_search.hits) < len(probes)
    assert open_search.hits is witness_search.hits is open_search.moves_to is None
    for config in probes:
        moves = witness_search.moves_to(config)
        assert (moves is None) == (config not in probe_search.hits), config
    # a probe search offers no record to ask about other configurations
    assert probe_search.states is probe_search.moves_to is None


def test_a_count_holds_no_old_level():
    # reachable_count asks about no configuration, so it holds only the
    # frontier, its back cells and the level being found: p9^2 peaks near
    # 1.1 MB, where keeping every level took 3.0 MB
    import tracemalloc

    pz = puz_on(square(path(9)))
    tracemalloc.start()
    try:
        assert reachable_count(pz) == 245690
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak
