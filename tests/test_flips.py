"""Flip moves, the flip BFS oracle, and the constructive realizer."""

import collections
import contextlib
import hashlib
import math
import random

import pytest

from pebblex import (
    BoardPathError,
    CapExceededError,
    Graph,
    PebblePathError,
    PuzzleError,
    RealizationError,
    all_flip_paths,
    apply_flip,
    automorphisms,
    compose,
    compose_flip_sequences,
    flip_bfs_oracle,
    flip_bfs_witness,
    flip_reachable_set,
    flip_sequence_permutation,
    format_flip_sequence,
    identity_configuration,
    parse_flip_sequence,
    puz_on,
    realize_by_flips,
    replay_flips,
)
from pebblex import flips, puzzle
from pebblex.catalog import connected_graphs
from pebblex.flips import _select_dict
from pebblex.graphs import complete_multipartite, distances_from, hypercube
from pebblex.names import graph_from_desc
from pebblex.perms import automorphisms_dict, perm_power


def path(n):
    return graph_from_desc(f"p{n}")


def cycle(n):
    return graph_from_desc(f"c{n}")


BOWTIE = Graph(range(1, 6), [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


# ---------------------------------------------------------------------------
# single flips

def test_apply_flip_reverses_pebbles_along_path():
    pz = puz_on(cycle(5))
    cfg = identity_configuration(pz)
    assert apply_flip(pz, cfg, (1, 2, 3)) == (3, 2, 1, 4, 5)
    # single-edge flip is a plain swap
    assert apply_flip(pz, cfg, (4, 5)) == (1, 2, 3, 5, 4)


def test_apply_flip_rejects_bad_board_paths():
    pz = puz_on(path(4))
    cfg = identity_configuration(pz)
    with pytest.raises(BoardPathError):
        apply_flip(pz, cfg, (1,))  # too short
    with pytest.raises(BoardPathError):
        apply_flip(pz, cfg, (1, 2, 1))  # repeats a vertex
    with pytest.raises(BoardPathError):
        apply_flip(pz, cfg, (1, 3))  # not an edge
    with pytest.raises(BoardPathError):
        apply_flip(pz, cfg, (1, 2, 9))  # missing vertex


def test_apply_flip_rejects_non_path_pebbles():
    # board is a path, pebbles a star centered at 1: pebbles 2 and 3 are
    # not adjacent, so reversing them across board edge (2,3) is illegal
    from pebblex import Puz

    pz = Puz(path(3), graph_from_desc("star2"))
    with pytest.raises(PebblePathError):
        apply_flip(pz, (1, 2, 3), (2, 3))
    # but the same flip works once the center pebble sits in the middle
    assert apply_flip(pz, (2, 1, 3), (1, 2, 3)) == (3, 1, 2)


@pytest.mark.parametrize("config,flip", [
    ((1, 2), (1, 2)),  # one pebble short of the board
    ((1, 2), (2, 3)),  # the flip reaches the vertex with no pebble
])
def test_apply_flip_checks_its_configuration(config, flip):
    with pytest.raises(PuzzleError, match="not an arrangement of the pebbles"):
        apply_flip(puz_on(path(3)), config, flip)


def test_internal_replay_reports_an_illegal_flip_as_a_realization_error():
    # the realizer replays through the public flip check; a flip that check
    # refuses is a construction failure, named with the replaying step
    with pytest.raises(
        RealizationError,
        match=r"^internal: reflection: board vertices 1 and 3 in flip path "
        r"are not adjacent$",
    ):
        flips._replay_dict(path(3), [(1, 2), (1, 3)], "reflection")
    with pytest.raises(
        RealizationError,
        match=r"^internal: realize: pebbles 1 and 3 along flip path \(1, 2, 3\)",
    ):
        flips._replay_dict(path(3), [(2, 3), (1, 2, 3)], "realize")


# the texts of the flip check, as the package has always worded them, and
# their precedence: a short path before a repeat before a missing vertex,
# a missing vertex before any non-adjacent pair, and every board error
# before a pebble error.  The pebble graph is star3 (pebble 1 the center).
FLIP_ERRORS = [
    ((1,), BoardPathError, "a flip path needs at least two vertices"),
    ((9,), BoardPathError, "a flip path needs at least two vertices"),
    ((1, 2, 1), BoardPathError, "flip path (1, 2, 1) repeats a vertex"),
    ((9, 9), BoardPathError, "flip path (9, 9) repeats a vertex"),
    ((9, 1), BoardPathError, "flip path names missing vertex 9"),
    ((1, 3, 9), BoardPathError, "flip path names missing vertex 9"),
    ((1, 3), BoardPathError,
     "board vertices 1 and 3 in flip path are not adjacent"),
    # pebbles 2 and 3 are not adjacent either, but the board is read first
    ((2, 3, 1), BoardPathError,
     "board vertices 3 and 1 in flip path are not adjacent"),
    ((2, 3), PebblePathError,
     "pebbles 2 and 3 along flip path (2, 3) are not adjacent in the "
     "pebble graph"),
    ((1, 2, 3), PebblePathError,
     "pebbles 2 and 3 along flip path (1, 2, 3) are not adjacent in the "
     "pebble graph"),
]


@pytest.mark.parametrize("flip,exc,text", FLIP_ERRORS)
def test_flip_check_texts_are_pinned(flip, exc, text):
    from pebblex import Puz

    pz = Puz(path(4), graph_from_desc("star3"))
    start = (1, 2, 3, 4)
    with pytest.raises(exc) as e1:
        apply_flip(pz, start, flip)
    assert str(e1.value) == text
    with pytest.raises(exc) as e2:
        replay_flips(pz, start, [flip])
    assert str(e2.value) == text
    # after two legal flips that put every pebble back
    with pytest.raises(exc) as e3:
        replay_flips(pz, start, [(1, 2), (1, 2), flip])
    assert str(e3.value) == text


def test_replay_flips_composes_left_to_right():
    pz = puz_on(path(4))
    start = identity_configuration(pz)
    one = apply_flip(pz, start, (1, 2, 3, 4))
    two = apply_flip(pz, one, (2, 3))
    assert replay_flips(pz, start, [(1, 2, 3, 4), (2, 3)]) == two


def test_flip_sequence_permutation_matches_replay():
    g = cycle(5)
    seq = [(1, 2, 3), (4, 5)]
    pz = puz_on(g)
    assert flip_sequence_permutation(g, seq) == replay_flips(
        pz, identity_configuration(pz), seq
    )


# ---------------------------------------------------------------------------
# composition

def test_compose_flip_sequences_realizes_product():
    g = cycle(5)
    s1 = realize_by_flips(g, (2, 3, 4, 5, 1))
    s2 = realize_by_flips(g, (1, 5, 4, 3, 2))
    combined = compose_flip_sequences(g, s1, s2)
    tau = flip_sequence_permutation(g, s1)
    mu = flip_sequence_permutation(g, s2)
    assert flip_sequence_permutation(g, combined) == compose(tau, mu)


@pytest.mark.parametrize("scale", [1, 10])
def test_compose_flip_sequences_works_on_any_labels(scale):
    # c5 and its copy relabeled v -> 10v accept the same pair of flips,
    # each a reflection, and refuse the same swap as a first sequence
    g = cycle(5).relabeled({v: scale * v for v in range(1, 6)})
    s1 = [tuple(scale * v for v in (1, 2, 3, 4, 5))]
    s2 = [tuple(scale * v for v in (2, 3, 4, 5))]
    assert compose_flip_sequences(g, s1, s2) == s1 + s2
    with pytest.raises(ValueError, match="non-automorphism"):
        compose_flip_sequences(g, [(scale, 2 * scale)], s1)


def test_compose_flip_sequences_rejects_non_automorphism_prefix():
    g = path(4)
    # a single swap at the end of the path is not an automorphism of P4
    with pytest.raises(ValueError):
        compose_flip_sequences(g, [(1, 2)], [])


# ---------------------------------------------------------------------------
# exhaustive flip search

def test_all_flip_paths_p4():
    # P4 carries exactly its six subpaths with >= 2 vertices
    assert sorted(all_flip_paths(path(4))) == [
        (1, 2),
        (1, 2, 3),
        (1, 2, 3, 4),
        (2, 3),
        (2, 3, 4),
        (3, 4),
    ]


def test_all_flip_paths_are_canonical():
    for g in (cycle(5), BOWTIE):
        paths = all_flip_paths(g)
        assert len(set(paths)) == len(paths)
        for p in paths:
            assert p[0] < p[-1]


def test_flip_reachable_set_small_paths():
    # P2: the one edge can always swap
    assert flip_reachable_set(path(2)) == {(1, 2), (2, 1)}
    # P3: flips chain up to all six permutations, e.g. reversing the whole
    # path and then flipping the now-adjacent pebbles 3,2 at the left edge
    assert len(flip_reachable_set(path(3))) == 6


def test_flip_bfs_witness_replays():
    g = cycle(5)
    sigma = (2, 3, 4, 5, 1)
    w = flip_bfs_witness(g, sigma)
    assert flip_sequence_permutation(g, w) == sigma
    assert flip_bfs_oracle(g, sigma) is True
    # C5 has no automorphism with exactly one fixed point that is
    # flip-reachable... but a non-reachable target: the identity is
    # reachable trivially, so probe a transposition that is not an
    # automorphism and is also flip-unreachable on C5
    assert flip_bfs_witness(path(4), (4, 3, 2, 1)) is not None
    assert flip_bfs_witness(path(2), (1, 2)) == []


# shortest flip lists recorded before the flip oracle moved onto the shared
# witness search (c6 and grid2x3: before boards up to 7 vertices moved onto
# permutation ranks): the same parent at first discovery, the same path order
FLIP_BFS_WITNESSES = {
    "c5": {
        (1, 2, 3, 4, 5): [],
        (1, 5, 4, 3, 2): [(2, 3, 4, 5)],
        (2, 1, 5, 4, 3): [(1, 5, 4, 3, 2)],
        (2, 3, 4, 5, 1): [(1, 2, 3, 4), (1, 5, 4, 3)],
        (3, 2, 1, 5, 4): [(1, 5, 4, 3)],
        (3, 4, 5, 1, 2): [(1, 2, 3, 4), (1, 5, 4, 3, 2)],
        (4, 3, 2, 1, 5): [(1, 2, 3, 4)],
        (4, 5, 1, 2, 3): [(1, 2, 3, 4), (2, 3, 4, 5)],
        (5, 1, 2, 3, 4): [(1, 2, 3, 4), (1, 2, 3, 4, 5)],
        (5, 4, 3, 2, 1): [(1, 2, 3, 4, 5)],
    },
    "c6": {
        (1, 2, 3, 4, 5, 6): [],
        (1, 6, 5, 4, 3, 2): [(2, 3, 4, 5, 6)],
        (2, 1, 6, 5, 4, 3): [(1, 6, 5, 4, 3, 2)],
        (2, 3, 4, 5, 6, 1): [(1, 2, 3, 4, 5), (2, 1, 6, 5, 4, 3)],
        (3, 2, 1, 6, 5, 4): [(1, 6, 5, 4, 3)],
        (3, 4, 5, 6, 1, 2): [(1, 2, 3, 4, 5), (1, 6, 5, 4, 3)],
        (4, 3, 2, 1, 6, 5): [(2, 1, 6, 5, 4, 3)],
        (4, 5, 6, 1, 2, 3): [(1, 2, 3, 4, 5), (1, 6, 5, 4, 3, 2)],
        (5, 4, 3, 2, 1, 6): [(1, 2, 3, 4, 5)],
        (5, 6, 1, 2, 3, 4): [(1, 2, 3, 4, 5), (2, 3, 4, 5, 6)],
        (6, 1, 2, 3, 4, 5): [(1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)],
        (6, 5, 4, 3, 2, 1): [(1, 2, 3, 4, 5, 6)],
    },
    "grid2x3": {
        (1, 2, 3, 4, 5, 6): [],
        (3, 2, 1, 6, 5, 4): [(1, 4, 5, 6, 3)],
        (4, 5, 6, 1, 2, 3): [(1, 2, 3, 6, 5, 4)],
        (6, 5, 4, 3, 2, 1): [(1, 4, 5, 2, 3, 6)],
    },
    "p4": {(1, 2, 3, 4): [], (4, 3, 2, 1): [(1, 2, 3, 4)]},
    "star3": {
        (1, 2, 3, 4): [],
        (1, 2, 4, 3): [(3, 1, 4)],
        (1, 3, 2, 4): [(2, 1, 3)],
        (1, 3, 4, 2): [(2, 1, 3), (3, 1, 4)],
        (1, 4, 2, 3): [(2, 1, 3), (2, 1, 4)],
        (1, 4, 3, 2): [(2, 1, 4)],
    },
    "q2": {
        (1, 2, 3, 4): [],
        (1, 3, 2, 4): [(2, 1, 3)],
        (2, 1, 4, 3): [(1, 3, 4, 2)],
        (2, 4, 1, 3): [(1, 2, 4), (1, 3, 4, 2)],
        (3, 1, 4, 2): [(1, 2, 4), (1, 2, 4, 3)],
        (3, 4, 1, 2): [(1, 2, 4, 3)],
        (4, 2, 3, 1): [(1, 2, 4)],
        (4, 3, 2, 1): [(1, 2, 4), (2, 1, 3)],
    },
}


@pytest.mark.parametrize("desc", sorted(FLIP_BFS_WITNESSES))
def test_flip_bfs_witnesses_are_pinned(desc):
    g = graph_from_desc(desc)
    got = {sigma: flip_bfs_witness(g, sigma) for sigma in automorphisms(g)}
    assert got == FLIP_BFS_WITNESSES[desc]



# flip_bfs_witness for 10 targets drawn by random.Random(13) from the sorted
# flip space, recorded before boards over 7 vertices left the tuple search
SEEDED_FLIP_WITNESSES = {
    "p8": [
        ((4, 8, 5, 6, 7, 1, 2, 3), [(1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5),
                                    (2, 3, 4, 5), (3, 4, 5), (6, 7, 8)]),
        ((5, 6, 8, 7, 1, 3, 4, 2), [(1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4),
                                    (3, 4), (5, 6, 7, 8), (6, 7, 8), (6, 7)]),
        ((3, 2, 1, 7, 5, 4, 6, 8), [(1, 2, 3), (4, 5, 6, 7), (5, 6, 7), (5, 6)]),
        ((4, 3, 1, 2, 5, 6, 8, 7), [(1, 2, 3, 4), (3, 4), (7, 8)]),
        ((2, 3, 7, 5, 6, 4, 8, 1), [(1, 2, 3, 4, 5, 6, 7, 8),
                                    (1, 2, 3, 4, 5, 6, 7), (3, 4, 5, 6), (4, 5)]),
        ((4, 1, 3, 2, 8, 5, 7, 6), [(1, 2, 3, 4), (2, 3, 4), (3, 4),
                                    (5, 6, 7, 8), (6, 7, 8), (7, 8)]),
        ((3, 2, 1, 8, 6, 5, 7, 4), [(1, 2, 3), (4, 5, 6, 7, 8), (5, 6, 7), (5, 6)]),
        ((2, 1, 8, 4, 3, 5, 7, 6), [(1, 2), (3, 4, 5, 6, 7, 8), (4, 5, 6, 7, 8),
                                    (4, 5), (7, 8)]),
        ((1, 6, 8, 7, 5, 3, 2, 4), [(2, 3, 4, 5, 6, 7, 8), (2, 3, 4), (3, 4),
                                    (6, 7, 8), (6, 7)]),
        ((3, 6, 4, 5, 2, 7, 8, 1), [(1, 2, 3, 4, 5, 6, 7, 8),
                                    (1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5),
                                    (1, 2, 3, 4), (2, 3, 4), (3, 4)]),
    ],
    "c8": [
        ((3, 2, 8, 7, 1, 6, 5, 4), [(1, 8, 7, 6, 5, 4, 3), (3, 4, 5), (3, 4)]),
        ((3, 5, 4, 7, 8, 1, 2, 6), [(2, 1, 8, 7, 6, 5, 4), (1, 2, 3), (2, 3),
                                    (4, 5, 6, 7)]),
        ((7, 2, 5, 6, 3, 4, 8, 1), [(1, 8, 7), (3, 4, 5, 6), (3, 4), (5, 6),
                                    (7, 8)]),
        ((7, 2, 4, 5, 3, 6, 1, 8), [(1, 8, 7), (3, 4, 5), (3, 4)]),
        ((8, 2, 3, 1, 6, 7, 4, 5), [(1, 8, 7, 6, 5, 4), (1, 8, 7, 6, 5),
                                    (5, 6, 7, 8), (5, 6), (7, 8)]),
        ((8, 6, 5, 2, 4, 3, 1, 7), [(1, 2, 3, 4, 5, 6, 7), (1, 8), (4, 5, 6),
                                    (5, 6)]),
        ((2, 6, 3, 5, 4, 7, 1, 8), [(2, 1, 8, 7, 6), (1, 8, 7, 6), (4, 5), (7, 8)]),
        ((6, 8, 3, 1, 2, 7, 4, 5), [(2, 1, 8, 7, 6, 5, 4), (2, 1, 8, 7, 6),
                                    (1, 8, 7, 6), (1, 8, 7), (4, 5)]),
        ((3, 1, 7, 6, 5, 8, 2, 4), [(1, 8, 7, 6, 5, 4, 3), (2, 3, 4, 5, 6, 7),
                                    (2, 3, 4, 5, 6), (3, 4, 5, 6), (3, 4, 5)]),
        ((7, 1, 3, 4, 2, 6, 5, 8), [(2, 1, 8, 7, 6, 5), (2, 1, 8, 7, 6), (1, 8),
                                    (6, 7)]),
    ],
}


@pytest.mark.parametrize("desc", sorted(SEEDED_FLIP_WITNESSES))
def test_seeded_flip_witnesses_are_pinned(desc):
    g = graph_from_desc(desc)
    targets = random.Random(13).sample(sorted(flip_reachable_set(g)), 10)
    got = [(sigma, flip_bfs_witness(g, sigma)) for sigma in targets]
    assert got == SEEDED_FLIP_WITNESSES[desc]


def _flip_levels(g):
    """BFS levels of the flip space from the identity, by a reference
    search over every board path and apply_flip."""
    pz = puz_on(g)
    paths = all_flip_paths(g)
    levels = [[identity_configuration(pz)]]
    seen = set(levels[0])
    while levels[-1]:
        nxt = []
        for f in levels[-1]:
            for p in paths:
                try:
                    t = apply_flip(pz, f, p)
                except PebblePathError:
                    continue
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        levels.append(nxt)
    return levels[:-1]


@pytest.mark.parametrize("desc", ["c5", "p4", "star3"])
def test_flip_cap_boundary(desc):
    # a target query finishes the level on which its target appears, and
    # that level counts against the cap before the target is reported
    g = graph_from_desc(desc)
    levels = _flip_levels(g)
    count = sum(map(len, levels))
    with pytest.raises(CapExceededError) as exc:
        flip_reachable_set(g, cap=count - 1)
    assert str(exc.value) == f"visited {count} configurations, cap is {count - 1}"
    assert len(flip_reachable_set(g, cap=count)) == count
    for depth in range(1, len(levels)):
        through = sum(len(level) for level in levels[: depth + 1])
        for target in (levels[depth][0], levels[depth][-1]):
            for query in (flip_bfs_oracle, flip_bfs_witness):
                with pytest.raises(CapExceededError) as exc:
                    query(g, target, cap=through - 1)
                assert str(exc.value) == (
                    f"visited {through} configurations, cap is {through - 1}"
                )
            assert flip_bfs_oracle(g, target, cap=through) is True
            assert len(flip_bfs_witness(g, target, cap=through)) == depth


def _witnesses(g, cap=10**6):
    """Every flip-reachable permutation of g with its witness, from one
    search."""
    found = flips._flip_bfs(g, None, cap, witness=True)
    return {sigma: found.moves_to(sigma) for sigma in found.states()}


def _swap_witnesses(pz, start):
    """Every configuration reachable from start by pebble swaps, with the
    move list bfs_witness gives for it, from one search."""
    found = puzzle._search(pz, start, 10**6, witness=True)
    return {f: found.moves_to(f) for f in found.states()}


# every connected board up to 5 vertices and a seeded sample of six-vertex
# ones, where the reference search takes 0.1-1.3 s each
LEVEL_BOARDS = [g for n in range(1, 6) for g in connected_graphs(n)]
LEVEL_BOARDS += random.Random(2024).sample(connected_graphs(6), 4)


@pytest.mark.parametrize(
    "g", LEVEL_BOARDS, ids=[f"n{g.n}m{g.m}-{i}" for i, g in enumerate(LEVEL_BOARDS)]
)
def test_ranked_flip_levels_match_the_reference(g):
    # a witness's length is the BFS level of its permutation
    levels = _flip_levels(g)
    got = [set() for _ in levels]
    for sigma, flips_to in _witnesses(g).items():
        got[len(flips_to)].add(sigma)
    assert [len(level) for level in got] == [len(level) for level in levels]
    assert got == [set(level) for level in levels]


@pytest.mark.parametrize("desc", ["c5", "q2", "star3", "grid2x3"])
def test_ranked_and_packed_loops_agree(packed, desc):
    # every flip witness, and every pebble-swap witness from a seeded start
    # that is not the identity
    g = graph_from_desc(desc)
    pz = puz_on(g)
    start = tuple(random.Random(desc).sample(g.vertices, g.n))
    assert start != g.vertices
    ranked = _witnesses(g), _swap_witnesses(pz, start)
    with packed():
        assert (_witnesses(g), _swap_witnesses(pz, start)) == ranked


@pytest.mark.parametrize("cells", [1, 45])
def test_flip_blocks_keep_the_order_of_discovery(monkeypatch, packed, cells):
    # C5 has 20 flip paths: blocks of one and of two frontier rows, in the
    # ranked loop and in the packed one
    g = cycle(5)
    whole = _witnesses(g)
    monkeypatch.setattr(puzzle, "_BLOCK_CELLS", cells)
    for engine in (contextlib.nullcontext(), packed()):
        with engine:
            assert _witnesses(g) == whole
            assert flip_reachable_set(g) == set(whole)
            for sigma, want in FLIP_BFS_WITNESSES["c5"].items():
                assert flip_bfs_witness(g, sigma) == want


@pytest.mark.parametrize("desc", ["c5", "p8"])  # the ranked and the packed loop
def test_flip_queries_refuse_non_arrangements(desc):
    g = graph_from_desc(desc)
    n = g.n
    bad = [
        tuple(range(1, n)),  # wrong length
        (1, 1) + tuple(range(3, n + 1)),  # a repeated label
        tuple(range(1, n)) + (n + 1,),  # a foreign label
    ]
    for sigma in bad:
        for query in (flip_bfs_oracle, flip_bfs_witness):
            # cap=0 would raise CapExceededError had any search started
            with pytest.raises(ValueError, match="not an arrangement"):
                query(g, sigma, cap=0)


def test_a_refused_flip_search_enumerates_no_path(monkeypatch):
    # a cap below 1 and a board over 256 vertices are refused with the
    # search's own texts before the board paths, whose number grows
    # factorially on dense boards, are enumerated
    def all_paths(g):
        raise AssertionError(f"enumerated the paths of {g}")

    monkeypatch.setattr(flips, "all_flip_paths", all_paths)
    k8 = complete_multipartite((1,) * 8)
    sigma = (2, 1, 3, 4, 5, 6, 7, 8)
    for query in (flip_bfs_oracle, flip_bfs_witness):
        for cap in (0, -1):
            with pytest.raises(CapExceededError) as exc:
                query(k8, sigma, cap=cap)
            assert str(exc.value) == f"visited 1 configurations, cap is {cap}"
        wide = path(300)
        with pytest.raises(ValueError, match="a search takes boards of at most 256 "
                                             "vertices, this one has 300"):
            query(wide, wide.vertices, cap=0)
    with pytest.raises(CapExceededError):
        flip_reachable_set(k8, cap=0)


# BFS levels of the flip space of P8 by _flip_levels, which takes 1.3 s
P8_FLIP_LEVELS = [1, 28, 252, 1050, 2310, 2772, 1716, 429]


def test_flip_space_of_p8_on_the_tuple_engine(oracle):
    # boards over puzzle._RANKED_MAX_N vertices search on packed int64 keys
    reach = flip_reachable_set(path(8))
    assert len(reach) == sum(P8_FLIP_LEVELS) == 8558
    assert reach == oracle.flip_reachable(oracle.path(8))
    count = len(reach)
    with pytest.raises(CapExceededError) as exc:
        flip_reachable_set(path(8), cap=count - 1)
    assert str(exc.value) == f"visited {count} configurations, cap is {count - 1}"
    # (2, 1, 4, 3, ...) takes two flips, and its level ends at 281 states
    target = (2, 1, 4, 3, 5, 6, 7, 8)
    through = sum(P8_FLIP_LEVELS[:3])
    with pytest.raises(CapExceededError) as exc:
        flip_bfs_oracle(path(8), target, cap=through - 1)
    assert str(exc.value) == f"visited {through} configurations, cap is {through - 1}"
    assert flip_bfs_witness(path(8), target, cap=through) == [(1, 2), (3, 4)]


# ---------------------------------------------------------------------------
# the constructive realizer, frozen branch outputs

def test_realize_p4_reversal():
    assert realize_by_flips(path(4), (4, 3, 2, 1)) == [
        (1, 2, 3, 4),
        (2, 3),
        (2, 3),
    ]


def test_realize_c5_rotation():
    assert realize_by_flips(cycle(5), (2, 3, 4, 5, 1)) == [
        (5, 1, 2, 3),
        (2, 3, 4, 5),
    ]


def test_realize_bowtie_swap():
    # swaps the two triangles across the shared vertex 3
    assert realize_by_flips(BOWTIE, (4, 5, 3, 1, 2)) == [
        (1, 3, 4),
        (2, 3, 5),
    ]


def test_realize_c6_rotation_length():
    seq = realize_by_flips(cycle(6), (2, 3, 4, 5, 6, 1))
    assert len(seq) == 6
    assert flip_sequence_permutation(cycle(6), seq) == (2, 3, 4, 5, 6, 1)


def test_realize_q2_rotation():
    assert realize_by_flips(graph_from_desc("q2"), (2, 4, 1, 3)) == [
        (2, 4, 3, 1),
        (2, 4, 3),
    ]


def test_realize_identity_is_empty():
    assert realize_by_flips(path(5), (1, 2, 3, 4, 5)) == []


# smallest depth_guard that realizes each automorphism; one less raises
DEPTH_GUARD_PINS = [
    ("c5", (2, 3, 4, 5, 1), 1),
    ("c5", (5, 4, 3, 2, 1), 3),
    ("p4", (4, 3, 2, 1), 2),
    ("star3", (1, 3, 4, 2), 2),
    ("star3", (1, 2, 4, 3), 3),
    ("c6", (2, 3, 4, 5, 6, 1), 2),  # order 6: split into coprime parts
]


@pytest.mark.parametrize("desc,sigma,guard", DEPTH_GUARD_PINS)
def test_realize_depth_guard_boundary(desc, sigma, guard):
    g = graph_from_desc(desc)
    seq = realize_by_flips(g, sigma, depth_guard=guard)
    assert seq == realize_by_flips(g, sigma)
    assert flip_sequence_permutation(g, seq) == sigma
    with pytest.raises(RealizationError, match="^recursion depth guard exceeded$"):
        realize_by_flips(g, sigma, depth_guard=guard - 1)


def test_realize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        realize_by_flips(path(4), (2, 1, 3, 4))  # not an automorphism
    with pytest.raises(ValueError):
        realize_by_flips(Graph(range(1, 5), [(1, 2), (3, 4)]), (2, 1, 4, 3))
    with pytest.raises(ValueError):
        realize_by_flips(Graph((1, 3, 5), [(1, 3), (3, 5)]), (5, 3, 1))


def test_realize_every_automorphism_small_graphs():
    # every automorphism of every connected graph up to 5 vertices is
    # realized, and where flips move anything at all the BFS oracle agrees
    total = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            reach = flip_reachable_set(g)
            for sigma in automorphisms(g):
                seq = realize_by_flips(g, sigma)
                assert flip_sequence_permutation(g, seq) == sigma
                assert (sigma in reach) == True  # noqa: E712
                total += 1
    assert total == 299


def test_realizer_frames_build_no_edge_tuple_or_position_dict(monkeypatch):
    # the subgraphs and rebuilt graphs of the realizer's frames read only
    # their adjacency: counted through the two builders, each wrapped to
    # record a graph whose cache slot is still empty when it is called
    rng = random.Random(29)
    boards = list(connected_graphs(5)) + [graph_from_desc("q3"),
                                          graph_from_desc("p6^2")]
    for g in boards:  # the input board's own fields may be read
        g.edges()
        g.positions()
    built = []
    edges, positions = Graph.edges, Graph.positions

    def counted_edges(self):
        if self._edges is None:
            built.append(("edges", self))
        return edges(self)

    def counted_positions(self):
        if self._index is None:
            built.append(("positions", self))
        return positions(self)

    monkeypatch.setattr(Graph, "edges", counted_edges)
    monkeypatch.setattr(Graph, "positions", counted_positions)
    realized = 0
    for g in boards:
        auts = automorphisms(g)
        for sigma in rng.sample(auts, min(len(auts), 8)):
            assert flip_sequence_permutation(g, realize_by_flips(g, sigma)) == sigma
            realized += 1
    assert realized == 110
    assert built == []


# sha256 over repr(realize_by_flips(g, sigma)) for every automorphism of
# every connected 6-vertex board (1,650 of them).  Unlike the boards behind
# COMPILED_DIGEST, these reach the spanning quotient split, the tail
# quotient split and the three-factor orbit split many times each.
REALIZED_6_DIGEST = (
    "89c9d1b3dc654376de7916c146b7f8fec7ce42d14ce8b45095c224cbbb49f6d2"
)


def test_realized_sequences_on_six_vertex_boards_are_pinned():
    h = hashlib.sha256()
    total = 0
    for g in connected_graphs(6):
        for sigma in automorphisms(g):
            h.update(repr(realize_by_flips(g, sigma)).encode())
            total += 1
    assert total == 1650
    assert h.hexdigest() == REALIZED_6_DIGEST


def _circulant(n, k):
    return Graph(range(1, n + 1), [
        (i, (i + s - 1) % n + 1) for i in range(1, n + 1) for s in (1, k)
    ])


def _prism(k):
    return Graph(range(1, 2 * k + 1), [
        e for i in range(1, k + 1)
        for e in ((i, i % k + 1), (k + i, k + i % k + 1), (i, k + i))
    ])


def _moebius_ladder(k):
    n = 2 * k
    return Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)]
                 + [(i, i + k) for i in range(1, k + 1)])


def _petersen():
    return Graph(range(1, 11), [
        e for i in range(1, 6)
        for e in ((i, i % 5 + 1), (i, i + 5), (5 + i, 5 + (i + 1) % 5 + 1))
    ])


def _symmetric_boards():
    """42 vertex-transitive boards: the circulants C_n(1, k) for n = 5..12
    and 2 <= k <= n/2, the prisms and the Moebius ladders on 4 to 16
    vertices, the Petersen graph, Q4, K3,3, K4,4 and K2,2,2,2."""
    out = [_circulant(n, k) for n in range(5, 13) for k in range(2, n // 2 + 1)]
    out += [_prism(k) for k in range(3, 9)]
    out += [_moebius_ladder(k) for k in range(2, 9)]
    out += [_petersen(), hypercube(4), complete_multipartite(3, 3),
            complete_multipartite(4, 4), complete_multipartite(2, 2, 2, 2)]
    return out


# sha256 over repr(realize_by_flips(g, sigma)) for a seeded fifth of the
# automorphisms of each symmetric board (1,125 of 5,550).  They reach the
# spanning quotient split 37 times and the tail quotient split 222 times;
# the six-vertex boards above reach the quotient split far less often.
SYMMETRIC_DIGEST = (
    "21ab9d178b8170e6b26031b77d23b923bc07a389aa88de35e29cdf2e32905c0c"
)


def test_realized_sequences_on_symmetric_boards_are_pinned(monkeypatch):
    splits = collections.Counter()
    split = flips._quotient_split

    def counted(*args):
        splits[args[-1]] += 1
        return split(*args)

    monkeypatch.setattr(flips, "_quotient_split", counted)
    rng = random.Random(2019)
    h = hashlib.sha256()
    total = 0
    for g in _symmetric_boards():
        auts = automorphisms(g)
        for sigma in rng.sample(auts, -(-len(auts) // 5)):
            h.update(repr(realize_by_flips(g, sigma)).encode())
            total += 1
    assert total == 1125
    assert splits == {"quotient split": 37, "tail quotient split": 222}
    assert h.hexdigest() == SYMMETRIC_DIGEST


# ---------------------------------------------------------------------------
# serialization

def test_format_parse_round_trip():
    seq = [(1, 2, 3, 4), (2, 3), (2, 3)]
    text = format_flip_sequence(seq)
    assert text == "3\n3 1 2 3 4\n1 2 3\n1 2 3\n"
    assert parse_flip_sequence(text) == seq
    assert parse_flip_sequence("0\n") == []


def test_parse_flip_sequence_reports_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_flip_sequence("")
    with pytest.raises(ValueError, match="line 1"):
        parse_flip_sequence("x\n1 2 3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_flip_sequence("2\n1 2 3\n")  # declared 2, found 1
    with pytest.raises(ValueError, match="line 2"):
        parse_flip_sequence("1\n1 2 z\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_flip_sequence("2\n1 2 3\n5 1 2\n")  # length mismatch
    # comments and blank lines are skipped but numbering is physical
    assert parse_flip_sequence("# note\n1\n\n1 4 5\n") == [(4, 5)]


def test_select_dict_basepoint_invariants():
    # minimize (d, m): d the board distance from x to its image under the
    # chosen power, m the orbit length of x; a fixed point wins with (0, 1)
    c4 = cycle(4).relabeled({1: 10, 2: 20, 3: 30, 4: 40})
    cases = [
        (cycle(5), {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}, (1, 1, 5)),
        (c4, {10: 20, 20: 30, 30: 40, 40: 10}, (10, 1, 4)),
        # the reversal of the gapped path 2-1-6-5-4
        (graph_from_desc("c6~3"), {2: 4, 1: 5, 6: 6, 5: 1, 4: 2}, (6, 0, 1)),
    ]
    for g, sig, want in cases:
        powered, e, x, d, m = _select_dict(g, sig)
        assert (x, d, m) == want
        assert powered == perm_power(sig, e)
        assert distances_from(g, x)[powered[x]] == d
        orbit = {x}
        y = powered[x]
        while y not in orbit:
            orbit.add(y)
            y = powered[y]
        assert len(orbit) == m


def _select_reference(g, sig):
    # the definition, by brute force: every power sig^e with e coprime to
    # the order, every vertex x, a fresh BFS and a fresh orbit walk each
    order = 1
    while perm_power(sig, order) != {v: v for v in sig}:
        order += 1
    best = None
    for e in range(1, order + 1):
        if math.gcd(e, order) != 1:
            continue
        pe = perm_power(sig, e)
        for x in g.vertices:
            m, y = 1, pe[x]
            while y != x:
                m, y = m + 1, pe[y]
            key = (distances_from(g, x)[pe[x]], m, e, x)
            if best is None or key < best[0]:
                best = (key, pe)
    (d, m, e, x), pe = best
    return pe, e, x, d, m


@pytest.mark.parametrize("n", range(2, 7))
def test_select_dict_matches_the_brute_force_definition(n):
    for g in connected_graphs(n):
        for h in (g, g.relabeled({v: 3 * v + 1 for v in g.vertices})):
            for sig in automorphisms_dict(h):
                if all(v == w for v, w in sig.items()):
                    continue
                got = _select_dict(h, sig)
                assert got == _select_reference(h, sig)
                assert list(got[0]) == list(sig)  # same key order as sig
