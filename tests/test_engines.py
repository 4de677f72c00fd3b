"""One differential harness for the configuration search engines.

A seeded generator makes instances: a board, a pebble graph, a start, a
target and a move model, pebble swaps or the flip paths of
``flips.all_flip_paths(board)``.  For n = 3..7 the ranked engine, the
default there, is run against the packed one; at n = 8 the packed
engine, the default there, is run against the brute-force BFS of
``scripts/oracle_values.py``, which shares no code with the package.
"""

import itertools
import random
from typing import NamedTuple

import pytest

from pebblex import puzzle as _p
from pebblex.flips import all_flip_paths
from pebblex.graphs import Graph, complete, complete_multipartite, is_connected, star
from pebblex.puzzle import Puz, bfs_witness

CAP = 10**6


class Instance(NamedTuple):
    puz: Puz
    start: tuple
    target: tuple
    paths: list | None  # None: pebble swaps
    probes: list


def _sparse_connected(rng, n, extra):
    """A random tree on 1..n plus up to ``extra`` more random edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((v, rng.choice(order[:i])))) for i, v in enumerate(order) if i}
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges.update(rng.sample(pairs, min(extra, len(pairs))))
    return Graph(range(1, n + 1), edges)


def _pebble_graph(rng, board):
    n = board.n
    kind = rng.choice(["board", "sparse", "multipartite", "star", "complete", "random"])
    if kind == "board":
        return board
    if kind == "sparse":
        return _sparse_connected(rng, n, rng.randint(0, n))
    if kind == "multipartite":
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        return complete_multipartite([b - a for a, b in zip([0, *cuts], [*cuts, n])])
    if kind == "star":
        return star(n - 1)
    if kind == "complete":
        return complete(n)
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph(range(1, n + 1), [e for e in pairs if rng.random() < 0.5])


def _gapped(g):
    return g.relabeled({v: 2 * v + 1 for v in g.vertices})


def _moves(puz, paths):
    return puz.board.edges() if paths is None else paths


def _replay(puz, start, moves):
    """Each move reverses the pebbles on a board path, and is legal when
    every pebble pair along it is adjacent in the pebble graph; the same
    rule for swaps, two-vertex paths, and flips."""
    at = dict(zip(puz.board.vertices, start))
    for path in moves:
        pebbles = [at[v] for v in path]
        assert all(b in puz.pebbles.adj[a] for a, b in zip(pebbles, pebbles[1:])), path
        at.update(zip(path, reversed(pebbles)))
    return tuple(at[v] for v in puz.board.vertices)


def _walk(rng, puz, start, paths, steps):
    """The end of a random walk of legal moves from start."""
    cfg = start
    for _ in range(steps):
        at = dict(zip(puz.board.vertices, cfg))
        legal = [p for p in _moves(puz, paths)
                 if all(at[b] in puz.pebbles.adj[at[a]] for a, b in zip(p, p[1:]))]
        if not legal:
            break
        cfg = _replay(puz, cfg, [rng.choice(legal)])
    return cfg


def instances(n, count, seed, self_flips_only=False, gapped=True):
    """``count`` seeded instances on n vertices, alternately over pebble
    swaps and flip paths.  Flip boards are sparse, so their paths stay few;
    with ``self_flips_only`` a flip instance's pebble graph is its board."""
    rng = random.Random(seed * 1000 + n)
    out = []
    for i in range(count):
        flips = i % 2 == 1
        board = _sparse_connected(rng, n, rng.randint(0, 2 if flips else n))
        pebbles = board if flips and self_flips_only else _pebble_graph(rng, board)
        if gapped and rng.random() < 0.25:
            board = _gapped(board)
        if gapped and rng.random() < 0.25:
            pebbles = _gapped(pebbles)
        puz = Puz(board, pebbles)
        paths = all_flip_paths(board) if flips else None
        start = tuple(rng.sample(pebbles.vertices, n))
        walks = [_walk(rng, puz, start, paths, rng.randint(1, 3 * n)) for _ in range(3)]
        shuffles = [tuple(rng.sample(pebbles.vertices, n)) for _ in range(3)]
        target = walks[0] if rng.random() < 0.7 else shuffles[0]
        out.append(Instance(puz, start, target, paths, [*walks, *shuffles, start]))
    return out


@pytest.fixture
def levels(monkeypatch):
    """The visited count after every level, as the cap check reads it."""
    counts = []
    check_cap = _p._check_cap
    monkeypatch.setattr(_p, "_check_cap",
                        lambda count, cap: (counts.append(count), check_cap(count, cap)))
    return counts


def _answers(inst, levels):
    """Everything the engine of the moment says about one instance."""
    puz, start, target, paths, probes = inst
    out = {}
    levels.clear()
    out["count"] = _p._search(puz, start, CAP, paths=paths, probes=()).count
    out["count levels"] = levels[:]
    levels.clear()
    out["states"] = _p._search(puz, start, CAP, paths=paths).states()
    out["open levels"] = levels[:]
    out["hits"] = _p._search(puz, start, CAP, paths=paths, probes=probes).hits
    levels.clear()
    if paths is None:
        out["witness"] = bfs_witness(puz, start, target, cap=CAP)
    else:
        out["witness"] = _p._search(puz, start, CAP, target, witness=True,
                                    paths=paths).moves_to(target)
    out["witness levels"] = levels[:]
    return out


@pytest.mark.parametrize("n", range(3, 8))
def test_the_ranked_and_packed_engines_agree(n, packed, levels):
    assert _p._engine(n) is _p._ranked_levels
    for inst in instances(n, 30, seed=1):
        ranked = _answers(inst, levels)
        with packed():
            assert _p._engine(n) is _p._packed_levels
            assert _answers(inst, levels) == ranked, inst
        assert ranked["count"] == len(ranked["states"]) == ranked["count levels"][-1]
        assert ranked["hits"] == [c for c in inst.probes if c in ranked["states"]]
        witness = ranked["witness"]
        assert (witness is None) == (inst.target not in ranked["states"])
        if witness is not None:
            assert _replay(inst.puz, inst.start, witness) == inst.target
            # a shortest list: the target lies on the level its length names
            assert len(ranked["witness levels"]) == len(witness) + 1


def test_the_packed_engine_matches_the_oracle_at_eight(oracle, levels):
    assert _p._engine(8) is _p._packed_levels
    for inst in instances(8, 4, seed=1, self_flips_only=True, gapped=False):
        puz, start, target, paths, probes = inst
        board = oracle.mk(8, puz.board.edges())
        if paths is None:
            want = oracle.puzzle_bfs(board, oracle.mk(8, puz.pebbles.edges()), start)
        else:
            want = oracle.flip_reachable(board, start)
        got = _answers(inst, levels)
        assert got["states"] == want, inst
        assert got["count"] == len(want)
        assert got["hits"] == [c for c in probes if c in want]
        witness = got["witness"]
        assert (witness is None) == (target not in want)
        if witness is not None:
            assert _replay(puz, start, witness) == target


def test_the_generator_covers_both_models_and_both_answers():
    sample = [inst for n in range(3, 8) for inst in instances(n, 30, seed=1)]
    assert {inst.paths is None for inst in sample} == {True, False}
    assert all(is_connected(inst.puz.board) for inst in sample)
    assert sum(any(v > inst.puz.n for v in inst.puz.board.vertices) for inst in sample) > 5
    reached = [inst.target in _p._search(inst.puz, inst.start, CAP, paths=inst.paths).states()
               for inst in sample]
    assert 0 < reached.count(False) < reached.count(True)
