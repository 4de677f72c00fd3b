"""Pebble exchange puzzles.

An instance pairs a board graph with a pebble graph on the same number of
vertices.  A configuration is a bijection from board vertices to pebbles,
stored as a tuple aligned with the sorted board vertex list: ``config[k]``
is the pebble sitting on the k-th smallest board vertex.  A move names two
board vertices; it is legal when they are adjacent on the board AND the two
pebbles sitting there are adjacent in the pebble graph, and it swaps those
pebbles.

Reachability is plain breadth-first search over configurations, by one of
two engines chosen from the number of vertices n in ``_engine``:

* n <= 7: states are lexicographic ranks of permutations.  A table of all
  n! permutations and a table of the rank each one moves to under every
  position swap are built once per n and shared by every instance; each
  BFS level reads its children from the swap table and marks them in an
  n!-entry visited array.
* n > 7: each configuration packs into one sortable key, an int64 under
  radix n up to 15 vertices and an n-byte string beyond.  A move undoes
  itself, so a child of level L lies on level L - 1, L or L + 1, and each
  new level is deduplicated against the sorted keys of the two levels
  before it only.  An int64 child key is its parent's key plus a per-edge
  delta, and each frontier is decoded from its level's keys, in key order.

Move witnesses come from a third, parent-recording search over tuples,
``_tuple_bfs``.  The flip oracle in ``flips`` reads the rank tables for
boards up to 7 vertices and runs ``_tuple_bfs`` only on larger ones.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, IllegalMoveError, PuzzleError
from .graphs import Graph
from .perms import GroupSummary, automorphisms, compose, inverse

DEFAULT_CAP = 50_000_000

# Rank tables cost n! * C(n,2) int32 entries: 0.4 MB at n = 7, 4.5 MB at
# n = 8 and 52 MB at n = 9.  The limit of 7 is a choice, not a measured
# optimum.  With the limit at 8, against the packed search below, on a
# 2-vCPU VM (medians of 20 warm calls, one process per board):
# reachable_count of Q3 (744 states) took 1.0 ms ranked and 3.7-4.0 ms
# packed, and of Puz(Q3, star7) (20,160 states) 10.2-10.7 ms ranked and
# 17.5-18.1 ms packed; but the first ranked call built the n = 8 tables in
# 87-100 ms, and peak RSS was 38.0 MB ranked and 32.5-33.3 MB packed (31.5
# MB before the call).  In one run of CLI queries, whose 8-vertex searches
# visit at most 20,160 states, n = 8 tables peaked 7.8% higher in memory;
# n = 9 was not measured.
_RANKED_MAX_N = 7
_INT64_MAX_N = 15  # radix-n packed keys stay under 2**63 up to here


@dataclass(frozen=True)
class Puz:
    """A board graph and a pebble graph of equal size."""

    board: Graph
    pebbles: Graph

    def __post_init__(self):
        if self.board.n != self.pebbles.n:
            raise ValueError(
                f"board has {self.board.n} vertices, pebble graph has "
                f"{self.pebbles.n}; they must match"
            )

    @property
    def n(self):
        return self.board.n

    def __repr__(self):
        return f"Puz(board={self.board!r}, pebbles={self.pebbles!r})"


def puz_on(g):
    """The self-puzzle with g as both board and pebble graph."""
    return Puz(g, g)


def identity_configuration(puz):
    """The k-th smallest pebble on the k-th smallest board vertex."""
    return tuple(puz.pebbles.vertices)


def check_configuration(puz, config):
    if tuple(sorted(config)) != puz.pebbles.vertices:
        raise PuzzleError(
            f"configuration {config} is not an arrangement of the pebbles "
            f"{puz.pebbles.vertices}"
        )
    return tuple(config)


def _move_in_place(puz, cfg, move):
    """Check one pebble exchange and make it on the list ``cfg``; raises
    IllegalMoveError with the failed condition spelled out."""
    x1, x2 = move
    board = puz.board
    if not (x1 in board.adj and x2 in board.adj):
        raise IllegalMoveError(f"move ({x1},{x2}) names a missing board vertex")
    if x1 == x2:
        raise IllegalMoveError(f"move ({x1},{x2}) must name two distinct vertices")
    if x2 not in board.adj[x1]:
        raise IllegalMoveError(
            f"board vertices {x1} and {x2} are not adjacent"
        )
    i, j = board.index_of(x1), board.index_of(x2)
    p1, p2 = cfg[i], cfg[j]
    if not puz.pebbles.has_edge(p1, p2):
        raise IllegalMoveError(
            f"pebbles {p1} and {p2} (on board vertices {x1},{x2}) are not "
            f"adjacent in the pebble graph"
        )
    cfg[i], cfg[j] = p2, p1


def apply_move(puz, config, move):
    """One pebble exchange; raises IllegalMoveError with the failed
    condition spelled out."""
    out = list(config)
    _move_in_place(puz, out, move)
    return tuple(out)


def replay(puz, start, moves):
    """Apply a move list from ``start``; returns the final configuration.

    A move whose board vertices are adjacent and whose pebbles are adjacent
    is made in place; any other goes through ``_move_in_place``, which
    raises with the failed condition spelled out.  Nothing is built per
    call, since most certificates are a few moves long.
    """
    cfg = list(check_configuration(puz, start))
    board_adj = puz.board.adj
    index = puz.board._index  # the dict board.index_of reads, without a call
    pebble_adj = puz.pebbles.adj
    for x1, x2 in moves:
        if x2 in board_adj.get(x1, ()):
            i, j = index[x1], index[x2]
            p1, p2 = cfg[i], cfg[j]
            if p2 in pebble_adj[p1]:
                cfg[i], cfg[j] = p2, p1
                continue
        _move_in_place(puz, cfg, (x1, x2))
    return tuple(cfg)


# ---------------------------------------------------------------------------
# breadth-first search cores

def _edge_positions(puz):
    b = puz.board
    return [(b.index_of(u), b.index_of(v)) for u, v in b.edges()]


def _pebble_matrix(puz):
    """Pebble adjacency over pebble indexes (positions in the sorted list)."""
    pebbles = puz.pebbles
    P = np.zeros((puz.n, puz.n), dtype=bool)
    for u, v in pebbles.edges():
        i, j = pebbles.index_of(u), pebbles.index_of(v)
        P[i, j] = P[j, i] = True
    return P


def _radix(n):
    return n ** np.arange(n - 1, -1, -1, dtype=np.int64)


class _RankTables(NamedTuple):
    perms: np.ndarray  # (n!, n) uint8: every permutation of range(n), lexicographic
    keys: np.ndarray  # (n!,) int64: each row packed under radix n, ascending
    swap: np.ndarray  # (n!, C(n,2)) int32: rank of the row with two positions swapped
    pair: np.ndarray  # (n, n): the swap column of positions i != j


@functools.lru_cache(maxsize=None)
def _rank_tables(n):
    """The graph-independent tables of the ranked search, once per n."""
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.uint8, count=math.factorial(n) * n,
    ).reshape(math.factorial(n), n)
    radix = _radix(n)
    keys = perms @ radix
    i, j = np.triu_indices(n, 1)
    cols = np.arange(i.size)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[i, j] = pair[j, i] = cols
    swap = np.empty((len(perms), i.size), dtype=np.int32)
    for col, a, b in zip(cols, i, j):
        # swapping positions a and b moves digit d_b to a and d_a to b;
        # the lexicographic list is sorted by key, so a key's index is its rank
        delta = (perms[:, b].astype(np.int64) - perms[:, a]) * (radix[a] - radix[b])
        swap[:, col] = keys.searchsorted(keys + delta)
    tables = _RankTables(perms, keys, swap, pair)
    for table in tables:  # shared by every caller in the process
        table.flags.writeable = False
    return tables


def _ranks(tables, rows):
    """Ranks of rows of pebble indexes."""
    rows = np.asarray(rows, dtype=np.int64)
    return tables.keys.searchsorted(rows @ _radix(rows.shape[-1]))


def _ranked_search(puz, start, cap, target=None):
    """BFS over permutation ranks, for n <= _RANKED_MAX_N.

    Returns (seen, count, found): ``seen`` marks the visited ranks of
    ``_rank_tables(n)``, whose rows hold pebble indexes, and
    ``_ranked_unpack`` reads it back.
    """
    tables = _rank_tables(puz.n)
    P = _pebble_matrix(puz)
    I, J = np.array(_edge_positions(puz), dtype=np.intp).reshape(-1, 2).T
    K = tables.pair[I, J]
    ends = (start, start if target is None else target)
    start_rank, goal = _ranks(
        tables, [[puz.pebbles.index_of(p) for p in f] for f in ends]
    )
    seen = np.zeros(len(tables.perms), dtype=bool)
    seen[start_rank] = True
    frontier = np.array([start_rank])
    count = 1
    found = target is not None and goal == start_rank
    while not found:
        rows = tables.perms[frontier]
        kids = tables.swap[frontier[:, None], K][P[rows[:, I], rows[:, J]]]
        fresh = np.zeros_like(seen)
        fresh[kids] = True
        fresh[seen] = False
        frontier = np.flatnonzero(fresh)
        if not frontier.size:
            break
        seen[frontier] = True
        count += frontier.size
        if count > cap:
            raise CapExceededError(
                f"visited {count} configurations, cap is {cap}"
            )
        found = target is not None and seen[goal]
    return seen, count, bool(found)


def _ranked_unpack(puz, seen):
    labels = np.array(puz.pebbles.vertices, dtype=np.int64)
    rows = _rank_tables(puz.n).perms[seen]
    return frozenset(map(tuple, labels[rows].tolist()))


def _keys(rows):
    """Sortable keys of uint8 rows of pebble indexes: radix-n int64 up to
    _INT64_MAX_N columns, n-byte strings beyond."""
    n = rows.shape[1]
    if n <= _INT64_MAX_N:
        return rows.astype(np.int64) @ _radix(n)
    return np.ascontiguousarray(rows).view(np.dtype((np.void, n))).ravel()


def _rows(keys, n):
    """The rows of pebble indexes that ``_keys`` packed: decoded digit by
    digit from int64 keys, a view of byte keys."""
    if keys.dtype.kind == "V":
        return keys.view(np.uint8).reshape(-1, n)
    return keys[:, None] // _radix(n) % n


def _int64_children(keys, P, I, J):
    """Int64 keys of the legal children of ``keys``, key by key then edge by
    edge: a swap at (a, b) adds (d_b - d_a) * (radix[a] - radix[b])."""
    radix = _radix(len(P))
    rows = _rows(keys, len(P))
    FI, FJ = rows[:, I], rows[:, J]
    return (keys[:, None] + (FJ - FI) * (radix[I] - radix[J]))[P[FI, FJ]]


def _np_search(puz, start, cap, target=None):
    """Vectorized BFS over packed keys, for n > _RANKED_MAX_N.

    A move undoes itself (the pebble matrix is symmetric), so the children
    of level L are checked against the sorted keys of levels L - 1 and L
    only.  Int64 children come from their parents' keys by a per-edge delta
    (``_int64_children``); byte keys swap columns of copied rows.  Each
    frontier is decoded from its level's keys, so it runs in key order, not
    discovery order: counts, sets and cap messages do not depend on it, but
    a witness-recording search would have to restore discovery order.

    Returns (visited, count, found): ``visited`` holds the visited keys
    level by level, and ``_np_unpack`` reads it back.
    """
    n = puz.n
    P = _pebble_matrix(puz)
    I, J = np.array(_edge_positions(puz), dtype=np.intp).reshape(-1, 2).T
    ends = (start, target or start)
    keys = _keys(np.array([[puz.pebbles.index_of(p) for p in f] for f in ends],
                          dtype=np.uint8))
    levels = [keys[:1]]
    count = 1
    found = target is not None and keys[0] == keys[1]
    while not found:
        if n <= _INT64_MAX_N:
            kids = np.sort(_int64_children(levels[-1], P, I, J))
        else:
            frontier = _rows(levels[-1], n)
            rows = [frontier[:0]]
            for a, b in zip(I, J):
                sub = frontier[P[frontier[:, a], frontier[:, b]]]
                sub[:, [a, b]] = sub[:, [b, a]]
                rows.append(sub)
            # stable: half the default sort's time on p16^2 with p16 pebbles
            kids = np.sort(_keys(np.concatenate(rows)), kind="stable")
        if not kids.size:
            break
        kids = kids[np.r_[True, kids[1:] != kids[:-1]]]
        for near in levels[-2:]:
            pos = np.minimum(near.searchsorted(kids), near.size - 1)
            kids = kids[near[pos] != kids]
        if not kids.size:
            break
        levels.append(kids)
        count += kids.size
        if count > cap:
            raise CapExceededError(
                f"visited {count} configurations, cap is {cap}"
            )
        if target is not None:
            t = kids.searchsorted(keys[1])
            found = t < kids.size and kids[t] == keys[1]
    return np.concatenate(levels), count, bool(found)


def _np_unpack(puz, visited):
    labels = np.array(puz.pebbles.vertices, dtype=np.int64)
    return frozenset(map(tuple, labels[_rows(visited, puz.n)].tolist()))


def _engine(n):
    """The (search, unpack) pair that serves n-vertex puzzles."""
    if n <= _RANKED_MAX_N:
        return _ranked_search, _ranked_unpack
    return _np_search, _np_unpack


def reachable_set(puz, start=None, cap=DEFAULT_CAP):
    """All configurations reachable from ``start`` (default: identity)."""
    start = check_configuration(
        puz, identity_configuration(puz) if start is None else start
    )
    search, unpack = _engine(puz.n)
    return unpack(puz, search(puz, start, cap)[0])


def reachable_count(puz, start=None, cap=DEFAULT_CAP):
    """Size of the reachable set, without materializing configurations."""
    start = check_configuration(
        puz, identity_configuration(puz) if start is None else start
    )
    search, _ = _engine(puz.n)
    return search(puz, start, cap)[1]


def equivalent(puz, f1, f2, cap=DEFAULT_CAP):
    """Can some legal move sequence turn f1 into f2?"""
    f1 = check_configuration(puz, f1)
    f2 = check_configuration(puz, f2)
    if f1 == f2:
        return True
    search, _ = _engine(puz.n)
    return search(puz, f1, cap, target=f2)[2]


def is_feasible(puz, cap=DEFAULT_CAP):
    """True when every configuration is reachable from every other.

    Since moves are reversible it is enough to count the component of the
    identity.  Raises CapExceededError up front when n! itself exceeds the
    cap, so a False answer always means genuinely infeasible.
    """
    total = math.factorial(puz.n)
    if total > cap:
        raise CapExceededError(
            f"full configuration space has {total} states, cap is {cap}"
        )
    return reachable_count(puz, cap=cap) == total


def _tuple_bfs(start, children, cap, target=None):
    """Parent-recording BFS over hashable states.

    ``children(state)`` yields (child, move) pairs.  Returns a dict mapping
    each visited state to (parent, move), or None for ``start``; it is the
    visited set too.  Parents are kept at first discovery.  With a target,
    the search finishes the level on which the target appears and checks
    the cap before it stops, as the vectorized engines do.
    """
    parent = {start: None}
    frontier = [start]
    while frontier and target not in parent:
        nxt = []
        for f in frontier:
            for t, move in children(f):
                if t not in parent:
                    parent[t] = (f, move)
                    nxt.append(t)
        if len(parent) > cap:
            raise CapExceededError(
                f"visited {len(parent)} configurations, cap is {cap}"
            )
        frontier = nxt
    return parent


def _moves_to(parent, state):
    """The moves from the start of a ``_tuple_bfs`` to ``state``, or None
    when the search did not reach it."""
    if state not in parent:
        return None
    moves = []
    while parent[state] is not None:
        state, move = parent[state]
        moves.append(move)
    moves.reverse()
    return moves


def bfs_witness(puz, start, target, cap=DEFAULT_CAP):
    """A shortest move list turning start into target, or None.

    Intended for small instances where an explicit move sequence is wanted
    rather than a yes/no answer.
    """
    start = check_configuration(puz, start)
    target = check_configuration(puz, target)
    board_vs = puz.board.vertices
    swaps = [(i, j, (board_vs[i], board_vs[j])) for i, j in _edge_positions(puz)]
    pebbles = puz.pebbles

    def children(f):
        for i, j, move in swaps:
            if pebbles.has_edge(f[i], f[j]):
                g = list(f)
                g[i], g[j] = g[j], g[i]
                yield tuple(g), move

    return _moves_to(_tuple_bfs(start, children, cap, target), target)


# ---------------------------------------------------------------------------
# the exchange group

def pebble_exchange_group(g, cap=DEFAULT_CAP):
    """Automorphisms of g reachable from the identity in the self-puzzle.

    Returns a GroupSummary.  One BFS over the identity's component, then a
    membership test per automorphism.
    """
    return exchange_group_counts(g, cap=cap)[0]


def exchange_group_counts(g, cap=DEFAULT_CAP):
    """The exchange group with the counts it is derived from.

    Returns (GroupSummary, number of automorphisms of g, number of
    configurations reachable from the identity in the self-puzzle), from
    one automorphism search and one BFS.
    """
    auts = automorphisms(g)
    reach = reachable_set(puz_on(g), cap=cap)
    members = [p for p in auts if p in reach]
    return GroupSummary.from_elements(members), len(auts), len(reach)


def is_peb_normal_in_aut(g, cap=DEFAULT_CAP):
    """Conjugation check that the exchange group is normal in the full
    automorphism group.  Exhaustive, so the automorphism group is capped at
    200 elements."""
    auts = automorphisms(g)
    if len(auts) > 200:
        raise ValueError(
            f"automorphism group has {len(auts)} elements, check is capped "
            f"at 200"
        )
    reach = reachable_set(puz_on(g), cap=cap)
    peb = {p for p in auts if p in reach}
    return all(
        compose(a, compose(p, inverse(a))) in peb for a in auts for p in peb
    )


# ---------------------------------------------------------------------------
# transposition: swap the roles of board and pebble graph

def transpose_configuration(puz, config):
    """The inverse bijection, aligned to the sorted pebble vertex list."""
    config = check_configuration(puz, config)
    out = [None] * puz.n
    for k, board_v in enumerate(puz.board.vertices):
        out[puz.pebbles.index_of(config[k])] = board_v
    return tuple(out)


def transpose_instance(puz):
    """The puzzle with board and pebble graphs swapped."""
    return Puz(puz.pebbles, puz.board)


def transpose_sequence(puz, start, moves):
    """Carry a move list over to the transposed instance.

    Each move is renamed to the pair of pebbles it exchanged; on the
    transposed instance those are board vertices.  Returns
    (t_start, t_moves) where t_start is the transposed start configuration;
    replaying t_moves from it provably tracks the inverse bijection at every
    step, and the result is revalidated here before being returned.
    """
    cfg = list(check_configuration(puz, start))
    index = puz.board._index
    t_moves = []
    for x1, x2 in moves:
        _move_in_place(puz, cfg, (x1, x2))
        t_moves.append((cfg[index[x2]], cfg[index[x1]]))  # the pebbles moved
    t_puz = transpose_instance(puz)
    t_start = transpose_configuration(puz, start)
    t_end = replay(t_puz, t_start, t_moves)
    if t_end != transpose_configuration(puz, cfg):
        raise PuzzleError("transposed replay does not invert the original")
    return t_start, t_moves
