"""Pebble exchange puzzles.

An instance pairs a board graph with a pebble graph on the same number of
vertices.  A configuration is a bijection from board vertices to pebbles,
stored as a tuple aligned with the sorted board vertex list: ``config[k]``
is the pebble sitting on the k-th smallest board vertex.  A move names two
board vertices; it is legal when they are adjacent on the board AND the two
pebbles sitting there are adjacent in the pebble graph, and it swaps those
pebbles.

Every search is breadth-first over configurations, with one move model: a
move is a board path, legal when each pebble pair along it is adjacent in
the pebble graph, and it reverses the pebbles on it.  A pebble swap is the
two-vertex path on a board edge; the flip oracle in ``flips`` passes every
board path.  ``_search`` runs one level loop over the levels of one of two
engines, chosen from the number of vertices n in ``_engine``, each from
the identity row, as a pebble is numbered by its position in the start:

* n <= 7: states are lexicographic ranks of permutations.  A table of all
  n! permutations and two narrow swap tables are built once per n and
  shared by every instance.  For each permutation and position swap they
  hold the int16 rank the permutation moves to and the uint8 pebble pair
  on those two positions, so a level reads legality and children from one
  gather of rows of each.  A path reversal is at most n // 2 disjoint
  swaps, so a child's rank is that many swap-table lookups, and each level
  is marked in an n!-entry array.  A pebble-swap search derives a child
  table for its own instance as it first expands its start, one intp child
  rank per (board edge, rank), by copying one edge-major row of each swap
  table per board edge, and reads each whole level as one gather of that
  table; a flip search reads the swap tables block by block.
* n > 7: each configuration packs into one sortable key, an int64 with 4
  bits per position up to 15 vertices and an n-byte string beyond.  A
  block of a level reads each board edge's pebble pair code once per
  state, and that one gather gives both legality and the children: an
  int64 child key is its parent's key plus one table entry per swap of its
  move, read at the swap's pebble pair code, taken for the legal moves
  only.  A move undoes itself, so each state of a new level records its
  back moves, the moves of the cells that found it, which are exactly its
  moves to the level before; its expansion skips them, so no child lies
  on an older level and no search reads one.  A pebble swap flips the
  sign of the configuration, so every child of a pebble-swap level is
  new; a flip child may also lie on its parent's level, and a flip search
  drops those.  The moves ride through the level's one sort of child
  keys.

Both engines test each board edge once per state before each move ANDs
the edges it steps on, and hand their levels to the one level loop in
``_search``, which counts, caps and stops them.  The visited record is
the engine's: the n! rank marks, or every packed level's sorted keys.  A
search told its probes, the configurations it will be asked about,
checks each packed level against them as it lands and keeps no level
that it no longer expands.  Only a witness query keeps each level's
frontier with each state's parent row and move: it takes children in
(frontier row, move) order and keeps each frontier in discovery order,
so its move lists are those of a plain first-discovery BFS.  Every other
query keeps no parents, and its frontiers run in rank or key order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import CapExceededError, IllegalMoveError, PuzzleError
from .graphs import Graph
from .perms import GroupSummary, automorphisms, compose, inverse

DEFAULT_CAP = 50_000_000

# Rank tables cost n! * (C(n,2) + 1) swap entries of an int16 child rank
# and a uint8 pebble pair code, each held row-major and edge-major: 6 bytes
# per entry, 0.67 MB at n = 7, 7.0 MB at n = 8 and 81 MB at n = 9.  int16
# holds every rank up to n = 7 only (8! - 1 = 40,319 needs int32), and the
# rank tables' test checks that for the limit below.  The limit of 7 is a
# choice, not a measured optimum.  With the limit at 8 and the tables then
# one int32 entry each, against the packed search below, on a 2-vCPU VM
# (medians of 20 warm calls, one process per board): reachable_count of Q3 (744 states) took 1.0 ms ranked and 3.7-4.0 ms
# packed, and of Puz(Q3, star7) (20,160 states) 10.2-10.7 ms ranked and
# 17.5-18.1 ms packed; but the first ranked call built the n = 8 tables in
# 87-100 ms, and peak RSS was 38.0 MB ranked and 32.5-33.3 MB packed (31.5
# MB before the call).  In one run of CLI queries, whose 8-vertex searches
# visit at most 20,160 states, n = 8 tables peaked 7.8% higher in memory;
# n = 9 was not measured.
_RANKED_MAX_N = 7
_INT64_MAX_N = 15  # 4-bit digits: 15 positions take 60 bits of an int64 key
_MAX_N = 256  # a position and a pebble index each fit one byte


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
    """One pebble exchange; raises PuzzleError unless ``config`` arranges
    the pebbles, and IllegalMoveError with the failed condition spelled
    out."""
    return replay(puz, config, [move])


def replay(puz, start, moves):
    """Apply a move list from ``start``; returns the final configuration.

    A move whose board vertices are adjacent and whose pebbles are adjacent
    is made in place; any other goes through ``_move_in_place``, which
    raises with the failed condition spelled out.  Nothing is built per
    call, since most certificates are a few moves long.
    """
    cfg = list(check_configuration(puz, start))
    board_adj = puz.board.adj
    index = puz.board.positions()  # what board.index_of reads, without a call
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
# breadth-first search: one move model, one level loop, two engines

# (frontier row, move) cells per block of a level: one block holds 128 KB
# per int16 array and 512 KB per int64 or index array.  The whole flip
# space of K7 (5,040 states, 6,846 paths) then peaks about 5 MB above where
# it started, where one unblocked level would take 276 MB per int64 array;
# 2**20 cells peaked 60 MB higher and ran no faster.
_BLOCK_CELLS = 1 << 16


def _pebble_matrix(pebbles, index):
    """Pebble adjacency over the pebble indexes of ``index``, raveled:
    entry i * n + j, the pebble pair code, says if i and j are adjacent."""
    n = pebbles.n
    P = bytearray(n * n)  # a few edges: filled faster in Python than by numpy
    for u, v in pebbles.edges():
        i, j = index[u], index[v]
        P[i * n + j] = P[j * n + i] = 1
    return np.frombuffer(P, dtype=bool)


def _shifts(n):
    """Bit offset of each position's 4-bit digit in an int64 key, the
    first position's highest."""
    return np.arange(4 * n - 4, -1, -4, dtype=np.int64)


class _Moves(NamedTuple):
    """M board paths over positions, as arrays.  Path c is legal when the
    pebbles on each of its steps are adjacent, and it reverses them, which
    is at most n // 2 disjoint position swaps.  A search reads one pebble
    pair code per pair column (I[k], J[k]) of a state: the board edges and
    every other position pair that a move swaps."""

    I: np.ndarray  # (C,) and J: the pair columns; for pebble swaps, the
    J: np.ndarray  # board edges in order
    steps: np.ndarray  # (L, M): the column of each step's edge, the last
    # repeated; None for pebble swaps, where move c is column c
    swaps: np.ndarray  # (S, M): the column of each swap, then of (0, 0)


def _moves(edges, paths=None):
    """The ``_Moves`` of position paths on a board with position edges, as
    pairs or flat; no paths means each edge's two-vertex path, a swap."""
    I, J = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
    if paths is None:
        return _Moves(I, J, None, np.arange(I.size)[None])
    edge = {}
    for e, (i, j) in enumerate(zip(I.tolist(), J.tolist())):
        edge[i, j] = edge[j, i] = e
    L = max(map(len, paths), default=2) - 1
    S = (L + 1) // 2

    def row(p):  # one path's column of the table below
        e = [edge[step] for step in zip(p, p[1:])]
        h = len(p) // 2
        pad = [0] * (S - h)
        return [*e, *e[-1:] * (L - len(e)), *p[:h], *pad, *p[::-1][:h], *pad]

    table = np.fromiter(itertools.chain.from_iterable(map(row, paths)),
                        dtype=np.intp, count=len(paths) * (L + 2 * S))
    steps, A, B = np.split(table.reshape(-1, L + 2 * S).T, [L, L + S])
    # one pair column per distinct position pair, edge or swap (a position
    # fits a byte); each step becomes its edge's column
    pairs = np.concatenate([I << 8 | J, (np.minimum(A, B) << 8 | np.maximum(A, B)).ravel()])
    pairs, column = np.unique(pairs, return_inverse=True)
    return _Moves(pairs >> 8, pairs & 255, column[steps], column[I.size:].reshape(A.shape))


def _legal(ok, moves):
    """(row, move) mask of the legal moves, from the (row, pair column) mask
    of the pairs whose two pebbles are adjacent: each move ANDs the columns
    of the edges it steps on."""
    if moves.steps is None:
        return ok
    ok = np.ascontiguousarray(ok.T)  # a step then gathers whole rows
    legal = ok[moves.steps[0]]
    for step in moves.steps[1:]:
        legal &= ok[step]
    return legal.T


def _cells(legal):
    """(row, move) of the True cells of a (row, move) mask, row by row:
    one flat nonzero, a fraction of the cost of a two-axis one."""
    flat = np.flatnonzero(legal)
    row = flat // legal.shape[1]
    return row, flat - row * legal.shape[1]


def _check_cap(count, cap):
    if count > cap:
        raise CapExceededError(f"visited {count} configurations, cap is {cap}")


def _run_starts(s):
    """Mask of the first entry of each run of equal values in s."""
    first = np.ones(s.size, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return first


class _RankTables(NamedTuple):
    perms: np.ndarray  # (n!, n) uint8: every permutation of range(n), lexicographic
    keys: np.ndarray  # (n!,) int64: each row packed by ``_keys``, ascending
    child: np.ndarray  # (n!, C(n,2) + 1) int16: the rank of the row with the two
    # positions a, b of a swap column swapped; the last column is the rank itself
    code: np.ndarray  # (n!, C(n,2) + 1) uint8: the pebble pair code d_a * n + d_b
    # of the row itself; 0, a pair that is never adjacent, in the last column
    child_cols: np.ndarray  # (C(n,2) + 1, n!): ``child`` and ``code`` edge-major,
    code_cols: np.ndarray  # one contiguous row per swap column
    pair: np.ndarray  # (n, n): the swap column of positions i, j (the last if i == j)


@functools.lru_cache(maxsize=None)
def _rank_tables(n):
    """The graph-independent tables of the ranked search, once per n."""
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.uint8, count=math.factorial(n) * n,
    ).reshape(math.factorial(n), n)
    keys = _keys(perms)
    weight = 1 << _shifts(n)
    i, j = np.triu_indices(n, 1)
    cols = np.arange(i.size)
    pair = np.full((n, n), i.size, dtype=np.intp)
    pair[i, j] = pair[j, i] = cols
    child = np.empty((i.size + 1, len(perms)), dtype=np.int16)
    code = np.zeros((i.size + 1, len(perms)), dtype=np.uint8)
    for col, a, b in zip(cols, i, j):
        # swapping positions a and b moves digit d_b to a and d_a to b;
        # the lexicographic list is sorted by key, so a key's index is its rank
        delta = (perms[:, b].astype(np.int64) - perms[:, a]) * (weight[a] - weight[b])
        child[col] = keys.searchsorted(keys + delta)
        code[col] = perms[:, a] * n + perms[:, b]
    child[-1] = np.arange(len(perms))
    tables = _RankTables(perms, keys, child.T.copy(), code.T.copy(), child, code, pair)
    for table in tables:  # shared by every caller in the process
        table.flags.writeable = False
    return tables


def _ranks(tables, rows):
    """Ranks of rows of pebble indexes."""
    return tables.keys.searchsorted(_keys(rows))


def _child_table(tables, P, pair_cols):
    """The (E, n!) intp child ranks of a pebble-swap instance, one row per
    board edge: the rank its swap leads to, or 0, the start, if illegal."""
    table = tables.child_cols.take(pair_cols, axis=0)
    table *= P.take(tables.code_cols.take(pair_cols, axis=0))
    return table.astype(np.intp)


def _ranked_levels(n, P, moves, goal, witness, probes):
    """The engine over permutation ranks, for n <= _RANKED_MAX_N.

    The move kind fixes how every level reads its children.  Pebble swaps
    read the ``_child_table``, built as the start is first expanded: one
    intp child rank per (board edge, rank), rank 0, the start, for an
    illegal swap, which is always seen, read for the whole level in one
    gather.  Flip paths run the block body: one gather of rows of each
    swap table serves a block of the frontier; the pebble pair code of an
    edge's column decides its legality, and the child rank of a move's
    swap columns gives its child's rank, one lookup per swap, the padding
    (0, 0) swaps reading the identity column.  Without a witness, a level
    copies the n!-entry ``seen`` mask and marks its children in it with
    one intp index; the marks the copy lacks are the next level, in rank
    order.  With one, children are taken in (frontier row, move) order,
    each new rank keeps its first discovery with its parent's row in the
    frontier and its move index, and the frontier stays in discovery
    order.  Each level reads (row, move) off the way it read its children;
    the table's illegal cells are seen, so the same swaps read either way
    keep the same cells and give the same move lists.  The marks answer
    the goal and any query, so ``probes`` changes nothing here.
    """
    tables = _rank_tables(n)
    pair_cols = tables.pair[moves.I, moves.J]
    goal = None if goal is None else _ranks(tables, goal)[0]
    seen = np.zeros(len(tables.perms), dtype=bool)
    M = moves.swaps.shape[1]
    block = max(1, _BLOCK_CELLS // max(M, 1))
    cols = None if moves.steps is None else pair_cols[moves.swaps]  # the block body reads

    def body(ranks):  # a block's legal children, and their cells if read
        codes = tables.code.take(ranks, axis=0).take(pair_cols, axis=1)
        legal = _legal(P.take(codes), moves)
        kids = tables.child.take(ranks, axis=0).take(cols[0], axis=1)[legal]
        row = move = None
        if witness or len(cols) > 1:
            row, move = _cells(legal)
        for col in cols[1:]:
            kids = tables.child[kids, col[move]]
        return kids.astype(np.intp), row, move  # an intp index scatters faster

    def levels():
        seen[0] = True
        frontier, parent, via = np.zeros(1, dtype=np.intp), None, None
        yield frontier, parent, via, goal is not None and seen[goal]
        # built here at every n: on a 2-vCPU VM at n = 7 it adds 30-45 us to a 13-34-state
        # search; 7-vertex feasibility items ran 3-8% faster than with it built at 40 states
        table = None if moves.steps is not None else _child_table(tables, P, pair_cols)
        while True:
            if not witness:  # mark every child seen: the new marks are the level
                before = seen.copy()
                if table is not None:  # one gather of the whole level
                    seen[table.take(frontier, axis=1)] = True
                else:
                    for lo in range(0, frontier.size, block):
                        seen[body(frontier[lo: lo + block])[0]] = True
                frontier = np.greater(seen, before, out=before).nonzero()[0]
            else:  # a table level is one gather, the block body takes it by blocks
                level = []
                step = frontier.size if table is not None else block
                for lo in range(0, frontier.size, step):
                    ranks = frontier[lo: lo + step]
                    if table is not None:  # every (row, move) cell, in that order
                        kids = table.take(ranks, axis=1).ravel(order="F")
                    else:
                        kids, row, move = body(ranks)
                    cell = np.flatnonzero(~seen.take(kids))
                    # each new rank's first cell; int16 ranks sort by radix
                    order = np.argsort(kids[cell].astype(np.int16), kind="stable")
                    cell = np.sort(cell[order[_run_starts(kids[cell[order]])]])
                    kids = kids[cell]
                    seen[kids] = True
                    # this level's way of reading children: both keep the same cells
                    row, move = (np.divmod(cell, M) if table is not None
                                 else (row[cell], move[cell]))
                    level.append((kids, row + lo, move))
                frontier, parent, via = map(np.concatenate, zip(*level))
            yield frontier, parent, via, goal is not None and seen[goal]

    return (levels(), functools.partial(_ranks, tables), lambda ranks: seen[ranks],
            lambda: tables.perms[seen])


def _keys(rows):
    """Sortable keys of uint8 rows of pebble indexes: int64 with 4 bits per
    position up to _INT64_MAX_N columns, n-byte strings beyond."""
    n = rows.shape[1]
    if n <= _INT64_MAX_N:
        return rows.astype(np.int64) @ (1 << _shifts(n))
    return np.ascontiguousarray(rows).view(np.dtype((np.void, n))).ravel()


def _rows(keys, n):
    """The rows of pebble indexes that ``_keys`` packed: a shift and a mask
    per digit of int64 keys, a view of byte keys."""
    if keys.dtype.kind == "V":
        return keys.view(np.uint8).reshape(-1, n)
    return (keys[:, None] >> _shifts(n) & 15).astype(np.uint8)


def _steps(moves, n):
    """The int64 key step of each swap of ``_children``, raveled over (pair
    column, pebble pair code): a swap at pair column (a, b) on code
    d_a * n + d_b adds (d_b - d_a) * (weight[a] - weight[b]).  None past
    _INT64_MAX_N, where keys are bytes."""
    if n > _INT64_MAX_N:
        return None
    weight = 1 << _shifts(n)
    code = np.arange(n * n)
    return ((code % n - code // n) * (weight[moves.I] - weight[moves.J])[:, None]).ravel()


def _move_bits(n, M):
    """The low bits of an int64 key that carry a move index below M, or
    None where they do not fit: 4n key bits and these pass 63, or the
    keys of n positions are bytes."""
    bits = max(M - 1, 0).bit_length()
    return bits if n <= _INT64_MAX_N and 4 * n + bits <= 63 else None


def _children(keys, rows, moves, P, steps, back):
    """The legal (row, move) cells of a block of states and their
    children's keys, in cell order, from one gather of the block's pebble
    pair codes, one per (row, pair column).  The codes of the board edges
    give legality, and the cells of ``back``, flat row * M + move indexes,
    are skipped.  An int64 child key is its parent's plus one ``_steps``
    entry per swap of its move, read at the swap's pair column and code.
    A byte key's child row is a copy of its parent's with the move's swaps
    made.  Returns (keys, row, move)."""
    n = rows.shape[1]
    pairs = rows.astype(np.intp) if n > 16 else rows  # uint8 codes would wrap
    codes = pairs[:, moves.I] * n + pairs[:, moves.J]
    # the block's own (row, move) mask; flip masks come back transposed,
    # and the flat nonzero below would copy them row-major anyway
    legal = np.ascontiguousarray(_legal(P.take(codes), moves))
    legal.ravel()[back] = False
    row, move = _cells(legal)
    if keys.dtype.kind == "V":
        kids = rows.take(row, axis=0)
        flat = kids.ravel()
        at = np.arange(0, flat.size, n)  # each child's first byte
        for swap in moves.swaps:
            col = swap.take(move)
            i, j = at + moves.I.take(col), at + moves.J.take(col)
            flat[i], flat[j] = flat[j], flat[i]
        return _keys(kids), row, move
    kids = keys.take(row)
    for swap in moves.swaps:
        col = swap.take(move)
        code = codes.take(row * codes.shape[1] + col)
        col *= n * n  # in place: one cell-length array fewer at the peak
        col += code
        kids += steps.take(col)
    return kids, row, move


def _absent(keys, near):
    """Mask of the keys found in none of the sorted arrays ``near``."""
    keep = np.ones(keys.size, dtype=bool)
    for level in filter(len, near):
        pos = np.minimum(level.searchsorted(keys), level.size - 1)
        keep &= level[pos] != keys
    return keep


def _packed_levels(n, P, moves, goal, witness, probes):
    """The engine over packed keys, for n > _RANKED_MAX_N.

    Each block of a frontier goes through ``_children``: one gather of
    pebble pair codes, legality from the edge codes, and child keys for the
    legal (row, move) cells only.  A move undoes itself, and it is legal at
    its child exactly when it is legal at its parent (the pebble matrix is
    symmetric), so the moves that lead a state of level L + 1 back to level
    L are exactly the moves of the level-L cells that found it.  Each new
    state records those back moves, as flat row * M + move cells of its
    level grouped by ascending row, and its expansion skips them: no child
    then lies on level L - 1, and no search reads an older level.  A pebble
    swap is a transposition, which flips the sign of the configuration, so
    every child of a pebble-swap level lies on the next.  A flip reverses a
    k-vertex path, k // 2 swaps, which keep the sign when k // 2 is even,
    so a flip search drops the children found among level L's sorted keys.
    The moves ride through the level's one sort: in the low bits of int64
    child keys where ``_move_bits`` fits them, by a stable argsort of the
    keys otherwise.  Without a witness, each frontier is its level's sorted
    keys.  With one, children are taken in (frontier row, move) order, each
    new key keeps its first discovery with its parent's row in the frontier
    and its move index, and the frontier stays in discovery order.

    An open search keeps every level's sorted keys, for its visited rows.
    A probe search, given the rows of ``probes``, keeps only the probes
    that each level holds: it holds the frontier with its back cells and
    the level being found, the window its own dedup reads, and answers
    only for its probes.
    """
    steps = _steps(moves, n)
    M = moves.swaps.shape[1]
    bits = None if witness else _move_bits(n, M)
    goal = None if goal is None else _keys(goal)
    probes = None if probes is None else np.sort(_keys(probes))
    kept = []  # sorted keys: each level's, or of a probe search each level's probes
    block = max(1, _BLOCK_CELLS // max(M, 1))

    def levels():
        frontier = level = _keys(np.arange(n, dtype=np.uint8)[None])  # level: sorted
        back = np.zeros(0, dtype=np.int64)  # the frontier's back cells, by row
        parent = made = None  # of a witness: each new key's row in the frontier, its move
        while True:
            if probes is None:
                kept.append(level)
            elif probes.size and level.size:
                on = level.take(level.searchsorted(probes), mode="clip") == probes
                kept.append(probes[on])
            yield frontier, parent, made, goal is not None and not _absent(goal, [level])[0]
            parts = []
            for lo in range(0, frontier.size, block):
                keys = frontier[lo: lo + block]
                a, b = back.searchsorted([lo * M, (lo + block) * M])
                kids, row, move = _children(keys, _rows(keys, n), moves, P, steps,
                                            back[a:b] - lo * M)
                if moves.steps is not None:  # a flip that keeps the sign keeps the level
                    new = _absent(kids, [level])
                    kids, row, move = kids[new], row[new], move[new]
                if bits is not None:  # the move rides in the key's low bits through the sort
                    kids <<= bits
                    kids |= move
                    parts.append(kids)
                else:  # only a witness reads the rows
                    parts.append((kids, move, row + lo) if witness else (kids, move))
            # one sort of the level's cells by child key; a key new to several
            # cells is kept once, and each of its cells' moves leads back
            if bits is None:
                kids, move, *row = map(np.concatenate, zip(*parts))
                order = np.argsort(kids, kind="stable")
                keys, via = kids[order], move[order]
            else:
                keys = np.concatenate(parts) if len(parts) > 1 else parts[0]
                keys.sort()
                via = keys & ((1 << bits) - 1)
                keys >>= bits
            first = _run_starts(keys)
            level = keys[first]
            back = first.cumsum()  # each cell's row in the sorted level, plus 1
            back -= 1
            if witness:  # discovery order: each key at its first (row, move) cell
                firsts = order[first]
                at = np.argsort(firsts)
                cell = firsts[at]
                frontier, parent, made = kids[cell], row[0][cell], move[cell]
                row_of = np.empty_like(at)
                row_of[at] = np.arange(at.size)
                back = np.sort(row_of[back] * M + via)
            else:
                frontier = level
                back *= M
                back += via

    return (levels(), _keys, lambda keys: ~_absent(keys, kept),
            lambda: _rows(np.concatenate(kept), n))


def _engine(n):
    """The engine of n-vertex puzzles: given (n, P, moves, goal row, witness,
    probe rows) it returns its levels, each yielded as (frontier, parent
    row, move, goal found), the start first; ``ids``, the ranks or keys of
    rows; ``has``, its visited record's answer for ids; and ``rows``, an
    open search's visited rows."""
    return _ranked_levels if n <= _RANKED_MAX_N else _packed_levels


def _check_board(puz):
    if puz.n > _MAX_N:
        raise ValueError(f"a search takes boards of at most {_MAX_N} vertices, "
                         f"this one has {puz.n}")


class _Search(NamedTuple):
    """What one search visited.  An open search builds its visited set with
    ``states``, and a witness search also gives ``moves_to``; a probe search
    keeps no such record and answers with ``hits`` alone."""

    count: int  # configurations visited
    states: Callable[[], frozenset] | None  # the visited configurations
    moves_to: Callable | None  # of a witness search: config -> its paths, or None
    hits: list | None  # of a probe search: the probes it visited, in order


def _search(puz, start, cap, target=None, witness=False, paths=None, probes=None):
    """Breadth-first search from ``start`` (None: the identity) in which
    each board path of ``paths`` is a move: it is legal when every pebble
    pair along it is adjacent in the pebble graph, and it reverses the
    pebbles on it.  No paths means the board edges, in ``edges()`` order:
    pebble swaps.  Each pebble is numbered by its position in ``start``.

    The engine of ``_engine`` expands each level and keeps the visited
    record; this one loop ends after the level on which ``target`` first
    appears, at n! configurations, or when no level is left.  The cap is
    checked after every level, the start being the first: more than
    ``cap`` configurations visited raises CapExceededError.  Only with
    ``witness`` are parents kept; then ``moves_to(config)`` gives the
    paths that first reached config, or None.

    ``probes`` names the only configurations the caller asks about.  A
    search given them keeps no level that its dedup does not read, and
    returns the probes it visited as ``hits``, with no ``states`` or
    ``moves_to``.  Without probes every level is kept.  A board of more
    than _MAX_N vertices raises ValueError before anything is packed.
    """
    _check_board(puz)
    n, board, at = puz.n, puz.board, puz.board.positions()
    edges = np.fromiter(map(at.__getitem__, itertools.chain.from_iterable(board.edges())),
                        dtype=np.intp, count=2 * board.m)  # each edge's two positions
    moves = _moves(edges, None if paths is None else
                   [list(map(at.__getitem__, p)) for p in paths])
    start = check_configuration(puz, identity_configuration(puz) if start is None else start)
    index = dict(zip(start, range(n)))  # a pebble's index: its position in the start

    def pack(configs):  # uint8 rows of pebble indexes, one per configuration
        return np.fromiter(itertools.chain.from_iterable(
            map(index.__getitem__, check_configuration(puz, c)) for c in configs),
            dtype=np.uint8, count=n * len(configs)).reshape(-1, n)

    goal = None if target is None else pack([target])
    probes = None if probes is None else list(probes)
    probe_rows = (None if probes is None else pack(probes) if probes
                  else np.zeros((0, n), dtype=np.uint8))
    levels, ids, has, rows = _engine(n)(n, _pebble_matrix(puz.pebbles, index), moves,
                                        goal, witness, probe_rows)
    count, total, visits = 0, math.factorial(n), []
    for frontier, parent, move, found in levels:
        count += frontier.size
        if witness:
            visits.append((frontier, parent, move))
        _check_cap(count, cap)
        if not frontier.size or count == total or found:
            break
    if probes is not None:
        hits = has(ids(probe_rows)) if probes else ()
        return _Search(count, None, None, [c for c, hit in zip(probes, hits) if hit])

    def states():
        labels = np.array(start, dtype=np.int64)
        return frozenset(map(tuple, labels[rows()].tolist()))

    def moves_to(config):
        key = ids(pack([config]))[0]
        depth = next((d for d, (level, _, _) in enumerate(visits) if key in level), None)
        if depth is None:
            return None
        names = puz.board.edges() if paths is None else paths
        out, i = [], np.flatnonzero(visits[depth][0] == key)[0]
        for _, parent, move in visits[depth:0:-1]:
            out.append(names[move[i]])
            i = parent[i]
        return out[::-1]

    return _Search(count, states, moves_to if witness else None, None)


def reachable_set(puz, start=None, cap=DEFAULT_CAP):
    """All configurations reachable from ``start`` (default: identity)."""
    return _search(puz, start, cap).states()


def reachable_count(puz, start=None, cap=DEFAULT_CAP):
    """Size of the reachable set, without materializing configurations."""
    return _search(puz, start, cap, probes=()).count


def equivalent(puz, f1, f2, cap=DEFAULT_CAP):
    """Can some legal move sequence turn f1 into f2?"""
    f1 = check_configuration(puz, f1)
    f2 = check_configuration(puz, f2)
    if f1 == f2:
        return True
    return bool(_search(puz, f1, cap, target=f2, probes=[f2]).hits)


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


def bfs_witness(puz, start, target, cap=DEFAULT_CAP):
    """A shortest move list turning start into target, or None.

    Intended for small instances where an explicit move sequence is wanted
    rather than a yes/no answer.  The list is replayed from start, and one
    that does not end at target raises PuzzleError.
    """
    moves = _search(puz, start, cap, target, witness=True).moves_to(target)
    if moves is not None and replay(puz, start, moves) != check_configuration(puz, target):
        raise PuzzleError(f"witness moves from {start} do not reach {target}")
    return moves


# ---------------------------------------------------------------------------
# the exchange group

def pebble_exchange_group(g, cap=DEFAULT_CAP):
    """Automorphisms of g reachable from the identity in the self-puzzle.

    Returns a GroupSummary.  One BFS over the identity's component, told
    the automorphisms as its probes, answers with those it reached; no set
    is built.
    """
    return exchange_group_counts(g, cap=cap)[0]


def exchange_group_counts(g, cap=DEFAULT_CAP):
    """The exchange group with the counts it is derived from.

    Returns (GroupSummary, number of automorphisms of g, number of
    configurations reachable from the identity in the self-puzzle), from
    one automorphism search and one BFS.
    """
    auts = automorphisms(g)
    search = _search(puz_on(g), None, cap, probes=auts)
    return GroupSummary.from_elements(search.hits), len(auts), search.count


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
    peb = set(_search(puz_on(g), None, cap, probes=auts).hits)
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
    t_moves holds one pair per distinct pebble pair.
    """
    cfg = list(check_configuration(puz, start))
    index = puz.board.positions()
    t_moves, pairs = [], {}
    for mv in moves:
        _move_in_place(puz, cfg, mv)
        x1, x2 = mv
        pair = (cfg[index[x2]], cfg[index[x1]])  # the pebbles moved
        t_moves.append(pairs.setdefault(pair, pair))
    t_puz = transpose_instance(puz)
    t_start = transpose_configuration(puz, start)
    t_end = replay(t_puz, t_start, t_moves)
    if t_end != transpose_configuration(puz, cfg):
        raise PuzzleError("transposed replay does not invert the original")
    return t_start, t_moves
