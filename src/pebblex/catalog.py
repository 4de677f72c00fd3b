"""Exhaustive and randomized graph catalogs for verification sweeps.

Connected graphs are generated by vertex augmentation: every connected
graph on n vertices arises from some connected graph on n-1 vertices by
re-attaching a non-cut vertex, so extending each (n-1)-vertex
representative by a new vertex joined to every nonempty neighbor subset
reaches every isomorphism class.  Isomorph rejection relabels each
candidate so that degrees never increase and keys it by the maximal
packed adjacency bitstring over the relabelings that keep each degree
class in place: a product of small factorials rather than n!, as in
the first refinement step of practical canonical labellers (McKay &
Piperno, Practical graph isomorphism, II, 2014).  Candidates sharing a
degree sequence gather through one (relabeling, slot) index table,
built per call and dropped with it; the cold 7-vertex sweep (7,056
candidates, 853 classes) takes a fraction of a second.  Keys are
int64, so `canonical_key` accepts at most 11 vertices and at most
8! = 40,320 class-preserving relabelings; their integer values are not
stable across versions.

Trees get the cheaper classic treatment (grow by one leaf, dedupe by
rooted canonical encodings from the centers), and the girth-constrained
family only ever attaches a new vertex to pairwise-far neighbor sets,
which preserves girth >= 5 by construction.

Each family is built once per process and memoized in memory by
(family, n); a repeat call returns the same tuple of immutable graphs.
``use_cache=False`` builds the whole chain afresh without reading or
filling the memo.  Nothing is written to disk.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from .graphs import Graph, distances_from, is_connected, relabel_dense

MAX_CONNECTED_N = 7
MAX_TREE_N = 9
MAX_GIRTH5_N = 8

# canonical_key packs C(n, 2) slots plus one sentinel bit into an int64
_MAX_KEY_N = 11
_MAX_RELABELINGS = math.factorial(8)
# elements per gather chunk (as int64, 8 MB)
_GATHER_BUDGET = 1 << 20


def _class_gather(runs, slot, iu, ju):
    """(relabelings, m) table: row k, column s holds the slot that the k-th
    relabeling keeping each run of equal degrees in place pulls slot s's
    adjacency bit from."""
    perms = np.zeros((1, 0), dtype=np.intp)
    start = 0
    for size in runs:
        block = np.array(list(itertools.permutations(range(start, start + size))))
        perms = np.hstack(
            [np.repeat(perms, len(block), axis=0), np.tile(block, (len(perms), 1))]
        )
        start += size
    return slot[perms[:, iu], perms[:, ju]]


def _canonical_keys(edge_sets, n):
    """int64 key per edge list on vertices 1..n, equal iff isomorphic: the
    max packed adjacency bitstring over the relabelings that list vertices
    by non-increasing degree.  Graphs sharing a degree sequence gather
    through one table, built for this call only."""
    count = len(edge_sets)
    ends = np.array([e for edges in edge_sets for e in edges], dtype=np.intp)
    ends = ends.reshape(-1, 2) - 1
    owner = np.repeat(np.arange(count), [len(edges) for edges in edge_sets])
    adj = np.zeros((count, n, n), dtype=np.uint8)
    adj[owner, ends[:, 0], ends[:, 1]] = adj[owner, ends[:, 1], ends[:, 0]] = 1
    deg = adj.sum(axis=2)
    order = np.argsort(-deg, axis=1, kind="stable")
    iu, ju = np.triu_indices(n, 1)
    slot = np.zeros((n, n), dtype=np.int32)
    slot[iu, ju] = slot[ju, iu] = np.arange(len(iu))
    rows = np.arange(count)[:, None, None]
    bits = adj[rows, order[:, :, None], order[:, None, :]][:, iu, ju]
    seqs, group = np.unique(
        np.take_along_axis(deg, order, axis=1), axis=0, return_inverse=True
    )
    group = group.ravel()
    members = np.split(
        np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1]
    )
    weights = np.int64(1) << np.arange(len(iu) - 1, -1, -1, dtype=np.int64)
    keys = np.empty(count, dtype=np.int64)
    tables = {}
    for seq, idx in zip(seqs.tolist(), members):
        runs = tuple(len(list(run)) for _, run in itertools.groupby(seq))
        if math.prod(map(math.factorial, runs)) > _MAX_RELABELINGS:
            raise ValueError(
                f"degree classes {runs} allow more than {_MAX_RELABELINGS} relabelings"
            )
        if runs not in tables:
            tables[runs] = _class_gather(runs, slot, iu, ju)
        table = tables[runs]
        step = max(1, _GATHER_BUDGET // max(1, table.size))
        for i in range(0, len(idx), step):
            chunk = idx[i : i + step]
            permuted = bits[chunk][:, table].astype(np.int64)
            keys[chunk] = (permuted @ weights).max(axis=1)
    return keys


def canonical_key(g):
    """Isomorphism-invariant integer key: equal keys iff isomorphic.

    The key is the largest packed adjacency bitstring over the relabelings
    that list vertices by non-increasing degree, with one sentinel bit
    above it so that graphs of different orders never share a key.  The
    integer values are not stable across versions, so do not store them.
    Raises ValueError, before any table is built, for graphs on more than
    11 vertices (the key would overflow an int64) and for graphs whose
    degree classes allow more than 8! = 40,320 relabelings: regular
    graphs on 8 vertices such as the 8-cycle pass, those on 9 do not.
    """
    n = g.n
    if n > _MAX_KEY_N:
        raise ValueError(f"canonical_key covers at most {_MAX_KEY_N} vertices, got {n}")
    key = int(_canonical_keys([tuple(relabel_dense(g).edges())], n)[0])
    return key | (1 << n * (n - 1) // 2)


_memo = {}


def _memoized(build):
    """Serve ``build(n)`` from the process-wide memo keyed by (family, n).
    ``use_cache=False`` rebuilds the whole chain, neither reading nor
    filling the memo."""

    @functools.wraps(build)
    def family(n, use_cache=True):
        if not use_cache:
            return build(n, use_cache=False)
        key = (build.__name__, n)
        hit = _memo.get(key)
        if hit is None:
            hit = _memo.setdefault(key, build(n))
        return hit

    return family


def _dedupe(candidates, n):
    """candidates: list of edge tuples; keeps first representative per class."""
    keys = _canonical_keys(candidates, n)
    seen = set()
    reps = []
    for key, edges in zip(keys.tolist(), candidates):
        if key not in seen:
            seen.add(key)
            reps.append(Graph(range(1, n + 1), edges))
    return tuple(reps)


@_memoized
def connected_graphs(n, use_cache=True):
    """All connected graphs on n vertices, one per isomorphism class."""
    if not 1 <= n <= MAX_CONNECTED_N:
        raise ValueError(f"connected catalog covers 1..{MAX_CONNECTED_N}, got {n}")
    if n == 1:
        return (Graph([1]),)
    parents = connected_graphs(n - 1, use_cache=use_cache)
    candidates = []
    for g in parents:
        base = tuple(g.edges())
        for mask in range(1, 1 << (n - 1)):
            extra = tuple((v, n) for v in range(1, n) if mask >> (v - 1) & 1)
            candidates.append(base + extra)
    return _dedupe(candidates, n)


def _ahu_key(g):
    # strip leaves round by round to find the 1 or 2 center vertices
    degree = {v: g.degree(v) for v in g.vertices}
    alive = set(g.vertices)
    layer = [v for v in alive if degree[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in g.adj[v]:
                if w in alive:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt

    def encode(v, parent):
        return tuple(sorted(encode(w, v) for w in g.adj[v] if w != parent))

    return min(encode(c, None) for c in alive)


@_memoized
def trees(n, use_cache=True):
    """All trees on n vertices, one per isomorphism class."""
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"tree catalog covers 1..{MAX_TREE_N}, got {n}")
    if n == 1:
        return (Graph([1]),)
    seen = set()
    reps = []
    for g in trees(n - 1, use_cache=use_cache):
        base = tuple(g.edges())
        for v in g.vertices:
            t = Graph(range(1, n + 1), base + ((v, n),))
            key = _ahu_key(t)
            if key not in seen:
                seen.add(key)
                reps.append(t)
    return tuple(reps)


@_memoized
def girth5_graphs(n, use_cache=True):
    """Connected graphs on n vertices whose every cycle has length >= 5.

    Acyclic graphs count (their girth is infinite).  Grown by attaching
    the new vertex only to sets of pairwise-distance->=3 vertices, which
    is exactly the condition for creating no short cycle.
    """
    if not 1 <= n <= MAX_GIRTH5_N:
        raise ValueError(f"girth-5 catalog covers 1..{MAX_GIRTH5_N}, got {n}")
    if n == 1:
        return (Graph([1]),)
    candidates = []
    for g in girth5_graphs(n - 1, use_cache=use_cache):
        base = tuple(g.edges())
        dist = {v: distances_from(g, v) for v in g.vertices}
        for mask in range(1, 1 << (n - 1)):
            nbrs = [v for v in range(1, n) if mask >> (v - 1) & 1]
            if all(
                dist[a][b] >= 3 for a, b in itertools.combinations(nbrs, 2)
            ):
                candidates.append(base + tuple((v, n) for v in nbrs))
    return _dedupe(candidates, n)


def random_connected_graphs(count, seed, sizes=(5, 6, 7, 8)):
    """Deterministic sample of random connected graphs, cycling through
    the requested sizes with edge probability drawn from [0.3, 0.7]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = sizes[len(out) % len(sizes)]
        p = rng.uniform(0.3, 0.7)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < p
        ]
        g = Graph(range(1, n + 1), edges)
        if is_connected(g):
            out.append(g)
    return out
