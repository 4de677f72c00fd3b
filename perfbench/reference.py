"""Checks and expected values that do not come from the package under test.

Everything here uses the standard library only: graphs are dicts of
neighbour sets on vertices 1..n, permutations and configurations are
tuples.  The constants were written down from theory (catalog sizes,
the reversal-length recurrence) or computed once with the brute-force
oracle in ``scripts/oracle_values.py``; ``perfbench/make_reference.py``
recomputes them and ``perfbench/tests`` cross-checks the quick ones.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque

# connected graphs and trees on n vertices, up to isomorphism (OEIS A001349,
# A000055), indexed by n
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}


def reversal_length(n):
    """L(1)=0, L(2)=1, L(n)=2L(n-1)+L(n-2)+1: moves in the squared-path
    reversal certificate."""
    a, b = 0, 1
    if n == 1:
        return 0
    for _ in range(n - 2):
        a, b = b, 2 * b + a + 1
    return b


# sum of automorphism-group orders over every tree on n vertices, and over
# every connected graph on n vertices (brute force over all n! relabelings)
TREE_AUT_TOTALS = {1: 1, 2: 2, 3: 2, 4: 8, 5: 28, 6: 140, 7: 787, 8: 5387}
CONNECTED_AUT_TOTALS = {1: 1, 2: 2, 3: 8, 4: 46, 5: 242, 6: 1650}

# applicable (board, closed form, parameter) instances over every connected
# board on 2..6 vertices, under the scope rules of applicable_forms()
FIXED_FEASIBILITY_ITEMS = 1085

# automorphism-group orders of builtin descriptors
AUT_ORDERS = {
    "p4": 2, "c5": 10, "star3": 6, "q3": 48, "theta122": 4, "k4": 24,
    "k7": 5040, "k8": 40320, "p7^2": 2, "grid2x3": 4, "c8": 16, "q4": 384,
    "star5": 120, "p2": 2, "q2": 8, "c7": 14, "p6^2": 2,
}

# self-puzzle of a builtin descriptor: (pebble exchange group order,
# configurations reachable from the identity)
PEB = {
    "p2": (2, 2), "q2": (4, 12), "q3": (8, 744), "c5": (1, 11),
    "c7": (1, 29), "p6^2": (2, 720), "p7^2": (2, 5040),
}

# configurations of Puz(board, pebbles) reachable from the identity
REACHABLE = {
    ("c6", "star5"): 30, ("k4", "star3"): 24, ("grid2x3", "star5"): 360,
    ("theta122", "star6"): 840, ("p5^2", "star4"): 120, ("q3", "star7"): 20160,
    ("k5", "star4"): 120, ("p6^2", "star5"): 720, ("p4", "star3"): 4,
    ("star3", "star3"): 4, ("p5", "k5"): 120, ("star4", "k5"): 120,
    ("p6", "k6"): 720, ("c5", "k5"): 120, ("k5", "K2_3"): 120,
    ("c5", "K2_3"): 60, ("p5^2", "K2_3"): 120, ("grid2x3", "K3_3"): 360,
    ("k6", "K3_3"): 720, ("k6", "K2_2_2"): 720, ("p6^2", "K2_2_2"): 720,
    ("c6", "K2_2_2"): 360, ("grid2x3", "K2_2_2"): 720, ("p5^2", "p5^2"): 120,
    ("c5", "c5"): 11, ("q3", "q3"): 744, ("grid2x3", "c6"): 11,
    ("p6^2", "c6"): 80, ("theta122", "p7"): 13, ("p9^2", "p9^2"): 245690,
}

# flip-reachable permutations of every connected board up to 6 vertices,
# keyed by canonical_text()
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "flip_reachable_sizes.json")) as _fh:
    FLIP_REACHABLE_SIZES = json.load(_fh)


# ---------------------------------------------------------------------------
# graphs

def adjacency(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_list(adj):
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def path(n):
    return adjacency(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return adjacency(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star(leaves):
    return adjacency(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def complete(n):
    return adjacency(n, itertools.combinations(range(1, n + 1), 2))


def hypercube(d):
    n = 1 << d
    return adjacency(n, [
        (a + 1, b + 1) for a in range(n) for b in range(a + 1, n)
        if bin(a ^ b).count("1") == 1
    ])


def grid(a, b):
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j + 1
            if j + 1 < b:
                edges.append((v, v + 1))
            if i + 1 < a:
                edges.append((v, v + b))
    return adjacency(a * b, edges)


def theta122():
    return adjacency(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                         (1, 7), (4, 7)])


def square(adj):
    out = {v: set(ns) for v, ns in adj.items()}
    for v in adj:
        for u in adj[v]:
            out[v] |= adj[u] - {v}
    return out


def multipartite(parts):
    """Complete multipartite graph with consecutive label blocks per part."""
    blocks, start = [], 1
    for p in parts:
        blocks.append(range(start, start + p))
        start += p
    return adjacency(start - 1, [
        (u, v) for a, b in itertools.combinations(blocks, 2) for u in a for v in b
    ])


def connected(adj, removed=None):
    verts = [v for v in adj if v != removed]
    if not verts:
        return True
    seen = {verts[0]}
    todo = [verts[0]]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w != removed and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(verts)


def is_cycle(adj):
    return len(adj) >= 3 and connected(adj) and all(len(ns) == 2 for ns in adj.values())


def is_2connected(adj):
    return len(adj) >= 3 and connected(adj) and all(
        connected(adj, removed=v) for v in adj
    )


def is_automorphism(adj, perm):
    return sorted(perm) == list(range(1, len(adj) + 1)) and all(
        perm[v - 1] in adj[perm[u - 1]] for u, v in edge_list(adj)
    )


def automorphisms(adj):
    """Every automorphism by brute force over all n! relabelings."""
    n = len(adj)
    return [p for p in itertools.permutations(range(1, n + 1))
            if is_automorphism(adj, p)]


def canonical_form(adj):
    """Lexicographically smallest sorted edge list over all relabelings."""
    n = len(adj)
    es = edge_list(adj)
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        key = tuple(sorted(
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
            for u, v in es
        ))
        if best is None or key < best:
            best = key
    return best


def canonical_text(adj):
    return f"{len(adj)}:" + ",".join(f"{u}-{v}" for u, v in canonical_form(adj))


# ---------------------------------------------------------------------------
# closed-form scope (which instances a predicate must call applicable)

def partitions_min2(n):
    """Non-decreasing partitions of n into >= 3 parts, each >= 2."""
    out = []

    def rec(rest, smallest, acc):
        if rest == 0:
            if len(acc) >= 3:
                out.append(tuple(acc))
            return
        for p in range(smallest, rest + 1):
            if rest - p == 0 or rest - p >= p:
                rec(rest - p, p, acc + [p])

    rec(n, 2, [])
    return out


def applicable_forms(adj):
    """(family, parameter) pairs whose closed form covers this connected
    board: one free pebble on 2-connected boards with >= 4 vertices; k free
    pebbles (2 <= k <= n) on non-cycles; two-sided pebbles K_{k,n-k}
    (2 <= k <= n/2) and multipartite pebbles on every connected board."""
    n = len(adj)
    out = []
    if n >= 4 and is_2connected(adj):
        out.append(("wilson", None))
    if not is_cycle(adj):
        out.extend(("kms", k) for k in range(2, n + 1))
    out.extend(("two-part", k) for k in range(2, n // 2 + 1))
    out.extend(("multipart", p) for p in partitions_min2(n))
    return out


# ---------------------------------------------------------------------------
# puzzles

def reachable_count(board, pebbles, start=None):
    """Plain BFS over configurations; config[i] is the pebble on vertex i+1."""
    n = len(board)
    edges = edge_list(board)
    start = tuple(range(1, n + 1)) if start is None else tuple(start)
    seen = {start}
    todo = deque([start])
    while todo:
        f = todo.popleft()
        for x1, x2 in edges:
            y1, y2 = f[x1 - 1], f[x2 - 1]
            if y2 in pebbles[y1]:
                g = list(f)
                g[x1 - 1], g[x2 - 1] = y2, y1
                g = tuple(g)
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
    return seen


class CheckFailed(Exception):
    """An output of the package disagrees with a reference."""


def replay_moves(board, pebbles, start, moves):
    """Apply single swaps, checking both adjacency rules; returns the end
    configuration or raises CheckFailed."""
    cfg = list(start)
    for x1, x2 in moves:
        if x1 not in board or x2 not in board[x1]:
            raise CheckFailed(f"move ({x1},{x2}): board vertices not adjacent")
        y1, y2 = cfg[x1 - 1], cfg[x2 - 1]
        if y2 not in pebbles[y1]:
            raise CheckFailed(f"move ({x1},{x2}): pebbles {y1},{y2} not adjacent")
        cfg[x1 - 1], cfg[x2 - 1] = y2, y1
    return tuple(cfg)


def replay_flips(adj, flips):
    """Apply path reversals on the self-puzzle of adj from the identity."""
    cfg = list(range(1, len(adj) + 1))
    for fl in flips:
        if len(fl) < 2 or len(set(fl)) != len(fl):
            raise CheckFailed(f"flip {fl} is not a simple path")
        for a, b in zip(fl, fl[1:]):
            if b not in adj[a]:
                raise CheckFailed(f"flip {fl}: board vertices {a},{b} not adjacent")
        pebs = [cfg[v - 1] for v in fl]
        for a, b in zip(pebs, pebs[1:]):
            if b not in adj[a]:
                raise CheckFailed(f"flip {fl}: pebbles {a},{b} not adjacent")
        for v, p in zip(fl, reversed(pebs)):
            cfg[v - 1] = p
    return tuple(cfg)


def parse_certificate_text(text):
    """(header, start, end, moves) from the certificate wire format:
    'board=<d> pebbles=<d>', start line, end line, move count, one
    'x1 x2' pair per line."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) < 4:
        raise CheckFailed("certificate has fewer than four lines")
    start = tuple(int(t) for t in lines[1].split())
    end = tuple(int(t) for t in lines[2].split())
    count = int(lines[3])
    moves = [tuple(int(t) for t in ln.split()) for ln in lines[4:]]
    if count != len(moves) or any(len(m) != 2 for m in moves):
        raise CheckFailed(f"certificate declares {count} moves, has {len(moves)}")
    return lines[0], start, end, moves


def parse_flip_text(text):
    """Flip list from 'count' then one 'L v_0 ... v_L' line per flip."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    count = int(lines[0][0])
    flips = [tuple(int(t) for t in ln[1:]) for ln in lines[1:]]
    if count != len(flips) or any(len(f) != int(ln[0]) + 1
                                  for f, ln in zip(flips, lines[1:])):
        raise CheckFailed("flip file does not match its declared shape")
    return flips
