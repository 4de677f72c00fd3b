"""Simple undirected graphs: representation, constructors, and the structural
predicates (girth, bridges, cut vertices, isthmuses, matchings) that the
feasibility conditions rest on.

Vertices are positive integers.  Everything built by the constructors and by
``parse_graph`` uses the dense label set ``1..n``; induced subgraphs keep the
labels of their parent, which the search engines rely on when they lift move
sequences from a subgraph back to the host graph.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations

from .errors import GraphParseError
from .perms import isomorphisms

INF = math.inf

# largest graph a file header or a builtin descriptor may declare
MAX_VERTICES = 10_000
MAX_EDGES = 200_000


class Graph:
    """Immutable simple undirected graph.

    ``vertices`` is a sorted tuple of positive ints, ``adj`` maps each vertex
    to a frozenset of neighbors.  No loops, no multi-edges.  These fields
    are built on first read and kept for the graph's lifetime:

    - ``_m``: the edge count ``m``;
    - ``_edges``: the sorted edge tuple of ``edges()``;
    - ``_index``: the position dict of ``positions()`` and ``index_of``;
    - ``_connected``: the answer of ``is_connected``;
    - ``_bipartite``: the answer of ``is_bipartite``;
    - ``_cuts``: the cut vertices and bridges of ``_cuts_and_bridges``.

    Most subgraphs the flip realizer makes never read any of them, and a
    pickled, relabeled or induced copy builds its own.
    """

    __slots__ = ("vertices", "adj", "_m", "_index", "_edges", "_connected",
                 "_bipartite", "_cuts")

    def __init__(self, vertices, edges=()):
        vs = tuple(sorted({int(v) for v in vertices}))
        if not vs:
            raise ValueError("a graph needs at least one vertex")
        if vs[0] < 1:
            raise ValueError("vertex labels must be positive")
        adj = {v: set() for v in vs}
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._fill(vs, {v: frozenset(ns) for v, ns in adj.items()})

    def _fill(self, vs, adj):
        """Set every slot from a sorted vertex tuple and a frozenset
        adjacency that are already known to be valid.  The fields built
        on first read start as None."""
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_m", None)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_edges", None)
        object.__setattr__(self, "_connected", None)
        object.__setattr__(self, "_bipartite", None)
        object.__setattr__(self, "_cuts", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not slot by slot
        return (Graph, (self.vertices, self.edges()))

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        if self._m is None:
            object.__setattr__(self, "_m", sum(map(len, self.adj.values())) // 2)
        return self._m

    def edges(self):
        """Sorted tuple of (u, v) pairs with u < v, built on the first call."""
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(
                (u, v) for u in self.vertices for v in sorted(self.adj[u]) if u < v
            ))
        return self._edges

    def has_edge(self, u, v):
        return v in self.adj.get(u, ())

    def has_vertex(self, v):
        return v in self.adj

    def degree(self, v):
        return len(self.adj[v])

    def positions(self):
        """Dict from each vertex to its position in the sorted vertex tuple,
        built on the first call."""
        if self._index is None:
            vs = self.vertices
            object.__setattr__(self, "_index", dict(zip(vs, range(len(vs)))))
        return self._index

    def index_of(self, v):
        """Position of v in the sorted vertex tuple."""
        try:
            return self._index[v]
        except TypeError:  # None until positions() builds the dict
            return self.positions()[v]

    def is_dense_labeled(self):
        return self.vertices == tuple(range(1, self.n + 1))

    def induced(self, keep):
        """Induced subgraph on ``keep``; original labels are preserved.

        Each adjacency is the parent's intersected with ``keep``; a label
        the graph lacks becomes an isolated vertex.
        """
        keep = {int(v) for v in keep}
        vs = tuple(sorted(keep))
        if not vs:
            raise ValueError("a graph needs at least one vertex")
        if vs[0] < 1:
            raise ValueError("vertex labels must be positive")
        empty = frozenset()
        sub = Graph.__new__(Graph)
        sub._fill(vs, {v: self.adj.get(v, empty) & keep for v in vs})
        return sub

    def relabeled(self, mapping):
        """Copy with every vertex v renamed mapping[v] (a bijection)."""
        if len(set(mapping[v] for v in self.vertices)) != self.n:
            raise ValueError("relabeling is not injective")
        return Graph(
            [mapping[v] for v in self.vertices],
            [(mapping[u], mapping[v]) for u, v in self.edges()],
        )

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.vertices, self.edges()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def relabel_dense(g):
    """g itself when labeled 1..n, else a copy relabeled 1..n in vertex
    order."""
    if g.is_dense_labeled():
        return g
    return g.relabeled({v: i + 1 for i, v in enumerate(g.vertices)})


def parse_graph(text):
    """Parse the graph wire format.

    Line 1 is ``n m``; the next m lines are ``u v`` with 1 <= u < v <= n.
    Lines starting with ``#`` and blank lines are ignored.  Errors name the
    offending 1-based line of the original text.  A header declaring more
    than ``MAX_VERTICES`` vertices or ``MAX_EDGES`` edges is refused before
    anything is allocated.
    """
    adj = None  # vertex -> neighbor set from the header on, filled per edge
    found = 0
    n = m = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if adj is None:
            if len(parts) != 2:
                raise GraphParseError("header must be 'n m'", line_no)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError("header must be two integers", line_no)
            if n < 1:
                raise GraphParseError("vertex count must be >= 1", line_no)
            if m < 0:
                raise GraphParseError("edge count must be >= 0", line_no)
            if n > MAX_VERTICES or m > MAX_EDGES:
                raise GraphParseError(
                    f"header declares {n} vertices and {m} edges; graph files "
                    f"are limited to {MAX_VERTICES} vertices and {MAX_EDGES} edges",
                    line_no,
                )
            adj = {v: set() for v in range(1, n + 1)}
            continue
        if found >= m:
            raise GraphParseError(f"more than the declared {m} edges", line_no)
        if len(parts) != 2:
            raise GraphParseError("edge line must be 'u v'", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("edge line must be two integers", line_no)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", line_no)
        if not (1 <= u < v <= n):
            raise GraphParseError(
                f"edge ({u},{v}) out of range, need 1 <= u < v <= {n}", line_no
            )
        if v in adj[u]:
            raise GraphParseError(f"duplicate edge ({u},{v})", line_no)
        adj[u].add(v)
        adj[v].add(u)
        found += 1
    if adj is None:
        raise GraphParseError("empty input, expected 'n m' header", 1)
    if found != m:
        raise GraphParseError(f"declared {m} edges but found {found}", 1)
    g = Graph.__new__(Graph)
    g._fill(tuple(adj), {v: frozenset(ns) for v, ns in adj.items()})
    return g


def format_graph(g):
    """Inverse of parse_graph for densely labeled graphs."""
    if not g.is_dense_labeled():
        raise ValueError("only densely labeled graphs have a file form")
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# distances and girth

def distances_from(g, s, *more):
    """BFS distance dict from s, or from the nearest of s and more (each
    source at distance 0); unreachable vertices are absent."""
    dist = {s: 0}
    q = deque([s])
    for t in more:
        dist[t] = 0
        q.append(t)
    while q:
        v = q.popleft()
        for w in g.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def shortest_path(g, u, v):
    """A deterministic shortest u-v path: walk back from v always through the
    smallest-labeled predecessor.  Returns None when disconnected."""
    if not g.has_vertex(u) or not g.has_vertex(v):
        raise ValueError(f"vertex out of range: ({u},{v})")
    return shortest_path_to_set(g, u, (v,))


def shortest_path_to_set(g, src, targets):
    """Deterministic shortest path from src to the nearest vertex of
    ``targets`` (smallest label among nearest).  Only the last vertex lies in
    the target set.  Returns None when unreachable; a source the graph
    lacks raises ValueError."""
    adj = g.adj
    if src not in adj:
        raise ValueError(f"source vertex {src} is not in the graph")
    targets = set(targets)
    if src in targets:
        return [src]
    # BFS level by level, up to the first level that holds a target: the
    # walk back reads only the distances of nearer vertices, none of which
    # is a target, so it always steps to the smallest-labeled predecessor
    dist = {src: 0}
    level = [src]
    d = 0
    hit = []
    while level and not hit:
        d += 1
        nxt = []
        for v in level:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
                    if w in targets:
                        hit.append(w)
        level = nxt
    if not hit:
        return None
    cur = min(hit)
    rpath = [cur]
    for k in range(d - 1, -1, -1):
        cur = min(w for w in adj[cur] if dist.get(w) == k)
        rpath.append(cur)
    rpath.reverse()
    return rpath


def girth(g):
    """Length of the shortest cycle; math.inf for forests.

    Per-root BFS with cross-edge detection: a non-tree edge (u,w) seen from
    root r witnesses a closed walk of length d(r,u)+d(r,w)+1, which contains
    a cycle no longer than that; scanning every root makes the bound tight.
    """
    best = INF
    for r in g.vertices:
        dist = {r: 0}
        parent = {r: None}
        q = deque([r])
        while q:
            v = q.popleft()
            if dist[v] * 2 >= best:
                continue
            for w in g.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    q.append(w)
                elif parent[v] != w and parent.get(w) != v:
                    cand = dist[v] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def square(g):
    """Same vertices; edge between any two vertices at distance 1 or 2.

    Raises ValueError when the square has more than ``MAX_EDGES`` edges,
    checked while the adjacency is collected and before the graph is
    built: the square of a star on 10,000 vertices would have about 50
    million.
    """
    adj = {}
    ends = 0  # degree sum: at most twice the edges met, twice all at the end
    for v in g.vertices:
        ns = g.adj[v]
        reach = set(ns)
        for u in ns:
            reach |= g.adj[u]
        reach.discard(v)
        adj[v] = frozenset(reach)
        ends += len(reach)
        if ends > 2 * MAX_EDGES:
            raise ValueError(
                f"the square has more than MAX_EDGES = {MAX_EDGES} edges"
            )
    sq = Graph.__new__(Graph)
    sq._fill(g.vertices, adj)
    return sq


# ---------------------------------------------------------------------------
# constructors

def path(n):
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star(leaves):
    """K_{1,leaves}: center is vertex 1."""
    if leaves < 1:
        raise ValueError("star needs >= 1 leaf")
    return Graph(range(1, leaves + 2), [(1, i) for i in range(2, leaves + 2)])


def complete(n):
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(range(1, n + 1), combinations(range(1, n + 1), 2))


def complete_multipartite(*parts):
    """K_{ n_1, ..., n_r } with consecutive label blocks per part."""
    if len(parts) == 1 and not isinstance(parts[0], int):
        parts = tuple(parts[0])
    if not parts or any(p < 1 for p in parts):
        raise ValueError("parts must be positive integers")
    blocks = []
    nxt = 1
    for p in parts:
        blocks.append(tuple(range(nxt, nxt + p)))
        nxt += p
    edges = []
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1 :]:
            edges.extend((u, v) for u in bi for v in bj)
    return Graph(range(1, nxt), edges)


def hypercube(d):
    """Q_d on 2^d vertices; vertex v corresponds to the bit pattern v-1."""
    if d < 1:
        raise ValueError("hypercube needs dimension >= 1")
    n = 1 << d
    edges = [
        (a + 1, b + 1)
        for a in range(n)
        for b in range(a + 1, n)
        if (a ^ b).bit_count() == 1
    ]
    return Graph(range(1, n + 1), edges)


def theta_122():
    """The 7-vertex theta graph: hubs 1 and 4 joined by three internally
    disjoint paths with 1, 2 and 2 interior vertices."""
    return Graph(
        range(1, 8),
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 7), (4, 7)],
    )


def join(g1, g2):
    """Disjoint union plus all cross edges; g2's labels are shifted by n1."""
    if not (g1.is_dense_labeled() and g2.is_dense_labeled()):
        raise ValueError("join needs densely labeled operands")
    n1 = g1.n
    edges = list(g1.edges())
    edges.extend((u + n1, v + n1) for u, v in g2.edges())
    edges.extend((u, v + n1) for u in g1.vertices for v in g2.vertices)
    return Graph(range(1, n1 + g2.n + 1), edges)


def complement(g):
    edges = [
        (u, v)
        for u, v in combinations(g.vertices, 2)
        if not g.has_edge(u, v)
    ]
    return Graph(g.vertices, edges)


# ---------------------------------------------------------------------------
# predicates and structure

def _reach(g, start, seen):
    """Add start to ``seen``, then every vertex reachable from it on paths
    that avoid what seen already held; returns seen."""
    seen.add(start)
    todo = [start]
    adj = g.adj
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def is_connected(g):
    """Whether g is connected, from one reach walk kept on g."""
    if g._connected is None:
        object.__setattr__(g, "_connected", len(_reach(g, g.vertices[0], set())) == g.n)
    return g._connected


def is_connected_without(g, x):
    """Whether g minus vertex x is connected (g must have another vertex);
    the same verdict as is_connected on the induced subgraph, without
    building it."""
    start = g.vertices[1] if g.vertices[0] == x else g.vertices[0]
    return len(_reach(g, start, {x})) == g.n


def components(g):
    """Vertex sets of connected components, each sorted, in sorted order."""
    left = set(g.vertices)
    out = []
    while left:
        comp = _reach(g, min(left), set())
        out.append(tuple(sorted(comp)))
        left -= comp
    return out


def is_bipartite(g):
    """Whether g is bipartite, from one 2-coloring walk kept on g."""
    if g._bipartite is None:
        object.__setattr__(g, "_bipartite", _two_colorable(g))
    return g._bipartite


def _two_colorable(g):
    color = {}
    for s in g.vertices:
        if s in color:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = color[v] ^ 1
                    q.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def is_cycle(g):
    return g.n >= 3 and is_connected(g) and all(g.degree(v) == 2 for v in g.vertices)


def is_tree(g):
    return is_connected(g) and g.m == g.n - 1


def _cuts_and_bridges(g):
    """Cut vertices and bridges from one iterative lowpoint DFS, kept on
    g: a sorted tuple of vertices and a sorted tuple of (u, v) edges with
    u < v."""
    if g._cuts is not None:
        return g._cuts
    disc = {}
    low = {}
    parent = {}
    cuts = set()
    brs = []
    for root in g.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, iter(g.adj[root]))]
        root_children = 0
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in disc:
                    parent[w] = v
                    disc[w] = low[w] = len(disc)
                    stack.append((w, iter(g.adj[w])))
                    break
                if w != parent.get(v):
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        brs.append((min(u, v), max(u, v)))
                    if u == root:
                        root_children += 1
                    elif low[v] >= disc[u]:
                        cuts.add(u)
        if root_children >= 2:
            cuts.add(root)
    object.__setattr__(g, "_cuts", (tuple(sorted(cuts)), tuple(sorted(brs))))
    return g._cuts


def cut_vertices(g):
    """Sorted tuple of articulation vertices."""
    return _cuts_and_bridges(g)[0]


def bridges(g):
    """Sorted tuple of bridge edges (u, v) with u < v."""
    return _cuts_and_bridges(g)[1]


def is_2connected(g):
    return g.n >= 3 and is_connected(g) and not cut_vertices(g)


def has_k_isthmus(g, k):
    """Witness path v_1..v_k, or None.

    The witness is a path in which every edge is a bridge, every vertex is a
    cut vertex, and interior vertices have degree 2.  k = 1 degenerates to
    "g has a cut vertex".  Deterministic: first witness in ascending DFS
    order from ascending start vertices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_connected(g):
        raise ValueError("needs a connected graph")
    cuts, bridge_set = map(set, _cuts_and_bridges(g))
    if k == 1:
        return [min(cuts)] if cuts else None

    def extend(p):
        if len(p) == k:
            return list(p)
        tail = p[-1]
        if len(p) >= 2 and g.degree(tail) != 2:
            return None  # tail would become interior on extension
        for w in sorted(g.adj[tail]):
            if w in p or w not in cuts:
                continue
            e = (min(tail, w), max(tail, w))
            if e not in bridge_set:
                continue
            p.append(w)
            got = extend(p)
            p.pop()
            if got:
                return got
        return None

    for s in g.vertices:
        if s not in cuts:
            continue
        got = extend([s])
        if got:
            return got
    return None


def enumerate_matchings(g):
    """Every matching exactly once (the empty matching first), as frozensets
    of (u, v) edges, by inclusion/exclusion in lexicographic edge order."""
    es = g.edges()

    def rec(i, used, cur):
        if i == len(es):
            yield frozenset(cur)
            return
        yield from rec(i + 1, used, cur)
        u, v = es[i]
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            cur.append((u, v))
            yield from rec(i + 1, used, cur)
            cur.pop()
            used.discard(u)
            used.discard(v)

    yield from rec(0, set(), [])


def is_theta_122(g):
    """Isomorphism test against the fixed 7-vertex theta graph, behind a
    cheap degree-sequence filter."""
    if g.n != 7 or g.m != 8:
        return False
    if sorted(g.degree(v) for v in g.vertices) != [2, 2, 2, 2, 2, 3, 3]:
        return False
    return next(isomorphisms(g, theta_122()), None) is not None


def cartesian_product(g1, g2):
    """Cartesian product plus the coordinate map.

    Vertex (u, v) gets label (u-1)*n2 + v.  Returns (graph, coord) where
    coord[label] = (u, v).
    """
    if not (g1.is_dense_labeled() and g2.is_dense_labeled()):
        raise ValueError("product needs densely labeled operands")
    n2 = g2.n
    coord = {}
    for u in g1.vertices:
        for v in g2.vertices:
            coord[(u - 1) * n2 + v] = (u, v)
    edges = []
    for u in g1.vertices:
        for v1, v2 in g2.edges():
            edges.append(((u - 1) * n2 + v1, (u - 1) * n2 + v2))
    for v in g2.vertices:
        for u1, u2 in g1.edges():
            edges.append(((u1 - 1) * n2 + v, (u2 - 1) * n2 + v))
    return Graph(range(1, g1.n * n2 + 1), edges), coord
