import copy
import math
import pickle
from collections import deque
from itertools import combinations

import pytest

from pebblex.errors import GraphParseError
from pebblex.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    bridges,
    cartesian_product,
    complement,
    complete,
    complete_multipartite,
    components,
    cut_vertices,
    cycle,
    distances_from,
    enumerate_matchings,
    format_graph,
    girth,
    has_k_isthmus,
    hypercube,
    is_2connected,
    is_bipartite,
    is_connected,
    is_connected_without,
    is_cycle,
    is_theta_122,
    is_tree,
    join,
    parse_graph,
    path,
    relabel_dense,
    shortest_path,
    shortest_path_to_set,
    square,
    star,
    theta_122,
)
from pebblex.catalog import connected_graphs, trees
from pebblex.puzzle import Puz
from pebblex.squares import compile_automorphism_to_square_moves


def lucas(n):
    # independent of the library: 1, 3, 4, 7, 11, ...
    a, b = 1, 3
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, a + b
    return b


def test_graph_basics():
    g = Graph([3, 1, 2], [(1, 2), (2, 3)])
    assert g.vertices == (1, 2, 3)
    assert g.n == 3 and g.m == 2
    assert g.adj[2] == frozenset({1, 3})
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert g.degree(2) == 2
    assert g.index_of(3) == 2


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph([])
    with pytest.raises(ValueError):
        Graph([0, 1])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.vertices = (1,)


def test_graphs_pickle_and_copy():
    # pickle and copy rebuild a graph through its constructor, so it stays
    # immutable; a gapped subgraph, a puzzle and a certificate round-trip
    g = cycle(6).induced([1, 2, 3, 5])
    for dup in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert dup == g and dup.vertices == (1, 2, 3, 5) and dup.m == 2
        assert dup.index_of(5) == 3 and dup.edges() == ((1, 2), (2, 3))
        with pytest.raises(AttributeError):
            dup.vertices = (1,)
    puz = Puz(path(4), star(3))
    assert pickle.loads(pickle.dumps(puz)) == puz
    cert = compile_automorphism_to_square_moves(
        cycle(5), (2, 3, 4, 5, 1), board_desc="c5"
    )
    back = pickle.loads(pickle.dumps(cert))
    assert back == cert and back.validate() is back


def test_parse_format_round_trip():
    g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert parse_graph(format_graph(g)).adj == g.adj
    text = "# a comment\n3 2\n1 2\n2 3\n"
    g2 = parse_graph(text)
    assert g2.vertices == (1, 2, 3) and g2.m == 2


def test_parse_graph_inverts_format_graph():
    for g in (g for n in range(1, 7) for g in connected_graphs(n)):
        back = parse_graph(format_graph(g))
        assert back == g and back.edges() == g.edges()
    # the trailing vertices 3..5 have no edge line, yet are vertices
    tail = parse_graph("5 1\n1 2\n")
    assert tail == Graph(range(1, 6), [(1, 2)])
    assert tail.vertices == (1, 2, 3, 4, 5) and tail.adj[5] == frozenset()
    assert format_graph(tail) == "5 1\n1 2\n"


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("x y\n", 1),
        ("2 1\n1 1\n", 2),
        ("2 1\n1 3\n", 2),
        ("3 2\n1 2\n1 2\n", 3),
        ("2 2\n1 2\n", 1),  # promised two edges, gave one: blamed on the header
        ("2 0\n1 2\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert str(exc.value).startswith(f"line {lineno}:")


def test_parse_accepts_the_largest_header():
    assert parse_graph(f"{MAX_VERTICES} 0").n == MAX_VERTICES == 10_000


@pytest.mark.parametrize(
    "text,lineno",
    [(f"{MAX_VERTICES + 1} 0", 1), (f"# comment\n5 {MAX_EDGES + 1}\n", 2)],
)
def test_parse_refuses_oversized_headers(text, lineno):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert str(exc.value).startswith(f"line {lineno}: header declares")
    assert str(exc.value).endswith(
        f"limited to {MAX_VERTICES} vertices and {MAX_EDGES} edges")


def test_constructors():
    assert path(5).m == 4
    assert cycle(5).m == 5
    assert star(4).n == 5 and star(4).degree(1) == 4
    assert complete(5).m == 10
    assert complete_multipartite(2, 2, 2).m == 12
    assert complete_multipartite([1, 1, 3]).m == 7
    q3 = hypercube(3)
    assert q3.n == 8 and q3.m == 12
    t = theta_122()
    assert t.n == 7 and t.m == 8
    assert is_theta_122(t)
    assert not is_theta_122(cycle(7))


def test_join_and_complement():
    # join of two edgeless graphs is complete bipartite
    g = join(Graph([1, 2]), Graph([1, 2, 3]))
    assert g.n == 5 and g.m == 6
    c = complement(path(4))
    assert c.m == 6 - 3
    assert complement(complete(4)).m == 0


def test_square():
    sq = square(path(4))
    assert sorted(sq.edges()) == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    assert square(path(3)).m == 3  # becomes a triangle
    assert square(cycle(5)).m == 10  # becomes K5


def _with_gapped_labels(graphs):
    for g in graphs:
        yield g
        yield g.relabeled({v: 3 * v + 1 for v in g.vertices})


def _square_by_distances(g):
    # the definition: every pair at distance 1 or 2, through Graph.__init__
    return Graph(g.vertices, [
        (u, v) for u in g.vertices
        for v, d in distances_from(g, u).items() if u < v and d <= 2
    ])


def test_square_matches_the_pairs_at_distance_two():
    boards = [g for n in range(1, 8) for g in connected_graphs(n)]
    boards += [t for n in range(1, 10) for t in trees(n)]
    boards.append(Graph([2, 5, 9], [(2, 9)]))  # an isolated vertex
    for g in _with_gapped_labels(boards):
        sq, want = square(g), _square_by_distances(g)
        assert sq.vertices == want.vertices
        assert sq.adj == want.adj
        assert all(type(ns) is frozenset for ns in sq.adj.values())
        assert sq.m == want.m
        assert sq.edges() == want.edges()
        assert [sq.index_of(v) for v in sq.vertices] == list(range(g.n))
        assert sq == want and hash(sq) == hash(want)


def test_distances():
    g = cycle(6)
    d = distances_from(g, 1)
    assert d[4] == 3 and d[2] == 1 and d[1] == 0
    assert distances_from(g, 2)[5] == 3
    assert distances_from(g, 1, 4) == {1: 0, 4: 0, 2: 1, 6: 1, 3: 1, 5: 1}
    assert 2 not in distances_from(Graph([1, 2]), 1)  # unreachable: absent
    p = shortest_path(path(5), 1, 5)
    assert p == [1, 2, 3, 4, 5]
    assert shortest_path(Graph([1, 2]), 1, 2) is None
    assert shortest_path(path(5), 3, 3) == [3]


def _shortest_path_to_set_reference(g, src, targets):
    # BFS over the whole component that never expands a target, then the
    # walk back through smallest-labeled predecessors
    targets = set(targets)
    if src in targets:
        return [src]
    dist = {src: 0}
    q = deque([src])
    while q:
        v = q.popleft()
        for w in g.adj[v]:
            if w in dist:
                continue
            dist[w] = dist[v] + 1
            if w not in targets:
                q.append(w)
    hit = [t for t in targets if t in dist]
    if not hit:
        return None
    d_best = min(dist[t] for t in hit)
    y = min(t for t in hit if dist[t] == d_best)
    rpath = [y]
    cur = y
    while cur != src:
        cur = min(
            w for w in g.adj[cur]
            if dist.get(w, math.inf) == dist[cur] - 1 and w not in targets
        )
        rpath.append(cur)
    rpath.reverse()
    return rpath


def test_shortest_path_to_set_matches_the_whole_component_bfs():
    boards = [g for n in range(1, 7) for g in connected_graphs(n)]
    boards += [Graph(range(1, 6), [(1, 2), (3, 4), (4, 5)]),  # disconnected
               Graph([2, 5, 9], [(2, 9)])]  # gapped, with an isolated vertex
    answers = {"none": 0, "source": 0, "path": 0}
    for g in _with_gapped_labels(boards):
        sets = [ts for k in (1, 2) for ts in combinations(g.vertices, k)]
        for src in g.vertices:
            for ts in sets:
                got = shortest_path_to_set(g, src, ts)
                assert got == _shortest_path_to_set_reference(g, src, ts)
                if got is None:
                    answers["none"] += 1
                elif got == [src]:
                    answers["source"] += 1
                else:
                    assert got[0] == src and got[-1] in ts
                    assert not set(got[:-1]) & set(ts)
                    answers["path"] += 1
    assert all(answers.values())
    assert shortest_path_to_set(cycle(6), 1, (3, 5)) == [1, 2, 3]
    assert shortest_path_to_set(cycle(6), 4, (2, 4)) == [4]
    assert shortest_path_to_set(Graph(range(1, 5), [(1, 2), (3, 4)]), 1, (4,)) is None


def test_shortest_path_to_set_refuses_a_missing_source():
    with pytest.raises(ValueError, match="^source vertex 9 is not in the graph$"):
        shortest_path_to_set(path(4), 9, [1])
    with pytest.raises(ValueError, match="vertex 9"):
        shortest_path_to_set(path(4), 9, [9])
    with pytest.raises(ValueError, match=r"^vertex out of range: \(9,1\)$"):
        shortest_path(path(4), 9, 1)


def _eager_fields(g):
    # m, edges() and the position dict built straight from the adjacency
    edges = tuple(sorted((u, v) for u in g.adj for v in g.adj[u] if u < v))
    return len(edges), edges, {v: i for i, v in enumerate(sorted(g.adj))}


# a fresh graph from each way one is made, nothing read from it yet
LAZY_BUILDS = {
    "init": lambda: Graph([5, 1, 3, 2], [(1, 2), (2, 3), (3, 5)]),
    "induced": lambda: cycle(7).induced([1, 2, 3, 5, 6]),
    "square": lambda: square(path(6)),
    "relabeled": lambda: cycle(5).relabeled({v: 10 * v for v in range(1, 6)}),
    "parse_graph": lambda: parse_graph("6 4\n1 2\n2 3\n1 3\n4 5\n"),
}


@pytest.mark.parametrize("build", LAZY_BUILDS.values(), ids=LAZY_BUILDS)
def test_lazy_graph_fields_match_eagerly_built_values(build):
    m, edges, index = _eager_fields(build())
    eager = Graph(index, edges)
    # each field read first on a graph of its own, then the rest
    for first in ("m", "edges", "index_of", "hash", "eq", "pickle", "copy"):
        g = build()
        if first == "m":
            assert g.m == m
        elif first == "edges":
            assert g.edges() == edges
        elif first == "index_of":
            assert [g.index_of(v) for v in index] == list(index.values())
        elif first == "hash":
            assert hash(g) == hash(eager)
        elif first == "eq":
            assert g == eager and eager == g
        else:
            dups = ([pickle.loads(pickle.dumps(g))] if first == "pickle"
                    else [copy.copy(g), copy.deepcopy(g)])
            for dup in dups:
                assert dup == g and hash(dup) == hash(g)
                assert (dup.m, dup.edges(), dup.positions()) == (m, edges, index)
        assert (g.m, g.edges(), g.positions()) == (m, edges, index)
        assert [g.index_of(v) for v in index] == list(index.values())
        assert g == eager and hash(g) == hash(eager)
        with pytest.raises(KeyError):
            g.index_of(max(index) + 1)
    with pytest.raises(KeyError):
        build().index_of(max(index) + 1)  # before the dict is built, too


def test_relabel_dense():
    g = path(4)
    assert relabel_dense(g) is g
    gapped = Graph([2, 5, 7, 9], [(2, 5), (5, 9), (9, 7)])
    assert relabel_dense(gapped) == Graph(range(1, 5), [(1, 2), (2, 4), (4, 3)])


def test_girth():
    assert girth(cycle(5)) == 5
    assert girth(complete(4)) == 3
    assert girth(path(6)) == math.inf
    assert girth(hypercube(3)) == 4
    # cycles of lengths 5, 5, 6 only
    assert girth(theta_122()) == 5


def test_predicates():
    assert is_connected(path(4))
    assert not is_connected(Graph([1, 2, 3], [(1, 2)]))
    assert is_bipartite(cycle(6)) and not is_bipartite(cycle(5))
    assert is_cycle(cycle(7)) and not is_cycle(path(7))
    assert is_tree(star(5)) and not is_tree(cycle(4))
    assert components(Graph([1, 2, 3, 4], [(1, 3)])) == [(1, 3), (2,), (4,)]


@pytest.mark.parametrize("n", range(2, 8))
def test_connected_without_matches_the_induced_subgraph(n):
    for g in _with_gapped_labels(connected_graphs(n)):
        for x in g.vertices:
            want = is_connected(g.induced(set(g.vertices) - {x}))
            assert is_connected_without(g, x) == want
    # a disconnected graph stays so unless x was all of one side
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3)])
    assert [is_connected_without(g, x) for x in g.vertices] == [
        False, False, False, True]


def test_connectivity_structure():
    assert cut_vertices(path(4)) == (2, 3)
    assert cut_vertices(cycle(5)) == ()
    assert bridges(path(3)) == ((1, 2), (2, 3))
    assert bridges(cycle(4)) == ()
    bowtie = Graph(range(1, 6), [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert cut_vertices(bowtie) == (3,)
    assert bridges(bowtie) == ()
    assert is_2connected(cycle(4)) and not is_2connected(bowtie)
    assert not is_2connected(Graph([1, 2]))


def test_k_isthmus():
    assert has_k_isthmus(path(4), 2) == [2, 3]
    assert has_k_isthmus(path(4), 1) == [2]
    assert has_k_isthmus(path(6), 4) == [2, 3, 4, 5]
    assert has_k_isthmus(path(6), 5) is None  # endpoints are not cut vertices
    assert has_k_isthmus(cycle(5), 1) is None
    k4e = Graph(range(1, 5), [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert has_k_isthmus(k4e, 2) is None
    # two triangles joined by a path of two bridges
    dbl = Graph(range(1, 9), [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)])
    assert has_k_isthmus(dbl, 4) == [3, 4, 5, 6]
    assert has_k_isthmus(dbl, 3) == [3, 4, 5]
    # interior vertex of degree > 2 breaks the middle of a would-be isthmus
    spider = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])
    assert has_k_isthmus(spider, 3) is None
    assert has_k_isthmus(spider, 2) == [2, 3]


def test_isthmus_witness_clauses():
    # witness vertices must be cut vertices, consecutive pairs bridges,
    # interior vertices of degree 2
    g = path(6)
    w = has_k_isthmus(g, 3)
    cuts = set(cut_vertices(g))
    brs = set(bridges(g))
    assert w is not None and len(w) == 3
    assert all(v in cuts for v in w)
    for a, b in zip(w, w[1:]):
        assert (min(a, b), max(a, b)) in brs
    for v in w[1:-1]:
        assert g.degree(v) == 2


def test_matchings_counts():
    counts = {
        "p3": (path(3), 3),
        "p4": (path(4), 5),
        "k3": (complete(3), 4),
        "c5": (cycle(5), 11),
        "c6": (cycle(6), 18),
        "c7": (cycle(7), 29),
    }
    for g, want in counts.values():
        assert sum(1 for _ in enumerate_matchings(g)) == want


def test_matchings_are_matchings():
    first = None
    seen = set()
    for m in enumerate_matchings(cycle(5)):
        if first is None:
            first = m
        used = [v for e in m for v in e]
        assert len(used) == len(set(used))
        assert m not in seen
        seen.add(m)
    assert first == frozenset()


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_matchings_follow_lucas(n):
    assert sum(1 for _ in enumerate_matchings(cycle(n))) == lucas(n)


def test_induced_and_relabeled():
    g = path(5)
    h = g.induced({2, 3, 4})
    assert h.vertices == (2, 3, 4) and h.m == 2
    r = g.relabeled({1: 10, 2: 20, 3: 30, 4: 40, 5: 50})
    assert r.has_edge(10, 20) and r.n == 5
    assert not g.is_dense_labeled() or g.vertices == (1, 2, 3, 4, 5)
    assert not h.is_dense_labeled()


def test_cartesian_product():
    g, coord = cartesian_product(path(2), path(3))
    assert g.n == 6 and g.m == 7
    assert coord[1] == (1, 1) and coord[6] == (2, 3)
    # vertex (1,1) neighbors: (1,2) and (2,1)
    assert g.adj[1] == frozenset({2, 4})
    q3, _ = cartesian_product(path(2), hypercube(2))
    assert q3.m == 12


def test_edge_surgery():
    # P3 with one new vertex on each edge is still a tree
    s = Graph(range(1, 6), [(1, 4), (4, 2), (2, 5), (5, 3)])
    assert s.n == 5 and s.m == 4 and is_tree(s)
    # each edge uv of P3 becomes a 3-vertex tail x1 x2 x3 hung from u and v
    t = Graph(range(1, 10), [(1, 4), (2, 4), (4, 5), (5, 6),
                             (2, 7), (3, 7), (7, 8), (8, 9)])
    assert t.n == 3 + 3 * 2 and t.m == 4 * 2 and is_tree(t)
    # a triangle with two new vertices on each edge is a 9-cycle
    k3 = Graph(range(1, 10), [(1, 4), (4, 5), (5, 2), (2, 6), (6, 7),
                              (7, 3), (3, 8), (8, 9), (9, 1)])
    assert girth(k3) == 9 and is_cycle(k3)
