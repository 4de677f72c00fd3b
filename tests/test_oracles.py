"""Cross-checks against oracles that share no code with the package:
networkx for induced subgraphs, cut vertices, bridges, automorphism counts
and the theta-graph test, on densely labeled graphs and on copies with
gapped labels; and a count of acyclic orientations for the components of
the path-board puzzle."""

import functools
import itertools
import math
import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from pebblex.catalog import connected_graphs
from pebblex.graphs import (
    Graph,
    bridges,
    cut_vertices,
    is_theta_122,
    path,
    theta_122,
)
from pebblex.perms import automorphisms, automorphisms_dict, isomorphisms
from pebblex.puzzle import Puz, reachable_set


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    return h


def _gapped(g):
    return g.relabeled({v: 3 * v + 1 for v in g.vertices})


def _with_gapped_copies(graphs):
    for g in graphs:
        yield g
        yield _gapped(g)


def _edge_filter_induced(g, keep):
    # the construction Graph.induced used to run: keep's labels as vertices,
    # the parent's edges with both ends in keep, through the validating
    # constructor
    keep = set(keep)
    return Graph(keep, [(u, v) for u, v in g.edges() if u in keep and v in keep])


def _assert_same_graph(got, want):
    assert got.vertices == want.vertices
    assert got.adj == want.adj
    assert got.m == want.m
    assert ([got.index_of(v) for v in got.vertices]
            == [want.index_of(v) for v in want.vertices] == list(range(got.n)))
    assert got == want
    assert hash(got) == hash(want)


@pytest.mark.parametrize("n", range(1, 7))
def test_induced_matches_edge_filter_and_networkx(n):
    rng = random.Random(n)
    for g in _with_gapped_copies(connected_graphs(n)):
        for _ in range(4):
            keep = rng.sample(g.vertices, rng.randint(1, g.n))
            got = g.induced(keep)
            _assert_same_graph(got, _edge_filter_induced(g, keep))
            want = _nx(g).subgraph(keep)
            assert got.vertices == tuple(sorted(want.nodes))
            assert got.edges() == tuple(sorted(
                (min(e), max(e)) for e in want.edges))
        _assert_same_graph(g.induced(g.vertices), g)


def test_induced_keeps_a_foreign_label_as_an_isolated_vertex():
    g = path(4)
    for keep in ({2, 3, 9}, {9}, [1, 2, 2, 7]):
        got = g.induced(keep)
        _assert_same_graph(got, _edge_filter_induced(g, keep))
    assert g.induced({2, 3, 9}).adj[9] == frozenset()
    for bad in (set(), {0, 1}):
        with pytest.raises(ValueError) as old:
            _edge_filter_induced(g, bad)
        with pytest.raises(ValueError) as new:
            g.induced(bad)
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("n", range(1, 7))
def test_cut_structure_matches_networkx(n):
    for g in _with_gapped_copies(connected_graphs(n)):
        h = _nx(g)
        assert cut_vertices(g) == tuple(sorted(nx.articulation_points(h)))
        want = tuple(sorted((min(e), max(e)) for e in nx.bridges(h)))
        assert bridges(g) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_automorphism_counts_match_networkx(n):
    for g in _with_gapped_copies(connected_graphs(n)):
        h = _nx(g)
        order = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        as_dicts = automorphisms_dict(g)
        assert len(as_dicts) == order
        # lexicographic by image over the sorted vertices
        images = [tuple(a[v] for v in g.vertices) for a in as_dicts]
        assert images == sorted(set(images))
        if g.is_dense_labeled():
            assert automorphisms(g) == images
        else:
            with pytest.raises(ValueError):
                automorphisms(g)


@pytest.mark.parametrize("n", range(1, 7))
def test_isomorphisms_onto_a_gapped_copy(n):
    for g in connected_graphs(n):
        h = _gapped(g)
        maps = list(isomorphisms(g, h))
        assert len(maps) == len(automorphisms(g))
        for f in maps:
            assert sorted(f.values()) == list(h.vertices)
            assert all(h.has_edge(f[u], f[v]) for u, v in g.edges())


def test_theta_122_matches_networkx():
    theta = _nx(theta_122())
    hits = 0
    for g in _with_gapped_copies(connected_graphs(7)):
        got = is_theta_122(g)
        assert got == nx.is_isomorphic(_nx(g), theta)
        hits += got
    assert hits == 2  # the theta graph and its gapped copy


def _acyclic_orientations(n, edges):
    """Acyclic orientations of the graph on vertices 0..n-1, by
    a(G) = sum over nonempty independent S of (-1)^(|S|+1) a(G - S)."""
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u

    def independent(s):
        return all(not (s >> v & 1 and nbrs[v] & s) for v in range(n))

    @functools.lru_cache(maxsize=None)
    def a(mask):
        if not mask:
            return 1
        total, sub = 0, mask
        while sub:
            if independent(sub):
                sign = 1 if bin(sub).count("1") % 2 else -1
                total += sign * a(mask & ~sub)
            sub = (sub - 1) & mask
        return total

    return a((1 << n) - 1)


def test_acyclic_orientation_counts():
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        assert _acyclic_orientations(n, pairs) == math.factorial(n)
        assert _acyclic_orientations(n, []) == 1
        assert _acyclic_orientations(n, [(i, i + 1) for i in range(n - 1)]) == 2 ** (n - 1)
        if n >= 3:
            ring = [(i, (i + 1) % n) for i in range(n)]
            assert _acyclic_orientations(n, ring) == 2 ** n - 2


def _component_count(puz):
    left = set(itertools.permutations(puz.pebbles.vertices))
    count = 0
    while left:
        component = reachable_set(puz, min(left))
        assert component <= left
        left -= component
        count += 1
    return count


@pytest.mark.parametrize("n", range(1, 6))
def test_path_board_components_are_acyclic_orientations(n):
    # Defant & Kravitz, Friends and strangers walking on graphs
    # (arXiv:2009.05040): the components of the puzzle with the n-vertex
    # path as board and pebble graph Y are as many as the acyclic
    # orientations of Y's complement; swapping board and pebbles keeps them
    board = path(n)
    pairs = set(itertools.combinations(range(1, n + 1), 2))
    for g in connected_graphs(n):
        for edges in (set(g.edges()), pairs - set(g.edges())):
            pebbles = Graph(range(1, n + 1), edges)
            missing = [(u - 1, v - 1) for u, v in sorted(pairs - edges)]
            want = _acyclic_orientations(n, missing)
            assert _component_count(Puz(board, pebbles)) == want
            assert _component_count(Puz(pebbles, board)) == want
