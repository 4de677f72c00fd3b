"""Exhaustive small-graph catalogs and their canonical-form machinery."""

import hashlib
import itertools
import random
import time

import networkx as nx
import pytest

from pebblex import Graph, girth, is_connected
from pebblex import catalog
from pebblex.catalog import (
    canonical_key,
    connected_graphs,
    girth5_graphs,
    random_connected_graphs,
    trees,
)
from pebblex.names import graph_from_desc

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
GIRTH5_COUNTS = {3: 1, 4: 2, 5: 4, 6: 8, 7: 18, 8: 47}


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_counts(n, count):
    cat = connected_graphs(n)
    assert len(cat) == count
    for g in cat:
        assert g.vertices == tuple(range(1, n + 1))
        assert is_connected(g)


def test_connected_catalog_has_no_isomorphic_pair():
    for n in range(2, 7):
        keys = [canonical_key(g) for g in connected_graphs(n)]
        assert len(set(keys)) == len(keys)


def test_connected_count_seven():
    # the biggest catalog size the exhaustive sweeps rely on
    assert len(connected_graphs(7)) == 853


@pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
def test_tree_counts(n, count):
    cat = trees(n)
    assert len(cat) == count
    for t in cat:
        assert t.m == n - 1
        assert is_connected(t)


@pytest.mark.parametrize("n,count", sorted(GIRTH5_COUNTS.items()))
def test_girth5_counts(n, count):
    cat = girth5_graphs(n)
    assert len(cat) == count
    for g in cat:
        assert is_connected(g)
        assert girth(g) >= 5


def test_girth5_matches_filtered_connected_catalog():
    for n in range(3, 7):
        direct = {canonical_key(g) for g in girth5_graphs(n)}
        filtered = {
            canonical_key(g) for g in connected_graphs(n) if girth(g) >= 5
        }
        assert direct == filtered


def test_canonical_key_is_relabel_invariant():
    rng = random.Random(7)
    for g in connected_graphs(5):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        relab = Graph(
            range(1, 6),
            [(perm[u - 1], perm[v - 1]) for u, v in g.edges()],
        )
        assert canonical_key(relab) == canonical_key(g)


def test_canonical_key_of_gapped_labels_is_that_of_the_dense_relabeling():
    gapped = Graph([3, 10, 11, 40], [(3, 10), (10, 11), (10, 40), (11, 40)])
    dense = Graph(range(1, 5), [(1, 2), (2, 3), (2, 4), (3, 4)])
    assert canonical_key(gapped) == canonical_key(dense)


def test_canonical_key_separates_non_isomorphic():
    p4 = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
    star = Graph(range(1, 5), [(1, 2), (1, 3), (1, 4)])
    assert canonical_key(p4) != canonical_key(star)


# sha256 over every representative's edge list, in catalog order, as
# built cold by the full-relabeling keys these catalogs started from
CATALOG_PINS = {
    "connected": (connected_graphs, range(1, 8),
                  "73be6a1476df57f24604ec4959c520172842e5c4401a59ed7130a60c62a7118b"),
    "trees": (trees, range(1, 10),
              "85598d465939e186e3d5610d293da5006fcc87fac55ee04dab3a08ea4d0320b3"),
    "girth5": (girth5_graphs, range(1, 9),
               "7cfb3504601cb7dc72019433557aa9e2fb8c52facc3186936776f49744deb484"),
}


@pytest.mark.parametrize("family", sorted(CATALOG_PINS))
def test_catalogs_are_pinned(family):
    # use_cache=False: build every size afresh rather than read the memo
    build, sizes, pin = CATALOG_PINS[family]
    h = hashlib.sha256()
    for n in sizes:
        for g in build(n, use_cache=False):
            h.update(repr((n, tuple(g.edges()))).encode())
    assert h.hexdigest() == pin


def _nx(g):
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges())
    return out


def _shuffled(g, rng):
    perm = list(g.vertices)
    rng.shuffle(perm)
    image = dict(zip(g.vertices, perm))
    return Graph(perm, [(image[u], image[v]) for u, v in g.edges()])


def test_canonical_key_matches_networkx_isomorphism():
    rng = random.Random(20261018)
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    # same degree sequence, not isomorphic: C6 against two disjoint triangles
    graphs.append(Graph(range(1, 7), [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]))
    graphs.append(Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]))
    keys = [canonical_key(g) for g in graphs]
    nxs = [_nx(g) for g in graphs]
    for a, b in itertools.combinations(range(len(graphs)), 2):
        assert (keys[a] == keys[b]) == nx.is_isomorphic(nxs[a], nxs[b])
    assert keys[-1] != keys[-2]
    for g, key in zip(graphs, keys):
        for _ in range(3):
            assert canonical_key(_shuffled(g, rng)) == key


def test_seven_vertex_keys_split_equal_degree_sequences():
    sevens = connected_graphs(7)
    keys = [canonical_key(g) for g in sevens]
    assert len(set(keys)) == len(sevens) == 853
    by_degrees = {}
    for g, key in zip(sevens, keys):
        seq = tuple(sorted(g.degree(v) for v in g.vertices))
        by_degrees.setdefault(seq, []).append((g, key))
    shared = 0
    for group in by_degrees.values():
        for (g, kg), (h, kh) in itertools.combinations(group, 2):
            assert kg != kh
            assert not nx.is_isomorphic(_nx(g), _nx(h))
            shared += 1
    assert shared > 0


def test_canonical_key_refuses_too_many_vertices(monkeypatch):
    def no_tables(*args):
        raise AssertionError("a gather table was built")

    monkeypatch.setattr(catalog, "_class_gather", no_tables)
    with pytest.raises(ValueError, match="at most 11 vertices"):
        canonical_key(graph_from_desc("p12"))


def test_canonical_key_refuses_too_many_relabelings(monkeypatch):
    def no_tables(*args):
        raise AssertionError("a gather table was built")

    monkeypatch.setattr(catalog, "_class_gather", no_tables)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than 40320 relabelings"):
        canonical_key(graph_from_desc("c9"))  # 9! relabelings
    assert time.perf_counter() - start < 0.5


def test_canonical_key_limits_are_inclusive():
    # C8 needs exactly 8! relabelings, as girth5_graphs(8) does
    c8 = graph_from_desc("c8")
    assert canonical_key(_shuffled(c8, random.Random(1))) == canonical_key(c8)
    # 11 vertices, degree classes of sizes 2, 3, 6: no int64 wrap-around
    spider = Graph(range(1, 12), [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7),
                                  (2, 8), (3, 9), (4, 10), (5, 11)])
    key = canonical_key(spider)
    assert key >> 55 == 1
    assert canonical_key(_shuffled(spider, random.Random(2))) == key
    twin = Graph(range(1, 12), [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7),
                                (2, 8), (3, 9), (3, 10), (5, 11)])
    assert canonical_key(twin) != key


def test_canonical_key_separates_orders():
    assert canonical_key(Graph([1, 2])) != canonical_key(Graph([1, 2, 3]))


def test_random_connected_graphs_deterministic():
    a = random_connected_graphs(12, seed=42)
    b = random_connected_graphs(12, seed=42)
    assert [g.edges() for g in a] == [g.edges() for g in b]
    c = random_connected_graphs(12, seed=43)
    assert [g.edges() for g in a] != [g.edges() for g in c]
    sizes = {g.n for g in a}
    assert sizes <= {5, 6, 7, 8}
    for g in a:
        assert is_connected(g)


def test_catalogs_ignore_files_in_the_old_cache_folder(monkeypatch, tmp_path):
    # a well-formed file where earlier versions kept their disk cache must
    # not be served as the catalog, and building writes no file at all
    monkeypatch.setenv("PEBBLEX_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {}, raising=False)
    poisoned = tmp_path / "pebblex-catalog-v1" / "connected_5.json"
    poisoned.parent.mkdir()
    poisoned.write_text('{"n": 5, "graphs": [[[1,2]]]}')
    cat = connected_graphs(5)
    assert len(cat) == 21
    assert all(is_connected(g) for g in cat)
    for build, sizes, _ in CATALOG_PINS.values():
        for n in sizes:
            build(n)
    assert list(tmp_path.rglob("*")) == [poisoned.parent, poisoned]


def test_memo_preserves_order():
    fresh = connected_graphs(4, use_cache=False)
    memo_once = connected_graphs(4)
    memo_twice = connected_graphs(4)
    assert [g.edges() for g in fresh] == [g.edges() for g in memo_once]
    assert [g.edges() for g in memo_once] == [g.edges() for g in memo_twice]
    assert memo_twice is memo_once
