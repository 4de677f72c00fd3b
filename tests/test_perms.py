import itertools
import math
import random

import pytest

from pebblex.catalog import connected_graphs, trees
from pebblex.graphs import Graph, complete, cycle, hypercube, path, star, theta_122
from pebblex.names import graph_from_desc
from pebblex.perms import (
    GroupSummary,
    automorphism_count,
    automorphisms,
    automorphisms_dict,
    compose,
    cycle_notation,
    cycles,
    identity_perm,
    inverse,
    is_automorphism,
    is_identity,
    is_perm,
    isomorphisms,
    parse_perm,
    perm_order,
    perm_power,
    sign,
)


def test_identity_and_is_perm():
    assert identity_perm(4) == (1, 2, 3, 4)
    assert is_perm((2, 3, 1))
    assert not is_perm((1, 1, 3))
    assert not is_perm((0, 1, 2))


def test_compose_applies_right_factor_first():
    p = (2, 1, 3)
    q = (1, 3, 2)
    c = compose(p, q)
    # c(2) = p(q(2)) = p(3) = 3
    assert c == (2, 3, 1)
    assert compose(p, identity_perm(3)) == p
    assert compose(identity_perm(3), p) == p


def test_compose_refuses_permutations_of_different_lengths():
    for p, q in (((2, 1, 3), (2, 1)), ((2, 1), (2, 1, 3))):
        with pytest.raises(ValueError, match="^length mismatch$"):
            compose(p, q)


def test_inverse_and_power():
    rng = random.Random(7)
    for n in (1, 2, 5, 8):
        base = list(range(1, n + 1))
        for _ in range(20):
            rng.shuffle(base)
            p = tuple(base)
            assert compose(p, inverse(p)) == identity_perm(n)
            assert perm_power(p, 0) == identity_perm(n)
            assert perm_power(p, 3) == compose(p, compose(p, p))
            assert perm_power(p, -1) == inverse(p)
            assert perm_power(p, perm_order(p)) == identity_perm(n)


def test_order_and_sign():
    assert perm_order((2, 3, 1, 5, 4)) == 6  # lcm(3, 2)
    assert sign(identity_perm(5)) == 1
    assert sign((1, 4, 3, 2, 5)) == -1  # the transposition of 2 and 4
    assert sign((2, 3, 1)) == 1
    p = (2, 3, 1, 5, 4)
    assert sign(p) == -1
    assert sign(compose(p, p)) == 1


def test_cycles_and_notation():
    assert cycles((2, 3, 1, 4)) == [(1, 2, 3), (4,)]  # fixed points kept
    assert cycle_notation((2, 3, 1, 4)) == "(1 2 3)"
    assert cycle_notation(identity_perm(3)) == "()"
    assert cycle_notation((2, 1, 4, 3)) == "(1 2)(3 4)"


# ---------------------------------------------------------------------------
# the two forms: a tuple over 1..n, and a dict over any labels

def _as_dict(p):
    return {i: v for i, v in enumerate(p, 1)}


def _relabel(d, f):
    return {f(v): f(img) for v, img in d.items()}


def test_tuple_and_dict_forms_agree_and_follow_a_relabeling():
    rng = random.Random(14)
    f = lambda v: 3 * v + 1  # increasing, so cycles keep their order
    for n in range(9):
        for _ in range(12):
            p = tuple(rng.sample(range(1, n + 1), n))
            q = tuple(rng.sample(range(1, n + 1), n))
            k = rng.randrange(-7, 8)
            dp, dq = _as_dict(p), _as_dict(q)
            # relabeled, with the keys in a shuffled order
            rp, rq = (dict(rng.sample(sorted(_relabel(d, f).items()), n))
                      for d in (dp, dq))
            # operations whose answer is a permutation
            for op, args, dargs, rargs in (
                (compose, (p, q), (dp, dq), (rp, rq)),
                (inverse, (p,), (dp,), (rp,)),
                (perm_power, (p, k), (dp, k), (rp, k)),
            ):
                want = op(*args)
                assert isinstance(want, tuple) and is_perm(want)
                assert op(*dargs) == _as_dict(want)
                assert op(*rargs) == _relabel(_as_dict(want), f)
            # operations whose answer does not name a vertex
            for op in (perm_order, sign, is_identity):
                assert op(p) == op(dp) == op(rp)
            assert cycles(dp) == cycles(p)
            assert cycles(rp) == [tuple(map(f, c)) for c in cycles(p)]
            assert cycle_notation(dp) == cycle_notation(p)
            assert cycle_notation(rp) == ("".join(
                "(" + " ".join(str(f(v)) for v in c) + ")"
                for c in cycles(p) if len(c) > 1
            ) or "()")
            if n:
                edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(n)]
                if k % 2:  # the edges' images under p's powers: p preserves them
                    powers = [perm_power(p, j) for j in range(perm_order(p))]
                    edges = [(s[u - 1], s[v - 1]) for s in powers for u, v in edges]
                g = Graph(range(1, n + 1), {tuple(sorted(e)) for e in edges if e[0] != e[1]})
                h = g.relabeled({v: f(v) for v in g.vertices})
                want = is_automorphism(g, p)
                assert want or not k % 2
                assert is_automorphism(g, dp) == is_automorphism(h, rp) == want


def test_is_automorphism_on_gapped_labels():
    g = Graph((1, 3, 5), [(1, 3), (3, 5)])
    assert is_automorphism(g, (1, 2, 3)) is False  # not read as labels 1..3
    assert is_automorphism(g, {1: 5, 3: 3, 5: 1})
    assert not is_automorphism(g, {1: 3, 3: 1, 5: 5})
    assert not is_automorphism(g, {1: 1, 3: 3})
    assert not is_automorphism(g, {1: 1, 3: 3, 5: 1})  # not onto
    assert not is_automorphism(g, {1: 1, 3: 3, 4: 5})  # 4 is no vertex


def _is_automorphism_reference(g, p):
    # bijection precheck, then every sorted edge (u, v) with u < v
    p = p if isinstance(p, dict) else dict(enumerate(p, 1))
    if p.keys() != g.adj.keys() or set(p.values()) != g.adj.keys():
        return False
    edges = sorted((u, v) for u in g.adj for v in g.adj[u] if u < v)
    return all(p[v] in g.adj[p[u]] for u, v in edges)


def test_is_automorphism_matches_the_sorted_edge_reference():
    boards = [g for n in range(1, 6) for g in connected_graphs(n)]
    found = 0
    for g in boards:
        gapped = g.relabeled({v: 3 * v + 1 for v in g.vertices})
        for p in itertools.permutations(g.vertices):
            want = _is_automorphism_reference(g, p)
            assert is_automorphism(g, p) == want
            assert is_automorphism(g, dict(zip(g.vertices, p))) == want
            gp = {3 * v + 1: 3 * w + 1 for v, w in zip(g.vertices, p)}
            assert _is_automorphism_reference(gapped, gp) == want
            assert is_automorphism(gapped, gp) == want
            found += want
    assert found == sum(automorphism_count(g) for g in boards)
    lone = Graph(range(1, 5), [(1, 2), (2, 3)])  # vertex 4 is isolated
    for p in itertools.permutations(lone.vertices):
        want = _is_automorphism_reference(lone, p)
        assert is_automorphism(lone, p) == want
        assert want == (p in ((1, 2, 3, 4), (3, 2, 1, 4)))


@pytest.mark.parametrize("p", [
    {1: 3, 2: 2},  # missing key
    {1: 3, 2: 2, 3: 1, 4: 4},  # extra key
    {1: 1, 2: 2, 3: 1},  # repeated image
    {1: 3, 2: 2, 3: 4},  # image outside the vertex set
    (3, 2),
    (3, 2, 1, 4),
    (1, 2, 1),
    (3, 2, 4),
])
def test_is_automorphism_refuses_malformed_maps(p):
    g = path(3)
    assert is_automorphism(g, p) is False
    assert _is_automorphism_reference(g, p) is False


def test_parse_perm():
    assert parse_perm("3 1 2") == (3, 1, 2)
    assert parse_perm("3 1 2", n=3) == (3, 1, 2)
    with pytest.raises(ValueError):
        parse_perm("3 1 2", n=4)
    with pytest.raises(ValueError):
        parse_perm("1 1 2")
    with pytest.raises(ValueError):
        parse_perm("one two")
    with pytest.raises(ValueError):
        parse_perm("   ")


@pytest.mark.parametrize(
    "g,order",
    [
        (path(4), 2),
        (cycle(5), 10),
        (star(3), 6),
        (complete(4), 24),
        (hypercube(3), 48),
        (theta_122(), 4),
    ],
)
def test_automorphism_group_orders(g, order):
    auts = automorphisms(g)
    assert len(auts) == order
    assert all(is_automorphism(g, p) for p in auts)
    assert auts[0] == identity_perm(g.n)  # sorted, identity first
    group = set(auts)
    assert all(compose(p, q) in group for p in auts for q in auts)


def test_automorphisms_dict_matches_tuple_version():
    g = cycle(4)
    as_dicts = automorphisms_dict(g)
    as_tuples = {tuple(d[v] for v in g.vertices) for d in as_dicts}
    assert as_tuples == set(automorphisms(g))
    # works on non-dense labels too
    h = g.relabeled({1: 10, 2: 20, 3: 30, 4: 40})
    assert len(automorphisms_dict(h)) == 8


def test_isomorphisms_between_graphs_of_different_sizes_yield_nothing():
    assert list(isomorphisms(path(3), path(4))) == []  # orders differ
    assert list(isomorphisms(path(4), cycle(4))) == []  # edge counts differ
    h = path(3).relabeled({1: 5, 2: 7, 3: 9})
    assert list(isomorphisms(path(3), h)) == [{1: 5, 2: 7, 3: 9}, {1: 9, 2: 7, 3: 5}]


def test_group_summary():
    g = GroupSummary.from_elements([(1, 2), (2, 1), (1, 2)])
    assert g.order == 2
    assert g.elements == ((1, 2), (2, 1))


# ---------------------------------------------------------------------------
# the group order from the stabilizer chain, against the listed group

def test_automorphism_count_matches_the_list_on_small_catalogs():
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs += [g for n in range(1, 10) for g in trees(n)]
    assert len(graphs) == 996 + 95
    for g in graphs:
        assert automorphism_count(g) == len(automorphisms(g)), g.edges()


def test_automorphism_count_on_gapped_labels():
    g = graph_from_desc("c6~3")
    assert not g.is_dense_labeled()
    assert automorphism_count(g) == len(automorphisms_dict(g)) == 2


def test_automorphism_count_on_a_disconnected_file_graph(tmp_path):
    # two triangles, a path on three vertices and an isolated vertex:
    # 2 * 3! * 3! for the triangles, 2 for the path
    f = tmp_path / "parts.txt"
    f.write_text("10 8\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n7 8\n8 9\n")
    g = graph_from_desc(str(f))
    assert automorphism_count(g) == len(automorphisms(g)) == 144


def test_automorphism_count_against_the_brute_force_oracle(oracle):
    for desc, adj in (("q3", oracle.hypercube(3)), ("theta122", oracle.theta122()),
                      ("grid2x3", oracle.grid(2, 3))):
        assert automorphism_count(graph_from_desc(desc)) == oracle.automorphism_count(adj)


@pytest.mark.parametrize(
    "desc,order",
    [
        ("k12", math.factorial(12)),
        ("k16", math.factorial(16)),
        ("star15", math.factorial(15)),
        ("q5", 2 ** 5 * math.factorial(5)),
        ("q6", 2 ** 6 * math.factorial(6)),
        ("c20", 40),
    ],
)
def test_automorphism_count_closed_forms(desc, order):
    # groups far too large to list
    assert automorphism_count(graph_from_desc(desc)) == order
