"""Closed-form feasibility predicates, family recognition, verifier reports."""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from pebblex import (
    FeasibilityVerdict,
    Graph,
    Puz,
    bipartite_pebbles_feasible,
    classify_instance,
    complement,
    complete_multipartite,
    girth5_reachable_oracle,
    is_feasible,
    kms_feasible,
    multipartite_feasible,
    pebble_family,
    verify_examples_agreement,
    verify_flip_lemma,
    verify_parity_example,
    verify_product_theorem,
    verify_prop2,
    verify_square_lemma,
    wilson_feasible,
)
from pebblex import classify, flips, puzzle, squares
from pebblex.catalog import connected_graphs
from pebblex.classify import NOT_APPLICABLE, _partitions_min2
from pebblex.graphs import components
from pebblex.puzzle import exchange_group_counts, is_peb_normal_in_aut
from pebblex.names import graph_from_desc


def g(desc):
    return graph_from_desc(desc)


# two triangles joined by a path through vertices 3-4-5-6
DOUBLE_TRIANGLE = Graph(
    range(1, 9),
    [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)],
)

K4_MINUS_EDGE = Graph(range(1, 5), [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])

DISCONNECTED = Graph(range(1, 7), [(1, 2), (2, 3), (4, 5), (5, 6)])


# ---------------------------------------------------------------------------
# one free pebble

def test_wilson_feasible_default():
    v = wilson_feasible(g("k4"))
    assert v == FeasibilityVerdict(True, True, "default")


def test_wilson_cycle_rule():
    assert wilson_feasible(g("c7")) == FeasibilityVerdict(True, False, "cycle")


def test_wilson_bipartite_rule():
    k33 = complete_multipartite(3, 3)
    assert wilson_feasible(k33) == FeasibilityVerdict(True, False, "bipartite")


def test_wilson_theta_rule():
    assert wilson_feasible(g("theta122")) == FeasibilityVerdict(
        True, False, "theta"
    )


def test_wilson_check_order_cycle_before_bipartite():
    # even cycles are both; the cycle clause must fire first
    assert wilson_feasible(g("c6")).rule == "cycle"


def test_wilson_not_applicable():
    # too small: the 3-cycle's one-free-pebble puzzle is feasible, so it
    # sits outside this predicate's scope instead of being called a cycle
    assert wilson_feasible(g("c3")) == FeasibilityVerdict(
        False, None, NOT_APPLICABLE
    )
    # not 2-connected
    assert wilson_feasible(g("p4")).applicable is False
    assert wilson_feasible(DISCONNECTED).applicable is False
    # and the excluded 3-cycle really is feasible
    assert is_feasible(Puz(g("c3"), g("star2"))) is True


# ---------------------------------------------------------------------------
# k labeled pebbles, the rest identical blanks

def test_kms_isthmus_witness():
    v = kms_feasible(g("p4"), 2)
    assert v == FeasibilityVerdict(True, False, "k-isthmus", (2, 3))


def test_kms_feasible_default():
    assert kms_feasible(K4_MINUS_EDGE, 2) == FeasibilityVerdict(
        True, True, "default"
    )


def test_kms_witness_is_a_real_isthmus():
    v = kms_feasible(g("p6"), 4)
    assert v.rule == "k-isthmus"
    w = v.witness
    board = g("p6")
    assert len(w) == 4
    # consecutive witness vertices are adjacent on the board
    for a, b in zip(w, w[1:]):
        assert board.has_edge(a, b)
    # interior vertices of the witness path have no neighbors off the path
    for x in w[1:-1]:
        assert set(board.adj[x]) <= set(w)


def test_kms_not_applicable():
    assert kms_feasible(g("c6"), 2).rule == NOT_APPLICABLE
    assert kms_feasible(g("p4"), 1).rule == NOT_APPLICABLE
    assert kms_feasible(g("p4"), 5).rule == NOT_APPLICABLE
    assert kms_feasible(DISCONNECTED, 2).rule == NOT_APPLICABLE


# ---------------------------------------------------------------------------
# two-sided pebbles

def test_two_part_rules():
    assert bipartite_pebbles_feasible(g("c6"), 2).rule == "cycle"
    assert bipartite_pebbles_feasible(g("p5"), 2).rule == "bipartite"
    assert bipartite_pebbles_feasible(g("k4"), 2) == FeasibilityVerdict(
        True, True, "default"
    )
    assert bipartite_pebbles_feasible(DISCONNECTED, 2).rule == NOT_APPLICABLE


def test_two_part_isthmus():
    # odd cycle with a pendant triangle: not bipartite, not a cycle,
    # but the bridge path is a 2-isthmus
    board = Graph(
        range(1, 7), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
    )
    v = bipartite_pebbles_feasible(board, 2)
    assert v.rule == "k-isthmus"
    assert v.feasible is False


def test_two_part_range_errors():
    with pytest.raises(ValueError):
        bipartite_pebbles_feasible(g("p5"), 1)
    with pytest.raises(ValueError):
        bipartite_pebbles_feasible(g("p5"), 3)  # 3 > 5 // 2


# ---------------------------------------------------------------------------
# three or more parts

def test_multipartite_rules():
    assert multipartite_feasible(g("k6"), (2, 2, 2)) == FeasibilityVerdict(
        True, True, "default"
    )
    assert multipartite_feasible(g("c6"), (2, 2, 2)).rule == "cycle"
    v = multipartite_feasible(DOUBLE_TRIANGLE, (2, 2, 4))
    assert v.rule == "k-isthmus"
    assert v.witness == (3, 4, 5, 6)
    assert multipartite_feasible(DISCONNECTED, (2, 2, 2)).rule == NOT_APPLICABLE


def test_multipartite_partition_errors():
    with pytest.raises(ValueError):
        multipartite_feasible(g("k6"), (3, 3))  # only two parts
    with pytest.raises(ValueError):
        multipartite_feasible(g("k6"), (1, 2, 3))  # part of size 1
    with pytest.raises(ValueError):
        multipartite_feasible(g("k6"), (2, 2, 3))  # sums to 7, not 6


# recorded before Graph kept its connectivity, bipartiteness, cut vertices
# and bridges: 9,703 verdicts with their witnesses
CLOSED_FORM_PIN = "902d27fbe71d44bd3c6f4c7738ec90d05be30cbc7ec496520ee3a8f7e69e4407"


def test_closed_form_verdicts_are_pinned():
    # every closed form at every parameter on every connected board up to 7
    # vertices, in catalog order; boards from the memo may have been asked
    # before, so a stale fact or witness shows here
    h = hashlib.sha256()
    rows = 0
    for n in range(1, 8):
        for b in connected_graphs(n):
            asked = [("wilson", None, wilson_feasible(b))]
            asked += [("kms", k, kms_feasible(b, k)) for k in range(2, n + 1)]
            asked += [("two-part", k, bipartite_pebbles_feasible(b, k))
                      for k in range(2, n // 2 + 1)]
            asked += [("multipart", p, multipartite_feasible(b, p))
                      for p in _partitions_min2(n)]
            for family, arg, verdict in asked:
                h.update(json.dumps([n, b.edges(), family, arg, verdict.as_json()]).encode())
            rows += len(asked)
    assert rows == 9703
    assert h.hexdigest() == CLOSED_FORM_PIN


def test_partitions_min2():
    assert _partitions_min2(6) == [(2, 2, 2)]
    assert _partitions_min2(7) == [(2, 2, 3)]
    assert _partitions_min2(8) == [(2, 2, 2, 2), (2, 2, 4), (2, 3, 3)]
    assert _partitions_min2(5) == []


# ---------------------------------------------------------------------------
# recognizing pebble graphs

def test_pebble_family_branches():
    assert pebble_family(g("star5")) == ("wilson", None)
    assert pebble_family(g("k6")) == ("kms", 6)
    assert pebble_family(complete_multipartite(1, 1, 1, 3)) == ("kms", 3)
    assert pebble_family(complete_multipartite(2, 4)) == ("two-part", 2)
    assert pebble_family(complete_multipartite(2, 2, 3)) == (
        "multipart",
        (2, 2, 3),
    )
    assert pebble_family(g("p4")) == (None, None)
    assert pebble_family(g("c5")) == (None, None)


def _family_by_complement(h):
    """The reference: h is complete multipartite exactly when its
    complement is a disjoint union of cliques, whose sizes are the parts."""
    comp = complement(h)
    parts = []
    for vs in components(comp):
        k = len(vs)
        if comp.induced(vs).m != k * (k - 1) // 2:
            return None, None
        parts.append(k)
    parts.sort()
    ones, big = parts.count(1), [p for p in parts if p >= 2]
    if ones == len(parts):
        return "kms", len(parts)
    if len(big) == 1 and ones == 1:
        return "wilson", None
    if len(big) == 1 and ones >= 2:
        return "kms", ones
    if not ones and len(big) == 2:
        return "two-part", big[0]
    if not ones and len(big) >= 3:
        return "multipart", tuple(parts)
    return None, None


def _partitions(n, smallest=1):
    if n == 0:
        yield ()
    for p in range(smallest, n + 1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def test_pebble_family_matches_the_complement_reference():
    # every labeled graph on 1-5 vertices, then every complete multipartite
    # graph up to 10 vertices
    graphs = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            graphs.append(Graph(range(1, n + 1),
                                [e for i, e in enumerate(pairs) if mask >> i & 1]))
    graphs += [complete_multipartite(*parts)
               for n in range(1, 11) for parts in _partitions(n)]
    assert len(graphs) == 1099 + 138
    for h in graphs:
        assert pebble_family(h) == _family_by_complement(h), h.edges()


def test_classify_instance_dispatch():
    fam, v = classify_instance(g("c6"), g("star5"))
    assert fam == "wilson" and v.rule == "cycle"
    fam, v = classify_instance(g("p4"), g("k4"))
    assert fam == "kms" and v == FeasibilityVerdict(True, True, "default")
    fam, v = classify_instance(g("p4"), complete_multipartite(1, 1, 2))
    assert fam == "kms" and v.witness == (2, 3)
    fam, v = classify_instance(g("p5"), complete_multipartite(2, 3))
    assert fam == "two-part" and v == FeasibilityVerdict(True, False, "bipartite")
    fam, v = classify_instance(g("p6"), complete_multipartite(2, 2, 2))
    assert fam == "multipart" and v.rule == "k-isthmus" and v.witness == (2, 3, 4, 5)
    fam, v = classify_instance(g("k6"), complete_multipartite(2, 2, 2))
    assert fam == "multipart" and v == FeasibilityVerdict(True, True, "default")
    # one singleton part next to two bigger ones is no family
    assert pebble_family(complete_multipartite(1, 2, 2)) == (None, None)
    fam, v = classify_instance(g("p5"), complete_multipartite(1, 2, 2))
    assert fam is None and v == FeasibilityVerdict(False, None, NOT_APPLICABLE)
    fam, v = classify_instance(g("c5"), g("c5"))
    assert fam is None and v.rule == NOT_APPLICABLE
    with pytest.raises(ValueError):
        classify_instance(g("p4"), g("p5"))


# ---------------------------------------------------------------------------
# long-cycle boards

def test_girth5_oracle_counts():
    assert len(girth5_reachable_oracle(g("p3"))) == 3
    assert len(girth5_reachable_oracle(g("c5"))) == 11
    assert len(girth5_reachable_oracle(g("c7"))) == 29
    assert len(girth5_reachable_oracle(g("theta122"))) == 34


def test_girth5_oracle_configs_are_matching_swaps():
    board = g("c5")
    for cfg in girth5_reachable_oracle(board):
        moved = [v for v, p in zip(board.vertices, cfg) if v != p]
        # moved vertices pair up into disjoint board edges
        assert len(moved) % 2 == 0
        seen = set()
        for v, p in zip(board.vertices, cfg):
            if v != p and v not in seen:
                assert board.has_edge(v, p)
                assert cfg[board.index_of(p)] == v
                seen.update((v, p))


def test_girth5_oracle_guards():
    with pytest.raises(ValueError, match="not applicable"):
        girth5_reachable_oracle(g("c4"))
    with pytest.raises(ValueError, match="not applicable"):
        girth5_reachable_oracle(DISCONNECTED)


# ---------------------------------------------------------------------------
# verdict serialization

def test_verdict_as_json():
    v = kms_feasible(g("p4"), 2)
    assert v.as_json() == {
        "applicable": True,
        "feasible": False,
        "rule": "k-isthmus",
        "witness": [2, 3],
    }
    assert wilson_feasible(g("c3")).as_json()["witness"] is None


# ---------------------------------------------------------------------------
# report-producing verifiers

REPORT_KEYS = {
    "instance",
    "verdict",
    "rule",
    "witness",
    "bfs_states",
    "peb_order",
    "elapsed_ms",
}


def test_verify_prop2_c5():
    r = verify_prop2(g("c5"))
    assert set(r) == REPORT_KEYS
    assert r["verdict"] is True
    assert r["rule"] == "matching-configurations"
    assert r["witness"] == {"matching_configs": 11, "reachable": 11}
    assert r["bfs_states"] == 11
    assert r["peb_order"] == 1
    assert isinstance(r["elapsed_ms"], float)


def test_verify_prop2_needs_the_oracle_set_itself(monkeypatch):
    # the verdict rests on equal sizes plus every oracle configuration
    # being reached; a same-size oracle with one configuration swapped for
    # an unreachable one, and an oracle one short, both fail it
    real = classify.girth5_reachable_oracle(g("c5"))
    rotation = (2, 3, 4, 5, 1)  # no product of disjoint swaps
    assert rotation not in real
    dropped = sorted(real)[1:]
    for oracle in ({*dropped, rotation}, set(dropped)):
        monkeypatch.setattr(classify, "girth5_reachable_oracle", lambda _: oracle)
        assert verify_prop2(g("c5"))["verdict"] is False
    monkeypatch.undo()
    assert verify_prop2(g("c5"))["verdict"] is True


def test_membership_callers_build_no_set(monkeypatch):
    # each of these asks the search which configurations it reached; none
    # turns the visited configurations into a set
    def reports():
        out = [
            exchange_group_counts(g("p5^2")), exchange_group_counts(g("q3")),
            is_peb_normal_in_aut(g("c5")), is_peb_normal_in_aut(g("q3")),
            verify_prop2(g("c5")), verify_product_theorem(g("p2"), g("p3")),
            verify_square_lemma(max_n=6, bfs_max_n=5), verify_flip_lemma(max_n=5),
        ]
        for r in out:
            if isinstance(r, dict):
                del r["elapsed_ms"]
        return out

    usual = reports()
    real = puzzle._search

    def refuse():
        raise AssertionError("the visited configurations were built as a set")

    def no_states(*args, **kwargs):
        return real(*args, **kwargs)._replace(states=refuse)

    monkeypatch.setattr(puzzle, "_search", no_states)
    monkeypatch.setattr(flips, "_search", no_states)
    assert reports() == usual
    assert all(r["verdict"] for r in usual[4:])


def test_verify_prop2_rejects_short_cycles():
    with pytest.raises(ValueError):
        verify_prop2(g("c4"))


def test_verify_product_theorem_p2_p3():
    r = verify_product_theorem(g("p2"), g("p3"))
    assert r["verdict"] is True
    assert r["rule"] == "factor-product"
    assert r["witness"]["factor_orders"] == [2, 1]
    assert r["witness"]["predicted_order"] == 2
    assert r["witness"]["copies_respected"] is True
    assert r["peb_order"] == 2


def test_verify_square_lemma_small():
    r = verify_square_lemma(max_n=6, bfs_max_n=5)
    assert r["verdict"] is True
    assert r["rule"] == "replay"
    assert r["witness"]["failures"] == []
    assert r["witness"]["total_moves"] == 0 + 1 + 3 + 8 + 20 + 49


def test_verify_square_lemma_replays_each_certificate_once(monkeypatch):
    # seq_A returns a validated certificate; the sweep must not replay its
    # moves a second time
    calls = []
    validate = squares.MoveCertificate.validate

    def counting(cert):
        calls.append(cert)
        return validate(cert)

    monkeypatch.setattr(squares.MoveCertificate, "validate", counting)
    verify_square_lemma(max_n=6, bfs_max_n=0)
    assert len(calls) == 6


def test_verify_parity_example():
    r = verify_parity_example()
    assert r["verdict"] is True
    assert r["witness"] == {"reachable": 360, "home": 60, "home_even": 60}


# ---------------------------------------------------------------------------
# predicates agree with brute force on small boards

def test_predicates_match_bfs_small():
    from pebblex.classify import _examples_check_graph
    from pebblex.catalog import connected_graphs

    instances = 0
    for n in range(1, 6):
        for board in connected_graphs(n):
            done, bad = _examples_check_graph(board, cap=10**6)
            instances += done
            assert bad == []
    assert instances > 50


@pytest.mark.parametrize("sweep", [verify_flip_lemma, verify_examples_agreement])
def test_sweeps_give_the_same_report_with_two_processes(sweep):
    # the boards themselves go to the worker processes, pickled
    serial = sweep(max_n=6)
    pooled = sweep(max_n=6, jobs=2)
    del serial["elapsed_ms"], pooled["elapsed_ms"]
    assert pooled == serial
    assert serial["verdict"] is True and serial["witness"]["boards"] == 143


def test_importing_the_package_starts_no_process_pool():
    # only a sweep with jobs > 1 reads the process pool, so importing the
    # package and its CLI leaves multiprocessing and its pool unloaded
    import pebblex

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pebblex.__file__).parents[1]))
    code = ("import sys, pebblex, pebblex.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")
