"""Closed-form feasibility tests and verification sweeps.

The predicates here decide feasibility of Puz(board, pebbles) without
search, but only for pebble graphs in a handful of structured families
(one free pebble, k free pebbles plus indistinguishable-in-motion
blanks, two-sided pebbles, multipartite pebbles).  Each predicate
returns a :class:`FeasibilityVerdict` rather than a bare boolean so
callers can see which clause decided the answer and validate the
witness against the graph.  Instances outside a predicate's scope get
``applicable=False`` and ``feasible=None``; they are never guessed at.

The ``verify_*`` functions cross-check the closed forms, the matching
characterization for high-girth boards, the factor decomposition of
exchange groups on product boards, and the two constructive engines
against brute-force search, returning JSON-ready report dicts.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass

from . import puzzle, squares
from .errors import PuzzleError
from .flips import DEFAULT_FLIP_CAP, _flip_bfs, realize_by_flips
from .graphs import (
    cartesian_product,
    complete_multipartite,
    enumerate_matchings,
    girth,
    has_k_isthmus,
    is_2connected,
    is_bipartite,
    is_connected,
    is_cycle,
    is_theta_122,
    relabel_dense,
    star,
)
from .perms import automorphisms, sign

NOT_APPLICABLE = "not applicable"


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a closed-form feasibility test.

    ``rule`` names the clause that decided the verdict: one of
    "cycle", "bipartite", "theta", "k-isthmus", "default" (all clauses
    passed, so feasible), or "not applicable".  ``witness`` carries the
    isthmus path when an isthmus clause fired.
    """

    applicable: bool
    feasible: bool | None
    rule: str
    witness: tuple | None = None

    def as_json(self):
        w = list(self.witness) if isinstance(self.witness, tuple) else self.witness
        return {
            "applicable": self.applicable,
            "feasible": self.feasible,
            "rule": self.rule,
            "witness": w,
        }


def wilson_feasible(g):
    """Feasibility of the one-free-pebble puzzle Puz(g, star(n-1)).

    Scope: 2-connected boards with at least 4 vertices; on the
    3-vertex cycle the one-free-pebble puzzle is feasible even though
    the board is a cycle, so that size is excluded rather than
    misjudged.  Within scope the verdict is exact: infeasible on
    cycles, on bipartite boards, and on the 7-vertex theta graph,
    feasible everywhere else.
    """
    if g.n < 4 or not is_2connected(g):
        return FeasibilityVerdict(False, None, NOT_APPLICABLE)
    if is_cycle(g):
        return FeasibilityVerdict(True, False, "cycle")
    if is_bipartite(g):
        return FeasibilityVerdict(True, False, "bipartite")
    if is_theta_122(g):
        return FeasibilityVerdict(True, False, "theta")
    return FeasibilityVerdict(True, True, "default")


def kms_feasible(g, k):
    """Feasibility with k pebbles that swap freely and n-k blanks that
    never swap with each other (pebble graph: complete multipartite
    with k singleton parts and one part of size n-k).

    Scope: connected non-cycle boards, 2 <= k <= n.  Feasible exactly
    when the board has no k-isthmus.
    """
    n = g.n
    if not (2 <= k <= n) or not is_connected(g) or is_cycle(g):
        return FeasibilityVerdict(False, None, NOT_APPLICABLE)
    w = has_k_isthmus(g, k)
    if w is not None:
        return FeasibilityVerdict(True, False, "k-isthmus", tuple(w))
    return FeasibilityVerdict(True, True, "default")


def bipartite_pebbles_feasible(g, k):
    """Feasibility with two-sided pebbles K_{k,n-k}, 2 <= k <= n/2.

    Feasible exactly when the board is not a cycle, not bipartite, and
    has no k-isthmus.  Out-of-range k raises ValueError.
    """
    n = g.n
    if not 2 <= k <= n // 2:
        raise ValueError(f"pebble part size {k} must satisfy 2 <= k <= n/2 (n={n})")
    if not is_connected(g):
        return FeasibilityVerdict(False, None, NOT_APPLICABLE)
    if is_cycle(g):
        return FeasibilityVerdict(True, False, "cycle")
    if is_bipartite(g):
        return FeasibilityVerdict(True, False, "bipartite")
    w = has_k_isthmus(g, k)
    if w is not None:
        return FeasibilityVerdict(True, False, "k-isthmus", tuple(w))
    return FeasibilityVerdict(True, True, "default")


def multipartite_feasible(g, parts):
    """Feasibility with complete multipartite pebbles K_{n_1,...,n_r},
    r >= 3 parts, every part of size >= 2, sizes summing to n.

    Feasible exactly when the board is not a cycle and has no
    (n - max part)-isthmus.  A malformed partition raises ValueError.
    """
    parts = tuple(sorted(int(p) for p in parts))
    n = g.n
    if len(parts) < 3 or parts[0] < 2 or sum(parts) != n:
        raise ValueError(
            f"need >= 3 parts of size >= 2 summing to {n}, got {parts}"
        )
    if not is_connected(g):
        return FeasibilityVerdict(False, None, NOT_APPLICABLE)
    if is_cycle(g):
        return FeasibilityVerdict(True, False, "cycle")
    k = n - parts[-1]
    w = has_k_isthmus(g, k)
    if w is not None:
        return FeasibilityVerdict(True, False, "k-isthmus", tuple(w))
    return FeasibilityVerdict(True, True, "default")


def pebble_family(h):
    """Recognize a pebble graph as one of the closed-form families.

    Vertices with the same neighborhood form a class.  A graph is
    complete multipartite exactly when each class's size plus its
    neighborhood's size is n: each class is then independent and joined
    to every vertex outside it, so the classes are the parts.  Returns
    (family, parameter):

      ("kms", k)          k singleton parts (+ optionally one bigger part)
      ("wilson", None)    star: one singleton part, one part of size n-1
      ("two-part", k)     two parts, both of size >= 2, k the smaller
      ("multipart", parts) at least three parts, all of size >= 2
      (None, None)        anything else
    """
    classes = Counter(h.adj.values())
    if any(k + len(ns) != h.n for ns, k in classes.items()):
        return None, None
    parts = sorted(classes.values())
    ones = parts.count(1)
    big = [p for p in parts if p >= 2]
    if ones == len(parts):
        return "kms", len(parts)  # complete pebble graph, k = n
    if len(big) == 1 and ones == 1:
        return "wilson", None
    if len(big) == 1 and ones >= 2:
        return "kms", ones
    if not ones and len(big) == 2:
        return "two-part", big[0]
    if not ones and len(big) >= 3:
        return "multipart", tuple(parts)
    return None, None


def classify_instance(board, pebbles):
    """Closed-form verdict for Puz(board, pebbles) when the pebble graph
    matches a known family; (None, not-applicable verdict) otherwise."""
    if board.n != pebbles.n:
        raise ValueError("board and pebble graphs must have the same size")
    fam, arg = pebble_family(pebbles)
    if fam == "wilson":
        return fam, wilson_feasible(board)
    if fam == "kms":
        return fam, kms_feasible(board, arg)
    if fam == "two-part":
        return fam, bipartite_pebbles_feasible(board, arg)
    if fam == "multipart":
        return fam, multipartite_feasible(board, arg)
    return None, FeasibilityVerdict(False, None, NOT_APPLICABLE)


def girth5_reachable_oracle(g):
    """Predicted reachable set of Puz(g, g) from the identity when every
    cycle of g is long (girth >= 5): exactly the configurations that
    swap the endpoints of each edge of a matching and fix the rest."""
    if not is_connected(g):
        raise ValueError("not applicable: the graph must be connected")
    gg = girth(g)
    if gg < 5:
        raise ValueError(f"not applicable: girth {gg} < 5")
    ident = tuple(g.vertices)
    out = set()
    for matching in enumerate_matchings(g):
        cfg = list(ident)
        for u, v in matching:
            iu, iv = g.index_of(u), g.index_of(v)
            cfg[iu], cfg[iv] = cfg[iv], cfg[iu]
        out.add(tuple(cfg))
    return frozenset(out)


def _report(instance, verdict, rule, witness, bfs_states, peb_order, t0):
    return {
        "instance": instance,
        "verdict": bool(verdict),
        "rule": rule,
        "witness": witness,
        "bfs_states": bfs_states,
        "peb_order": peb_order,
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }


def verify_prop2(g, cap=puzzle.DEFAULT_CAP, label=None):
    """Check the high-girth characterization on one board: the reachable
    set of Puz(g, g) must equal the matching configurations, and the
    exchange group must be trivial.  Raises ValueError outside scope."""
    t0 = time.perf_counter()
    g = relabel_dense(g)
    oracle = girth5_reachable_oracle(g)
    auts = automorphisms(g)
    search = puzzle._search(puzzle.puz_on(g), None, cap, probes=[*auts, *oracle])
    hits = set(search.hits)
    peb = [a for a in auts if a in hits]
    # equal sizes, and every oracle configuration reached: equal sets
    same = search.count == len(oracle) and hits.issuperset(oracle)
    verdict = same and peb == [tuple(g.vertices)]
    witness = {"matching_configs": len(oracle), "reachable": search.count}
    return _report(
        label or f"self-puzzle on {g.n} vertices, {g.m} edges",
        verdict,
        "matching-configurations",
        witness,
        search.count,
        len(peb),
        t0,
    )


def verify_product_theorem(g1, g2, cap=puzzle.DEFAULT_CAP, label=None):
    """Check that the exchange group of the product board is exactly the
    coordinatewise products of the factors' exchange groups, and that
    every group element maps factor copies onto factor copies."""
    t0 = time.perf_counter()
    g1, g2 = relabel_dense(g1), relabel_dense(g2)
    prod, coord = cartesian_product(g1, g2)
    n2 = g2.n

    peb1 = puzzle.pebble_exchange_group(g1, cap=cap)
    peb2 = puzzle.pebble_exchange_group(g2, cap=cap)
    group, _, states = puzzle.exchange_group_counts(prod, cap=cap)
    peb_prod = set(group.elements)

    predicted = set()
    for s in peb1.elements:
        for t in peb2.elements:
            f = [0] * prod.n
            for lab, (u, v) in coord.items():
                f[lab - 1] = (s[u - 1] - 1) * n2 + t[v - 1]
            predicted.add(tuple(f))

    claims_ok = True
    for f in peb_prod:
        # image of every g1-copy (fixed second coordinate) must be a
        # g1-copy, and symmetrically for g2-copies
        for b in g2.vertices:
            img = {f[(u - 1) * n2 + b - 1] for u in g1.vertices}
            if len({coord[x][1] for x in img}) != 1:
                claims_ok = False
        for a in g1.vertices:
            img = {f[(a - 1) * n2 + v - 1] for v in g2.vertices}
            if len({coord[x][0] for x in img}) != 1:
                claims_ok = False

    verdict = peb_prod == predicted and claims_ok
    witness = {
        "factor_orders": [peb1.order, peb2.order],
        "predicted_order": len(predicted),
        "copies_respected": claims_ok,
    }
    return _report(
        label or f"product of {g1.n}- and {g2.n}-vertex boards",
        verdict,
        "factor-product",
        witness,
        states,
        len(peb_prod),
        t0,
    )


def verify_square_lemma(max_n=12, bfs_max_n=7, cap=puzzle.DEFAULT_CAP):
    """Build the reversal certificate on every squared path up to max_n,
    replay each one, and confirm the endpoint by brute-force search up
    to bfs_max_n vertices, each search capped at ``cap`` states."""
    t0 = time.perf_counter()
    failures = []
    total_moves = 0
    bfs_states = 0
    for n in range(1, max_n + 1):
        try:
            cert = squares.seq_A(n)  # replayed before it returns
        except PuzzleError as exc:
            failures.append({"n": n, "error": str(exc)})
            continue
        total_moves += len(cert.moves)
        if cert.end != squares.reversal(n):
            failures.append({"n": n, "error": "endpoint is not the reversal"})
        if len(cert.moves) != squares.sequence_length(n):
            failures.append({"n": n, "error": "length formula mismatch"})
        if n <= bfs_max_n:
            search = puzzle._search(cert.puz, None, cap, probes=[cert.end])
            bfs_states += search.count
            if not search.hits:
                failures.append({"n": n, "error": "endpoint not reachable by BFS"})
    witness = {
        "max_n": max_n,
        "bfs_confirmed_up_to": bfs_max_n,
        "total_moves": total_moves,
        "failures": failures,
    }
    return _report(
        f"squared-path reversal certificates, n=1..{max_n}",
        not failures,
        "replay",
        witness,
        bfs_states,
        None,
        t0,
    )


def _over_connected_boards(worker, max_n, jobs, *args):
    """worker(g, *args) for every connected board up to max_n vertices, in
    catalog order; with jobs > 1 the boards go to that many processes."""
    from .catalog import connected_graphs

    boards = [g for n in range(1, max_n + 1) for g in connected_graphs(n)]
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # not paid on import
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, boards, *map(itertools.repeat, args),
                                 chunksize=8))
    return [worker(g, *args) for g in boards]


def _flip_worker(g, oracle_max_n, cap):
    edges = g.edges()
    auts = automorphisms(g)
    reach = (set(_flip_bfs(g, None, cap, probes=auts).hits)
             if g.n <= oracle_max_n else None)
    realized = 0
    confirmed = 0
    fails = []
    for s in auts:
        try:
            realize_by_flips(g, s)
        except (PuzzleError, ValueError) as exc:
            fails.append({"edges": [list(e) for e in edges], "sigma": list(s), "error": str(exc)})
            continue
        realized += 1
        if reach is not None:
            if s in reach:
                confirmed += 1
            else:
                fails.append(
                    {"edges": [list(e) for e in edges], "sigma": list(s), "error": "not flip-reachable per BFS"}
                )
    return len(auts), realized, confirmed, fails


def verify_flip_lemma(max_n=7, oracle_max_n=6, jobs=None, cap=DEFAULT_FLIP_CAP):
    """Realize every automorphism of every connected board up to max_n
    vertices as a flip sequence (each realization is replay-checked),
    and confirm against flip-space BFS up to oracle_max_n vertices, each
    search capped at ``cap`` states."""
    t0 = time.perf_counter()
    results = _over_connected_boards(_flip_worker, max_n, jobs, oracle_max_n, cap)
    total = sum(r[0] for r in results)
    realized = sum(r[1] for r in results)
    confirmed = sum(r[2] for r in results)
    failures = [f for r in results for f in r[3]]
    witness = {
        "boards": len(results),
        "automorphisms": total,
        "realized": realized,
        "oracle_confirmed": confirmed,
        "failures": failures[:10],
    }
    return _report(
        f"flip realization sweep, connected boards n=1..{max_n}",
        not failures,
        "flip-realization",
        witness,
        None,
        None,
        t0,
    )


def _partitions_min2(n):
    """Non-decreasing partitions of n into >= 3 parts, each >= 2."""
    out = []

    def rec(rest, minimum, acc):
        if rest == 0:
            if len(acc) >= 3:
                out.append(tuple(acc))
            return
        for p in range(minimum, rest + 1):
            if rest - p and rest - p < p:
                continue
            rec(rest - p, p, acc + [p])

    rec(n, 2, [])
    return out


def _examples_check_graph(g, cap):
    """All applicable closed-form verdicts vs. BFS on one board.

    Returns (instances, mismatches) where each mismatch records the
    family, parameter, and the two disagreeing answers.
    """
    n = g.n
    rows = []
    v = wilson_feasible(g)
    if v.applicable:
        rows.append(("wilson", None, v, star(n - 1)))
    for k in range(2, n + 1):
        v = kms_feasible(g, k)
        if v.applicable:
            parts = [1] * k + ([n - k] if n > k else [])
            rows.append(("kms", k, v, complete_multipartite(parts)))
    for k in range(2, n // 2 + 1):
        v = bipartite_pebbles_feasible(g, k)
        if v.applicable:
            rows.append(("two-part", k, v, complete_multipartite(k, n - k)))
    for parts in _partitions_min2(n):
        v = multipartite_feasible(g, parts)
        if v.applicable:
            rows.append(("multipart", parts, v, complete_multipartite(parts)))

    mismatches = []
    # kms with k = n - 1 and with k = n both give K_n: one search per graph
    bfs_of = {p: puzzle.is_feasible(puzzle.Puz(g, p), cap=cap)
              for p in dict.fromkeys(row[3] for row in rows)}
    for family, param, verdict, pebbles in rows:
        bfs = bfs_of[pebbles]
        if bfs != verdict.feasible:
            mismatches.append(
                {
                    "edges": [list(e) for e in g.edges()],
                    "family": family,
                    "param": list(param) if isinstance(param, tuple) else param,
                    "predicate": verdict.feasible,
                    "bfs": bfs,
                }
            )
    return len(rows), mismatches


def verify_examples_agreement(max_n=7, cap=puzzle.DEFAULT_CAP, jobs=None):
    """Compare every applicable closed-form verdict against brute-force
    feasibility over the exhaustive connected catalog up to max_n."""
    t0 = time.perf_counter()
    results = _over_connected_boards(_examples_check_graph, max_n, jobs, cap)
    instances = sum(r[0] for r in results)
    mismatches = [m for r in results for m in r[1]]
    witness = {
        "boards": len(results),
        "instances": instances,
        "mismatches": mismatches[:10],
    }
    return _report(
        f"closed-form predicates vs BFS, connected boards n=1..{max_n}",
        not mismatches,
        "predicates-vs-bfs",
        witness,
        None,
        None,
        t0,
    )


def verify_parity_example(cap=puzzle.DEFAULT_CAP):
    """One-free-pebble puzzle on the 2x3 grid: the reachable set has
    exactly half of 6! = 720 configurations, and the ones with the free
    pebble back home are exactly the even rearrangements of the rest."""
    from .graphs import path

    t0 = time.perf_counter()
    board, _ = cartesian_product(path(2), path(3))
    pebbles = star(5)
    reach = puzzle.reachable_set(puzzle.Puz(board, pebbles), cap=cap)
    home = [cfg for cfg in reach if cfg[0] == 1]
    evens = sum(1 for cfg in home if sign(tuple(x - 1 for x in cfg[1:])) == 1)
    verdict = len(reach) == 360 and len(home) == 60 and evens == len(home)
    witness = {"reachable": len(reach), "home": len(home), "home_even": evens}
    return _report(
        "one free pebble on the 2x3 grid",
        verdict,
        "parity",
        witness,
        len(reach),
        None,
        t0,
    )
