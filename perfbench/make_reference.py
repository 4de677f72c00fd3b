"""Recompute the expected values in reference.py with the brute-force oracle.

    python3 perfbench/make_reference.py [--skip-big]

Counts come from ``scripts/oracle_values.py``, which shares no code with
the package; the package's catalog only lists the boards to count over.
Prints the constants for reference.py and rewrites
``perfbench/flip_reachable_sizes.json``.  ``--skip-big`` leaves out the
245,690-state search, the slowest of the brute-force counts.
"""

import importlib.util
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from pebblex import catalog  # noqa: E402


def load_oracle():
    spec = importlib.util.spec_from_file_location(
        "oracle_values", os.path.join(ROOT, "scripts", "oracle_values.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def main():
    oracle = load_oracle()
    skip_big = "--skip-big" in sys.argv

    def adj(g):
        return ref.adjacency(g.n, g.edges())

    tree_totals = {n: sum(oracle.automorphism_count(adj(t)) for t in catalog.trees(n))
                   for n in range(1, 9)}
    conn_totals = {n: sum(oracle.automorphism_count(adj(g))
                          for g in catalog.connected_graphs(n)) for n in range(1, 7)}
    print("TREE_AUT_TOTALS =", tree_totals)
    print("CONNECTED_AUT_TOTALS =", conn_totals)
    print("FIXED_FEASIBILITY_ITEMS =", sum(
        len(ref.applicable_forms(adj(g)))
        for n in range(2, 7) for g in catalog.connected_graphs(n)))

    files = {name: ref.multipartite(parts)
             for name, parts in workloads.MULTIPARTITE_FILES.items()}
    aut = {}
    for d, want in ref.AUT_ORDERS.items():
        g = workloads.graph_of(d, files)
        # q4 has 16! relabelings; its order 2^4 * 4! is taken from theory
        aut[d] = oracle.automorphism_count(g) if len(g) <= 8 else want
    print("AUT_ORDERS =", aut)
    print("PEB =", {d: (oracle.peb_order(workloads.graph_of(d, files)),
                        len(oracle.puzzle_bfs(workloads.graph_of(d, files),
                                              workloads.graph_of(d, files))))
                    for d in ref.PEB})
    pairs = [(b, p) for b, p, _, _ in workloads.FEASIBILITY_PAIRS]
    pairs += [] if skip_big else [workloads.BIG_SEARCH]
    reach = {}
    for b, p in pairs:
        reach[b, p] = len(oracle.puzzle_bfs(workloads.graph_of(b, files),
                                            workloads.graph_of(p, files)))
        print(f"  reachable {b} / {p}: {reach[b, p]} of "
              f"{math.factorial(len(workloads.graph_of(b, files)))}", flush=True)
    print("REACHABLE =", reach)

    sizes = {}
    for n in range(1, 7):
        for g in catalog.connected_graphs(n):
            sizes[ref.canonical_text(adj(g))] = len(oracle.flip_reachable(adj(g)))
    with open(os.path.join(HERE, "flip_reachable_sizes.json"), "w") as fh:
        json.dump(sizes, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(sizes)} flip-reachable sizes")


if __name__ == "__main__":
    main()
