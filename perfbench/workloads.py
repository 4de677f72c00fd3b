"""The three workloads: how each builds its items from a seed, runs one
item against the public API of pebblex, and checks the outcome.

Every call into the package goes through a module attribute looked up at
call time (``px.puzzle.reachable_count``, ``px.cli.main``), so the traced
run sees the same calls as the untraced one.  ``run`` is what gets timed;
``check`` runs outside the timed region and raises ``CheckFailed``.
``setup`` times only its calls into the package, with the ``timed``
stopwatch it is given: the references it derives are the benchmark's own
work and stay out of ``setup_s``.  It leaves ``items`` in the seed's order
and ``build_order``, the indices of ``items`` in the order they were built,
which does not depend on the seed's shuffle.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import reference as ref
from reference import CheckFailed


@dataclass
class Item:
    """One unit of work.  ``key`` is a deterministic, printable identity."""

    key: tuple
    data: dict = field(default_factory=dict)


class Stopwatch:
    """Adds up the time spent inside its ``with`` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0


def _shuffle(units, rng):
    """``units`` in a seeded order, and each unit's position in that order,
    listed in the original order."""
    order = list(range(len(units)))
    rng.shuffle(order)
    return [units[i] for i in order], sorted(range(len(order)), key=order.__getitem__)


def _stratified_sample(graphs, count, rng):
    """One seeded pick from each of ``count`` consecutive strata of the
    graphs ordered by edge count, so every sample spans sparse to dense."""
    order = sorted(range(len(graphs)), key=lambda i: (graphs[i].m, i))
    picks = []
    for s in range(count):
        lo = s * len(order) // count
        hi = (s + 1) * len(order) // count
        picks.append(order[rng.randrange(lo, hi)])
    return sorted(picks)


def _adj(g):
    return ref.adjacency(g.n, g.edges())


def _catalog_failures(px, family, counts, sizes):
    fn = getattr(px.catalog, family)
    out = []
    for n in sizes:
        got = len(fn(n))
        if got != counts[n]:
            out.append(f"{family}({n}) has {got} graphs, expected {counts[n]}")
    return out


# ---------------------------------------------------------------------------
# feasibility_sweep

class FeasibilitySweep:
    """Closed-form feasibility verdicts against configuration search."""

    name = "feasibility_sweep"
    SEVEN_VERTEX_BOARDS = 16
    PREDICATES = {
        "wilson": "wilson_feasible",
        "kms": "kms_feasible",
        "two-part": "bipartite_pebbles_feasible",
        "multipart": "multipartite_feasible",
    }

    def setup(self, px, workdir, seed, timed):
        rng = random.Random(seed)
        with timed:
            sevens = px.catalog.connected_graphs(7)
            boards = [g for n in range(2, 7) for g in px.catalog.connected_graphs(n)]
        boards += [sevens[i] for i in
                   _stratified_sample(sevens, self.SEVEN_VERTEX_BOARDS, rng)]
        items = []
        for board in boards:
            n = board.n
            for family, param in ref.applicable_forms(_adj(board)):
                if family == "wilson":
                    parts = (1, n - 1)
                elif family == "kms":
                    parts = (1,) * param + ((n - param,) if n > param else ())
                elif family == "two-part":
                    parts = (param, n - param)
                else:
                    parts = param
                with timed:
                    pebbles = px.graphs.complete_multipartite(parts)
                items.append(Item((n, tuple(board.edges()), family, param),
                                  {"board": board, "parts": parts, "pebbles": pebbles}))
        self.items, self.build_order = _shuffle(items, rng)

    def verify_setup(self, px):
        out = _catalog_failures(px, "connected_graphs", ref.CONNECTED_COUNTS,
                                range(1, 8))
        fixed = sum(1 for it in self.items if it.key[0] <= 6)
        if fixed != ref.FIXED_FEASIBILITY_ITEMS:
            out.append(f"{fixed} instances on boards up to 6 vertices, "
                       f"expected {ref.FIXED_FEASIBILITY_ITEMS}")
        return out

    def run(self, px, item):
        d = item.data
        family, param = item.key[2], item.key[3]
        predicate = getattr(px.classify, self.PREDICATES[family])
        verdict = (predicate(d["board"]) if family == "wilson"
                   else predicate(d["board"], param))
        states = px.puzzle.reachable_count(px.puzzle.Puz(d["board"], d["pebbles"]))
        return verdict.applicable, verdict.feasible, states

    def check(self, item, result):
        applicable, feasible, states = result
        n = item.key[0]
        if applicable is not True:
            raise CheckFailed(f"{item.key}: closed form says not applicable")
        if feasible is not (states == math.factorial(n)):
            raise CheckFailed(
                f"{item.key}: closed form says {feasible}, search reached "
                f"{states} of {math.factorial(n)}")
        if n <= 5:
            want = item.data.get("ref_states")
            if want is None:
                board = ref.adjacency(n, item.key[1])
                want = len(ref.reachable_count(board, ref.multipartite(item.data["parts"])))
                item.data["ref_states"] = want
            if states != want:
                raise CheckFailed(f"{item.key}: search reached {states}, "
                                  f"reference BFS {want}")


# ---------------------------------------------------------------------------
# synthesis_sweep

class SynthesisSweep:
    """Certificates compiled from automorphisms, plus the flip-space oracle."""

    name = "synthesis_sweep"
    RANDOM_BOARDS = 24
    # a seeded sample of at most this many automorphisms per board, so that
    # the 5040 of the 8-vertex star do not make up most of the sweep
    MAX_AUTOMORPHISMS = 60
    # the flip-space oracle samples six-vertex boards with at most 11 edges:
    # the four densest take 0.9-2.2 s each, so one seeded pick among them
    # would move a whole pass by a fifth
    SIX_VERTEX_ORACLES = 8
    ORACLE_MAX_EDGES = 11

    def setup(self, px, workdir, seed, timed):
        rng = random.Random(seed)
        with timed:
            trees = [t for n in range(1, 9) for t in px.catalog.trees(n)]
            connected = [g for n in range(1, 7) for g in px.catalog.connected_graphs(n)]
            randoms = px.catalog.random_connected_graphs(
                self.RANDOM_BOARDS, seed=seed, sizes=(5, 6, 7, 8))
        self.boards = trees + connected + randoms
        self.tree_count, self.connected_count = len(trees), len(connected)
        board_dir = os.path.join(workdir, "boards")
        os.makedirs(board_dir, exist_ok=True)
        items = []
        self.auts = []
        for b, board in enumerate(self.boards):
            desc = os.path.join(board_dir, f"b{b}.g")
            with timed:
                text = px.graphs.format_graph(board)
                auts = px.perms.automorphisms(board)
            with open(desc, "w") as fh:
                fh.write(text)
            self.auts.append(auts)
            if len(auts) > self.MAX_AUTOMORPHISMS:
                auts = sorted(rng.sample(auts, self.MAX_AUTOMORPHISMS))
            items += [Item(("compile", b, sigma), {"desc": desc + "^2"})
                      for sigma in auts]
        six = [i for i, g in enumerate(connected)
               if g.n == 6 and g.m <= self.ORACLE_MAX_EDGES]
        picks = [six[i] for i in _stratified_sample(
            [connected[i] for i in six], self.SIX_VERTEX_ORACLES, rng)]
        oracle = [i for i, g in enumerate(connected) if g.n <= 5] + picks
        items += [Item(("oracle", len(trees) + i)) for i in oracle]
        self.items, self.build_order = _shuffle(items, rng)
        self._ref_cache = {}

    def verify_setup(self, px):
        out = _catalog_failures(px, "trees", ref.TREE_COUNTS, range(1, 9))
        out += _catalog_failures(px, "connected_graphs", ref.CONNECTED_COUNTS,
                                 range(1, 7))
        totals = {}
        for b, board in enumerate(self.boards[: self.tree_count + self.connected_count]):
            kind = "tree" if b < self.tree_count else "connected"
            totals[kind, board.n] = totals.get((kind, board.n), 0) + len(self.auts[b])
        for kind, table in (("tree", ref.TREE_AUT_TOTALS),
                            ("connected", ref.CONNECTED_AUT_TOTALS)):
            for n, want in table.items():
                if totals.get((kind, n)) != want:
                    out.append(f"{kind} boards on {n} vertices have "
                               f"{totals.get((kind, n))} automorphisms, expected {want}")
        for b in range(self.tree_count + self.connected_count, len(self.boards)):
            adj = _adj(self.boards[b])
            auts = self.auts[b]
            n = len(adj)
            if (len(set(auts)) != len(auts) or tuple(range(1, n + 1)) not in auts
                    or not all(ref.is_automorphism(adj, p) for p in auts)
                    or math.factorial(n) % len(auts)):
                out.append(f"random board {b}: automorphism list fails the group checks")
        return out

    def run(self, px, item):
        board = self.boards[item.key[1]]
        if item.key[0] == "oracle":
            return px.flips.flip_reachable_set(board)
        sq = px.squares
        cert = sq.compile_automorphism_to_square_moves(
            board, item.key[2], board_desc=item.data["desc"])
        cert.validate()
        text = sq.format_certificate(cert)
        back = sq.parse_certificate(text)
        return cert.end, cert.moves, text, (back.start, back.end, back.moves)

    def _board_ref(self, b):
        hit = self._ref_cache.get(b)
        if hit is None:
            adj = _adj(self.boards[b])
            hit = self._ref_cache[b] = {"adj": adj, "square": ref.square(adj)}
        return hit

    def check(self, item, result):
        b = item.key[1]
        r = self._board_ref(b)
        adj = r["adj"]
        n = len(adj)
        if item.key[0] == "oracle":
            if "auts" not in r:
                r["auts"] = ref.automorphisms(adj)
                r["size"] = ref.FLIP_REACHABLE_SIZES.get(ref.canonical_text(adj))
            if len(result) != r["size"]:
                raise CheckFailed(f"board {b}: {len(result)} flip-reachable "
                                  f"permutations, reference {r['size']}")
            missing = [p for p in r["auts"] if p not in result]
            if missing:
                raise CheckFailed(f"board {b}: automorphism {missing[0]} not flip-reachable")
            return
        sigma = item.key[2]
        end, moves, text, back = result
        ident = tuple(range(1, n + 1))
        if end != sigma:
            raise CheckFailed(f"board {b} {sigma}: certificate ends at {end}")
        if ref.replay_moves(r["square"], r["square"], ident, moves) != sigma:
            raise CheckFailed(f"board {b} {sigma}: moves do not realize sigma")
        header, start, t_end, t_moves = ref.parse_certificate_text(text)
        want_head = f"board={item.data['desc']} pebbles={item.data['desc']}"
        if (header, start, t_end, t_moves) != (want_head, ident, sigma, list(moves)):
            raise CheckFailed(f"board {b} {sigma}: wire text does not match the certificate")
        if back != (ident, sigma, tuple(moves)):
            raise CheckFailed(f"board {b} {sigma}: parsed certificate differs")


# ---------------------------------------------------------------------------
# cli_queries

# (board, pebbles, closed-form family of the pebble graph, its parameter);
# pebble descriptors starting with "K" name complete multipartite graphs
# written to files during set-up
FEASIBILITY_PAIRS = (
    ("c6", "star5", "wilson", None), ("k4", "star3", "wilson", None),
    ("grid2x3", "star5", "wilson", None), ("theta122", "star6", "wilson", None),
    ("p5^2", "star4", "wilson", None), ("q3", "star7", "wilson", None),
    ("k5", "star4", "wilson", None), ("p6^2", "star5", "wilson", None),
    ("p4", "star3", "wilson", None), ("star3", "star3", "wilson", None),
    ("p5", "k5", "kms", 5), ("star4", "k5", "kms", 5), ("p6", "k6", "kms", 6),
    ("c5", "k5", "kms", 5),
    ("k5", "K2_3", "two-part", 2), ("c5", "K2_3", "two-part", 2),
    ("p5^2", "K2_3", "two-part", 2), ("grid2x3", "K3_3", "two-part", 3),
    ("k6", "K3_3", "two-part", 3),
    ("k6", "K2_2_2", "multipart", (2, 2, 2)),
    ("p6^2", "K2_2_2", "multipart", (2, 2, 2)),
    ("c6", "K2_2_2", "multipart", (2, 2, 2)),
    ("grid2x3", "K2_2_2", "multipart", (2, 2, 2)),
    ("p5^2", "p5^2", None, None), ("c5", "c5", None, None),
    ("q3", "q3", None, None), ("grid2x3", "c6", None, None),
    ("p6^2", "c6", None, None), ("theta122", "p7", None, None),
)
# the largest search of the corpus: 245,690 configurations
BIG_SEARCH = ("p9^2", "p9^2")
EQUIVALENCE_BOARDS = (("p4", "p4"), ("c5", "c5"), ("q2", "q2"), ("star3", "k4"),
                      ("p5^2", "p5^2"), ("grid2x3", "star5"), ("c6", "c6"),
                      ("k4", "p4"), ("p6", "k6"), ("theta122", "theta122"))
EQUIVALENCE_QUERIES = 6
MULTIPARTITE_FILES = {"K2_3": (2, 3), "K3_3": (3, 3), "K2_2_2": (2, 2, 2)}
BOWTIE = (5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


def graph_of(desc, files):
    """Reference adjacency for a descriptor the corpus uses."""
    if desc in files:
        return files[desc]
    if desc.endswith("^2"):
        return ref.square(graph_of(desc[:-2], files))
    if desc == "theta122":
        return ref.theta122()
    if desc.startswith("grid"):
        a, b = desc[4:].split("x")
        return ref.grid(int(a), int(b))
    for prefix, build in (("star", ref.star), ("p", ref.path), ("c", ref.cycle),
                          ("k", ref.complete), ("q", ref.hypercube)):
        if desc.startswith(prefix) and desc[len(prefix):].isdigit():
            return build(int(desc[len(prefix):]))
    raise KeyError(desc)


def _perm_text(p):
    return " ".join(map(str, p))


class CliQueries:
    """A fixed corpus of in-process command-line invocations."""

    name = "cli_queries"

    def setup(self, px, workdir, seed, timed):
        """The corpus is built from references alone: no package call to time."""
        rng = random.Random(seed)
        gdir = os.path.join(workdir, "graphs")
        cdir = os.path.join(workdir, "certs")
        os.makedirs(gdir, exist_ok=True)
        os.makedirs(cdir, exist_ok=True)
        files = {}
        descs = {}
        for name, parts in MULTIPARTITE_FILES.items():
            descs[name] = os.path.join(gdir, f"{name}.g")
            files[descs[name]] = ref.multipartite(parts)
        descs["bowtie"] = os.path.join(gdir, "bowtie.g")
        files[descs["bowtie"]] = ref.adjacency(*BOWTIE)
        for path, adj in files.items():
            es = ref.edge_list(adj)
            with open(path, "w") as fh:
                fh.write(f"{len(adj)} {len(es)}\n" + "".join(f"{u} {v}\n" for u, v in es))
        bad_flips = os.path.join(cdir, "malformed.flips")
        with open(bad_flips, "w") as fh:
            fh.write("2\n1 1 2\n")
        self.files = files
        units = []

        def cmd(argv, code, expect=None, **extra):
            return Item(tuple(argv), dict(code=code, expect=expect or {}, **extra))

        for n in range(2, 15):
            out = os.path.join(cdir, f"rev{n}.cert")
            rev = list(range(n, 0, -1))
            L = ref.reversal_length(n)
            units.append([
                cmd(["reverse-square", "--n", str(n), "--out", out], 0,
                    {"moves": L, "length_formula": L, "final": rev},
                    cert=(out, f"p{n}^2", f"p{n}^2")),
                cmd(["replay", "--cert", out], 0,
                    {"moves": L, "final": rev, "start": list(range(1, n + 1))}),
            ])
        for n in range(2, 6):
            out = os.path.join(cdir, f"rev{n}-bfs.cert")
            rev = list(range(n, 0, -1))
            units.append([
                cmd(["reverse-square", "--n", str(n), "--via", "bfs", "--out", out],
                    0, {"final": rev}, cert=(out, f"p{n}^2", f"p{n}^2")),
                cmd(["replay", "--cert", out], 0, {"final": rev}),
            ])
        for d in ("c5", "q2", "star3", "p6", "theta122", "c6", "grid2x3", "bowtie"):
            desc = descs.get(d, d)
            for i, sigma in enumerate(ref.automorphisms(graph_of(desc, files))):
                out = os.path.join(cdir, f"cmp-{d}-{i}.cert")
                units.append([
                    cmd(["compile-square", "--graph", desc, "--perm", _perm_text(sigma),
                         "--out", out], 0, {"final": list(sigma)},
                        cert=(out, desc + "^2", desc + "^2")),
                    cmd(["replay", "--cert", out], 0, {"final": list(sigma)}),
                ])
        for d in ("c5", "q2", "star3", "k4"):
            for i, sigma in enumerate(ref.automorphisms(graph_of(d, files))):
                out = os.path.join(cdir, f"flip-{d}-{i}.flips")
                units.append([
                    cmd(["flips", "--graph", d, "--perm", _perm_text(sigma),
                         "--out", out], 0, {"permutation": list(sigma)},
                        flips=(out, d, sigma)),
                    cmd(["replay-flips", "--graph", d, "--cert", out], 0,
                        {"permutation": list(sigma)}),
                ])
        for d, order in ref.AUT_ORDERS.items():
            units.append([cmd(["aut", "--graph", d], 0, {"aut_order": order})])
            if order <= 48:
                units.append([cmd(["aut", "--graph", d, "--elements"], 0,
                                  {"aut_order": order}, elements=order)])
        for d, (peb, states) in ref.PEB.items():
            for extra in ([], ["--elements"]):
                units.append([cmd(["peb", "--graph", d] + extra, 0,
                                  {"peb_order": peb, "bfs_states": states,
                                   "aut_order": ref.AUT_ORDERS[d]},
                                  elements=peb if extra else None)])
        for board, pebbles, family, param in FEASIBILITY_PAIRS:
            b_adj = graph_of(board, files)
            n = len(b_adj)
            feasible = ref.REACHABLE[board, pebbles] == math.factorial(n)
            applicable = (family, param) in ref.applicable_forms(b_adj)
            pd = descs.get(pebbles, pebbles)
            expect = {"family": family, "verdict": feasible}
            if not applicable:
                expect.update(rule="bfs", bfs_states=ref.REACHABLE[board, pebbles])
            units.append([cmd(["feasible", "--board", board, "--pebbles", pd],
                              0 if feasible else 1, expect)])
            units.append([cmd(
                ["classify", "--board", board, "--pebbles", pd],
                1 if applicable and not feasible else 0,
                {"family": family, "applicable": applicable,
                 "feasible": feasible if applicable else None})])
        for board, pebbles in EQUIVALENCE_BOARDS:
            b_adj, p_adj = graph_of(board, files), graph_of(pebbles, files)
            n = len(b_adj)
            for _ in range(EQUIVALENCE_QUERIES):
                f1 = list(range(1, n + 1))
                rng.shuffle(f1)
                f2 = list(f1)
                if rng.random() < 0.5:
                    rng.shuffle(f2)
                else:  # a random legal walk, so about half the answers are yes
                    for _ in range(3 * n):
                        x1, x2 = rng.choice(ref.edge_list(b_adj))
                        if f2[x2 - 1] in p_adj[f2[x1 - 1]]:
                            f2[x1 - 1], f2[x2 - 1] = f2[x2 - 1], f2[x1 - 1]
                units.append([cmd(["equivalent", "--board", board, "--pebbles", pebbles,
                                   "--from", _perm_text(f1), "--to", _perm_text(f2)],
                                  None, {"from": f1, "to": f2},
                                  equivalent=(board, pebbles, tuple(f1), tuple(f2)))])
        for argv in (["aut", "--graph", "nosuch"],
                     ["compile-square", "--graph", "c5", "--perm", "1 2 3"],
                     ["flips", "--graph", "p4", "--perm", "2 1 3 4"],
                     ["replay", "--cert", os.path.join(cdir, "missing.cert")],
                     ["replay-flips", "--graph", "c5", "--cert", bad_flips],
                     ["equivalent", "--board", "p3", "--pebbles", "p3",
                      "--from", "1 2 2", "--to", "1 2 3"],
                     ["reverse-square", "--n", "20"],
                     ["feasible", "--board", "p3", "--pebbles", "p4"],
                     ["peb"]):
            units.append([cmd(argv, 2, None, error=True)])
        board, pebbles = BIG_SEARCH
        units.append([cmd(["feasible", "--board", board, "--pebbles", pebbles], 1,
                          {"family": None, "verdict": False,
                           "bfs_states": ref.REACHABLE[BIG_SEARCH]})])
        units, unit_order = _shuffle(units, rng)
        self.items = [it for unit in units for it in unit]
        first = list(itertools.accumulate((len(u) for u in units), initial=0))
        self.build_order = [first[u] + k for u in unit_order for k in range(len(units[u]))]

    def verify_setup(self, px):
        return []

    def run(self, px, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = px.cli.main(list(item.key) + ["--no-timing"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, item, result):
        code, out, err = result
        d = item.data
        if d.get("error"):
            if code != d["code"] or out or not err.startswith(("error:", "usage:")):
                raise CheckFailed(f"{item.key}: exit {code}, stderr {err[:80]!r}")
            return
        if d["code"] is None:  # an equivalence query, answered on its first check
            board, pebbles, f1, f2 = d["equivalent"]
            verdict = f2 in ref.reachable_count(graph_of(board, self.files),
                                                graph_of(pebbles, self.files), start=f1)
            d["code"] = 0 if verdict else 1
            d["expect"]["verdict"] = verdict
        if code != d["code"]:
            raise CheckFailed(f"{item.key}: exit {code}, expected {d['code']}: {err[:120]}")
        report = json.loads(out)
        if "elapsed_ms" in json.dumps(report):
            raise CheckFailed(f"{item.key}: timing field despite --no-timing")
        for k, want in d["expect"].items():
            if report.get(k) != want:
                raise CheckFailed(f"{item.key}: {k}={report.get(k)!r}, expected {want!r}")
        if d.get("elements") is not None and len(report["elements"]) != d["elements"]:
            raise CheckFailed(f"{item.key}: {len(report['elements'])} elements")
        if "cert" in d:
            path, board, pebbles = d["cert"]
            with open(path) as fh:
                header, start, end, moves = ref.parse_certificate_text(fh.read())
            if header != f"board={board} pebbles={pebbles}":
                raise CheckFailed(f"{item.key}: certificate header {header!r}")
            sq = graph_of(board, self.files)
            if ref.replay_moves(sq, graph_of(pebbles, self.files), start, moves) != end:
                raise CheckFailed(f"{item.key}: certificate does not replay")
            if list(end) != report["final"]:
                raise CheckFailed(f"{item.key}: certificate end differs from report")
        if "flips" in d:
            path, board, sigma = d["flips"]
            with open(path) as fh:
                flips = ref.parse_flip_text(fh.read())
            if ref.replay_flips(graph_of(board, self.files), flips) != tuple(sigma):
                raise CheckFailed(f"{item.key}: flip file does not realize {sigma}")


WORKLOADS = {w.name: w for w in (FeasibilitySweep, SynthesisSweep, CliQueries)}
