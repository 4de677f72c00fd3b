"""Spans around the public functions of each pebblex layer.

The package is not edited: ``Tracer.install`` replaces every binding of a
traced function, in every loaded ``pebblex`` module, with a wrapper that
records a span (name, parent, start, end, count, failed).  A caller that
imported the name into its own module (``cli`` imports
``pebble_exchange_group``) is caught at that binding, so calls between
layers are attributed as the caller makes them.  Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import json
import sys
import time


def _length(result, args):
    return len(result)


def _number(result, args):
    return result if isinstance(result, int) else len(result)


def _applicable(result, args):
    verdict = result[1] if isinstance(result, tuple) else result
    return int(verdict.applicable)


def _states(result, args):
    return len(result) if isinstance(result, frozenset) else 0


def _moves(result, args):
    return len(result.moves)


def _validated_moves(result, args):
    return len(args[0].moves)


def _wire_bytes(result, args):
    return len(result) if isinstance(result, str) else len(args[0])


# span name -> (module, traced attributes, count extractor)
LAYERS = {
    "catalog.generate": ("catalog", ("connected_graphs", "trees", "girth5_graphs"), _length),
    "classify.closed_form": ("classify", (
        "classify_instance", "wilson_feasible", "kms_feasible",
        "bipartite_pebbles_feasible", "multipartite_feasible"), _applicable),
    "puzzle.count": ("puzzle", ("reachable_count", "reachable_set"), _number),
    "puzzle.group": ("puzzle", ("pebble_exchange_group",), None),
    "puzzle.equivalent": ("puzzle", ("equivalent",), None),
    "puzzle.witness": ("puzzle", ("bfs_witness",), None),
    "perms.automorphisms": ("perms", ("automorphisms", "automorphisms_dict"), _length),
    "flips.realize": ("flips", ("realize_by_flips",), _length),
    "flips.oracle": ("flips", ("flip_reachable_set", "flip_bfs_oracle",
                               "flip_bfs_witness"), _states),
    "squares.compile": ("squares", ("compile_automorphism_to_square_moves",), _moves),
    "squares.seq": ("squares", ("seq_A", "seq_B", "seq_C"), _moves),
    "squares.validate": ("squares", ("MoveCertificate.validate",), _validated_moves),
    "squares.wire": ("squares", ("format_certificate", "parse_certificate"), _wire_bytes),
    "cli.main": ("cli", ("main",), None),
}
ITEM_SPAN = "bench.item"

# NAME, PARENT, START, END, COUNT, FAILED, OUTERMOST (no enclosing span of
# the same name), ITEM (index of the benchmark item being run, or -1)
NAME, PARENT, START, END, COUNT, FAILED, OUTER, ITEM = range(8)


class Tracer:
    def __init__(self, px):
        self.px = px
        self.spans = []
        self._stack = []
        self._open = {}
        self._undo = []
        self.item = -1

    def _wrap(self, name, fn, counter):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0, False,
                   not open_names.get(name), self.item]
            stack.append(len(spans))
            spans.append(rec)
            open_names[name] = open_names.get(name, 0) + 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                open_names[name] -= 1
            if counter is not None:
                rec[COUNT] = counter(result, args)
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "pebblex" or k.startswith("pebblex.")]
        for name, (modname, attrs, counter) in LAYERS.items():
            home = getattr(self.px, modname)
            for attr in attrs:
                if "." in attr:  # a method: patch the class attribute
                    cls_name, meth = attr.split(".")
                    owner = getattr(home, cls_name)
                    orig = owner.__dict__[meth]
                    setattr(owner, meth, self._wrap(name, orig, counter))
                    self._undo.append((owner, meth, orig))
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(name, orig, counter)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def item_span(self, index):
        """The benchmark's own span around one item: layer spans of that
        item get it as their root and carry its index."""
        rec = [ITEM_SPAN, -1, time.perf_counter(), 0.0, 0, False, True, index]
        self.item = index
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self.item = -1

    def dump(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start": s[START], "end": s[END], "count": s[COUNT],
                    "failed": s[FAILED], "item": s[ITEM],
                }) + "\n")


def unit_of(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "bytes" if metric.endswith(".bytes") else "count"


def layer_metrics(spans):
    """Per-layer numbers from a span list: calls, busy time (outermost spans
    of a name), self time (minus direct child spans), counts and failures."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    agg = {name: {"calls": 0, "busy": 0.0, "self": 0.0, "count": 0} for name in LAYERS}
    failed = {name.split(".")[0]: 0 for name in LAYERS}
    for i, s in enumerate(spans):
        a = agg.get(s[NAME])
        if a is None:
            continue
        dur = s[END] - s[START]
        a["self"] += dur - child[i]
        if s[OUTER]:
            a["calls"] += 1
            a["busy"] += dur
            a["count"] += s[COUNT]
            failed[s[NAME].split(".")[0]] += s[FAILED]

    def rate(count, busy):
        return count / busy if busy > 0 else 0.0

    a = agg
    m = {
        "catalog.generate.busy_s": a["catalog.generate"]["busy"],
        "catalog.generate.graphs": a["catalog.generate"]["count"],
        "classify.closed_form.calls": a["classify.closed_form"]["calls"],
        "classify.closed_form.busy_s": a["classify.closed_form"]["busy"],
        "classify.closed_form.applicable_ratio": (
            a["classify.closed_form"]["count"] / a["classify.closed_form"]["calls"]
            if a["classify.closed_form"]["calls"] else 0.0),
    }
    for key in ("count", "group", "equivalent"):
        m[f"puzzle.{key}.calls"] = a[f"puzzle.{key}"]["calls"]
        m[f"puzzle.{key}.busy_s"] = a[f"puzzle.{key}"]["busy"]
    m["puzzle.count.states"] = a["puzzle.count"]["count"]
    m["puzzle.count.states_per_s"] = rate(a["puzzle.count"]["count"], a["puzzle.count"]["busy"])
    m["puzzle.witness.busy_s"] = a["puzzle.witness"]["busy"]
    m["perms.automorphisms.calls"] = a["perms.automorphisms"]["calls"]
    m["perms.automorphisms.busy_s"] = a["perms.automorphisms"]["busy"]
    m["perms.automorphisms.found"] = a["perms.automorphisms"]["count"]
    m["flips.realize.calls"] = a["flips.realize"]["calls"]
    m["flips.realize.busy_s"] = a["flips.realize"]["busy"]
    m["flips.realize.flips"] = a["flips.realize"]["count"]
    m["flips.oracle.calls"] = a["flips.oracle"]["calls"]
    m["flips.oracle.busy_s"] = a["flips.oracle"]["busy"]
    m["flips.oracle.states"] = a["flips.oracle"]["count"]
    m["flips.oracle.states_per_s"] = rate(a["flips.oracle"]["count"], a["flips.oracle"]["busy"])
    m["squares.compile.calls"] = a["squares.compile"]["calls"]
    m["squares.compile.self_s"] = a["squares.compile"]["self"]
    m["squares.compile.moves"] = a["squares.compile"]["count"]
    m["squares.seq.busy_s"] = a["squares.seq"]["busy"]
    m["squares.seq.moves"] = a["squares.seq"]["count"]
    m["squares.validate.busy_s"] = a["squares.validate"]["busy"]
    m["squares.validate.moves_per_s"] = rate(a["squares.validate"]["count"],
                                             a["squares.validate"]["busy"])
    m["squares.wire.busy_s"] = a["squares.wire"]["busy"]
    m["squares.wire.bytes"] = a["squares.wire"]["count"]
    m["cli.main.calls"] = a["cli.main"]["calls"]
    m["cli.main.self_s"] = a["cli.main"]["self"]
    for layer, n in failed.items():
        m[f"{layer}.failed"] = n
    return m


def roll_call(px, workdir):
    """One small call into every traced layer, so each wrapper is shown to
    be attached on every workload.  Returns a list of wrong answers."""
    g = px.graphs.path(3)
    puz = px.puzzle.puz_on(g)
    ident, rev = (1, 2, 3), (3, 2, 1)
    wrong = []

    def expect(what, got, want):
        if got != want:
            wrong.append(f"roll call {what}: {got!r}, expected {want!r}")

    expect("connected_graphs(3)", len(px.catalog.connected_graphs(3, use_cache=False)), 2)
    expect("classify", px.classify.classify_instance(px.graphs.cycle(4), px.graphs.star(3))[1].feasible, False)
    expect("reachable_count", px.puzzle.reachable_count(puz), 3)
    expect("exchange group", px.puzzle.pebble_exchange_group(g).order, 1)
    expect("equivalent", px.puzzle.equivalent(puz, ident, rev), False)
    expect("bfs_witness", px.puzzle.bfs_witness(puz, ident, (2, 1, 3)), [(1, 2)])
    expect("automorphisms", len(px.perms.automorphisms(g)), 2)
    expect("realize_by_flips", px.flips.realize_by_flips(g, rev), [(1, 2, 3)])
    expect("flip_reachable_set", len(px.flips.flip_reachable_set(g)), 6)
    cert = px.squares.seq_A(3)
    text = px.squares.format_certificate(cert)
    expect("wire round trip", px.squares.parse_certificate(text).moves, cert.moves)
    expect("compile", px.squares.compile_automorphism_to_square_moves(g, rev).end, rev)
    with contextlib.redirect_stdout(io.StringIO()):
        expect("cli", px.cli.main(["aut", "--graph", "p3", "--no-timing"]), 0)
    return wrong
