"""Compact text descriptors for graphs.

Grammar, innermost first:

  base:   p<n>  c<n>  star<l>  k<n>  q<d>  theta122  grid<a>x<b>
          or anything else, read as a graph file path
  ^2:     optional suffix, take the square; a builtin base may take it
          more than once, each squaring once more
  ~<v>:   optional suffix (repeatable), delete vertex v after everything else

Examples: ``p7``, ``c5``, ``q3``, ``grid2x3``, ``p8^2~7``, ``p4^2^2``,
``mygraph.txt^2``.  A file path is everything before the last ``^2``, so
``foo^2^2`` reads the file ``foo^2`` and squares it once.  Descriptors make
serialized certificates self-contained: whoever reads one can rebuild the
exact board and pebble graphs from the descriptor alone; ``compile-square``
on ``p4^2`` writes ``p4^2^2``.

A builtin graph, squared once when ``^2`` asks for it and before any
deletion, may have at most ``MAX_VERTICES`` (10,000) vertices and
``MAX_EDGES`` (200,000) edges.  Both counts follow from the descriptor's
integers, so a descriptor such as ``k5000`` or ``q30`` is refused with a
ValueError before any graph is built.  A later square is refused by
``graphs.square`` past ``MAX_EDGES`` while it collects, before that square
is built.
"""

from __future__ import annotations

import os
import re

from . import graphs as _g
from .graphs import MAX_EDGES, MAX_VERTICES

_BUILTIN = re.compile(
    r"^(?:p(?P<p>\d+)|c(?P<c>\d+)|star(?P<star>\d+)|k(?P<k>\d+)"
    r"|q(?P<q>\d+)|theta122|grid(?P<ga>\d+)x(?P<gb>\d+))$"
)


def _builtin_size(m, take_square):
    """(vertices, edges) of the builtin graph a ``_BUILTIN`` match names,
    squared when ``take_square``, computed without building it."""
    if m.group("p"):
        n = int(m.group("p"))
        return n, max(2 * n - 3 if take_square else n - 1, 0)
    if m.group("c"):
        n = int(m.group("c"))
        return n, n * min(n - 1, 4) // 2 if take_square else n
    if m.group("star"):
        leaves = int(m.group("star"))
        return leaves + 1, (leaves + 1) * leaves // 2 if take_square else leaves
    if m.group("k"):
        n = int(m.group("k"))
        return n, n * (n - 1) // 2
    if m.group("q"):
        d = min(int(m.group("q")), 64)  # past 64, 2**d is refused all the same
        degree = d + d * (d - 1) // 2 if take_square else d
        return 1 << d, (1 << d) * degree // 2
    if m.group("ga"):
        a, b = int(m.group("ga")), int(m.group("gb"))
        edges = a * (b - 1) + b * (a - 1)
        if take_square:  # two steps straight, or one step each way
            edges += (a * max(b - 2, 0) + b * max(a - 2, 0)
                      + 2 * max(a - 1, 0) * max(b - 1, 0))
        return a * b, edges
    return 7, 19 if take_square else 8  # theta122


def graph_from_desc(desc, allow_files=True):
    """Build the graph a descriptor names.  Raises ValueError on a
    malformed descriptor or an unreadable file."""
    desc = whole = desc.strip()
    deletions = []
    while True:
        m = re.search(r"~(\d+)$", desc)
        if not m:
            break
        deletions.append(int(m.group(1)))
        desc = desc[: m.start()]
    end = len(desc)
    while desc.endswith("^2", 0, end):
        end -= 2
    squarings, desc = (len(desc) - end) // 2, desc[:end]
    m = _BUILTIN.match(desc)
    if not m and squarings > 1:  # a file path runs up to the last ^2
        desc += "^2" * (squarings - 1)
        squarings = 1
    if m:
        nv, ne = _builtin_size(m, squarings > 0)
        if nv > MAX_VERTICES or ne > MAX_EDGES:
            raise ValueError(
                f"graph descriptor {whole!r} is too large: builtin graphs "
                f"are limited to {MAX_VERTICES} vertices and {MAX_EDGES} edges"
            )
        if m.group("p"):
            g = _g.path(int(m.group("p")))
        elif m.group("c"):
            g = _g.cycle(int(m.group("c")))
        elif m.group("star"):
            g = _g.star(int(m.group("star")))
        elif m.group("k"):
            g = _g.complete(int(m.group("k")))
        elif m.group("q"):
            g = _g.hypercube(int(m.group("q")))
        elif m.group("ga"):
            g, _ = _g.cartesian_product(
                _g.path(int(m.group("ga"))), _g.path(int(m.group("gb")))
            )
        else:
            g = _g.theta_122()
    elif allow_files:
        if not os.path.exists(desc):
            raise ValueError(
                f"{desc!r} is not a builtin graph name and no such file exists"
            )
        with open(desc) as fh:
            g = _g.parse_graph(fh.read())
    else:
        raise ValueError(f"unknown graph descriptor {desc!r}")
    for _ in range(squarings):
        sq = _g.square(g)
        if sq.m == g.m:  # g is its own square, so is every later one
            break
        g = sq
    for v in reversed(deletions):
        if not g.has_vertex(v):
            raise ValueError(f"descriptor deletes missing vertex {v}")
        g = g.induced(set(g.vertices) - {v})
    return g
