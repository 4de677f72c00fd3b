"""Permutations of graph vertex sets and automorphism groups.

A permutation comes in one of two forms.  On a densely labeled n-vertex
graph it is a tuple ``p`` of length n with ``p[i-1]`` the image of vertex i;
on any label set it is a dict from each label to its image, which is how the
flip realizer keeps the host's names on its subgraphs.  Every operation
(``compose``, ``inverse``, ``perm_power``, ``perm_order``, ``cycles`` with
``sign`` and ``cycle_notation``, ``is_identity``, ``is_automorphism``) takes
either form and has one implementation, written on the dict form.  Only the
two seam helpers look at the type: ``_as_dict`` reads a tuple as
``{i: p[i-1]}``, and ``_like`` turns a result back into a tuple when the
input was one.  Composition is right-to-left: ``compose(p, q)`` applies q
first, then p.

Every automorphism and isomorphism in the package comes from one matcher
loop, ``_matches``, over tables built once per pair of graphs; it works on
any label set and can start from a pinned prefix of images.
``isomorphisms(g1, g2)`` yields its matches as dicts.  ``automorphisms``
turns them into tuples for densely labeled graphs, ``automorphisms_dict``
keeps the dicts for graphs whose labels have gaps, and
``graphs.is_theta_122`` stops at the first match.  ``automorphism_count``
gives the group order without listing the group: it multiplies the orbit
sizes down the point-stabilizer chain of the sorted vertices, and each
orbit point costs one pinned search that stops at its first match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# automorphisms() refuses larger graphs, whose groups can be huge
_MAX_AUT_N = 16


def identity_perm(n):
    return tuple(range(1, n + 1))


def is_perm(p):
    return sorted(p) == list(range(1, len(p) + 1))


def _as_dict(p):
    """The seam in: a tuple p over 1..n read as {i: p[i-1]}; a dict as is."""
    return p if isinstance(p, dict) else dict(enumerate(p, 1))


def _like(p, d):
    """The seam out: the result d as a tuple over 1..n when p was a tuple."""
    return d if isinstance(p, dict) else tuple(d[i] for i in range(1, len(d) + 1))


def is_identity(p):
    return all(v == img for v, img in _as_dict(p).items())


def compose(p, q):
    """Apply q first, then p."""
    if len(p) != len(q):
        raise ValueError("length mismatch")
    a, b = _as_dict(p), _as_dict(q)
    return _like(q, {v: a[b[v]] for v in b})


def inverse(p):
    return _like(p, {img: v for v, img in _as_dict(p).items()})


def perm_power(p, k):
    """p composed with itself k times; negative k uses the inverse."""
    base = _as_dict(p)
    result = {v: v for v in base}
    if k < 0:
        base = inverse(base)
        k = -k
    while k:
        if k & 1:
            result = compose(base, result)
        base = compose(base, base)
        k >>= 1
    return _like(p, result)


def perm_order(p):
    """lcm of cycle lengths.  Its own walk, which keeps no cycle and sorts
    nothing: realizing every automorphism of the connected graphs on 2-7
    vertices asks for some 190,000 orders, and taking them from ``cycles``
    made that sweep about 5% slower."""
    p = _as_dict(p)
    seen = set()
    order = 1
    for s in p:
        if s in seen:
            continue
        length = 1
        v = p[s]
        while v != s:
            seen.add(v)
            length += 1
            v = p[v]
        order = math.lcm(order, length)
    return order


def cycles(p):
    """Cycle decomposition, fixed points included; each cycle starts at its
    smallest element, cycles sorted by first element."""
    p = _as_dict(p)
    seen = set()
    out = []
    for s in sorted(p):
        if s in seen:
            continue
        c = [s]
        v = p[s]
        while v != s:
            c.append(v)
            v = p[v]
        seen.update(c)
        out.append(tuple(c))
    return out


def cycle_notation(p):
    """Human form like '(1 3 2)(4 5)'; fixed points omitted; identity is
    '()'."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) if parts else "()"


def sign(p):
    """+1 for even permutations, -1 for odd."""
    return -1 if sum(len(c) - 1 for c in cycles(p)) % 2 else 1


def parse_perm(text, n=None):
    """Parse a whitespace-separated image list, e.g. '3 1 2'."""
    try:
        vals = tuple(int(t) for t in text.split())
    except ValueError:
        raise ValueError("permutation must be whitespace-separated integers")
    if not vals:
        raise ValueError("empty permutation")
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} entries, got {len(vals)}")
    if not is_perm(vals):
        raise ValueError("not a permutation of 1..n")
    return vals


# ---------------------------------------------------------------------------
# automorphisms

def is_automorphism(g, p):
    """Does p map g's vertices onto themselves and preserve adjacency?

    Reads ``g.adj`` alone, so a new subgraph builds no edge tuple; each
    edge is checked from both ends, which gives the same answer because
    the adjacency is symmetric."""
    p, adj = _as_dict(p), g.adj
    if p.keys() != adj.keys() or set(p.values()) != adj.keys():
        return False
    for v, ns in adj.items():
        image_ns = adj[p[v]]
        for w in ns:
            if p[w] not in image_ns:
                return False
    return True


class _Tables(NamedTuple):
    """What the matcher needs of one pair of graphs, built once per pair."""

    vs1: tuple  # g1's sorted vertices, matched in this order
    vs2: tuple  # g2's sorted vertices; an image is an index into it
    adj2: list  # neighbors of vs2[k], as bits over vs2
    degree_mask: list  # vs2 vertices of the degree of vs1[i], as bits
    back: list  # indexes of vs1[i]'s neighbors that are matched before it


def _tables(g1, g2):
    vs1, vs2 = g1.vertices, g2.vertices
    bit = {w: 1 << k for k, w in enumerate(vs2)}
    adj2 = [sum(bit[u] for u in g2.adj[w]) for w in vs2]
    by_degree = {}
    for w in vs2:
        d = g2.degree(w)
        by_degree[d] = by_degree.get(d, 0) | bit[w]
    degree_mask = [by_degree.get(g1.degree(v), 0) for v in vs1]
    pos = {v: i for i, v in enumerate(vs1)}
    back = [[pos[u] for u in g1.adj[v] if pos[u] < i] for i, v in enumerate(vs1)]
    return _Tables(vs1, vs2, adj2, degree_mask, back)


def _matches(tables, pinned=()):
    """The backtracking loop: yields the image list (indexes into vs2,
    overwritten by the next match) of every isomorphism whose first
    len(pinned) images are ``pinned``, in lexicographic order of images."""
    _, vs2, adj2, degree_mask, back = tables
    n = len(vs2)
    masks = degree_mask
    if pinned:  # a pinned level has one candidate, which the loop still checks
        masks = [m & (1 << k) for m, k in zip(degree_mask, pinned)]
        masks += degree_mask[len(pinned):]
    img = [0] * n  # index in vs2 of the image of vs1[i]
    options = [0] * n  # candidate images of vs1[i] not yet tried, as bits
    want = [0] * n  # images of the matched neighbors of vs1[i], as bits
    used = 0
    i = 0
    options[0] = masks[0]
    while i >= 0:
        m = options[i]
        if not m:
            i -= 1
            if i >= 0:
                used ^= 1 << img[i]
            continue
        low = m & -m
        options[i] = m ^ low
        k = low.bit_length() - 1
        if adj2[k] & used != want[i]:
            continue
        img[i] = k
        if i == n - 1:
            yield img
            continue
        used |= low
        i += 1
        m = masks[i] & ~used
        nbrs = 0
        for j in back[i]:
            m &= adj2[img[j]]
            nbrs |= 1 << img[j]
        options[i], want[i] = m, nbrs


def isomorphisms(g1, g2):
    """Every isomorphism from g1 onto g2, as dicts from g1's labels to g2's.

    One backtracking matcher for arbitrary labels.  The vertices of g1 are
    matched in ascending order and the candidate images tried in ascending
    order, so the dicts come out lexicographic by image over g1's sorted
    vertices.  A candidate must have the right degree, be adjacent to the
    images of the already matched neighbors and to no other image; with g2's
    vertices as bits of an int, each test is a few mask operations.  The
    loop (``_matches``) can also start from a pinned prefix of images, which
    is how ``automorphism_count`` asks whether one extension exists.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return
    tables = _tables(g1, g2)
    vs1, vs2 = tables.vs1, tables.vs2
    for img in _matches(tables):
        yield {v: vs2[img[t]] for t, v in enumerate(vs1)}


def _orbit(point, gens):
    """The orbit of ``point`` under the group generated by ``gens``."""
    orbit = {point}
    todo = [point]
    for p in todo:
        for s in gens:
            if s[p] not in orbit:
                orbit.add(s[p])
                todo.append(s[p])
    return orbit


def automorphism_count(g):
    """|Aut(g)| for any labels, without listing the group.

    With v_0 < ... < v_{n-1} the sorted vertices and G_i the automorphisms
    that fix v_0..v_{i-1}, |Aut(g)| is the product over i of the size of
    v_i's orbit under G_i (orbit-stabilizer).  The levels are walked from
    the last vertex to the first, so every automorphism found so far fixes
    the current prefix; the orbit starts as v_i's closure under them, and
    each remaining candidate w gets one search, pinned to fix the prefix
    and send v_i to w, that stops at its first match.  A match joins the
    generators, so they generate G_i when the level ends.
    """
    tables = _tables(g, g)
    adj, degree_mask = tables.adj2, tables.degree_mask
    n = len(adj)
    gens = []  # index tuples; a vertex's index is its bit
    order = 1
    for i in range(n - 1, -1, -1):
        before = (1 << i) - 1  # the fixed vertices v_0..v_{i-1}, as bits
        orbit = _orbit(i, gens)
        for w in range(i + 1, n):
            # w needs v_i's degree and v_i's neighbors among the fixed ones
            if (w in orbit or not degree_mask[i] >> w & 1
                    or (adj[w] ^ adj[i]) & before):
                continue
            img = next(_matches(tables, [*range(i), w]), None)
            if img is not None:
                gens.append(tuple(img))
                orbit = _orbit(i, gens)
        order *= len(orbit)
    return order


def automorphisms(g):
    """All automorphisms of g as sorted tuples; g must be densely labeled
    and have at most _MAX_AUT_N vertices."""
    if not g.is_dense_labeled():
        raise ValueError("needs a densely labeled graph")
    if g.n > _MAX_AUT_N:
        raise ValueError(f"n={g.n} exceeds the guard ({_MAX_AUT_N})")
    return [tuple(a.values()) for a in isomorphisms(g, g)]


def automorphisms_dict(g):
    """Automorphisms of an arbitrarily labeled graph, as dicts in
    lexicographic order of images over the sorted vertices."""
    return list(isomorphisms(g, g))


@dataclass(frozen=True)
class GroupSummary:
    """Order plus the sorted element list of a permutation group."""

    order: int
    elements: tuple

    @classmethod
    def from_elements(cls, elements):
        elems = tuple(sorted(set(elements)))
        return cls(order=len(elems), elements=elems)
