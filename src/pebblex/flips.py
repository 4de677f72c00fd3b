"""Realizing graph automorphisms by path reversals.

A flip names a path on the board; it is legal when the pebbles sitting along
that path form a path in the pebble graph, and it reverses the pebbles end
to end.  On the self-puzzle of a connected graph every automorphism can be
produced by some flip sequence starting from the identity; ``realize_by_flips``
builds such a sequence constructively.

The construction is recursive.  Every internal step that relies on a
structural fact (a map being an automorphism, a subgraph being connected, a
vertex set forming a cycle) re-checks that fact at runtime, and every
recursive return value is replayed on its own graph before being used, so a
bug or an unexpected instance surfaces as RealizationError rather than as a
silently wrong sequence.

Sequence composition convention: concatenating S_a followed by S_b realizes
the product a*b that applies b first.  Replaying a sequence after a prefix
is legal whenever the prefix maps the sequence's pebble paths to edges of
the host graph; the construction only ever concatenates across prefixes
that do (each case states why, and the replay validators enforce it).
"""

from __future__ import annotations

import math
from collections import deque

from .errors import (
    BoardPathError,
    PebblePathError,
    RealizationError,
)
from .graphs import (
    Graph,
    components,
    distances_from,
    is_connected,
    shortest_path,
    shortest_path_to_set,
)
from .perms import (
    _orbit,
    compose,
    cycles,
    inverse,
    is_automorphism,
    is_identity,
    perm_order,
    perm_power,
)
from .puzzle import _search, check_configuration, identity_configuration, puz_on

DEFAULT_FLIP_CAP = 1_000_000


# ---------------------------------------------------------------------------
# applying flips to puzzle configurations (public, tuple-based)

def _check_board_path(g, path):
    if len(path) < 2:
        raise BoardPathError("a flip path needs at least two vertices")
    if len(set(path)) != len(path):
        raise BoardPathError(f"flip path {path} repeats a vertex")
    for v in path:
        if not g.has_vertex(v):
            raise BoardPathError(f"flip path names missing vertex {v}")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise BoardPathError(
                f"board vertices {a} and {b} in flip path are not adjacent"
            )


def apply_flip(puz, config, path):
    """Reverse the pebbles along a board path.

    The path must be a path on the board (else BoardPathError) and the
    pebbles on it must form a path in the pebble graph (else
    PebblePathError).
    """
    path = tuple(path)
    _check_board_path(puz.board, path)
    idxs = [puz.board.index_of(v) for v in path]
    pebs = [config[i] for i in idxs]
    for a, b in zip(pebs, pebs[1:]):
        if not puz.pebbles.has_edge(a, b):
            raise PebblePathError(
                f"pebbles {a} and {b} along flip path {path} are not "
                f"adjacent in the pebble graph"
            )
    out = list(config)
    for i, p in zip(idxs, reversed(pebs)):
        out[i] = p
    return tuple(out)


def replay_flips(puz, start, flips):
    """Apply a flip list from ``start``; returns the final configuration."""
    cfg = check_configuration(puz, start)
    for fl in flips:
        cfg = apply_flip(puz, cfg, fl)
    return cfg


def flip_sequence_permutation(g, flips):
    """The permutation a flip list realizes from the identity on the
    self-puzzle of g."""
    puz = puz_on(g)
    return replay_flips(puz, identity_configuration(puz), flips)


def compose_flip_sequences(g, s1, s2):
    """Concatenate two identity-based flip sequences.

    The first sequence must realize an automorphism (ValueError otherwise);
    that makes the concatenation replayable, and it then realizes the
    product applying s2's permutation first.  The combined sequence is
    replay-checked before being returned.
    """
    tau = flip_sequence_permutation(g, s1)
    if not is_automorphism(g, tau):
        raise ValueError(
            "the first sequence realizes a non-automorphism; concatenation "
            "after it is not replay-safe"
        )
    mu = flip_sequence_permutation(g, s2)
    combined = list(s1) + list(s2)
    got = flip_sequence_permutation(g, combined)
    if got != compose(tau, mu):
        raise RealizationError(
            "concatenated flip sequence does not realize the product"
        )
    return combined


# ---------------------------------------------------------------------------
# exhaustive search (the oracle the constructive engine is tested against):
# puzzle._search on the self-puzzle, with every canonical board path as a
# move: the level loops and blocks of pebble swaps, parents only for witnesses


def all_flip_paths(g):
    """Every simple path with >= 2 vertices, one orientation each
    (first < last), extended in sorted order."""
    out = []

    def ext(p, inset):
        for w in sorted(g.adj[p[-1]]):
            if w in inset:
                continue
            p.append(w)
            inset.add(w)
            if p[0] < p[-1]:
                out.append(tuple(p))
            ext(p, inset)
            inset.discard(w)
            p.pop()

    for s in g.vertices:
        ext([s], {s})
    return out


def _check_arrangement(g, sigma):
    sigma = tuple(sigma)
    if len(sigma) != g.n or set(sigma) != set(g.vertices):
        raise ValueError(
            f"{sigma} is not an arrangement of the vertices {g.vertices}"
        )
    return sigma


def _flip_bfs(g, target, cap, witness=False):
    """Search the flip space from the identity, up to the level on which
    ``target`` appears or to its end when target is None.  ``states()`` is
    the frozenset of visited permutations, and with ``witness``,
    ``moves_to(sigma)`` the flips from the identity to sigma at its first
    discovery, or None when the search did not reach it."""
    puz = puz_on(g)
    return _search(puz, identity_configuration(puz), cap, target, witness,
                   all_flip_paths(g))


def flip_reachable_set(g, cap=DEFAULT_FLIP_CAP):
    """All permutations reachable from the identity by flips."""
    return _flip_bfs(g, None, cap).states()


def flip_bfs_oracle(g, sigma, cap=DEFAULT_FLIP_CAP):
    """Breadth-first truth: is sigma reachable from the identity by flips?
    Raises ValueError when sigma is not an arrangement of g's vertices."""
    sigma = _check_arrangement(g, sigma)
    return _flip_bfs(g, sigma, cap).found


def flip_bfs_witness(g, sigma, cap=DEFAULT_FLIP_CAP):
    """A shortest flip list realizing sigma, or None; replay-verified.
    Raises ValueError when sigma is not an arrangement of g's vertices."""
    sigma = _check_arrangement(g, sigma)
    flips = _flip_bfs(g, sigma, cap, witness=True).moves_to(sigma)
    if flips is not None and flip_sequence_permutation(g, flips) != sigma:
        raise RealizationError("witness reconstruction failed to replay")
    return flips


# ---------------------------------------------------------------------------
# dict-based internals: recursion runs on induced subgraphs whose vertex
# labels keep their host-graph names, so sequences lift verbatim; the
# permutations are perms' dict form

def _apply_flip_dict(g, cfg, path, where):
    if len(path) < 2 or len(set(path)) != len(path):
        raise RealizationError(f"{where}: malformed flip path {path}")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise RealizationError(
                f"{where}: flip path {path} leaves the board at ({a},{b})"
            )
    pebs = [cfg[v] for v in path]
    for a, b in zip(pebs, pebs[1:]):
        if not g.has_edge(a, b):
            raise RealizationError(
                f"{where}: pebbles {a},{b} along {path} are not adjacent"
            )
    for v, p in zip(path, reversed(pebs)):
        cfg[v] = p


def _replay_dict(g, flips, where):
    cfg = {v: v for v in g.vertices}
    for fl in flips:
        _apply_flip_dict(g, cfg, fl, where)
    return cfg


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _select_dict(g, sig):
    """Minimize (d, m) over coprime powers sig^e and vertices x, where
    d = dist(x, sig^e(x)) and m = orbit size of x; ties go to smaller
    (e, x).  Returns (sig^e, e, x, d, m).

    A power coprime to the order keeps every cycle of sig whole, so orbit
    sizes are read once off sig's cycles and sig^e(x) is a step e along
    x's cycle.  A vertex that stays put or lands on a neighbor beats every
    farther one, so distances are searched, each vertex's at most once,
    only when no such vertex exists.
    """
    place = {}  # vertex -> (its cycle, its position there)
    for cyc in cycles(sig):
        for i, w in enumerate(cyc):
            place[w] = (cyc, i)
    ordr = perm_order(sig)
    near, far = [], []
    for e in range(1, ordr + 1):
        if math.gcd(e, ordr) != 1:
            continue
        for x in g.vertices:
            cyc, i = place[x]
            m = len(cyc)
            y = cyc[(i + e) % m]
            if y == x:
                near.append((0, m, e, x))
            elif y in g.adj[x]:
                near.append((1, m, e, x))
            else:
                far.append((m, e, x, y))
    if near:
        d, m, e, x = min(near)
    else:
        dists = {}
        for _, _, x, _ in far:
            if x not in dists:
                dists[x] = distances_from(g, x)
        d, m, e, x = min((dists[x][y], m, e, x) for m, e, x, y in far)
    pe = {}
    for v in sig:  # sig's key order, as composing powers of sig would give
        cyc, i = place[v]
        pe[v] = cyc[(i + e) % len(cyc)]
    return pe, e, x, d, m


# ---------------------------------------------------------------------------
# the constructive engine

def _realize(g, sig, depth):
    """Flip sequence realizing sig from the identity on connected g.

    Every return value is replayed on g before leaving this frame.
    """
    if depth <= 0:
        raise RealizationError("recursion depth guard exceeded")
    if is_identity(sig):
        return []
    if not is_automorphism(g, sig):
        raise RealizationError(
            f"internal: {sig} is not an automorphism of the working graph"
        )
    ordr = perm_order(sig)
    fac = _factorize(ordr)
    if len(fac) > 1:
        flips = _split_composite(g, sig, ordr, fac, depth)
    else:
        sigp, e, x, d, m = _select_dict(g, sig)
        base = _case_analysis(g, sigp, x, d, m, depth)
        k = pow(e, -1, ordr)
        flips = base * k
    got = _replay_dict(g, flips, "realize")
    if got != sig:
        raise RealizationError("internal: realized permutation mismatch")
    return flips


def _split_composite(g, sig, ordr, fac, depth):
    """Order is not a prime power: peel off the largest prime-power part.

    With ordr = r*s coprime and u*r + v*s = 1, sig equals
    (sig^r)^u * (sig^s)^v; both factors have strictly smaller order and the
    exponents are folded to their nonnegative residues, so the sequence is
    the two sub-sequences repeated.
    """
    p, a = max(fac.items(), key=lambda kv: kv[0] ** kv[1])
    r = p ** a
    s = ordr // r
    u = pow(r, -1, s)
    v = ((1 - u * r) // s) % r
    sig_r = perm_power(sig, r)
    sig_s = perm_power(sig, s)
    seq_r = _realize(g, sig_r, depth - 1)
    seq_s = _realize(g, sig_s, depth - 1)
    return seq_r * u + seq_s * v


def _case_analysis(g, sig, x, d, m, depth):
    if m == 1:
        return _case_fixed_point(g, sig, depth)
    return _case_moving(g, sig, x, d, m, depth)


# -- case: sig has a fixed point --------------------------------------------

def _case_fixed_point(g, sig, depth):
    fixed = [v for v in g.vertices if sig[v] == v]
    for x in fixed:
        rest = [v for v in g.vertices if v != x]
        sub = g.induced(rest)
        if is_connected(sub):
            return _realize(sub, {v: sig[v] for v in rest}, depth - 1)
    # every fixed point cuts the graph: peel component swaps off sig until
    # the residue fixes each component of g - x, then recurse per component
    x = fixed[0]
    comps = components(g.induced([v for v in g.vertices if v != x]))
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    residual = dict(sig)
    swaps = []
    while True:
        moved = None
        for ci, comp in enumerate(comps):
            if comp_of[residual[comp[0]]] != ci:
                moved = (ci, comp_of[residual[comp[0]]])
                break
        if moved is None:
            break
        ca, cb = moved
        va, vb = set(comps[ca]), set(comps[cb])
        inv = inverse(residual)
        nu = {}
        for v in g.vertices:
            if v in va:
                nu[v] = residual[v]
            elif v in vb:
                nu[v] = inv[v]
            else:
                nu[v] = v
        if not is_automorphism(g, nu) or not is_identity(compose(nu, nu)):
            raise RealizationError(
                "internal: component swap is not an involutive automorphism"
            )
        swaps.append(nu)
        residual = compose(nu, residual)
    out = []
    for nu in swaps:
        out += _realize_component_swap(g, nu, x, depth)
    # residual now fixes x and every component setwise; realize it one
    # component at a time on the component plus the cut vertex
    for comp in comps:
        if all(residual[v] == v for v in comp):
            continue
        sub = g.induced(set(comp) | {x})
        out += _realize(sub, {v: residual[v] for v in sub.vertices}, depth - 1)
    return out


def _realize_component_swap(g, nu, x, depth):
    """nu swaps two components of g - x (setwise) and fixes the rest.

    Strip one far pair per round: the shortest path between a moved vertex
    of maximal distance from x and its image runs through x, so flipping it
    and then its interior swaps exactly that pair.  Distances are preserved
    by nu, the removed pair is farthest-from-x in both components, and every
    other vertex keeps a shortest path to x, so the remainder is connected.
    """
    if depth <= 0:
        raise RealizationError("recursion depth guard exceeded")
    moved = [v for v in g.vertices if nu[v] != v]
    if not moved:
        return []
    dist = distances_from(g, x)
    v1 = min(moved, key=lambda v: (-dist[v], v))
    v2 = nu[v1]
    p = shortest_path(g, v1, v2)
    if p is None or x not in p or len(p) < 3:
        raise RealizationError(
            "internal: swap pair is not separated by the cut vertex"
        )
    flips = [tuple(p)]
    if len(p) - 2 >= 2:
        flips.append(tuple(p[1:-1]))
    rest = [v for v in g.vertices if v not in (v1, v2)]
    sub = g.induced(rest)
    if not is_connected(sub):
        raise RealizationError("internal: swap peeling disconnected the graph")
    flips += _realize_component_swap(sub, {v: nu[v] for v in rest}, x, depth - 1)
    got = _replay_dict(g, flips, "component swap")
    if got != nu:
        raise RealizationError("internal: component swap replay mismatch")
    return flips


# -- case: no fixed point ----------------------------------------------------

def _case_moving(g, sig, x, d, m, depth):
    ordr = perm_order(sig)
    pwr = [{v: v for v in g.vertices}]
    for _ in range(ordr):
        pwr.append(compose(sig, pwr[-1]))
    pth = shortest_path(g, x, sig[x])
    if pth is None or len(pth) != d + 1:
        raise RealizationError("internal: basepoint path length mismatch")
    # structural facts the construction leans on: the orbits of the path's
    # first d vertices are pairwise disjoint and each has size divisible by
    # the basepoint orbit size
    orbits = [_orbit(pth[j], [sig]) for j in range(d)]
    if len({v for o in orbits for v in o}) != sum(len(o) for o in orbits):
        raise RealizationError("internal: path orbits are not disjoint")
    if any(len(o) % m for o in orbits):
        raise RealizationError("internal: path orbit size not divisible by m")
    p_edges = list(zip(pth, pth[1:]))
    hv = {pwr[i][v] for i in range(ordr) for v in pth}
    he = {
        tuple(sorted((pwr[i][a], pwr[i][b])))
        for i in range(ordr)
        for a, b in p_edges
    }
    xk = [
        {pwr[i][v] for i in range(k, ordr, m) for v in pth}
        for k in range(m)
    ]
    if hv == set(g.vertices):
        if m == ordr:
            return _spanning_cycle(g, sig, pwr, pth, d, ordr)
        return _spanning_quotient(
            g, sig, pwr, m, ordr, hv, he, xk, x, depth
        )
    return _grow_tails(g, sig, pwr, pth, d, m, ordr, hv, he, xk, x, depth)


def _cycle_labels(g, sig, pwr, pth, d, ordr, expect_vertices):
    """Claim check: the path translates close into a single cycle that sig
    rotates by d.  Returns the cycle's vertex list in rotation order."""
    r = d * ordr
    zp = [pwr[k][pth[j]] for k in range(ordr) for j in range(d)]
    if len(set(zp)) != r or set(zp) != expect_vertices:
        raise RealizationError("internal: translates do not tile a cycle")
    for t in range(r):
        if not g.has_edge(zp[t], zp[(t + 1) % r]):
            raise RealizationError("internal: cycle labeling misses an edge")
        if sig[zp[t]] != zp[(t + d) % r]:
            raise RealizationError("internal: rotation check failed")
    return zp


def _reflection_flip(zlist, t):
    """One flip realizing z_i -> z_{t-i} on a cycle given as a list.

    A cycle reflection fixes 0, 1 or 2 vertices; cutting the cycle at a
    fixed vertex (or between the two swapped neighbors when none exists)
    leaves a path whose reversal is exactly the reflection.
    """
    r = len(zlist)
    if r % 2 == 1 or t % 2 == 0:
        c = (t * ((r + 1) // 2)) % r if r % 2 == 1 else (t // 2) % r
        return tuple(zlist[(c + 1 + j) % r] for j in range(r - 1))
    a = ((t + 1) // 2) % r
    return tuple(zlist[(a + j) % r] for j in range(r))


def _spanning_cycle(g, sig, pwr, pth, d, ordr):
    """The translates cover the whole graph and the basepoint orbit is full:
    the graph carries a spanning cycle rotated by sig, which splits into two
    reflections, each a single flip."""
    zp = _cycle_labels(g, sig, pwr, pth, d, ordr, set(g.vertices))
    r = len(zp)
    if r == 2:
        return [(zp[0], zp[1])]
    rho0 = {zp[i]: zp[(-i) % r] for i in range(r)}
    rhod = {zp[i]: zp[(d - i) % r] for i in range(r)}
    cyc = Graph(zp, [(zp[t], zp[(t + 1) % r]) for t in range(r)])
    for rho in (rho0, rhod):
        if not is_automorphism(cyc, rho):
            raise RealizationError("internal: reflection is not a cycle map")
    if compose(rhod, rho0) != sig:
        raise RealizationError("internal: reflections do not compose to sig")
    return [_reflection_flip(zp, d), _reflection_flip(zp, 0)]


def _spanning_quotient(g, sig, pwr, m, ordr, hv, he, xk, x, depth):
    """Translates cover the graph but the basepoint orbit is a proper
    quotient: split sig into a power supported on one residue class and a
    twisted map of order m, both strictly simpler."""
    h = Graph(hv, he)
    back = (1 - m) % ordr
    xm1 = xk[m - 1] - {pwr[m - 1][x]}
    tau = {v: (pwr[back][v] if v in xm1 else sig[v]) for v in hv}
    x0 = xk[0]
    glift = {v: (pwr[m][v] if v in x0 else v) for v in hv}
    _check_pair_split(h, sig, tau, glift, m, x0, "quotient split")
    h0 = h.induced(x0)
    if not is_connected(h0):
        raise RealizationError("internal: residue-class subgraph disconnected")
    s0 = _realize(h0, {v: pwr[m][v] for v in x0}, depth - 1)
    s1 = _realize(h, tau, depth - 1)
    return s0 + s1


def _check_pair_split(h, sig, tau, glift, m, x0, where):
    vs = set(h.vertices)
    if set(tau.values()) != vs:
        raise RealizationError(f"internal: {where}: twist is not a bijection")
    if not is_automorphism(h, tau):
        raise RealizationError(f"internal: {where}: twist is not a map of H")
    if not is_identity(perm_power(tau, m)):
        raise RealizationError(f"internal: {where}: twist order exceeds m")
    if not is_automorphism(h, glift):
        raise RealizationError(f"internal: {where}: lift is not a map of H")
    if compose(glift, tau) != sig:
        raise RealizationError(f"internal: {where}: split does not compose")
    if x0 == vs:
        raise RealizationError(f"internal: {where}: residue class not proper")


def _grow_tails(g, sig, pwr, pth, d, m, ordr, hv, he, xk, x, depth):
    """The translates miss part of the graph: attach a farthest outside
    vertex by a shortest path and its translates, then split off what the
    enlarged subgraph still misses, or reflect it when it spans."""
    dist = {}
    q = deque()
    for v in hv:
        dist[v] = 0
        q.append(v)
    while q:
        v = q.popleft()
        for w in g.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    far = max(dist.values())
    z = min(v for v in g.vertices if dist[v] == far)
    q0 = shortest_path_to_set(g, z, hv)
    if q0 is None:
        raise RealizationError("internal: no path back to the translates")
    y0 = q0[-1]
    shift = None
    for jj in range(ordr):
        for ii in range(d):
            if pwr[jj][pth[ii]] == y0:
                shift = pwr[(ordr - jj) % ordr]
                break
        if shift is not None:
            break
    qpath = [shift[v] for v in q0]
    z = qpath[0]
    y = qpath[-1]
    q_edges = list(zip(qpath, qpath[1:]))
    fv = set(hv)
    fe = set(he)
    for i in range(ordr):
        fv.update(pwr[i][v] for v in qpath)
        fe.update(tuple(sorted((pwr[i][a], pwr[i][b]))) for a, b in q_edges)
    orbit_z = _orbit(z, [sig])
    if fv != set(g.vertices):
        return _split_off_orbit(g, sig, fv, fe, orbit_z, depth)
    f = Graph(fv, fe)
    if not is_connected(f):
        raise RealizationError("internal: grown subgraph disconnected")
    wk = [
        {pwr[i][v] for i in range(k, ordr, m) for v in qpath}
        for k in range(m)
    ]
    if m < ordr:
        back = (1 - m) % ordr
        dset = (xk[m - 1] - {pwr[m - 1][x]}) | wk[m - 1]
        tau = {v: (pwr[back][v] if v in dset else sig[v]) for v in fv}
        core = xk[0] | wk[0]
        glift = {v: (pwr[m][v] if v in core else v) for v in fv}
        _check_pair_split(f, sig, tau, glift, m, core, "tail quotient split")
        f0 = f.induced(core)
        if not is_connected(f0):
            raise RealizationError(
                "internal: residue-class subgraph disconnected"
            )
        s0 = _realize(f0, {v: pwr[m][v] for v in core}, depth - 1)
        s1 = _realize(f, tau, depth - 1)
        return s0 + s1
    return _cycle_with_tails(g, sig, pwr, pth, qpath, d, ordr, hv, f, y, depth)


def _split_off_orbit(g, sig, fv, fe, orbit_z, depth):
    """The grown subgraph F still misses vertices.  sig factors as
    (sig on F) * (sig^-1 on F minus the far orbit) * (sig off that orbit):
    the first two cancel outside F, the middle and last are automorphisms of
    their graphs, and each factor lives on strictly fewer vertices."""
    f = Graph(fv, fe)
    fpv = fv - orbit_z
    fp = f.induced(fpv)
    gpv = set(g.vertices) - orbit_z
    gp = g.induced(gpv)
    for sub, name in ((f, "F"), (fp, "F'"), (gp, "G'")):
        if not is_connected(sub):
            raise RealizationError(f"internal: {name} is disconnected")
    inv = inverse(sig)
    sig_f = {v: sig[v] for v in fv}
    sig_fp = {v: inv[v] for v in fpv}
    sig_gp = {v: sig[v] for v in gpv}
    if not is_automorphism(f, sig_f):
        raise RealizationError("internal: sig does not preserve F")
    if not is_automorphism(fp, sig_fp):
        raise RealizationError("internal: sig^-1 does not preserve F'")
    if not is_automorphism(gp, sig_gp):
        raise RealizationError("internal: sig does not preserve G'")
    for v in g.vertices:
        c = sig_gp.get(v, v)
        b = sig_fp.get(c, c)
        a = sig_f.get(b, b)
        if a != sig[v]:
            raise RealizationError("internal: three-factor split mismatch")
    return (
        _realize(f, sig_f, depth - 1)
        + _realize(fp, sig_fp, depth - 1)
        + _realize(gp, sig_gp, depth - 1)
    )


def _cycle_with_tails(g, sig, pwr, pth, qpath, d, ordr, hv, f, y, depth):
    """F spans the graph: the translate cycle plus one tail per rotation
    step.  sig is a rotation of that picture, hence the product of two
    reflections; each reflection swaps tails wholesale and reflects the
    cycle, and is realized by pairwise tail-end swaps plus recursion."""
    zp = _cycle_labels(g, sig, pwr, pth, d, ordr, hv)
    r = len(zp)
    i0 = zp.index(y)
    zlab = [zp[(t + i0) % r] for t in range(r)]
    s = len(qpath) - 1
    wgrid = [[pwr[i][qpath[j]] for j in range(s + 1)] for i in range(ordr)]
    rhos = []
    for t in (1, 0):
        rho = {}

        def put(v, img):
            if v in rho and rho[v] != img:
                raise RealizationError(
                    f"internal: reflection assignment conflicts at vertex "
                    f"{v}; this instance defeats the tail construction"
                )
            rho[v] = img

        for i in range(ordr):
            for j in range(s + 1):
                put(wgrid[i][j], wgrid[(t - i) % ordr][j])
        for idx in range(r):
            put(zlab[idx], zlab[(d * t - idx) % r])
        if set(rho) != set(f.vertices) or set(rho.values()) != set(f.vertices):
            raise RealizationError("internal: reflection does not cover F")
        if not is_identity(compose(rho, rho)):
            raise RealizationError("internal: reflection is not an involution")
        if not is_automorphism(f, rho):
            raise RealizationError("internal: reflection does not preserve F")
        rhos.append(rho)
    rho1, rho0 = rhos
    if compose(rho1, rho0) != sig:
        raise RealizationError("internal: reflections do not compose to sig")
    orbit_z = _orbit(qpath[0], [sig])
    return _realize_reflection(f, rho1, orbit_z, depth) + _realize_reflection(
        f, rho0, orbit_z, depth
    )


def _realize_reflection(f, rho, orbit_z, depth):
    """Realize an involution that pairs up the far tail ends: swap each pair
    by a double flip along a path avoiding already-swapped ends, then
    recurse on the graph without the tail ends."""
    if depth <= 0:
        raise RealizationError("recursion depth guard exceeded")
    if {rho[v] for v in orbit_z} != orbit_z:
        raise RealizationError("internal: reflection moves the far orbit off")
    flips = []
    dirty = set()
    for o in sorted(orbit_z):
        if o in dirty or rho[o] == o:
            continue
        partner = rho[o]
        sub = f.induced(set(f.vertices) - dirty)
        rpath = shortest_path(sub, o, partner)
        if rpath is None:
            raise RealizationError(
                "internal: tail-end pair separated by earlier swaps"
            )
        flips.append(tuple(rpath))
        if len(rpath) - 2 >= 2:
            flips.append(tuple(rpath[1:-1]))
        dirty.update((o, partner))
    rest = set(f.vertices) - orbit_z
    subf = f.induced(rest)
    if not is_connected(subf):
        raise RealizationError("internal: removing tail ends disconnects F")
    flips += _realize(subf, {v: rho[v] for v in rest}, depth - 1)
    got = _replay_dict(f, flips, "reflection")
    if got != rho:
        raise RealizationError("internal: reflection replay mismatch")
    return flips


# ---------------------------------------------------------------------------
# wire format: header line with the flip count, then one line per flip of
# the form "L v_0 ... v_L" where L is the edge length

def format_flip_sequence(flips):
    lines = [str(len(flips))]
    for p in flips:
        lines.append(f"{len(p) - 1} " + " ".join(str(v) for v in p))
    return "\n".join(lines) + "\n"


def parse_flip_sequence(text):
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("line 1: empty input, expected a flip count")
    no, head = lines[0]
    try:
        k = int(head)
    except ValueError:
        raise ValueError(f"line {no}: flip count must be an integer")
    if k < 0 or len(lines) - 1 != k:
        raise ValueError(
            f"line {no}: declared {k} flips but found {len(lines) - 1}"
        )
    flips = []
    for no, ln in lines[1:]:
        parts = ln.split()
        try:
            vals = [int(t) for t in parts]
        except ValueError:
            raise ValueError(f"line {no}: flip line must be integers")
        if len(vals) < 3 or len(vals) != vals[0] + 2:
            raise ValueError(
                f"line {no}: flip line must be 'L v_0 ... v_L' with L >= 1"
            )
        flips.append(tuple(vals[1:]))
    return flips


# ---------------------------------------------------------------------------
# public entry point

def realize_by_flips(g, sigma, depth_guard=None):
    """A flip sequence realizing the automorphism sigma from the identity.

    g must be connected and sigma one of its automorphisms (ValueError
    otherwise).  The returned sequence is replay-validated against sigma; a
    construction failure raises RealizationError rather than returning a
    wrong sequence.
    """
    if not g.is_dense_labeled():
        raise ValueError("needs a densely labeled graph")
    if not is_connected(g):
        raise ValueError("flip realization needs a connected graph")
    sigma = tuple(sigma)
    if not is_automorphism(g, sigma):
        raise ValueError(f"{sigma} is not an automorphism of the graph")
    depth = depth_guard if depth_guard is not None else 10 * g.n + 50
    sig = {v: sigma[v - 1] for v in g.vertices}
    flips = _realize(g, sig, depth)
    if flip_sequence_permutation(g, flips) != sigma:
        raise RealizationError("internal: final replay mismatch")
    return flips
