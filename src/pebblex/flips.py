"""Realizing graph automorphisms by path reversals.

A flip names a path on the board; it is legal when the pebbles sitting along
that path form a path in the pebble graph, and it reverses the pebbles end
to end.  On the self-puzzle of a connected graph every automorphism can be
produced by some flip sequence starting from the identity; ``realize_by_flips``
builds such a sequence constructively.

The construction is recursive.  ``_realize`` takes sig on a connected
working graph and picks one case:

- composite order: sig is a product of two powers of prime-power order;
- fixed point: drop a fixed vertex, or swap the components it cuts off;
- spanning cycle: the translates of a shortest x -> sig(x) path form a
  cycle through every vertex, and sig is two reflections of it;
- quotient split: the translates span but x's orbit is shorter than the
  order of sig, so sig is a lift times a twist of smaller order;
- tails: the translates miss vertices; grow them by a farthest tail, then
  split off what is still missing, split the quotient or reflect.

Every internal step that relies on a structural fact (a map being an
automorphism, a subgraph being connected, a vertex set forming a cycle)
re-checks that fact at runtime, and every recursive return value is
replayed on its own graph before being used, so a bug or an unexpected
instance surfaces as RealizationError rather than as a silently wrong
sequence.  Public replays and internal ones make each flip through the one
check, ``_flip_in_place``.

Sequence composition convention: concatenating S_a followed by S_b realizes
the product a*b that applies b first.  Replaying a sequence after a prefix
is legal whenever the prefix maps the sequence's pebble paths to edges of
the host graph; the construction only ever concatenates across prefixes
that do (each case states why, and the replay validators enforce it).
"""

from __future__ import annotations

import math

from .errors import BoardPathError, FlipError, PebblePathError, RealizationError
from .graphs import (
    Graph,
    components,
    distances_from,
    is_connected,
    is_connected_without,
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
from .puzzle import (
    _check_board,
    _check_cap,
    _search,
    check_configuration,
    identity_configuration,
    puz_on,
)

DEFAULT_FLIP_CAP = 1_000_000


# ---------------------------------------------------------------------------
# applying flips: one check, on a dict from each board vertex to its pebble;
# the public functions read a tuple configuration in board-vertex order

def _flip_in_place(board, pebbles, cfg, path):
    """Reverse the pebbles of cfg along path, after checking that path is a
    path on the board (else BoardPathError) and that its pebbles form a path
    in the pebble graph (else PebblePathError)."""
    path = tuple(path)
    if len(path) < 2:
        raise BoardPathError("a flip path needs at least two vertices")
    if len(set(path)) != len(path):
        raise BoardPathError(f"flip path {path} repeats a vertex")
    badj = board.adj
    for a, b in zip(path, path[1:]):
        if b not in badj.get(a, ()):
            # an edge check fails on a missing vertex too; name that first
            for v in path:
                if v not in badj:
                    raise BoardPathError(f"flip path names missing vertex {v}")
            raise BoardPathError(
                f"board vertices {a} and {b} in flip path are not adjacent"
            )
    pebs = [cfg[v] for v in path]
    padj = pebbles.adj
    for a, b in zip(pebs, pebs[1:]):
        if b not in padj.get(a, ()):
            raise PebblePathError(
                f"pebbles {a} and {b} along flip path {path} are not "
                f"adjacent in the pebble graph"
            )
    cfg.update(zip(path, reversed(pebs)))


def apply_flip(puz, config, path):
    """Reverse the pebbles along a board path.

    ``config`` must arrange the pebbles (else PuzzleError), ``path`` must
    be a board path (else BoardPathError) and its pebbles must form a path
    in the pebble graph (else PebblePathError).
    """
    cfg = dict(zip(puz.board.vertices, check_configuration(puz, config)))
    _flip_in_place(puz.board, puz.pebbles, cfg, path)
    return tuple(cfg.values())


def replay_flips(puz, start, flips):
    """Apply a flip list from ``start``; returns the final configuration."""
    cfg = dict(zip(puz.board.vertices, check_configuration(puz, start)))
    for fl in flips:
        _flip_in_place(puz.board, puz.pebbles, cfg, fl)
    return tuple(cfg.values())


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
    def realized(flips):
        return dict(zip(g.vertices, flip_sequence_permutation(g, flips)))

    tau = realized(s1)
    if not is_automorphism(g, tau):
        raise ValueError(
            "the first sequence realizes a non-automorphism; concatenation "
            "after it is not replay-safe"
        )
    combined = list(s1) + list(s2)
    if realized(combined) != compose(tau, realized(s2)):
        raise RealizationError(
            "concatenated flip sequence does not realize the product"
        )
    return combined


# ---------------------------------------------------------------------------
# exhaustive search (the oracle the constructive engine is tested against):
# puzzle._search on the self-puzzle, with every canonical board path as a
# move: its one level loop and both engines, parents only for witnesses


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


def _flip_bfs(g, target, cap, witness=False, probes=None):
    """Search the flip space from the identity, up to the level on which
    ``target`` appears or to its end when target is None.  ``states()``
    builds the frozenset of the permutations visited, and with
    ``witness``, ``moves_to(sigma)`` gives the flips to sigma at its first
    discovery, or None when the search did not reach it.  Given
    ``probes``, it answers with ``hits``, the probes it visited, alone.
    A board the search refuses, too wide or with a cap below the start, is
    refused before its paths, which grow factorially, are enumerated."""
    puz = puz_on(g)
    _check_board(puz)
    _check_cap(1, cap)
    return _search(puz, identity_configuration(puz), cap, target, witness,
                   all_flip_paths(g), probes)


def flip_reachable_set(g, cap=DEFAULT_FLIP_CAP):
    """All permutations reachable from the identity by flips."""
    return _flip_bfs(g, None, cap).states()


def flip_bfs_oracle(g, sigma, cap=DEFAULT_FLIP_CAP):
    """Breadth-first truth: is sigma reachable from the identity by flips?
    Raises ValueError when sigma is not an arrangement of g's vertices."""
    sigma = _check_arrangement(g, sigma)
    return bool(_flip_bfs(g, sigma, cap, probes=[sigma]).hits)


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

def _replay_dict(g, flips, where):
    """The permutation flips realize from the identity on g's self-puzzle;
    an illegal flip is a construction failure, so it raises
    RealizationError."""
    cfg = {v: v for v in g.vertices}
    try:
        for fl in flips:
            _flip_in_place(g, g, cfg, fl)
    except FlipError as exc:
        raise RealizationError(f"internal: {where}: {exc}")
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
    x's cycle.  A fixed point x gives (0, 1, 1, x), the least key there
    is, so sig itself comes back at once with its first fixed point.
    Without one, no coprime power fixes a vertex either: e is coprime to
    every cycle length m >= 2, so (i + e) % m != i.  Then a vertex that
    lands on a neighbor beats every farther one, so distances are
    searched, each vertex's at most once, only when no such vertex exists.
    """
    for x in g.vertices:
        if sig[x] == x:
            return dict(sig), 1, x, 0, 1
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
            if y in g.adj[x]:
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
        # sig^e has the order of sig, and sig is (sig^e)^k for k = 1/e mod ordr
        sigp, e, x, d, m = _select_dict(g, sig)
        if m == 1:
            base = _case_fixed_point(g, sigp, depth)
        else:
            base = _case_moving(g, sigp, x, d, m, ordr, depth)
        flips = base * pow(e, -1, ordr)
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


def _swap_ends(p):
    """Flips exchanging the pebbles on the two ends of path p and leaving
    the rest in place: the whole path, then its interior (when that is
    still a flip)."""
    p = tuple(p)
    return [p, p[1:-1]] if len(p) >= 4 else [p]


# -- case: sig has a fixed point --------------------------------------------

def _case_fixed_point(g, sig, depth):
    fixed = [v for v in g.vertices if sig[v] == v]
    for x in fixed:
        if is_connected_without(g, x):
            rest = [v for v in g.vertices if v != x]
            return _realize(g.induced(rest), {v: sig[v] for v in rest},
                            depth - 1)
    # every fixed point cuts the graph: peel component swaps off sig until
    # the residue fixes each component of g - x, then recurse per component
    x = fixed[0]
    comps = components(g.induced([v for v in g.vertices if v != x]))
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    residual = dict(sig)
    swaps = []
    for ca, comp in enumerate(comps):
        # the components before ca are in place, so ca goes to a later one
        cb = comp_of[residual[comp[0]]]
        if cb == ca:
            continue
        va, vb = set(comp), set(comps[cb])
        inv = inverse(residual)
        nu = {
            v: residual[v] if v in va else inv[v] if v in vb else v
            for v in g.vertices
        }
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
    of maximal distance from x and its image runs through x, so swapping
    its ends swaps exactly that pair.  Distances are preserved by nu, the
    removed pair is farthest-from-x in both components, and every other
    vertex keeps a shortest path to x, so the remainder is connected.
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
    flips = _swap_ends(p)
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

def _case_moving(g, sig, x, d, m, ordr, depth):
    """x is a basepoint at distance d from sig(x), its orbit has m points
    and sig has order ordr.  The translates of a shortest x-sig(x) path
    span either all of g or only part of it."""
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
    if hv != set(g.vertices):
        return _grow_tails(g, sig, pwr, pth, d, m, ordr, hv, he, xk, x, depth)
    if m == ordr:
        return _spanning_cycle(g, sig, pwr, pth, d, ordr)
    return _quotient_split(
        Graph(hv, he), sig, pwr, m, ordr, xk[m - 1] - {pwr[m - 1][x]}, xk[0],
        depth, "quotient split",
    )


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


def _quotient_split(h, sig, pwr, m, ordr, moved, core, depth, where):
    """The translates span h but the basepoint orbit is a proper quotient
    (m < ordr): sig is a lift, sig^m on the residue class ``core`` and the
    identity elsewhere, after a twist that steps ``moved`` back by m - 1
    and agrees with sig on the rest.  Both factors are strictly simpler."""
    back = (1 - m) % ordr
    tau = {v: (pwr[back][v] if v in moved else sig[v]) for v in h.vertices}
    glift = {v: (pwr[m][v] if v in core else v) for v in h.vertices}
    if set(tau.values()) != set(h.vertices):
        raise RealizationError(f"internal: {where}: twist is not a bijection")
    if not is_automorphism(h, tau):
        raise RealizationError(f"internal: {where}: twist is not a map of H")
    if not is_identity(perm_power(tau, m)):
        raise RealizationError(f"internal: {where}: twist order exceeds m")
    if not is_automorphism(h, glift):
        raise RealizationError(f"internal: {where}: lift is not a map of H")
    if compose(glift, tau) != sig:
        raise RealizationError(f"internal: {where}: split does not compose")
    if core == set(h.vertices):
        raise RealizationError(f"internal: {where}: residue class not proper")
    h0 = h.induced(core)
    if not is_connected(h0):
        raise RealizationError("internal: residue-class subgraph disconnected")
    s0 = _realize(h0, {v: pwr[m][v] for v in core}, depth - 1)
    s1 = _realize(h, tau, depth - 1)
    return s0 + s1


def _grow_tails(g, sig, pwr, pth, d, m, ordr, hv, he, xk, x, depth):
    """The translates miss part of the graph: attach a farthest outside
    vertex by a shortest path and its translates, then split off what the
    enlarged subgraph still misses, or split or reflect it when it spans."""
    dist = distances_from(g, *hv)
    far = max(dist.values())
    z = min(v for v in g.vertices if dist[v] == far)
    q0 = shortest_path_to_set(g, z, hv)
    if q0 is None:
        raise RealizationError("internal: no path back to the translates")
    # q0 ends on the translate sig^jj of one of the path's first d vertices;
    # translate q0 back by jj
    jj = next(j for j in range(ordr) for v in pth[:d] if pwr[j][v] == q0[-1])
    qpath = [pwr[(ordr - jj) % ordr][v] for v in q0]
    q_edges = list(zip(qpath, qpath[1:]))
    fv = set(hv)
    fe = set(he)
    for i in range(ordr):
        fv.update(pwr[i][v] for v in qpath)
        fe.update(tuple(sorted((pwr[i][a], pwr[i][b]))) for a, b in q_edges)
    f = Graph(fv, fe)
    orbit_z = _orbit(qpath[0], [sig])
    if fv != set(g.vertices):
        return _split_off_orbit(g, sig, f, orbit_z, depth)
    if not is_connected(f):
        raise RealizationError("internal: grown subgraph disconnected")
    if m < ordr:
        wk = [
            {pwr[i][v] for i in range(k, ordr, m) for v in qpath}
            for k in range(m)
        ]
        moved = (xk[m - 1] - {pwr[m - 1][x]}) | wk[m - 1]
        return _quotient_split(f, sig, pwr, m, ordr, moved, xk[0] | wk[0],
                               depth, "tail quotient split")
    return _cycle_with_tails(g, sig, pwr, pth, qpath, d, ordr, hv, f, orbit_z,
                             depth)


def _split_off_orbit(g, sig, f, orbit_z, depth):
    """The grown subgraph F still misses vertices.  sig factors as
    (sig on F) * (sig^-1 on F minus the far orbit) * (sig off that orbit):
    the first two cancel outside F, the middle and last are automorphisms of
    their graphs, and each factor lives on strictly fewer vertices."""
    fpv = set(f.vertices) - orbit_z
    fp = f.induced(fpv)
    gpv = set(g.vertices) - orbit_z
    gp = g.induced(gpv)
    for sub, name in ((f, "F"), (fp, "F'"), (gp, "G'")):
        if not is_connected(sub):
            raise RealizationError(f"internal: {name} is disconnected")
    inv = inverse(sig)
    sig_f = {v: sig[v] for v in f.vertices}
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


def _cycle_with_tails(g, sig, pwr, pth, qpath, d, ordr, hv, f, orbit_z, depth):
    """F spans the graph: the translate cycle plus one tail per rotation
    step.  sig is a rotation of that picture, hence the product of two
    reflections; each reflection swaps tails wholesale and reflects the
    cycle, and is realized by pairwise tail-end swaps plus recursion."""
    zp = _cycle_labels(g, sig, pwr, pth, d, ordr, hv)
    r = len(zp)
    i0 = zp.index(qpath[-1])
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
    return _realize_reflection(f, rho1, orbit_z, depth) + _realize_reflection(
        f, rho0, orbit_z, depth
    )


def _realize_reflection(f, rho, orbit_z, depth):
    """Realize an involution that pairs up the far tail ends: swap the ends
    of a path between each pair that avoids already-swapped ends, then
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
        flips += _swap_ends(rpath)
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
