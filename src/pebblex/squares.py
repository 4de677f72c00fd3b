"""Constructive move sequences on squared paths, and the compiler that turns
any flip-realizable automorphism into explicit pebble exchanges on a squared
graph.

Three related sequence families, all reversing n pebbles:

* ``seq_A(n)``: board and pebble graph are both the squared path on 1..n.
* ``seq_B(n)``: same pebbles, but the board is the squared path on 1..n+1
  with vertex n deleted.  The missing vertex starves the board of one edge,
  which is exactly what the recursion needs.
* ``seq_C(n)``: the transpose of seq_B, swapping the roles of board and
  pebble graph.

The recursion builds B(n) out of B(n-1), A(n-2) and C(n-1), whose moves it
renames onto the board: shifted one vertex up, or kept and run backwards.
Each stage is replayed on the board, whose move rule checks every renamed
move, and the whole configuration it ends at is checked against the one
expected; the public builders replay each finished certificate start to
end.  A construction error raises SynthesisError instead of producing a
bad certificate.

The dense certificates behind the three families (labels 1..n) are built
once per n and shared: they are frozen and hold only immutable graphs, so
every compiled flip of length k reuses the one dense seq_A(k).  Their move
tuples hold one pair per distinct move, and seq_B's renamed moves do too:
a stage is renamed through a dict over its distinct moves, so a held move
costs its 8-byte slot, where a pair of its own would add 56 bytes more.

Certificates serialize to text: a descriptor line naming both graphs, the
start and end configurations, then the move list.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import IllegalMoveError, SynthesisError
from .graphs import Graph, path, square
from .perms import is_automorphism
from .puzzle import (
    DEFAULT_CAP,
    Puz,
    bfs_witness,
    identity_configuration,
    puz_on,
    replay,
    transpose_sequence,
)

# Sequence length roughly multiplies by 1+sqrt(2) per n.  A held move costs
# its 8-byte slot, since the move lists share one pair per distinct move:
# the dense certificates behind seq_A(17) hold 1.9 million moves in 14.8
# MB.  A fresh `pebblex reverse-square --n 16 --out F` peaked at 43 MB
# resident, and `--n 17 --allow-large` at 59 MB (x86-64, CPython 3.11).
MAX_RECURSIVE_N = 16


def sequence_length(n):
    """Moves in seq_A(n)/seq_B(n)/seq_C(n): the reversal recursion uses two
    sequences one size down, one two sizes down, and one extra move."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = 0, 1  # lengths at sizes 1 and 2
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, 2 * b + a + 1
    return b


def reversal(n):
    return tuple(range(n, 0, -1))


@dataclass(frozen=True)
class MoveCertificate:
    """A replayable claim: ``moves`` turns ``start`` into ``end`` on ``puz``.

    ``board_desc``/``pebbles_desc`` are graph descriptors making the
    certificate self-contained when serialized.  ``provenance`` records how
    the moves were obtained: recursive, bfs, compiled, or file (read back
    by ``parse_certificate``).
    """

    puz: Puz
    start: tuple
    end: tuple
    moves: tuple
    board_desc: str
    pebbles_desc: str
    provenance: str = "recursive"

    def validate(self):
        """Replay the moves; raises unless the end configuration matches."""
        got = replay(self.puz, self.start, self.moves)
        if got != self.end:
            raise SynthesisError(
                f"certificate replay ends at {got}, claimed {self.end}"
            )
        return self


# ---------------------------------------------------------------------------
# the dense recursion (labels 1..n throughout; relabeling happens at the
# public seq_B/seq_C seam)

def _board_b(n):
    """Squared path on 1..n minus the edge (n-2, n): the dense form of the
    squared (n+1)-path with vertex n deleted."""
    sq = square(path(n))
    if n < 3:
        return sq
    return Graph(sq.vertices, [e for e in sq.edges() if e != (n - 2, n)])


@functools.lru_cache(maxsize=None)
def _dense_b(n):
    host = Puz(_board_b(n), square(path(n)))
    return MoveCertificate(
        host,
        tuple(range(1, n + 1)),
        reversal(n),
        _b_moves(host, n),
        board_desc=f"p{n + 1}^2~{n}",
        pebbles_desc=f"p{n}^2",
    )


@functools.lru_cache(maxsize=None)
def _dense_a(n):
    sq = square(path(n))
    return MoveCertificate(
        Puz(sq, sq),
        tuple(range(1, n + 1)),
        reversal(n),
        _dense_b(n).moves,
        board_desc=f"p{n}^2",
        pebbles_desc=f"p{n}^2",
    )


@functools.lru_cache(maxsize=None)
def _dense_c(n):
    b = _dense_b(n)
    t_start, t_moves = transpose_sequence(b.puz, b.start, b.moves)
    if t_start != b.start:
        raise SynthesisError("transposed start is not the identity")
    return MoveCertificate(
        Puz(b.puz.pebbles, b.puz.board),
        b.start,
        reversal(n),
        tuple(t_moves),
        board_desc=f"p{n}^2",
        pebbles_desc=f"p{n + 1}^2~{n}",
    )


def _b_moves(host, n):
    """The moves of the dense B(n) on ``host``, built from smaller sizes.

    Each stage renames a cached smaller certificate's moves onto the host
    and replays them there, so the host's move rule checks every move; the
    whole configuration the stage ends at is then checked against the one
    the recursion expects.
    """
    if n == 1:
        return ()
    if n == 2:
        return ((1, 2),)
    shift = {v: v + 1 for v in range(1, n)}
    stages = (
        # 1. reverse pebbles 2..n on board 2..n (one size down, shifted)
        (_renamed(_dense_b(n - 1).moves, shift),
         (1,) + tuple(range(n, 1, -1))),
        # 2. rotate the middle block into ascending order (two sizes down)
        (_renamed(_dense_a(n - 2).moves, shift),
         (1,) + tuple(range(3, n + 1)) + (2,)),
        # 3. the transposed sequence run backwards (each move undoes itself,
        # so it walks C's end back to its start) descends the front
        (_dense_c(n - 1).moves[::-1], tuple(range(n, 2, -1)) + (1, 2)),
        # 4. one last exchange finishes the reversal
        (((n - 1, n),), reversal(n)),
    )
    cfg = tuple(range(1, n + 1))
    for k, (stage, expect) in enumerate(stages, start=1):
        where = f"reversal recursion n={n}, stage {k}"
        try:
            cfg = replay(host, cfg, stage)
        except IllegalMoveError as exc:
            raise SynthesisError(f"{where}: {exc}") from None
        if cfg != expect:
            raise SynthesisError(f"{where}: got {cfg}")
    return tuple(itertools.chain.from_iterable(stage for stage, _ in stages))


def _renamed(moves, rename):
    """``moves`` with both ends of each move renamed by the dict ``rename``.
    Each distinct move is renamed once, so the tuple holds one pair per
    distinct move."""
    pair = {(a, b): (rename[a], rename[b]) for a, b in set(moves)}
    return tuple(map(pair.__getitem__, moves))


def _check_n(n, allow_large):
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_RECURSIVE_N and not allow_large:
        raise ValueError(
            f"n={n} would synthesize about 2.414**n moves; pass "
            f"allow_large=True to do it anyway"
        )


# ---------------------------------------------------------------------------
# public sequence builders

def seq_A(n, via="recursive", allow_large=False, cap=DEFAULT_CAP):
    """Certificate reversing n pebbles on the squared path.

    ``via='bfs'`` (n <= 5) finds a shortest sequence by search instead of
    the recursion, visiting at most ``cap`` configurations (more raise
    CapExceededError); the provenance field records which route was taken.
    """
    _check_n(n, allow_large)
    if via == "bfs":
        if n > 5:
            raise ValueError("bfs synthesis is capped at n=5")
        puz = puz_on(square(path(n)))
        moves = bfs_witness(puz, identity_configuration(puz), reversal(n), cap=cap)
        cert = MoveCertificate(
            puz, tuple(range(1, n + 1)), reversal(n), tuple(moves),
            board_desc=f"p{n}^2", pebbles_desc=f"p{n}^2", provenance="bfs",
        )
    elif via == "recursive":
        cert = _dense_a(n)
    else:
        raise ValueError(f"unknown synthesis route {via!r}")
    return cert.validate()


def _minus_n(n):
    """The squared (n+1)-path with vertex n deleted, and the map of the
    dense labels 1..n onto its vertices (n goes to n+1)."""
    rename = {v: (v if v < n else n + 1) for v in range(1, n + 1)}
    return square(path(n + 1)).induced(rename.values()), rename


def seq_B(n, allow_large=False):
    """Certificate reversing n pebbles on the squared (n+1)-path with
    vertex n deleted.  Board vertices keep their original names
    1..n-1, n+1; configurations are aligned to that sorted order."""
    _check_n(n, allow_large)
    dense = _dense_b(n)
    board, rename = _minus_n(n)
    cert = MoveCertificate(
        Puz(board, dense.puz.pebbles),
        dense.start,
        dense.end,
        _renamed(dense.moves, rename),
        board_desc=f"p{n + 1}^2~{n}",
        pebbles_desc=f"p{n}^2",
    )
    return cert.validate()


def seq_C(n, allow_large=False):
    """The transpose of seq_B: board is the squared path on 1..n, pebbles
    live on the squared (n+1)-path with vertex n deleted, and the sequence
    carries (1, ..., n-1, n+1) to (n+1, n-1, ..., 2, 1)."""
    _check_n(n, allow_large)
    dense = _dense_c(n)
    pebbles, rename = _minus_n(n)
    cert = MoveCertificate(
        Puz(dense.puz.board, pebbles),
        tuple(rename[p] for p in dense.start),
        tuple(rename[p] for p in dense.end),
        dense.moves,
        board_desc=f"p{n}^2",
        pebbles_desc=f"p{n + 1}^2~{n}",
    )
    return cert.validate()


# ---------------------------------------------------------------------------
# compiling automorphisms of g into moves on the square of g

def compile_automorphism_to_square_moves(g, sigma, board_desc=None):
    """Moves on the self-puzzle of g squared that realize sigma.

    sigma must be an automorphism of connected g.  It is first realized as
    path reversals on g; each reversal of a path P becomes seq_A(len(P))
    with its board vertices renamed along P.  Inside the square, vertices at
    distance <= 2 along P are adjacent, and so are the pebbles on them,
    which lie in order along a path of g; so every renamed move is legal.
    The certificate's one replay checks each renamed move and that the moves
    end at sigma.
    """
    from .flips import realize_by_flips

    if not g.is_dense_labeled():
        raise ValueError("needs a densely labeled graph")
    sigma = tuple(sigma)
    if not is_automorphism(g, sigma):
        raise ValueError(f"{sigma} is not an automorphism of the graph")
    moves = tuple(
        (fl[a - 1], fl[b - 1])
        for fl in realize_by_flips(g, sigma)
        for a, b in _dense_a(len(fl)).moves
    )
    host = puz_on(square(g))
    desc = board_desc if board_desc is not None else f"<{g.n}-vertex-graph>^2"
    cert = MoveCertificate(
        host, identity_configuration(host), sigma, moves,
        board_desc=desc, pebbles_desc=desc, provenance="compiled",
    )
    return cert.validate()


# ---------------------------------------------------------------------------
# certificate wire format

def format_certificate(cert):
    for d in (cert.board_desc, cert.pebbles_desc):
        # the header is whitespace-split on parse, so d must split to itself
        if d.split() != [d]:
            raise ValueError(
                f"graph descriptor {d!r} cannot appear in a certificate "
                f"header; use a whitespace-free descriptor"
            )
    lines = [f"board={cert.board_desc} pebbles={cert.pebbles_desc}"]
    lines.append(" ".join(str(p) for p in cert.start))
    lines.append(" ".join(str(p) for p in cert.end))
    lines.append(str(len(cert.moves)))
    move_text = {mv: f"{mv[0]} {mv[1]}" for mv in set(cert.moves)}
    lines.extend(map(move_text.__getitem__, cert.moves))
    return "\n".join(lines) + "\n"


_CHUNK = 1 << 16  # characters per chunk of certificate text split at once


def _split_lines(text):
    """The lines of ``text.splitlines()``, split one chunk at a time so that
    no list of every line is held.  A chunk is at least ``_CHUNK``
    characters and ends just after a newline (or at the end of the text),
    which ends a line whatever break it belongs to, ``\\r\\n`` included."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _move_line(no, raw):
    """Line ``no`` after the move count, read once per distinct text: None
    if blank or a comment, else its move pair or the error naming it."""
    ps = raw.split()
    if not ps or ps[0].startswith("#"):
        return None
    if len(ps) != 2:
        return f"line {no}: move line must be 'x1 x2'"
    try:
        return (int(ps[0]), int(ps[1]))
    except ValueError:
        return f"line {no}: move line must be two integers"


def parse_certificate(text):
    """Rebuild a certificate from its text form.

    The header is one ``board=`` and one ``pebbles=`` token, in either
    order.  Raises ValueError (naming the line) on format problems.  The
    replay itself is the caller's job, via ``.validate()``.
    """
    from .names import graph_from_desc

    lines, moves, seen = [], [], {}
    for no, raw in enumerate(_split_lines(text), start=1):
        if len(lines) == 4:
            try:
                mv = seen[raw]
            except KeyError:
                mv = seen[raw] = _move_line(no, raw)
            if mv is not None:
                moves.append(mv)
        elif raw.strip() and not raw.strip().startswith("#"):
            lines.append((no, raw.strip()))
    if len(lines) < 4:
        raise ValueError("line 1: certificate needs at least four lines")
    no, head = lines[0]
    tokens = head.split()
    parts = dict(kv.split("=", 1) for kv in tokens if "=" in kv)
    if len(tokens) != 2 or set(parts) != {"board", "pebbles"}:
        raise ValueError(
            f"line {no}: header must be 'board=<desc> pebbles=<desc>'"
        )
    try:
        board = graph_from_desc(parts["board"])
        pebbles = (board if parts["pebbles"] == parts["board"]
                   else graph_from_desc(parts["pebbles"]))
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}")
    puz = Puz(board, pebbles)

    def perm_line(no, ln, what):
        try:
            vals = tuple(int(t) for t in ln.split())
        except ValueError:
            raise ValueError(f"line {no}: {what} must be integers")
        if tuple(sorted(vals)) != pebbles.vertices:
            raise ValueError(
                f"line {no}: {what} is not an arrangement of the pebbles"
            )
        return vals

    start = perm_line(*lines[1], "start configuration")
    end = perm_line(*lines[2], "end configuration")
    no, cnt = lines[3]
    try:
        k = int(cnt)
    except ValueError:
        raise ValueError(f"line {no}: move count must be an integer")
    if k < 0 or len(moves) != k:
        raise ValueError(
            f"line {no}: declared {k} moves but found {len(moves)}"
        )
    for mv in seen.values():  # first occurrences, in file order
        if isinstance(mv, str):
            raise ValueError(mv)
    return MoveCertificate(
        puz, start, end, tuple(moves),
        board_desc=parts["board"], pebbles_desc=parts["pebbles"],
        provenance="file",
    )
