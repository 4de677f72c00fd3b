"""Reversal synthesis on squared paths and the certificate wire format."""

import dataclasses
import hashlib
import math

import pytest

from pebblex import (
    MoveCertificate,
    Puz,
    bfs_witness,
    compile_automorphism_to_square_moves,
    format_certificate,
    identity_configuration,
    parse_certificate,
    puz_on,
    reachable_set,
    realize_by_flips,
    replay,
    reversal,
    seq_A,
    seq_B,
    seq_C,
    sequence_length,
    square,
)
from pebblex import flips, names, squares
from pebblex.catalog import connected_graphs, trees
from pebblex.errors import PuzzleError, SynthesisError
from pebblex.names import graph_from_desc
from pebblex.perms import automorphisms


def path(n):
    return graph_from_desc(f"p{n}")


SEQUENCE_LENGTHS = [
    0, 1, 3, 8, 20, 49, 119, 288, 696, 1681,
    4059, 9800, 23660, 57121, 137903, 332928,
]


def test_sequence_length_frozen_table():
    assert [sequence_length(n) for n in range(1, 17)] == SEQUENCE_LENGTHS


def test_sequence_length_recurrence():
    for n in range(3, 16):
        assert (
            sequence_length(n)
            == 2 * sequence_length(n - 1) + sequence_length(n - 2) + 1
        )
    with pytest.raises(ValueError):
        sequence_length(0)


def test_reversal():
    assert reversal(4) == (4, 3, 2, 1)
    assert reversal(1) == (1,)


# ---------------------------------------------------------------------------
# the three sequence families

@pytest.mark.parametrize("n", range(1, 9))
def test_seq_a_reverses_n_pebbles(n):
    cert = seq_A(n)
    assert cert.start == tuple(range(1, n + 1))
    assert cert.end == reversal(n)
    assert len(cert.moves) == sequence_length(n)
    assert cert.provenance == "recursive"
    cert.validate()


def test_seq_a_bfs_route():
    cert = seq_A(5, via="bfs")
    assert cert.end == reversal(5)
    assert cert.provenance == "bfs"
    # search finds a shorter sequence than the recursion at n=5
    assert len(cert.moves) == 10
    with pytest.raises(ValueError):
        seq_A(6, via="bfs")
    with pytest.raises(ValueError):
        seq_A(4, via="meet-in-the-middle")


# move lists recorded before the witness search was shared with the flip
# oracle: parents are kept at first discovery, in frontier and edge order
SEQ_A_BFS_MOVES = {
    1: (),
    2: ((1, 2),),
    3: ((1, 3),),
    4: ((1, 2), (3, 4), (1, 3), (2, 4)),
    5: ((1, 2), (1, 3), (3, 4), (1, 3), (2, 4), (3, 5), (1, 3), (2, 3),
        (3, 4), (3, 5)),
}


@pytest.mark.parametrize("n", sorted(SEQ_A_BFS_MOVES))
def test_seq_a_bfs_moves_are_pinned(n):
    assert seq_A(n, via="bfs").moves == SEQ_A_BFS_MOVES[n]


def test_seq_a_size_guard():
    with pytest.raises(ValueError):
        seq_A(17)
    assert len(seq_A(17, allow_large=True).moves) == 803760


@pytest.mark.parametrize("n", range(2, 8))
def test_seq_b_board_skips_second_to_last_vertex(n):
    cert = seq_B(n)
    assert cert.puz.board.vertices == tuple(range(1, n)) + (n + 1,)
    assert cert.puz.pebbles.vertices == tuple(range(1, n + 1))
    assert cert.start == tuple(range(1, n + 1))
    assert cert.end == reversal(n)
    assert len(cert.moves) == sequence_length(n)
    cert.validate()


def test_seq_b_small_values():
    b2 = seq_B(2)
    assert b2.puz.board.vertices == (1, 3)
    assert b2.moves == ((1, 3),)
    assert b2.board_desc == "p3^2~2"
    b3 = seq_B(3)
    assert b3.moves == ((2, 4), (1, 2), (2, 4))
    b5 = seq_B(5)
    assert b5.puz.board.vertices == (1, 2, 3, 4, 6)
    assert b5.start == (1, 2, 3, 4, 5)
    assert b5.end == (5, 4, 3, 2, 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_seq_c_pebbles_skip_second_to_last_vertex(n):
    cert = seq_C(n)
    assert cert.puz.board.vertices == tuple(range(1, n + 1))
    assert cert.puz.pebbles.vertices == tuple(range(1, n)) + (n + 1,)
    assert cert.start == tuple(range(1, n)) + (n + 1,)
    assert cert.end == (n + 1,) + tuple(range(n - 1, 0, -1))
    assert len(cert.moves) == sequence_length(n)
    cert.validate()


def test_seq_c_small_values():
    c2 = seq_C(2)
    assert c2.puz.board.vertices == (1, 2)
    assert c2.puz.pebbles.vertices == (1, 3)
    assert c2.start == (1, 3)
    assert c2.end == (3, 1)
    assert c2.moves == ((1, 2),)
    c4 = seq_C(4)
    assert c4.start == (1, 2, 3, 5)
    assert c4.end == (5, 3, 2, 1)


@pytest.mark.parametrize("build", [seq_B, seq_C])
@pytest.mark.parametrize("n", range(1, 6))
def test_seq_b_and_c_agree_with_their_descriptors(build, n):
    # n = 1 included: the board of seq_B(1) is vertex 2, as p2^2~1 names it
    cert = build(n)
    assert graph_from_desc(cert.board_desc) == cert.puz.board
    assert graph_from_desc(cert.pebbles_desc) == cert.puz.pebbles
    back = parse_certificate(format_certificate(cert)).validate()
    assert (back.start, back.end, back.moves) == (cert.start, cert.end, cert.moves)


# sha256 over the dense seq_B and seq_C moves for n = 1..16, as the reversal
# recursion built them when it still searched each stage's orientation
DENSE_BC_DIGEST = (
    "e33e7870779bc0c018e58a1a56256aee588b7cab984c41216934581c5de05653"
)


def test_dense_b_and_c_moves_are_pinned():
    h = hashlib.sha256()
    for n in range(1, squares.MAX_RECURSIVE_N + 1):
        h.update(repr(squares._dense_b(n).moves).encode())
        h.update(repr(squares._dense_c(n).moves).encode())
    assert h.hexdigest() == DENSE_BC_DIGEST


def test_long_move_lists_hold_one_pair_per_distinct_move():
    # the digest pins compare values only; a list that gave each move a
    # pair of its own would hold as many objects as it has moves
    for n in range(1, squares.MAX_RECURSIVE_N + 1):
        for cert in (squares._dense_b(n), squares._dense_c(n)):
            assert len({id(mv) for mv in cert.moves}) <= 6 * cert.puz.board.m
    for moves in (seq_B(12).moves,
                  parse_certificate(format_certificate(seq_A(12))).moves):
        assert len({id(mv) for mv in moves}) == len(set(moves))


@pytest.fixture
def fresh_dense_caches():
    # the recursion runs only on a cache miss: clear before, so that it
    # runs, and after, so that no entry built from a broken stage outlives
    # the test
    caches = (squares._dense_a, squares._dense_b, squares._dense_c)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("broken, error", [
    # (1, 4) shifts to (2, 5), board vertices three apart on the squared path
    (lambda moves: ((1, 4),) + moves,
     r"n=5, stage 2: board vertices 2 and 5 are not adjacent"),
    (lambda moves: moves[:-1], r"n=5, stage 2: got \(1, 3, 5, 4, 2\)"),
], ids=["illegal-move", "ends-elsewhere"])
def test_reversal_recursion_refuses_a_broken_stage(
        monkeypatch, fresh_dense_caches, broken, error):
    real = squares._dense_a

    def dense_a(n):
        cert = real(n)
        return dataclasses.replace(cert, moves=broken(cert.moves)) if n == 3 else cert

    monkeypatch.setattr(squares, "_dense_a", dense_a)
    with pytest.raises(SynthesisError, match=error):
        squares._dense_b(5)


def test_seq_a_endpoint_is_reachable_by_search():
    # independent confirmation on a size the configuration BFS can cover
    for n in range(2, 6):
        pz = puz_on(square(path(n)))
        reach = reachable_set(pz)
        assert seq_A(n).end in reach
        assert len(reach) == math.factorial(n)


# ---------------------------------------------------------------------------
# compiling arbitrary automorphisms

def test_compile_c5_rotation():
    g = graph_from_desc("c5")
    cert = compile_automorphism_to_square_moves(g, (2, 3, 4, 5, 1))
    # the square of C5 is K5
    assert cert.puz.board.m == 10
    assert cert.end == (2, 3, 4, 5, 1)
    assert cert.provenance == "compiled"
    assert replay(cert.puz, cert.start, cert.moves) == cert.end


def test_compile_star_rotation():
    g = graph_from_desc("star3")
    cert = compile_automorphism_to_square_moves(g, (1, 3, 4, 2))
    # the square of a 3-leaf star is K4
    assert cert.puz.board.m == 6
    assert cert.moves == ((1, 3), (2, 1), (1, 3), (1, 4), (3, 1), (1, 4))
    assert cert.end == (1, 3, 4, 2)


# sha256 over the certificate text and the flip list of every automorphism
# of every tree up to 7 vertices and every connected graph up to 5 (1,267
# automorphisms), as the compiler has produced them since before its inputs
# were memoized
COMPILED_DIGEST = (
    "e93deaf668ffe00bba950e7979303068b1708670c654dcd25730dfe330289f8d"
)


def test_compiled_certificates_are_pinned():
    h = hashlib.sha256()
    boards = [g for n in range(1, 8) for g in trees(n)]
    boards += [g for n in range(1, 6) for g in connected_graphs(n)]
    for g in boards:
        for sigma in automorphisms(g):
            cert = compile_automorphism_to_square_moves(g, sigma, board_desc="x")
            h.update(format_certificate(cert).encode())
            h.update(repr(realize_by_flips(g, sigma)).encode())
    assert h.hexdigest() == COMPILED_DIGEST


def test_compile_rejects_non_automorphism():
    with pytest.raises(ValueError):
        compile_automorphism_to_square_moves(path(4), (2, 1, 3, 4))


def test_compile_returns_no_certificate_it_has_not_replayed(monkeypatch):
    # the compiler renames each flip's moves without replaying them; the
    # certificate's replay must still refuse a wrong end and an illegal move
    real = flips.realize_by_flips
    c5, p4 = graph_from_desc("c5"), path(4)
    monkeypatch.setattr(
        flips, "realize_by_flips", lambda g, sigma: real(g, (5, 1, 2, 3, 4))
    )
    with pytest.raises(PuzzleError):
        compile_automorphism_to_square_moves(c5, (2, 3, 4, 5, 1))
    # the flip (1, 2, 3, 4) cut to its ends: (1, 4) is no edge of p4 squared
    monkeypatch.setattr(flips, "realize_by_flips", lambda g, sigma: [(1, 4)])
    with pytest.raises(PuzzleError):
        compile_automorphism_to_square_moves(p4, (4, 3, 2, 1))


def test_compile_unnamed_board_gets_placeholder_descriptor():
    g = graph_from_desc("c5")
    cert = compile_automorphism_to_square_moves(g, (1, 2, 3, 4, 5))
    assert cert.board_desc == "<5-vertex-graph>^2"
    # serializes, but the placeholder deliberately names no real graph
    text = format_certificate(cert)
    with pytest.raises(ValueError, match="line 1"):
        parse_certificate(text)


# ---------------------------------------------------------------------------
# wire format

def test_certificate_round_trip_is_byte_identical():
    cert = seq_A(4)
    text = format_certificate(cert)
    assert text == (
        "board=p4^2 pebbles=p4^2\n"
        "1 2 3 4\n"
        "4 3 2 1\n"
        "8\n"
        "3 4\n2 3\n3 4\n2 3\n1 2\n1 3\n2 3\n3 4\n"
    )
    back = parse_certificate(text)
    back.validate()
    assert back.provenance == "file"
    assert format_certificate(back) == text


def test_format_certificate_rejects_whitespace_descriptors():
    cert = seq_A(3)
    for desc in ("my graph^2", "my\tgraph^2", "my\ngraph^2", "my\u00a0graph^2",
                 "p3^2\n", " p3^2", ""):
        for side in ("board_desc", "pebbles_desc"):
            descs = {"board_desc": cert.board_desc,
                     "pebbles_desc": cert.pebbles_desc, side: desc}
            bad = MoveCertificate(cert.puz, cert.start, cert.end, cert.moves,
                                  **descs)
            with pytest.raises(ValueError) as exc:
                format_certificate(bad)
            assert str(exc.value) == (
                f"graph descriptor {desc!r} cannot appear in a certificate "
                f"header; use a whitespace-free descriptor"
            )


def test_parse_certificate_reports_line_numbers():
    good = format_certificate(seq_A(3))
    with pytest.raises(ValueError, match="line 1"):
        parse_certificate("board=p3^2\n1 2 3\n3 2 1\n0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_certificate("zzz\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_certificate(good.replace("1 2 3\n", "1 2 x\n", 1))
    with pytest.raises(ValueError, match="line 3"):
        parse_certificate(good.replace("3 2 1\n", "3 2 2\n", 1))
    with pytest.raises(ValueError, match="line 4"):
        parse_certificate(good.replace("\n3\n", "\n7\n", 1))
    lines = good.splitlines()
    lines[4] = lines[4] + " 9"  # first move line gains a third token
    with pytest.raises(ValueError, match="line 5"):
        parse_certificate("\n".join(lines) + "\n")
    # a malformed copy of a move line seen many times names its own line
    lines = format_certificate(seq_A(6)).splitlines()
    last = max(i for i, ln in enumerate(lines) if ln == "4 5")
    assert lines.count("4 5") > 5
    lines[last] = "4 5x"
    with pytest.raises(
            ValueError, match=f"^line {last + 1}: move line must be two integers$"):
        parse_certificate("\n".join(lines) + "\n")
    # a wrong move count is reported before a malformed move line
    lines[3] = "48"
    with pytest.raises(ValueError, match="^line 4: declared 48 moves but found 49$"):
        parse_certificate("\n".join(lines) + "\n")


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_malformed_move_deep_in_a_long_certificate_names_its_line(newline):
    # the text is split in chunks: a line number counts across their edges
    lines = format_certificate(seq_A(15)).splitlines()
    lines[70_000] += "x"
    with pytest.raises(
            ValueError, match="^line 70001: move line must be two integers$"):
        parse_certificate(newline.join(lines) + newline)


def test_parse_certificate_takes_exactly_one_board_and_one_pebbles_token():
    body = "1 2 3\n3 2 1\n3\n1 2\n2 3\n1 2\n"
    for head in ("board=p3^2 pebbles=p3^2 junk",
                 "board=p4^2 board=p3^2 pebbles=p3^2",
                 "board=p3^2 pebbles=p3^2 # c"):
        with pytest.raises(ValueError) as exc:
            parse_certificate(f"{head}\n{body}")
        assert str(exc.value) == "line 1: header must be 'board=<desc> pebbles=<desc>'"
    for head in ("board=p3^2 pebbles=p3^2", "pebbles=p3^2 board=p3^2"):
        assert parse_certificate(f"{head}\n{body}").validate().end == (3, 2, 1)


def test_certificate_validate_rejects_wrong_end():
    cert = seq_A(3)
    lie = MoveCertificate(
        cert.puz, cert.start, (1, 2, 3), cert.moves,
        cert.board_desc, cert.pebbles_desc,
    )
    from pebblex import SynthesisError

    with pytest.raises(SynthesisError):
        lie.validate()


def test_parsed_certificate_replays_like_builder():
    pz = puz_on(square(path(4)))
    w = bfs_witness(pz, identity_configuration(pz), (4, 3, 2, 1))
    cert = MoveCertificate(
        pz, identity_configuration(pz), (4, 3, 2, 1), tuple(w),
        board_desc="p4^2", pebbles_desc="p4^2", provenance="bfs",
    ).validate()
    back = parse_certificate(format_certificate(cert)).validate()
    assert back.end == cert.end
    assert back.moves == cert.moves


@pytest.mark.parametrize("build,board,pebbles,calls", [
    (seq_A, "p4^2", "p4^2", 1),
    (seq_B, "p5^2~4", "p4^2", 2),
])
def test_parse_certificate_builds_each_distinct_graph_once(
        monkeypatch, build, board, pebbles, calls):
    seen = []

    def counting(desc, *args, **kwargs):
        seen.append(desc)
        return graph_from_desc(desc, *args, **kwargs)

    monkeypatch.setattr(names, "graph_from_desc", counting)
    cert = build(4)
    back = parse_certificate(format_certificate(cert)).validate()
    assert len(seen) == calls
    assert (back.puz.board, back.puz.pebbles) == (cert.puz.board, cert.puz.pebbles)
    assert (back.board_desc, back.pebbles_desc) == (board, pebbles)
