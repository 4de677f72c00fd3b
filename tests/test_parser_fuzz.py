"""Property tests for the text parsers: arbitrary input ends in a documented
error, and every formatted value parses back to itself, certificates
included.  Also the property that transposing a move sequence twice gives
it back.

Derandomized and without an example database, so each run tries the same
inputs.  Hypothesis still caches source constants and Unicode tables, at
collection time; they go to a temporary folder removed at exit, so a run
leaves no ``.hypothesis/`` folder behind.
"""

import itertools
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from pebblex.catalog import connected_graphs
from pebblex.errors import GraphParseError
from pebblex.flips import format_flip_sequence, parse_flip_sequence
from pebblex.graphs import Graph, format_graph, parse_graph
from pebblex.names import graph_from_desc
from pebblex.puzzle import (
    Puz,
    apply_move,
    puz_on,
    replay,
    transpose_configuration,
    transpose_instance,
    transpose_sequence,
)
from pebblex import squares
from pebblex.squares import MoveCertificate, format_certificate, parse_certificate

_home = tempfile.TemporaryDirectory(prefix="pebblex-hypothesis-")
set_hypothesis_home_dir(_home.name)

fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# lines of small (sometimes negative) integers, comments and blanks reach
# past the header checks far more often than arbitrary text does
_token = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["#", "x", "", "1.5"]))
_line = st.lists(_token, max_size=4).map(" ".join)
numeric_text = st.lists(_line, max_size=8).map("\n".join)
any_text = st.one_of(st.text(), numeric_text)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(1, n + 1), edges)


flip_sequences = st.lists(
    st.lists(st.integers(1, 40), min_size=2, max_size=6).map(tuple), max_size=6
)


@fuzz
@given(any_text)
def test_parse_graph_raises_only_parse_errors(text):
    try:
        g = parse_graph(text)
    except GraphParseError:
        return
    assert g.vertices == tuple(range(1, g.n + 1))


@fuzz
@given(any_text)
def test_parse_flip_sequence_raises_only_value_errors(text):
    try:
        flips = parse_flip_sequence(text)
    except ValueError:
        return
    assert all(len(p) >= 2 for p in flips)


@fuzz
@given(st.sampled_from(["", "1 2 3 4\n4 3 2 1\n"]), any_text)
def test_parse_certificate_raises_only_value_errors(prefix, text):
    # a builtin board, so no file is read; the optional start and end lines
    # let the fuzz reach the move count and the move lines
    try:
        cert = parse_certificate("board=p4^2 pebbles=p4^2\n" + prefix + text)
    except ValueError:
        return
    assert all(len(mv) == 2 for mv in cert.moves)


@fuzz
@given(graphs())
def test_graph_files_round_trip(g):
    back = parse_graph(format_graph(g))
    assert back.vertices == g.vertices
    assert back.edges() == g.edges()


@fuzz
@given(flip_sequences)
def test_flip_sequences_round_trip(flips):
    assert parse_flip_sequence(format_flip_sequence(flips)) == flips


def _walk(draw, pz, max_moves):
    """A random start on ``pz`` and a random walk of legal moves from it:
    (start, moves, end)."""
    board, pebbles = pz.board, pz.pebbles
    start = cfg = tuple(draw(st.permutations(pebbles.vertices)))
    moves = []
    for _ in range(draw(st.integers(0, max_moves))):
        legal = [(x1, x2) for x1, x2 in board.edges()
                 if pebbles.has_edge(cfg[board.index_of(x1)], cfg[board.index_of(x2)])]
        if not legal:
            break
        x1, x2 = draw(st.sampled_from(legal))
        move = (x2, x1) if draw(st.booleans()) else (x1, x2)
        moves.append(move)
        cfg = apply_move(pz, cfg, move)
    return start, moves, cfg


@st.composite
def legal_walks(draw):
    """A catalog board, a random pebble graph labeled by any n positive ints,
    a random start and a random walk of legal moves from it."""
    n = draw(st.integers(2, 6))
    board = draw(st.sampled_from(connected_graphs(n)))
    labels = sorted(draw(st.sets(st.integers(1, 2 * n), min_size=n, max_size=n)))
    pairs = list(itertools.combinations(labels, 2))
    pebbles = Graph(labels, draw(st.lists(st.sampled_from(pairs), unique=True)))
    pz = Puz(board, pebbles)
    return (pz, *_walk(draw, pz, 12))


@fuzz
@given(legal_walks())
def test_transpose_sequence_is_an_involution(walk):
    pz, start, moves, end = walk
    t_start, t_moves = transpose_sequence(pz, start, moves)
    tz = transpose_instance(pz)
    assert replay(tz, t_start, t_moves) == transpose_configuration(pz, end)
    assert transpose_sequence(tz, t_start, t_moves) == (start, moves)


_noise = st.sampled_from(["", "   ", "#", "# note 1 2"])


@st.composite
def noisy_certificates(draw):
    """A random legal walk on a builtin self-puzzle as a certificate, and
    its text with blank and comment lines spliced in and some move lines
    padded with whitespace.  The walks are long on small boards, so most
    move lines repeat."""
    desc = draw(st.sampled_from(["p4^2", "c5^2", "q2^2"]))
    pz = puz_on(graph_from_desc(desc))
    start, moves, end = _walk(draw, pz, 60)
    cert = MoveCertificate(pz, start, end, tuple(moves), desc, desc)
    noisy = []
    for i, ln in enumerate(format_certificate(cert).splitlines()):
        noisy += draw(st.lists(_noise, max_size=2))
        noisy.append(f" {ln}\t" if i >= 4 and draw(st.booleans()) else ln)
    return cert, "\n".join(noisy + draw(st.lists(_noise, max_size=2)))


@fuzz
@given(noisy_certificates())
def test_certificates_round_trip_through_noise(pair):
    cert, text = pair
    back = parse_certificate(text).validate()
    assert (back.start, back.end, back.moves) == (cert.start, cert.end, cert.moves)
    assert format_certificate(back) == format_certificate(cert)


# every line break str.splitlines knows, between short runs of other text
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
           "\x85", "\u2028", "\u2029"]
broken_text = st.lists(
    st.one_of(st.sampled_from(_BREAKS), st.sampled_from(["", " ", "a", "1 2"])),
    max_size=40,
).map("".join)


@fuzz
@given(broken_text, st.integers(1, 6))
def test_chunked_split_is_splitlines(text, chunk):
    # chunks this small put \r\n pairs and empty lines across chunk edges
    with mock.patch.object(squares, "_CHUNK", chunk):
        assert list(squares._split_lines(text)) == text.splitlines()
