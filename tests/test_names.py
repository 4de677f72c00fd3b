"""Graph descriptors: the size each builtin names, and the limit on it."""

import time

import pytest

from pebblex import graphs, names, squares
from pebblex.names import MAX_EDGES, MAX_VERTICES, graph_from_desc

SMALL_BUILTINS = (
    [f"p{n}" for n in range(1, 12)]
    + [f"c{n}" for n in range(3, 12)]
    + [f"star{n}" for n in range(1, 10)]
    + [f"k{n}" for n in range(1, 10)]
    + [f"q{d}" for d in range(1, 8)]
    + [f"grid{a}x{b}" for a in range(1, 7) for b in range(1, 7)]
    + ["theta122"]
)


@pytest.mark.parametrize("desc", SMALL_BUILTINS)
def test_builtin_size_matches_the_built_graph(desc):
    m = names._BUILTIN.match(desc)
    for take_square in (False, True):
        g = graph_from_desc(desc + ("^2" if take_square else ""))
        assert names._builtin_size(m, take_square) == (g.n, g.m)


@pytest.mark.parametrize("desc", ["k5000", "q30", "p100000"])
def test_oversized_builtin_is_refused_before_any_graph(monkeypatch, desc):
    built = []
    real_init = graphs.Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(graphs.Graph, "__init__", counting)
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        graph_from_desc(desc)
    assert time.perf_counter() - t0 < 0.5
    assert built == []
    assert str(exc.value) == (
        f"graph descriptor {desc!r} is too large: builtin graphs are "
        f"limited to {MAX_VERTICES} vertices and {MAX_EDGES} edges"
    )


def test_size_limit_boundaries():
    # at the limits exactly, the counts pass; one past, they do not
    assert names._builtin_size(names._BUILTIN.match("p10000"), False) == (
        MAX_VERTICES, MAX_VERTICES - 1)
    assert names._builtin_size(names._BUILTIN.match("k633"), False)[1] > MAX_EDGES
    assert names._builtin_size(names._BUILTIN.match("k632"), False)[1] <= MAX_EDGES
    for desc in ("p10001", "k633", "q14", "c10001", "star632^2", "grid101x100"):
        with pytest.raises(ValueError, match="too large"):
            graph_from_desc(desc)
    # deletions come after the check: the base graph is what gets built
    with pytest.raises(ValueError, match="too large"):
        graph_from_desc("p10001~5")
    assert graph_from_desc("p10000~5").n == MAX_VERTICES - 1


def _write_graph(path, n, edges):
    path.write_text(graphs.format_graph(graphs.Graph(range(1, n + 1), edges)))
    return str(path)


def test_square_of_a_file_graph_is_bounded(tmp_path):
    # the file header passes parse_graph's limits; the square would not
    star = _write_graph(tmp_path / "star.g", 10_000,
                        [(1, v) for v in range(2, 10_001)])
    assert graph_from_desc(star).m == 9_999
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        graph_from_desc(star + "^2")
    assert time.perf_counter() - t0 < 0.5
    assert str(exc.value) == (
        f"the square has more than MAX_EDGES = {MAX_EDGES} edges")
    with pytest.raises(ValueError, match="MAX_EDGES"):
        squares.compile_automorphism_to_square_moves(
            graphs.star(9_999), tuple(range(1, 10_001)))
    path = _write_graph(tmp_path / "path.g", 10_000,
                        [(v, v + 1) for v in range(1, 10_000)])
    assert graph_from_desc(path + "^2").m == 2 * 10_000 - 3


def test_square_edge_limit_is_inclusive():
    # squares: star631 has 199,396 edges, p303 603 and one edge 1, so the
    # disjoint union squares to exactly MAX_EDGES; one more edge is refused
    edges = [(1, v) for v in range(2, 633)]
    edges += [(v, v + 1) for v in range(633, 935)]
    edges += [(936, 937)]
    assert graphs.square(graphs.Graph(range(1, 938), edges)).m == MAX_EDGES
    with pytest.raises(ValueError, match="MAX_EDGES"):
        graphs.square(graphs.Graph(range(1, 940), edges + [(938, 939)]))


def test_a_builtin_base_may_be_squared_more_than_once(monkeypatch):
    p9 = graphs.path(9)
    assert graph_from_desc("p4^2^2") == graphs.square(graphs.square(graphs.path(4)))
    assert graph_from_desc("p9^2^2~3") == graphs.square(graphs.square(p9)).induced(
        set(p9.vertices) - {3})
    # q11^2 has 67,584 edges and passes the size check; its square would
    # have 574,464 and is refused while it is collected
    with pytest.raises(ValueError, match="MAX_EDGES"):
        graph_from_desc("q11^2^2")
    # squaring stops once it adds no edge: p9 is complete after three
    calls = []
    square = graphs.square
    monkeypatch.setattr(graphs, "square", lambda g: calls.append(g) or square(g))
    assert graph_from_desc("p9" + "^2" * 10_000) == graphs.complete(9)
    assert len(calls) == 4


def test_a_file_base_runs_up_to_the_last_square(tmp_path):
    p4 = graphs.path(4)
    path = _write_graph(tmp_path / "g^2", 4, [(1, 2), (2, 3), (3, 4)])
    assert graph_from_desc(path + "^2") == graphs.square(p4)
    for desc in (path, path + "^2^2"):  # the files g and g^2^2, squared
        with pytest.raises(ValueError, match="no such file"):
            graph_from_desc(desc)
