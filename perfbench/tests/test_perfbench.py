"""Tests of the benchmark itself: determinism, failure counting, names.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import gc
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gauge  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def px(tmp_path_factory):
    os.environ["PEBBLEX_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    return run.import_pebblex()


def built(px, tmp_path, name, seed):
    wl = workloads.WORKLOADS[name]()
    wl.setup(px, str(tmp_path), seed, workloads.Stopwatch())
    return wl


def one_pass(px, wl, tracer=None):
    failures = []
    run.run_pass(px, wl, [[] for _ in wl.items], failures, tracer)
    return failures


def traced_counts(px, wl):
    tracer = tracing.Tracer(px)
    with tracer.active():
        failures = one_pass(px, wl, tracer)
    metrics = tracing.layer_metrics(tracer.spans)
    return failures, {k: v for k, v in metrics.items() if tracing.unit_of(k) == "count"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_items(px, tmp_path, name):
    wls = [built(px, tmp_path, name, seed) for seed in (7, 7, 8)]
    keys = [[it.key for it in wl.items] for wl in wls]
    assert keys[0] == keys[1]
    assert keys[2] != keys[0]
    assert wls[0].build_order == wls[1].build_order
    assert sorted(wls[0].build_order) == list(range(len(keys[0])))
    assert built(px, tmp_path, name, 7).verify_setup(px) == []


@pytest.mark.parametrize("name", ["synthesis_sweep", "cli_queries"])
def test_same_seed_same_counts(px, tmp_path, name):
    counts = []
    for _ in range(2):
        wl = built(px, tmp_path, name, 3)
        wl.items = [it for it in wl.items if "p9^2" not in it.key][:150]
        failures, c = traced_counts(px, wl)
        assert failures == []
        counts.append(c)
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_corrupted_certificate_is_a_failure(px, tmp_path, monkeypatch):
    wl = built(px, tmp_path, "synthesis_sweep", 1)
    wl.items = [it for it in wl.items if it.key[0] == "compile" and
                wl.boards[it.key[1]].n >= 3][:5]
    real = px.squares.format_certificate

    def corrupt(cert):
        lines = real(cert).splitlines()
        lines[-1] = " ".join(reversed(lines[-1].split()))  # reverse a move's vertices
        lines[-2] = lines[-1]  # and repeat it, so the replay goes elsewhere
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(px.squares, "format_certificate", corrupt)
    assert len(one_pass(px, wl)) == len(wl.items) == 5


def test_independent_replay_rejects_a_bad_move():
    sq = ref.square(ref.path(4))
    with pytest.raises(ref.CheckFailed):
        ref.replay_moves(sq, sq, (1, 2, 3, 4), [(1, 4)])


def test_wrong_expected_verdict_is_a_failure(px, tmp_path):
    wl = built(px, tmp_path, "cli_queries", 1)
    wl.items = [it for it in wl.items if it.key[:1] == ("classify",)][:6]
    assert one_pass(px, wl) == []
    wl.items[0].data["code"] = 1 - wl.items[0].data["code"]
    assert len(one_pass(px, wl)) == 1


def test_wrong_closed_form_is_a_failure(px, tmp_path, monkeypatch):
    wl = built(px, tmp_path, "feasibility_sweep", 1)
    wl.items = [it for it in wl.items if it.key[2] == "wilson"][:10]
    real = px.classify.wilson_feasible

    def flipped(g):
        v = real(g)
        return type(v)(v.applicable, not v.feasible, v.rule)

    monkeypatch.setattr(px.classify, "wilson_feasible", flipped)
    assert len(one_pass(px, wl)) == 10


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark_json(px, tmp_path, monkeypatch, trace):
    real_setup = workloads.CliQueries.setup

    def small_setup(self, px_, workdir, seed, timed):
        real_setup(self, px_, workdir, seed, timed)
        self.items = [it for it in self.items if it.key[0] in ("aut", "classify")][:20]
        self.build_order = list(range(len(self.items)))

    monkeypatch.setattr(workloads.CliQueries, "setup", small_setup)
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("PEBBLEX_CACHE_DIR", os.environ["PEBBLEX_CACHE_DIR"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "cli_queries", "--seed", "1",
                         "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_times_scale_by_the_gauge_median():
    class Fixed:
        def __init__(self, times):
            self.times = iter(times)

        def sample(self):
            return next(self.times)

    g = [0.01, 0.03, 0.02, 0.004, 0.006, 0.005, 0.1]
    log = gauge.SpeedLog(Fixed(g))
    for _ in g:
        log.take()
    assert log.scale() == pytest.approx(gauge.REFERENCE_S / 0.01)
    # samples within WINDOW_S of the moment, or else the NEAREST closest
    log.times = [0.0, 0.3, 0.6, 10.0, 10.2, 10.4, 10.6]
    assert log.scale_at(10.3) == pytest.approx(gauge.REFERENCE_S / 0.0055)
    assert log.scale_at(0.3) == pytest.approx(gauge.REFERENCE_S / 0.015)
    assert log.scale_at(5.0) == pytest.approx(gauge.REFERENCE_S / 0.013)


def test_gauge_restores_the_collector():
    assert gauge.Gauge().sample() > 0
    assert gc.isenabled()


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# hand-written references against the brute-force oracle in scripts/

@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location(
        "oracle_values", os.path.join(ROOT, "scripts", "oracle_values.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_catalog_counts_match_oracle(oracle):
    for n in range(1, 6):
        assert ref.CONNECTED_COUNTS[n] == oracle.count_connected_graphs(n)
    for n in range(1, 7):
        assert ref.TREE_COUNTS[n] == oracle.count_trees(n)


def test_reversal_lengths_match_oracle_output():
    with open(os.path.join(ROOT, "scripts", "oracle_output.txt")) as fh:
        line = next(ln for ln in fh if "L(1..16)" in ln)
    assert [ref.reversal_length(n) for n in range(1, 17)] == \
        json.loads(line.split("=", 1)[1])


def test_group_orders_and_counts_match_oracle(oracle):
    files = {}
    for d, order in ref.AUT_ORDERS.items():
        g = workloads.graph_of(d, files)
        if len(g) <= 7:
            assert oracle.automorphism_count(g) == order == len(ref.automorphisms(g))
    for d, (peb, states) in ref.PEB.items():
        g = workloads.graph_of(d, files)
        if len(g) <= 7:
            assert (oracle.peb_order(g), len(oracle.puzzle_bfs(g, g))) == (peb, states)
    names = {n: ref.multipartite(p) for n, p in workloads.MULTIPARTITE_FILES.items()}
    for (b, p), states in ref.REACHABLE.items():
        bg = workloads.graph_of(b, names)
        if len(bg) <= 6:
            assert len(oracle.puzzle_bfs(bg, workloads.graph_of(p, names))) == states
            assert len(ref.reachable_count(bg, workloads.graph_of(p, names))) == states


def test_flip_sizes_match_oracle(oracle):
    for adj in (ref.path(4), ref.cycle(4), ref.star(3), ref.complete(4), ref.cycle(5)):
        assert ref.FLIP_REACHABLE_SIZES[ref.canonical_text(adj)] == \
            len(oracle.flip_reachable(adj))
    assert len(ref.FLIP_REACHABLE_SIZES) == sum(
        ref.CONNECTED_COUNTS[n] for n in range(1, 7))


def test_applicable_forms_agree_with_fixed_count(px):
    total = sum(len(ref.applicable_forms(ref.adjacency(g.n, g.edges())))
                for n in range(2, 7) for g in px.catalog.connected_graphs(n))
    assert total == ref.FIXED_FEASIBILITY_ITEMS
