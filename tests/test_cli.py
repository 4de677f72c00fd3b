"""End-to-end runs of the command-line surface via its main() entry."""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from pebblex import cli, squares


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    out = capsys.readouterr()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert out.out, f"no stdout; stderr: {out.err}"
    return code, json.loads(out.out)


# ---------------------------------------------------------------------------
# groups

def test_aut_order(capsys, monkeypatch):
    # the order alone comes from orbit sizes down a stabilizer chain; the
    # group is never listed
    monkeypatch.setattr(cli, "automorphisms_dict", None)
    code, rep = run_json(capsys, "aut", "--graph", "p4", "--no-timing")
    assert code == 0
    assert rep == {"aut_order": 2, "instance": "p4"}


def test_aut_elements(capsys):
    code, rep = run_json(capsys, "aut", "--graph", "p3", "--elements",
                         "--no-timing")
    assert code == 0
    assert rep["aut_order"] == 2
    assert {"1": 3, "2": 2, "3": 1} in rep["elements"]


def test_peb_q2(capsys):
    code, rep = run_json(capsys, "peb", "--graph", "q2", "--elements",
                         "--no-timing")
    assert code == 0
    assert rep["peb_order"] == 4
    assert rep["aut_order"] == 8
    assert rep["bfs_states"] == 12
    assert len(rep["elements"]) == 4


# ---------------------------------------------------------------------------
# feasibility and equivalence

def test_feasible_closed_form_negative(capsys):
    code, rep = run_json(capsys, "feasible", "--board", "c6",
                         "--pebbles", "star5", "--no-timing")
    assert code == 1
    assert rep["verdict"] is False
    assert rep["rule"] == "cycle"


def test_feasible_closed_form_positive(capsys):
    code, rep = run_json(capsys, "feasible", "--board", "k4",
                         "--pebbles", "star3", "--no-timing")
    assert code == 0
    assert rep["verdict"] is True
    assert rep["rule"] == "default"


def test_feasible_bfs_fallback(capsys):
    # a path pebble graph matches no closed-form family
    code, rep = run_json(capsys, "feasible", "--board", "p3",
                         "--pebbles", "p3", "--no-timing")
    assert code == 1
    assert rep["rule"] == "bfs"
    assert rep["bfs_states"] == 3


def test_feasible_cap_exit(capsys):
    code, out = run(capsys, "feasible", "--board", "p7", "--pebbles", "p7",
                    "--cap", "10")
    assert code == 3
    assert "error" in out.err


def test_equivalent_positive_and_negative(capsys):
    code, rep = run_json(capsys, "equivalent", "--board", "p3",
                         "--pebbles", "p3", "--from", "1 2 3",
                         "--to", "2 1 3", "--no-timing")
    assert code == 0 and rep["verdict"] is True
    code, rep = run_json(capsys, "equivalent", "--board", "p3",
                         "--pebbles", "p3", "--from", "1 2 3",
                         "--to", "3 2 1", "--no-timing")
    assert code == 1 and rep["verdict"] is False


def test_equivalent_bad_config(capsys):
    code, out = run(capsys, "equivalent", "--board", "p3", "--pebbles", "p3",
                    "--from", "1 2 2", "--to", "1 2 3")
    assert code == 2


# ---------------------------------------------------------------------------
# flip certificates

def test_flips_round_trip(capsys, tmp_path):
    cert = tmp_path / "rot.flips"
    code, rep = run_json(capsys, "flips", "--graph", "c5",
                         "--perm", "2 3 4 5 1", "--out", str(cert),
                         "--no-timing")
    assert code == 0
    assert rep["flips"] == 2
    assert rep["cycles"] == "(1 2 3 4 5)"
    code, rep = run_json(capsys, "replay-flips", "--graph", "c5",
                         "--cert", str(cert), "--no-timing")
    assert code == 0
    assert rep["permutation"] == [2, 3, 4, 5, 1]


def test_perm_may_name_a_file(capsys, tmp_path):
    perm = tmp_path / "rot.perm"
    perm.write_text("2 3 4 5 1\n")
    code, rep = run_json(capsys, "flips", "--graph", "c5", "--perm", str(perm),
                         "--no-timing")
    assert code == 0
    assert rep["permutation"] == [2, 3, 4, 5, 1]
    assert rep["cycles"] == "(1 2 3 4 5)"


def test_flips_rejects_non_automorphism(capsys):
    code, out = run(capsys, "flips", "--graph", "p4", "--perm", "2 1 3 4")
    assert code == 2
    assert "not an automorphism" in out.err


def test_replay_flips_refuses_gapped_labels(capsys, tmp_path):
    # c6~3 has labels 1,2,4,5,6; its report would give a tuple over 1..n,
    # so it is refused as flips refuses it, even for an empty flip file
    for text in ("0\n", "1\n1 1 2\n"):
        cert = tmp_path / "gapped.flips"
        cert.write_text(text)
        code, out = run(capsys, "replay-flips", "--graph", "c6~3",
                        "--cert", str(cert))
        assert (code, out.out) == (2, "")
        assert out.err == "error: needs a densely labeled graph\n"


# ---------------------------------------------------------------------------
# squared-path and squared-graph certificates

def test_reverse_square_report(capsys):
    code, rep = run_json(capsys, "reverse-square", "--n", "7", "--no-timing")
    assert code == 0
    assert rep["final"] == [7, 6, 5, 4, 3, 2, 1]
    assert rep["moves"] == 119
    assert rep["moves"] == rep["length_formula"]


def test_reverse_square_replay_round_trip(capsys, tmp_path):
    cert = tmp_path / "rev6.cert"
    code, rep1 = run_json(capsys, "reverse-square", "--n", "6",
                          "--out", str(cert), "--no-timing")
    assert code == 0
    code, rep2 = run_json(capsys, "replay", "--cert", str(cert),
                          "--no-timing")
    assert code == 0
    assert rep2["final"] == rep1["final"] == [6, 5, 4, 3, 2, 1]
    assert rep2["moves"] == 49
    assert rep2["board"] == "p6^2"


@pytest.mark.parametrize("argv", [["--n", "6"], ["--n", "4", "--via", "bfs"]],
                         ids=["recursive", "bfs"])
def test_reverse_square_replays_once(capsys, monkeypatch, argv):
    # seq_A returns a validated certificate on both routes; the CLI must not
    # replay its moves a second time
    calls = []
    validate = squares.MoveCertificate.validate

    def counting(cert):
        calls.append(cert)
        return validate(cert)

    monkeypatch.setattr(squares.MoveCertificate, "validate", counting)
    code, rep = run_json(capsys, "reverse-square", *argv, "--no-timing")
    assert code == 0
    assert len(calls) == 1
    assert rep["final"] == list(calls[0].end)


def test_reverse_square_bfs_honours_the_cap(capsys):
    code, out = run(capsys, "reverse-square", "--n", "5", "--via", "bfs",
                    "--cap", "1", "--no-timing")
    assert code == 3
    assert out.out == ""
    assert out.err == "error: visited 8 configurations, cap is 1\n"


def test_compile_square_on_a_squared_builtin_replays(capsys, tmp_path):
    # the certificate names p4^2^2, which must rebuild the same graphs
    cert = tmp_path / "p4sq.cert"
    code, rep1 = run_json(capsys, "compile-square", "--graph", "p4^2",
                          "--perm", "4 3 2 1", "--out", str(cert),
                          "--no-timing")
    assert code == 0
    code, rep2 = run_json(capsys, "replay", "--cert", str(cert),
                          "--no-timing")
    assert code == 0
    assert rep2["board"] == rep2["pebbles"] == "p4^2^2"
    assert rep1["final"] == rep2["final"] == [4, 3, 2, 1]


def test_compile_square_replay_round_trip(capsys, tmp_path):
    cert = tmp_path / "c5rot.cert"
    code, rep1 = run_json(capsys, "compile-square", "--graph", "c5",
                          "--perm", "2 3 4 5 1", "--out", str(cert),
                          "--no-timing")
    assert code == 0
    code, rep2 = run_json(capsys, "replay", "--cert", str(cert),
                          "--no-timing")
    assert code == 0
    assert rep1["final"] == rep2["final"] == [2, 3, 4, 5, 1]
    assert rep2["board"] == "c5^2"


def test_replay_missing_file(capsys, tmp_path):
    code, out = run(capsys, "replay", "--cert", str(tmp_path / "nope"))
    assert code == 2


def test_replay_rejects_tampered_certificate(capsys, tmp_path):
    cert = tmp_path / "tampered.cert"
    code, _ = run(capsys, "reverse-square", "--n", "4", "--out", str(cert),
                  "--no-timing")
    assert code == 0
    lines = cert.read_text().splitlines()
    lines[2] = "1 2 3 4"  # claim the end is the identity
    cert.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "replay", "--cert", str(cert))
    assert code == 1
    assert "replay ends at" in out.err


# a reverse-square n=4 certificate with one line replaced, and the exact
# stderr of replaying it; the last case rewrites the arrangements and the
# move count so that the single move meets non-adjacent pebbles
TAMPERED_MOVES = [
    ({4: "1 9"}, "error: move (1,9) names a missing board vertex\n"),
    ({4: "2 2"}, "error: move (2,2) must name two distinct vertices\n"),
    ({4: "1 4"}, "error: board vertices 1 and 4 are not adjacent\n"),
    ({1: "1 4 2 3", 2: "1 4 2 3", 3: "1", 4: "1 2"},
     "error: pebbles 1 and 4 (on board vertices 1,2) are not adjacent in "
     "the pebble graph\n"),
]


@pytest.mark.parametrize("edits,err", TAMPERED_MOVES)
def test_replay_reports_the_illegal_move(capsys, tmp_path, edits, err):
    cert = tmp_path / "tampered.cert"
    code, _ = run(capsys, "reverse-square", "--n", "4", "--out", str(cert),
                  "--no-timing")
    assert code == 0
    lines = cert.read_text().splitlines()
    for no, text in edits.items():
        lines[no] = text
    if 3 in edits:
        lines = lines[: 4 + int(edits[3])]
    cert.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "replay", "--cert", str(cert))
    assert (code, out.out, out.err) == (1, "", err)


@pytest.mark.parametrize("desc", ["k5000", "q30", "p100000", "p100000^2~3"])
def test_oversized_builtin_descriptor_exits_2(capsys, desc):
    code, out = run(capsys, "aut", "--graph", desc)
    assert code == 2
    assert out.out == ""
    assert out.err.startswith(f"error: graph descriptor {desc!r} is too large")


def test_oversized_graph_file_exits_2_before_allocating(capsys, tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000 0\n")
    start = time.perf_counter()
    code, out = run(capsys, "aut", "--graph", str(huge))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: line 1: header declares 1000000000 vertices")


def test_reverse_square_size_guard(capsys):
    code, out = run(capsys, "reverse-square", "--n", "17")
    assert code == 2
    assert "allow_large" in out.err or "allow-large" in out.err


# ---------------------------------------------------------------------------
# classification

def test_classify_reports_family(capsys):
    code, rep = run_json(capsys, "classify", "--board", "c6",
                         "--pebbles", "star5", "--no-timing")
    assert code == 1
    assert rep["family"] == "wilson"
    assert rep["rule"] == "cycle"
    assert rep["feasible"] is False


def test_classify_unrecognized_family_is_not_an_error(capsys):
    code, rep = run_json(capsys, "classify", "--board", "c5",
                         "--pebbles", "c5", "--no-timing")
    assert code == 0
    assert rep["family"] is None
    assert rep["rule"] == "not applicable"
    assert rep["feasible"] is None


# ---------------------------------------------------------------------------
# verification suites

def test_verify_parity(capsys):
    code, rep = run_json(capsys, "verify", "parity", "--no-timing")
    assert code == 0
    assert rep["suite"] == "parity"
    assert rep["verdict"] is True
    assert rep["reports"][0]["witness"]["reachable"] == 360


def test_verify_prop2_single_board(capsys):
    code, rep = run_json(capsys, "verify", "prop2", "--graph", "c5",
                         "--no-timing")
    assert code == 0
    assert rep["reports"][0]["instance"] == "c5"
    assert rep["reports"][0]["witness"]["matching_configs"] == 11


def test_verify_lemma_square_small(capsys):
    code, rep = run_json(capsys, "verify", "lemma-square", "--max-n", "6",
                         "--no-timing")
    assert code == 0
    assert rep["verdict"] is True


def test_verify_examples_small(capsys):
    code, rep = run_json(capsys, "verify", "examples", "--max-n", "4",
                         "--no-timing")
    assert code == 0
    assert rep["suite"] == "examples"
    assert rep["verdict"] is True


def test_verify_lemma_square_honours_the_cap(capsys):
    # each squared path's search is capped; p4^2 (24 states) is the first
    # to pass 10
    code, out = run(capsys, "verify", "lemma-square", "--max-n", "6",
                    "--cap", "10")
    assert code == 3
    assert out.err == "error: visited 12 configurations, cap is 10\n"
    assert out.out == ""


def test_verify_lemma_flips_honours_the_cap(capsys):
    # the flip space of the 2-vertex board is the first to pass 1
    code, out = run(capsys, "verify", "lemma-flips", "--max-n", "5",
                    "--cap", "1")
    assert code == 3
    assert out.err == "error: visited 2 configurations, cap is 1\n"
    assert out.out == ""


@pytest.mark.parametrize("suite,max_n,first", [
    ("lemma-flips", "0", 1), ("lemma-square", "-2", 1), ("prop2", "2", 3),
    ("examples", "0", 1),
])
def test_verify_refuses_max_n_below_the_first_size(capsys, suite, max_n, first):
    # such a sweep checks no board, yet used to report "verdict": true
    code, out = run(capsys, "verify", suite, "--max-n", max_n, "--no-timing")
    assert (code, out.out) == (2, "")
    assert out.err == f"error: --max-n must be at least {first} for suite {suite}\n"


@pytest.mark.parametrize("suite,max_n,instance", [
    ("prop2", "3", "girth>=5 board 3.0"),
    ("lemma-square", "1", "squared-path reversal certificates, n=1..1"),
    ("lemma-flips", "1", "flip realization sweep, connected boards n=1..1"),
])
def test_verify_max_n_boundary_is_inclusive(capsys, suite, max_n, instance):
    code, rep = run_json(capsys, "verify", suite, "--max-n", max_n, "--no-timing")
    assert code == 0 and rep["verdict"] is True
    assert [r["instance"] for r in rep["reports"]] == [instance]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_refuses_jobs_below_one(capsys, monkeypatch, jobs):
    # such a sweep used to run serially and exit 0
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    # the sweep imports the pool where it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    code, out = run(capsys, "verify", "examples", "--max-n", "3", "--jobs", jobs)
    assert (code, out.out) == (2, "")
    assert out.err.startswith("usage: pebblex verify")
    assert out.err.endswith(f"error: argument --jobs: must be at least 1, got {jobs}\n")


@pytest.mark.parametrize("argv", [
    ("peb", "--graph", "p3"),
    ("feasible", "--board", "p3", "--pebbles", "p3"),
    ("verify", "lemma-square", "--max-n", "3"),
])
def test_a_negative_cap_is_a_usage_error(capsys, argv):
    # it used to search and exit 3, as if the cap had been exceeded
    code, out = run(capsys, *argv, "--cap", "-1")
    assert (code, out.out) == (2, "")
    assert out.err.startswith("usage:")
    assert out.err.endswith("error: argument --cap: must be at least 0, got -1\n")


def test_verify_product_requires_both_factors(capsys):
    code, out = run(capsys, "verify", "product", "--g1", "p2")
    assert code == 2
    assert "together" in out.err


def test_verify_product_custom_pair(capsys):
    code, rep = run_json(capsys, "verify", "product", "--g1", "p2",
                         "--g2", "p2", "--no-timing")
    assert code == 0
    assert rep["reports"][0]["witness"]["predicted_order"] == 4


# ---------------------------------------------------------------------------
# input handling and output discipline

def test_graph_from_file(capsys, tmp_path):
    f = tmp_path / "board.g"
    f.write_text("3 2\n1 2\n2 3\n")
    code, rep = run_json(capsys, "aut", "--graph", str(f), "--no-timing")
    assert code == 0
    assert rep["aut_order"] == 2


def test_bad_graph_file_is_usage_error(capsys, tmp_path):
    f = tmp_path / "broken.g"
    f.write_text("3 2\n1 2\nx y\n")
    code, out = run(capsys, "aut", "--graph", str(f))
    assert code == 2
    assert "line 3" in out.err


def test_unknown_graph_name(capsys):
    code, out = run(capsys, "aut", "--graph", "nosuchgraph")
    assert code == 2


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "peb", "--graph", "q2", "--elements",
                   "--no-timing")
    _, second = run(capsys, "peb", "--graph", "q2", "--elements",
                    "--no-timing")
    assert first.out == second.out


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # the report lists K7's 5,040 automorphisms, about 450 KB, well over a
    # pipe buffer: the writer is still printing when the reader leaves
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pebblex.cli", "aut", "--graph", "k7",
         "--elements", "--no-timing"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert "Traceback" not in err
    assert code == 141


def test_output_keys_sorted(capsys):
    _, out = run(capsys, "reverse-square", "--n", "4", "--no-timing")
    rep = json.loads(out.out)
    assert out.out == json.dumps(rep, indent=2, sort_keys=True) + "\n"


def test_no_timing_strips_nested_reports(capsys):
    _, rep = run_json(capsys, "verify", "parity", "--no-timing")
    assert "elapsed_ms" not in json.dumps(rep)
    _, rep = run_json(capsys, "verify", "parity")
    assert "elapsed_ms" in json.dumps(rep)


# ---------------------------------------------------------------------------
# golden output: --no-timing bytes recorded before the search engines were
# reworked, and argparse usage errors and help text recorded before the parser
# was reused across calls; a difference here is a change in what the CLI prints.
# The group orders of k12, q5 and star15 take minutes or more to count by
# listing the group, so they also show that aut does not list it

with open(pathlib.Path(__file__).with_name("cli_golden.json")) as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to it
    code, out = run(capsys, *case["argv"], "--no-timing")
    assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])


def test_calls_in_one_process_do_not_leak(capsys, monkeypatch, tmp_path):
    # main builds its parser once per process: an option given to one call
    # must not reach the next, and a usage error must not spoil later calls
    monkeypatch.setenv("COLUMNS", "80")
    golden = {tuple(c["argv"]): c for c in GOLDEN}
    cert = str(tmp_path / "rev4.cert")
    bfs = golden["reverse-square", "--n", "4", "--via", "bfs"]
    with_out = bfs["stdout"].replace('"out": null', f'"out": {json.dumps(cert)}')
    sequence = [
        (["aut", "--graph", "star3", "--elements"],
         golden["aut", "--graph", "star3", "--elements"]),
        (["aut", "--graph", "star3"], golden["aut", "--graph", "star3"]),
        (["reverse-square", "--n", "4", "--via", "bfs", "--out", cert],
         dict(bfs, stdout=with_out)),
        (["reverse-square", "--n", "4"], golden["reverse-square", "--n", "4"]),
        (["reverse-square", "--n", "5", "--via", "dfs"],
         golden["reverse-square", "--n", "5", "--via", "dfs"]),
    ]
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "pebblex":
            builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    for _ in range(2):
        for argv, want in sequence:
            code, out = run(capsys, *argv, "--no-timing")
            assert (code, out.out, out.err) == (want["code"], want["stdout"], want["stderr"])
    assert len(builds) == 1
    # a fresh process prints the same bytes as the calls above
    argv, want = sequence[0]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "pebblex.cli", *argv, "--no-timing"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, want["stdout"], "")
