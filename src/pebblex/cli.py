"""Command-line surface.

Every verb prints one JSON report to stdout (sorted keys, so identical
invocations give identical bytes; pass --no-timing to also drop the
elapsed-time field).  Certificates are never printed, only written to
files via --out.

Exit codes: 0 success / positive verdict, 1 negative verdict or failed
replay, 2 usage or input-format error, 3 state cap exceeded, 141 the
reader of stdout closed it before the report was written (the shell's
status for SIGPIPE).

``main(argv)`` may be called any number of times in one process.  It builds
the argparse parser on its first call and reuses it for every later one;
argparse usage errors and ``--help`` raise ``SystemExit`` as usual.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import catalog, classify, puzzle, squares
from .errors import CapExceededError, GraphParseError, PuzzleError
from .flips import (
    flip_sequence_permutation,
    format_flip_sequence,
    parse_flip_sequence,
    realize_by_flips,
)
from .graphs import relabel_dense
from .names import graph_from_desc
from .perms import automorphism_count, automorphisms_dict, cycle_notation, parse_perm
from .puzzle import Puz

_PRODUCT_PAIRS = (("p2", "p2"), ("p2", "p3"), ("p2", "p4"), ("p2", "c3"), ("p3", "p2"))
# suite -> (the first board size its sweep checks, default --max-n); a
# smaller --max-n would check nothing and still report a positive verdict
_SWEEP_SIZES = {"prop2": (3, 8), "examples": (1, 7), "lemma-square": (1, 12),
                "lemma-flips": (1, 7)}
# suite -> the options its run reads besides --cap and --no-timing; prop2
# reads --graph or --max-n, not both
_SUITE_OPTIONS = {"prop2": ("graph", "max_n"), "product": ("g1", "g2"),
                  "examples": ("max_n", "jobs"), "lemma-square": ("max_n",),
                  "lemma-flips": ("max_n", "jobs"), "parity": ()}


def _text_arg(raw):
    # inline text, or a file path holding the same text
    if os.path.exists(raw):
        with open(raw) as fh:
            return fh.read()
    return raw


def _perm_arg(raw, n):
    return parse_perm(_text_arg(raw), n)


def _config_arg(raw, pz):
    try:
        vals = tuple(int(t) for t in _text_arg(raw).split())
    except ValueError:
        raise ValueError("configuration must be whitespace-separated integers")
    try:
        puzzle.check_configuration(pz, vals)
    except PuzzleError as exc:
        # malformed input, not a failed computation
        raise ValueError(str(exc))
    return vals


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


def _emit(report, args):
    if getattr(args, "no_timing", False):
        report = _strip_timing(report)
    print(json.dumps(report, indent=2, sort_keys=True))


def _write_out(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_aut(args):
    g = graph_from_desc(args.graph)
    report = {"instance": args.graph}
    if args.elements:
        auts = automorphisms_dict(g)
        report["aut_order"] = len(auts)
        report["elements"] = [
            {str(v): img[v] for v in g.vertices} for img in auts
        ]
    else:  # orbit sizes down a stabilizer chain, without listing the group
        report["aut_order"] = automorphism_count(g)
    return report, 0


def _cmd_peb(args):
    g = relabel_dense(graph_from_desc(args.graph))
    group, aut_order, states = puzzle.exchange_group_counts(g, cap=args.cap)
    report = {
        "instance": args.graph,
        "peb_order": group.order,
        "aut_order": aut_order,
        "bfs_states": states,
    }
    if args.elements:
        report["elements"] = [cycle_notation(p) for p in group.elements]
    return report, 0


def _cmd_feasible(args):
    board = graph_from_desc(args.board)
    pebbles = graph_from_desc(args.pebbles)
    family, verdict = classify.classify_instance(board, pebbles)
    report = {
        "instance": f"board={args.board} pebbles={args.pebbles}",
        "family": family,
    }
    if verdict.applicable:
        feasible = verdict.feasible
        report["rule"] = verdict.rule
        report["witness"] = (
            list(verdict.witness) if verdict.witness is not None else None
        )
    else:
        pz = Puz(board, pebbles)
        if math.factorial(pz.n) > args.cap:
            raise CapExceededError(
                f"{pz.n}! configurations exceed the cap of {args.cap}"
            )
        states = puzzle.reachable_count(pz, cap=args.cap)
        feasible = states == math.factorial(pz.n)
        report["rule"] = "bfs"
        report["witness"] = None
        report["bfs_states"] = states
    report["verdict"] = bool(feasible)
    return report, 0 if feasible else 1


def _cmd_equivalent(args):
    pz = Puz(graph_from_desc(args.board), graph_from_desc(args.pebbles))
    f1 = _config_arg(getattr(args, "from"), pz)
    f2 = _config_arg(args.to, pz)
    verdict = puzzle.equivalent(pz, f1, f2, cap=args.cap)
    return {
        "instance": f"board={args.board} pebbles={args.pebbles}",
        "from": list(f1),
        "to": list(f2),
        "verdict": bool(verdict),
    }, 0 if verdict else 1


def _cmd_flips(args):
    g = graph_from_desc(args.graph)
    sigma = _perm_arg(args.perm, g.n)
    seq = realize_by_flips(g, sigma)
    if args.out:
        _write_out(args.out, format_flip_sequence(seq))
    return {
        "instance": args.graph,
        "permutation": list(sigma),
        "cycles": cycle_notation(sigma),
        "flips": len(seq),
        "total_flip_length": sum(len(p) for p in seq),
        "out": args.out,
    }, 0


def _cmd_replay_flips(args):
    g = graph_from_desc(args.graph)
    if not g.is_dense_labeled():  # the report gives a tuple over 1..n
        raise ValueError("needs a densely labeled graph")
    with open(args.cert) as fh:
        seq = parse_flip_sequence(fh.read())
    perm = flip_sequence_permutation(g, seq)
    return {
        "instance": args.graph,
        "flips": len(seq),
        "permutation": list(perm),
        "cycles": cycle_notation(perm),
    }, 0


def _cmd_reverse_square(args):
    cert = squares.seq_A(args.n, via=args.via, allow_large=args.allow_large,
                         cap=args.cap)
    if args.out:
        _write_out(args.out, squares.format_certificate(cert))
    return {
        "instance": f"reversal on the squared {args.n}-path",
        "n": args.n,
        "moves": len(cert.moves),
        "length_formula": squares.sequence_length(args.n),
        "final": list(cert.end),
        "out": args.out,
    }, 0


def _cmd_compile_square(args):
    g = graph_from_desc(args.graph)
    sigma = _perm_arg(args.perm, g.n)
    cert = squares.compile_automorphism_to_square_moves(
        g, sigma, board_desc=args.graph.strip() + "^2"
    )
    if args.out:
        _write_out(args.out, squares.format_certificate(cert))
    return {
        "instance": f"{args.graph}^2",
        "permutation": list(sigma),
        "cycles": cycle_notation(sigma),
        "moves": len(cert.moves),
        "final": list(cert.end),
        "out": args.out,
    }, 0


def _cmd_replay(args):
    with open(args.cert) as fh:
        cert = squares.parse_certificate(fh.read())
    cert.validate()
    return {
        "board": cert.board_desc,
        "pebbles": cert.pebbles_desc,
        "moves": len(cert.moves),
        "start": list(cert.start),
        "final": list(cert.end),
    }, 0


def _cmd_classify(args):
    board = graph_from_desc(args.board)
    pebbles = graph_from_desc(args.pebbles)
    family, verdict = classify.classify_instance(board, pebbles)
    report = {
        "instance": f"board={args.board} pebbles={args.pebbles}",
        "family": family,
    }
    report.update(verdict.as_json())
    return report, 1 if verdict.feasible is False else 0


def _cmd_verify(args):
    suite = args.suite
    for name in ("graph", "g1", "g2", "max_n", "jobs"):
        if getattr(args, name) is not None and name not in _SUITE_OPTIONS[suite]:
            raise ValueError(f"suite {suite} does not read --{name.replace('_', '-')}")
    if args.graph is not None and args.max_n is not None:
        raise ValueError("suite prop2 reads --graph or --max-n, not both")
    first, top = _SWEEP_SIZES.get(suite, (1, None))
    if args.max_n is not None:
        if args.max_n < first:
            raise ValueError(f"--max-n must be at least {first} for suite {suite}")
        top = args.max_n
    reports = []
    if suite == "prop2":
        if args.graph:
            reports.append(
                classify.verify_prop2(graph_from_desc(args.graph), cap=args.cap, label=args.graph)
            )
        else:
            for n in range(first, top + 1):
                for i, g in enumerate(catalog.girth5_graphs(n)):
                    reports.append(
                        classify.verify_prop2(
                            g, cap=args.cap, label=f"girth>=5 board {n}.{i}"
                        )
                    )
    elif suite == "product":
        if bool(args.g1) != bool(args.g2):
            raise ValueError("--g1 and --g2 must be given together")
        pairs = [(args.g1, args.g2)] if args.g1 else _PRODUCT_PAIRS
        for a, b in pairs:
            reports.append(
                classify.verify_product_theorem(
                    graph_from_desc(a), graph_from_desc(b), cap=args.cap, label=f"{a} x {b}"
                )
            )
    elif suite == "examples":
        reports.append(
            classify.verify_examples_agreement(
                max_n=top, cap=args.cap, jobs=args.jobs
            )
        )
    elif suite == "lemma-square":
        reports.append(classify.verify_square_lemma(max_n=top, cap=args.cap))
    elif suite == "lemma-flips":
        reports.append(
            classify.verify_flip_lemma(max_n=top, jobs=args.jobs, cap=args.cap)
        )
    elif suite == "parity":
        reports.append(classify.verify_parity_example(cap=args.cap))
    verdict = all(r["verdict"] for r in reports)
    return {"suite": suite, "verdict": verdict, "reports": reports}, 0 if verdict else 1


def _at_least(low):
    """An argparse type: an integer of at least ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _add_common(sp, out=False, jobs=False):
    sp.add_argument("--cap", type=_at_least(0), default=puzzle.DEFAULT_CAP,
                    help="max explored configurations before giving up")
    sp.add_argument("--no-timing", action="store_true",
                    help="omit elapsed-time fields from the report")
    if out:
        sp.add_argument("--out", default=None, help="write the certificate here")
    if jobs:
        sp.add_argument("--jobs", type=_at_least(1), default=None,
                        help="worker processes for sweep suites")


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(
        prog="pebblex",
        description="Pebble exchange puzzles: groups, feasibility, certificates.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("aut", help="automorphism group of a graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--elements", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_aut)

    sp = sub.add_parser("peb", help="pebble exchange group of a graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--elements", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_peb)

    sp = sub.add_parser("feasible", help="is Puz(board, pebbles) feasible?")
    sp.add_argument("--board", required=True)
    sp.add_argument("--pebbles", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_feasible)

    sp = sub.add_parser("equivalent", help="are two configurations connected by moves?")
    sp.add_argument("--board", required=True)
    sp.add_argument("--pebbles", required=True)
    sp.add_argument("--from", required=True, metavar="CONFIG")
    sp.add_argument("--to", required=True, metavar="CONFIG")
    _add_common(sp)
    sp.set_defaults(func=_cmd_equivalent)

    sp = sub.add_parser("flips", help="realize an automorphism as path flips")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--perm", required=True)
    _add_common(sp, out=True)
    sp.set_defaults(func=_cmd_flips)

    sp = sub.add_parser("replay-flips", help="replay a flip-sequence file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--cert", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_replay_flips)

    sp = sub.add_parser("reverse-square", help="reversal certificate on a squared path")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--via", choices=("recursive", "bfs"), default="recursive")
    sp.add_argument("--allow-large", action="store_true",
                    help="permit n beyond the guarded range")
    _add_common(sp, out=True)
    sp.set_defaults(func=_cmd_reverse_square)

    sp = sub.add_parser("compile-square",
                        help="compile an automorphism of g into moves on squared g")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--perm", required=True)
    _add_common(sp, out=True)
    sp.set_defaults(func=_cmd_compile_square)

    sp = sub.add_parser("replay", help="validate a move-certificate file")
    sp.add_argument("--cert", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_replay)

    sp = sub.add_parser("classify", help="closed-form feasibility verdict only")
    sp.add_argument("--board", required=True)
    sp.add_argument("--pebbles", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=(
        "prop2", "product", "examples", "lemma-square", "lemma-flips", "parity"
    ))
    sp.add_argument("--graph", default=None, help="single board for prop2")
    sp.add_argument("--g1", default=None, help="first product factor")
    sp.add_argument("--g2", default=None, help="second product factor")
    sp.add_argument("--max-n", type=int, default=None)
    _add_common(sp, jobs=True)
    sp.set_defaults(func=_cmd_verify)

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report, code = args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PuzzleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verb != "verify":  # each suite report carries its own time
        report["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    try:  # flushed here, so a report short enough to sit in the buffer is covered
        _emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the report goes nowhere, so the flush at exit cannot
        # raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
