"""Command-line surface: generators, solvers, verifier, machine reports.

Every report shares one JSON envelope (``docs/report_schema.json``):
``schema_version``, ``command`` (the argv echo), ``elapsed_ms`` and a
per-subcommand ``payload``.  Game verdicts are data, never error exits: a
Breaker win still exits 0.  Exit codes: 0 success, 2 usage error, 3 input
parse error, 4 resource exhaustion.  Reports go to stdout or ``--out``;
diagnostics go to stderr.  Vertex indices inside reports are 0-based (the
``.hg`` text format itself stays 1-based).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .constructions import (
    CONSTRUCTIONS,
    GENERATORS,
    gen_complete_multipartite,
    gen_g3,
    gen_g4,
    gen_gamma,
    gen_gamma_prime,
    gen_gcp,
    reduce_lemma21,
    split_pendant,
)
from .core import (
    HgParseError,
    Hypergraph,
    Side,
    load_hypergraph,
    max_degree,
    save_hypergraph,
    side_name,
)
from .cp import CPOptions, gcp_case_table, solve_cp, validate_case_table
from .mb import MBOptions, find_pairing, solve_mb
from .strategy import (
    build_g3_strategy,
    build_gamma_strategy,
    lift_g4,
    lift_gamma_prime,
    lift_split,
    verify_maker_strategy,
)

__all__ = ["SCHEMA_VERSION", "main"]

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


def _jsonify(obj):
    """Recursively convert report values to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, Side):
        return obj.value
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_report(args, argv: list[str], payload: dict, start: float) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": list(argv),
        "elapsed_ms": int((time.perf_counter() - start) * 1000),
        "payload": _jsonify(payload),
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write_text(text, getattr(args, "out", None))


def _load_board(path: str) -> Hypergraph:
    with open(path, "rb") as fh:
        data = fh.read()
    # the newlines a text-mode read translates, so line numbers match
    return load_hypergraph(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_gen(args, argv, start) -> int:
    if args.name == "kpartite":
        if args.k is None or args.n is None:
            raise _UsageError("gen kpartite requires --k and --n")
        try:
            h = gen_complete_multipartite(args.k, args.n)
        except ValueError as exc:
            raise _UsageError(f"gen kpartite: {exc}") from None
        banner = f"# construction: kpartite k={args.k} n={args.n}\n"
    else:
        if args.k is not None or args.n is not None:
            raise _UsageError("--k/--n only apply to gen kpartite")
        key = args.name.replace("-", "_")
        h = GENERATORS[key]()
        banner = f"# construction: {args.name}\n"
    _write_text(banner + save_hypergraph(h), args.output)
    return 0


def _identify(h: Hypergraph) -> str | None:
    for key, gen in GENERATORS.items():
        if gen() == h:
            return key
    return None


def _cmd_info(args, argv, start) -> int:
    h = _load_board(args.file)
    sizes = {len(e) for e in h.edges}
    key = _identify(h)
    meta = CONSTRUCTIONS.get(key) if key else None
    payload = {
        "vertices": h.vertex_count,
        "edges": len(h.edges),
        "uniform": sizes.pop() if len(sizes) == 1 else None,
        "max_degree": max_degree(h),
        "construction": key.replace("_", "-") if key else None,
        "erratum_note": meta.erratum_note if meta else None,
    }
    _emit_report(args, argv, payload, start)
    return 0


def _emit_solve(args, argv, start, rep, game: str, first: str) -> int:
    """Report a solve; a node-limit exhaustion is reported, then exits 4."""
    cert = rep.certificate
    payload = {
        "game": game,
        "first": first,
        "winner": side_name(rep.winner, game) if rep.winner else None,
        "nodes": rep.nodes_expanded,
        "certificate": {"kind": cert.kind, "payload": cert.payload} if cert else None,
        "exhausted": rep.exhausted,
    }
    _emit_report(args, argv, payload, start)
    if rep.exhausted:
        print("error: node limit exhausted", file=sys.stderr)
        return 4
    return 0


def _cmd_solve_mb(args, argv, start) -> int:
    h = _load_board(args.file)
    prune = not args.no_prune
    opts = MBOptions(
        use_es_certificate=prune,
        use_pairing_certificate=prune,
        use_lemma21=prune,
        use_lemma22=prune,
        node_limit=args.node_limit,
    )
    first = Side.A if args.first == "maker" else Side.B
    return _emit_solve(args, argv, start, solve_mb(h, first, opts), "mb", args.first)


def _cmd_solve_cp(args, argv, start) -> int:
    h = _load_board(args.file)
    opts = CPOptions(use_lemma23=not args.no_lemma23, node_limit=args.node_limit)
    return _emit_solve(args, argv, start, solve_cp(h, opts), "cp", "picker")


def _verification_target(name: str):
    if name == "gamma":
        return gen_gamma(), build_gamma_strategy()
    if name == "gamma-prime":
        return gen_gamma_prime(), lift_gamma_prime(build_gamma_strategy())
    if name == "g4":
        return gen_g4(), lift_g4(lift_gamma_prime(build_gamma_strategy()))
    g3 = gen_g3()
    return split_pendant(g3), lift_split(build_g3_strategy(), g3)


def _cmd_verify(args, argv, start) -> int:
    h, s = _verification_target(args.name)
    rep = verify_maker_strategy(h, s)
    cex = rep.counterexample
    payload = {
        "name": args.name,
        "verified": rep.verified,
        "lines_checked": rep.lines_checked,
        "max_depth": rep.max_depth,
        "counterexample": (
            {"kind": cex.kind, "moves": cex.moves, "detail": cex.detail}
            if cex
            else None
        ),
    }
    _emit_report(args, argv, payload, start)
    return 0


def _cmd_validate_cases(args, argv, start) -> int:
    opts = CPOptions(node_limit=args.node_limit)
    try:
        rep = validate_case_table(gen_gcp(), gcp_case_table(), opts)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    payload = {
        "board": args.name,
        "passed": rep.passed,
        "total_offers": rep.total_offers,
        "rule_counts": rep.rule_counts,
        "failures": [
            {
                "pair": f.pair,
                "rule": f.rule,
                "reason": f.reason,
                "winner": side_name(f.winner, "cp") if f.winner else None,
            }
            for f in rep.failures
        ],
        "nodes": rep.nodes_expanded,
    }
    _emit_report(args, argv, payload, start)
    return 0


def _cmd_pairing(args, argv, start) -> int:
    h = _load_board(args.file)
    pr = find_pairing(h)
    payload = {
        "found": pr is not None,
        "pairs": sorted(pr.pairs) if pr else [],
    }
    _emit_report(args, argv, payload, start)
    return 0


def _cmd_reduce(args, argv, start) -> int:
    h = _load_board(args.file)
    reduced, pairs = reduce_lemma21(h)
    lines = ["# reduced: lemma21\n"]
    for a, b in pairs:
        lines.append(f"# removed pair: {a + 1} {b + 1}\n")
    _write_text("".join(lines) + save_hypergraph(reduced), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch.
# ---------------------------------------------------------------------------


def _add_report_flags(p, node_limit=True):
    if node_limit:
        p.add_argument("--node-limit", type=int, default=None, metavar="N")
    p.add_argument("--out", metavar="FILE", help="write the report here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posgames",
        description="Exact solving and strategy verification for "
        "Maker-Breaker and Chooser-Picker games.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="write a named construction as .hg text")
    p.add_argument(
        "name",
        choices=["g3", "gcp", "gamma", "gamma-prime", "g4", "kpartite"],
    )
    p.add_argument("--k", type=int, help="part count (kpartite only)")
    p.add_argument("--n", type=int, help="part size (kpartite only)")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("info", help="report the shape of an .hg board")
    p.add_argument("file")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(run=_cmd_info)

    p = sub.add_parser("solve", help="decide a game exactly")
    game = p.add_subparsers(dest="game", required=True)
    pm = game.add_parser("mb", help="Maker-Breaker")
    pm.add_argument("file")
    pm.add_argument("--first", choices=["maker", "breaker"], required=True)
    pm.add_argument(
        "--no-prune",
        action="store_true",
        help="disable certificate shortcuts and reductions",
    )
    _add_report_flags(pm)
    pm.set_defaults(run=_cmd_solve_mb)
    pc = game.add_parser("cp", help="Chooser-Picker")
    pc.add_argument("file")
    pc.add_argument("--no-lemma23", action="store_true")
    _add_report_flags(pc)
    pc.set_defaults(run=_cmd_solve_cp)

    p = sub.add_parser("verify", help="verify a built-in Maker strategy")
    p.add_argument("name", choices=["gamma", "gamma-prime", "g4", "g3-split"])
    _add_report_flags(p, node_limit=False)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser(
        "validate-cases", help="check a first-offer case table exactly"
    )
    p.add_argument("name", choices=["gcp"])
    _add_report_flags(p)
    p.set_defaults(run=_cmd_validate_cases)

    p = sub.add_parser("pairing", help="search for a pairing certificate")
    p.add_argument("file")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(run=_cmd_pairing)

    p = sub.add_parser("reduce", help="apply a board reduction rule")
    p.add_argument("file")
    p.add_argument("--rule", choices=["lemma21"], required=True)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(run=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int):
            return code
        return 0 if code is None else 2
    start = time.perf_counter()
    try:
        return args.run(args, argv, start)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HgParseError as exc:
        # only ``_load_board`` parses input
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
