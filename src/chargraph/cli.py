"""Command-line front end.

Exit codes: 0 success, 1 a verification verb found a failure (a scanner
counterexample, a failed isomorphism, verified = false), 2 usage or parse
errors.  Output is deterministic byte for byte for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import factorize, prime_divisors, zsigmondy
from .classify import (
    RadicalValidationError,
    check_palfy,
    check_solvable_shape,
    classify_f,
    scan_counterexamples,
    scan_lemma_evenfive,
    scan_lemma_interest,
    scan_lemma_oddfour,
    synthetic_radical,
    verify_main,
)
from .graphs import CharGraph, DegreeSet, are_isomorphic, graph_from_cd
from .degrees import graph_psl2
from .shapes import ShapeSyntaxError, eval_shape, parse_shape, render_shape


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def emit_graph(g: CharGraph, fmt: str) -> str:
    if fmt == "json":
        return dumps(g.to_json())
    if fmt == "dot":
        return g.to_dot()
    lines = ["vertices: " + " ".join(str(v) for v in g.vertices)]
    lines.append("edges: " + (" ".join(f"{a}-{b}" for a, b in g.edges) or "(none)"))
    return "\n".join(lines)


def parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:  # nested deeper than the decoder can follow
        raise ValueError("JSON input is nested too deeply") from None


def read_json(path: str):
    with open(path) as fh:
        return parse_json(fh.read())


def load_graph_argument(arg: str) -> CharGraph:
    """Inline JSON (leading '{'), a JSON file path, or a shape expression."""
    text = arg.strip()
    if text.startswith("{"):
        return CharGraph.from_json(parse_json(text))
    if os.path.exists(arg):
        return CharGraph.from_json(read_json(arg))
    return eval_shape(parse_shape(arg))


def load_radical(path: str) -> list[DegreeSet]:
    data = read_json(path)
    if not isinstance(data, list):
        raise ValueError("radical file must hold a JSON list of degree sets")
    return [DegreeSet.from_json(entry) for entry in data]


def cmd_factor(args) -> int:
    fac = factorize(args.n)
    if args.format == "json":
        print(dumps({"n": fac.n, "factors": [list(p) for p in fac.factors]}))
    else:
        body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fac.factors) or "1"
        print(f"{fac.n} = {body}")
    return 0


def cmd_pi(args) -> int:
    primes = sorted(prime_divisors(args.n))
    if args.format == "json":
        print(dumps({"n": args.n, "primes": primes}))
    else:
        print(" ".join(str(p) for p in primes) or "(none)")
    return 0


def cmd_zsigmondy(args) -> int:
    p = zsigmondy(args.base, args.n)
    if args.format == "json":
        print(dumps({"base": args.base, "n": args.n, "prime": p}))
    else:
        print("none" if p is None else str(p))
    return 0


def cmd_psl2_graph(args) -> int:
    print(emit_graph(graph_psl2(args.q), args.format))
    return 0


def cmd_parse_shape(args) -> int:
    expr = parse_shape(args.expr)
    g = eval_shape(expr)
    if args.format == "table":
        print(f"shape: {render_shape(expr)}")
        print(emit_graph(g, "table"))
    else:
        print(emit_graph(g, args.format))
    return 0


def cmd_iso(args) -> int:
    a = load_graph_argument(args.first)
    b = load_graph_argument(args.second)
    mapping = are_isomorphic(a, b)
    if args.format == "json":
        print(dumps({
            "isomorphic": mapping is not None,
            "mapping": None if mapping is None else {str(k): v for k, v in mapping.items()},
        }))
    elif mapping is None:
        print("not isomorphic")
    else:
        print(" ".join(["isomorphic:"] + [f"{k}->{mapping[k]}" for k in sorted(mapping)]))
    return 0 if mapping is not None else 1


def cmd_classify_f(args) -> int:
    report = classify_f(args.f)
    if args.format == "json":
        print(dumps(report.to_json()))
    else:
        print(f"f = {report.f}: sizes {report.sizes}, case {report.case or 'None'}")
        print(f"radical: {report.required_radical}")
        if report.expected_shape:
            print(f"expected shape: {render_shape(report.expected_shape)}")
    return 0


def cmd_verify_main(args) -> int:
    radical = load_radical(args.radical) if args.radical else synthetic_radical(args.f)
    report = verify_main(args.f, radical)
    if args.format == "json":
        print(dumps(report.to_json()))
    else:
        status = "verified" if report.verified else "FAILED"
        print(f"f = {report.f}: case {report.case}, {status}")
        print(emit_graph(report.product_graph, "table"))
    return 0 if report.verified else 1


_SCANNERS = {
    "interest": (scan_lemma_interest, 40),
    "evenfive": (scan_lemma_evenfive, 40),
    "oddfour": (scan_lemma_oddfour, 10_000),
}


def cmd_scan(args) -> int:
    scanner, default_max = _SCANNERS[args.which]
    bound = args.max if args.max is not None else default_max
    hits = scanner(bound)
    bad = scan_counterexamples(hits)
    if args.format == "json":
        print(dumps({
            "scan": args.which,
            "max": bound,
            "hits": [h.to_json() for h in hits],
            "counterexamples": [h.to_json() for h in bad],
        }))
    else:
        for h in hits:
            print(f"{h.key:>6}  {h.clause or 'COUNTEREXAMPLE':<16} {h.detail}".rstrip())
        print(f"{len(hits)} hit(s), {len(bad)} counterexample(s)")
    return 1 if bad else 0


def cmd_check_solvable(args) -> int:
    cd = DegreeSet.from_json(read_json(args.cd_file))
    g = graph_from_cd(cd)
    palfy = check_palfy(g)
    shape = check_solvable_shape(g)
    if args.format == "json":
        print(dumps({"graph": g.to_json(), "palfy": palfy, "solvable_shape": shape}))
    else:
        print(f"palfy: {'pass' if palfy else 'fail'}")
        print(f"solvable shape: {'pass' if shape else 'fail'}")
    return 0 if palfy and shape else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargraph",
        description="Character degree graphs: arithmetic, graphs, shapes, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, default_format: str = "table", formats=("json", "table")):
        p = sub.add_parser(name)
        p.add_argument("--format", choices=formats, default=default_format)
        p.set_defaults(func=func)
        return p

    p = add("factor", cmd_factor)
    p.add_argument("n", type=int)

    p = add("pi", cmd_pi)
    p.add_argument("n", type=int)

    p = add("zsigmondy", cmd_zsigmondy)
    p.add_argument("base", type=int)
    p.add_argument("n", type=int)

    p = add("psl2-graph", cmd_psl2_graph, "json", ("json", "dot", "table"))
    p.add_argument("q", type=int)

    p = add("parse-shape", cmd_parse_shape, "json", ("json", "dot", "table"))
    p.add_argument("expr")

    p = add("iso", cmd_iso)
    p.add_argument("first", help="graph JSON file, inline JSON, or shape expression")
    p.add_argument("second", help="graph JSON file, inline JSON, or shape expression")

    p = add("classify-f", cmd_classify_f)
    p.add_argument("f", type=int)

    p = add("verify-main", cmd_verify_main)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--radical", help="JSON file: list of degree sets")

    p = add("scan", cmd_scan)
    p.add_argument("which", choices=sorted(_SCANNERS))
    p.add_argument("--max", type=int)

    p = add("check-solvable", cmd_check_solvable)
    p.add_argument("cd_file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShapeSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except RadicalValidationError as exc:
        print(f"invalid radical: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
