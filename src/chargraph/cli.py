"""Command-line front end.

VERBS is the grammar: verb -> (cmd_* function, positional arguments as
(name, reader), options as (name, reader, required), output formats, the
default first); every verb also takes --format and -h/--help.  parse_args
reads argv against it.  Each cmd_* function returns (exit code, data, table
text) and writes nothing.  main alone writes stdout, in the one format asked
for: json is dumps(data), dot (offered by the two graph verbs) is
data.to_dot(), and table is the table text.  A command line that VERBS does
not accept (a UsageError) and an error a verb raises are written to stderr
as one line.

Exit codes: 0 success, 1 a verification verb found a failure (a scanner
counterexample, a failed isomorphism, verified = false), 2 usage, parse or
I/O errors.  Output is deterministic byte for byte for identical inputs.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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
    """obj as compact JSON with sorted keys; a value object stands for its to_json()."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=lambda v: v.to_json())


def graph_table(g: CharGraph) -> str:
    edges = " ".join(f"{a}-{b}" for a, b in g.edges) or "(none)"
    return f"vertices: {' '.join(str(v) for v in g.vertices)}\nedges: {edges}"


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


def cmd_factor(args) -> tuple[int, object, str]:
    fac = factorize(args.n)
    body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fac.factors) or "1"
    return 0, {"n": fac.n, "factors": [list(p) for p in fac.factors]}, f"{fac.n} = {body}"


def cmd_pi(args) -> tuple[int, object, str]:
    primes = sorted(prime_divisors(args.n))
    return 0, {"n": args.n, "primes": primes}, " ".join(str(p) for p in primes) or "(none)"


def cmd_zsigmondy(args) -> tuple[int, object, str]:
    p = zsigmondy(args.base, args.n)
    return 0, {"base": args.base, "n": args.n, "prime": p}, "none" if p is None else str(p)


def cmd_psl2_graph(args) -> tuple[int, object, str]:
    g = graph_psl2(args.q)
    return 0, g, graph_table(g)


def cmd_parse_shape(args) -> tuple[int, object, str]:
    expr = parse_shape(args.expr)
    g = eval_shape(expr)
    return 0, g, f"shape: {render_shape(expr)}\n{graph_table(g)}"


def cmd_iso(args) -> tuple[int, object, str]:
    a = load_graph_argument(args.first)
    b = load_graph_argument(args.second)
    mapping = are_isomorphic(a, b)
    if mapping is None:
        return 1, {"isomorphic": False, "mapping": None}, "not isomorphic"
    data = {"isomorphic": True, "mapping": {str(k): v for k, v in mapping.items()}}
    return 0, data, " ".join(["isomorphic:"] + [f"{k}->{mapping[k]}" for k in sorted(mapping)])


def cmd_classify_f(args) -> tuple[int, object, str]:
    report = classify_f(args.f)
    lines = [f"f = {report.f}: sizes {report.sizes}, case {report.case or 'None'}",
             f"radical: {report.required_radical}"]
    if report.expected_shape:
        lines.append(f"expected shape: {render_shape(report.expected_shape)}")
    return 0, report, "\n".join(lines)


def cmd_verify_main(args) -> tuple[int, object, str]:
    radical = load_radical(args.radical) if args.radical else synthetic_radical(args.f)
    report = verify_main(args.f, radical)
    status = "verified" if report.verified else "FAILED"
    table = f"f = {report.f}: case {report.case}, {status}\n{graph_table(report.product_graph)}"
    return (0 if report.verified else 1), report, table


_SCANNERS = {
    "interest": (scan_lemma_interest, 40),
    "evenfive": (scan_lemma_evenfive, 40),
    "oddfour": (scan_lemma_oddfour, 10_000),
}


def cmd_scan(args) -> tuple[int, object, str]:
    scanner, default_max = _SCANNERS[args.which]
    bound = args.max if args.max is not None else default_max
    hits = scanner(bound)
    bad = scan_counterexamples(hits)
    lines = [f"{h.key:>6}  {h.clause or 'COUNTEREXAMPLE':<16} {h.detail}".rstrip() for h in hits]
    lines.append(f"{len(hits)} hit(s), {len(bad)} counterexample(s)")
    data = {"scan": args.which, "max": bound, "hits": hits, "counterexamples": bad}
    return (1 if bad else 0), data, "\n".join(lines)


def cmd_check_solvable(args) -> tuple[int, object, str]:
    g = graph_from_cd(DegreeSet.from_json(read_json(args.cd_file)))
    palfy = check_palfy(g)
    shape = check_solvable_shape(g)
    table = f"palfy: {'pass' if palfy else 'fail'}\nsolvable shape: {'pass' if shape else 'fail'}"
    return (0 if palfy and shape else 1), {"graph": g, "palfy": palfy, "solvable_shape": shape}, table


def integer(text: str) -> int:
    """An integer argument: an optional '-', then ASCII digits only.  int()
    alone also reads other scripts' digits, underscores and spaces."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def scanner(text: str) -> str:
    """A scan argument: a name in _SCANNERS."""
    if text not in _SCANNERS:
        raise ValueError(text)
    return text


TABLE_FORMATS, GRAPH_FORMATS = ("table", "json"), ("json", "dot", "table")
VERBS = {
    "factor": (cmd_factor, [("n", integer)], [], TABLE_FORMATS),
    "pi": (cmd_pi, [("n", integer)], [], TABLE_FORMATS),
    "zsigmondy": (cmd_zsigmondy, [("base", integer), ("n", integer)], [], TABLE_FORMATS),
    "psl2-graph": (cmd_psl2_graph, [("q", integer)], [], GRAPH_FORMATS),
    "parse-shape": (cmd_parse_shape, [("expr", str)], [], GRAPH_FORMATS),
    "iso": (cmd_iso, [("first", str), ("second", str)], [], TABLE_FORMATS),
    "classify-f": (cmd_classify_f, [("f", integer)], [], TABLE_FORMATS),
    "verify-main": (cmd_verify_main, [], [("f", integer, True), ("radical", str, False)], TABLE_FORMATS),
    "scan": (cmd_scan, [("which", scanner)], [("max", integer, False)], TABLE_FORMATS),
    "check-solvable": (cmd_check_solvable, [("cd_file", str)], [], TABLE_FORMATS),
}


class UsageError(ValueError):
    """A command line that VERBS does not accept."""


def usage(verb: str) -> str:
    """The grammar of verb as one line; of the verb word itself if verb is unknown."""
    if verb not in VERBS:
        return f"chargraph {'|'.join(VERBS)} ..."
    _, positional, options, formats = VERBS[verb]
    words = ["|".join(_SCANNERS) if reader is scanner else f"<{name}>" for name, reader in positional]
    words += [f"--{name} <{name}>" if required else f"[--{name} <{name}>]" for name, _, required in options]
    return " ".join(["chargraph", verb, *words, f"[--format {'|'.join(formats)}]"])


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace the cmd_* functions read: func, format and each argument
    under its name in VERBS.  Options come before or after the positional
    arguments, as --name value or --name=value; '--' ends them; -5 is positional."""
    verb, *rest = argv or [""]
    if verb in ("-h", "--help"):
        text = "\n".join(f"usage: {usage(name)}" for name in VERBS)
        return SimpleNamespace(func=lambda args: (0, text, text), format="table")
    if verb not in VERBS:
        raise UsageError(f"unknown verb {verb!r}" if verb else "no verb given")
    func, positional, options, formats = VERBS[verb]
    known = {f"--{name}" for name, _, _ in options} | {"--format"}
    raw, given, words = {}, [], iter(rest)
    for word in words:
        if word == "--":
            given += words
        elif word in ("-h", "--help"):
            return parse_args([word])
        elif word.startswith("--"):
            key, eq, value = word.partition("=")
            raw[key[2:]] = value if eq else next(words, None)
            if key not in known or raw[key[2:]] is None:
                raise UsageError(f"option {key} needs a value" if key in known else f"unknown option {key!r}")
        else:
            given.append(word)
    if len(given) != len(positional):
        raise UsageError(f"{verb} takes {len(positional)} argument(s), got {len(given)}")
    args = SimpleNamespace(func=func, format=raw.pop("format", formats[0]))
    if args.format not in formats:
        raise UsageError(f"argument format: invalid choice: {args.format!r}")
    raw.update(zip([name for name, _ in positional], given))
    for name, reader, required in [(name, reader, True) for name, reader in positional] + options:
        if required and name not in raw:
            raise UsageError(f"option --{name} is required")
        try:
            setattr(args, name, reader(raw[name]) if name in raw else None)
        except ValueError:
            raise UsageError(f"argument {name}: invalid {reader.__name__} value: {raw[name]!r}") from None
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        code, data, text = args.func(args)
        if args.format == "json":
            text = dumps(data)
        elif args.format == "dot":
            text = data.to_dot()
    except UsageError as exc:
        print(f"usage error: {exc}; usage: {usage(argv[0] if argv else '')}", file=sys.stderr)
        return 2
    except ShapeSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except RadicalValidationError as exc:
        print(f"invalid radical: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        print(f"output error: {exc}", file=sys.stderr)
        # The interpreter flushes stdout again at exit; let that flush reach devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
