"""Independent oracles for the benchmark's outputs: sympy for arithmetic,
networkx for graphs, and frozen expected results for the paper's claims.

Only run.py imports this module, after the timed sections, so neither
library is loaded in a worker.  Each check_* function returns a list of
failure descriptions, empty when the output is correct.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import networkx as nx
import sympy

PAPER_EXPECTED = Path(__file__).resolve().parent / "paper_expected.json"

# The seven-vertex shapes of the paper's cases, as inputs.shape_text trees.
CASE_SHAPES = {
    "I": ("*", (("^c", ("K", 3)), ("C", 4))),
    "II": ("*", (("+", (("K", 2), ("K", 1), ("K", 2))), ("^c", ("K", 2)))),
    "III": ("+", (("K", 3), ("K", 1), ("K", 3))),
}

CASE_BY_SIZES = {(1, 1): "I", (2, 2): "II", (3, 3): "III"}


# ---------------------------------------------------------------- graphs

def nx_graph(data: dict) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(data["vertices"])
    g.add_edges_from(tuple(e) for e in data["edges"])
    return g


def nx_shape(tree) -> nx.Graph:
    """The graph of a shape tree on nodes 0, 1, ... numbered left to right."""
    op, arg = tree
    if op == "K":
        return nx.complete_graph(arg)
    if op == "C":
        return nx.cycle_graph(arg)
    if op == "^c":
        return nx.complement(nx_shape(arg))
    parts = [nx_shape(p) for p in arg]
    out = nx.disjoint_union_all(parts)
    if op == "*":
        offsets, start = [], 0
        for p in parts:
            offsets.append(range(start, start + p.number_of_nodes()))
            start += p.number_of_nodes()
        for a, b in combinations(offsets, 2):
            out.add_edges_from((x, y) for x in a for y in b)
    return out


def edge_set(g: nx.Graph) -> set[frozenset]:
    return {frozenset(e) for e in g.edges()}


def clique_number(g: nx.Graph) -> int:
    return max((len(c) for c in nx.find_cliques(g)), default=0)


def check_shape_graph(tree, data: dict) -> list[str]:
    """The evaluated shape must label its vertices with the first primes, in
    left-to-right order."""
    expected = nx_shape(tree)
    primes = [sympy.prime(i + 1) for i in range(expected.number_of_nodes())]
    relabelled = nx.relabel_nodes(expected, dict(enumerate(primes)))
    got = nx_graph(data)
    if sorted(got.nodes()) != primes or edge_set(got) != edge_set(relabelled):
        return [f"shape graph {data} differs from the oracle"]
    return []


def check_mapping(a: nx.Graph, b: nx.Graph, mapping: dict) -> bool:
    """mapping is a bijection V(a) -> V(b) carrying edges onto edges."""
    if sorted(mapping) != sorted(a.nodes()) or sorted(mapping.values()) != sorted(b.nodes()):
        return False
    return edge_set(nx.relabel_nodes(a, mapping)) == edge_set(b)


def certified_non_isomorphic(a: nx.Graph, b: nx.Graph) -> bool:
    ta, tb = sorted(nx.triangles(a).values()), sorted(nx.triangles(b).values())
    return ta != tb or not nx.is_isomorphic(a, b)


def solvable_checks(g: nx.Graph) -> list[bool]:
    """[K4-free, Palfy condition, solvable shape] for a character graph."""
    n = g.number_of_nodes()
    omega = clique_number(g)
    palfy = not any(nx.triangles(nx.complement(g)).values())
    shape = n <= 3 or omega >= 3 or (n == 4 and nx.is_isomorphic(g, nx.cycle_graph(4)))
    return [omega < 4, palfy, shape]


def check_graph_item(item: dict, out: dict) -> list[str]:
    """One graphs-workload item: item from inputs.graph_set, out from the
    worker."""
    failures = []
    for label, iso in (("pos", True), ("neg", False)):
        a, b = (nx_graph(g) for g in item[label])
        mapping, checks = out[label]
        if iso:
            if mapping is None or not check_mapping(a, b, dict(mapping)):
                failures.append(f"{label}: isomorphic pair, got mapping {mapping}")
        elif mapping is not None or not certified_non_isomorphic(a, b):
            failures.append(f"{label}: non-isomorphic pair, got mapping {mapping}")
        if checks != solvable_checks(a):
            failures.append(f"{label}: checks {checks}, oracle {solvable_checks(a)}")
    return failures + check_shape_graph(item["tree"], out["shape"])


# ---------------------------------------------------------------- arithmetic

def check_factors(n: int, factors: list) -> list[str]:
    prod, last = 1, 1
    for p, e in factors:
        if p <= last or e < 1 or not sympy.isprime(p):
            return [f"factorization {factors} of {n} has a bad entry ({p}, {e})"]
        prod *= p**e
        last = p
    return [] if prod == n else [f"factors {factors} multiply to {prod}, not {n}"]


@lru_cache(maxsize=None)
def omega(n: int) -> int:
    return len(sympy.primefactors(n))


def zsigmondy_prime(base: int, n: int):
    value = base**n - 1
    for p in sympy.primefactors(value):
        if sympy.n_order(base, p) == n:
            return p
    return None


def cd_graph(degrees) -> nx.Graph:
    """Character graph from its definition: pq adjacent iff pq divides a degree."""
    g = nx.Graph()
    for d in degrees:
        ps = sympy.primefactors(d)
        g.add_nodes_from(ps)
        g.add_edges_from(combinations(ps, 2))
    return g


def psl2_degrees(q: int) -> list[int]:
    if q == 5:
        return [1, 3, 4, 5]
    if q % 2 == 0:
        return [1, q - 1, q, q + 1]
    eps = 1 if q % 4 == 1 else -1
    return [1, (q + eps) // 2, q - 1, q, q + 1]


def same_graph(data: dict, g: nx.Graph) -> bool:
    got = nx_graph(data)
    return sorted(got.nodes()) == sorted(g.nodes()) and edge_set(got) == edge_set(g)


# ---------------------------------------------------------------- paper

def derive_paper_expected() -> dict:
    """Recompute the paper's frozen results with sympy (takes seconds)."""
    classify, interest, evenfive = [], [], []
    for f in range(2, 64):
        sizes = (omega(2**f - 1), omega(2**f + 1))
        classify.append([f, sizes[0], sizes[1], CASE_BY_SIZES.get(sizes)])
        if sum(sizes) == 3:
            clause = None
            if f == 4:
                clause = "a"
            elif sympy.isprime(f) and f >= 5 and sympy.isprime(2**f - 1):
                plus = sympy.factorint(2**f + 1)
                others = [p for p in plus if p != 3]
                if plus.get(3) == 1 and len(others) == 1 and plus[others[0]] % 2 == 1:
                    clause = "b"
            interest.append([f, clause])
        if sizes == (2, 2):
            evenfive.append([f, f in (6, 9) or sympy.isprime(f)])
    oddfour = []
    for q in range(3, 100_001, 2):
        fac = sympy.factorint(q)
        if len(fac) != 1:
            continue
        (p, f), = fac.items()
        if len(set(sympy.primefactors(q - 1)) | set(sympy.primefactors(q + 1))) != 3:
            continue
        if q in (25, 49, 81):
            clause = "a"
        elif p == 3 and f % 2 == 1 and sympy.isprime(f):
            clause = "b"
        elif p >= 11 and f == 1:
            clause = "c"
        else:
            clause = None
        oddfour.append([q, p, f, clause])
    return {"classify": classify, "interest": interest, "evenfive": evenfive, "oddfour": oddfour}


@lru_cache(maxsize=None)
def paper_expected() -> dict:
    return json.loads(PAPER_EXPECTED.read_text())


def scan_rows(kind: str, hits: list[dict]) -> list[list]:
    if kind == "interest":
        return [[h["f"], h["clause"]] for h in hits]
    if kind == "evenfive":
        return [[h["f"], h["conforming"]] for h in hits]
    return [[h["q"], h["p"], h["f"], h["clause"]] for h in hits]


def expected_scan(kind: str, bound: int) -> list[list]:
    return [row for row in paper_expected()[kind] if row[0] <= bound]


def counterexamples(rows: list[list]) -> int:
    """Scan rows that fit no clause: a None clause, or evenfive's False."""
    return sum(1 for row in rows if row[-1] in (None, False))


def check_product_graph(case: str, data: dict) -> list[str]:
    g = nx_graph(data)
    if not all(sympy.isprime(v) for v in g.nodes()):
        return [f"product graph has a non-prime vertex: {data}"]
    checks = [
        g.number_of_nodes() == 7,
        clique_number(g) < 4,
        not nx.is_bipartite(nx.complement(g)),
        nx.is_isomorphic(g, nx_shape(CASE_SHAPES[case])),
    ]
    return [] if all(checks) else [f"product graph {data} fails case {case}: {checks}"]


def check_paper_item(item: dict) -> list[str]:
    expected = paper_expected()
    kind = item["kind"]
    if kind == "classify":
        row = expected["classify"][item["key"] - 2]
        got = [item["key"], *item["sizes"], item["case"]]
        return [] if got == row else [f"classify {got}, expected {row}"]
    if kind == "verify":
        f = item["key"]
        case = expected["classify"][f - 2][3]
        if item["case"] != case or item["verified"] is not True:
            return [f"verify f={f}: case {item['case']} verified {item['verified']}, expected {case}"]
        return check_product_graph(case, item["graph"])
    rows = scan_rows(kind, item["hits"])
    want = expected_scan(kind, item["key"])
    if rows != want or item["counterexamples"] != counterexamples(want):
        return [f"scan {kind} {item['key']}: {len(rows)} hits, {item['counterexamples']} counterexamples"]
    return []


def check_paper_pass(items: list[dict]) -> list[str]:
    """The pass as a whole: every claim made once, every case f verified."""
    case_fs = [row[0] for row in paper_expected()["classify"] if row[3]]
    claims = [(item["kind"], item["key"]) for item in items]
    want = ([("classify", f) for f in range(2, 64)] + [("verify", f) for f in case_fs]
            + [("interest", 63), ("evenfive", 63), ("oddfour", 100_000)])
    return [] if claims == want else ["the pass did not make exactly the paper's claims"]


# ---------------------------------------------------------------- cli

def check_cli(spec: dict, result: dict) -> list[str]:
    """One CLI invocation against its spec from run.cli_commands."""
    failures = []
    if spec["exit"] is not None and result["exit"] != spec["exit"]:
        failures.append(f"exit {result['exit']}, expected {spec['exit']}")
    if "Traceback" in result["stderr"]:
        failures.append("traceback on stderr")
    kind = spec["check"]
    if failures or kind is None:
        return failures
    if spec["exit"] is None and result["exit"] not in (0, 1):
        return [f"exit {result['exit']}, expected a verdict"]
    out = result["stdout"]
    try:
        data = json.loads(out) if not kind.endswith("-table") else None
        return _check_cli_output(kind, spec["args"], data, out, result["exit"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unexpected output ({exc!r}): {out[:200]!r}"]


def _check_cli_output(kind: str, args: dict, data, out: str, exit: int) -> list[str]:
    if kind == "factor":
        if data["n"] != args["n"]:
            return [f"factor echoed n {data['n']}"]
        return check_factors(args["n"], data["factors"])
    if kind == "factor-table":
        body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(sympy.factorint(args["n"]).items()))
        want = f"{args['n']} = {body or '1'}\n"
        return [] if out == want else [f"factor table {out!r}, expected {want!r}"]
    if kind == "pi":
        want = sympy.primefactors(args["n"])
        return [] if data == {"n": args["n"], "primes": want} else [f"pi {data}, expected {want}"]
    if kind == "zsigmondy":
        want = zsigmondy_prime(args["base"], args["n"])
        return [] if data["prime"] == want else [f"zsigmondy {data}, expected {want}"]
    if kind == "psl2":
        ok = same_graph(data, cd_graph(psl2_degrees(args["q"])))
        return [] if ok else [f"psl2-graph {args['q']} {data} differs from the degree-set graph"]
    if kind == "shape":
        return check_shape_graph(args["tree"], data)
    if kind == "iso":
        a, b = nx_graph(args["a"]), nx_graph(args["b"])
        want = nx.is_isomorphic(a, b)
        if data["isomorphic"] != want or exit != (0 if want else 1):
            return [f"iso says {data['isomorphic']} with exit {exit}, oracle {want}"]
        if want and not check_mapping(a, b, {int(k): v for k, v in data["mapping"].items()}):
            return ["iso mapping is not an isomorphism"]
        return []
    if kind == "classify":
        row = paper_expected()["classify"][args["f"] - 2]
        got = [data["f"], *data["sizes"], data["case"]]
        return [] if got == row else [f"classify-f {got}, expected {row}"]
    if kind == "verify":
        case = paper_expected()["classify"][args["f"] - 2][3]
        if data["case"] != case or data["verified"] is not True:
            return [f"verify-main f={args['f']}: {data['case']} {data['verified']}"]
        return check_product_graph(case, data["product_graph"])
    if kind == "scan":
        rows = scan_rows(args["which"], data["hits"])
        want = expected_scan(args["which"], args["max"])
        bad = counterexamples(want)
        ok = rows == want and len(data["counterexamples"]) == bad and data["max"] == args["max"]
        return [] if ok else [f"scan {args['which']}: {len(rows)} hits, expected {len(want)}"]
    if kind == "scan-table":
        # The key column is not pinned: it shows f instead of q for oddfour.
        want = expected_scan(args["which"], args["max"])
        bad = counterexamples(want)
        last = out.splitlines()[-1] if out else ""
        ok = last == f"{len(want)} hit(s), {bad} counterexample(s)" and len(out.splitlines()) == len(want) + 1
        return [] if ok else [f"scan table ends {last!r}"]
    if kind == "solvable":
        g = cd_graph(args["degrees"])
        checks = solvable_checks(g)
        want = {"graph": data["graph"], "palfy": checks[1], "solvable_shape": checks[2]}
        exit_ok = exit == (0 if checks[1] and checks[2] else 1)
        if not same_graph(data["graph"], g) or data != want or not exit_ok:
            return [f"check-solvable {data}, oracle palfy={checks[1]} shape={checks[2]}"]
        return []
    raise ValueError(f"unknown check {kind!r}")
