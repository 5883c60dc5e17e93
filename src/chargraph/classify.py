"""Case classification and verification for seven-vertex K4-free character
graphs, plus the enumeration scanners and solvable-graph validators.

A group with such a graph is a direct product of PSL2(2^f) with a solvable
radical, and the prime-divisor counts of 2^f -+ 1 decide which of three
graph shapes occurs.  verify_main builds the graph of PSL2(2^f) times a
radical model and checks that it is isomorphic to the predicted shape.
"""

from __future__ import annotations

from functools import cache
from itertools import islice

from ._value import Value, _json, check_int
from .arith import is_prime, prime_divisors, primes
from .degrees import graph_psl2, prime_power
from .graphs import (
    CharGraph,
    DegreeSet,
    _check_search_bound,
    are_isomorphic,
    complement,
    graph_from_cd,
    is_kn_free,
    join,
)
from .shapes import eval_shape, parse_shape

F_MAX = 63
Q_ODD_MAX = 100_000

# (|pi(2^f - 1)|, |pi(2^f + 1)|) -> (case, expected shape as render_shape
# prints it, required radical, number of radical factors).  A case with
# n > 0 factors needs exactly n, each contributing two fresh primes and no
# edge; with 0 the radical is abelian and any number of prime-free factors
# fits.
CASES = {
    (1, 1): ("I", "K3^c * C4",
             "two degree-set factors, each contributing two fresh primes and no edge", 2),
    (2, 2): ("II", "K2 + K1 + K2 * K2^c",
             "one degree-set factor contributing two fresh primes and no edge", 1),
    (3, 3): ("III", "K3 + K1 + K3", "abelian (contributes no primes)", 0),
}
_NO_CASE = (None, None, "none (prime-divisor counts match no case)", 0)


# Each case's expected graph, parsed and built once per shape string; the
# graph is immutable.  A body, not a cached eval_shape, so eval_shape is read
# at call time.
@cache
def _expected_graph(shape: str) -> CharGraph:
    return eval_shape(parse_shape(shape))


class RadicalValidationError(ValueError):
    """A radical model does not fit the case; the message joins every failure found with "; "."""


class CaseReport(Value):
    """Classification of one exponent f, optionally with verification.

    Fields, in order: f; sizes, the counts (|pi(2^f - 1)|, |pi(2^f + 1)|);
    case, "I", "II", "III" or None; socle_graph, the graph of PSL2(2^f);
    required_radical, the radical model the case needs, in words;
    expected_shape, the case's shape as render_shape prints it, or None;
    verified, verify_main's verdict or None; product_graph, the graph
    verify_main built or None.
    """

    __slots__ = ("f", "sizes", "case", "socle_graph", "required_radical", "expected_shape",
                 "verified", "product_graph")


def classify_f(f: int) -> CaseReport:
    """Assign f to case I/II/III by the prime-divisor counts of 2^f -+ 1.

    Case I: both counts 1; II: both 2; III: both 3; anything else (mixed
    counts included) is no case.  Reports are memoized: f has at most
    F_MAX - 1 values, and verify_main and the scanners ask for the same f
    again.  The cache is on _classify, as bench/tracing.py spans only plain
    functions and a cache wrapper is not one.
    """
    return _classify(check_int(f, "f", 2, F_MAX))


@cache
def _classify(f: int) -> CaseReport:
    q = 2**f
    socle = graph_psl2(q)
    # The socle's vertices are 2 and the disjoint sets pi(q - 1), pi(q + 1).
    sizes = (
        sum((q - 1) % p == 0 for p in socle.vertices),
        sum((q + 1) % p == 0 for p in socle.vertices),
    )
    case, shape, note, _ = CASES.get(sizes, _NO_CASE)
    return CaseReport(f, sizes, case, socle, note, shape, None, None)


def _case_factor_count(report: CaseReport) -> int:
    if report.case is None:
        raise ValueError(f"f = {report.f} has sizes {report.sizes}; no case applies")
    return CASES[report.sizes][3]


def _validate_radical(case: str, count: int, socle_primes: set[int], graphs: list[CharGraph]) -> list[str]:
    failures: list[str] = []
    if count and len(graphs) != count:
        failures.append(f"case {case} needs exactly {count} radical factor(s), got {len(graphs)}")
    seen: set[int] = set()
    for i, graph in enumerate(graphs):
        rho = set(graph.vertices)
        overlap = rho & socle_primes
        if overlap:
            failures.append(f"factor {i} reuses socle primes {sorted(overlap)}")
        dup = rho & seen
        if dup:
            failures.append(f"factor {i} reuses primes {sorted(dup)} of an earlier factor")
        seen |= rho
        if count:
            if len(rho) != 2:
                failures.append(f"factor {i} must contribute exactly 2 primes, has {sorted(rho)}")
            elif graph.edge_count != 0:
                failures.append(f"factor {i} must have an edgeless graph")
        else:
            if rho:
                failures.append(f"case {case} radical must be abelian; factor {i} has primes {sorted(rho)}")
    return failures


def verify_main(f: int, radical: list[DegreeSet]) -> CaseReport:
    """Build the graph of PSL2(2^f) times a radical model and check it: seven
    vertices, K4-free, and isomorphic to the case's expected shape.

    The graph is the join of the socle graph and each factor's graph, which
    is the graph of the direct product for any prime sets.  The radical is
    validated first against the case's model, whose factors each bring two
    fresh primes; that is the model's rule, not a precondition of join.

    The theorem's third clause, a non-bipartite complement, is implied and
    not computed: a bipartite complement on seven vertices has a side of at
    least four, which is a K4 in the graph.  tests/test_atlas.py checks the
    implication on every 7-vertex graph, and the benchmark's oracle checks
    the clause itself with networkx.
    """
    report = classify_f(f)
    count = _case_factor_count(report)
    graphs = [graph_from_cd(factor) for factor in radical]
    failures = _validate_radical(report.case, count, set(report.socle_graph.vertices), graphs)
    if failures:
        raise RadicalValidationError("; ".join(failures))
    delta = join(report.socle_graph, *graphs)
    expected = _expected_graph(report.expected_shape)
    ok = (
        delta.vertex_count == 7
        and is_kn_free(delta, 4)
        and are_isomorphic(delta, expected) is not None
    )
    return CaseReport(report.f, report.sizes, report.case, report.socle_graph,
                      report.required_radical, report.expected_shape, ok, delta)


def synthetic_radical(f: int) -> list[DegreeSet]:
    """A conforming radical model for f's case: {1, a, b} factors for cases
    I/II, nothing for case III, where a, b, ... are the smallest primes
    outside the socle, taken in order.
    """
    report = classify_f(f)
    needed = 2 * _case_factor_count(report)
    socle_primes = set(report.socle_graph.vertices)
    fresh = list(islice((p for p in primes() if p not in socle_primes), needed))
    return [DegreeSet([1, fresh[i], fresh[i + 1]]) for i in range(0, needed, 2)]


class ScanHit(Value):
    """One hit of a lemma scanner.

    key is the scanned value (f, or q for oddfour); clause is the lemma
    clause the hit fits ("ok" for evenfive, whose lemma has one), None for
    a counterexample; detail is the witness or reason shown in the table;
    fields is the hit's JSON object as (name, value) pairs, with a tuple for
    each JSON list, so the hit hashes and no caller can change it.
    """

    __slots__ = ("key", "clause", "detail", "fields")

    def to_json(self) -> dict:
        return {name: _json(v) for name, v in self.fields}


def scan_lemma_interest(f_max: int) -> list[ScanHit]:
    """All f in [2, f_max] whose counts sum to 3, classified as f = 4 or as
    (f prime >= 5, 2^f - 1 prime, 2^f + 1 = 3 t^beta with beta odd).
    Anything else is flagged as a counterexample.
    """
    check_int(f_max, "f_max", 2, F_MAX)
    hits: list[ScanHit] = []
    for f in range(2, f_max + 1):
        q = 2**f
        report = classify_f(f)
        sizes, socle = report.sizes, report.socle_graph.vertices
        if sizes[0] + sizes[1] != 3:
            continue
        clause, witness = None, f"no clause fits sizes {sizes}"
        if f == 4:
            clause, witness = "a", "2^4 - 1 = 3 * 5 and 2^4 + 1 = 17"
        elif is_prime(f) and f >= 5 and q - 1 in socle:
            # The socle's vertices hold every prime of q -+ 1, so q - 1 is
            # prime iff it is one, and dividing by them factors q + 1.
            n, plus = q + 1, {}
            for p in socle:
                while n % p == 0:
                    plus[p] = plus.get(p, 0) + 1
                    n //= p
            others = sorted(p for p in plus if p != 3)
            if plus.get(3) == 1 and len(others) == 1 and plus[others[0]] % 2 == 1:
                t, beta = others[0], plus[others[0]]
                clause = "b"
                witness = f"2^{f} - 1 = {q - 1} prime; 2^{f} + 1 = 3 * {t}^{beta}"
        fields = (("f", f), ("sizes", sizes), ("clause", clause), ("witness", witness))
        hits.append(ScanHit(f, clause, witness, fields))
    return hits


def scan_lemma_evenfive(f_max: int) -> list[ScanHit]:
    """All f in [2, f_max] with both counts 2; conforming iff f is prime or
    f is 6 or 9."""
    check_int(f_max, "f_max", 2, F_MAX)
    hits: list[ScanHit] = []
    for f in range(2, f_max + 1):
        if classify_f(f).sizes != (2, 2):
            continue
        if f in (6, 9):
            clause, reason = "ok", f"f = {f}"
        elif is_prime(f):
            clause, reason = "ok", "f prime"
        else:
            clause, reason = None, "f composite and not 6 or 9"
        fields = (("f", f), ("conforming", clause is not None), ("reason", reason))
        hits.append(ScanHit(f, clause, reason, fields))
    return hits


def scan_lemma_oddfour(q_max: int) -> list[ScanHit]:
    """All odd prime powers q <= q_max with exactly 3 primes dividing
    q^2 - 1, assigned to q in {25, 49, 81}, (p = 3, f an odd prime), or
    (p >= 11, f = 1)."""
    check_int(q_max, "q_max", 3, Q_ODD_MAX)
    hits: list[ScanHit] = []
    for q in range(3, q_max + 1, 2):
        pf = prime_power(q)
        if pf is None:
            continue
        p, f = pf
        if len(prime_divisors(q - 1) | prime_divisors(q + 1)) != 3:
            continue
        if q in (25, 49, 81):
            clause = "a"
        elif p == 3 and f % 2 == 1 and is_prime(f):
            clause = "b"
        elif p >= 11 and f == 1:
            clause = "c"
        else:
            clause = None
        hits.append(ScanHit(q, clause, "", (("q", q), ("p", p), ("f", f), ("clause", clause))))
    return hits


def scan_counterexamples(hits: list[ScanHit]) -> list[ScanHit]:
    """The hits a scanner could not assign to any clause."""
    return [h for h in hits if h.clause is None]


def check_palfy(g: CharGraph) -> bool:
    """Necessary condition for the graph of a solvable group: among any
    three vertices, two are adjacent.  It is is_kn_free(., 3) on the
    complement, so it raises ValueError above MAX_SEARCH_VERTICES vertices."""
    _check_search_bound(g)  # before the complement's C(n, 2) edges are built
    return is_kn_free(complement(g), 3)


def check_solvable_shape(g: CharGraph) -> bool:
    """Necessary condition for the graph of a solvable group: with at least
    four vertices it contains a triangle or is a 4-cycle.  A triangle-free
    graph on four vertices with four edges is a 4-cycle."""
    return g.vertex_count <= 3 or not is_kn_free(g, 3) or (g.vertex_count, g.edge_count) == (4, 4)
