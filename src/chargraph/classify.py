"""Case classification and verification for seven-vertex K4-free character
graphs, plus the enumeration scanners and solvable-graph validators.

A group with such a graph is a direct product of PSL2(2^f) with a solvable
radical, and the prime-divisor counts of 2^f -+ 1 decide which of three
graph shapes occurs.  verify_main builds the graph of PSL2(2^f) times a
radical model and confirms the predicted shape edge for edge.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from ._value import Value
from .arith import factorize, is_prime, prime_divisors
from .degrees import cd_psl2, graph_psl2, prime_power
from .graphs import (
    CharGraph,
    DegreeSet,
    are_isomorphic,
    complement,
    graph_from_cd,
    is_bipartite,
    is_kn_free,
)
from .shapes import GraphExpr, eval_shape, parse_shape, render_shape

F_MAX = 63
Q_ODD_MAX = 100_000

# (|pi(2^f - 1)|, |pi(2^f + 1)|) -> (case, expected shape, required radical,
# number of radical factors).  A case with n > 0 factors needs exactly n,
# each contributing two fresh primes and no edge; with 0 the radical is
# abelian and any number of prime-free factors fits.
CASES = {
    (1, 1): ("I", "K3^c * C4",
             "two degree-set factors, each contributing two fresh primes and no edge", 2),
    (2, 2): ("II", "(K2 + K1 + K2) * K2^c",
             "one degree-set factor contributing two fresh primes and no edge", 1),
    (3, 3): ("III", "K3 + K1 + K3", "abelian (contributes no primes)", 0),
}
_NO_CASE = (None, None, "none (prime-divisor counts match no case)", 0)


class RadicalValidationError(ValueError):
    """A radical model does not fit the case; carries all failures found."""

    def __init__(self, failures: list[str]) -> None:
        super().__init__("; ".join(failures))
        self.failures = list(failures)


class CaseReport(Value):
    """Classification of one exponent f, optionally with verification."""

    __slots__ = ("f", "sizes", "case", "socle_graph", "required_radical", "expected_shape",
                 "verified", "product_graph")

    def __init__(self, f: int, sizes: tuple[int, int], case: str | None, socle_graph: CharGraph,
                 required_radical: str, expected_shape: GraphExpr | None,
                 verified: bool | None = None, product_graph: CharGraph | None = None) -> None:
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "socle_graph", socle_graph)
        object.__setattr__(self, "required_radical", required_radical)
        object.__setattr__(self, "expected_shape", expected_shape)
        object.__setattr__(self, "verified", verified)
        object.__setattr__(self, "product_graph", product_graph)

    def to_json(self) -> dict:
        return {
            "f": self.f,
            "sizes": list(self.sizes),
            "case": self.case,
            "socle_graph": self.socle_graph.to_json(),
            "required_radical": self.required_radical,
            "expected_shape": render_shape(self.expected_shape) if self.expected_shape else None,
            "verified": self.verified,
            "product_graph": self.product_graph.to_json() if self.product_graph else None,
        }


def _check_f(f: int) -> None:
    if not 2 <= f <= F_MAX:
        raise ValueError(f"f must be in [2, {F_MAX}], got {f}")


def classify_f(f: int) -> CaseReport:
    """Assign f to case I/II/III by the prime-divisor counts of 2^f -+ 1.

    Case I: both counts 1; II: both 2; III: both 3; anything else (mixed
    counts included) is no case.  Reports are memoized: f has at most
    F_MAX - 1 values, and verify_main and the scanners ask for the same f
    again.  A bad f raises and is not kept.
    """
    _check_f(f)
    return _classify(f)


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
    return CaseReport(
        f=f,
        sizes=sizes,
        case=case,
        socle_graph=socle,
        required_radical=note,
        expected_shape=parse_shape(shape) if shape else None,
    )


def _case_factor_count(report: CaseReport) -> int:
    if report.case is None:
        raise ValueError(f"f = {report.f} has sizes {report.sizes}; no case applies")
    return CASES[report.sizes][3]


def _validate_radical(case: str, count: int, socle_primes: set[int], radical: list[DegreeSet]) -> list[str]:
    failures: list[str] = []
    if count and len(radical) != count:
        failures.append(f"case {case} needs exactly {count} radical factor(s), got {len(radical)}")
    seen: set[int] = set()
    for i, factor in enumerate(radical):
        rho = factor.rho()
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
            elif graph_from_cd(factor).edge_count != 0:
                failures.append(f"factor {i} must have an edgeless graph")
        else:
            if rho:
                failures.append(f"case {case} radical must be abelian; factor {i} has primes {sorted(rho)}")
    return failures


def verify_main(f: int, radical: list[DegreeSet]) -> CaseReport:
    """Build the product degree-set graph for f and a radical model and check
    it: seven vertices, K4-free, non-bipartite complement, and isomorphic to
    the case's expected shape.
    """
    report = classify_f(f)
    count = _case_factor_count(report)
    failures = _validate_radical(report.case, count, set(report.socle_graph.vertices), radical)
    if failures:
        raise RadicalValidationError(failures)
    delta = graph_from_cd(cd_psl2(2**f), *radical)
    expected = eval_shape(report.expected_shape)
    ok = (
        delta.vertex_count == 7
        and is_kn_free(delta, 4)
        and not is_bipartite(complement(delta))
        and are_isomorphic(delta, expected) is not None
    )
    return CaseReport(report.f, report.sizes, report.case, report.socle_graph,
                      report.required_radical, report.expected_shape, ok, delta)


def synthetic_radical(f: int) -> list[DegreeSet]:
    """A conforming radical model for f's case, built from the smallest
    primes outside the socle: {1, a, b} factors for cases I/II, nothing
    for case III.
    """
    report = classify_f(f)
    needed = 2 * _case_factor_count(report)
    socle_primes = set(report.socle_graph.vertices)
    fresh: list[int] = []
    candidate = 3
    while len(fresh) < needed:
        if is_prime(candidate) and candidate not in socle_primes:
            fresh.append(candidate)
        candidate += 2
    return [DegreeSet([1, fresh[i], fresh[i + 1]]) for i in range(0, needed, 2)]


class ScanHit(Value):
    """One hit of a lemma scanner.

    key is the scanned value (f, or q for oddfour); clause is the lemma
    clause the hit fits ("ok" for evenfive, whose lemma has one), None for
    a counterexample; detail is the witness or reason shown in the table;
    fields is the hit's JSON object.
    """

    __slots__ = ("key", "clause", "detail", "fields")

    def __init__(self, key: int, clause: str | None, detail: str, fields: dict) -> None:
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "clause", clause)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "fields", fields)

    def to_json(self) -> dict:
        return self.fields


def scan_lemma_interest(f_max: int) -> list[ScanHit]:
    """All f in [2, f_max] whose counts sum to 3, classified as f = 4 or as
    (f prime >= 5, 2^f - 1 prime, 2^f + 1 = 3 t^beta with beta odd).
    Anything else is flagged as a counterexample.
    """
    if not 2 <= f_max <= F_MAX:
        raise ValueError(f"f_max must be in [2, {F_MAX}]")
    hits: list[ScanHit] = []
    for f in range(2, f_max + 1):
        q = 2**f
        sizes = classify_f(f).sizes
        if sizes[0] + sizes[1] != 3:
            continue
        clause, witness = None, f"no clause fits sizes {sizes}"
        if f == 4:
            clause, witness = "a", "2^4 - 1 = 3 * 5 and 2^4 + 1 = 17"
        elif is_prime(f) and f >= 5 and is_prime(q - 1):
            plus = factorize(q + 1).as_dict()
            others = sorted(p for p in plus if p != 3)
            if plus.get(3) == 1 and len(others) == 1 and plus[others[0]] % 2 == 1:
                t, beta = others[0], plus[others[0]]
                clause = "b"
                witness = f"2^{f} - 1 = {q - 1} prime; 2^{f} + 1 = 3 * {t}^{beta}"
        fields = {"f": f, "sizes": list(sizes), "clause": clause, "witness": witness}
        hits.append(ScanHit(f, clause, witness, fields))
    return hits


def scan_lemma_evenfive(f_max: int) -> list[ScanHit]:
    """All f in [2, f_max] with both counts 2; conforming iff f is prime or
    f is 6 or 9."""
    if not 2 <= f_max <= F_MAX:
        raise ValueError(f"f_max must be in [2, {F_MAX}]")
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
        fields = {"f": f, "conforming": clause is not None, "reason": reason}
        hits.append(ScanHit(f, clause, reason, fields))
    return hits


def scan_lemma_oddfour(q_max: int) -> list[ScanHit]:
    """All odd prime powers q <= q_max with exactly 3 primes dividing
    q^2 - 1, assigned to q in {25, 49, 81}, (p = 3, f an odd prime), or
    (p >= 11, f = 1)."""
    if not 3 <= q_max <= Q_ODD_MAX:
        raise ValueError(f"q_max must be in [3, {Q_ODD_MAX}]")
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
        hits.append(ScanHit(q, clause, "", {"q": q, "p": p, "f": f, "clause": clause}))
    return hits


def scan_counterexamples(hits: list[ScanHit]) -> list[ScanHit]:
    """The hits a scanner could not assign to any clause."""
    return [h for h in hits if h.clause is None]


def check_palfy(g: CharGraph) -> bool:
    """Necessary condition for the graph of a solvable group: among any
    three vertices, two are adjacent (the complement is triangle-free).

    Unlike graphs.odd_cycle_triples, which lists every such triple, this
    stops at the first: an edgeless graph on n primes has C(n, 3) of them.
    """
    for t in combinations(g.vertices, 3):
        if not any(g.has_edge(a, b) for a, b in combinations(t, 2)):
            return False
    return True


def check_solvable_shape(g: CharGraph) -> bool:
    """Necessary condition for the graph of a solvable group: with at least
    four vertices it contains a triangle or is a 4-cycle."""
    if g.vertex_count <= 3:
        return True
    if not is_kn_free(g, 3):
        return True
    four_cycle = CharGraph([2, 3, 5, 7], [(2, 3), (3, 5), (5, 7), (2, 7)])
    return are_isomorphic(g, four_cycle) is not None
