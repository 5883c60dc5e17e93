import math
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings

from chargraph import classify, graphs
from chargraph.arith import prime_divisors, zsigmondy
from chargraph.classify import (
    F_MAX,
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
from chargraph.degrees import graph_psl2
from chargraph.graphs import CharGraph, DegreeSet
from chargraph.shapes import eval_shape
from conftest import CASE_FS, FACTOR_TABLE, PRIMES, char_graphs
from oracles import divisors, smallest_prime_factors, trial_is_prime, zsigmondy_bounds


@pytest.mark.parametrize("case,f", [(case, f) for case, fs in CASE_FS.items() for f in fs])
def test_verify_main_accepts_the_synthetic_radical(case, f, monkeypatch):
    # The non-bipartite complement clause is implied by seven vertices and
    # K4-freeness (tests/test_atlas.py), so verify_main builds no complement.
    # The socle's primes come from the cached classify_f report, so it
    # factors each radical degree once and no degree of PSL2(2^f).
    def no_complement(g):
        raise AssertionError("verify_main built a complement")

    radical = synthetic_radical(f)
    factored = []

    def recording(n):
        factored.append(n)
        return prime_divisors(n)

    monkeypatch.setattr(classify, "complement", no_complement)
    monkeypatch.setattr(graphs, "prime_divisors", recording)
    report = verify_main(f, radical)
    assert report.case == case
    assert report.verified is True
    assert report.product_graph.vertex_count == 7
    assert sorted(factored) == sorted(d for factor in radical for d in factor)


def test_verify_main_accepts_a_radical_with_large_primes():
    # Products of these degrees with those of PSL2(2^23) exceed 2^64.
    report = verify_main(23, [DegreeSet([1, 2199023255521, 2199023255531])])
    assert report.verified is True
    assert {2199023255521, 2199023255531} <= set(report.product_graph.vertices)


@pytest.mark.parametrize("f,radical,message", [
    (2, [[1, 3, 11], [1, 13, 17]], "factor 0 reuses socle primes [3]"),
    (6, [[1, 11, 17], [1, 19, 23]], "case II needs exactly 1 radical factor(s), got 2"),
    (14, [[1, 7, 11]], "case III radical must be abelian; factor 0 has primes [7, 11]"),
    (2, [[1, 11, 13], [1, 11, 17]], "factor 1 reuses primes [11] of an earlier factor"),
    (6, [[1, 11, 17, 19]], "factor 0 must contribute exactly 2 primes, has [11, 17, 19]"),
    (6, [[1, 187]], "factor 0 must have an edgeless graph"),
])
def test_verify_main_rejects_a_nonconforming_radical(f, radical, message):
    with pytest.raises(RadicalValidationError) as info:
        verify_main(f, [DegreeSet(ds) for ds in radical])
    assert str(info.value) == message
    assert info.value.failures == [message]


def test_verify_main_evaluates_each_expected_shape_once(monkeypatch):
    # Two passes over the 13 case f need the three case shapes, once each.
    # A wrapper bound to classify.eval_shape, as a tracer installs, sees
    # every one of those runs, so the cache reads that binding at call time.
    runs, calls = [], []

    def count_eval_shape(frame, event, arg):
        if event == "call" and frame.f_code is eval_shape.__code__:
            runs.append(frame)

    def counting(expr):
        calls.append(expr)
        return eval_shape(expr)

    monkeypatch.setattr(classify, "eval_shape", counting)
    classify._expected_graph.cache_clear()
    sys.setprofile(count_eval_shape)
    try:
        for _ in range(2):
            for f in (f for fs in CASE_FS.values() for f in fs):
                assert verify_main(f, synthetic_radical(f)).verified is True
    finally:
        sys.setprofile(None)
    assert (len(runs), len(calls)) == (3, 3)


def test_verify_main_rejects_f_without_a_case():
    with pytest.raises(ValueError, match="no case applies"):
        verify_main(4, [])


def test_classify_f_socle_graph_holds_the_socle_primes():
    report = classify_f(6)
    assert report.sizes == (2, 2)
    assert set(report.socle_graph.vertices) == {2, 3, 5, 7, 13}


@pytest.mark.parametrize("scan,bound,keys", [
    (scan_lemma_interest, 8, [4, 5, 7]),
    (scan_lemma_evenfive, 12, [6, 9, 11]),
    (scan_lemma_oddfour, 30, [11, 13, 19, 23, 25, 27]),
])
def test_scan_hits_carry_their_key(scan, bound, keys):
    hits = scan(bound)
    assert [h.key for h in hits] == keys
    assert scan_counterexamples(hits) == []


@pytest.mark.parametrize("scan,bound", [(scan_lemma_interest, 10), (scan_lemma_evenfive, 12), (scan_lemma_oddfour, 30)])
def test_a_scan_hit_is_immutable(scan, bound):
    hit = scan(bound)[0]
    text, data = repr(hit), hit.to_json()
    out = hit.to_json()
    for value in out.values():
        if isinstance(value, list):
            value.append(9)
    out["f"] = 99
    assert (repr(hit), hit.to_json()) == (text, data)
    with pytest.raises(TypeError):
        hit.fields["f"] = 99


COUNT_PAIRS = {f: (len(minus), len(plus)) for f, minus, plus in FACTOR_TABLE}


def test_factor_table_checks_itself():
    sympy = pytest.importorskip("sympy")
    assert list(COUNT_PAIRS) == list(range(2, F_MAX + 1))
    for f, minus, plus in FACTOR_TABLE:
        for n, factors in ((2**f - 1, minus), (2**f + 1, plus)):
            primes = [p for p, _ in factors]
            assert primes == sorted(set(primes))
            assert all(e >= 1 for _, e in factors)
            assert math.prod(p**e for p, e in factors) == n
            assert all(sympy.isprime(p) for p in primes), (f, n)


def test_classify_f_sizes_match_the_factor_table():
    assert {f: classify_f(f).sizes for f in COUNT_PAIRS} == COUNT_PAIRS


def test_classify_f_socle_graph_matches_the_factor_table():
    # The graph of PSL2(2^f): K1 on {2} plus a clique on pi(2^f - 1) and one
    # on pi(2^f + 1), the two cliques read off the frozen factor table.
    for f, minus, plus in FACTOR_TABLE:
        cliques = [{p for p, _ in minus}, {p for p, _ in plus}]
        vertices = {2}.union(*cliques)
        edges = {e for c in cliques for e in combinations(sorted(c), 2)}
        g = classify_f(f).socle_graph
        assert (set(g.vertices), set(g.edges)) == (vertices, edges), f


def test_f_scanners_match_the_factor_table():
    interest = scan_lemma_interest(F_MAX)
    assert [h.key for h in interest] == [f for f, (a, b) in COUNT_PAIRS.items() if a + b == 3]
    assert all(h.to_json()["sizes"] == list(COUNT_PAIRS[h.key]) for h in interest)
    evenfive = scan_lemma_evenfive(F_MAX)
    assert [h.key for h in evenfive] == [f for f, pair in COUNT_PAIRS.items() if pair == (2, 2)]


def test_zsigmondy_settles_the_composite_branch_of_both_lemmas():
    """Divisor counting alone leaves the lemmas' composite f inside F_MAX.

    interest needs the two counts to sum to 3, evenfive needs both to be 2.
    The bounds of oracles.zsigmondy_bounds sum to tau(2f) - 1 - [3 | f], so
    those lemmas cap tau(2f) at 4 + [3 | f] and 5 + [3 | f].  A composite f
    with a prime factor p >= 5 has tau(2f) >= 6, with equality only for
    f = p^2 and f = 2p, which 3 does not divide.  So every composite f under
    either cap is 2^a 3^b with (a + 2)(b + 1) <= 6, a divisor of 144, and
    the range below holds them all.  Those the bounds leave open are each
    scanned, so the composite branch holds for every f.

    That proves evenfive for every f: a composite f with both counts 2 is 6
    or 9, and a prime f conforms by the lemma's wording.

    The prime-f branch of interest (2^f - 1 prime and 2^f + 1 = 3 t^beta,
    beta odd) needs residues as well as Zsigmondy; it holds for every prime
    f by test_interest_holds_for_every_prime_f.
    """
    capped = []
    for f in range(2, 3000):
        tau = len(divisors(2 * f))
        assert sum(zsigmondy_bounds(f)) == tau - 1 - (f % 3 == 0), f
        if not trial_is_prime(f) and tau <= 5 + (f % 3 == 0):
            capped.append(f)
    assert capped == [4, 6, 8, 9]
    interest = [f for f in capped if sum(zsigmondy_bounds(f)) <= 3]
    evenfive = [f for f in capped if max(zsigmondy_bounds(f)) <= 2]
    assert (interest, evenfive) == ([4], [4, 6, 9])
    assert max(capped) <= F_MAX


def test_interest_holds_for_every_prime_f():
    """Every prime f >= 5 whose counts sum to 3 fits clause (b).

    2^f - 1 has a prime of order f, and 2^f + 1 one of order 2 (which is 3)
    and one of order 2f, so the counts are at least (1, 2), and a sum of 3
    makes them exactly (1, 2).  Then:
    - 2^f - 1 = p^a has a = 1.  An even a makes p^a an odd square, 1 mod 4,
      but 2^f - 1 is 3 mod 4.  An odd a >= 3 would make 2^f = p^a + 1 the
      product of p + 1 and the odd number p^(a-1) - p^(a-2) + ... + 1 > 1.
    - 3 divides 2^f + 1 once: 9 | 2^f + 1 iff f = 3 (mod 6), and a prime
      f >= 5 is 1 or 5 mod 6.
    - (2^f + 1)/3 = t^beta has beta odd.  An even beta makes t^beta an odd
      square, 1 mod 8, so 2^f + 1 would be 3 mod 8, but it is 1 mod 8.
    The residue facts are checked over a full period by the tests below.  So
    the scan's clause-(b) hits are exactly the prime f >= 5 with 2^f - 1
    prime and (2^f + 1)/3 a prime power, here read from the factor table.
    """
    assert all(zsigmondy_bounds(f) == (1, 2) for f in range(5, 3000) if trial_is_prime(f))
    expected = []
    for f, minus, plus in FACTOR_TABLE:
        rest = {p: e - (p == 3) for p, e in plus}  # the primes of (2^f + 1)/3
        if f >= 5 and trial_is_prime(f) and minus == [[2**f - 1, 1]] and rest.get(3) == 0 \
                and sum(e > 0 for e in rest.values()) == 1:
            expected.append(f)
    assert expected == [5, 7, 13, 17, 19, 31, 61]
    hits = scan_lemma_interest(F_MAX)
    assert [h.key for h in hits if h.clause == "b"] == expected
    assert [h.key for h in hits if h.clause != "b"] == [4]


def test_oddfour_holds_for_every_odd_prime_power():
    """Every odd prime power q = p^f with exactly three primes dividing
    q^2 - 1 is 25, 49 or 81 (clause a), or has p = 3 with f an odd prime
    (clause b), or has p >= 11 with f = 1 (clause c).

    2 divides q^2 - 1 = p^(2f) - 1, and by Zsigmondy each d | 2f with
    d >= 3 adds a primitive prime of p^d - 1, a different one for each d
    (an odd p has no exception there).  So:
    - tau(2f) >= 5 gives at least four primes, which leaves f in {1, 2, 4}
      or f an odd prime.
    - f an odd prime r: 2 and the primes of orders r and 2r make three.
      For p >= 5, 3 divides p^2 - 1 as well, a fourth.  So p = 3: clause b.
    - f = 4: 2 and the primes of orders 4 and 8 make three, and 3 a fourth
      unless p = 3.  So q = 81: clause a.
    - f = 2, p >= 5: 2, 3 and a prime of p^2 + 1 already make three.  So
      p^2 - 1 = 4 * ((p - 1)/2) * ((p + 1)/2) has no other prime: (p - 1)/2
      and (p + 1)/2 are consecutive {2, 3}-smooth integers, which are (1, 2),
      (2, 3), (3, 4) and (8, 9) (Levi ben Gershon; Stormer 1897).  That
      leaves p in {5, 7, 17}, and 17^2 + 1 = 2 * 5 * 29 adds a fourth
      prime.  So q is 25 or 49: clause a.  q = 9 has two primes, 2 and 5.
    - f = 1: p >= 11 is clause c, and p = 3, 5, 7 give 1, 2 and 2 primes.
    The scan to Q_ODD_MAX must agree with an independent sieve on its
    range; the sieve runs ten times as far, and Zsigmondy and Stormer's
    list are checked on the cases the argument uses.
    """
    bound = 10**6
    spf = smallest_prime_factors(bound + 1)

    def primes_of(k):
        ps = set()
        while k > 1:
            p = spf[k]
            ps.add(p)
            while k % p == 0:
                k //= p
        return ps

    prime_powers = []
    for p in (k for k in range(3, bound + 1, 2) if spf[k] == k):
        q = p
        while q <= bound:
            prime_powers.append(q)
            q *= p
    hits = sorted(q for q in prime_powers if len(primes_of(q - 1) | primes_of(q + 1)) == 3)
    assert len(hits) == 31
    assert [q for q in hits if spf[q] != q or q < 11] == [25, 27, 49, 81, 243, 2187]
    scanned = [h.key for h in scan_lemma_oddfour(100_000)]
    assert scanned == [q for q in hits if q <= 100_000] and len(scanned) == 30
    assert hits[30:] == [995327]
    assert all(zsigmondy(p, d) is not None for p in range(3, 40, 2) for d in range(3, 13))
    smooth = {2**a * 3**b for a in range(20) for b in range(13)}
    assert [(k, k + 1) for k in sorted(smooth) if k + 1 < bound and k + 1 in smooth] == \
        [(1, 2), (2, 3), (3, 4), (8, 9)]


def test_two_to_the_f_mod_9_has_period_6():
    # 2^6 = 1 (mod 9), so 2^f mod 9 is 2^(f mod 6) mod 9.
    assert pow(2, 6, 9) == 1
    assert [r for r in range(6) if (pow(2, r, 9) + 1) % 9 == 0] == [3]
    # f mod 6 is 1 or 5 unless 2 or 3 divides f.
    assert [r for r in range(6) if math.gcd(r, 6) == 1] == [1, 5]


def test_two_to_the_f_plus_one_is_1_mod_8_from_f_3():
    # 8 divides 2^3 and so every 2^f with f >= 3; 4 divides 2^f from f = 2.
    assert pow(2, 3, 8) == 0 and pow(2, 2, 4) == 0
    assert all((2**f + 1) % 8 == 1 and (2**f - 1) % 4 == 3 for f in range(3, F_MAX + 1))


def test_odd_squares_are_1_mod_8():
    # (x + 8k)^2 = x^2 (mod 8), so the odd residues mod 8 are a full period.
    assert {x * x % 8 for x in (1, 3, 5, 7)} == {1}


def test_even_powers_of_odd_primes_are_1_mod_4():
    # p^(2b) = (p^b)^2 and an odd p is 1 or 3 mod 4, so it is 1 mod 4.
    assert {x * x % 4 for x in (1, 3)} == {1}
    assert all(pow(p, a, 4) == 1 for p in PRIMES[1:] for a in range(0, 20, 2))


def test_zsigmondy_bounds_never_exceed_the_counts():
    for f in range(2, F_MAX + 1):
        minus, plus = zsigmondy_bounds(f)
        sizes = classify_f(f).sizes
        assert minus <= sizes[0] and plus <= sizes[1], f


@pytest.mark.parametrize("f", range(2, F_MAX + 1))
def test_zsigmondy_primes_witness_the_bounds(f):
    # For each d that a bound counts, the least prime of 2^f -+ 1 in the
    # factor table whose order of 2 is exactly d.  Those are the primitive
    # primes of 2^d - 1, so the least is zsigmondy(2, d) wherever zsigmondy
    # accepts d (d <= 64); test_arith.py pins zsigmondy against a
    # brute-force oracle.
    assert zsigmondy(2, 1) is None and zsigmondy(2, 6) is None
    [(minus, plus)] = [(minus, plus) for g, minus, plus in FACTOR_TABLE if g == f]
    sides = [(minus, [d for d in divisors(f) if d not in (1, 6)]),
             (plus, [d for d in divisors(2 * f) if f % d != 0 and d != 6])]
    for (factors, ds), bound in zip(sides, zsigmondy_bounds(f)):
        order = {p: next(k for k in range(1, 2 * f + 1) if pow(2, k, p) == 1) for p, _ in factors}
        ps = [min(p for p in order if order[p] == d) for d in ds]
        assert len(set(ps)) == len(ps) == bound
        assert all(p == zsigmondy(2, d) for p, d in zip(ps, ds) if d <= 64), f


def test_palfy_fails_exactly_on_the_independent_triples_of_psl2_32():
    g = graph_psl2(32)
    failing = [t for t in combinations(g.vertices, 3)
               if not check_palfy(CharGraph(t, [e for e in g.edges if set(t).issuperset(e)]))]
    assert failing == [(2, 3, 31), (2, 11, 31)]
    assert not check_palfy(g)


def test_palfy_holds_on_a_complete_graph():
    assert check_palfy(CharGraph(PRIMES[:7], combinations(PRIMES[:7], 2)))


def test_palfy_fails_on_an_edgeless_triple():
    assert check_palfy(CharGraph([2, 3]))
    assert not check_palfy(CharGraph([2, 3, 5]))


def nx_complement_is_bipartite(g: CharGraph) -> bool:
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return nx.is_bipartite(nx.complement(h))


@settings(deadline=None)  # the first failing graph imports networkx
@given(char_graphs())
@example(CharGraph([2, 3, 5]))
def test_failing_palfy_implies_a_non_bipartite_complement(g):
    # An independent triple of g is a triangle in its complement.
    if not check_palfy(g):
        assert not nx_complement_is_bipartite(g)


def test_palfy_does_not_imply_a_bipartite_complement():
    # The complement of a 5-cycle is again a 5-cycle: no triangle in the
    # complement, yet the complement is not bipartite.
    five = CharGraph([2, 3, 5, 7, 11], [(2, 3), (3, 5), (5, 7), (7, 11), (2, 11)])
    assert check_palfy(five)
    assert not nx_complement_is_bipartite(five)


@pytest.mark.parametrize("check", [check_palfy, check_solvable_shape])
def test_solvable_checks_are_bounded_at_12_vertices(check):
    twelve = CharGraph(PRIMES)
    assert len(PRIMES) == 12
    check(twelve)
    with pytest.raises(ValueError, match="^graph has 13 vertices; exhaustive search is bounded at 12$"):
        check(CharGraph(PRIMES + (41,)))


def test_palfy_checks_the_bound_before_building_the_complement(monkeypatch):
    # The complement of an n-vertex graph has up to C(n, 2) edges, so building
    # it before the bound check costs time and memory quadratic in n.
    def no_complement(g):
        raise AssertionError("complement built past the search bound")

    monkeypatch.setattr(classify, "complement", no_complement)
    with pytest.raises(ValueError, match="bounded at 12"):
        check_palfy(CharGraph(PRIMES + (41,)))
