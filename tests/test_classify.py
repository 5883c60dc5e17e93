import json
import math
from pathlib import Path

import pytest

from chargraph.classify import (
    F_MAX,
    RadicalValidationError,
    classify_f,
    scan_counterexamples,
    scan_lemma_evenfive,
    scan_lemma_interest,
    scan_lemma_oddfour,
    synthetic_radical,
    verify_main,
)
from chargraph.graphs import DegreeSet

CASE_FS = {"I": (2, 3), "II": (6, 9, 11, 23), "III": (14, 15, 21, 27, 29, 47, 53)}


@pytest.mark.parametrize("case,f", [(case, f) for case, fs in CASE_FS.items() for f in fs])
def test_verify_main_accepts_the_synthetic_radical(case, f):
    report = verify_main(f, synthetic_radical(f))
    assert report.case == case
    assert report.verified is True
    assert report.product_graph.vertex_count == 7


def test_verify_main_accepts_a_radical_with_large_primes():
    # Products of these degrees with those of PSL2(2^23) exceed 2^64.
    report = verify_main(23, [DegreeSet([1, 2199023255521, 2199023255531])])
    assert report.verified is True
    assert {2199023255521, 2199023255531} <= set(report.product_graph.vertices)


@pytest.mark.parametrize("f,radical,message", [
    (2, [[1, 3, 11], [1, 13, 17]], "factor 0 reuses socle primes [3]"),
    (6, [[1, 11, 17], [1, 19, 23]], "case II needs exactly 1 radical factor(s), got 2"),
    (14, [[1, 7, 11]], "case III radical must be abelian; factor 0 has primes [7, 11]"),
])
def test_verify_main_rejects_a_nonconforming_radical(f, radical, message):
    with pytest.raises(RadicalValidationError) as info:
        verify_main(f, [DegreeSet(ds) for ds in radical])
    assert str(info.value) == message
    assert info.value.failures == [message]


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


# Rows [f, factors of 2^f - 1, factors of 2^f + 1] for f = 2..63, each a
# list of [prime, exponent]; frozen from sympy.factorint.
FACTOR_TABLE = json.loads((Path(__file__).parent / "golden" / "mersenne_factors.json").read_text())
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


def test_f_scanners_match_the_factor_table():
    interest = scan_lemma_interest(F_MAX)
    assert [h.key for h in interest] == [f for f, (a, b) in COUNT_PAIRS.items() if a + b == 3]
    assert all(h.fields["sizes"] == list(COUNT_PAIRS[h.key]) for h in interest)
    evenfive = scan_lemma_evenfive(F_MAX)
    assert [h.key for h in evenfive] == [f for f, pair in COUNT_PAIRS.items() if pair == (2, 2)]
