import pytest

from chargraph.classify import (
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
