from math import gcd

import pytest

from chargraph.degrees import cd_psl2, graph_psl2, prime_power
from oracles import component_psl2_graph, trial_is_prime, trial_prime_power

Q_MAX = 20_000


def prime_powers(lo: int, hi: int) -> list[int]:
    out = []
    for p in filter(trial_is_prime, range(2, hi + 1)):
        q = p
        while q <= hi:
            if q >= lo:
                out.append(q)
            q *= p
    return sorted(out)


def psl2_graph_sets(q: int) -> tuple[set[int], set[tuple[int, int]]]:
    g = graph_psl2(q)
    return set(g.vertices), set(g.edges)


def test_psl2_graph_matches_degree_set_graph():
    # graph_psl2 is the graph of the degree set; the oracle builds the
    # components by trial division and shares no code with it.
    qs = prime_powers(4, Q_MAX)
    assert len(qs) == 2326
    mismatches = [q for q in qs if psl2_graph_sets(q) != component_psl2_graph(q)]
    assert mismatches == []


def psl2_multiplicities(q: int) -> dict[int, int]:
    """Degree -> number of irreducible characters of PSL2(q) of that degree."""
    if q % 2 == 0:
        m = {1: 1, q - 1: q // 2, q: 1, q + 1: (q - 2) // 2}
    elif q % 4 == 1:
        m = {1: 1, (q + 1) // 2: 2, q - 1: (q - 1) // 4, q: 1, q + 1: (q - 5) // 4}
    else:
        m = {1: 1, (q - 1) // 2: 2, q - 1: (q - 3) // 4, q: 1, q + 1: (q - 3) // 4}
    return {d: k for d, k in m.items() if k}


@pytest.mark.parametrize("q,order", [(4, 60), (5, 60), (7, 168), (9, 360)])
def test_psl2_order_small(q, order):
    assert sum(k * d * d for d, k in psl2_multiplicities(q).items()) == order


def test_cd_psl2_degrees_square_sum_to_the_group_order():
    qs = prime_powers(4, 4999)
    assert len(qs) == 709
    for q in qs:
        m = psl2_multiplicities(q)
        assert set(m) == set(cd_psl2(q)), q
        assert sum(k * d * d for d, k in m.items()) == q * (q * q - 1) // gcd(2, q - 1), q


@pytest.mark.parametrize("q", [1, 2, 3, 6, 12, 100])
def test_cd_psl2_rejects_non_prime_powers_below_four(q):
    with pytest.raises(ValueError):
        cd_psl2(q)


def test_prime_power_matches_trial_division():
    mismatches = [n for n in range(5001) if prime_power(n) != trial_prime_power(n)]
    assert mismatches == []
    assert [prime_power(n) for n in (0, 1, 6, 5000)] == [None] * 4
