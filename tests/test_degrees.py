import random
from math import gcd, prod

import pytest

from chargraph.degrees import cd_psl2, graph_psl2
from chargraph.graphs import DegreeSet, graph_from_cd
from oracles import trial_is_prime

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


def test_psl2_graph_matches_degree_set_graph():
    qs = prime_powers(4, Q_MAX)
    assert len(qs) == 2326
    mismatches = [q for q in qs if graph_from_cd(cd_psl2(q)) != graph_psl2(q)]
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


def random_degree_set(rng: random.Random) -> DegreeSet:
    primes = (2, 3, 5, 7, 11, 13)
    degrees = [1]
    for _ in range(rng.randint(0, 4)):
        chosen = rng.sample(primes, rng.randint(1, 3))
        degrees.append(prod(p ** rng.randint(1, 2) for p in chosen))
    return DegreeSet(degrees)


@pytest.mark.parametrize("seed", range(8))
def test_product_graph_matches_product_degrees(seed):
    # The graph of A x B is the graph of {ab : a in cd(A), b in cd(B)};
    # the factors share primes here, so this is more than a graph join.
    rng = random.Random(seed)
    for _ in range(25):
        factors = [random_degree_set(rng) for _ in range(rng.randint(1, 3))]
        products = {1}
        for cd in factors:
            products = {x * y for x in products for y in cd}
        assert graph_from_cd(*factors) == graph_from_cd(DegreeSet(products))


def test_product_of_nothing_is_the_empty_graph():
    assert graph_from_cd().vertices == ()
