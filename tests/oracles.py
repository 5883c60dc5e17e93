"""Independent brute-force implementations used as test oracles.

Everything here is deliberately naive (pure trial division, exhaustive
permutation search) and shares no code with the package under test.
"""

from itertools import combinations, permutations
from math import isqrt


def trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def trial_prime_divisors(n: int) -> set[int]:
    return {p for p, _ in trial_factorize(n)}


def trial_prime_power(n: int) -> tuple[int, int] | None:
    """(p, f) with n = p^f, or None if n < 2 or n has two distinct primes."""
    factors = trial_factorize(n)
    return factors[0] if len(factors) == 1 else None


def cliques(*parts) -> set[tuple[int, int]]:
    """The sorted pairs within each part."""
    return {pair for part in parts for pair in combinations(sorted(part), 2)}


def component_psl2_graph(q: int) -> tuple[set[int], set[tuple[int, int]]]:
    """Vertices and edges of the character graph of PSL2(q), q = p^f >= 4,
    from its component structure (White, "Degree graphs of simple groups").

    Even q: complete components {2}, pi(q-1), pi(q+1).  Odd q > 5: {p}
    isolated, 2 adjacent to every other prime, and the odd parts of pi(q-1),
    pi(q+1) two complete graphs with no edge between them.  When q-1 or q+1
    is a power of 2 one odd part is empty, so pi(q^2 - 1) is one complete
    component.  PSL2(5) and PSL2(4) share one graph.
    """
    if q == 5:
        return component_psl2_graph(4)
    [(p, _f)] = trial_factorize(q)
    below, above = trial_prime_divisors(q - 1), trial_prime_divisors(q + 1)
    if q % 2 == 0:
        return {2} | below | above, cliques(below, above)
    odd_below, odd_above = below - {2}, above - {2}
    return {p} | below | above, cliques(odd_below, odd_above) | {(2, x) for x in odd_below | odd_above}


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def brute_zsigmondy(base: int, n: int) -> int | None:
    value = base**n - 1
    if value == 1:
        return None
    for p in sorted(trial_prime_divisors(value)):
        if all((base**k - 1) % p != 0 for k in range(1, n)):
            return p
    return None


def smallest_prime_factors(n: int) -> list[int]:
    """spf with spf[k] the least prime factor of k for 2 <= k <= n: every
    d from isqrt(n) down to 2 marks its multiples from d^2, so the mark
    left on a composite k is its least divisor d >= 2, a prime."""
    spf = list(range(n + 1))
    for d in range(isqrt(n), 1, -1):
        spf[d * d::d] = [d] * len(range(d * d, n + 1, d))
    return spf


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def zsigmondy_bounds(f: int) -> tuple[int, int]:
    """Lower bounds on |pi(2^f - 1)| and |pi(2^f + 1)| by divisor counting.

    Bang (1886) for base 2, Zsigmondy (1892) in general: 2^d - 1 has a
    primitive prime, one of order exactly d mod it, for every d except 1
    and 6.  A prime of order d divides 2^f - 1 iff d | f, and 2^f + 1 iff
    d | 2f but not d | f; distinct d give distinct primes.
    """
    minus = sum(1 for d in divisors(f) if d not in (1, 6))
    plus = sum(1 for d in divisors(2 * f) if f % d != 0 and d != 6)
    return minus, plus


def brute_triangle(vertices, edge_set) -> tuple | None:
    for t in combinations(sorted(vertices), 3):
        if all(tuple(sorted(pair)) in edge_set for pair in combinations(t, 2)):
            return t
    return None


def brute_isomorphic(a_vertices, a_edges, b_vertices, b_edges) -> bool:
    avs, bvs = sorted(a_vertices), sorted(b_vertices)
    if len(avs) != len(bvs) or len(a_edges) != len(b_edges):
        return False
    for perm in permutations(bvs):
        phi = dict(zip(avs, perm))
        if all(tuple(sorted((phi[x], phi[y]))) in b_edges for x, y in a_edges):
            return True
    return False
