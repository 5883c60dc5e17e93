"""PSL2(q): its character degrees, and its character graph as the graph of
that degree set.  tests/oracles.py builds the graph independently from its
known component structure, and the tests compare the two for every prime
power 4 <= q <= 20,000.
"""

from __future__ import annotations

from ._value import check_int
from .arith import factorize
from .graphs import CharGraph, DegreeSet, graph_from_cd


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, f) with n = p^f, or None if n is not a prime power."""
    if check_int(n, "n") < 2:
        return None
    factors = factorize(n).factors
    if len(factors) != 1:
        return None
    return factors[0]


def cd_psl2(q: int) -> DegreeSet:
    """Character degrees of PSL2(q), q = p^f >= 4.

    Even q: {1, q-1, q, q+1}.  Odd q > 5 additionally has (q+eps)/2 where
    q = eps (mod 4).  q = 5 is the classical exception {1, 3, 4, 5}.
    """
    if prime_power(check_int(q, "q", 4)) is None:
        raise ValueError(f"q = {q} is not a prime power")
    if q == 5:
        return DegreeSet([1, 3, 4, 5])
    if q % 2 == 0:
        return DegreeSet([1, q - 1, q, q + 1])
    eps = 1 if q % 4 == 1 else -1
    return DegreeSet([1, (q + eps) // 2, q - 1, q, q + 1])


def graph_psl2(q: int) -> CharGraph:
    """The character graph of PSL2(q), the graph of its degree set."""
    return graph_from_cd(cd_psl2(q))
