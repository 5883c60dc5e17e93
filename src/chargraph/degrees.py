"""PSL2(q): its character degrees and its character graph.

Two independent constructions of the PSL2(q) graph live here: one from the
degree-set definition (graphs.graph_from_cd of cd_psl2) and one straight
from the known component structure (graph_psl2).  Tests cross-check them
for every prime power 4 <= q <= 20,000.
"""

from __future__ import annotations

from itertools import combinations

from .arith import factorize, prime_divisors
from .graphs import CharGraph, DegreeSet


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, f) with n = p^f, or None if n is not a prime power."""
    if n < 2:
        return None
    factors = factorize(n).factors
    if len(factors) != 1:
        return None
    return factors[0]


def _require_psl2_q(q: int) -> tuple[int, int]:
    pf = prime_power(q)
    if pf is None or q < 4:
        raise ValueError(f"q = {q} is not a prime power >= 4")
    return pf


def cd_psl2(q: int) -> DegreeSet:
    """Character degrees of PSL2(q), q = p^f >= 4.

    Even q: {1, q-1, q, q+1}.  Odd q > 5 additionally has (q+eps)/2 where
    q = eps (mod 4).  q = 5 is the classical exception {1, 3, 4, 5}.
    """
    _require_psl2_q(q)
    if q == 5:
        return DegreeSet([1, 3, 4, 5])
    if q % 2 == 0:
        return DegreeSet([1, q - 1, q, q + 1])
    eps = 1 if q % 4 == 1 else -1
    return DegreeSet([1, (q + eps) // 2, q - 1, q, q + 1])


def graph_psl2(q: int) -> CharGraph:
    """The character graph of PSL2(q) built from its component structure.

    Even q: complete components {2}, pi(q-1), pi(q+1).  Odd q > 5: {p}
    isolated; if q-1 or q+1 is a power of 2 the rest is one complete graph,
    otherwise 2 is adjacent to everything else and the odd parts of
    pi(q-1), pi(q+1) form two complete graphs with no edge between them.
    PSL2(5) and PSL2(4) share one graph.
    """
    p, _f = _require_psl2_q(q)
    if q == 5:
        return graph_psl2(4)
    below, above = prime_divisors(q - 1), prime_divisors(q + 1)
    if q % 2 == 0:
        verts = {2} | below | above
        edges = list(combinations(sorted(below), 2)) + list(combinations(sorted(above), 2))
        return CharGraph(verts, edges)
    rest = below | above
    verts = {p} | rest
    if ((q - 1) & (q - 2)) == 0 or ((q + 1) & q) == 0:
        # q -+ 1 a power of two: one complete component on pi(q^2 - 1).
        return CharGraph(verts, combinations(sorted(rest), 2))
    m_part = sorted(below - {2})
    p_part = sorted(above - {2})
    edges = [(2, x) for x in m_part + p_part]
    edges += list(combinations(m_part, 2))
    edges += list(combinations(p_part, 2))
    return CharGraph(verts, edges)
