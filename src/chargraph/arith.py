"""Exact integer arithmetic on unsigned 64-bit values.

Factorization, prime-divisor sets, deterministic primality, and primitive
prime divisors of base^n - 1.  Every public function here is a pure
function of its arguments, with no table and no setting: Pollard rho tries
its parameters in a fixed order, so repeated calls give identical results.
The one cache, on the pieces of 2^k -+ 1, changes no result.

Each rule is stated once, where it runs: _cyclotomic_pieces writes
2^k -+ 1 as y^m -+ 1, with y = 2^(2^a) and m the odd part of k for the
plus sign, and splits it over the divisors of m as the Cunningham tables do
(Brillhart et al., "Factorizations of b^n +- 1"); _exponents takes out
the prime of a piece that Bang's rule (1886) exempts, and _factor_into
trial-divides the rest by that rule; is_prime tests Sinclair's witness set.

Each odd prime is proved by is_prime at the one gate in _factor_into,
whichever rule found it; 2 comes from the low bits.  _exponents collects the
primes of every piece into a fresh dict.  An n that is no 2^k -+ 1 is one
piece of index 1 and leaves no state.  The part of a piece of 2^k -+ 1 that
is prime to its index is factored once per process by _piece_exponents,
which keeps its pairs: the 127 values 2^k -+ 1 <= U64_MAX have 113 such
parts, so that cache is bounded by the numbers it can see.  Its primes were
proved when the part was first factored.  So one factorize on a cold cache
proves each odd prime once, and a cached part is not proved again.
factorize builds its result with Factorization._trusted, which checks
nothing, and prime_divisors builds no Factorization at all.  The public
Factorization constructor proves every prime it gets.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache
from itertools import count
from math import gcd

from ._value import Value, check_int

U64_MAX = 2**64 - 1

# Trial division's first pass tries candidates below this bound; _factor_into
# says when a composite cofactor is trial-divided past it.
TRIAL_BOUND = 1 << 10

# is_prime divides by these first: a cheap answer for most composites.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Sinclair's witness set (see is_prime).
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _check_width(n: int, low: int | None = None) -> None:
    check_int(n, "n", low)
    if n > U64_MAX:
        raise OverflowError(f"{n} exceeds the supported 64-bit range")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 2^64.

    After division by the primes up to 37, n is tested to Sinclair's seven
    bases _MR_BASES, each reduced mod n and skipped when it is 0 mod n.
    Feitsma and Galway listed every base-2 strong pseudoprime below 2^64,
    and none of them is a strong probable prime to all seven bases, so no
    composite n < 2^64 passes.
    """
    _check_width(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes() -> Iterator[int]:
    """The primes 2, 3, 5, ... in increasing order."""
    return filter(is_prime, count(2))


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n.

    Brent's cycle variant on y -> y^2 + c, started from y = 2 with
    c = 1, 2, ... in turn until one splits n, so the factor found is the
    same in every run.
    """
    for c in count(1):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


class Factorization(Value):
    """A positive integer together with its prime factorization.

    ``factors`` is a tuple of (prime, exponent) tuples with strictly
    increasing primes; their product reconstructs ``n``.  Any iterable of
    pairs is accepted and stored as that tuple, so a Factorization built
    from lists equals and hashes like the one factorize returns.

    The constructor proves each prime with is_prime.  factorize, whose
    primes _factor_into has proved already, builds through _trusted, which
    checks nothing.
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: Iterable[tuple[int, int]]) -> None:
        check_int(n, "n", 1)
        prod, last = 1, 1
        pairs = []
        for p, e in factors:
            check_int(p, "prime")
            check_int(e, "exponent", 1)
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**e
            last = p
            pairs.append((p, e))
        if prod != n:
            raise ValueError(f"factors reconstruct {prod}, expected {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", tuple(pairs))

    @classmethod
    def _trusted(cls, n: int, factors: tuple[tuple[int, int], ...]) -> "Factorization":
        """The unchecked constructor of factorize."""
        fac = cls.__new__(cls)
        Value.__init__(fac, n, factors)
        return fac

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _cyclotomic_pieces(n: int) -> list[tuple[int, int]]:
    """Pairs (d, piece) of factors > 1 of n whose product is n, split by
    algebra when n = 2^k -+ 1; d is the index of the cyclotomic piece.

    n = y^m -+ 1 with m odd for the plus sign: y = 2 and m = k for 2^k - 1,
    and y = 2^(2^a), k = 2^a * m for 2^k + 1.  So y^m - 1 is the product of
    Phi_e(y) = Phi_e(2) over e | m, and y^m + 1 that of
    Phi_2e(y) = Phi_(2^(a+1) e)(2) over e | m; each piece is y^e -+ 1
    divided exactly by the pieces of the proper divisors of e.  Only the
    divisors of m are walked, and the pieces come in increasing d.
    2^(4h+2) + 1 is also (2^(2h+1) - 2^(h+1) + 1)(2^(2h+1) + 2^(h+1) + 1)
    (Aurifeuille), so each of its pieces is split again by its gcd with the
    first factor, and both halves keep the d of the piece they split.
    Pieces may share a prime (3 divides Phi_2(2) and Phi_6(2)).  Any other n,
    2 = 2^0 + 1 included, is returned whole, as (1, n).
    """
    # y = 2^t; the piece of e | m is Phi_(scale * e)(2).
    if n & (n + 1) == 0:  # n = 2^k - 1
        sign, t, m, scale = -1, 1, n.bit_length(), 1
    elif n >= 3 and (n - 1) & (n - 2) == 0:  # n = 2^k + 1
        k = n.bit_length() - 1
        t = k & -k  # 2^a
        sign, m, scale = 1, k // t, 2 * t
    else:
        return [(1, n)]
    phi: dict[int, int] = {}
    for e in range(1, m + 1):
        if m % e == 0:
            v = (1 << (t * e)) + sign
            for e2, pe in phi.items():
                if e % e2 == 0:
                    v //= pe
            phi[e] = v
    pieces = [(scale * e, v) for e, v in phi.items() if v > 1]
    if sign > 0 and t == 2:  # k = 2m = 4h + 2
        h = m // 2
        left = (1 << (2 * h + 1)) - (1 << (h + 1)) + 1
        split = []
        for d, v in pieces:
            g = gcd(v, left)
            split += ((d, x) for x in (g, v // g) if x > 1)
        pieces = split
    return pieces


def _factor_into(m: int, exps: dict[int, int], index: int) -> None:
    """Add the prime factorization of m >= 1 to exps, where m divides
    Phi_index(2) and is prime to index, or index = 1 for any other m.

    By Bang's rule, a prime dividing Phi_d(2) either is 1 mod d or is the
    largest prime of d and divides Phi_d(2) once; _exponents takes that
    prime out.  So every odd prime of m is 1 mod step, where step is index
    for even index and 2 * index for odd index.  Trial division tries
    only the candidates c = 1 + step, 1 + 2 * step, ... below TRIAL_BOUND
    while c^2 <= m; a composite candidate never divides m, since its primes
    were tried before it.  Every prime left is at least the first candidate
    c not tried, so a cofactor below c^2 is prime.

    Each odd prime is proved here, at one gate: every trial-division prime
    and the cofactor go on one stack, and a number joins exps only if it is
    there already (p again, from p^e, or for _exponents a prime of an
    earlier piece) or is_prime proves it.  So each odd prime is tested once
    per call, and what Bang's rule and the c^2 bound argue is checked
    again.  A composite is trial-divided further, while
    c < step * TRIAL_BOUND / 2 (and c^2 <= m, which holds until c meets its
    least prime), before it goes to Pollard rho: that is at most the
    TRIAL_BOUND / 2 candidates an odd n has below TRIAL_BOUND.  For index 1
    (step 2) that limit is TRIAL_BOUND itself.
    """
    twos = (m & -m).bit_length() - 1
    if twos:
        exps[2] = exps.get(2, 0) + twos
        m >>= twos
    stack = []
    step = index if index % 2 == 0 else 2 * index
    c = 1 + step
    while c < TRIAL_BOUND and c * c <= m:
        while m % c == 0:
            stack.append(c)
            m //= c
        c += step
    limit = step * TRIAL_BOUND // 2
    if m > 1:
        stack.append(m)
    while stack:
        m = stack.pop()
        if m not in exps and not is_prime(m):
            # m is composite, so the first candidate from c on that divides
            # it is its least prime, at most sqrt(m).  Rho first runs once c
            # has reached the limit, so while c moves the stack holds no
            # other composite that could hide a prime below c.
            while c < limit and m % c:
                c += step
            r = c if c < limit else _pollard_rho(m)
            stack += (r, m // r)
            continue
        exps[m] = exps.get(m, 0) + 1


@cache
def _piece_exponents(index: int, part: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of part, a part of Phi_index(2) prime to
    index > 1, as a tuple, so no caller can change the cached value."""
    exps: dict[int, int] = {}
    _factor_into(part, exps, index)
    return tuple(exps.items())


def _exponents(n: int) -> dict[int, int]:
    """{prime: exponent} of 1 <= n <= U64_MAX, in a fresh dict.

    An n that is no 2^k -+ 1 goes to _factor_into whole, as index 1.  A
    piece of index > 1 is split into g = gcd(piece, index), 1 or the prime
    p of index that Bang's rule exempts, and the part prime to index, whose
    pairs come from _piece_exponents.  p also divides the piece of index
    ord_p(2), a proper divisor of index, so the pieces, which come in
    increasing index, have put p into exps before g reaches the gate.
    Exponents are added across pieces: 3 divides Phi_2(2) and Phi_6(2).
    """
    _check_width(n, 1)
    exps: dict[int, int] = {}
    for index, piece in _cyclotomic_pieces(n):
        if index == 1:
            _factor_into(piece, exps, 1)
            continue
        g = gcd(piece, index)
        if g > 1:
            _factor_into(g, exps, 1)
        for p, e in _piece_exponents(index, piece // g):
            exps[p] = exps.get(p, 0) + e
    return exps


def factorize(n: int) -> Factorization:
    """Factor 1 <= n <= U64_MAX into primes.

    Raises ValueError for an n that is not an int or is < 1, and
    OverflowError above U64_MAX.  The primes come from _exponents, proved
    already, so the result is built with Factorization._trusted and is not
    checked again.  The cyclotomic pieces of 2^k -+ 1 recur across k, so
    the pairs of each are kept once factored, at most 113 parts in all; any
    other n is factored whole and leaves no state.
    """
    return Factorization._trusted(n, tuple(sorted(_exponents(n).items())))


def prime_divisors(n: int) -> set[int]:
    """The set of primes dividing n (empty for n = 1), with factorize's
    checks and proofs but no Factorization built."""
    return set(_exponents(n))


def zsigmondy(base: int, n: int) -> int | None:
    """Smallest prime dividing base^n - 1 but no base^k - 1 with k < n.

    Returns None when no such prime exists (the classical exception cases:
    n = 1 with base = 2, n = 2 with base + 1 a power of two, and
    base = 2, n = 6).
    """
    check_int(base, "base", 2)
    check_int(n, "n", 1)
    # base^n >= 2^((bits - 1) n), so a power far past 2^64 is never built.
    if (base.bit_length() - 1) * n > 64 or (value := base**n - 1) > U64_MAX:
        raise OverflowError(f"{base}^{n} - 1 exceeds the supported 64-bit range")
    exponent_primes = factorize(n).primes
    for p in factorize(value).primes if value > 1 else ():
        # p is primitive iff the order of base mod p is exactly n, i.e. no
        # maximal proper divisor n/r of n already kills it.
        if all(pow(base, n // r, p) != 1 for r in exponent_primes):
            return p
    return None
