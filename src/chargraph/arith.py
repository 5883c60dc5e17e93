"""Exact integer arithmetic on unsigned 64-bit values.

Factorization, prime-divisor sets, deterministic primality, and primitive
prime divisors of base^n - 1.  Everything here is a pure function of its
arguments, with no table, no cache and no setting: Pollard rho is seeded
from the number it splits, so repeated calls give identical results.
"""

from __future__ import annotations

import random
from math import gcd

from ._value import Value

U64_MAX = 2**64 - 1

# Trial division stops below this bound; a cofactor left with no smaller
# factor is certified by Miller-Rabin or split by Pollard rho.
TRIAL_BOUND = 1 << 10

# Witness set proving primality for every n < 3.3e24 (covers the u64 range).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _check_width(n: int) -> None:
    if n > U64_MAX:
        raise OverflowError(f"{n} exceeds the supported 64-bit range")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 2^64."""
    _check_width(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n.

    Brent's cycle variant.  The (y, c) parameter sequence comes from a PRNG
    seeded by n, so the factor found is the same in every run.
    """
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
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

    ``factors`` lists (prime, exponent) pairs with strictly increasing
    primes; their product reconstructs ``n``.
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]) -> None:
        if n < 1:
            raise ValueError("factored value must be positive")
        prod, last = 1, 1
        for p, e in factors:
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**e
            last = p
        if prod != n:
            raise ValueError(f"factors reconstruct {prod}, expected {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 into primes.

    Trial division by 2 and the odd d below TRIAL_BOUND while d^2 <= n, then
    Pollard rho, with Miller-Rabin certification, on what is left.
    """
    if n < 1:
        raise ValueError("cannot factor n < 1")
    _check_width(n)
    exps: dict[int, int] = {}
    m, d = n, 2
    while d < TRIAL_BOUND and d * d <= m:
        while m % d == 0:
            exps[d] = exps.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    # Every prime factor left is >= d, so a cofactor below d^2 is prime.
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m < d * d or is_prime(m):
            exps[m] = exps.get(m, 0) + 1
        else:
            r = _pollard_rho(m)
            stack += (r, m // r)
    return Factorization(n, tuple(sorted(exps.items())))


def prime_divisors(n: int) -> set[int]:
    """The set of primes dividing n (empty for n = 1)."""
    return set(factorize(n).primes)


def zsigmondy(base: int, n: int) -> int | None:
    """Smallest prime dividing base^n - 1 but no base^k - 1 with k < n.

    Returns None when no such prime exists (the classical exception cases:
    n = 1 with base = 2, n = 2 with base + 1 a power of two, and
    base = 2, n = 6).
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    value = base**n - 1
    _check_width(value)
    exponent_primes = factorize(n).primes
    for p in factorize(value).primes if value > 1 else ():
        # p is primitive iff the order of base mod p is exactly n, i.e. no
        # maximal proper divisor n/r of n already kills it.
        if all(pow(base, n // r, p) != 1 for r in exponent_primes):
            return p
    return None
