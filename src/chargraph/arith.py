"""Exact integer arithmetic on unsigned 64-bit values.

Factorization, prime-divisor sets, deterministic primality, and primitive
prime divisors of base^n - 1.  Everything here is a pure function; repeated
calls with the same input give identical results.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

U64_MAX = 2**64 - 1

# Trial division covers primes below this bound; anything left is handled by
# Pollard rho plus Miller-Rabin certification.
TRIAL_BOUND = 1 << 20

# Default seed for the rho parameter sequence.  CHARGRAPH_SEED overrides it.
DEFAULT_SEED = 0x5EED_C0DE

# Witness set proving primality for every n < 3.3e24 (covers the u64 range).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_sieve_primes: list[int] | None = None


def _check_width(n: int) -> None:
    if n > U64_MAX:
        raise OverflowError(f"{n} exceeds the supported 64-bit range")


def _small_primes() -> list[int]:
    """Primes below TRIAL_BOUND, sieved once and cached."""
    global _sieve_primes
    if _sieve_primes is None:
        sieve = bytearray([1]) * TRIAL_BOUND
        sieve[0] = sieve[1] = 0
        for i in range(2, 1024 + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, TRIAL_BOUND, i)))
        _sieve_primes = [i for i in range(TRIAL_BOUND) if sieve[i]]
    return _sieve_primes


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


def _rho_seed() -> int:
    env = os.environ.get("CHARGRAPH_SEED")
    return int(env) if env else DEFAULT_SEED


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n with no factor <= TRIAL_BOUND.

    Brent's cycle variant.  The (y, c) parameter sequence comes from a PRNG
    seeded by (seed, n), so the factor found is reproducible run to run.
    """
    rng = random.Random(_rho_seed() * (U64_MAX + 2) + n)
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


@lru_cache(maxsize=65536)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    # Large primes would otherwise force a full sweep of the trial sieve.
    if n >= 1 << 40 and is_prime(n):
        return ((n, 1),)
    exps: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            exps[p] = e
            if n > 1 and is_prime(n):
                break
    # Whatever survives trial division is 1, a prime, or a product of
    # primes above TRIAL_BOUND; split the latter with rho.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(exps.items()))


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its prime factorization.

    ``factors`` lists (prime, exponent) pairs with strictly increasing
    primes; their product reconstructs ``n``.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("factored value must be positive")
        prod, last = 1, 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**e
            last = p
        if prod != self.n:
            raise ValueError(f"factors reconstruct {prod}, expected {self.n}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 into primes.

    Trial division by the sieved primes below TRIAL_BOUND, then Pollard rho
    with Miller-Rabin certification for any remaining cofactor.
    """
    if n < 1:
        raise ValueError("cannot factor n < 1")
    _check_width(n)
    return Factorization(n, _factor_pairs(n))


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
