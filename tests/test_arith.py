import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargraph.arith import (
    U64_MAX,
    Factorization,
    factorize,
    is_prime,
    prime_divisors,
    zsigmondy,
)
from oracles import brute_zsigmondy, trial_factorize, trial_is_prime, trial_prime_divisors


class TestFactorize:
    def test_examples(self):
        assert factorize(63).as_dict() == {3: 2, 7: 1}
        assert factorize(1).factors == ()
        assert factorize(16383).as_dict() == {3: 1, 43: 1, 127: 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-12)

    def test_width_boundary(self):
        assert factorize(U64_MAX).as_dict() == {
            3: 1, 5: 1, 17: 1, 257: 1, 641: 1, 65537: 1, 6700417: 1,
        }
        with pytest.raises(OverflowError):
            factorize(U64_MAX + 1)

    def test_pollard_rho_path(self):
        # Both cofactors sit above the trial-division bound.
        fac = factorize(2**58 + 1)
        assert fac.as_dict() == {5: 1, 107367629: 1, 536903681: 1}
        for p in fac.primes:
            assert trial_is_prime(p)

    def test_rho_determinism_across_calls_and_processes(self):
        n = 2**58 + 1
        first = factorize(n).factors
        assert factorize(n).factors == first
        code = f"from chargraph.arith import factorize; print(factorize({n}).factors)"
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == repr(first)

    @pytest.mark.parametrize("n", [
        1021 * 1031,  # primes either side of TRIAL_BOUND = 1024
        1031**2,  # a square left over at the bound
        1031 * 1033,  # both primes above the bound
        1031**3,
    ])
    def test_trial_bound_edges_match_trial_division(self, n):
        assert factorize(n).factors == tuple(trial_factorize(n))

    @pytest.mark.parametrize("n,factors", [
        (2 * (2**61 - 1), ((2, 1), (2**61 - 1, 1))),
        ((2**31 - 1) ** 2, ((2**31 - 1, 2),)),
        (3**40, ((3, 40),)),
    ])
    def test_large_known_factorizations(self, n, factors):
        assert factorize(n).factors == factors

    def test_exhaustive_small_range(self):
        for n in range(1, 100_000):
            fac = factorize(n)
            prod = 1
            for p, e in fac.factors:
                prod *= p**e
            assert prod == n

    def test_matches_trial_division_spot(self):
        for n in (2, 36, 1024, 9973, 2**32 - 1, 999_983, 10**6):
            assert factorize(n).factors == tuple(trial_factorize(n))

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=10**6))
    def test_matches_trial_division_sampled(self, n):
        assert factorize(n).factors == tuple(trial_factorize(n))


class TestFactorizationType:
    def test_rejects_bad_product(self):
        with pytest.raises(ValueError):
            Factorization(10, ((2, 1), (3, 1)))

    def test_rejects_unsorted_primes(self):
        with pytest.raises(ValueError):
            Factorization(15, ((5, 1), (3, 1)))

    def test_rejects_composite_entry(self):
        with pytest.raises(ValueError):
            Factorization(4, ((4, 1),))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            Factorization(3, ((3, 0),))


class TestPrimeDivisors:
    def test_examples(self):
        assert prime_divisors(2**4 - 1) == {3, 5}
        assert prime_divisors(2**4 + 1) == {17}
        assert prime_divisors(1) == set()

    def test_matches_trial_division(self):
        for n in range(1, 5000):
            assert prime_divisors(n) == trial_prime_divisors(n)


class TestIsPrime:
    def test_examples(self):
        assert is_prime(2**13 - 1)
        assert not is_prime(1)
        assert not is_prime(2**11 - 1)  # 23 * 89

    def test_small_values(self):
        assert not is_prime(0)
        assert is_prime(2)
        assert is_prime(3)
        assert not is_prime(4)

    def test_matches_trial_division(self):
        for n in range(0, 20_000):
            assert is_prime(n) == trial_is_prime(n)

    def test_large_known_values(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)
        assert is_prime(U64_MAX - 58)  # largest prime below 2^64

    def test_width(self):
        with pytest.raises(OverflowError):
            is_prime(2**64)


class TestZsigmondy:
    def test_examples(self):
        assert zsigmondy(2, 6) is None
        assert zsigmondy(2, 4) == 5
        assert zsigmondy(2, 12) == 13

    def test_exception_cases(self):
        assert zsigmondy(2, 1) is None  # base - 1 = 1
        assert zsigmondy(3, 2) is None  # base + 1 = 4, a power of two
        assert zsigmondy(7, 2) is None  # base + 1 = 8
        assert zsigmondy(5, 2) == 3  # base + 1 = 6 is not a power of two

    def test_base2_none_exactly_at_1_and_6(self):
        assert [n for n in range(1, 41) if zsigmondy(2, n) is None] == [1, 6]

    @pytest.mark.parametrize("base,n_max", [(2, 40), (3, 40), (10, 12)])
    def test_matches_brute_force(self, base, n_max):
        for n in range(1, n_max + 1):
            assert zsigmondy(base, n) == brute_zsigmondy(base, n)

    def test_primitive_property(self):
        for n in range(2, 41):
            p = zsigmondy(2, n)
            if p is None:
                continue
            assert (2**n - 1) % p == 0
            assert all((2**k - 1) % p != 0 for k in range(1, n))

    def test_out_of_range(self):
        with pytest.raises(OverflowError):
            zsigmondy(2, 65)
        with pytest.raises(OverflowError):
            zsigmondy(10, 20)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zsigmondy(1, 3)
        with pytest.raises(ValueError):
            zsigmondy(2, 0)
