import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chargraph import arith
from chargraph.arith import (
    TRIAL_BOUND,
    U64_MAX,
    Factorization,
    _cyclotomic_pieces,
    _factor_into,
    factorize,
    is_prime,
    prime_divisors,
    zsigmondy,
)
from conftest import FACTOR_TABLE, run_python
from oracles import brute_zsigmondy, trial_factorize, trial_is_prime, trial_prime_divisors


class TestFactorize:
    def test_examples(self):
        assert dict(factorize(63).factors) == {3: 2, 7: 1}
        assert factorize(1).factors == ()
        assert dict(factorize(16383).factors) == {3: 1, 43: 1, 127: 1}

    def test_width_boundary(self):
        assert dict(factorize(U64_MAX).factors) == {
            3: 1, 5: 1, 17: 1, 257: 1, 641: 1, 65537: 1, 6700417: 1,
        }
        with pytest.raises(OverflowError):
            factorize(U64_MAX + 1)

    def test_rho_determinism_across_calls_and_processes(self, monkeypatch):
        n = 1031 * 1033  # both primes above TRIAL_BOUND, so rho splits n
        calls = []
        rho = arith._pollard_rho
        monkeypatch.setattr(arith, "_pollard_rho", lambda m: calls.append(m) or rho(m))
        first = factorize(n).factors
        assert factorize(n).factors == first
        assert calls == [n, n]
        code = f"from chargraph.arith import factorize; print(factorize({n}).factors)"
        out = run_python("-c", code, capture_output=True, check=True)
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


KNOWN_2K = {2**f + sign: tuple(map(tuple, factors))
            for f, minus, plus in FACTOR_TABLE for sign, factors in ((-1, minus), (1, plus))}
KNOWN_2K.update({2**0 + 1: ((2, 1),), 2**1 - 1: (), 2**1 + 1: ((3, 1),)})
KNOWN_2K[2**64 - 1] = ((3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1))

# The trial-division oracle runs only where its loop, which goes up to the
# larger of the second largest prime and the root of the largest, is short.
ORACLE_STEPS = 10**5

ODD_PRIMES_BELOW_BOUND = [p for p in range(3, TRIAL_BOUND, 2) if trial_is_prime(p)]
PRIMES_ABOVE_BOUND = [p for p in range(TRIAL_BOUND + 1, 1400, 2) if trial_is_prime(p)]


def oracle_steps(factors) -> int:
    primes = sorted(p for p, _ in factors)
    return max(primes[-2] if len(primes) > 1 else 0, math.isqrt(primes[-1]) if primes else 0)


class TestTwoPowerPlusMinusOne:
    """factorize on 2^k -+ 1, which it splits into cyclotomic pieces."""

    def test_every_value_that_fits_in_u64(self):
        assert len(KNOWN_2K) == 2 * 64 - 1  # 3 = 2^1 + 1 = 2^2 - 1
        checked = 0
        for n, factors in KNOWN_2K.items():
            fac = factorize(n)
            assert fac.factors == factors, n
            assert Factorization(fac.n, fac.factors) == fac
            if oracle_steps(factors) <= ORACLE_STEPS:
                assert fac.factors == tuple(trial_factorize(n)), n
                checked += 1
        assert checked == 109

    def test_pieces_multiply_back(self):
        for k in range(20, 65):
            for n, top in ((2**k - 1, k), (2**k + 1, 2 * k)):
                if n > U64_MAX:
                    continue
                pieces = _cyclotomic_pieces(n)
                values = [v for _, v in pieces]
                assert math.prod(values) == n and min(values) > 1, n
                # The indices are the d > 1 dividing k for 2^k - 1, and
                # those dividing 2k but not k for 2^k + 1.
                indices = {d for d in range(2, top + 1) if top % d == 0 and (top == k or k % d)}
                assert {d for d, _ in pieces} == indices, n

    def test_pieces_multiply_back_for_every_small_n(self):
        # 2 = 2^0 + 1 is no 2^k + 1 with k >= 1: it stays whole.
        assert _cyclotomic_pieces(2) == [(1, 2)]
        for n in [*range(1, 2**12 + 1), *KNOWN_2K]:
            pieces = _cyclotomic_pieces(n)
            assert math.prod(v for _, v in pieces) == n, n
            assert all(v > 1 for _, v in pieces), n

    def test_prime_shared_by_two_pieces(self):
        # Phi_2(2) = Phi_6(2) = 3, Phi_14(2) = 43, Phi_42(2) = 5419.
        assert sorted(_cyclotomic_pieces(2**21 + 1)) == [(2, 3), (6, 3), (14, 43), (42, 5419)]
        assert factorize(2**21 + 1).factors == ((3, 2), (43, 1), (5419, 1))

    @pytest.mark.parametrize("h,factors", [
        (14, ((5, 1), (107367629, 1), (536903681, 1))),
        (15, ((5, 1), (5581, 1), (8681, 1), (49477, 1), (384773, 1))),
    ])
    def test_aurifeuillean_split(self, h, factors):
        n = 2 ** (4 * h + 2) + 1
        left = 2 ** (2 * h + 1) - 2 ** (h + 1) + 1
        right = 2 ** (2 * h + 1) + 2 ** (h + 1) + 1
        assert left * right == n
        # Phi_4(2) = 5 divides one of the two factors; the other pieces are
        # that factor over 5 and the other factor, the halves of
        # Phi_(8h+4)(2), which keep its index.
        halves = [left // 5, right] if left % 5 == 0 else [left, right // 5]
        assert sorted(_cyclotomic_pieces(n)) == [(4, 5)] + [(8 * h + 4, v) for v in sorted(halves)]
        assert factorize(n).factors == factors

    def test_prime_piece(self):
        assert _cyclotomic_pieces(2**61 - 1) == [(61, 2**61 - 1)]
        assert factorize(2**61 - 1).factors == ((2**61 - 1, 1),)

    def test_top_of_the_range(self):
        assert _cyclotomic_pieces(2**64 - 1) == [(2, 3), (4, 5), (8, 17), (16, 257), (32, 65537), (64, 2**32 + 1)]
        assert factorize(2**64 - 1).factors == KNOWN_2K[2**64 - 1]

    def test_at_the_gate(self):
        # 2^20 -+ 1 are split like every other 2^k -+ 1.
        assert factorize(2**20 - 1).factors == ((3, 1), (5, 2), (11, 1), (31, 1), (41, 1))
        assert sorted(_cyclotomic_pieces(2**20 + 1)) == [(8, 17), (40, 61681)]
        assert factorize(2**20 + 1).factors == ((17, 1), (61681, 1))
        for n in (2**20 - 1, 2**20 + 1):
            assert factorize(n).factors == tuple(trial_factorize(n))

    def test_other_n_stay_whole(self):
        for n in (2**40, 2**40 + 3, 3 * 2**40 - 1, 2**63 + 2):
            assert _cyclotomic_pieces(n) == [(1, n)]


# Every 2^k -+ 1 <= U64_MAX that _cyclotomic_pieces splits: all but
# 2 = 2^0 + 1, which it returns whole as (1, 2).
SPLIT_2K = [n for n in KNOWN_2K if n > 2]

# Every index d that _cyclotomic_pieces emits for some 2^k -+ 1 <= U64_MAX.
EMITTED_INDICES = sorted({d for n in SPLIT_2K for d, _ in _cyclotomic_pieces(n)})


class TestResidueRule:
    """Bang's rule: a prime dividing Phi_d(2) is 1 mod d, or it is the
    largest prime of d and divides Phi_d(2) once.  _factor_into trial-divides
    a piece of index d only by candidates 1 mod d (mod 2d for odd d) after
    taking out gcd(piece, d), so it rests on this rule."""

    def test_every_emitted_index_obeys_the_rule(self):
        sympy = pytest.importorskip("sympy")
        assert EMITTED_INDICES[0] == 2 and EMITTED_INDICES[-1] == 126
        for d in EMITTED_INDICES:
            phi = int(sympy.cyclotomic_poly(d, 2))
            largest = max(sympy.primefactors(d))
            for p, e in sympy.factorint(phi).items():
                assert p % d == 1 or (p == largest and e == 1), (d, p, e)

    def test_each_piece_divides_the_value_of_its_index(self):
        sympy = pytest.importorskip("sympy")
        phi = {d: int(sympy.cyclotomic_poly(d, 2)) for d in EMITTED_INDICES}
        for n in SPLIT_2K:
            for d, v in _cyclotomic_pieces(n):
                assert phi[d] % v == 0, (n, d, v)

    @pytest.mark.parametrize("n,factors,intrinsic", [
        # Phi_21(2) = 7 * 337; 7 also divides Phi_3(2) = 7.
        (2**21 - 1, ((7, 2), (127, 1), (337, 1)), {21: 7}),
        # Phi_6(2) = 3, Phi_18(2) = 3 * 19, Phi_54(2) = 3 * 87211; the fourth
        # 3 is Phi_2(2), where 3 is 1 mod 2.
        (2**27 + 1, ((3, 4), (19, 1), (87211, 1)), {6: 3, 18: 3, 54: 3}),
        # Phi_20(2) = 205 = 5 * 41.
        (2**40 - 1, ((3, 1), (5, 2), (11, 1), (17, 1), (31, 1), (41, 1), (61681, 1)), {20: 5}),
    ])
    def test_intrinsic_primes(self, n, factors, intrinsic):
        assert factorize(n).factors == factors
        assert factorize(n).factors == tuple(trial_factorize(n))
        pieces = dict(_cyclotomic_pieces(n))
        for d, p in intrinsic.items():
            assert pieces[d] % p == 0 and p % d != 1
            exps: dict[int, int] = {}
            _factor_into(pieces[d], exps, d)
            assert exps == dict(trial_factorize(pieces[d])), d
            assert exps[p] == 1


class TestIndexOneNearTheBound:
    """Any n >= 2^20 other than 2^k -+ 1 is one piece of index 1.  With no odd
    prime below TRIAL_BOUND, its first pass ends at c = TRIAL_BOUND + 1, so a
    cofactor below (TRIAL_BOUND + 1)^2 is prime and one above goes on."""

    def test_window_around_the_gate(self):
        for n in range(2**20 - 64, (TRIAL_BOUND + 1) ** 2 + 64):
            assert factorize(n).factors == tuple(trial_factorize(n)), n

    @pytest.mark.parametrize("n", [
        1031 * 1033 * 1039 * 1049 * 1051 * 1061,  # six primes just above the bound
        3 * 1031 * 1033,
        1021**2 * 1031**2,
        (2**31 - 1) * 1031,
        1050611,  # the largest prime below 1025^2, taken as prime by the c^2 rule
        1031 * 1033,  # composite above 1025^2: reaches Pollard rho
    ])
    def test_named_values(self, n):
        fac = factorize(n)
        assert fac.factors == tuple(trial_factorize(n))
        assert Factorization(fac.n, fac.factors) == fac

    @settings(max_examples=300, deadline=None)
    @given(
        small=st.lists(st.sampled_from(ODD_PRIMES_BELOW_BOUND), max_size=3),
        near=st.lists(st.sampled_from(PRIMES_ABOVE_BOUND), max_size=5),
        rest=st.integers(min_value=0, max_value=2**25),
    )
    def test_odd_values_match_trial_division(self, small, near, rest):
        n = math.prod(small) * math.prod(near) * (2 * rest + 1)
        assume(TRIAL_BOUND**2 <= n <= U64_MAX)
        fac = factorize(n)
        assert fac.factors == tuple(trial_factorize(n))
        assert Factorization(fac.n, fac.factors) == fac


class TestTrialDivisionBeforeRho:
    """A composite cofactor of a piece Phi_d(2) is trial-divided on, by the
    candidates 1 mod step below step * TRIAL_BOUND / 2, before Pollard rho;
    any other n goes to rho as soon as trial division below TRIAL_BOUND and
    Miller-Rabin are done."""

    @staticmethod
    def rho_inputs(monkeypatch, run):
        seen = []
        rho = arith._pollard_rho
        monkeypatch.setattr(arith, "_pollard_rho", lambda n: seen.append(n) or rho(n))
        run()
        return seen

    def test_rho_inputs_over_two_power_plus_minus_one(self, monkeypatch):
        def run():
            for f in range(2, 64):
                factorize(2**f - 1)
                factorize(2**f + 1)
        # Trial division below TRIAL_BOUND alone leaves 22 cofactors to rho.
        assert self.rho_inputs(monkeypatch, run) == [
            858001 * 308761441,  # a piece of 2^52 + 1
            69431 * 20394401,  # 2^53 - 1
            2**59 - 1,
            92737 * 649657,  # a piece of 2^63 - 1
        ]

    def test_other_n_go_to_rho_at_the_bound(self, monkeypatch):
        p, q = PRIMES_ABOVE_BOUND[:2]
        exps: dict[int, int] = {}
        assert self.rho_inputs(monkeypatch, lambda: _factor_into(p * q, exps, 1)) == [p * q]
        assert exps == {p: 1, q: 1}

    @pytest.mark.parametrize("index", [52, 59, 63, 104, 126])
    def test_primes_past_the_bound_found_by_trial_division(self, monkeypatch, index):
        # Two primes 1 mod step above TRIAL_BOUND, inside the extension.
        step = index if index % 2 == 0 else 2 * index
        p, q = [c for c in range(1 + step, 8 * TRIAL_BOUND, step) if c > TRIAL_BOUND and trial_is_prime(c)][:2]
        exps: dict[int, int] = {}
        assert self.rho_inputs(monkeypatch, lambda: _factor_into(p * p * q, exps, index)) == []
        assert exps == {p: 2, q: 1}


# Every 2^k -+ 1 <= U64_MAX, a seeded sample of u64, and the square of a prime
# that rho hands back twice, 2^31 - 1 above the c^2 bound.
PROVED_ONCE_INPUTS = [*KNOWN_2K, (2**31 - 1) ** 2, *(random.Random(1180).randrange(1, 2**64) for _ in range(300))]


class TestEachPrimeProvedOnce:
    """_factor_into proves each odd prime with is_prime at one gate, the
    primes of trial division and Bang's gcd too, and factorize builds its
    result with Factorization._trusted, which checks nothing.  The public
    constructor certifies every result here instead, as tests/test_graphs.py
    does for the graph builders."""

    def test_is_prime_never_sees_an_argument_twice(self, monkeypatch):
        seen = []
        monkeypatch.setattr(arith, "is_prime", lambda n: seen.append(n) or is_prime(n))
        for n in PROVED_ONCE_INPUTS:
            seen.clear()
            fac = factorize(n)
            assert len(seen) == len(set(seen)), (n, seen)
            # No odd prime joins the result unproved, whichever rule found it.
            assert set(fac.primes) - {2} <= set(seen), (n, seen)

    def test_the_public_constructor_certifies_every_result(self):
        # A composite or a wrong product in a factorize result would raise here.
        for n in PROVED_ONCE_INPUTS:
            fac = factorize(n)
            assert Factorization(fac.n, fac.factors) == fac, n


class TestFactorizationType:
    @pytest.mark.parametrize("factors", [[(2, 2), (3, 1)], [[2, 2], [3, 1]]])
    def test_stores_factors_as_tuples(self, factors):
        fac = Factorization(12, factors)
        assert fac == factorize(12)
        assert hash(fac) == hash(factorize(12))
        assert fac.factors == ((2, 2), (3, 1)) and type(fac.factors) is tuple
        assert all(type(pair) is tuple for pair in fac.factors)
        factors.append((5, 1))  # the caller's list is not the stored value
        assert fac == factorize(12)

    def test_rejects_bad_product(self):
        with pytest.raises(ValueError, match="^factors reconstruct 6, expected 10$"):
            Factorization(10, ((2, 1), (3, 1)))

    def test_rejects_unsorted_primes(self):
        with pytest.raises(ValueError, match="^factor primes must be strictly increasing$"):
            Factorization(15, ((5, 1), (3, 1)))

    def test_rejects_composite_entry(self):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            Factorization(4, ((4, 1),))


class TestIntArguments:
    """Every public entry of arith takes ints only: a bool or a float is a
    ValueError naming the argument, not an answer or a TypeError from deep
    inside.  tests/test_values.py holds the rule's table for every layer."""

    @pytest.mark.parametrize("call,args,name,bad", [
        (zsigmondy, (2.0, 3), "base", 2.0),
        (zsigmondy, (2, 3.0), "n", 3.0),
        (Factorization, (12.0, ((2, 2), (3, 1))), "n", 12.0),
        (Factorization, (12, ((2, 2.0), (3, 1))), "exponent", 2.0),
        (Factorization, (2, ((2.0, 1),)), "prime", 2.0),
    ], ids=["zsigmondy-base", "zsigmondy-n", "factorization-n",
            "factorization-exponent", "factorization-prime"])
    def test_non_int_is_a_value_error(self, call, args, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {bad!r}$"):
            call(*args)


class TestPrimeDivisors:
    def test_examples(self):
        assert prime_divisors(2**4 - 1) == {3, 5}
        assert prime_divisors(2**4 + 1) == {17}
        assert prime_divisors(1) == set()

    def test_matches_trial_division(self):
        for n in range(1, 5000):
            assert prime_divisors(n) == trial_prime_divisors(n)


# Sinclair's witness set, which is_prime tests.
BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


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
        for n in range(0, 2**18):
            assert is_prime(n) == trial_is_prime(n)

    def test_divisors_of_the_bases(self):
        # A base that is 0 mod n is skipped: n = 73, 193, 14089, 407521 and
        # 299210837, among others, divide one of the seven.
        divisors = set()
        for base in BASES:
            ds = [1]
            for p, e in trial_factorize(base):
                ds = [d * p**i for d in ds for i in range(e + 1)]
            divisors.update(d for d in ds if d > 1)
        assert {73, 193, 14089, 407521, 299210837} <= divisors
        for n in sorted(divisors):
            assert is_prime(n) == trial_is_prime(n), n

    @pytest.mark.parametrize("primes", [
        # OEIS A014233: the least strong pseudoprime to the first k prime
        # bases, for k = 1..12 (k = 7, 8 share one value, k = 9..12 the last).
        (23, 89), (829, 1657), (2251, 11251), (151, 751, 28351),
        (6763, 10627, 29947), (1303, 16927, 157543), (10670053, 32010157),
        (149491, 747451, 34233211),
    ])
    def test_strong_pseudoprimes_to_prime_bases(self, primes):
        assert all(trial_is_prime(p) for p in primes)
        assert not is_prime(math.prod(primes))

    @pytest.mark.parametrize("n", [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
        9746347772161,  # 7 * 11 * 13 * 17 * 19 * 31 * 37 * 41 * 641
    ])
    def test_carmichael_numbers(self, n):
        factors = trial_factorize(n)
        # Korselt: square-free, with p - 1 dividing n - 1 for every prime p.
        assert len(factors) >= 3 and all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in factors)
        assert not is_prime(n)

    def test_matches_sympy_on_sampled_u64(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1909)
        sample = [rng.randrange(2**64) for _ in range(2000)]
        sample += [rng.randrange(2**63, 2**64) | 1 for _ in range(2000)]
        # Products of two 32-bit primes, which no small-prime division finds.
        for _ in range(200):
            p, q = (sympy.nextprime(rng.randrange(2**31, 2**32 - 2**16)) for _ in range(2))
            sample.append(p * q)
        for n in sample:
            assert is_prime(n) == sympy.isprime(n), n

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
        with pytest.raises(OverflowError):
            zsigmondy(2**64 + 1, 1)

    def test_top_of_the_range(self):
        # base^n - 1 = 2^64 - 1 fits, although (bits(base) - 1) * n = 64.
        assert zsigmondy(2, 64) == 641
        assert zsigmondy(2**32, 2) == 641
        assert zsigmondy(2**64, 1) == 3
