"""Arithmetic layer: valuations, binomials mod p, regularity oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from whcalc.arith import (
    REGULARITY_BOUND,
    OddPrime,
    _irregular_indices,
    binom_mod_p,
    ensure_regular,
    is_regular,
    vp,
    vp_factorial,
)
from whcalc.errors import PreconditionError, UnverifiedError

P3 = OddPrime(3)
P5 = OddPrime(5)


def test_odd_prime_validation():
    assert OddPrime(3).p == 3
    assert OddPrime(3).q == 4
    assert OddPrime(5).q == 8
    assert OddPrime(7).q == 12
    for bad in (2, 1, 0, -3, 9, 15, 21):
        with pytest.raises(PreconditionError):
            OddPrime(bad)


def test_vp_examples():
    assert vp(P3, 18) == 2
    assert vp(P5, 1) == 0
    assert vp(P3, 54) == 3


def test_vp_matches_direct_factorization():
    for n in range(1, 400):
        e = 0
        m = n
        while m % 3 == 0:
            e += 1
            m //= 3
        assert vp(P3, n) == e


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_vp_additive(a, b):
    assert vp(P5, a * b) == vp(P5, a) + vp(P5, b)


def test_vp_factorial_examples():
    assert vp_factorial(P3, 0) == 0
    assert vp_factorial(P3, 6) == 2
    assert vp_factorial(P5, 28) == 6


def test_vp_factorial_matches_factorial():
    for n in range(1, 60):
        assert vp_factorial(P3, n) == vp(P3, math.factorial(n))
        assert vp_factorial(P5, n) == vp(P5, math.factorial(n))


def test_binom_examples():
    assert binom_mod_p(P3, 7, 2) == 0
    assert binom_mod_p(P5, 4, 0) == 1
    assert binom_mod_p(P3, -1, 2) == 1


def test_binom_matches_comb():
    for k in range(0, 40):
        for i in range(0, 40):
            assert binom_mod_p(P3, k, i) == math.comb(k, i) % 3


def test_binom_negative_upper_reflection():
    # C(-k, i) = (-1)^i C(k+i-1, i)
    for k in range(1, 12):
        for i in range(0, 12):
            want = (-1) ** i * math.comb(k + i - 1, i) % 3
            assert binom_mod_p(P3, -k, i) == want


@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60))
def test_binom_vandermonde(m, n, k):
    total = sum(
        binom_mod_p(P5, m, j) * binom_mod_p(P5, n, k - j) for j in range(k + 1)
    )
    assert binom_mod_p(P5, m + n, k) == total % 5


def _bernoulli_upto(m: int) -> list[Fraction]:
    """Exact B_0..B_m via sum_{j<=n} C(n+1, j) B_j = 0."""
    bern = [Fraction(1)]
    for n in range(1, m + 1):
        acc = sum(math.comb(n + 1, j) * bern[j] for j in range(n))
        bern.append(Fraction(-acc, n + 1))
    return bern


IRREGULAR = {37, 59, 67, 101, 103, 131, 149, 157}


def test_regularity_against_exact_bernoulli_oracle():
    primes = [n for n in range(3, 110, 2) if all(n % d for d in range(3, n, 2))]
    bern = _bernoulli_upto(max(primes) - 3)
    for p in primes:
        divides_some = any(
            bern[k].numerator % p == 0 for k in range(2, p - 2, 2)
        )
        assert is_regular(OddPrime(p)) == (not divides_some)
        assert is_regular(OddPrime(p)) == (p not in IRREGULAR)


def test_regularity_examples():
    assert is_regular(P3) is True
    assert is_regular(P5) is True
    assert is_regular(OddPrime(37)) is False
    for p in (59, 67, 101):
        assert is_regular(OddPrime(p)) is False
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert is_regular(OddPrime(p)) is True


# The primes below 1000 with more than one irregular pair (p, k), p | B_k,
# each with its indices k, from the published tables (Buhler, Crandall,
# Ernvall and Metsankyla, "Irregular primes and cyclotomic invariants to
# four million", Math. Comp. 61, 1993): index 2 for eleven of them and
# index 3 for 491, 617 and 647.
MULTIPLY_IRREGULAR = {
    157: (62, 110), 353: (186, 300), 379: (100, 174), 467: (94, 194),
    491: (292, 336, 338), 547: (270, 486), 587: (90, 92),
    617: (20, 174, 338), 631: (80, 226), 647: (236, 242, 554),
    673: (408, 502), 691: (12, 200), 809: (330, 628), 929: (520, 820),
}


def test_irregular_indices_near_the_bound():
    # The oracle at the primes up to REGULARITY_BOUND that carry most
    # indices, where an error in its recurrence has the most room to show.
    assert max(MULTIPLY_IRREGULAR) < REGULARITY_BOUND
    for p, indices in MULTIPLY_IRREGULAR.items():
        assert _irregular_indices(p) == indices
        assert is_regular(OddPrime(p)) is False


def test_regularity_beyond_bound_is_refused():
    big = OddPrime(1009)
    assert big.p > REGULARITY_BOUND
    with pytest.raises(UnverifiedError):
        is_regular(big)
    with pytest.raises(PreconditionError):  # UnverifiedError specializes it
        is_regular(big)


def test_ensure_regular_assumption_strings():
    assert ensure_regular(P3) == (
        "odd regular prime",
        "Lichtenbaum-Quillen for Z[1/p]",
    )
    flagged = ensure_regular(OddPrime(1009), assume_regular=True)
    assert flagged[0] == "odd prime, regularity assumed by flag (not verified)"
    assert flagged[1] == "Lichtenbaum-Quillen for Z[1/p]"
    with pytest.raises(PreconditionError):
        ensure_regular(OddPrime(37))
    assert ensure_regular(OddPrime(37), assume_regular=True)[0].startswith(
        "odd prime, regularity assumed"
    )
