import time

import pytest
from hypothesis import given, strategies as st

from quadorder import modarith
from quadorder.modarith import (
    TRIAL_BOUND,
    Factorization,
    factorize,
    is_prime,
    legendre,
    require_odd_prime,
    sqrt_mod,
)


def sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return flags


def test_is_prime_matches_sieve():
    flags = sieve(2000)
    for n in range(2000):
        assert is_prime(n) == flags[n], n


def test_is_prime_negative_and_large():
    assert not is_prime(-7)
    assert not is_prime(1)
    assert is_prime(2**61 - 1)
    # 2^67 - 1 = 193707721 * 761838257287
    assert not is_prime(2**67 - 1)
    assert is_prime(10**9 + 7)


def test_require_odd_prime():
    require_odd_prime(3)
    require_odd_prime(97)
    for bad in (2, 1, 0, -3, 9, 91):
        with pytest.raises(ValueError):
            require_odd_prime(bad)


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 29, 97])
def test_legendre_against_count(p):
    for a in range(-p, 2 * p):
        assert legendre(a, p) == brute_legendre(a, p)


@given(st.integers(-500, 500), st.integers(-500, 500))
def test_legendre_multiplicative(a, b):
    p = 43
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 29, 41, 73, 97, 193, 577])
def test_sqrt_mod_exhaustive(p):
    # 97 and 193 exercise the deep 2-adic part of p - 1
    for a in range(p):
        r = sqrt_mod(a, p)
        if r is None:
            assert legendre(a, p) == -1
        else:
            assert r * r % p == a
            assert r <= p - r, "canonical root is the smaller of the pair"


def test_sqrt_mod_zero():
    assert sqrt_mod(0, 11) == 0
    assert sqrt_mod(121, 11) == 0


def test_factorize_roundtrip():
    for n in range(1, 600):
        fac = factorize(n)
        assert fac.base == n
        prod = 1
        for p, e in fac.factors:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac.factors] == sorted({p for p, _ in fac.factors})


def test_factorize_one_zero_negative():
    assert factorize(1).factors == ()
    with pytest.raises(ValueError):
        factorize(0)
    # negative inputs factor through the absolute value
    assert factorize(-12) == factorize(12)


def test_factorize_frozen_values():
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2**10).factors == ((2, 10),)


def test_factorize_prime_cofactor_beyond_bound():
    # trial division stops well short of 10^9 + 7, primality testing closes the gap
    n = 4 * (10**9 + 7)
    fac = factorize(n)
    assert fac.factors == ((2, 2), (10**9 + 7, 1))


def test_factorize_prime_cofactor_within_bound_square(monkeypatch):
    # 999999999989 exceeds the trial bound but not its square, so it must be
    # prime, and it is accepted without a primality test
    assert 999999999989 <= TRIAL_BOUND**2

    def not_called(n):
        raise AssertionError(f"is_prime({n}) was called")

    monkeypatch.setattr(modarith, "is_prime", not_called)
    fac = factorize(2 * 999999999989)
    assert fac.factors == ((2, 1), (999999999989, 1))


def test_factorize_composite_cofactor_rejected():
    # both factors lie just above the trial bound, so trial division finds neither
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"composite cofactor .* trial bound {TRIAL_BOUND}$"):
        factorize(1000003 * 1000033)
    with pytest.raises(ValueError, match="composite cofactor"):
        factorize(1000003**2)
    assert time.perf_counter() - t0 < 2.0


def test_factorize_ignores_the_environment(monkeypatch):
    # the trial bound is a fixed constant; no environment variable moves it
    monkeypatch.setenv("QUADORDER_TRIAL_BOUND", "100")
    assert factorize(101 * 103).factors == ((101, 1), (103, 1))


def test_factorization_is_squarefree():
    assert factorize(30).is_squarefree()
    assert not factorize(12).is_squarefree()
    assert factorize(1).is_squarefree()


def test_factorization_validates_product():
    with pytest.raises(ValueError):
        Factorization(base=10, factors=((2, 1), (3, 1)))
