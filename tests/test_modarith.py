import pytest
from hypothesis import given, strategies as st

from quadorder.modarith import (
    Factorization,
    factorize,
    is_prime,
    legendre,
    require_odd_prime,
    sqrt_mod,
    trial_bound,
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


def test_factorize_prime_cofactor_within_bound_square():
    # 9973 exceeds the bound but not its square, so it must be prime
    fac = factorize(2 * 9973, bound=100)
    assert fac.factors == ((2, 1), (9973, 1))


def test_factorize_composite_cofactor_rejected(monkeypatch):
    monkeypatch.setenv("QUADORDER_TRIAL_BOUND", "100")
    with pytest.raises(ValueError, match="composite cofactor"):
        factorize(101 * 103)
    with pytest.raises(ValueError):
        factorize(101 * 101)


def test_trial_bound_env(monkeypatch):
    monkeypatch.delenv("QUADORDER_TRIAL_BOUND", raising=False)
    default = trial_bound()
    assert default >= 2
    monkeypatch.setenv("QUADORDER_TRIAL_BOUND", "54321")
    assert trial_bound() == 54321
    monkeypatch.setenv("QUADORDER_TRIAL_BOUND", "abc")
    with pytest.raises(ValueError):
        trial_bound()
    monkeypatch.setenv("QUADORDER_TRIAL_BOUND", "1")
    with pytest.raises(ValueError):
        trial_bound()


def test_factorization_is_squarefree():
    assert factorize(30).is_squarefree()
    assert not factorize(12).is_squarefree()
    assert factorize(1).is_squarefree()


def test_factorization_validates_product():
    with pytest.raises(ValueError):
        Factorization(base=10, factors=((2, 1), (3, 1)))
