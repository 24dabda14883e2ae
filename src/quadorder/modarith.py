"""Modular arithmetic and factorization plumbing, sized for desk-scale inputs.

Factoring is one fixed policy: trial division up to TRIAL_BOUND, then a
primality test on what survives.
"""

from __future__ import annotations

from dataclasses import dataclass

TRIAL_BOUND = 10**6

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
    calls are reproducible.  Uses the direct exponent for p = 3 (mod 4)
    and Tonelli-Shanks otherwise, with a deterministic non-residue search.
    """
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) == -1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
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
        prod = 1
        for p, k in self.factors:
            prod *= p**k
        if prod != self.base:
            raise ValueError("factor product does not reproduce the base")

    def is_squarefree(self) -> bool:
        return all(k == 1 for _, k in self.factors)


def factorize(n: int) -> Factorization:
    """Factor |n| by trial division up to TRIAL_BOUND.

    A cofactor surviving trial division is accepted only if it is at most
    TRIAL_BOUND^2 or passes the primality test; otherwise the input exceeds
    desk scale and we refuse rather than guess.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    rem = abs(n)
    factors: list[tuple[int, int]] = []
    q = 2
    while q <= TRIAL_BOUND and q * q <= rem:
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
