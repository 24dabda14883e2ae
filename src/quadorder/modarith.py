"""Modular arithmetic and factorization plumbing, sized for desk-scale inputs.

is_prime is Miller-Rabin on the first k prime bases, with k the least
whose psi_k (the least strong pseudoprime to those bases) lies above n,
and all twelve bases from psi_11 up.

Factoring is one fixed policy whose answers are those of trial division
up to TRIAL_BOUND followed by a primality test on what survives.
The power of 2 is stripped by a bit trick, and one gcd with the product
of the odd primes below _WINDOW names the ones that divide what is left;
only those are divided out.  What they leave has no prime factor below
_WINDOW, so below (_WINDOW + 1)^2 it is 1 or a prime.  Above that and
below _PSI12 (where the Miller-Rabin witnesses below are a proof),
Brent's rho splits it completely under the fixed budget _RHO_STEPS; the
primes up to TRIAL_BOUND are kept and the product of those above is what
trial division would leave.  Past the budget, or at _PSI12 and above,
the range up to TRIAL_BOUND is walked _WINDOW integers at a time: one
gcd of what is left with the product of a window's odd primes skips a
window that holds none of its prime factors, and only a window that does
is walked divisor by divisor.  Both routes end in one cofactor rule.
The products are built on the first call that needs them, the first
window's with its 171 primes on the first factorization and the others
by a sieve that holds one segment's flags at a time and keeps no list of
primes up to TRIAL_BOUND; they take about 180 KB.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress, groupby
from math import gcd, isqrt, prod

TRIAL_BOUND = 10**6
_WINDOW = 1 << 10  # integers per window of the product table
_SEGMENT = 1 << 16  # integers sieved at a time to build it; a multiple of _WINDOW
_RHO_STEPS = 1 << 16  # rho iterations one factorization may spend before it walks the windows

# Miller-Rabin on these witnesses is exact only below psi_12, a composite
# is_prime accepts; adding 41 fixes it once perfbench's deep digest may move
_PSI12 = 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): below psi_k, the least strong pseudoprime to the first k prime
# bases, those k witnesses decide (Jaeschke, Math. Comp. 61, 1993; OEIS
# A014233); psi_8 = psi_7 and psi_11 = psi_10 = psi_9, so those are left out
_WITNESS_COUNTS = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # every composite below 41^2 has a prime factor <= 37
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the power of 2 in n - 1
    d = (n - 1) >> s
    k = next((k for psi, k in _WITNESS_COUNTS if n < psi), len(_WITNESSES))
    for a in _WITNESSES[:k]:
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
    s = ((p - 1) & (1 - p)).bit_length() - 1  # the power of 2 in p - 1
    q = (p - 1) >> s
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
def _first_window() -> tuple[tuple[int, ...], int]:
    """The odd primes below _WINDOW, ascending, and their product."""
    primes = tuple(filter(is_prime, range(3, _WINDOW, 2)))  # is_prime is exact below 41^2
    return primes, prod(primes)


def _first_window_primes(n: int) -> Iterator[int]:
    """The odd primes below _WINDOW that divide n, ascending, from one gcd."""
    primes, product = _first_window()
    g = gcd(n, product)  # each of them once
    for q in primes:
        if q * q > g:
            break
        if g % q == 0:
            g //= q
            yield q
    if g > 1:  # what is left of g is one prime
        yield g


@cache
def _window_products() -> tuple[int, ...]:
    """Product of the odd primes <= TRIAL_BOUND in each window [w, w+1) * _WINDOW.

    Window w's product sits at index w.  The range is sieved _SEGMENT
    integers at a time by the odd primes up to isqrt(TRIAL_BOUND), so one
    segment's flags are all that is held besides the products.
    """
    sieving = [r for r in _first_window()[0] if r <= isqrt(TRIAL_BOUND)]  # isqrt(10^6) < _WINDOW
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


def _rho_divisor(n: int, budget: int) -> tuple[int | None, int]:
    """A proper divisor of the odd composite n, and what is left of budget.

    Brent's rho (Brent, BIT 20, 1980): y -> y^2 + c mod n for c = 1, 2, ...,
    with |x - y| multiplied into one product whose gcd with n is taken
    every 64 steps, and a step-by-step replay of the last batch when that
    gcd is n.  Returns (None, 0) once budget iterations are spent.
    """
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            if budget < r:
                return None, 0
            budget -= r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, steps = y, min(64, r - k)
                if budget < steps:
                    return None, 0
                budget -= steps
                for _ in range(steps):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                k += steps
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, budget


def _prime_factors(n: int) -> list[int] | None:
    """The primes of n < _PSI12 with multiplicity, ascending; None past _RHO_STEPS."""
    primes, left, budget = [], [n], _RHO_STEPS
    while left:
        m = left.pop()
        if is_prime(m):
            primes.append(m)
            continue
        d, budget = _rho_divisor(m, budget)
        if d is None:
            return None
        left += (d, m // d)
    return sorted(primes)


def _divide_out(rem: int, q: int, factors: list[tuple[int, int]]) -> int:
    """rem with every factor q divided out; (q, its exponent) goes onto factors."""
    k = 0
    while rem % q == 0:
        rem //= q
        k += 1
    factors.append((q, k))
    return rem


@lru_cache(maxsize=1024)  # the default sweep factors 66 numbers; a refusal raises and is not kept
def factorize(n: int) -> Factorization:
    """Factor |n| as trial division up to TRIAL_BOUND would.

    The module docstring has the two routes.  Both end in one cofactor
    rule: what survives is accepted only if it is at most TRIAL_BOUND^2 or
    passes the primality test; otherwise the input exceeds desk scale and
    we refuse rather than guess.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    rem = abs(n)
    factors: list[tuple[int, int]] = []
    k = (rem & -rem).bit_length() - 1
    if k:
        rem >>= k
        factors.append((2, k))
    for q in _first_window_primes(rem):
        rem = _divide_out(rem, q, factors)
    if (_WINDOW + 1) ** 2 <= rem < _PSI12 and (primes := _prime_factors(rem)) is not None:
        factors += [(r, len(list(g))) for r, g in groupby(r for r in primes if r <= TRIAL_BOUND)]
        rem = prod(r for r in primes if r > TRIAL_BOUND)
    else:
        q = _WINDOW + 1
        while q <= TRIAL_BOUND and q * q <= rem:
            # q = 1 mod _WINDOW holds at the start of each window
            if q % _WINDOW == 1 and gcd(rem, _window_products()[q // _WINDOW]) == 1:
                q += _WINDOW
                continue
            if rem % q == 0:
                rem = _divide_out(rem, q, factors)
            q += 2
    if rem > 1:
        if rem <= TRIAL_BOUND * TRIAL_BOUND or is_prime(rem):
            factors.append((rem, 1))
        else:
            raise ValueError(f"composite cofactor {rem} exceeds the trial bound {TRIAL_BOUND}")
    return Factorization(base=abs(n), factors=tuple(factors))
