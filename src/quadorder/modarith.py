"""Modular arithmetic and factorization plumbing, sized for desk-scale inputs.

is_prime is Miller-Rabin on the fewest bases a published deterministic set
needs below 2^64 (_BASES: Jaeschke's, then those of miller-rabin.appspot.com
that sympy's isprime uses), and on the prime witnesses 2..37 from 2^64 up.

Factoring is one fixed policy whose answers are those of trial division
up to TRIAL_BOUND followed by a primality test on what survives.
The power of 2 is stripped by a bit trick, and one gcd with the product
of the odd primes below _WINDOW names the ones that divide what is left;
only those are divided out.  What they leave has no prime factor below
_WINDOW, so below (_WINDOW + 1)^2 it is 1 or a prime.  Above that and
below _PSI12 (where is_prime is a proof), Brent's rho splits it, smaller
pieces first, into proved primes and what the budget _RHO_STEPS left
unsplit; a split finds any prime in (_WINDOW, TRIAL_BOUND] within 7,742 steps.
At _PSI12 and up the range to TRIAL_BOUND is walked _WINDOW integers at
a time: one gcd of what is left with the product of a window's odd
primes skips a window that holds none of its prime factors, and only a
window that does is walked divisor by divisor.  Both tables come from
one sieve, run on the first call that needs each: the first window's
171 primes on the first factorization, the window products (about
180 KB) in one pass up to TRIAL_BOUND, whose 500 KB of flags are freed.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache, lru_cache
from itertools import compress, groupby
from math import gcd, isqrt, log, prod

from .value import Value

TRIAL_BOUND = 10**6
_WINDOW = 1 << 10  # integers per window of the product table
_RHO_STEPS = 1 << 16  # rho iterations one factorization may spend before it refuses
_STRIKE = 1 << 16  # flags one sieve strike clears, so its zeros stay small beside the flags
_BACH = 2  # under GRH the least non-residue mod p is <= 2 (ln p)^2 (Bach, Math. Comp. 55, 1990)

# Miller-Rabin on these witnesses, which run from 2^64 up, is exact only below
# psi_12, a composite is_prime accepts; adding 41 fixes it once perfbench's deep digest may move
_PSI12 = 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (bound, bases): below bound, Miller-Rabin on these bases decides.  The first
# three rows are Jaeschke's (Math. Comp. 61, 1993); the rest are the sets of
# miller-rabin.appspot.com that sympy's isprime uses, the last Sinclair's (2011)
_BASES = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851, (
        2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977, (
        2, 123635709730000, 9233062284813009, 43835965440333360, 761179012939631437,
        1263739024124850375)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
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
    for a in next((bases for bound, bases in _BASES if n < bound), _WITNESSES):
        x = pow(a, d, n)
        if x == 1 or x == n - 1 or a % n == 0:  # a multiple of n proves nothing
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
    return _sqrt_mod(a, p, _nonresidue(p))


def _nonresidue(p: int) -> int:
    """The least quadratic non-residue mod a proved odd prime p, refused past its budget."""
    budget = int(_BACH * log(p) ** 2)
    z = next((z for z in range(2, budget + 1) if _legendre(z, p) == -1), None)
    if z is None:
        raise ValueError(f"no quadratic non-residue mod p = {p} up to {_BACH} (ln p)^2 = {budget}")
    return z


def _sqrt_mod(a: int, p: int, z: int) -> int | None:
    """sqrt_mod for a proved odd prime p, given a non-residue z mod p."""
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) == -1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # the power of 2 in p - 1
    q = (p - 1) >> s
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1 and i < m:
            t2 = t2 * t2 % p
            i += 1
        if i == m:  # mod a prime, t has order below 2^m once a passed Euler's test
            raise ValueError(f"p = {p} is not an odd prime")
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


class Factorization(Value):
    __slots__ = _fields = ("base", "factors")  # factors: (prime, exponent), primes ascending

    def __init__(self, base: int, factors: tuple[tuple[int, int], ...]) -> None:
        if prod(p**k for p, k in factors) != base:
            raise ValueError("factor product does not reproduce the base")
        self._set(base, factors)

    def is_squarefree(self) -> bool:
        return all(k == 1 for _, k in self.factors)


def _odd_prime_flags(limit: int) -> bytearray:
    """flags[i] marks 2i + 1 as prime, for the odd numbers below limit (none below 2); a sieve."""
    flags = bytearray(b"\x01")
    flags *= limit // 2  # in place: a failing bytearray([1]) * n also prints a SystemError
    if flags:
        flags[0] = 0  # 1 is not a prime
    for r in range(3, isqrt(max(limit, 0)) + 1, 2):
        if flags[r // 2]:
            for i in range(r * r // 2, len(flags), r * _STRIKE):
                flags[i : i + r * _STRIKE : r] = bytes(len(range(i, len(flags), r)[:_STRIKE]))
    return flags


@cache
def _first_window() -> tuple[tuple[int, ...], int]:
    """The odd primes below _WINDOW, ascending, and their product."""
    primes = tuple(compress(range(1, _WINDOW, 2), _odd_prime_flags(_WINDOW)))
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

    Window w's product sits at index w.  They come from one sieve up to
    TRIAL_BOUND whose flags live only for this call; no list of primes is made.
    """
    flags, half = _odd_prime_flags(TRIAL_BOUND + 1), _WINDOW // 2
    windows = (slice(j, j + half) for j in range(0, len(flags), half))
    return tuple(prod(compress(range(1, TRIAL_BOUND + 1, 2)[w], flags[w])) for w in windows)


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


def _prime_factors(n: int) -> tuple[list[int], int]:
    """The primes of n < _PSI12 with multiplicity, ascending, and the product
    of the pieces _RHO_STEPS left unsplit (1 when none).

    n has no prime factor below _WINDOW, so a piece below (_WINDOW + 1)^2 is a
    prime and is_prime proves the others; a split's smaller piece goes first.
    """
    primes, left, budget, unsplit = [], [n], _RHO_STEPS, 1
    while left:
        m = left.pop()
        if m < (_WINDOW + 1) ** 2 or is_prime(m):
            primes.append(m)
            continue
        d, budget = _rho_divisor(m, budget)
        if d is None:
            unsplit *= m
        else:
            left += sorted((d, m // d), reverse=True)
    return sorted(primes), unsplit


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
    rule: what survives is accepted only if it is 1 or one prime, proved so
    by rho's split below _PSI12, or after the walk by being at most
    TRIAL_BOUND^2 or passing the primality test; otherwise we refuse.
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
    if (_WINDOW + 1) ** 2 <= rem < _PSI12:
        primes, unsplit = _prime_factors(rem)
        factors += [(r, len(list(g))) for r, g in groupby(r for r in primes if r <= TRIAL_BOUND)]
        above = [r for r in primes if r > TRIAL_BOUND]
        rem, accepted = prod(above) * unsplit, len(above) < 2 and unsplit == 1  # all proved
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
        accepted = rem <= TRIAL_BOUND * TRIAL_BOUND or is_prime(rem)
    if not accepted:
        raise ValueError(f"composite cofactor {rem} exceeds the trial bound {TRIAL_BOUND}")
    if rem > 1:
        factors.append((rem, 1))
    return Factorization(base=abs(n), factors=tuple(factors))
