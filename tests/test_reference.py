"""An independent reference for q(p), the order mod p and n(f) at 30-128-bit moduli.

alpha embeds in GL(2, Z) as M = alpha.embed(), the paper's matrix route.
The nu with M^nu scalar mod m, like the nu with M^nu == I mod m, form a
subgroup of Z (Lehmer 1930), so the least one comes from any multiple of
it by dividing out the multiple's primes while the property holds.  The
multiples are group orders: p^2 - 1 mod p, or p(p - 1) when p | x^2 - 4s;
and mod a conductor f the order of GL(2, Z/f), the product of
p^(4k-3) (p-1)^2 (p+1) over p^k || f.  sympy.factorint gives their primes,
and powers are taken by square-and-multiply over Mat2's * and %.

M^nu is scalar mod m iff m divides the irrational coordinate of alpha^nu,
b * u_{nu-1}: so "scalar mod p" is q(p) when p does not divide b, and
"scalar mod f" is n(f).  "Identity mod p" is the order: q times the order
of the scalar M^q mod p, found the same way from p - 1.  The reference never
calls cheby, factorize, is_prime, q_of_p or reduce_f; only the code under
test does.  A refusal by the code under test, and a draw whose multiple
sympy cannot factor within _FACTOR_LIMIT, are counted by reason and bit
size in the run summary; neither fails the test.
"""

import functools
import random
import re
import time
from collections import Counter
from math import gcd, prod

import pytest

from quadorder.checks import failed_names
from quadorder.conductor import bound_full, n_of_f
from quadorder.ordersolver import analyze, q_of_p
from quadorder.quadint import Mat2, QuadInt

sympy = pytest.importorskip("sympy")

SEED = 20261019
BITS = (30, 45, 62, 80, 96, 128)
PRIMES_PER_SIZE = 4
RAMIFIED_MAX_BITS = 62  # d = +-p must pass the radicand's square-free check
F_LIMIT = 10**12
F_PER_ALPHA = 6
_FACTOR_LIMIT = 2**15  # sympy's trial-division and rho budget per factorint call

# norm -1 and +1 (both classes of d mod 4), general norms, and d < 0
ALPHAS = [
    QuadInt(1, 1, 2),  # norm -1
    QuadInt(2, 1, 3),  # norm +1
    QuadInt(1, 1, 5),  # (1 + sqrt 5)/2, norm -1, d == 1 (mod 4)
    QuadInt(3, 1, 5),  # norm +1, d == 1 (mod 4)
    QuadInt(5, 1, 13),  # norm 3, d == 1 (mod 4)
    QuadInt(3, 2, 6),  # norm -15
    QuadInt(1, 1, -1),  # 1 + i, norm 2
    QuadInt(1, 1, -3),  # a sixth root of unity, d == 1 (mod 4)
    QuadInt(1, 3, -7),  # norm 16, d == 1 (mod 4)
    QuadInt(2, 1, -5),  # norm 9
]


def _power(M: Mat2, n: int, m: int) -> Mat2:
    result, base = Mat2.identity() % m, M % m
    while n:
        if n & 1:
            result = result * base % m
        base = base * base % m
        n >>= 1
    return result


def _scalar(A: Mat2, m: int) -> bool:
    return A.e01 % m == 0 and A.e10 % m == 0 and (A.e00 - A.e11) % m == 0


def _identity(A: Mat2, m: int) -> bool:
    return _scalar(A, m) and (A.e00 - 1) % m == 0


def _primes(*parts: int) -> list[int] | None:
    """The primes of the product of parts; None when the budget leaves a composite."""
    found = set()
    for part in parts:
        for r in sympy.factorint(part, limit=_FACTOR_LIMIT):
            if not sympy.isprime(r):
                return None
            found.add(r)
    return sorted(found)


def _least(M: Mat2, m: int, n: int, primes: list[int], holds) -> int:
    """Least nu >= 1 with holds(M^nu mod m), from a multiple n whose primes are given.

    The nu that hold are the multiples of the least one, so its power of
    each prime r of n is r^j, with j least such that holds at n / r^(e-j),
    where r^e || n.
    """
    assert holds(_power(M, n, m), m), (M, m, n)
    nu = 1
    for r in set(primes):
        e = sympy.multiplicity(r, n)
        power = _power(M, n // r**e, m)
        while not holds(power, m):
            power, nu = _power(power, r, m), nu * r
    assert holds(_power(M, nu, m), m), (M, m, n, primes)  # primes covered n
    return nu


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {re.sub(r'[0-9]+', 'N', str(exc))}"


def _draw_f(rng: random.Random, norm: int) -> int:
    """f < F_LIMIT coprime to the norm: a product of one to three prime powers."""
    while True:
        f = 1
        for _ in range(rng.randint(1, 3)):
            r = sympy.randprime(2, 2 ** rng.randint(2, 40))
            f *= r ** (rng.choice((1, 1, 2, 3)) if r < 100 else 1)
        if f < F_LIMIT and gcd(f, norm) == 1:
            return f


def _check_mod_p(alpha: QuadInt, p: int, factored, tally, mismatches) -> None:
    """q(p), the order and the half bound of alpha mod p against the reference.

    factored(k) gives the primes of p + k, or None if the budget ran out.
    """
    bits = p.bit_length()
    try:
        q = q_of_p(alpha.trace_x, alpha.norm, p)
        rep = analyze(alpha, p)
    except ValueError as exc:
        tally[bits, _reason(exc)] += 1
        return
    M = alpha.embed()
    if (M.trace**2 - 4 * M.det) % p:
        multiple, parts = p * p - 1, (factored(-1), factored(1))
    else:
        multiple, parts = p * (p - 1), (factored(-1), [p])
    if None in parts:
        tally[bits, "answered; the reference could not factor"] += 1
        return
    tally[bits, "checked"] += 1
    ref_q = _least(M, p, multiple, parts[0] + parts[1], _scalar)
    # M^q = lam * I, so the order is q times the order of lam, which divides p - 1
    lam = _power(M, ref_q, p).e00
    order = ref_q * _least(Mat2(lam, 0, 0, lam), p, p - 1, parts[0], _identity)
    if q != ref_q:
        mismatches.append(("q(p)", alpha, p, q, ref_q))
    if not rep.passed:
        mismatches.append(("report fails", alpha, p, failed_names(rep.table_checks)))
    if rep.bound_n is not None and rep.bound_n % order:
        mismatches.append(("order does not divide bound_n", alpha, p, rep.bound_n, order))
    if rep.half_bound_applies:
        half = _power(M, rep.bound_n // 2, p)
        if not (_scalar(half, p) and (half.e00 + 1) % p == 0):
            mismatches.append(("alpha^(n/2) != -1", alpha, p, rep.bound_n))


def _check_conductor(alpha: QuadInt, f: int, tally, mismatches) -> None:
    """n(f) and the conductor report's own checks against the reference."""
    try:
        rep = bound_full(alpha, f)
        n = n_of_f(alpha, f)
    except ValueError as exc:
        tally["f", _reason(exc)] += 1
        return
    factors = sympy.factorint(f)
    primes = _primes(f, *(r - 1 for r in factors), *(r + 1 for r in factors))
    if primes is None:
        tally["f", "answered; the reference could not factor"] += 1
        return
    tally["f", "checked"] += 1
    multiple = prod(r ** (4 * k - 3) * (r - 1) ** 2 * (r + 1) for r, k in factors.items())
    ref_n = _least(alpha.embed(), f, multiple, primes, _scalar)
    if (n, rep.n_exact) != (ref_n, ref_n) or failed_names(rep.checks):
        mismatches.append(("n(f)", alpha, f, n, rep.n_exact, ref_n, rep.checks))


# high prime powers, the 2-power whose descent starts from 3 * 2^k, and the
# squares of 13 and 31, where n(p^2) = q(p) for 1 + sqrt 2 (OEIS A238736)
PRIME_POWERS = (2**39, 3**25, 5**17, 7**14, 13**2, 31**2, (2**19 - 1) ** 2)


@pytest.mark.parametrize("f", PRIME_POWERS)
def test_reference_prime_powers(f):
    tally, mismatches = Counter(), []
    alphas = [alpha for alpha in ALPHAS if gcd(f, alpha.norm) == 1]
    for alpha in alphas:
        _check_conductor(alpha, f, tally, mismatches)
    assert not mismatches, mismatches
    assert tally["f", "checked"] == len(alphas) > 0, tally


@pytest.fixture
def seeded_sympy():
    state = sympy.core.random.rng.getstate()
    sympy.core.random.seed(SEED)
    yield
    sympy.core.random.rng.setstate(state)


def test_reference_panel(seeded_sympy, panel_log):
    start = time.perf_counter()
    tally, mismatches = Counter(), []
    for bits in BITS:
        for _ in range(PRIMES_PER_SIZE):
            p = sympy.randprime(2 ** (bits - 1), 2**bits)
            factored = functools.cache(lambda k, p=p: _primes(p + k))
            alphas = list(ALPHAS)
            if bits <= RAMIFIED_MAX_BITS:
                d = p if p % 4 == 1 else -p  # so d == 1 and -d == 3 (mod 4); p divides both
                alphas += [QuadInt(1, 1, d), QuadInt(1, 1, -d)]
            for alpha in alphas:
                _check_mod_p(alpha, p, factored, tally, mismatches)
    rng = random.Random(SEED)
    for alpha in ALPHAS:
        for _ in range(F_PER_ALPHA):
            _check_conductor(alpha, _draw_f(rng, alpha.norm), tally, mismatches)
    elapsed = time.perf_counter() - start
    panel_log.append(f"seed {SEED}: {elapsed:.2f} s, {len(mismatches)} mismatches")
    for (size, what), count in sorted(tally.items(), key=lambda kv: (str(kv[0][0]).zfill(3), kv)):
        where = "f < 10^12" if size == "f" else f"p of {size} bits"
        panel_log.append(f"  {where:>14}  {count:4d}  {what}")
    assert not mismatches, mismatches[:5]
    assert sum(v for (_, what), v in tally.items() if what == "checked") >= 100
