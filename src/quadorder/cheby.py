"""Two-parameter trace/cofactor recurrences.

Both families satisfy w_{n+1} = x*w_n - s*w_{n-1}; the trace family t
starts 2, x and the cofactor family u starts 1, x (with u_{-1} = 0).
They are the scaled Chebyshev polynomials in the pair (x, s), and for a
2x2 integer matrix with trace x and determinant s they give the trace
and the corner entry of the n-th power.

Single terms come from one Lucas-doubling kernel, _lucas, over the
integers (s = 0 included) or mod m; vanishing indices come from an order
descent on it, and run_identity_trials fuzzes the identities with it.
The kernel alone refuses n < 0; u_prev_exact, t_exact, eval_fast (plus a
modulus check) and compose_* (both laws hold at index 0) are projections of
it, kept for the tests, perfbench's tracer and deep's certificate.  ChebyParams
checks its pair when made; ChebyPair and IdentityTally are immutable named tuples.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from math import comb, gcd
from typing import NamedTuple

from .value import Value


class ChebyParams(Value):
    __slots__ = _fields = ("x", "s", "modulus")

    def __init__(self, x: int, s: int, modulus: int | None = None) -> None:
        if s == 0:
            raise ValueError("s must be nonzero")
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be at least 2")
        self._set(x, s, modulus)


class ChebyPair(NamedTuple):
    n: int
    t: int
    u_prev: int  # u_{n-1}


def _lucas(x: int, s: int, n: int, m: int | None = None) -> tuple[int, int]:
    """(t_n, u_{n-1}) by the U-ladder, over the integers or mod m.

    With U_k = u_{k-1} the ladder carries (U_k, U_{k+1}) through the bits
    of n using U_{2k} = U_k(2U_{k+1} - x*U_k) and
    U_{2k+1} = U_{k+1}^2 - s*U_k^2; at the end t_n = 2U_{n+1} - x*U_n.
    Joye-Quisquater 1996, "Efficient computation of full Lucas sequences".
    """
    if n < 0:  # bin(-5) is '-0b101': the ladder would answer for |n|
        raise ValueError("n must be nonnegative")
    if m is not None:
        x, s = x % m, s % m
    u, v = 0, 1
    for bit in bin(n)[2:]:
        u, v = u * (2 * v - x * u), v * v - s * u * u
        if bit == "1":
            u, v = v, x * v - s * u
        if m is not None:
            u, v = u % m, v % m
    t = 2 * v - x * u
    return (t if m is None else t % m), u


def _pgl_class(x: int, s: int, m: int) -> tuple[int, int]:
    """Cache key of (x, s) mod m: (1, s/x^2) for a unit x, else the residues.

    u_{n-1}(cx; c^2 s) = c^(n-1) u_{n-1}(x; s) for a unit c, so vanishing
    indices, orders of M in PGL(2, Z/m), agree on (x, s) and (cx, c^2 s)."""
    x, s = x % m, s % m
    if x == 1 % m or gcd(x, m) > 1:
        return x, s
    inverse = pow(x, -1, m)
    return 1, s * inverse * inverse % m


def _order_descent(x: int, s: int, m: int, n: int, primes: list[int]) -> int:
    """Least nu >= 1 with u_{nu-1}(x; s) == 0 mod m, from a multiple n of it.

    Needs gcd(m, s) = 1, so that those nu are the kernel of nu -> M^nu in
    PGL(2, Z/m): the multiples of the least one (Lucas 1878; Lehmer 1930).
    primes must cover every prime at which n may exceed it; each is divided
    out of n while the index still vanishes.
    """
    if _lucas(x, s, n, m)[1]:
        raise AssertionError(f"u_{n - 1} != 0 mod {m}: {n} is not a vanishing index")
    return _descend(n, primes, lambda k: _lucas(x, s, k, m)[1] == 0)


def _descend(n: int, primes: list[int], holds: Callable[[int], bool]) -> int:
    """Least k >= 1 with holds(k), by dividing primes out of n.

    Needs holds(n), and the k with holds(k) must be the multiples of the
    least one.  primes must cover every prime at which n may exceed it;
    each is divided out of n while holds stays true.
    """
    for r in primes:
        while n % r == 0 and holds(n // r):
            n //= r
    return n


def u_prev_exact(x: int, s: int, n: int) -> int:
    """u_{n-1}(x; s) over the integers; u_{-1} = 0."""
    return _lucas(x, s, n)[1]


def t_exact(x: int, s: int, n: int) -> int:
    """t_n(x; s) over the integers."""
    return _lucas(x, s, n)[0]


def eval_fast(params: ChebyParams, n: int) -> ChebyPair:
    """(t_n, u_{n-1}) mod the modulus in O(log n) Lucas-doubling steps."""
    m = params.modulus
    if m is None:
        raise ValueError("eval_fast needs a modulus")
    t, u_prev = _lucas(params.x, params.s, n, m)
    return ChebyPair(n=n, t=t, u_prev=u_prev)


def u_odd_closed_form(x: int, s: int, n: int) -> int:
    """u_{n-1}(x; s) for odd n by the single binomial sum, no recurrence.

    2^{n-1} u_{n-1} = sum_k C(n, 2k+1) x^{n-2k-1} (x^2-4s)^k over the
    integers, by Horner's rule in x^2; the division is exact and is checked.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and at least 1")
    x2, disc = x * x, x * x - 4 * s
    total, power = 0, 1
    for k in range((n + 1) // 2):
        total, power = total * x2 + comb(n, 2 * k + 1) * power, power * disc
    quot, rem = divmod(total, 1 << (n - 1))
    if rem:
        raise AssertionError("binomial sum was not divisible by 2^(n-1)")
    return quot


def compose_u(x: int, s: int, m: int, n: int) -> tuple[int, int]:
    """Exact (lhs, rhs) of u_{mn-1}(x;s) = u_{m-1}(t_n(x;s); s^n) * u_{n-1}(x;s)."""
    lhs = u_prev_exact(x, s, m * n)
    rhs = u_prev_exact(t_exact(x, s, n), s**n, m) * u_prev_exact(x, s, n)
    return lhs, rhs


def compose_t(x: int, s: int, m: int, n: int) -> tuple[int, int]:
    """Exact (lhs, rhs) of t_{mn}(x;s) = t_n(t_m(x;s); s^m)."""
    lhs = t_exact(x, s, m * n)
    rhs = t_exact(t_exact(x, s, m), s**m, n)
    return lhs, rhs


class IdentityTally(NamedTuple):
    name: str
    passed: int
    total: int
    first_failure: str = ""


# the draw ranges: |x| <= _X_BOUND, 1 <= |s| <= _S_BOUND, 1 <= m, n <= _MN_BOUND
_X_BOUND, _S_BOUND, _MN_BOUND = 50, 20, 40


def run_identity_trials(trials: int, seed: int) -> list[IdentityTally]:
    """Exact-equality fuzzing of the polynomial identities.

    Each trial draws x, a nonzero s, indices m and n, an odd index, and a
    transport modulus, then evaluates both sides of every identity over
    the integers from seven _lucas calls, one per distinct term; no
    identity compares a value with itself.  A mismatch records its tuple.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    names = [
        "norm: (x^2-4s)*u(n-1)^2 == t(n)^2 - 4*s^n",
        "doubling: t(n)^2 == t(2n) + 2*s^n",
        "compose t: t(mn) == t_n(t_m(x;s); s^m)",
        "compose u: u(mn-1) == u(m-1)(t_n; s^n)*u(n-1)",
        "u(n-1) divides u(mn-1)",
        "transport: mu | u(n-1) implies mu | u(mn-1)",
        "odd closed form matches the recurrence",
    ]
    passed = dict.fromkeys(names, 0)
    first = dict.fromkeys(names, "")
    for _ in range(trials):
        x = rng.randint(-_X_BOUND, _X_BOUND)
        s = rng.randint(1, _S_BOUND) * rng.choice((-1, 1))
        m = rng.randint(1, _MN_BOUND)
        n = rng.randint(1, _MN_BOUND)
        odd = 2 * rng.randint(0, (_MN_BOUND - 1) // 2) + 1
        mu = rng.randint(2, 50)
        t_n, u_n = _lucas(x, s, n)
        t_mn, u_mn = _lucas(x, s, m * n)
        s_n = s**n
        outcomes = (
            (x * x - 4 * s) * u_n * u_n == t_n * t_n - 4 * s_n,
            t_n * t_n == _lucas(x, s, 2 * n)[0] + 2 * s_n,
            t_mn == _lucas(_lucas(x, s, m)[0], s**m, n)[0],
            u_mn == _lucas(t_n, s_n, m)[1] * u_n,
            u_mn == 0 if u_n == 0 else u_mn % u_n == 0,
            u_n % mu != 0 or u_mn % mu == 0,
            u_odd_closed_form(x, s, odd) == _lucas(x, s, odd)[1],
        )
        for name, ok in zip(names, outcomes):
            if ok:
                passed[name] += 1
            elif not first[name]:
                first[name] = f"x={x} s={s} m={m} n={n} odd={odd} mu={mu}"
    return [IdentityTally(name, passed[name], trials, first[name]) for name in names]
