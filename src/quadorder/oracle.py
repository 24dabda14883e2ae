"""Ground truth by direct iteration.

Every bound elsewhere in the package is checked against these scans.
Nothing here touches the fast polynomial evaluators or QuadInt arithmetic:
orders come from products of coefficient pairs mod p, a window of exponents
at a time (Shanks's baby-step giant-step), conductor indices from one
product per exponent on pairs mod 2f, and q(p) from the bare recurrence
mod p.  Every scan tests every exponent 1..cap in order.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .modarith import require_odd_prime
from .quadint import QuadInt

DEFAULT_CAP = 10**6


class OracleResult(NamedTuple):
    value: int | None
    cap: int


def oracle_order_mod_p(alpha: QuadInt, p: int, cap: int = DEFAULT_CAP) -> OracleResult:
    """First nu with alpha^nu == 1 mod p, by windows of w exponents on pairs x + y*sqrt(d) mod p.

    A table maps the pair of alpha^-j to the least j <= w = isqrt(cap) + 1.  The pair of
    alpha^(g*w), stepped by alpha^w, equals alpha^-j exactly when alpha^(g*w + j) == 1, so
    each window g*w + 1 .. g*w + w is tested at once: about 2*sqrt(cap) products in all.
    """
    require_odd_prime(p)
    h = (p + 1) // 2 if alpha.r == 1 else 1  # 1/2 mod p halves (a + b*sqrt(d))/2
    x0, y0, d = alpha.a * h % p, alpha.b * h % p, alpha.d
    norm = (x0 * x0 - d * y0 * y0) % p
    if norm == 0 or cap < 1:  # no exponent to test, or a zero divisor mod p: no power is 1
        return OracleResult(None, cap)
    inv, w = pow(norm, -1, p), isqrt(cap) + 1
    ix, iy = x0 * inv % p, -y0 * inv % p  # alpha^-1 = conj(alpha) / N(alpha)
    x, y, table, diy = 1, 0, {}, d * iy % p
    for j in range(1, w + 1):
        x, y = (x * ix + y * diy) % p, (x * iy + y * ix) % p
        table.setdefault((x, y), j)
    nw = pow(norm, w, p)  # alpha^w = conj(alpha^-w) / N(alpha^-w)
    gx, gy = x * nw % p, -y * nw % p
    x, y, dgy = 1, 0, d * gy % p
    for base in range(0, cap, w):
        j = table.get((x, y))
        if j is not None:
            return OracleResult(base + j if base + j <= cap else None, cap)
        x, y = (x * gx + y * dgy) % p, (x * gy + y * gx) % p
    return OracleResult(None, cap)


def oracle_n_of_f(alpha: QuadInt, f: int, cap: int = DEFAULT_CAP) -> OracleResult:
    """First nu with alpha^nu in the conductor-f order, by powers kept mod 2f.

    Reducing the pair (a, b) mod 2f moves alpha^nu by elements of f*Z[sqrt(d)],
    which keeps both f | b and the equal parity the half-integer product halves.
    """
    if f < 1:
        raise ValueError("the conductor must be at least 1")
    m, k, d = 2 * f, 2 if alpha.r == 1 else 1, alpha.d
    a0, b0 = alpha.a % m, alpha.b % m
    a, b = a0, b0
    value = None
    for nu in range(1, cap + 1):
        if b % f == 0:
            value = nu
            break
        a, b = (a * a0 + b * b0 * d) // k % m, (a * b0 + b * a0) // k % m
    return OracleResult(value, cap)


def oracle_q_of_p(x: int, s: int, p: int, cap: int = DEFAULT_CAP) -> OracleResult:
    """First nu with u_{nu-1}(x; s) == 0 mod p, scanning the recurrence."""
    require_odd_prime(p)
    cur, nxt = 1 % p, x % p
    value = None
    for nu in range(1, cap + 1):
        if cur == 0:
            value = nu
            break
        cur, nxt = nxt, (x * nxt - s * cur) % p
    return OracleResult(value, cap)
