"""Ground truth by direct iteration.

Every bound elsewhere in the package is checked against these scans.
Nothing here touches the fast polynomial evaluators or QuadInt arithmetic:
orders come from repeated multiplication of coefficient pairs mod p, by
alpha^2 with each odd exponent tested against alpha^-1, conductor indices
from one product per exponent on pairs mod 2f, and q(p) from the bare
recurrence mod p.  Every scan tests every exponent 1..cap in order.
"""

from __future__ import annotations

from typing import NamedTuple

from .modarith import require_odd_prime
from .quadint import QuadInt

DEFAULT_CAP = 10**6


class OracleResult(NamedTuple):
    value: int | None
    cap: int


def oracle_order_mod_p(alpha: QuadInt, p: int, cap: int = DEFAULT_CAP) -> OracleResult:
    """First nu with alpha^nu == 1 mod p, stepping pairs x + y*sqrt(d) by alpha^2 mod p.

    Each odd nu tests alpha^(nu-1) == alpha^-1 = conj(alpha) / N(alpha) instead.
    """
    require_odd_prime(p)
    h = (p + 1) // 2 if alpha.r == 1 else 1  # 1/2 mod p halves (a + b*sqrt(d))/2
    x0, y0, d = alpha.a * h % p, alpha.b * h % p, alpha.d
    norm = (x0 * x0 - d * y0 * y0) % p
    if norm == 0:  # alpha is a zero divisor mod p, so no power of it is 1
        return OracleResult(None, cap)
    inv = pow(norm, -1, p)
    ix, iy = x0 * inv % p, -y0 * inv % p
    x2, y2, dy2 = (x0 * x0 + d * y0 * y0) % p, 2 * x0 * y0 % p, 2 * d * x0 * y0 % p
    x, y, value = 1, 0, None  # x + y*sqrt(d) is alpha^(nu-1) for the odd nu
    for nu in range(1, cap + 1, 2):
        if x == ix and y == iy:
            value = nu
            break
        x, y = (x * x2 + y * dy2) % p, (x * y2 + y * x2) % p
        if x == 1 and y == 0:
            value = nu + 1 if nu < cap else None
            break
    return OracleResult(value, cap)


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
