"""Ground truth by direct iteration.

Every bound elsewhere in the package is checked against these scans.
Nothing here touches the fast polynomial evaluators or QuadInt arithmetic:
orders come from repeated multiplication of coefficient pairs mod p,
conductor indices from the same product on pairs mod 2f, and q(p) from
the bare recurrence mod p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .modarith import require_odd_prime
from .quadint import QuadInt

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class OracleResult:
    quantity: str
    inputs: dict = field(compare=False)
    value: int | None
    cap: int


def oracle_order_mod_p(alpha: QuadInt, p: int, cap: int = DEFAULT_CAP) -> OracleResult:
    """First nu with alpha^nu == 1 mod p, multiplying pairs x + y*sqrt(d) mod p."""
    require_odd_prime(p)
    h = (p + 1) // 2 if alpha.r == 1 else 1  # 1/2 mod p halves (a + b*sqrt(d))/2
    x0, y0 = alpha.a * h % p, alpha.b * h % p
    dy0 = alpha.d * y0 % p
    x, y = x0, y0
    value = None
    for nu in range(1, cap + 1):
        if x == 1 and y == 0:
            value = nu
            break
        x, y = (x * x0 + y * dy0) % p, (x * y0 + y * x0) % p
    return OracleResult("order_mod_p", {"alpha": str(alpha), "p": p}, value, cap)


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
    return OracleResult("n_of_f", {"alpha": str(alpha), "f": f}, value, cap)


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
    return OracleResult("q_of_p", {"x": x, "s": s, "p": p}, value, cap)
