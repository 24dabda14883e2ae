"""Number theory the benchmark trusts without asking the package under test.

Inputs for the deep workload are generated, and its answers certified,
with these helpers only; none of them imports quadorder.
"""

from __future__ import annotations

# the first 13 primes: Miller-Rabin with these bases is deterministic below
# psi_13 = 3317044064679887385961981 (Sorenson-Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n >= MR_LIMIT:
        raise ValueError("outside the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_small(n: int) -> list[tuple[int, int]]:
    """Complete factorization of 1 <= n <= 10^14 by trial division."""
    if not 1 <= n <= 10**14:
        raise ValueError("factor_small takes 1 <= n <= 10^14")
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            k = 0
            while n % q == 0:
                n //= q
                k += 1
            out.append((q, k))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_squarefree(n: int) -> bool:
    return all(k == 1 for _, k in factor_small(abs(n)))


def random_prime(rng, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if is_prime(p):
            return p


def lucas_mod(x: int, s: int, n: int, m: int) -> tuple[int, int]:
    """(t_n, u_{n-1}) mod m for w_{k+1} = x w_k - s w_{k-1}, by index doubling.

    In Lucas notation u_{n-1} = U_n and t_n = V_n.  The pair (U_k, U_{k+1})
    doubles by U_2k = U_k (2 U_{k+1} - x U_k) and U_{2k+1} = U_{k+1}^2 - s U_k^2,
    and V_n = 2 U_{n+1} - x U_n.  This is not the package's matrix route.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x %= m
    s %= m
    u_k, u_k1 = 0, 1 % m
    for bit in bin(n)[2:]:
        u_k, u_k1 = u_k * (2 * u_k1 - x * u_k) % m, (u_k1 * u_k1 - s * u_k * u_k) % m
        if bit == "1":
            u_k, u_k1 = u_k1, (x * u_k1 - s * u_k) % m
    return (2 * u_k1 - x * u_k) % m, u_k
