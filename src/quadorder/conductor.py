"""Conductor indices: the least power of alpha landing in the order Z + f*O.

n(f) is the vanishing index of the cofactor sequence u mod f0, where f0
strips from f its common factor with b.  One cached routine, _entry_index,
gives n(m) for every m; ordersolver.q_of_p is its validating front at p.
At an odd prime p prime to s, q(p) = n(p) descends from p - ell, or is p
when ell = 0 (the vanishing indices are its multiples, and u_0 = 1), where
2^{nu-1} u_{nu-1} == nu * x^{nu-1} is checked at nu in {1, 3, p-2, p}.  At
p^k, k > 1, prime to s it descends from q(p) * p^(k-1), or from 3 * 2^k for
p = 2 (element orders in PGL(2, F_2) = S_3 divide 6).  Any other m = A * B,
A coprime to s, is factored once; by CRT n(A) is the lcm of the routine's
own values at each p^k || A, as mod p^k the vanishing indices are the
multiples of the least.  Each index mod m depends only on the class of
(x, s) under (x, s) -> (cx, c^2 s) for units c, so it is cached under the
key of cheby._pgl_class: at most 2p keys per odd prime p rather than p^2.
Each prime of B divides x and s, so M^2 == 0 mod p and u vanishes mod p^k
from index 2k on: n(f0) is the first multiple of n(A) that vanishes mod B,
at most 2 * max k away.  So n(f) <= 6f^2: n(A) is at most the product of
its terms, (p + 1) * p^(k-1) <= p^(2k) or 3 * 2^k <= 3 * 4^k, so
n(A) <= 3A^2; k <= p^(k-1) <= B makes 2 * max k <= 2B.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod
from typing import NamedTuple

from .cheby import _lucas, _order_descent, _pgl_class
from .checks import Check, check
from .modarith import _legendre, factorize, require_odd_prime
from .quadint import QuadInt


class PrimeBound(NamedTuple):
    p: int
    k: int
    q_p: int
    contribution: int


@lru_cache(maxsize=16384)  # class keys at f0 and its prime powers; the grid holds 3,084, 853 at p^k
def _entry_index(x: int, s: int, m: int) -> int:
    """n(m), the least nu >= 1 with u_{nu-1}(x; s) == 0 mod m; the module has the route."""
    factors = factorize(m).factors
    for p, _ in factors:
        if s % p == 0 and x % p != 0:
            raise ValueError(
                f"no power of alpha has its irrational part divisible by {p}: "
                "the cofactor sequence never vanishes there"
            )
    if len(factors) == 1 and s % factors[0][0]:  # a prime power prime to s
        p, k = factors[0]
        if p == 2:  # element orders in PGL(2, F_2) = S_3 divide 6
            return _order_descent(x, s, m, 3 * m, [2, 3])
        if k > 1:
            return _order_descent(x, s, m, _entry_index(*_pgl_class(x, s, p), p) * m // p, [p])
        ell = _legendre(x * x - 4 * s, p)
        if ell:
            return _order_descent(x, s, p, p - ell, [r for r, _ in factorize(p - ell).factors])
        for nu in {1, 3, p - 2, p}:
            if pow(2, nu - 1, p) * _lucas(x, s, nu, p)[1] % p != nu * pow(x, nu - 1, p) % p:
                raise AssertionError("odd-index closed form failed in the degenerate case")
        return p
    n_a = lcm(*(_entry_index(*_pgl_class(x, s, p**k), p**k) for p, k in factors if s % p))
    if all(s % p for p, _ in factors):
        return n_a
    shared_k = max(k for p, k in factors if s % p == 0)
    for j in range(1, 2 * shared_k + 1):
        if _lucas(x, s, j * n_a, m)[1] == 0:
            return j * n_a
    raise AssertionError(f"u does not vanish mod {m} by index {2 * shared_k * n_a}")


def n_of_f(alpha: QuadInt, f: int) -> int:
    """Least nu >= 1 with alpha^nu in the order of conductor f: bound_full's n_exact."""
    if f < 1:
        raise ValueError("the conductor must be at least 1")
    return 1 if alpha.b == 0 else bound_full(alpha, f).n_exact


class MultiplicativeBound(NamedTuple):
    f: int
    g: int
    n_f: int
    n_g: int
    n_fg: int
    side_conditions: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return self.n_fg <= self.n_f * self.n_g


def _shared_with_b(b: int, **conductors: int) -> list[str]:
    """A side note for each named conductor sharing a factor with b; none when b = 0."""
    gcds = {name: gcd(b, c) for name, c in conductors.items()}
    return [f"gcd(b, {name}) = {g}" for name, g in gcds.items() if b and g != 1]


def bound_multiplicative(alpha: QuadInt, f: int, g: int) -> MultiplicativeBound:
    """n(fg) against n(f)n(g) for coprime conductors.

    Only gcd(f, g) = 1 is enforced; whether b shares factors with f or g
    is reported in side_conditions rather than rejected, so violations of
    the inequality under relaxed hypotheses would surface as holds=False.
    """
    if gcd(f, g) != 1:
        raise ValueError("the conductors must be coprime")
    return MultiplicativeBound(
        f=f,
        g=g,
        n_f=n_of_f(alpha, f),
        n_g=n_of_f(alpha, g),
        n_fg=n_of_f(alpha, f * g),
        side_conditions=tuple(_shared_with_b(alpha.b, f=f, g=g)),
    )


class PrimePowerBound(NamedTuple):
    p: int
    k: int
    f: int
    q_p: int
    n_f: int
    lhs: int
    rhs: int
    side_conditions: tuple[str, ...]
    checks: tuple[Check, ...]

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def bound_prime_power(alpha: QuadInt, p: int, k: int, f: int = 1) -> PrimePowerBound:
    """n(p^k f) against q(p) * p^(k-1) * n(f) for an odd prime p not dividing f.

    The checks replay the lifting step behind the inequality mod
    f0 = f/gcd(b, f), where n(f) is measured: nu = rhs vanishes mod p^k f0,
    the transported parameters satisfy u_{p-1}(z; S) == (z^2 - 4S)^((p-1)/2)
    mod p, and composing pushes the vanishing up to p^{k+1} f0.
    """
    require_odd_prime(p)
    if k < 1:
        raise ValueError("k must be at least 1")
    if f < 1:
        raise ValueError("the conductor factor must be at least 1")
    if f % p == 0:
        raise ValueError("p must not divide f")
    x, s = alpha.trace_x, alpha.norm
    side = _shared_with_b(alpha.b, f=f)
    if alpha.b % p == 0:
        side.append("p divides b")
    q = _entry_index(*_pgl_class(x, s, p), p)
    n_f = n_of_f(alpha, f)
    lhs = n_of_f(alpha, p**k * f)
    rhs = q * p ** (k - 1) * n_f
    return PrimePowerBound(
        p=p, k=k, f=f, q_p=q, n_f=n_f, lhs=lhs, rhs=rhs, side_conditions=tuple(side),
        checks=_lift_diagnostics(x, s, p, k, f // gcd(alpha.b, f), rhs),
    )


def _lift_diagnostics(x: int, s: int, p: int, k: int, f: int, nu: int) -> tuple[Check, ...]:
    # f is the reduced f0; one ladder at nu mod p^{k+1} f0, reduced mod p^k f0 and mod p below
    lifted = p ** (k + 1) * f
    z_big, u_nu_big = _lucas(x, s, nu, lifted)
    s_big = pow(s, nu, lifted)
    # u_{p-1} is the u_prev component one index up; as p | lifted, outer % p is the Frobenius lhs
    outer = _lucas(z_big, s_big, p, lifted)[1]
    frob_rhs = pow(z_big * z_big - 4 * s_big, (p - 1) // 2, p)
    u_pnu = _lucas(x, s, p * nu, lifted)[1]
    return (
        check("u(nu-1) == 0 mod p^k f0", u_nu_big % (p**k * f) == 0),
        check("u(p-1)(z; s^nu) == (z^2-4s^nu)^((p-1)/2) mod p", outer % p == frob_rhs),
        check(
            "u(p*nu-1) == u(p-1)(z; s^nu) * u(nu-1) mod p^{k+1} f0",
            u_pnu == outer * u_nu_big % lifted,
        ),
        check("u(p*nu-1) == 0 mod p^{k+1} f0", u_pnu == 0),
    )


class ConductorReport(NamedTuple):
    f: int
    f0: int
    n_exact: int
    bound: int | None
    per_prime: tuple[PrimeBound, ...]
    notes: tuple[str, ...]
    _BOUND_CHECKS = tuple((check("n_exact <= bound", ok),) for ok in (False, True))  # not a field

    @property
    def holds(self) -> bool:
        return self.bound is None or self.n_exact <= self.bound

    @property
    def checks(self) -> tuple[Check, ...]:
        """The product bound as a check; none when the bound is not claimed."""
        return () if self.bound is None else self._BOUND_CHECKS[self.holds]


def bound_full(alpha: QuadInt, f: int) -> ConductorReport:
    """Exact n(f) next to the per-prime product bound over f0.

    The product bound is only claimed for odd f; an even conductor still
    gets its exact index, with bound None and a note saying why.
    """
    if alpha.b == 0:
        raise ValueError("b = 0 is rational; n(f) = 1 for every conductor")
    if f < 1:
        raise ValueError("the conductor must be at least 1")
    # f0 = f/c is coprime to b/c, c = gcd(b, f), so vanishing mod f0 is what n(f) measures
    c = gcd(alpha.b, f)
    f0 = f // c
    x, s = _pgl_class(alpha.trace_x, alpha.norm, f0)  # x == 1 spares each prime's inverse
    n_exact = _entry_index(x, s, f0)
    notes = []
    if c > 1:
        notes.append(f"common factor {c} with b removed, leaving f0 = {f0}")
    per, bound = [], None
    if f % 2 == 0:
        notes.append("even conductor: the product bound is stated for odd f only")
    else:
        for p, k in factorize(f0).factors:  # f0 is odd here
            q = _entry_index(*_pgl_class(x, s, p), p)
            per.append(PrimeBound(p, k, q, q * p ** (k - 1)))
        bound = prod(t.contribution for t in per)
    return ConductorReport(
        f=f, f0=f0, n_exact=n_exact, bound=bound, per_prime=tuple(per), notes=tuple(notes)
    )
