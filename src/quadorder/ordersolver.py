"""Order bounds modulo odd primes for quadratic integers.

The route: reduce alpha to its trace/norm pair (x, s), read off the
symbol ell = ((x^2-4s)/p), and refine the exponent p - ell through a
chain of modular square roots while the 2-part of p - ell allows.  Every
claim the solver makes is emitted as a named Check so callers can render
or assert them.  analyze and table_check share one precondition gate and
refuse an unmet precondition with a ValueError naming it.  q_of_p only
proves p prime; conductor._entry_index computes, refuses and caches every
vanishing index.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from .cheby import _descend, _lucas, _pgl_class
from .checks import NA, Check, check
from .conductor import _entry_index
from .modarith import _legendre, _nonresidue, _sqrt_mod, factorize, require_odd_prime
from .quadint import QuadInt

STOP_NONRESIDUE_AT_START = "nonresidue_at_start"
STOP_NONRESIDUE_AT_K = "nonresidue_at_k"
STOP_POWER_OF_TWO = "power_of_two_exhausted"

_SCAN_CAP = 10**6  # values of y divisor_bound tries before it refuses


class ChainResult(NamedTuple):
    ell: int
    chain: tuple[int, ...]
    stop_reason: str

    @property
    def m(self) -> int:
        return len(self.chain) - 1


class OrderReport(NamedTuple):
    p: int
    x: int
    s: int
    ell: int
    mode: str
    bound_n: int | None
    half_bound_applies: bool
    chain: ChainResult | None
    table_checks: tuple[Check, ...]


def _power_is(alpha: QuadInt, pair: tuple[int, int], p: int, target: int) -> bool:
    # pair is (t_n, u_{n-1}); alpha^n == target mod p iff t_n == 2*target and b*u_{n-1} == 0
    t, u_prev = pair
    return (t - 2 * target) % p == 0 and u_prev * alpha.b % p == 0


def _ladder(x: int, s: int, n: int, depth: int, p: int) -> list[tuple[int, int]]:
    # [j] is (t_k, u_{k-1}) mod p at k = n >> j, j <= depth (2^depth | n): one ladder at the
    # lowest index, then doublings up, t_2k = t_k^2 - 2s^k and u_{2k-1} = u_{k-1}*t_k
    rungs = [_lucas(x, s, n >> depth, p)]
    for j in range(depth, 0, -1):
        t, u = rungs[0]
        rungs.insert(0, ((t * t - 2 * pow(s, n >> j, p)) % p, u * t % p))
    return rungs


def _gate(alpha: QuadInt, p: int) -> int:
    # ell = ((x^2-4s)/p) once p is an odd prime and b, s are units mod p;
    # x^2 - 4s is b^2*d or 4*b^2*d, so then ell = 0 iff p | d
    require_odd_prime(p)
    s = alpha.norm
    if s == 0:
        raise ValueError("the norm is zero; no power is invertible")
    if alpha.b == 0:
        raise ValueError("b = 0 is rational; alpha is an integer, with no quadratic order to bound")
    if alpha.b % p == 0:
        raise ValueError("p must not divide b")
    if s % p == 0:
        raise ValueError("p divides the norm; no multiplicative order exists mod p")
    return _legendre(alpha.trace_x**2 - 4 * s, p)


def table_check(alpha: QuadInt, p: int) -> list[Check]:
    """Congruence table for the exponent p - ell and its half.

    Refuses what analyze refuses, and p | d (ell = 0), where no exponent
    p - ell is defined.  The half-exponent cells split on the residue
    class of the norm; in the non-residue branch the asserted form is
    (x^2-4s)*u^2 == 4*sigma, and for half-integral representations the
    older (a^2-s)*u^2 == sigma shape is reported without being asserted.
    """
    ell = _gate(alpha, p)
    if ell == 0:
        raise ValueError("p divides d, so ell = 0 and no exponent p - ell is defined")
    return _table_cells(alpha, p, ell)[0]


def _table_cells(alpha: QuadInt, p: int, ell: int) -> tuple[list[Check], tuple[int, int]]:
    # table_check past its gate; also hands back the pair at p - ell, doubled from its half
    x, s = alpha.trace_x, alpha.norm
    sigma = 1 if ell == 1 else s
    full, (t_half, u_half) = _ladder(x, s, p - ell, 1, p)
    out = [
        check("t(p-ell) == 2*sigma", (full[0] - 2 * sigma) % p == 0),
        check("u(p-ell-1) == 0", full[1] == 0),
    ]
    if _legendre(s, p) == 1:
        out.append(check("t((p-ell)/2)^2 == 4*sigma", (t_half * t_half - 4 * sigma) % p == 0))
        out.append(check("u((p-ell)/2-1) == 0", u_half == 0))
    else:
        out.append(check("t((p-ell)/2) == 0", t_half == 0))
        out.append(
            check(
                "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma",
                ((x * x - 4 * s) * u_half * u_half - 4 * sigma) % p == 0,
            )
        )
        if alpha.r == 1:
            held = ((alpha.a * alpha.a - s) * u_half * u_half - sigma) % p == 0
            out.append(
                Check(
                    "(a^2-s)*u((p-ell)/2-1)^2 == sigma",
                    NA,
                    "holds" if held else "does not hold in this shape",
                )
            )
    return out, full


def build_chain_s1(x: int, p: int, rng: random.Random | None = None) -> ChainResult:
    """Square-root chain above x for norm +1.

    x_0 = x; while 2^{k+1} divides p - ell and x_k + 2 is a residue, the
    next link is a square root of x_k + 2.  The canonical root min(r, p-r)
    is taken unless an rng is supplied, which picks either root; the chain
    length is root-independent and the sweep command spot-checks that.
    """
    require_odd_prime(p)
    ell = _legendre(x * x - 4, p)
    if ell == 0:
        raise ValueError("p divides x^2 - 4, so no chain is defined")
    return _unit_chain(x, 1, ell, p, rng)


def build_chain_s_minus1(x: int, p: int, rng: random.Random | None = None) -> ChainResult:
    """Square-root chain for norm -1, run above y_0 = x^2 + 2.

    Needs p == 1 (mod 4), ell = ((x^2+4)/p) = +1, and x nonzero mod p.
    The first step always succeeds (y_0 + 2 = x^2 + 4 is a residue), so
    the chain length is at least 1.
    """
    require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError("the norm -1 chain needs p == 1 (mod 4)")
    if x % p == 0:
        raise ValueError("the norm -1 chain needs x nonzero mod p")
    ell = _legendre(x * x + 4, p)
    if ell == 0:
        raise ValueError("p divides x^2 + 4, so no chain is defined")
    if ell == -1:
        raise ValueError("the norm -1 chain needs x^2 + 4 to be a residue mod p")
    return _unit_chain(x, -1, ell, p, rng)


def _unit_chain(x: int, s: int, ell: int, p: int, rng: random.Random | None) -> ChainResult:
    # the chain for norm s = +1 runs above x, for s = -1 (with ell = +1) above x^2 + 2, whose
    # first link exists, as x^2 + 4 is then a residue; one root per link, from one non-residue
    # for the chain, decides residuosity, and as p - ell is even the first pass always runs
    chain, z = [(x if s == 1 else x * x + 2) % p], _nonresidue(p)
    while (p - ell) % (1 << len(chain)) == 0:
        root = _sqrt_mod(chain[-1] + 2, p, z)
        if root is None:
            if len(chain) > 1:
                return ChainResult(ell, tuple(chain), STOP_NONRESIDUE_AT_K)
            if s == -1:
                raise AssertionError("the norm -1 chain stopped before its first link")
            return ChainResult(ell, tuple(chain), STOP_NONRESIDUE_AT_START)
        if root == 0:
            raise AssertionError(f"no nonzero square root of {chain[-1]} + 2 mod {p}")
        if rng is not None and rng.random() < 0.5:
            root = p - root
        chain.append(root)
    return ChainResult(ell, tuple(chain), STOP_POWER_OF_TWO)


def _chain_checks(chain: ChainResult, p: int) -> list[Check]:
    ok_sq = all(
        (chain.chain[k] - (chain.chain[k + 1] ** 2 - 2)) % p == 0 for k in range(chain.m)
    )
    ok_ell = all(_legendre(v * v - 4, p) == chain.ell for v in chain.chain)
    return [
        check("chain links square back", ok_sq),
        check("chain preserves ell", ok_ell),
    ]


def _bound_unit(alpha: QuadInt, p: int, ell: int) -> tuple[ChainResult, int, bool, list[Check]]:
    """Order bound n = (p-ell) >> shift for norm ±1, with every claim checked.

    Returns the chain, n, whether the half bound applies, and the checks.
    One chain theorem serves both norms: shift = m for norm +1 and m - 1
    for norm -1, whose chain starts at x^2 + 2.  Asserted: the trace
    ladder t((p-ell)/2^k) == 2 for k <= shift, u(n-1) == 0 and
    alpha^n == 1; when 2^{m+1} divides p - ell, also alpha^{n/2} == -1.
    For norm +1 with 2^{m+2} | p - ell, the non-vanishing of u at n/2 and
    n/4 is recorded, not asserted.
    """
    x, s = alpha.trace_x, alpha.norm
    if s == -1 and x % p == 0:
        raise ValueError("the chain needs x nonzero mod p")
    chain = _unit_chain(x, s, ell, p, None)
    m = chain.m
    shift = m if s == 1 else m - 1
    n = (p - ell) >> shift
    checks = _chain_checks(chain, p)
    if s == -1 and alpha.r != 1 and (alpha.a * alpha.a + 4) % p == 0:
        # x = 2a here, so the hypothesis on x^2 + 4 and the same condition
        # on a^2 + 4 part ways; record the divergence without judging it.
        checks.append(
            Check(
                "a^2 + 4 != 0 under the half-trace reading",
                NA,
                "a^2 + 4 == 0 mod p while x^2 + 4 != 0",
            )
        )
    half_applies = (p - ell) % (1 << (m + 1)) == 0
    # rungs[k] is the pair at (p-ell) >> k, down to n/4 for norm +1 when 2^{m+2} | p - ell
    # (so the half bound applies), else to n/2 or n
    depth = shift + (2 if s == 1 and (p - ell) % (1 << (m + 2)) == 0 else half_applies)
    rungs = _ladder(x, s, p - ell, depth, p)
    for k in range(shift + 1):  # the last rung is n itself
        checks.append(check(f"t((p-ell)/2^{k}) == 2", (rungs[k][0] - 2) % p == 0))
    t_n, u_n = rungs[shift]
    if s == -1:
        checks.append(check("t(n) == 2", (t_n - 2) % p == 0))
    checks.append(check("u(n-1) == 0", u_n == 0))
    checks.append(check("alpha^n == 1", _power_is(alpha, rungs[shift], p, 1)))
    if half_applies:
        t_half, u_half = rungs[shift + 1]
        checks.append(check("t(n/2) == -2", (t_half + 2) % p == 0))
        checks.append(check("u(n/2-1) == 0", u_half == 0))
        checks.append(check("alpha^(n/2) == -1", _power_is(alpha, rungs[shift + 1], p, -1)))
    if depth == shift + 2:
        u_quarter = rungs[shift + 2][1]
        checks.append(Check("u(n/2-1) != 0 (recorded)", NA, "holds" if u_half else "zero"))
        checks.append(Check("u(n/4-1) != 0 (recorded)", NA, "holds" if u_quarter else "zero"))
    return chain, n, half_applies, checks


def _norm_minus1_diagnostics(alpha: QuadInt, p: int, ell: int) -> list[Check]:
    """The checks for norm -1 with no chain bound: the exclusion congruences, then
    alpha^{2(p-ell)} == 1 with its t and u rows, then t(p-ell) == 2*sigma."""
    double, full, (t_n, u_n) = _ladder(alpha.trace_x, -1, 2 * (p - ell), 2, p)
    checks: list[Check] = []
    if p % 4 == 3:
        checks.append(check("t(n) == 0", t_n == 0))
        checks.append(check("u(n-1) != 0", u_n != 0))
    else:
        # p == 1 (mod 4) with ell == -1
        checks.append(check("t(n)^2 == 4*ell", (t_n * t_n - 4 * ell) % p == 0))
        checks.append(check("u(n-1) == 0", u_n == 0))
        checks.append(check("alpha^(p-ell) == -1", _power_is(alpha, full, p, -1)))
    checks.append(check("t(2(p-ell)) == 2", double[0] == 2 % p))
    checks.append(check("u(2(p-ell)-1) == 0", double[1] == 0))
    checks.append(check("alpha^(2(p-ell)) == 1", _power_is(alpha, double, p, 1)))
    checks.append(check("t(p-ell) == 2*sigma", (full[0] - 2 * ell) % p == 0))  # sigma = ell
    return checks


class DivisorBound(NamedTuple):
    k: int
    n: int
    preimage: int
    checks: tuple[Check, ...]


def divisor_bound(x: int, s: int, p: int, k: int) -> DivisorBound | None:
    """Bound n = (p-ell)/k from a k-th trace preimage, when one exists.

    A preimage is a y with t_k(y; s) == x mod p.  With s = +1 any divisor
    k of p - ell is allowed and the conclusion is alpha^n == 1; with
    s = -1 the divisor must be odd and the conclusion is alpha^n == ell.
    Returns None when no preimage exists; that simply means this route
    gives no bound.  Existence costs one Lucas term: with x = eta + s/eta,
    the preimages are y = z + s/z with z^k = eta, where z ranges over a
    cyclic group of order N = p - ell, or 2(p + 1) when s = ell = -1.  So
    one exists iff eta^(N/k) = 1, i.e. (t_{N/k}, u_{N/k-1}) == (2, 0): the
    pair at n = (p - ell)/k or its double, which the checks reuse.
    Only then are y = 0, 1, ... scanned for the least preimage, at most
    _SCAN_CAP of them: past that, with p larger still, it refuses.
    """
    require_odd_prime(p)
    if s not in (1, -1):
        raise ValueError("the preimage route needs norm +1 or -1")
    if k < 1:
        raise ValueError("k must be at least 1")
    ell = _legendre(x * x - 4 * s, p)
    if ell == 0:
        raise ValueError("p divides x^2 - 4s, so no exponent bound is defined")
    if (p - ell) % k:
        raise ValueError("k must divide p - ell")
    if s == -1:
        if k % 2 == 0:
            raise ValueError("with norm -1 the divisor must be odd")
        if x % p == 0:
            raise ValueError("with norm -1 the trace must be nonzero mod p")
    n = (p - ell) // k
    double, (t_n, u_n) = _ladder(x, s, 2 * n, 1, p)
    if (double if s == ell == -1 else (t_n, u_n)) != (2, 0):
        return None
    preimage = None
    for y in range(min(p, _SCAN_CAP)):
        if _lucas(y, s, k, p)[0] == x % p:
            preimage = y
            break
    if preimage is None:
        if p > _SCAN_CAP:
            raise ValueError(
                f"no trace preimage mod p = {p} among the first {_SCAN_CAP} values "
                "of y; the scan stops at that limit"
            )
        raise AssertionError(f"eta is a {k}-th power, yet no y < p = {p} has t_{k}(y) == {x}")
    if s == 1:
        checks = (
            check("t(n) == 2", (t_n - 2) % p == 0),
            check("u(n-1) == 0", u_n == 0),
        )
    else:
        checks = (
            check("t(n) == 2*ell", (t_n - 2 * ell) % p == 0),
            check("u(n-1) == 0", u_n == 0),
            check("t(2n) == 2", (double[0] - 2) % p == 0),
        )
    return DivisorBound(k=k, n=n, preimage=preimage, checks=checks)


@lru_cache(maxsize=0)  # holds nothing; it counts calls for perfbench's tracer and the tests
def q_of_p(x: int, s: int, p: int) -> int:
    """Least nu >= 1 with u_{nu-1}(x; s) == 0 mod p: conductor._entry_index at p.

    When p | s it is 2 if p | x; otherwise no index exists, and _entry_index
    refuses, as it refuses when factorize refuses p - ell (ValueError).
    """
    require_odd_prime(p)
    return _entry_index(*_pgl_class(x, s, p), p)


def analyze(alpha: QuadInt, p: int) -> OrderReport:
    """Dispatch to the right branch for alpha mod p and collect one report.

    Norm -1 with p == 3 (mod 4) or ell = -1 has no chain bound: its report
    asserts the exclusion congruences and the weaker alpha^{2(p-ell)} == 1
    instead.  Every claimed bound_n is at most p^2 - 1.  General mode
    claims p - 1, or (p + 1) * ord(s) with ord(s) dividing p - 1; the unit
    modes claim (p - ell) >> shift <= p + 1; the diagnostic claims
    2(p - ell) <= 2(p + 1) <= p^2 - 1, as p >= 3; degenerate claims none.
    """
    ell = _gate(alpha, p)
    x, s = alpha.trace_x, alpha.norm
    chain, half_applies = None, False
    # past ell == 0 (so p ∤ d), the gate meets every precondition of the modes below
    if ell == 0:
        mode, bound = "degenerate", None
        u_q = _lucas(x, s, _entry_index(*_pgl_class(x, s, p), p), p)[1]
        checks = [
            check("u(q-1) == 0", u_q == 0),
            check("alpha^q is scalar mod p", u_q * alpha.b % p == 0),
        ]
    elif s == -1 and (p % 4 == 3 or ell == -1):
        mode, bound = "norm_minus_one_diagnostic", 2 * (p - ell)
        checks = _norm_minus1_diagnostics(alpha, p, ell)
    elif s in (1, -1):
        mode = "norm_plus_one" if s == 1 else "norm_minus_one"
        chain, bound, half_applies, checks = _bound_unit(alpha, p, ell)
    else:
        mode = "general"
        checks, full = _table_cells(alpha, p, ell)
        if ell == 1:
            bound = p - 1
            checks.append(check("alpha^(p-1) == 1", _power_is(alpha, full, p, 1)))
        else:
            primes = [r for r, _ in factorize(p - 1).factors]
            order_s = _descend(p - 1, primes, lambda k: pow(s, k, p) == 1)
            bound = (p + 1) * order_s
            checks.append(check("alpha^(p+1) == s", _power_is(alpha, full, p, s)))
            # t_kn = t_k(t_n; s^n), u_{kn-1} = u_{k-1}(t_n; s^n) * u_{n-1}: n = p + 1, k = ord(s)
            t_kn, u_k = _lucas(full[0], pow(s, p + 1, p), order_s, p)
            checks.append(check("alpha^bound == 1", _power_is(alpha, (t_kn, u_k * full[1]), p, 1)))
    return OrderReport(p, x, s, ell, mode, bound, half_applies, chain, tuple(checks))
