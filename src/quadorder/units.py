"""Fundamental units of real quadratic fields via continued fractions.

Half a pass over the period of sqrt(d), or of (1 + sqrt(d))/2 when
d == 1 (mod 4), on plain integer states (P + sqrt(d))/Q.  The digits
a_1 .. a_(L-1) of a period of length L read the same both ways, and so do
the states: the walk is at the centre at the first k with Q_(k+1) == Q_k,
where L = 2k + 1, or with P_(k+1) == P_k, where L = 2k (Perron; Jacobson
and Williams, Solving the Pell Equation, 2009).
The matrix product A_1 ... A_(L-1) of the palindrome is then N * N^T or
N * C * N^T, with N the product of the digits' matrices before the centre
and C the centre digit's, so the convergent h/y that closes the period is
built from the half period's digits only, after the walk, which itself
stays on small integers.  The unit is h + y*sqrt(d), or (2h - y, y) in the
half-integer storage convention, and it is normed once at the end.
The period may be at most _STEP_CAP digits long; past that the call
refuses, after about _STEP_CAP/2 steps, with a ValueError naming d and
the limit, as every other budget does.
"""

from __future__ import annotations

from math import isqrt

from .quadint import QuadInt, _check_radicand

_STEP_CAP = 10**5


def fundamental_unit(d: int) -> QuadInt:
    """Smallest unit above 1 in the maximal order of the real field of sqrt(d), d > 1.

    Expands sqrt(d), or (1 + sqrt(d))/2 when d == 1 (mod 4), to the centre
    of its first period; the unit is h + y*sqrt(d) from the period's last
    convergent h/y, or (2h - y, y) in the half-integer storage convention.
    """
    if d < 0:
        raise ValueError(f"d = {d} < 0: units of imaginary fields are roots of unity, none above 1")
    _check_radicand(d)
    half = d % 4 == 1
    root = isqrt(d)
    P, Q = (1, 2) if half else (0, 1)
    digits = [(P + root) // Q]
    for k in range(_STEP_CAP // 2 + 1):
        a = digits[k]
        P_next = a * Q - P
        Q_next = (d - P_next * P_next) // Q
        if Q_next == Q or P_next == P:  # both hold only for d = 5, at k = 0
            length = 2 * k + 1 if Q_next == Q else 2 * k
            break
        P, Q = P_next, Q_next
        digits.append((P + root) // Q)
    else:
        length = 2 * k + 2  # no centre up to step k leaves no shorter period
    if length > _STEP_CAP:
        raise ValueError(
            f"the continued fraction for d = {d} did not close its period "
            f"within the limit of {_STEP_CAP} steps"
        )
    # M = A_1 ... A_k = [[h1, h2], [y1, y2]]; the palindrome's product is
    # M * N^T, with N = M for an odd period and N = A_1 ... A_(k-1) for an
    # even one, whose first row is (h2, h1 - a_k * h2)
    h2, h1 = 0, 1
    y2, y1 = 1, 0
    for a in digits[1:]:
        h2, h1 = h1, a * h1 + h2
        y2, y1 = y1, a * y1 + y2
    n11, n12 = (h1, h2) if length % 2 else (h2, h1 - digits[-1] * h2)
    s11 = h1 * n11 + h2 * n12  # first column of M * N^T
    s21 = y1 * n11 + y2 * n12
    h, y = digits[0] * s11 + s21, s11
    eps = QuadInt(2 * h - y, y, d) if half else QuadInt(h, y, d)
    if eps.norm not in (1, -1):
        raise AssertionError(f"the period of d = {d} closed at a norm other than +-1")
    return eps


def is_unit(alpha: QuadInt) -> bool:
    return abs(alpha.norm) == 1
