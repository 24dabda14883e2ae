"""Fundamental units of real quadratic fields via continued fractions.

One pass over the period of sqrt(d), or of (1 + sqrt(d))/2 when
d == 1 (mod 4), on plain integer states (P + sqrt(d))/Q.  The norm of
the candidate unit from the convergent h_k/y_k is (-1)^(k+1) * Q_{k+1},
halved for the half-integer candidate (2h - y, y), so it is +-1 exactly
where Q returns to its start value, which closes the period.
The convergent is built from the period's digits only then, so the pass
itself stays on small integers, and the unit is normed once at the end.
The period may take at most _STEP_CAP steps; past that the call refuses
with a RuntimeError naming d and the limit.
"""

from __future__ import annotations

from math import isqrt

from .quadint import QuadInt, _check_radicand

_STEP_CAP = 10**5


def fundamental_unit(d: int) -> QuadInt:
    """Smallest unit above 1 in the maximal order of the field of sqrt(d).

    Expands sqrt(d), or (1 + sqrt(d))/2 when d == 1 (mod 4), to the end
    of its first period; the unit is h + y*sqrt(d) from the last
    convergent h/y, or (2h - y, y) in the half-integer storage convention.
    """
    if d <= 1:
        raise ValueError("d must be a square-free integer greater than 1")
    _check_radicand(d)
    half = d % 4 == 1
    root = isqrt(d)
    P, Q = (1, 2) if half else (0, 1)
    start = Q
    digits = []
    for _ in range(_STEP_CAP):
        a = (P + root) // Q
        digits.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == start:
            break
    else:
        raise RuntimeError(
            f"the continued fraction for d = {d} did not close its period "
            f"within the limit of {_STEP_CAP} steps"
        )
    h2, h1 = 0, 1
    y2, y1 = 1, 0
    for a in digits:
        h2, h1 = h1, a * h1 + h2
        y2, y1 = y1, a * y1 + y2
    eps = QuadInt(2 * h1 - y1, y1, d) if half else QuadInt(h1, y1, d)
    if eps.norm not in (1, -1):
        raise AssertionError(f"the period of d = {d} closed at a norm other than +-1")
    return eps


def is_unit(alpha: QuadInt) -> bool:
    return abs(alpha.norm) == 1
