"""Fundamental units of real quadratic fields via continued fractions.

The expansion runs on states (P + sqrt(d))/Q; convergents h/y are
accumulated alongside and each one is normed until the first unit
appears.  That first hit is the fundamental unit: the period of the
expansion closes exactly where the norm form returns to +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .quadint import QuadInt, _check_radicand

_STEP_CAP = 10**5


@dataclass(frozen=True)
class CFState:
    """(P + sqrt(d)) / Q with Q dividing d - P^2, so steps stay integral."""

    P: int
    Q: int
    d: int

    def __post_init__(self) -> None:
        if self.d <= 1:
            raise ValueError("d must exceed 1")
        if self.Q == 0:
            raise ValueError("Q must be nonzero")
        if (self.d - self.P * self.P) % self.Q:
            raise ValueError("Q must divide d - P^2")

    def digit(self) -> int:
        return (self.P + isqrt(self.d)) // self.Q

    def step(self) -> tuple[int, "CFState"]:
        a = self.digit()
        nxt = a * self.Q - self.P
        return a, CFState(nxt, (self.d - nxt * nxt) // self.Q, self.d)


def fundamental_unit(d: int) -> QuadInt:
    """Smallest unit above 1 in the maximal order of the field of sqrt(d).

    Expands sqrt(d), or (1 + sqrt(d))/2 when d == 1 (mod 4), and tests
    every convergent h/y; the half-integer candidate is (2h - y, y).
    """
    if d <= 1:
        raise ValueError("d must be a square-free integer greater than 1")
    _check_radicand(d)
    state = CFState(1, 2, d) if d % 4 == 1 else CFState(0, 1, d)
    h2, h1 = 0, 1
    y2, y1 = 1, 0
    for _ in range(_STEP_CAP):
        a, state = state.step()
        h2, h1 = h1, a * h1 + h2
        y2, y1 = y1, a * y1 + y2
        if d % 4 == 1:
            cand_a, cand_b = 2 * h1 - y1, y1
            norm = (cand_a * cand_a - d * cand_b * cand_b) // 4
        else:
            cand_a, cand_b = h1, y1
            norm = cand_a * cand_a - d * cand_b * cand_b
        if norm in (1, -1):
            return QuadInt(cand_a, cand_b, d)
    raise RuntimeError("no unit surfaced within the step cap")


def is_unit(alpha: QuadInt) -> bool:
    return abs(alpha.norm) == 1
