import hashlib
import math
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadorder import units
from quadorder.cli import main
from quadorder.modarith import factorize
from quadorder.quadint import QuadInt
from quadorder.units import fundamental_unit, is_unit

# (d, a, b) in the storage convention: the element is (a + b sqrt(d)) / 2
# when d == 1 mod 4 and a + b sqrt(d) otherwise
KNOWN_UNITS = {
    2: (1, 1, -1),
    3: (2, 1, 1),
    5: (1, 1, -1),
    6: (5, 2, 1),
    7: (8, 3, 1),
    10: (3, 1, -1),
    11: (10, 3, 1),
    13: (3, 1, -1),
    14: (15, 4, 1),
    17: (8, 2, -1),
    19: (170, 39, 1),
    21: (5, 1, 1),
    29: (5, 1, -1),
    94: (2143295, 221064, 1),
}


def test_fundamental_unit_frozen():
    for d, (a, b, norm) in KNOWN_UNITS.items():
        eps = fundamental_unit(d)
        assert (eps.a, eps.b) == (a, b), d
        assert eps.norm == norm, d
        assert is_unit(eps)


def test_fundamental_unit_exceeds_one():
    for d in (2, 3, 5, 6, 7, 10, 13, 94):
        assert fundamental_unit(d).approx() > 1


def brute_minimal_unit(d, b_cap=10**6):
    """Smallest unit above 1 by scanning the irrational part upward.

    Units above 1 have strictly growing irrational parts under powering, so
    the first b that admits a unit carries the fundamental one.
    """
    targets = (-4, 4) if d % 4 == 1 else (-1, 1)
    for b in range(1, b_cap):
        n = d * b * b
        for delta in targets:
            a2 = n + delta
            if a2 > 0 and math.isqrt(a2) ** 2 == a2:
                a = math.isqrt(a2)
                if d % 4 == 1 and (a + b) % 2 != 0:
                    continue
                return QuadInt(a, b, d)
    raise AssertionError("no unit found")


def test_minimality_small_range():
    for d in range(2, 31):
        if any(d % (q * q) == 0 for q in range(2, 6)):
            continue
        eps = fundamental_unit(d)
        brute = brute_minimal_unit(d)
        assert eps == brute, d


def test_is_unit():
    assert is_unit(QuadInt(1, 1, 2))
    assert is_unit(QuadInt(0, 1, -1))
    assert not is_unit(QuadInt(1, 1, 3))
    assert not is_unit(QuadInt(0, 0, 2))


def norm_every_convergent(d):
    """The first convergent h/y of sqrt(d), or of (1 + sqrt(d))/2 when
    d == 1 (mod 4), whose candidate unit has norm +-1, and the number of
    digits it took, which is the length of the period.

    Norms every convergent instead of watching Q return to its start, so
    it is a second route to the unit; the candidate for the half-integer
    expansion is (2h - y, y).
    """
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    h2, h1 = 0, 1
    y2, y1 = 1, 0
    steps = 0
    while True:
        a = (P + math.isqrt(d)) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        h2, h1 = h1, a * h1 + h2
        y2, y1 = y1, a * y1 + y2
        steps += 1
        if d % 4 == 1:
            cand_a, cand_b = 2 * h1 - y1, y1
            norm = (cand_a * cand_a - d * cand_b * cand_b) // 4
        else:
            cand_a, cand_b = h1, y1
            norm = cand_a * cand_a - d * cand_b * cand_b
        if norm in (1, -1):
            return QuadInt(cand_a, cand_b, d), steps


def norm_every_convergent_unit(d):
    return norm_every_convergent(d)[0]


def is_squarefree(d):
    return factorize(d).is_squarefree()


def test_matches_norm_every_convergent_below_5000():
    mismatches = [
        d for d in range(2, 5000)
        if is_squarefree(d) and fundamental_unit(d) != norm_every_convergent_unit(d)
    ]
    assert mismatches == []


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=5000, max_value=10**7))
def test_matches_norm_every_convergent_hypothesis(d):
    assume(is_squarefree(d))
    assert fundamental_unit(d) == norm_every_convergent_unit(d)


# sha256 of f"{a},{b}" for fundamental_unit(10**9 + 7) as the
# norm-every-convergent loop gives it; y has 21,183 bits
UNIT_1E9_7_SHA256 = "ce48455d4b22204281f474b148c5d753ff64534857664e4e89e24f6ad0a64c51"


def test_large_unit_pinned_and_fast():
    d = 10**9 + 7
    times = []
    for _ in range(3):
        start = time.perf_counter()
        eps = fundamental_unit(d)
        times.append(time.perf_counter() - start)
    assert eps.a * eps.a - d * eps.b * eps.b in (1, -1)
    # the coordinates run past the default 4300-digit int -> str limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = f"{eps.a},{eps.b}"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert hashlib.sha256(text.encode()).hexdigest() == UNIT_1E9_7_SHA256
    assert min(times) < 1.0, times


def test_refuses_past_the_step_cap(monkeypatch, capsys):
    monkeypatch.setattr(units, "_STEP_CAP", 100)
    with pytest.raises(ValueError) as info:
        fundamental_unit(10**9 + 7)
    message = str(info.value)
    assert "1000000007" in message and "100 steps" in message
    assert main(["fundunit", "--d", "1000000007"]) == 2
    assert message in capsys.readouterr().err


def test_refuses_at_the_default_cap_quickly():
    # the period of 10**12 + 39 is 532,572 steps, past the cap of 10**5
    start = time.perf_counter()
    with pytest.raises(ValueError, match="1000000000039 .* limit of 100000 steps"):
        fundamental_unit(10**12 + 39)
    assert time.perf_counter() - start < 3.0


def refusal_text(d, cap):
    return (
        f"the continued fraction for d = {d} did not close its period "
        f"within the limit of {cap} steps"
    )


# one radicand of each kind: (d, period length), by parity of the period
# and by d mod 4
PERIOD_KINDS = {
    "even period, d = 3 mod 4": (571, 42),
    "even period, d = 1 mod 4": (889, 42),
    "odd period, d = 2 mod 4": (2458, 43),
    "odd period, d = 1 mod 4": (1201, 53),
}


@pytest.mark.parametrize("kind", sorted(PERIOD_KINDS))
def test_half_period_walk_at_the_cap(kind, monkeypatch):
    # the walk stops at the centre, so the cap is decided from the period's
    # parity there; a period of exactly _STEP_CAP digits is still answered
    d, length = PERIOD_KINDS[kind]
    expected, steps = norm_every_convergent(d)
    assert steps == length
    assert (length % 2 == 0) == kind.startswith("even")
    assert (d % 4 == 1) == kind.endswith("1 mod 4")
    monkeypatch.setattr(units, "_STEP_CAP", length)
    assert fundamental_unit(d) == expected
    monkeypatch.setattr(units, "_STEP_CAP", length - 1)
    with pytest.raises(ValueError) as info:
        fundamental_unit(d)
    assert str(info.value) == refusal_text(d, length - 1)


def test_cap_decides_every_period_below_400(monkeypatch):
    for d in range(2, 400):
        if not is_squarefree(d):
            continue
        expected, length = norm_every_convergent(d)
        for cap in (length - 2, length - 1, length, length + 1):
            monkeypatch.setattr(units, "_STEP_CAP", max(cap, 0))
            if cap < length:
                with pytest.raises(ValueError) as info:
                    fundamental_unit(d)
                assert str(info.value) == refusal_text(d, max(cap, 0)), (d, cap)
            else:
                assert fundamental_unit(d) == expected, (d, cap)
