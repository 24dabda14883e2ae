"""alpha = a + b*sqrt(d) and its conjugate a - b*sqrt(d) get the same reports.

Both have trace x and norm s, so the same image in GL(2, Z); conjugation is
a ring automorphism mod p that fixes 1, so the orders agree, and
conj(alpha)^n = a_n - b_n*sqrt(d), so f | b_n is one test for both. The
sweep builds each pair's reports once on this fact.
"""

from math import isqrt

from hypothesis import given, settings, strategies as st

from quadorder.conductor import bound_full
from quadorder.ordersolver import analyze
from quadorder.quadint import QuadInt

SQUAREFREE = [
    d for d in range(-200, 201)
    if abs(d) >= 2 and all(d % (q * q) for q in range(2, isqrt(abs(d)) + 1))
]
ODD_PRIMES = [p for p in range(3, 10**4, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2))]


def _outcome(build, alpha: QuadInt, modulus: int):
    """The report, or the refusal's text; either must match the conjugate's."""
    try:
        return build(alpha, modulus)
    except ValueError as exc:
        return f"refused: {exc}"


def _assert_conjugates_agree(alpha: QuadInt, primes, conductors) -> None:
    conj = QuadInt(alpha.a, -alpha.b, alpha.d)
    for build, moduli in ((analyze, primes), (bound_full, conductors)):
        for m in moduli:
            assert _outcome(build, alpha, m) == _outcome(build, conj, m), (alpha, m)


def test_conjugates_agree_on_the_default_sweep_grid():
    # d-set 2,3,5, |a|, |b| <= 6, odd primes below 100 and f <= 60, as `quadorder sweep`
    primes = [p for p in ODD_PRIMES if p < 100]
    cases = 0
    for d in (2, 3, 5):
        for a in range(-6, 7):
            for b in range(1, 7):
                if d % 4 == 1 and (a + b) % 2:
                    continue
                _assert_conjugates_agree(QuadInt(a, b, d), primes, range(1, 61))
                cases += 1
    assert cases == 195


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(SQUAREFREE),
    st.integers(-10**4, 10**4),
    st.integers(-10**4, 10**4).filter(bool),
    st.sampled_from(ODD_PRIMES),
    st.integers(1, 2000),
)
def test_conjugates_agree_hypothesis(d, a, b, p, f):
    if d % 4 == 1 and (a + b) % 2:
        a += 1
    _assert_conjugates_agree(QuadInt(a, b, d), [p], [f])
