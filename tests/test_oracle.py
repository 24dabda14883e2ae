import time
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

import quadorder.cheby as cheby
import quadorder.oracle as oracle_module
from quadorder.modarith import is_prime
from quadorder.oracle import DEFAULT_CAP, oracle_n_of_f, oracle_order_mod_p, oracle_q_of_p
from quadorder.quadint import Mat2, QuadInt

PRIMES_BELOW_5000 = [p for p in range(3, 5000) if is_prime(p)]
RADICANDS = [-7, -3, -1, 2, 3, 5, 6, 13, 17, 21]


def _matrix_order(alpha, p, cap):
    """First nu with embed(alpha)^nu == I mod p, by matrix products: the second route."""
    base = alpha.embed() % p
    acc = base
    for nu in range(1, cap + 1):
        if acc == Mat2.identity():
            return nu
        acc = (acc * base) % p
    return None


def _exact_power_n_of_f(alpha, f, cap):
    """First nu with f | b(alpha^nu), by exact QuadInt powers; the reference loop."""
    beta = alpha
    for nu in range(1, cap + 1):
        if beta.in_order(f):
            return nu
        beta = beta * alpha
    return None


def test_source_does_not_touch_the_polynomial_route():
    # the cross-check is only independent if this module never leans on it
    src = Path(oracle_module.__file__).read_text(encoding="utf-8")
    assert "cheby" not in src
    assert "eval_fast" not in src
    assert "embed" not in src


def test_scans_use_no_quadint_arithmetic_or_lucas(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call the routes it checks")

    monkeypatch.setattr(QuadInt, "__mul__", refuse)
    monkeypatch.setattr(QuadInt, "__pow__", refuse)
    monkeypatch.setattr(cheby, "_lucas", refuse)
    assert oracle_order_mod_p(QuadInt(1, 1, 2), 17).value == 16
    assert oracle_order_mod_p(QuadInt(1, 1, 5), 11).value == 10
    assert oracle_n_of_f(QuadInt(1, 1, 2), 3).value == 4
    assert oracle_n_of_f(QuadInt(1, 1, 5), 5).value == 5


@st.composite
def _order_cases(draw):
    # generic alpha, p | b (alpha is a rational residue), alpha == 0 and +-1 mod p, a rational
    # residue of odd order, p | d (alpha = a + b*sqrt(d) is nilpotent when also p | a), and
    # alpha = r + sqrt(d) at a split p with r^2 == d, a zero divisor that is not 0 mod p
    p = draw(st.sampled_from(PRIMES_BELOW_5000))
    d = draw(st.sampled_from(RADICANDS))
    kind = draw(
        st.sampled_from(["generic", "p | b", "zero", "+-1", "odd", "p | d", "nilpotent", "split"])
    )
    a, b = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    if kind in ("p | b", "zero", "+-1", "odd"):
        b *= p
    if kind == "zero":
        a *= p
    half = 2 if d % 4 == 1 else 1  # QuadInt(a, b, d) is (a + b*sqrt(d))/2 when d == 1 (mod 4)
    if kind == "+-1":
        a = draw(st.sampled_from([half, -half])) + a * p
    if kind == "odd":
        assume(a % p)
        two_part = (p - 1) & (1 - p)  # 2^v exactly dividing p - 1, so a^(2^v) has odd order
        a = half * pow(a, two_part, p)
    if kind in ("p | d", "nilpotent"):
        d = p * draw(st.sampled_from([1, -1, 2, -2]))
        assume(b % p)
    if kind == "nilpotent":
        a *= p
    if kind == "split":
        a, b = next(((r, 1) for r in range(p) if (r * r - d) % p == 0), (0, 0))
    if d % 4 == 1 and (a + b) % 2:
        a += p  # p is odd: the parity flips and a keeps its residue
    assume((a, b) != (0, 0))
    return QuadInt(a, b, d), p


@settings(max_examples=80, deadline=None)
@given(_order_cases(), st.data())
def test_order_matches_matrix_scan_hypothesis(case, data):
    # caps on both sides of the order reach both parities of the last exponent tested
    alpha, p = case
    order = _matrix_order(alpha, p, 2 * p + 10)
    near = [] if order is None else [order - 1, order, order + 1]
    cap = data.draw(st.sampled_from([0, 1, 2, 2 * p + 10] + near), label="cap")
    assert oracle_order_mod_p(alpha, p, cap) == (_matrix_order(alpha, p, cap), cap)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(RADICANDS),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.one_of(st.integers(1, 300), st.integers(1, 150).map(lambda k: 2 * k)),
)
def test_n_of_f_matches_exact_powers_hypothesis(d, a, b, f):
    if d % 4 == 1 and (a + b) % 2:
        a += 1
    alpha = QuadInt(a, b, d)
    cap = 1000
    assert oracle_n_of_f(alpha, f, cap).value == _exact_power_n_of_f(alpha, f, cap)


def test_order_frozen():
    assert oracle_order_mod_p(QuadInt(1, 1, 2), 7).value == 6
    assert oracle_order_mod_p(QuadInt(1, 1, 2), 17).value == 16
    assert oracle_order_mod_p(QuadInt(2, 1, 3), 11).value == 10
    assert oracle_order_mod_p(QuadInt(1, 1, 5), 11).value == 10
    assert oracle_order_mod_p(QuadInt(3, 0, 2), 7).value == 6  # 3 has order 6 mod 7


def test_order_of_one():
    assert oracle_order_mod_p(QuadInt.one(2), 7).value == 1
    assert oracle_order_mod_p(QuadInt(-1, 0, 2), 7).value == 2


def test_order_cap():
    res = oracle_order_mod_p(QuadInt(1, 1, 2), 17, cap=10)
    assert res.value is None
    assert res.cap == 10
    # the cap counts exponents of both parities: -3 + 2*sqrt(2) has order 7 mod 13
    assert oracle_order_mod_p(QuadInt(-3, 2, 2), 13, cap=6) == (None, 6)
    assert oracle_order_mod_p(QuadInt(-3, 2, 2), 13, cap=7) == (7, 7)
    assert oracle_order_mod_p(QuadInt(1, 1, 2), 17, cap=15) == (None, 15)
    assert oracle_order_mod_p(QuadInt(1, 1, 2), 17, cap=16) == (16, 16)
    assert oracle_order_mod_p(QuadInt(-1, 0, 2), 7, cap=1) == (None, 1)
    assert oracle_order_mod_p(QuadInt(1, 0, 2), 7, cap=0) == (None, 0)


def test_zero_divisors_return_at_once():
    # sqrt(14) is nilpotent mod 7 and 3^2 == 2 mod 7 makes 3 + sqrt(2) a zero divisor:
    # no power of either is 1, which the norm shows without walking the whole cap
    for alpha in (QuadInt(0, 1, 14), QuadInt(3, 1, 2)):
        t0 = time.perf_counter()
        assert oracle_order_mod_p(alpha, 7) == (None, DEFAULT_CAP)
        assert time.perf_counter() - t0 < 0.02


def test_order_matches_matrix_scan():
    for alpha, p in [
        (QuadInt(1, 1, 2), 13),
        (QuadInt(2, 1, 3), 7),
        (QuadInt(1, 1, 5), 19),
        (QuadInt(1, 1, 6), 7),
    ]:
        claimed = oracle_order_mod_p(alpha, p, cap=600).value
        assert claimed is not None
        assert _matrix_order(alpha, p, 600) == claimed


def test_n_of_f_frozen():
    assert oracle_n_of_f(QuadInt(1, 1, 2), 3).value == 4
    assert oracle_n_of_f(QuadInt(1, 1, 5), 2).value == 3
    assert oracle_n_of_f(QuadInt(1, 1, 5), 5).value == 5
    assert oracle_n_of_f(QuadInt(1, 1, 2), 1).value == 1


def test_n_of_f_cap():
    res = oracle_n_of_f(QuadInt(1, 1, 6), 5, cap=50)
    assert res.value is None


def test_q_of_p_frozen():
    assert oracle_q_of_p(2, -1, 3).value == 4
    assert oracle_q_of_p(1, -1, 7).value == 8
    assert oracle_q_of_p(1, -1, 5).value == 5
    assert oracle_q_of_p(7, 1, 7).value == 2
    assert oracle_q_of_p(1, 5, 5, cap=40).value is None
