from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

import quadorder.cheby as cheby
import quadorder.oracle as oracle_module
from quadorder.modarith import is_prime
from quadorder.oracle import oracle_n_of_f, oracle_order_mod_p, oracle_q_of_p
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
    # a mix of generic alpha, p | b (alpha is a rational residue) and alpha == 0 mod p
    p = draw(st.sampled_from(PRIMES_BELOW_5000))
    d = draw(st.sampled_from(RADICANDS))
    kind = draw(st.sampled_from(["generic", "p | b", "zero"]))
    a, b = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    if kind != "generic":
        b *= p
    if kind == "zero":
        a *= p
    if d % 4 == 1 and (a + b) % 2:
        a += p  # p is odd: the parity flips and a keeps its residue
    assume((a, b) != (0, 0))
    return QuadInt(a, b, d), p


@settings(max_examples=40, deadline=None)
@given(_order_cases())
def test_order_matches_matrix_scan_hypothesis(case):
    alpha, p = case
    cap = 2 * p + 10
    assert oracle_order_mod_p(alpha, p, cap).value == _matrix_order(alpha, p, cap)


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
