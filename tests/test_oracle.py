import ast
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import quadorder.cheby as cheby
import quadorder.oracle as oracle_module
from quadorder.modarith import is_prime
from quadorder.oracle import DEFAULT_CAP, oracle_n_of_f, oracle_order_mod_p, oracle_q_of_p
from quadorder.quadint import Mat2, QuadInt

PRIMES_BELOW_5000 = [p for p in range(3, 5000) if is_prime(p)]
RADICANDS = [-7, -3, -1, 2, 3, 5, 6, 13, 17, 21]
# caps w*k - 1, w*k and w*k + 1 for their own window size w = isqrt(cap) + 1
WINDOW_EDGE_CAPS = [c for c in range(1, 3700) if (c + 1) % (math.isqrt(c) + 1) <= 2]


def _matrix_order(alpha, p, cap):
    """First nu with embed(alpha)^nu == I mod p, by matrix products: the second route."""
    base = alpha.embed() % p
    acc = base
    for nu in range(1, cap + 1):
        if acc == Mat2.identity():
            return nu
        acc = (acc * base) % p
    return None


def _matrix_power_mod(m, n, p):
    """m^n mod p by square-and-multiply on Mat2."""
    result = Mat2.identity()
    while n:
        if n & 1:
            result = result * m % p
        m, n = m * m % p, n >> 1
    return result


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


def test_imports_are_pinned():
    # math, typing and the two names below are all the order scan may reach for
    tree = ast.parse(Path(oracle_module.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            found.update(f".{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    assert found == {
        "__future__", "math", "typing", ".modarith.require_odd_prime", ".quadint.QuadInt",
    }


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


@st.composite
def _window_cases(draw):
    # generic alpha at p < 60, and alpha of order 1, 2, 3, 4 or 6: below the window size of
    # most caps, so alpha^-j repeats in the table and only the least j may be kept
    p = draw(st.sampled_from([q for q in PRIMES_BELOW_5000 if q < 60]))
    d = draw(st.sampled_from(RADICANDS))
    kind = draw(st.sampled_from(["generic", "+-1", 3, 4, 6]))
    half = 2 if d % 4 == 1 else 1  # QuadInt(a, b, d) is (a + b*sqrt(d))/2 when d == 1 (mod 4)
    if kind == "generic":
        x, y = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        assume((x, y) != (0, 0))
    elif kind == "+-1":
        x, y = draw(st.sampled_from([1, p - 1])), 0
    else:
        # rational roots of unity, and those of norm 1 and trace t = -1, 0, 1 for order
        # 3, 4, 6, which solve alpha^2 - t*alpha + 1 == 0 with x = t/2
        t = {3: -1, 4: 0, 6: 1}[kind]
        pairs = [(c, 0) for c in range(1, p)] + [
            (t * (p + 1) // 2 % p, y) for y in range(1, p) if (t * t - 4 * d * y * y - 4) % p == 0
        ]
        roots = [
            (c, y) for c, y in pairs if _matrix_order(QuadInt(half * c, half * y, d), p, 6) == kind
        ]
        assume(roots)
        x, y = draw(st.sampled_from(roots))
    alpha = QuadInt(half * x, half * y, d)
    return alpha, p


@settings(max_examples=150, deadline=None)
@given(_window_cases(), st.lists(st.sampled_from(WINDOW_EDGE_CAPS), min_size=1, max_size=3))
def test_order_at_window_edges_matches_matrix_scan_hypothesis(case, edge_caps):
    # every unit's order divides p^2 - 1, p - 1 or p*(p - 1), so a cap of p^2 finds it
    alpha, p = case
    order = _matrix_order(alpha, p, p * p)
    near = [] if order is None else [order - 1, order, order + 1]
    for cap in edge_caps + near + [p * p - 1, p * p]:
        expected = order if order is not None and order <= cap else None
        assert oracle_order_mod_p(alpha, p, cap) == (expected, cap), cap


def test_full_order_at_997_in_a_few_square_roots():
    # 3 + sqrt(2) is a generator mod 997: 2 is a non-residue, so its order divides
    # 997^2 - 1 = 994008 = 2^3 * 3 * 83 * 499, and matrix powers certify that it is all of it
    alpha, p = QuadInt(3, 1, 2), 997
    t0 = time.perf_counter()
    assert oracle_order_mod_p(alpha, p) == (994008, DEFAULT_CAP)
    assert time.perf_counter() - t0 < 0.02
    base = alpha.embed() % p
    assert _matrix_power_mod(base, 994008, p) == Mat2.identity()
    for r in (2, 3, 83, 499):
        assert _matrix_power_mod(base, 994008 // r, p) != Mat2.identity()


def test_order_matches_sympy_n_order_at_split_primes():
    # at a split p, Z[sqrt(d)] mod p is F_p x F_p through sqrt(d) -> r for both roots r,
    # so the order is the lcm of the two residues' multiplicative orders
    sympy = pytest.importorskip("sympy")
    rng = random.Random(45)
    primes = list(sympy.primerange(5, 20000))
    checked = 0
    while checked < 200:
        p, d = rng.choice(primes), rng.choice(RADICANDS)
        if d % p == 0 or sympy.legendre_symbol(d % p, p) != 1:
            continue
        a, b = rng.randrange(-p, p), rng.randrange(1, p)
        if d % 4 == 1 and (a + b) % 2:
            a += p
        h = pow(2, -1, p) if d % 4 == 1 else 1
        images = [(a + b * r) * h % p for r in sympy.sqrt_mod(d, p, all_roots=True)]
        expected = None if 0 in images else math.lcm(*(sympy.n_order(z, p) for z in images))
        assert oracle_order_mod_p(QuadInt(a, b, d), p, p).value == expected, (a, b, d, p)
        checked += 1


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
    assert oracle_order_mod_p(QuadInt(1, 0, 2), 7, cap=-3) == (None, -3)


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
