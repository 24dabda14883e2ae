import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadorder import conductor
from quadorder.cheby import _lucas, _order_descent, _pgl_class
from quadorder.conductor import (
    PrimeBound,
    bound_full,
    bound_multiplicative,
    bound_prime_power,
    n_of_f,
)
from quadorder.modarith import factorize, is_prime, legendre
from quadorder.oracle import oracle_n_of_f
from quadorder.ordersolver import q_of_p
from quadorder.quadint import QuadInt

R2 = QuadInt(1, 1, 2)
PHI = QuadInt(1, 1, 5)


def test_reduce_f_frozen():
    # f0 = f / gcd(b, f), and the common factor c = f // f0
    for b, c, f0 in ((1, 1, 45), (12, 3, 15), (45, 45, 1), (-12, 3, 15)):
        report = bound_full(QuadInt(1, b, 2), 45)
        assert (45 // report.f0, report.f0) == (c, f0), b


def test_rational_alpha_is_refused_before_the_conductor():
    # b = 0 is refused first, with one text, even beside a conductor below 1
    text = "b = 0 is rational; n(f) = 1 for every conductor"
    for f in (45, 0):
        with pytest.raises(ValueError) as info:
            bound_full(QuadInt(3, 0, 2), f)
        assert str(info.value) == text


def test_n_of_f_frozen():
    assert n_of_f(R2, 1) == 1
    assert n_of_f(R2, 3) == 4
    assert n_of_f(R2, 5) == 3
    assert n_of_f(R2, 9) == 12
    assert n_of_f(R2, 45) == 12
    assert n_of_f(PHI, 5) == 5
    assert n_of_f(PHI, 2) == 3


def test_entry_index_caches_only_the_index():
    # R2 = 1 + sqrt(2) has trace 2 and norm -1; f0 = 45
    assert type(conductor._entry_index(2, -1, 45)) is int
    assert conductor._entry_index(2, -1, 45) == n_of_f(R2, 45) == 12


def reference_q(x, s, p):
    """q(p) for an odd prime p not dividing s, by descent from p - ell, or p when ell = 0."""
    ell = legendre(x * x - 4 * s, p)
    if ell == 0:
        return p
    return _order_descent(x, s, p, p - ell, [r for r, _ in factorize(p - ell).factors])


def reference_entry_index(x, s, f0):
    """n(f) by one order descent mod the whole of f0: a second route to
    _entry_index's lcm of prime-power indices, which uses no _entry_index value."""
    factors = factorize(f0).factors
    for p, _ in factors:
        if s % p == 0 and x % p != 0:
            raise ValueError(
                f"no power of alpha has its irrational part divisible by {p}: "
                "the cofactor sequence never vanishes there"
            )
    coprime = [(p, k) for p, k in factors if s % p]
    part_a = math.prod(p**k for p, k in coprime)
    mult = math.lcm(*(reference_q(x, s, p) * p ** (k - 1) for p, k in coprime if p != 2))
    # mult exceeds n(A) only at primes of A, and at 3 through the 6 for p = 2
    primes = [p for p, _ in coprime]
    if part_a % 2 == 0:
        mult = math.lcm(mult, 3 * (part_a & -part_a))
        primes.append(3)
    n_a = _order_descent(x, s, part_a, mult, primes)
    if part_a == f0:
        return n_a
    shared_k = max(k for p, k in factors if s % p == 0)
    for j in range(1, 2 * shared_k + 1):
        if _lucas(x, s, j * n_a, f0)[1] == 0:
            return j * n_a
    raise AssertionError(f"u does not vanish mod {f0} by index {2 * shared_k * n_a}")


def _value_or_refusal(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


# prime powers up to 2^10, 3^6, 7^4 and 5^5, and 2^3 * 11^2, 3^3 * 13^2 and 3^2 * 5^2 * 7^2
PANEL_F0 = [*range(1, 101), 512, 729, 968, 1024, 2401, 3125, 4563, 11025]


def test_entry_index_matches_one_descent_mod_f0():
    # every (x, s) with |x| <= 8 and 0 < |s| <= 9, unreduced and reduced mod f0
    for f0 in PANEL_F0:
        for x in range(-8, 9):
            for s in range(-9, 10):
                if s == 0:
                    continue
                expected = _value_or_refusal(reference_entry_index, x, s, f0)
                got = _value_or_refusal(conductor._entry_index, x, s, f0)
                assert got == expected, (x, s, f0)
                got = _value_or_refusal(conductor._entry_index, x % f0, s % f0, f0)
                assert got == expected, (x % f0, s % f0, f0)


def test_pgl_class_contract():
    # (1, s/x^2) mod m for a unit x, else the residues: x == 0, p | x and m = 1 included
    assert _pgl_class(2, 3, 5) == (1, 2)  # 1/2 == 3, so s/x^2 == 27 == 2
    assert _pgl_class(6, 13, 5) == (1, 3)  # x == 1: no inverse taken
    assert _pgl_class(0, 7, 5) == (0, 2)
    assert _pgl_class(14, -3, 7) == (0, 4)
    assert _pgl_class(6, 5, 45) == (6, 5)  # 3 | 6 and 3 | 45
    assert _pgl_class(5, 8, 1) == (0, 0)
    rng = random.Random(27)
    for m in [1, 2, 3, 4, 5, 9, 12, 45, 97, 1024, 2000]:
        for _ in range(200):
            x, s = rng.randrange(-3 * m, 3 * m), rng.randrange(-3 * m, 3 * m)
            if math.gcd(x, m) == 1:
                inverse = pow(x, -1, m)
                assert _pgl_class(x, s, m) == (1 % m, s * inverse * inverse % m), (x, s, m)
            else:
                assert _pgl_class(x, s, m) == (x % m, s % m), (x, s, m)


def _draw_unit(rng, m):
    while True:
        c = rng.randrange(m)
        if math.gcd(c, m) == 1:
            return c


def test_index_caches_agree_on_each_pgl2_class():
    # the index cache is keyed by class, so _entry_index and its front q_of_p must give
    # (x, s) and (cx, c^2 s) the same index, or the same refusal, for every unit c mod m
    primes = [p for p in range(2, 10**4) if is_prime(p)]
    powers = [p**k for p in primes for k in range(1, 14) if p**k <= 10**4]
    cases = [(q_of_p, (p,), p) for p in primes if 2 < p < 500]
    cases += [(conductor._entry_index, (m,), m) for m in [*powers, *range(1, 2001)]]
    rng = random.Random(27)
    for fn, rest, m in cases:
        for _ in range(3):
            x, s, c = rng.randrange(m), rng.randrange(m), _draw_unit(rng, m)
            expected = _value_or_refusal(fn, x, s, *rest)
            assert _value_or_refusal(fn, c * x % m, c * c * s % m, *rest) == expected, (
                fn.__name__, x, s, c, rest)


def test_entry_index_strict_at_a_wall_sun_sun_prime():
    # 13 and 31 divide u_{q(p)-1} of 1 + sqrt(2) twice (OEIS A238736), so there
    # n(p^2) = q(p), below the bound q(p) * p
    assert (q_of_p(2, -1, 13), n_of_f(R2, 169)) == (7, 7)
    assert (q_of_p(2, -1, 31), n_of_f(R2, 961)) == (30, 30)
    assert oracle_n_of_f(R2, 169, cap=20).value == 7
    assert n_of_f(R2, 13**3) == 7 * 13
    assert n_of_f(R2, 11**2) == q_of_p(2, -1, 11) * 11


def test_n_of_f_matches_oracle():
    for alpha in (R2, PHI, QuadInt(2, 1, 3), QuadInt(3, 1, 5), QuadInt(1, 1, -7)):
        for f in range(1, 40):
            try:
                claimed = n_of_f(alpha, f)
            except ValueError:
                assert oracle_n_of_f(alpha, f, cap=400).value is None
                continue
            assert oracle_n_of_f(alpha, f, cap=2 * claimed + 10).value == claimed


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 6, 7, 10, 13, 17, -1, -2, -3, -7]),
    st.integers(-8, 8),
    st.integers(-8, 8).filter(lambda b: b != 0),
    st.integers(1, 2000),
    st.integers(0, 3),
)
def test_n_of_f_matches_oracle_random(d, a, b, f, shared):
    # f ranges over even f0, common factors with b, and, when shared > 0, a
    # power of a prime dividing gcd(x, s), where n(f) comes from the bounded walk
    try:
        alpha = QuadInt(a, b, d)
    except ValueError:
        assume(False)
    g = math.gcd(alpha.trace_x, alpha.norm)
    if shared and g > 1:
        p = min(q for q in range(2, g + 1) if g % q == 0)
        f = max(1, f // p**shared) * p**shared
    try:
        claimed = n_of_f(alpha, f)
    except ValueError:
        assert oracle_n_of_f(alpha, f, cap=200).value is None
        return
    assert oracle_n_of_f(alpha, f, cap=claimed + 2).value == claimed


def test_n_of_f_is_at_most_six_f_squared(monkeypatch):
    # the ceiling sweep --oracle's cap pass relies on; 2 + 2*sqrt(2), 3 + 3*sqrt(2) and
    # 3 + sqrt(3) have trace and norm sharing 2, 3 or both, so the walk past n(A) runs too
    walks = []
    monkeypatch.setattr(conductor, "_lucas", lambda *args: walks.append(args) or _lucas(*args))
    conductor._entry_index.cache_clear()
    alphas = [R2, PHI, QuadInt(2, 2, 2), QuadInt(3, 3, 2), QuadInt(3, 1, 3), QuadInt(2, 1, 2),
              QuadInt(1, 3, -3), QuadInt(5, 1, 7)]
    for alpha in alphas:
        for f in range(1, 301):
            try:
                n = n_of_f(alpha, f)
            except ValueError:
                continue
            assert n <= 6 * f * f, (str(alpha), f, n)
    assert walks


def test_n_of_f_reduction_by_common_factor():
    alpha = QuadInt(1, 12, 2)
    report = bound_full(alpha, 45)
    assert report.f0 == 15
    assert report.n_exact == 6
    assert oracle_n_of_f(alpha, 45, cap=30).value == 6


def test_n_of_f_rational_integer():
    assert n_of_f(QuadInt(3, 0, 2), 77) == 1


def test_n_of_f_reads_bound_full(monkeypatch):
    # n(f) has one route: n_of_f answers 1 for b = 0 and otherwise asks bound_full once
    calls = []
    real = conductor.bound_full

    def recorded(alpha, f):
        calls.append((alpha, f, real(alpha, f)))
        return calls[-1][2]

    monkeypatch.setattr(conductor, "bound_full", recorded)
    for alpha, f in [(R2, 1), (R2, 4), (R2, 45), (PHI, 2), (QuadInt(1, 12, 2), 45)]:
        calls.clear()
        n = n_of_f(alpha, f)
        assert [(a, g) for a, g, _ in calls] == [(alpha, f)]
        assert n == calls[0][2].n_exact
    calls.clear()
    assert n_of_f(QuadInt(3, 0, 2), 77) == 1
    for alpha in (R2, QuadInt(3, 0, 2)):
        for f in (0, -3):
            with pytest.raises(ValueError, match="^the conductor must be at least 1$"):
                n_of_f(alpha, f)
    assert calls == []


def test_multiplicative_frozen():
    mb = bound_multiplicative(R2, 3, 5)
    assert (mb.n_f, mb.n_g, mb.n_fg) == (4, 3, 12)
    assert mb.holds
    assert mb.side_conditions == ()


def test_multiplicative_records_shared_factor():
    mb = bound_multiplicative(QuadInt(1, 3, 2), 3, 5)
    assert "gcd(b, f) = 3" in mb.side_conditions
    assert mb.holds
    both = bound_multiplicative(QuadInt(1, 15, 2), 3, 5)
    assert both.side_conditions == ("gcd(b, f) = 3", "gcd(b, g) = 5")


def test_multiplicative_grid():
    for f in range(1, 16):
        for g in range(1, 16):
            if f >= g or math.gcd(f, g) != 1:
                continue
            mb = bound_multiplicative(R2, f, g)
            assert mb.holds, (f, g)
            assert mb.n_fg % mb.n_f == 0 and mb.n_fg % mb.n_g == 0


def test_prime_power_frozen():
    pp = bound_prime_power(R2, 3, 2)
    assert (pp.lhs, pp.rhs, pp.q_p) == (12, 12, 4)
    assert pp.holds
    pp = bound_prime_power(PHI, 5, 2)
    assert (pp.lhs, pp.rhs) == (25, 25)
    assert pp.holds


def test_prime_power_with_cofactor():
    pp = bound_prime_power(R2, 3, 2, f=5)
    assert pp.lhs == 12
    assert pp.rhs == 36
    assert pp.holds


def test_prime_power_diagnostics():
    for alpha, p, k, f in [
        (R2, 3, 1, 1),
        (R2, 3, 2, 5),
        (PHI, 5, 2, 1),
        (PHI, 3, 2, 7),
        (QuadInt(2, 1, 3), 7, 1, 5),
    ]:
        pp = bound_prime_power(alpha, p, k, f=f)
        assert pp.holds
        assert len(pp.checks) == 4
        assert all(c.status == "pass" for c in pp.checks), (p, k, f)


def test_prime_power_diagnostics_measure_mod_f0():
    # gcd(b, f) = 4 makes f0 = 1: n(5 * 4) = n(5) = 2 = rhs, yet u_1 = x = -10 is not 0 mod 20
    pp = bound_prime_power(QuadInt(-5, -4, 2), 5, 1, f=4)
    assert (pp.lhs, pp.rhs, pp.holds) == (2, 2, True)
    assert [c.name for c in pp.checks] == [
        "u(nu-1) == 0 mod p^k f0",
        "u(p-1)(z; s^nu) == (z^2-4s^nu)^((p-1)/2) mod p",
        "u(p*nu-1) == u(p-1)(z; s^nu) * u(nu-1) mod p^{k+1} f0",
        "u(p*nu-1) == 0 mod p^{k+1} f0",
    ]
    assert all(c.status == "pass" for c in pp.checks)


def test_prime_power_diagnostics_pass_when_b_shares_factors_with_f():
    # b is drawn as a multiple of a factor of f, or of p, so f0 < f or p | b in every report
    rng = random.Random(34)
    reports = 0
    while reports < 300:
        p, k = rng.choice([3, 5, 7, 11, 13]), rng.randint(1, 3)
        f = rng.choice([f for f in (2, 3, 4, 5, 6, 9, 10, 12, 15) if f % p])
        share = rng.choice([r for r in (2, 3, 5) if f % r == 0] + [p])
        d, a = rng.choice([2, 3, 5, 6, 7, 13, -1, -3]), rng.randint(-5, 5)
        b = share * rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        try:
            pp = bound_prime_power(QuadInt(a, b, d), p, k, f=f)
        except ValueError:  # a parity violation, or no q(p) as p | s with p not dividing x
            continue
        reports += 1
        assert pp.holds
        assert [c.status for c in pp.checks] == ["pass"] * 4, (a, b, d, p, k, f)


def _lift_statuses_by_separate_ladders(x, s, p, k, f, nu):
    # the diagnostic rows with a ladder of their own at each modulus
    lifted = p ** (k + 1) * f
    z, cap_s = _lucas(x, s, nu, p)[0], pow(s, nu, p)
    z_big, u_nu_big = _lucas(x, s, nu, lifted)
    outer = _lucas(z_big, pow(s, nu, lifted), p, lifted)[1]
    u_pnu = _lucas(x, s, p * nu, lifted)[1]
    return [
        _lucas(x, s, nu, p**k * f)[1] == 0,
        _lucas(z, cap_s, p, p)[1] == pow(z * z - 4 * cap_s, (p - 1) // 2, p),
        u_pnu == outer * u_nu_big % lifted,
        u_pnu == 0,
    ]


def test_lift_diagnostics_read_the_lower_rows_off_one_ladder(monkeypatch):
    # the rows mod p^k f and mod p are reductions of the ladder at nu mod p^{k+1} f, and the
    # Frobenius row reduces the composition row's outer ladder mod p; the ladder at p * nu
    # stays independent, as the composition row tests it
    calls = []
    monkeypatch.setattr(conductor, "_lucas", lambda *args: calls.append(args) or _lucas(*args))
    rng = random.Random(30)
    for alpha, p, k, f in [(R2, 3, 1, 1), (R2, 3, 2, 5), (PHI, 5, 2, 1), (PHI, 3, 2, 7),
                           (QuadInt(2, 1, 3), 7, 1, 5), (QuadInt(3, 1, 5), 11, 2, 4)]:
        x, s = alpha.trace_x, alpha.norm
        rhs = bound_prime_power(alpha, p, k, f=f).rhs
        # the bound's own index, where every row passes, and indices where rows fail
        for nu in [rhs, *(rng.randrange(1, 2 * rhs) for _ in range(20))]:
            calls.clear()
            statuses = [c.status == "pass" for c in conductor._lift_diagnostics(x, s, p, k, f, nu)]
            assert len(calls) == 3, calls
            assert statuses == _lift_statuses_by_separate_ladders(x, s, p, k, f, nu), (p, k, f, nu)
            assert nu != rhs or all(statuses)


def test_prime_power_side_conditions():
    pp = bound_prime_power(QuadInt(1, 3, 2), 3, 1)
    assert "p divides b" in pp.side_conditions
    assert pp.holds
    pp = bound_prime_power(QuadInt(1, 3, 2), 5, 1, f=6)
    assert any(sc.startswith("gcd(b, f)") for sc in pp.side_conditions)


def test_bound_full_frozen():
    report = bound_full(R2, 45)
    assert report.f0 == 45
    assert report.n_exact == 12
    assert report.bound == 36
    assert report.holds
    assert [(pb.p, pb.k, pb.q_p, pb.contribution) for pb in report.per_prime] == [
        (3, 2, 4, 12),
        (5, 1, 3, 3),
    ]


def test_bound_full_tight_case():
    report = bound_full(R2, 3)
    assert report.n_exact == report.bound == 4


def test_bound_full_even_conductor():
    report = bound_full(R2, 12)
    assert report.n_exact == 4
    assert report.bound is None
    assert report.holds
    assert any("even conductor" in note for note in report.notes)


def test_bound_full_reduction_note():
    report = bound_full(QuadInt(1, 12, 2), 45)
    assert report.bound == 18
    assert report.n_exact == 6
    assert any("common factor 3" in note for note in report.notes)


def test_bound_full_trivial():
    report = bound_full(R2, 1)
    assert report.n_exact == 1
    assert report.bound == 1
    assert report.per_prime == ()


def test_bound_full_grid_against_oracle():
    for alpha in (R2, PHI, QuadInt(3, 1, 5), QuadInt(2, 1, 3)):
        for f in range(1, 30):
            report = bound_full(alpha, f)
            assert report.holds, (alpha, f)
            assert oracle_n_of_f(alpha, f, cap=2 * report.n_exact + 10).value == report.n_exact


def _records_by_second_factorization(alpha, f):
    # the product bound's records rebuilt from a factorization of their own
    x, s = alpha.trace_x, alpha.norm
    f0 = f // math.gcd(alpha.b, f)
    records = []
    for p, k in factorize(f0).factors:
        q = q_of_p(x, s, p)
        records.append(PrimeBound(p, k, q, q * p ** (k - 1)))
    return tuple(records)


# 3 + 3*sqrt(2), (3 + 3*sqrt(5))/2 and 3 + sqrt(3) have 3 | gcd(x, s), so q(3) = 2
@pytest.mark.parametrize(
    "alpha",
    [R2, PHI, QuadInt(2, 1, 3), QuadInt(3, 3, 2), QuadInt(3, 3, 5), QuadInt(3, 1, 3)],
    ids=str,
)
def test_bound_full_records_match_a_second_factorization(alpha):
    shared = 0
    for f in range(1, 301):
        report = bound_full(alpha, f)
        assert n_of_f(alpha, f) == report.n_exact, f
        if f % 2 == 0:
            assert report.per_prime == () and report.bound is None, f
            continue
        expected = _records_by_second_factorization(alpha, f)
        assert report.per_prime == expected, f
        assert report.bound == math.prod(t.contribution for t in expected), f
        shared += sum(alpha.norm % t.p == 0 for t in expected)
    if alpha.trace_x % 3 == 0 and alpha.norm % 3 == 0:
        assert shared > 0, "no record at a prime dividing gcd(x, s)"
