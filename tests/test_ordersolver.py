import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from quadorder.checks import FAIL, NA, PASS, failed_names
from quadorder.ordersolver import (
    STOP_NONRESIDUE_AT_K,
    STOP_NONRESIDUE_AT_START,
    STOP_POWER_OF_TWO,
    ChainResult,
    analyze,
    build_chain_s1,
    build_chain_s_minus1,
    divisor_bound,
    q_of_p,
    table_check,
)
from quadorder.cli import _checks, _claim
from quadorder import cheby, conductor, modarith, ordersolver
from quadorder.modarith import factorize, is_prime, legendre, sqrt_mod
from quadorder.oracle import oracle_order_mod_p, oracle_q_of_p
from quadorder.quadint import QuadInt
from quadorder.units import fundamental_unit


def checks_by_name(report):
    return {c.name: c for c in report.table_checks}


def test_ell_symbol_frozen():
    # ell = ((x^2 - 4s)/p); 8 is a square mod 17, and 21 == 0 mod 3
    for x, s, p, ell in [
        (2, -1, 17, 1), (2, -1, 13, -1), (1, -1, 7, -1), (1, -1, 11, 1), (5, 1, 3, 0),
        (6, 1, 17, 1),
    ]:
        assert legendre(x * x - 4 * s, p) == ell, (x, s, p)


class TestChains:
    def test_s1_frozen(self):
        ch = build_chain_s1(6, 17)
        assert ch.chain == (6, 5)
        assert ch.stop_reason == STOP_NONRESIDUE_AT_K
        assert ch.m == 1
        ch = build_chain_s1(3, 11)
        assert ch.chain == (3, 4)
        assert ch.stop_reason == STOP_POWER_OF_TWO
        ch = build_chain_s1(4, 11)
        assert ch.chain == (4,)
        assert ch.stop_reason == STOP_NONRESIDUE_AT_START
        assert ch.m == 0

    def test_s_minus1_frozen(self):
        ch = build_chain_s_minus1(2, 17)
        assert ch.chain == (6, 5)
        assert ch.stop_reason == STOP_NONRESIDUE_AT_K
        assert ch.m == 1
        ch = build_chain_s_minus1(1, 29)
        assert ch.chain == (3, 11, 10)
        assert ch.stop_reason == STOP_POWER_OF_TWO
        assert ch.m == 2

    def test_s_minus1_has_m_at_least_one(self):
        for p in (5, 13, 17, 29, 37, 41):
            for x in range(1, p):
                if legendre(x * x + 4, p) != 1:
                    continue
                assert build_chain_s_minus1(x, p).m >= 1

    def test_chain_length_is_root_independent(self):
        for seed in range(6):
            rng = random.Random(seed)
            assert build_chain_s1(6, 17, rng).m == 1
            assert build_chain_s1(6, 97, rng).m == build_chain_s1(6, 97).m
            assert build_chain_s_minus1(1, 29, rng).m == 2

    def test_chain_entries_are_canonical_without_rng(self):
        ch = build_chain_s1(6, 17)
        for entry in ch.chain[1:]:
            assert entry <= 17 - entry

    def test_matches_the_reference_chain(self):
        # every start x at every prime p < 300, both ell, without and with an rng
        for p in SMALL_PRIMES:
            for ell in (1, -1):
                for x in range(p):
                    for seed in (None, p * 1000 + x):
                        ours = _run_chain(ordersolver._extend_chain, x, ell, p, seed)
                        assert ours == _run_chain(_reference_chain, x, ell, p, seed), (x, ell, p)

    def test_links_are_decided_without_a_separate_symbol(self, monkeypatch):
        monkeypatch.setattr(
            ordersolver, "_legendre", lambda *args: pytest.fail("_extend_chain called _legendre")
        )
        assert ordersolver._extend_chain(6, 1, 17, None).chain == (6, 5)
        assert ordersolver._extend_chain(4, 1, 11, None).stop_reason == STOP_NONRESIDUE_AT_START
        assert ordersolver._extend_chain(3, 1, 11, None).stop_reason == STOP_POWER_OF_TWO

    def test_links_share_one_nonresidue_and_no_proof_of_p(self, monkeypatch):
        # the caller has proved p prime, and one Tonelli-Shanks non-residue
        # serves every link of the chain
        monkeypatch.setattr(modarith, "is_prime", lambda n: pytest.fail("p was proved again"))
        found = []
        real = ordersolver._nonresidue
        monkeypatch.setattr(ordersolver, "_nonresidue", lambda p: found.append(p) or real(p))
        assert ordersolver._extend_chain(24, 1, 257, None).chain == (24, 119, 11, 28, 95)
        assert found == [257]

    def test_analyze_builds_its_chain_without_the_public_builders(self, monkeypatch):
        # analyze passes its own ell to _extend_chain; the validated builders,
        # which re-prove p prime and recompute ell, give the same chain
        cases = [(alpha, p) for alpha in (QuadInt(2, 1, 3), QuadInt(1, 1, 2), QuadInt(3, 1, 5))
                 for p in SMALL_PRIMES[1:40]]
        expected = {}
        for alpha, p in cases:
            build = build_chain_s1 if alpha.norm == 1 else build_chain_s_minus1
            try:
                expected[alpha, p] = build(alpha.trace_x, p)
            except ValueError:
                pass
        for name in ("build_chain_s1", "build_chain_s_minus1"):
            monkeypatch.setattr(ordersolver, name, lambda *_: pytest.fail("a public builder ran"))
        chained = {(alpha, p): rep.chain for alpha, p in cases
                   if (rep := analyze(alpha, p)).chain is not None}
        assert chained == expected
        assert len(chained) > 20

    def test_rebuild_from_the_report_chain_matches_the_builder(self):
        # the sweep's alternate-root rebuild starts from a report's chain[0] and
        # ell; that must be the builder's own call, draw for draw
        for d, a, b in itertools.product((2, 3, 5), range(-3, 4), range(-3, 4)):
            try:
                alpha = QuadInt(a, b, d)
            except ValueError:
                continue
            if alpha.norm not in (1, -1):
                continue
            build = build_chain_s1 if alpha.norm == 1 else build_chain_s_minus1
            for p in SMALL_PRIMES:
                try:
                    rep = analyze(alpha, p)
                except ValueError:
                    continue
                if rep.chain is None:
                    continue
                for seed in range(5):
                    rng_a, rng_b = random.Random(seed), random.Random(seed)
                    rebuilt = ordersolver._extend_chain(rep.chain.chain[0], rep.chain.ell, p, rng_a)
                    assert rebuilt == build(rep.x, p, rng_b), (alpha, p, seed)
                    assert rng_a.random() == rng_b.random(), (alpha, p, seed)


SMALL_PRIMES = [p for p in range(3, 300, 2) if is_prime(p)]


def _reference_chain(start, ell, p, rng):
    # reference loop: tests residuosity by a Legendre symbol at the start and
    # before each root, then takes the root; _extend_chain must agree with it
    chain = [start % p]
    if legendre(chain[0] + 2, p) == -1:
        return ChainResult(ell, tuple(chain), STOP_NONRESIDUE_AT_START)
    two_part = p - ell
    while True:
        k = len(chain) - 1
        if two_part % (1 << (k + 1)):
            return ChainResult(ell, tuple(chain), STOP_POWER_OF_TWO)
        if legendre(chain[-1] + 2, p) == -1:
            return ChainResult(ell, tuple(chain), STOP_NONRESIDUE_AT_K)
        root = sqrt_mod((chain[-1] + 2) % p, p)
        if root is None or root == 0:
            raise AssertionError(f"no nonzero square root of {chain[-1]} + 2 mod {p}")
        if rng is not None and rng.random() < 0.5:
            root = p - root
        chain.append(root)


def _run_chain(build, x, ell, p, seed):
    # (result or assertion text, the rng's next draw)
    rng = None if seed is None else random.Random(seed)
    try:
        out = build(x, ell, p, rng)
    except AssertionError as exc:
        out = str(exc)
    return out, None if rng is None else rng.random()


class TestTable:
    def test_all_pass_frozen(self):
        cells = table_check(QuadInt(1, 1, 2), 7)
        names = [c.name for c in cells]
        assert names == [
            "t(p-ell) == 2*sigma",
            "u(p-ell-1) == 0",
            "t((p-ell)/2) == 0",
            "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma",
        ]
        assert all(c.status == PASS for c in cells)

    def test_residue_norm_branch(self):
        # (s/p) == +1 swaps in the squared-trace cells
        cells = table_check(QuadInt(3, 2, 2), 17)
        names = [c.name for c in cells]
        assert "t((p-ell)/2)^2 == 4*sigma" in names
        assert "u((p-ell)/2-1) == 0" in names
        assert all(c.status == PASS for c in cells)

    def test_refuses_what_analyze_refuses(self):
        # one gate: the same refusal, text for text, and p | d besides
        for alpha in (QuadInt(0, 0, 2), QuadInt(3, 0, 2), QuadInt(1, 7, 2), QuadInt(3, 1, 2)):
            for p in (7, 9):
                with pytest.raises(ValueError) as refused:
                    analyze(alpha, p)
                with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
                    table_check(alpha, p)
        assert analyze(QuadInt(1, 1, 5), 5).mode == "degenerate"

    def test_half_integer_variant_is_informational(self):
        cells = table_check(QuadInt(1, 1, 5), 7)
        tail = cells[-1]
        assert tail.name == "(a^2-s)*u((p-ell)/2-1)^2 == sigma"
        assert tail.status == NA
        assert tail.note in ("holds in this shape", "does not hold in this shape")
        assert tail.note == "does not hold in this shape"
        assert all(c.status == PASS for c in cells[:-1])


class TestNormOne:
    def test_half_bound_with_sharpness_frozen(self):
        rep = analyze(QuadInt(3, 2, 2), 17)
        assert rep.bound_n == 8
        assert rep.chain.m == 1
        assert rep.half_bound_applies
        assert not failed_names(rep.table_checks)
        by_name = checks_by_name(rep)
        assert by_name["alpha^(n/2) == -1"].status == PASS
        # 2^{m+2} divides p - ell here, so both sharpness forms get recorded
        assert by_name["u(n/2-1) != 0 (recorded)"].status == NA
        assert by_name["u(n/2-1) != 0 (recorded)"].note == "zero"
        assert by_name["u(n/4-1) != 0 (recorded)"].note == "holds"
        assert oracle_order_mod_p(QuadInt(3, 2, 2), 17, cap=26).value == 8

    def test_trivial_chain_frozen(self):
        rep = analyze(QuadInt(2, 1, 3), 11)
        assert rep.bound_n == 10
        assert rep.chain.m == 0
        assert rep.half_bound_applies
        assert not failed_names(rep.table_checks)
        assert oracle_order_mod_p(QuadInt(2, 1, 3), 11, cap=30).value == 10

    def test_odd_exponent_frozen(self):
        rep = analyze(QuadInt(3, 1, 5), 11)
        assert rep.bound_n == 5
        assert rep.chain.m == 1
        assert not rep.half_bound_applies
        assert not failed_names(rep.table_checks)
        assert oracle_order_mod_p(QuadInt(3, 1, 5), 11, cap=20).value == 5

    def test_oracle_divides(self):
        alpha = QuadInt(3, 2, 2)
        rep = analyze(alpha, 17)
        checks, found = _checks(alpha, _claim(rep), with_oracle=True)
        assert found == 8
        assert rep.bound_n % found == 0
        assert {c.name: c for c in checks}["oracle order divides n"].status == PASS


class TestNormMinusOne:
    def test_chain_mode_half_frozen(self):
        rep = analyze(QuadInt(1, 1, 2), 17)
        assert rep.mode == "norm_minus_one"
        assert rep.bound_n == 16
        assert rep.chain.m == 1
        assert rep.half_bound_applies
        assert not failed_names(rep.table_checks)
        assert oracle_order_mod_p(QuadInt(1, 1, 2), 17, cap=40).value == 16

    def test_chain_mode_no_half_frozen(self):
        rep = analyze(QuadInt(1, 1, 5), 29)
        assert rep.bound_n == 14
        assert rep.chain.m == 2
        assert not rep.half_bound_applies
        assert not failed_names(rep.table_checks)
        assert oracle_order_mod_p(QuadInt(1, 1, 5), 29, cap=40).value == 14

    def test_diagnostics_one_mod_four(self):
        rep = analyze(QuadInt(1, 1, 2), 13)
        assert rep.mode == "norm_minus_one_diagnostic"
        assert rep.bound_n == 28
        assert rep.chain is None
        assert not failed_names(rep.table_checks)
        by_name = checks_by_name(rep)
        assert by_name["u(n-1) == 0"].status == PASS
        assert by_name["alpha^(p-ell) == -1"].status == PASS

    def test_diagnostics_three_mod_four(self):
        rep = analyze(QuadInt(1, 1, 2), 7)
        assert rep.mode == "norm_minus_one_diagnostic"
        assert rep.bound_n == 12
        assert not failed_names(rep.table_checks)
        by_name = checks_by_name(rep)
        assert by_name["t(n) == 0"].status == PASS
        assert by_name["u(n-1) != 0"].status == PASS
        assert by_name["t(2(p-ell)) == 2"].status == PASS
        # the true order divides the doubled exponent without reaching it
        assert rep.bound_n % oracle_order_mod_p(QuadInt(1, 1, 2), 7, cap=40).value == 0

    @pytest.mark.parametrize(
        "alpha, p, message",
        [
            (QuadInt(1, 1, 2), 9, "p = 9 is not an odd prime"),
            (QuadInt(41, 29, 2), 41, "the chain needs x nonzero mod p"),
        ],
    )
    def test_refusal_texts(self, alpha, p, message):
        with pytest.raises(ValueError) as info:
            analyze(alpha, p)
        assert str(info.value) == message


def trace_images(p, s, ks):
    """{k: {t_k(y; s) mod p: least y}} by the plain recurrence t_{j+1} = y*t_j - s*t_{j-1}."""
    images = {k: {} for k in ks}
    for y in range(p):
        prev, t = 2, y
        for j in range(1, max(ks) + 1):
            if j in images:
                images[j].setdefault(t, y)
            prev, t = t, (y * t - s * prev) % p
    return images


def euler_symbol(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


class TestDivisorBound:
    def test_s1_hit_frozen(self):
        db = divisor_bound(3, 1, 11, 2)
        assert (db.k, db.n, db.preimage) == (2, 5, 4)
        assert all(c.status == PASS for c in db.checks)

    def test_s1_miss_frozen(self):
        assert divisor_bound(4, 1, 11, 5) is None

    def test_s_minus1_hit_frozen(self):
        db = divisor_bound(3, -1, 11, 3)
        assert (db.k, db.n, db.preimage) == (3, 4, 2)
        names = [c.name for c in db.checks]
        assert names == ["t(n) == 2*ell", "u(n-1) == 0", "t(2n) == 2"]
        assert all(c.status == PASS for c in db.checks)

    def test_s_minus1_miss_frozen(self):
        assert divisor_bound(2, -1, 13, 7) is None

    def test_s_minus1_trivial_divisor(self):
        db = divisor_bound(2, -1, 13, 1)
        assert db.n == 14
        assert all(c.status == PASS for c in db.checks)

    def test_refuses_past_the_scan_cap(self, monkeypatch):
        monkeypatch.setattr(ordersolver, "_SCAN_CAP", 3)
        # the preimage 4 lies past the first 3 values of y, and 11 > 3
        with pytest.raises(ValueError) as info:
            divisor_bound(3, 1, 11, 2)
        assert str(info.value) == (
            "no trace preimage mod p = 11 among the first 3 values of y; "
            "the scan stops at that limit"
        )
        # no preimage exists, and the Lucas test says so before any scan
        assert divisor_bound(4, 1, 11, 5) is None
        monkeypatch.setattr(ordersolver, "_SCAN_CAP", 11)
        assert divisor_bound(3, 1, 11, 2).preimage == 4
        assert divisor_bound(4, 1, 11, 5) is None

    def test_scan_cap_edge(self, monkeypatch):
        # t_2(y; 1) = y^2 - 2, so y0 and p - y0 are the only preimages of x and y0 is the least;
        # a cap of y0 + 1 scans it and answers, a cap of y0 stops one short and refuses
        p, y0 = 1000003, 10000
        x = (y0 * y0 - 2) % p
        assert divisor_bound(x, 1, p, 2).preimage == y0
        monkeypatch.setattr(ordersolver, "_SCAN_CAP", y0 + 1)
        start = time.perf_counter()
        assert divisor_bound(x, 1, p, 2).preimage == y0
        assert time.perf_counter() - start < 0.1
        monkeypatch.setattr(ordersolver, "_SCAN_CAP", y0)
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            divisor_bound(x, 1, p, 2)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == (
            f"no trace preimage mod p = {p} among the first {y0} values of y; "
            "the scan stops at that limit"
        )

    def test_early_preimage_at_a_61_bit_prime(self):
        p = 2**61 - 1
        start = time.perf_counter()
        db = divisor_bound(3, 1, p, 1)
        assert time.perf_counter() - start < 0.5
        assert (db.preimage, db.n) == (3, p - legendre(3 * 3 - 4, p))
        assert all(c.status == PASS for c in db.checks)

    def test_no_preimage_decided_without_a_scan(self):
        # the scan would walk 10^6 values of y and then refuse
        start = time.perf_counter()
        assert divisor_bound(3, 1, 1000003, 2) is None
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("p", [p for p in range(3, 300, 2) if is_prime(p)])
    def test_matches_the_image_table(self, p):
        for s in (1, -1):
            ks = [k for k in range(1, p + 2) if (p - 1) % k == 0 or (p + 1) % k == 0]
            if s == -1:
                ks = [k for k in ks if k % 2]
            images = trace_images(p, s, ks)
            for x in range(p):
                ell = euler_symbol(x * x - 4 * s, p)
                if ell == 0 or (s == -1 and x == 0):
                    continue
                for k in ks:
                    if (p - ell) % k:
                        continue
                    db = divisor_bound(x, s, p, k)
                    assert (None if db is None else db.preimage) == images[k].get(x), (x, s, k)
                    assert db is None or all(c.status == PASS for c in db.checks), (x, s, k)

    @pytest.mark.parametrize("x, s, p, k, n", [
        (3, 1, 11, 2, 5), (4, 1, 11, 5, 2), (3, -1, 11, 3, 4), (2, -1, 13, 7, 2),
        (2, -1, 13, 1, 14),
    ])
    def test_one_ladder_per_call(self, monkeypatch, x, s, p, k, n):
        # the existence test and the checks share the pair at n = (p - ell)/k and its
        # double (the test's pair when s = ell = -1); the preimage scan runs at index k
        indices = []

        def counted(*args):
            indices.append(args[2])
            return lucas(*args)

        lucas = ordersolver._lucas
        monkeypatch.setattr(ordersolver, "_lucas", counted)
        divisor_bound(x, s, p, k)
        assert [i for i in indices if i != k] == [n]


def _trial_primes(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _u_prev_by_matrix(x, s, m, n):
    # u_{n-1} is the lower-left entry of [[x, -s], [1, 0]]^n mod m
    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % m,
            (a[0] * b[1] + a[1] * b[3]) % m,
            (a[2] * b[0] + a[3] * b[2]) % m,
            (a[2] * b[1] + a[3] * b[3]) % m,
        )

    acc, base = (1, 0, 0, 1), (x % m, -s % m, 1, 0)
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc[2]


class TestEntryIndex:
    def test_frozen_values(self):
        assert q_of_p(2, -1, 3) == 4
        assert q_of_p(2, -1, 5) == 3
        assert q_of_p(1, -1, 7) == 8
        assert q_of_p(1, -1, 5) == 5
        assert q_of_p(4, 1, 11) == 5

    def test_degenerate_pins(self):
        assert q_of_p(5, 1, 3) == 3  # p coprime to the norm pins q to p
        assert q_of_p(3, -1, 13) == 13
        assert q_of_p(5, 10, 5) == 2  # p divides norm and trace pins q to 2

    def test_nonexistence(self):
        # when p | s, q exists exactly when p | x too, and then it is 2
        for p in (3, 5, 7, 11):
            for s in (p, -p, 2 * p):
                for x in range(-p, 2 * p + 1):
                    if x % p == 0:
                        assert q_of_p(x, s, p) == 2
                        continue
                    with pytest.raises(ValueError) as info:
                        q_of_p(x, s, p)
                    assert str(info.value) == (
                        f"no power of alpha has its irrational part divisible by {p}: "
                        "the cofactor sequence never vanishes there"
                    )

    def test_nonexistence_is_refused_by_entry_index(self):
        # p | s with p not dividing x: the text is _entry_index's, q_of_p adds no check
        for x, s, p in ((1, 5, 5), (3, 7, 7), (4, -11, 11)):
            with pytest.raises(ValueError) as by_q:
                q_of_p(x, s, p)
            with pytest.raises(ValueError) as by_entry:
                conductor._entry_index(*cheby._pgl_class(x, s, p), p)
            assert str(by_q.value) == str(by_entry.value)

    def test_divides_p_minus_ell(self):
        for p in (5, 7, 11, 13, 17):
            for x in range(p):
                for s in (-3, -1, 1, 2):
                    if s % p == 0:
                        continue
                    ell = legendre(x * x - 4 * s, p)
                    if ell == 0:
                        continue
                    assert (p - ell) % q_of_p(x, s, p) == 0, (x, s, p)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([p for p in range(3, 10**5) if is_prime(p)]),
        st.integers(-50, 50),
        st.integers(-20, 20).filter(lambda s: s != 0),
        st.booleans(),
    )
    def test_matches_oracle(self, p, x, s, degenerate):
        if degenerate:
            # s == x^2/4 mod p puts p | x^2 - 4s; x == 0 gives p | s as well
            s = x * x * pow(4, -1, p) % p or p
        expected = oracle_q_of_p(x, s, p, cap=p + 2).value
        if expected is None:
            with pytest.raises(ValueError):
                q_of_p(x, s, p)
        else:
            assert q_of_p(x, s, p) == expected

    def test_large_prime_is_certified_least(self):
        x, s, p = 3, 1, 10**7 + 19
        q_of_p.cache_clear()
        q = q_of_p(x, s, p)
        assert _u_prev_by_matrix(x, s, p, q) == 0
        for r in _trial_primes(q):
            assert _u_prev_by_matrix(x, s, p, q // r) != 0, r
        best = float("inf")
        for _ in range(5):
            # the index is kept in conductor._entry_index's cache: clear it too, or it is a lookup
            q_of_p.cache_clear()
            conductor._entry_index.cache_clear()
            factorize.cache_clear()
            t0 = time.perf_counter()
            q_of_p(x, s, p)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.05, best

    def test_ramified_cache_miss_evaluates_each_index_once(self, monkeypatch):
        calls = []
        for module in (cheby, conductor):
            real = module._lucas
            monkeypatch.setattr(
                module, "_lucas", lambda *args, real=real: calls.append(args) or real(*args)
            )
        for p in SMALL_PRIMES[:25]:
            for x in range(1, p):
                s = x * x * pow(4, -1, p) % p  # x^2 == 4s mod p, and p does not divide s
                for s in (s, s - p):
                    calls.clear()
                    q_of_p.cache_clear()
                    conductor._entry_index.cache_clear()
                    assert q_of_p(x, s, p) == p
                    assert calls and len(calls) == len(set(calls)), sorted(calls)
        q_of_p.cache_clear()
        conductor._entry_index.cache_clear()

    def test_refuses_when_p_minus_ell_cannot_be_factored(self):
        # p - ell = 2 * 1000003 * 1000121: both odd primes exceed the trial bound
        p = 2 * 1000003 * 1000121 + 1
        assert is_prime(p) and legendre(2 * 2 + 4, p) == 1
        with pytest.raises(ValueError, match="trial bound"):
            q_of_p(2, -1, p)


# Every distinct ordered (status, name, note) sequence that analyze yields on
# the default sweep grid (d in {2, 3, 5}, |a|, |b| <= 6, b != 0, odd p < 100),
# one representative (a, b, d, p) each, frozen; the last case lies off the
# grid and is the only one with the a^2 + 4 row.
GRID_SEQUENCES = [
    ((-5, -5, 3, 3), "degenerate", [
        ("pass", "u(q-1) == 0", ""),
        ("pass", "alpha^q is scalar mod p", ""),
    ]),
    ((-6, -6, 2, 7), "general", [
        ("pass", "t(p-ell) == 2*sigma", ""),
        ("pass", "u(p-ell-1) == 0", ""),
        ("pass", "t((p-ell)/2) == 0", ""),
        ("pass", "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma", ""),
        ("pass", "alpha^(p-1) == 1", ""),
    ]),
    ((-6, -6, 2, 17), "general", [
        ("pass", "t(p-ell) == 2*sigma", ""),
        ("pass", "u(p-ell-1) == 0", ""),
        ("pass", "t((p-ell)/2)^2 == 4*sigma", ""),
        ("pass", "u((p-ell)/2-1) == 0", ""),
        ("pass", "alpha^(p-1) == 1", ""),
    ]),
    ((-6, -6, 2, 5), "general", [
        ("pass", "t(p-ell) == 2*sigma", ""),
        ("pass", "u(p-ell-1) == 0", ""),
        ("pass", "t((p-ell)/2)^2 == 4*sigma", ""),
        ("pass", "u((p-ell)/2-1) == 0", ""),
        ("pass", "alpha^(p+1) == s", ""),
        ("pass", "alpha^bound == 1", ""),
    ]),
    ((-6, -6, 2, 11), "general", [
        ("pass", "t(p-ell) == 2*sigma", ""),
        ("pass", "u(p-ell-1) == 0", ""),
        ("pass", "t((p-ell)/2) == 0", ""),
        ("pass", "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma", ""),
        ("pass", "alpha^(p+1) == s", ""),
        ("pass", "alpha^bound == 1", ""),
    ]),
    ((-6, -6, 5, 11), "general", [
        ("pass", "t(p-ell) == 2*sigma", ""),
        ("pass", "u(p-ell-1) == 0", ""),
        ("pass", "t((p-ell)/2) == 0", ""),
        ("pass", "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma", ""),
        ("n/a", "(a^2-s)*u((p-ell)/2-1)^2 == sigma", "does not hold in this shape"),
        ("pass", "alpha^(p-1) == 1", ""),
    ]),
    ((0, -6, 5, 11), "general", [
        ("pass", "t(p-ell) == 2*sigma", ""),
        ("pass", "u(p-ell-1) == 0", ""),
        ("pass", "t((p-ell)/2) == 0", ""),
        ("pass", "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma", ""),
        ("n/a", "(a^2-s)*u((p-ell)/2-1)^2 == sigma", "holds"),
        ("pass", "alpha^(p-1) == 1", ""),
    ]),
    ((-6, -6, 5, 7), "general", [
        ("pass", "t(p-ell) == 2*sigma", ""),
        ("pass", "u(p-ell-1) == 0", ""),
        ("pass", "t((p-ell)/2) == 0", ""),
        ("pass", "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma", ""),
        ("n/a", "(a^2-s)*u((p-ell)/2-1)^2 == sigma", "does not hold in this shape"),
        ("pass", "alpha^(p+1) == s", ""),
        ("pass", "alpha^bound == 1", ""),
    ]),
    ((-5, -5, 5, 3), "general", [
        ("pass", "t(p-ell) == 2*sigma", ""),
        ("pass", "u(p-ell-1) == 0", ""),
        ("pass", "t((p-ell)/2) == 0", ""),
        ("pass", "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma", ""),
        ("n/a", "(a^2-s)*u((p-ell)/2-1)^2 == sigma", "holds"),
        ("pass", "alpha^(p+1) == s", ""),
        ("pass", "alpha^bound == 1", ""),
    ]),
    ((-4, -2, 5, 29), "norm_minus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "t(n) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
    ]),
    ((-1, -1, 2, 41), "norm_minus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "t((p-ell)/2^2) == 2", ""),
        ("pass", "t(n) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
    ]),
    ((-1, -1, 2, 17), "norm_minus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t(n) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
        ("pass", "t(n/2) == -2", ""),
        ("pass", "u(n/2-1) == 0", ""),
        ("pass", "alpha^(n/2) == -1", ""),
    ]),
    ((-4, -2, 5, 89), "norm_minus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "t(n) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
        ("pass", "t(n/2) == -2", ""),
        ("pass", "u(n/2-1) == 0", ""),
        ("pass", "alpha^(n/2) == -1", ""),
    ]),
    ((-1, -1, 2, 3), "norm_minus_one_diagnostic", [
        ("pass", "t(n) == 0", ""),
        ("pass", "u(n-1) != 0", ""),
        ("pass", "t(2(p-ell)) == 2", ""),
        ("pass", "u(2(p-ell)-1) == 0", ""),
        ("pass", "alpha^(2(p-ell)) == 1", ""),
        ("pass", "t(p-ell) == 2*sigma", ""),
    ]),
    ((-1, -1, 2, 5), "norm_minus_one_diagnostic", [
        ("pass", "t(n)^2 == 4*ell", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^(p-ell) == -1", ""),
        ("pass", "t(2(p-ell)) == 2", ""),
        ("pass", "u(2(p-ell)-1) == 0", ""),
        ("pass", "alpha^(2(p-ell)) == 1", ""),
        ("pass", "t(p-ell) == 2*sigma", ""),
    ]),
    ((-3, -2, 2, 5), "norm_plus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
    ]),
    ((-2, -1, 3, 67), "norm_plus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "t((p-ell)/2^2) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
    ]),
    ((-3, -2, 2, 7), "norm_plus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
        ("pass", "t(n/2) == -2", ""),
        ("pass", "u(n/2-1) == 0", ""),
        ("pass", "alpha^(n/2) == -1", ""),
    ]),
    ((3, -2, 2, 41), "norm_plus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "t((p-ell)/2^2) == 2", ""),
        ("pass", "t((p-ell)/2^3) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
    ]),
    ((-2, -1, 3, 19), "norm_plus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
        ("pass", "t(n/2) == -2", ""),
        ("pass", "u(n/2-1) == 0", ""),
        ("pass", "alpha^(n/2) == -1", ""),
    ]),
    ((-3, -2, 2, 3), "norm_plus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
        ("pass", "t(n/2) == -2", ""),
        ("pass", "u(n/2-1) == 0", ""),
        ("pass", "alpha^(n/2) == -1", ""),
        ("n/a", "u(n/2-1) != 0 (recorded)", "zero"),
        ("n/a", "u(n/4-1) != 0 (recorded)", "holds"),
    ]),
    ((-3, -2, 2, 41), "norm_plus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "t((p-ell)/2^2) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
        ("pass", "t(n/2) == -2", ""),
        ("pass", "u(n/2-1) == 0", ""),
        ("pass", "alpha^(n/2) == -1", ""),
    ]),
    ((-3, -2, 2, 17), "norm_plus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
        ("pass", "t(n/2) == -2", ""),
        ("pass", "u(n/2-1) == 0", ""),
        ("pass", "alpha^(n/2) == -1", ""),
        ("n/a", "u(n/2-1) != 0 (recorded)", "zero"),
        ("n/a", "u(n/4-1) != 0 (recorded)", "holds"),
    ]),
    ((3, 1, 10, 13), "norm_minus_one", [
        ("pass", "chain links square back", ""),
        ("pass", "chain preserves ell", ""),
        ("n/a", "a^2 + 4 != 0 under the half-trace reading",
         "a^2 + 4 == 0 mod p while x^2 + 4 != 0"),
        ("pass", "t((p-ell)/2^0) == 2", ""),
        ("pass", "t((p-ell)/2^1) == 2", ""),
        ("pass", "t(n) == 2", ""),
        ("pass", "u(n-1) == 0", ""),
        ("pass", "alpha^n == 1", ""),
    ]),
]


def _sequence(report):
    return [(c.status, c.name, c.note) for c in report.table_checks]


class TestAnalyze:
    def test_proves_p_and_the_large_prime_of_p_minus_1_once_each(self, monkeypatch):
        # p = 6r + 1 with r prime, 60 bits, and ell = (3/p) = -1: general mode factors p - 1
        r, p = 144115188075855967, 864691128455135803
        calls, real = [], modarith.is_prime
        monkeypatch.setattr(modarith, "is_prime", lambda n: calls.append(n) or real(n))
        factorize.cache_clear()
        report = analyze(QuadInt(1, 1, 3), p)
        assert (report.mode, report.ell, p.bit_length()) == ("general", -1, 60)
        assert calls == [p, r]

    @pytest.mark.parametrize(
        "case, mode, expected",
        GRID_SEQUENCES,
        ids=[f"{mode}-" + "_".join(map(str, case)) for case, mode, _ in GRID_SEQUENCES],
    )
    def test_check_sequences(self, case, mode, expected):
        a, b, d, p = case
        rep = analyze(QuadInt(a, b, d), p)
        assert rep.mode == mode
        assert _sequence(rep) == expected

    def test_dispatch_modes(self):
        assert analyze(QuadInt(3, 2, 2), 17).mode == "norm_plus_one"
        assert analyze(QuadInt(1, 1, 2), 17).mode == "norm_minus_one"
        assert analyze(QuadInt(1, 1, 2), 13).mode == "norm_minus_one_diagnostic"
        assert analyze(QuadInt(1, 1, 6), 7).mode == "general"
        assert analyze(QuadInt(1, 1, 5), 5).mode == "degenerate"

    def test_dispatch_table_covers_the_grid(self):
        table = {(mode, tuple(expected)) for _, mode, expected in GRID_SEQUENCES}
        primes = [p for p in range(3, 100) if is_prime(p)]
        for d in (2, 3, 5):
            for a in range(-6, 7):
                for b in range(-6, 7):
                    try:
                        alpha = QuadInt(a, b, d)
                    except ValueError:
                        continue
                    for p in primes:
                        try:
                            rep = analyze(alpha, p)
                        except ValueError:
                            continue
                        assert (rep.mode, tuple(_sequence(rep))) in table, (a, b, d, p)

    def test_general_norm_residue_minus_frozen(self):
        rep = analyze(QuadInt(1, 1, 6), 7)
        assert rep.ell == -1
        assert rep.bound_n == 24  # (p+1) times the order of the norm mod p
        assert not failed_names(rep.table_checks)
        assert oracle_order_mod_p(QuadInt(1, 1, 6), 7, cap=60).value == 24

    def test_general_norm_residue_plus_frozen(self):
        rep = analyze(QuadInt(1, 1, 6), 23)
        assert rep.ell == 1
        assert rep.bound_n == 22
        assert not failed_names(rep.table_checks)
        assert oracle_order_mod_p(QuadInt(1, 1, 6), 23, cap=60).value == 11

    def test_degenerate_report(self):
        rep = analyze(QuadInt(5, 1, 21), 3)
        assert rep.mode == "degenerate"
        assert rep.bound_n is None
        assert not failed_names(rep.table_checks)
        names = [c.name for c in rep.table_checks]
        assert names == ["u(q-1) == 0", "alpha^q is scalar mod p"]

    def test_preconditions(self):
        # the gate meets its preconditions in one order: an input that breaks
        # several is refused for the first
        for alpha, p, message in (
            (QuadInt(0, 0, 2), 9, "p = 9 is not an odd prime"),
            (QuadInt(0, 0, 2), 7, "the norm is zero; no power is invertible"),
            (
                QuadInt(7, 0, 2),
                7,
                "b = 0 is rational; alpha is an integer, with no quadratic order to bound",
            ),
            (QuadInt(7, 7, 2), 7, "p must not divide b"),
            (QuadInt(1, 1, 6), 5, "p divides the norm; no multiplicative order exists mod p"),
        ):
            with pytest.raises(ValueError) as info:
                analyze(alpha, p)
            assert str(info.value) == message

    def test_oracle_attached(self):
        # the oracle's order rides along with the report's checks, not inside it
        alpha = QuadInt(1, 1, 2)
        rep = analyze(alpha, 17)
        checks, found = _checks(alpha, _claim(rep), with_oracle=True)
        assert not failed_names(rep.table_checks)
        assert found == oracle_order_mod_p(alpha, 17, cap=40).value == 16
        assert checks[:-1] == list(rep.table_checks)
        assert checks[-1].name == "oracle order divides n"
        assert checks[-1].status == PASS

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_oracle_order_divides_bound_for_fundamental_units(self, d):
        # the fast route against the oracle well beyond the default p < 100 grid:
        # a seeded sample of primes below 2*10^4, plus the largest of them
        eps = fundamental_unit(d)
        primes = [p for p in range(3, 2 * 10**4) if is_prime(p) and d % p]
        for p in random.Random(d).sample(primes, 60) + [primes[-1]]:
            rep = analyze(eps, p)
            found = oracle_order_mod_p(eps, p, cap=rep.bound_n).value
            assert found is not None and rep.bound_n % found == 0, (d, p, rep.bound_n, found)

    def test_report_failed_names_empty_on_pass(self):
        rep = analyze(QuadInt(1, 1, 2), 17)
        assert failed_names(rep.table_checks) == ()

    @pytest.mark.parametrize(
        "alpha, p, mode, ell",
        [
            (QuadInt(2, 1, 3), 5, "norm_plus_one", -1),
            (QuadInt(2, 1, 3), 7, "norm_plus_one", -1),  # with the "(recorded)" rows
            (QuadInt(2, 1, 3), 769, "norm_plus_one", 1),  # with the "(recorded)" rows
            (QuadInt(1, 1, 2), 17, "norm_minus_one", 1),
            (QuadInt(1, 1, 2), 593, "norm_minus_one", 1),
            (QuadInt(1, 1, 2), 3, "norm_minus_one_diagnostic", -1),  # p == 3 mod 4
            (QuadInt(1, 1, 2), 5, "norm_minus_one_diagnostic", -1),  # p == 1 mod 4
            (QuadInt(1, 2, 3), 13, "general", 1),
            (QuadInt(1, 2, 3), 211, "general", -1),
            (QuadInt(2, 3, 7), 5, "general", -1),  # s == 1 mod p, so bound == p + 1
        ],
    )
    def test_each_lucas_index_evaluated_once(self, monkeypatch, alpha, p, mode, ell):
        # every check judges a pair (t_n, u_{n-1}) the report already holds
        calls = []
        real = ordersolver._lucas
        monkeypatch.setattr(ordersolver, "_lucas", lambda *args: calls.append(args) or real(*args))
        rep = analyze(alpha, p)
        assert (rep.mode, rep.ell, failed_names(rep.table_checks)) == (mode, ell, ())
        assert len(calls) == len(set(calls)), sorted(calls)
        if p in (7, 769):
            assert any(c.name.endswith("(recorded)") for c in rep.table_checks)
        if mode == "general" and alpha.norm % p == 1:
            assert rep.bound_n == p + 1
        if mode == "general":
            cells = table_check(alpha, p)
            assert list(rep.table_checks[: len(cells)]) == cells


def test_statuses_are_distinct():
    assert len({PASS, FAIL, NA}) == 3


def test_order_claims_are_at_most_p_squared_minus_one():
    # the ceiling sweep --oracle's cap pass relies on, over every mode at 3 <= p < 1500;
    # 0 - sqrt(2) reaches it at p = 709, where ell = -1 and -2 is a primitive root
    alphas = [QuadInt(a, b, d) for d, a, b in [
        (2, 0, -1), (2, 1, 1), (2, 3, 2), (3, 2, 1), (3, 1, 1), (5, 1, 3), (7, 3, 1), (-1, 2, 3),
    ]]
    modes, reached = set(), set()
    for p in filter(is_prime, range(3, 1500)):
        for alpha in [*alphas, QuadInt(2, 2, p)]:  # d = p makes ell = 0
            try:
                report = analyze(alpha, p)
            except ValueError:
                continue
            modes.add(report.mode)
            if report.mode == "degenerate":
                assert report.bound_n is None
                continue
            assert report.bound_n <= p * p - 1, (str(alpha), p, report.mode)
            if report.bound_n == p * p - 1:
                reached.add((alpha.d, alpha.a, alpha.b, p))
    assert modes == {
        "general", "norm_plus_one", "norm_minus_one", "norm_minus_one_diagnostic", "degenerate",
    }
    assert (2, 0, -1, 709) in reached


# One _lucas ladder per index: the evaluation _table_cells, _bound_unit and
# _norm_minus1_diagnostics made before they doubled pairs up from the lowest index.
# Apart from the ladders, each is the solver's own code, so the reports compare whole.


def reference_table_cells(alpha, p, ell):
    x, s = alpha.trace_x, alpha.norm
    sigma = 1 if ell == 1 else s
    full = t_full, u_full = cheby._lucas(x, s, p - ell, p)
    out = [
        ordersolver.check("t(p-ell) == 2*sigma", (t_full - 2 * sigma) % p == 0),
        ordersolver.check("u(p-ell-1) == 0", u_full == 0),
    ]
    t_half, u_half = cheby._lucas(x, s, (p - ell) // 2, p)
    if legendre(s, p) == 1:
        out.append(ordersolver.check(
            "t((p-ell)/2)^2 == 4*sigma", (t_half * t_half - 4 * sigma) % p == 0))
        out.append(ordersolver.check("u((p-ell)/2-1) == 0", u_half == 0))
    else:
        out.append(ordersolver.check("t((p-ell)/2) == 0", t_half == 0))
        out.append(ordersolver.check(
            "(x^2-4s)*u((p-ell)/2-1)^2 == 4*sigma",
            ((x * x - 4 * s) * u_half * u_half - 4 * sigma) % p == 0,
        ))
        if alpha.r == 1:
            held = ((alpha.a * alpha.a - s) * u_half * u_half - sigma) % p == 0
            out.append(ordersolver.Check(
                "(a^2-s)*u((p-ell)/2-1)^2 == sigma", NA,
                "holds" if held else "does not hold in this shape",
            ))
    return out, full


def reference_bound_unit(alpha, p, ell):
    x, s = alpha.trace_x, alpha.norm
    if s == -1 and x % p == 0:
        raise ValueError("the chain needs x nonzero mod p")
    chain = ordersolver._extend_chain(x if s == 1 else x * x + 2, ell, p, None)
    m = chain.m
    if m < 1 and s == -1:
        raise AssertionError("the norm -1 chain stopped before its first link")
    shift = m if s == 1 else m - 1
    n = (p - ell) >> shift
    checks = ordersolver._chain_checks(chain, p)
    if s == -1 and alpha.r != 1 and (alpha.a * alpha.a + 4) % p == 0:
        checks.append(ordersolver.Check(
            "a^2 + 4 != 0 under the half-trace reading", NA,
            "a^2 + 4 == 0 mod p while x^2 + 4 != 0",
        ))
    for k in range(shift + 1):
        rung = t_n, u_n = cheby._lucas(x, s, (p - ell) >> k, p)
        checks.append(ordersolver.check(f"t((p-ell)/2^{k}) == 2", (t_n - 2) % p == 0))
    if s == -1:
        checks.append(ordersolver.check("t(n) == 2", (t_n - 2) % p == 0))
    checks.append(ordersolver.check("u(n-1) == 0", u_n == 0))
    checks.append(ordersolver.check("alpha^n == 1", ordersolver._power_is(alpha, rung, p, 1)))
    half_applies = (p - ell) % (1 << (m + 1)) == 0
    if half_applies:
        half = t_half, u_half = cheby._lucas(x, s, n // 2, p)
        checks.append(ordersolver.check("t(n/2) == -2", (t_half + 2) % p == 0))
        checks.append(ordersolver.check("u(n/2-1) == 0", u_half == 0))
        checks.append(ordersolver.check(
            "alpha^(n/2) == -1", ordersolver._power_is(alpha, half, p, -1)))
    if s == 1 and (p - ell) % (1 << (m + 2)) == 0:
        u_quarter = cheby._lucas(x, 1, n // 4, p)[1]
        checks.append(ordersolver.Check(
            "u(n/2-1) != 0 (recorded)", NA, "holds" if u_half else "zero"))
        checks.append(ordersolver.Check(
            "u(n/4-1) != 0 (recorded)", NA, "holds" if u_quarter else "zero"))
    return chain, n, half_applies, checks


def reference_norm_minus1_diagnostics(alpha, p, ell):
    x = alpha.trace_x
    t_n, u_n = cheby._lucas(x, -1, (p - ell) // 2, p)
    full = cheby._lucas(x, -1, p - ell, p)
    double = t_double, u_double = cheby._lucas(x, -1, 2 * (p - ell), p)
    checks = []
    if p % 4 == 3:
        checks.append(ordersolver.check("t(n) == 0", t_n == 0))
        checks.append(ordersolver.check("u(n-1) != 0", u_n != 0))
    else:
        checks.append(ordersolver.check("t(n)^2 == 4*ell", (t_n * t_n - 4 * ell) % p == 0))
        checks.append(ordersolver.check("u(n-1) == 0", u_n == 0))
        checks.append(ordersolver.check(
            "alpha^(p-ell) == -1", ordersolver._power_is(alpha, full, p, -1)))
    checks.append(ordersolver.check("t(2(p-ell)) == 2", t_double == 2 % p))
    checks.append(ordersolver.check("u(2(p-ell)-1) == 0", u_double == 0))
    checks.append(ordersolver.check(
        "alpha^(2(p-ell)) == 1", ordersolver._power_is(alpha, double, p, 1)))
    checks.append(ordersolver.check("t(p-ell) == 2*sigma", (full[0] - 2 * ell) % p == 0))
    return checks


def _report_or_refusal(alpha, p):
    try:
        return analyze(alpha, p)
    except ValueError as exc:
        return str(exc)


def test_doubled_pairs_match_one_ladder_per_index(monkeypatch):
    # norm -1 (integral, half-integral, and 3 + sqrt(10) with a^2 + 4 == 0 mod 13),
    # norm +1 (integral and half-integral), general norms, and 2 + 2*sqrt(p) with ell = 0
    alphas = [QuadInt(a, b, d) for a, b, d in [
        (1, 1, 2), (1, 1, 5), (3, 1, 10), (3, 2, 2), (2, 1, 3), (3, 1, 5),
        (1, 1, 3), (1, 2, 3), (1, 3, 5), (2, 3, 7), (5, 1, 7),
    ]]
    cases = [(alpha, p) for p in filter(is_prime, range(3, 3000))
             for alpha in [*alphas, QuadInt(2, 2, p)]]
    fast = [_report_or_refusal(alpha, p) for alpha, p in cases]
    monkeypatch.setattr(ordersolver, "_table_cells", reference_table_cells)
    monkeypatch.setattr(ordersolver, "_bound_unit", reference_bound_unit)
    monkeypatch.setattr(ordersolver, "_norm_minus1_diagnostics", reference_norm_minus1_diagnostics)
    modes = set()
    for (alpha, p), got in zip(cases, fast):
        assert got == _report_or_refusal(alpha, p), (str(alpha), p)
        modes.add(getattr(got, "mode", "refused"))
    assert modes == {
        "general", "norm_plus_one", "norm_minus_one", "norm_minus_one_diagnostic", "degenerate",
        "refused",
    }
    names = {c.name for report in fast if not isinstance(report, str) for c in report.table_checks}
    assert {"a^2 + 4 != 0 under the half-trace reading", "u(n/4-1) != 0 (recorded)",
            "(a^2-s)*u((p-ell)/2-1)^2 == sigma", "alpha^(n/2) == -1"} <= names


def test_ladder_rung_j_is_the_pair_at_n_over_2_to_the_j():
    rng = random.Random(20121130)
    for p in filter(is_prime, range(3, 200)):
        for depth in range(5):
            for _ in range(3):
                x, s = rng.randrange(p), rng.randrange(-p, p)
                n = rng.randrange(3 * p) << depth
                rungs = ordersolver._ladder(x, s, n, depth, p)
                assert rungs == [cheby._lucas(x, s, n >> j, p) for j in range(depth + 1)], (
                    x, s, n, depth, p)


def test_unit_chain_is_the_builders_chain():
    # above x for norm +1 and above x^2 + 2 for norm -1, root for root under one rng
    built = {1: 0, -1: 0}
    for p in filter(is_prime, range(3, 200)):
        for s, build in ((1, build_chain_s1), (-1, build_chain_s_minus1)):
            for x in range(p):
                try:
                    expected = build(x, p)
                except ValueError:
                    continue
                built[s] += 1
                assert expected.chain[0] == (x if s == 1 else x * x + 2) % p
                assert ordersolver._unit_chain(x, s, expected.ell, p, None) == expected
                rng_a, rng_b = random.Random(p * x), random.Random(p * x)
                assert ordersolver._unit_chain(x, s, expected.ell, p, rng_a) == build(
                    x, p, rng_b), (x, s, p)
    assert built[1] > 3000 and built[-1] > 500
