"""Ten end-to-end guarantees, each reported as a single verdict line.

Every congruence and inequality here is exact integer arithmetic; the only
stated tolerance is the 50 ms wall-clock budget in criterion 10.  Expected
values come from the independent power-iteration oracle or from brute-force
scans written inside this file, never from the code under test.
"""

import math
import random
import time

from quadorder.cheby import ChebyParams, eval_fast
from quadorder.cheby import run_identity_trials
from quadorder.checks import FAIL, NA, PASS, failed_names
from quadorder.conductor import (
    bound_full,
    bound_multiplicative,
    bound_prime_power,
    n_of_f,
)
from quadorder.modarith import is_prime, legendre
from quadorder.oracle import oracle_n_of_f, oracle_order_mod_p, oracle_q_of_p
from quadorder.ordersolver import (
    analyze,
    build_chain_s1,
    build_chain_s_minus1,
    q_of_p,
    table_check,
)
from quadorder.quadint import QuadInt
from quadorder.units import fundamental_unit
from test_cheby import t_seq, u_seq  # the step-by-step recurrence, kept in the tests

D_GRID = [-7, -5, -2, -1, 2, 3, 5, 6, 7, 10, 13]
CONDUCTOR_D = [-7, -2, 2, 3, 5, 13]
ODD_PRIMES = [p for p in range(3, 100, 2) if is_prime(p)]


def grid_alphas(ds, bound):
    for d in ds:
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if b == 0:
                    continue
                if d % 4 == 1 and (a + b) % 2 != 0:
                    continue
                yield QuadInt(a, b, d)


def conductor_classes(bound=5):
    """One representative per (|x|, norm, |b|) class.

    The vanishing index mod f only sees the trace, the norm, and |b| (sign
    flips of a or b negate sequence terms without moving their zeros), so
    one representative per class covers the whole grid.
    """
    classes = {}
    covered = 0
    for alpha in grid_alphas(CONDUCTOR_D, bound):
        covered += 1
        key = (abs(alpha.trace_x), alpha.norm, abs(alpha.b))
        classes.setdefault(key, alpha)
    return list(classes.values()), covered


def test_criterion_01_identities(acceptance_log):
    tallies = run_identity_trials(1000, seed=20240817)
    ok = len(tallies) == 7 and all(t.passed == t.total == 1000 for t in tallies)
    worst = "; ".join(t.first_failure for t in tallies if t.first_failure)
    acceptance_log.verdict(
        1,
        "polynomial identity battery",
        ok,
        "7 identities x 1000 seeded draws (seed 20240817), exact equality"
        + (f"; first failures: {worst}" if worst else ""),
    )


def test_criterion_02_congruence_table(acceptance_log):
    cases = cells = informational = skipped_norm = 0
    failures = []
    for alpha in grid_alphas(D_GRID, 6):
        s = alpha.norm
        for p in ODD_PRIMES:
            if (2 * alpha.b * alpha.d) % p == 0:
                continue
            if s % p == 0:
                skipped_norm += 1
                continue
            cases += 1
            for cell in table_check(alpha, p):
                if cell.status == NA:
                    informational += 1
                elif cell.status == PASS:
                    cells += 1
                else:
                    failures.append((alpha, p, cell.name))
    ok = cases > 10000 and not failures
    acceptance_log.verdict(
        2,
        "exponent p - ell congruence table",
        ok,
        f"{cases} (alpha, p) pairs, {cells} cells exact, "
        f"{informational} informational half-integer rows, "
        f"{skipped_norm} skips where p | s, {len(failures)} failures",
    )


def test_criterion_03_norm_one_half_exponent(acceptance_log):
    cases = halves = 0
    failures = 0
    stats = {"n2_holds": 0, "n2_zero": 0, "n4_holds": 0, "n4_zero": 0}
    rng_a, rng_b = random.Random(11), random.Random(12)
    for alpha in grid_alphas(D_GRID, 6):
        if alpha.norm != 1:
            continue
        for p in ODD_PRIMES:
            if (2 * alpha.b * alpha.d) % p == 0:
                continue
            rep = analyze(alpha, p)
            cases += 1
            halves += rep.half_bound_applies
            if failed_names(rep.table_checks):
                failures += 1
            value = oracle_order_mod_p(alpha, p, cap=2 * rep.bound_n + 10).value
            if value is None or rep.bound_n % value != 0:
                failures += 1
            if build_chain_s1(rep.x, p, rng_a).m != rep.chain.m:
                failures += 1
            if build_chain_s1(rep.x, p, rng_b).m != rep.chain.m:
                failures += 1
            for cell in rep.table_checks:
                if cell.status != NA:
                    continue
                if cell.name.startswith("u(n/2-1)"):
                    stats["n2_holds" if cell.note == "holds" else "n2_zero"] += 1
                elif cell.name.startswith("u(n/4-1)"):
                    stats["n4_holds" if cell.note == "holds" else "n4_zero"] += 1
    ok = cases > 100 and failures == 0
    acceptance_log.verdict(
        3,
        "norm +1 square-root chain bound",
        ok,
        f"{cases} cases, {halves} with the halved exponent, oracle divides every bound, "
        f"chain length stable under rerooting; {failures} failures",
    )
    acceptance_log.info(
        3,
        "sharpness recorded, not asserted: u(n/2-1) nonzero {n2_holds} / zero {n2_zero}; "
        "u(n/4-1) nonzero {n4_holds} / zero {n4_zero}".format(**stats),
    )


def test_criterion_04_norm_minus_one_chain(acceptance_log):
    cases = halves = failures = skipped_zero_trace = 0
    rng = random.Random(21)
    for alpha in grid_alphas(D_GRID, 6):
        if alpha.norm != -1:
            continue
        x = alpha.trace_x
        for p in ODD_PRIMES:
            if p % 4 != 1 or (2 * alpha.b * alpha.d) % p == 0:
                continue
            if legendre(x * x + 4, p) != 1:
                continue
            if x % p == 0:
                skipped_zero_trace += 1
                continue
            rep = analyze(alpha, p)
            cases += 1
            halves += rep.half_bound_applies
            if rep.mode != "norm_minus_one" or rep.chain.m < 1 or failed_names(rep.table_checks):
                failures += 1
            value = oracle_order_mod_p(alpha, p, cap=2 * rep.bound_n + 10).value
            if value is None or rep.bound_n % value != 0:
                failures += 1
            if build_chain_s_minus1(x, p, rng).m != rep.chain.m:
                failures += 1
    ok = cases > 30 and failures == 0
    acceptance_log.verdict(
        4,
        "norm -1 chain bound above the doubled trace",
        ok,
        f"{cases} cases with p == 1 mod 4 and residue +1, m >= 1 throughout, "
        f"{halves} halved, oracle divides every bound; {failures} failures "
        f"({skipped_zero_trace} skips for zero trace)",
    )


def test_criterion_05_norm_minus_one_diagnostics(acceptance_log):
    three_mod_four = one_mod_four = failures = 0
    for alpha in grid_alphas(D_GRID, 6):
        if alpha.norm != -1:
            continue
        x = alpha.trace_x
        for p in ODD_PRIMES:
            if (2 * alpha.b * alpha.d) % p == 0:
                continue
            if p % 4 == 1 and legendre(x * x + 4, p) != -1:
                continue
            rep = analyze(alpha, p)
            if rep.mode != "norm_minus_one_diagnostic" or failed_names(rep.table_checks):
                failures += 1
            if p % 4 == 3:
                three_mod_four += 1
            else:
                one_mod_four += 1
    ok = three_mod_four > 50 and failures == 0
    acceptance_log.verdict(
        5,
        "norm -1 exclusion diagnostics",
        ok,
        f"{three_mod_four} cases with p == 3 mod 4 and {one_mod_four} with "
        f"residue -1: vanishing pattern and doubled-exponent identity exact; "
        f"{failures} failures",
    )


def test_criterion_06_conductor_suite(acceptance_log):
    reps, covered = conductor_classes(5)
    failures = []

    # exact index against the oracle, nonexistence included
    checked = nonexistent = 0
    for alpha in reps:
        for f in range(1, 61):
            try:
                claimed = n_of_f(alpha, f)
            except ValueError:
                nonexistent += 1
                if oracle_n_of_f(alpha, f, cap=400).value is not None:
                    failures.append(("exists", alpha, f))
                continue
            checked += 1
            if oracle_n_of_f(alpha, f, cap=2 * claimed + 10).value != claimed:
                failures.append(("oracle", alpha, f))

    # spot-check the class reduction on raw grid points
    rng = random.Random(33)
    pool = list(grid_alphas(CONDUCTOR_D, 5))
    for alpha in rng.sample(pool, 40):
        f = rng.randrange(1, 61)
        try:
            claimed = n_of_f(alpha, f)
        except ValueError:
            continue
        if oracle_n_of_f(alpha, f, cap=2 * claimed + 10).value != claimed:
            failures.append(("spot", alpha, f))

    # removing the common factor of b and f leaves the index unchanged
    reduced = 0
    for alpha in reps:
        b = alpha.b
        for f in range(2, 61):
            c = math.gcd(b, f)
            if c == 1 or math.gcd(b, f // c) != 1:
                continue
            try:
                lhs, rhs = n_of_f(alpha, f), n_of_f(alpha, f // c)
            except ValueError:
                continue
            reduced += 1
            if lhs != rhs:
                failures.append(("reduction", alpha, f))

    # coprime product inequality
    pairs = [
        (f, g)
        for f in range(1, 31)
        for g in range(f + 1, 31)
        if math.gcd(f, g) == 1
    ]
    mult_cases = 0
    for alpha in reps:
        for f, g in pairs:
            try:
                mb = bound_multiplicative(alpha, f, g)
            except ValueError:
                continue
            mult_cases += 1
            if not mb.holds:
                failures.append(("multiplicative", alpha, (f, g)))

    # prime-power lifting inequality on a fixed panel
    panel = [
        QuadInt(1, 1, 2),
        QuadInt(2, 1, 3),
        QuadInt(1, 1, 5),
        QuadInt(3, 1, 5),
        QuadInt(1, 1, -7),
        QuadInt(4, 1, 6),
    ]
    pp_cases = pp_tight = 0
    for alpha in panel:
        for p in (3, 5, 7, 11, 13):
            for k in (1, 2, 3):
                for f in range(1, 21):
                    if f % p == 0:
                        continue
                    try:
                        pp = bound_prime_power(alpha, p, k, f=f)
                    except ValueError:
                        continue
                    pp_cases += 1
                    pp_tight += pp.lhs == pp.rhs
                    if not pp.holds:
                        failures.append(("prime-power", alpha, (p, k, f)))
    diag_cases = 0
    for alpha in panel:
        for p in (3, 5, 7):
            for k in (1, 2):
                try:
                    pp = bound_prime_power(alpha, p, k, f=2)
                except ValueError:
                    continue
                diag_cases += 1
                if any(c.status == FAIL for c in pp.checks):
                    failures.append(("lift", alpha, (p, k)))

    # full product bound over odd conductors, tightness histogram
    ratios = []
    full_cases = 0
    for alpha in reps:
        for f in range(1, 200, 2):
            try:
                report = bound_full(alpha, f)
            except ValueError:
                continue
            full_cases += 1
            if not report.holds:
                failures.append(("product", alpha, f))
            if report.bound:
                ratios.append(report.n_exact / report.bound)

    ok = not failures and checked > 2000 and mult_cases > 10000 and full_cases > 5000
    acceptance_log.verdict(
        6,
        "conductor index bound suite",
        ok,
        f"{len(reps)} classes covering {covered} grid points: {checked} oracle-exact "
        f"indices (+40 spot checks), {nonexistent} proven-empty, {reduced} reductions, "
        f"{mult_cases} coprime products, {pp_cases} prime-power lifts "
        f"({pp_tight} tight), {diag_cases} lift replays, {full_cases} product bounds; "
        f"{len(failures)} failures",
    )
    hist = [0] * 10
    for r in ratios:
        hist[min(9, int(r * 10))] += 1
    acceptance_log.info(6, f"bound tightness n_exact/bound over {len(ratios)} odd-f cases:")
    for i, count in enumerate(hist):
        bar = "#" * max(1, round(40 * count / max(hist))) if count else ""
        acceptance_log.info(6, f"  {i/10:.1f}-{(i+1)/10:.1f}  {count:6d}  {bar}")


def test_criterion_07_degenerate_discriminant(acceptance_log):
    cases = pinned_p = pinned_2 = failures = 0
    for alpha in grid_alphas(D_GRID, 6):
        x, s = alpha.trace_x, alpha.norm
        disc = x * x - 4 * s
        if disc == 0:
            continue  # the index exists but no odd prime is singled out
        for p in ODD_PRIMES:
            if disc % p != 0:
                continue
            cases += 1
            try:
                q = q_of_p(x, s, p)
            except ValueError:
                failures += 1
                continue
            expect = 2 if s % p == 0 else p
            pinned_2 += expect == 2
            pinned_p += expect == p
            if q != expect:
                failures += 1
            if oracle_q_of_p(x, s, p, cap=p + 2).value != q:
                failures += 1
    ok = cases > 500 and failures == 0
    acceptance_log.verdict(
        7,
        "degenerate discriminant entry index",
        ok,
        f"{cases} (alpha, p) pairs with p | x^2 - 4s: {pinned_p} pinned to p, "
        f"{pinned_2} pinned to 2, oracle scan agrees; {failures} failures",
    )


def test_criterion_08_fibonacci_cross_section(acceptance_log):
    phi = QuadInt(1, 1, 5)
    failures = []
    fib = ChebyParams(1, -1)
    if u_seq(fib, 10) != [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]:
        failures.append("sequence")
    if t_seq(fib, 6) != [2, 1, 3, 4, 7, 11, 18]:
        failures.append("companion sequence")
    if q_of_p(1, -1, 5) != 5 or oracle_q_of_p(1, -1, 5).value != 5:
        failures.append("entry at 5")
    expected_entries = {2: 3, 3: 4, 4: 6, 5: 5, 7: 8, 11: 10}
    for f, expected in expected_entries.items():
        # micro-oracle: walk the recurrence mod f right here
        prev, cur, idx = 1, 1, 1
        while cur % f != 0:
            prev, cur = cur, (prev + cur) % f
            idx += 1
        entry = idx + 1  # u_{idx} == 0 first, so the index is idx + 1
        if not entry == expected == n_of_f(phi, f) == oracle_n_of_f(phi, f).value:
            failures.append(f"entry at {f}")
    rep = analyze(phi, 5)
    if rep.mode != "degenerate" or failed_names(rep.table_checks):
        failures.append("degenerate report")
    ok = not failures
    acceptance_log.verdict(
        8,
        "golden ratio cross-section",
        ok,
        "sequence, entry indices for f in {2,3,4,5,7,11}, and the ramified prime "
        f"all agree across three routes; failures: {failures or 'none'}",
    )


def test_criterion_09_fundamental_units(acceptance_log):
    def brute_minimal(d):
        targets = (-4, 4) if d % 4 == 1 else (-1, 1)
        for b in range(1, 10**7):
            n = d * b * b
            for delta in targets:
                a2 = n + delta
                if a2 > 0 and math.isqrt(a2) ** 2 == a2:
                    a = math.isqrt(a2)
                    if d % 4 == 1 and (a + b) % 2 != 0:
                        continue
                    return QuadInt(a, b, d)
        raise AssertionError(d)

    squarefree = [
        d for d in range(2, 51)
        if all(d % (q * q) != 0 for q in range(2, math.isqrt(d) + 1))
    ]
    failures = []
    for d in squarefree:
        eps = fundamental_unit(d)
        if abs(eps.norm) != 1 or eps.a <= 0 or eps.b <= 0:
            failures.append(d)
        elif eps != brute_minimal(d):
            failures.append(d)
    larger = 0
    for d in range(51, 201):
        if any(d % (q * q) == 0 for q in range(2, math.isqrt(d) + 1)):
            continue
        larger += 1
        if abs(fundamental_unit(d).norm) != 1:
            failures.append(d)
    ok = not failures and len(squarefree) == 30
    acceptance_log.verdict(
        9,
        "fundamental units by continued fractions",
        ok,
        f"{len(squarefree)} radicands to 50 match the brute-force minimum exactly; "
        f"{larger} more to 200 give units; failures: {failures or 'none'}",
    )


def test_criterion_10_performance(acceptance_log):
    p = next(c for c in range((1 << 60) - 1, (1 << 60) - 4000, -2) if is_prime(c))
    assert p.bit_length() == 60
    params = ChebyParams(123456789, -987654321, p)
    best = min(
        (lambda t0: (eval_fast(params, 10**9), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )
    mismatch = 0
    small = ChebyParams(3, 2, 10007)
    ts = t_seq(ChebyParams(3, 2), 2000)
    us = u_seq(ChebyParams(3, 2), 2000)
    for n in range(2001):
        pair = eval_fast(small, n)
        if pair.t != ts[n] % 10007 or pair.u_prev != (us[n - 1] % 10007 if n else 0):
            mismatch += 1
    ok = best < 0.050 and mismatch == 0
    acceptance_log.verdict(
        10,
        "logarithmic evaluation speed and exactness",
        ok,
        f"index 10^9 mod a 60-bit prime in {best * 1000:.2f} ms "
        f"(tolerance 50 ms, best of 5); {mismatch} mismatches against the "
        f"recurrence through index 2000",
    )
