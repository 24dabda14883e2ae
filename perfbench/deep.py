"""The deep workload: single API calls at moduli far beyond the sweep grid.

Queries are drawn from the seed with the benchmark's own number theory
(numtheory), never with the package's is_prime or factorize, which are
under test.  Every query kind is sized so its cost is set by the linear
scans and trial division the package uses at large moduli.
"""

from __future__ import annotations

import random
from math import gcd

from numtheory import factor_small, is_prime, is_squarefree, lucas_mod, random_prime

# module attributes, not bound copies, so that the traced run's wrappers see the calls
from quadorder import cheby, conductor, modarith, oracle, ordersolver, quadint, units

# psi_12: the least composite that passes Miller-Rabin with bases 2..37
PSI12 = 318665857834031151167461
TWO_PRIME_F = 1000003 * 1000033

# queries of each kind per repetition; the probes come on top
MIX = (
    ("q_of_p", 12),
    ("bound_full", 60),
    ("fundamental_unit", 50),
    ("analyze", 6),
    ("factorize", 60),
    ("divisor_bound", 10),
)

# the oracle subsample: a few queries per run, small enough for naive scans
ORACLE_Q_OF_P = 3
ORACLE_N_OF_F_MAX = 4000
ORACLE_N_OF_F = 4

SMALL_D = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


def _log_scale(lo: float, hi: float, u: float) -> int:
    return int(lo * (hi / lo) ** u)


def _prime_near(rng: random.Random, target: int) -> int:
    """The first prime after a random point within 5% above target."""
    n = target + rng.randrange(max(1, target // 20))
    while not is_prime(n):
        n += 1
    return n


def _alpha(rng: random.Random, bound: int = 9) -> tuple[int, int, int]:
    """(a, b, d) of a valid quadratic integer with b != 0 and norm != 0."""
    while True:
        d = rng.choice(SMALL_D)
        a, b = rng.randint(-bound, bound), rng.randint(1, bound) * rng.choice((-1, 1))
        if d % 4 == 1 and (a + b) % 2:
            continue
        norm = a * a - b * b * d
        if d % 4 == 1:
            norm //= 4
        if norm != 0:
            return a, b, d


def _trace_norm(a: int, b: int, d: int) -> tuple[int, int]:
    if d % 4 == 1:
        return a, (a * a - b * b * d) // 4
    return 2 * a, a * a - b * b * d


def _euler(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# Each generator takes u in (0, 1): the i-th of n queries of a kind gets
# u = (i + 1/2)/n.  u sets the size that drives the query's cost, so every
# chunk covers the whole size range the same way and its cost, tail and
# memory peak vary little by seed; the seed picks the rest of each input.


def _gen_q_of_p(rng, u):
    """q(p) is taken maximal, q = p - ell, so the scan walks p - ell steps."""
    while True:
        p = _prime_near(rng, _log_scale(10**5, 10**6, u))
        x = rng.randint(-20, 20)
        s = rng.randint(1, 20) * rng.choice((-1, 1))
        if s % p == 0 or (x * x - 4 * s) % p == 0:
            continue
        n = p - _euler(x * x - 4 * s, p)
        if all(lucas_mod(x, s, n // r, p)[1] for r, _ in factor_small(n)):
            return ["q_of_p", x, s, p]


def _gen_bound_full(rng, u):
    target = _log_scale(60, 3 * 10**5, u)
    while True:
        a, b, d = _alpha(rng)
        x, s = _trace_norm(a, b, d)
        shape = rng.randrange(3)
        if shape == 0:
            f = _prime_near(rng, target)
        elif shape == 1:
            k = rng.choice((2, 3))
            f = _prime_near(rng, max(3, round(target ** (1 / k)))) ** k
        else:
            p1 = random_prime(rng, 3, 60)
            f = p1 * _prime_near(rng, max(3, target // p1))
        # odd f coprime to the norm: the index exists and the bound is claimed
        if f % 2 and gcd(f, s) == 1:
            return ["bound_full", a, b, d, f]


def _gen_fundamental_unit(rng, u):
    d = _log_scale(10**4, 10**7, u)
    while not is_squarefree(d):
        d += 1
    return ["fundamental_unit", d]


def _gen_analyze(rng, u):
    """A 60-bit prime p = 2cr + 1 (r prime) with ell = -1, so analyze factors p - 1."""
    while True:
        c = rng.randint(1, 1000)
        r = random_prime(rng, 2**58 // c, 2**59 // c)
        p = 2 * c * r + 1
        if not is_prime(p):
            continue
        for _ in range(50):
            a, b, d = _alpha(rng)
            x, s = _trace_norm(a, b, d)
            if abs(s) >= 2 and _euler(x * x - 4 * s, p) == -1:
                return ["analyze", a, b, d, p]


def _gen_factorize(rng, u):
    r1 = _prime_near(rng, _log_scale(10**3, 9 * 10**5, u))
    # a cofactor below r1^2 stops trial division at r1, so cost tracks r1
    r2 = random_prime(rng, r1 + 1, min(r1 * r1, 10**12))
    return ["factorize", r1 * r2, r1, r2]


def _gen_divisor_bound(rng, u):
    """Norm +1, k = 3, and an x with no cube-root preimage: the scan walks all p.

    x = eta + 1/eta with eta in a cyclic group of order N = p - ell, and a
    preimage y exists exactly when eta is a cube there, i.e. when
    eta^(N/3) = 1, which is t_{N/3}(x) == 2 with u_{N/3-1}(x) == 0.
    """
    while True:
        p = _prime_near(rng, _log_scale(5000, 20000, u))
        x = rng.randrange(3, p - 2)
        ell = _euler(x * x - 4, p)
        if ell and (p - ell) % 3 == 0 and not _is_cube(x, p, ell):
            return ["divisor_bound", x, 1, p, 3]


def _is_cube(x: int, p: int, ell: int) -> bool:
    return lucas_mod(x, 1, (p - ell) // 3, p) == (2, 0)


_GENERATORS = {
    "q_of_p": _gen_q_of_p,
    "bound_full": _gen_bound_full,
    "fundamental_unit": _gen_fundamental_unit,
    "analyze": _gen_analyze,
    "factorize": _gen_factorize,
    "divisor_bound": _gen_divisor_bound,
}

# inputs whose right outcome is known and which the seed gets wrong
PROBES = (
    ["probe_analyze_psi12", 1, 1, 2, PSI12],
    ["probe_bound_full_two_prime", 1, 1, 2, TWO_PRIME_F],
)


def make_queries(seed: int, chunk: int) -> list[list]:
    """The chunk-th batch of the seed's query stream, probes last."""
    rng = random.Random(seed * 1_000_003 + chunk)
    queries = [
        _GENERATORS[kind](rng, (i + 0.5) / count)
        for kind, count in MIX
        for i in range(count)
    ]
    rng.shuffle(queries)
    return queries + [list(p) for p in PROBES]


def run(query: list):
    """Return the answer in canonical JSON form; exceptions propagate."""
    kind, args = query[0], query[1:]
    qi = quadint.QuadInt
    if kind == "q_of_p":
        return ordersolver.q_of_p(*args)
    if kind in ("bound_full", "probe_bound_full_two_prime"):
        a, b, d, f = args
        rep = conductor.bound_full(qi(a, b, d), f)
        return [rep.f0, rep.n_exact, rep.bound]
    if kind == "fundamental_unit":
        eps = units.fundamental_unit(args[0])
        return [eps.a, eps.b]
    if kind in ("analyze", "probe_analyze_psi12"):
        a, b, d, p = args
        rep = ordersolver.analyze(qi(a, b, d), p)
        return [rep.mode, rep.ell, rep.bound_n, [c.status for c in rep.table_checks]]
    if kind == "factorize":
        return [list(f) for f in modarith.factorize(args[0]).factors]
    if kind == "divisor_bound":
        res = ordersolver.divisor_bound(*args)
        if res is None:
            return None
        return [res.n, res.preimage, [c.status for c in res.checks]]
    raise ValueError(f"unknown query kind {kind}")


def _least_vanishing(x: int, s: int, m: int, nu: int) -> bool:
    """u_{nu-1} == 0 mod m and u_{nu/r-1} != 0 for each prime r | nu.

    With gcd(m, s) = 1 the indices where u vanishes are the multiples
    of the least one, so this proves nu is least.
    """
    params = cheby.ChebyParams(x, s, m)
    if nu < 1 or cheby.eval_fast(params, nu).u_prev != 0:
        return False
    return all(cheby.eval_fast(params, nu // r).u_prev != 0 for r, _ in factor_small(nu))


def outcome_ok(query: list, answer, error: BaseException | None) -> bool:
    """Whether the outcome is the right one; probes expect their known outcome."""
    kind, args = query[0], query[1:]
    if kind == "probe_analyze_psi12":
        # the modulus is composite: the right outcome is a refusal
        return isinstance(error, ValueError)
    if error is not None:
        return False
    if kind == "q_of_p":
        x, s, p = args
        return _least_vanishing(x, s, p, answer)
    if kind in ("bound_full", "probe_bound_full_two_prime"):
        a, b, d, f = args
        f0, n_exact, bound = answer
        x, s = _trace_norm(a, b, d)
        return (
            f0 == f // gcd(b, f)
            and (bound is None or n_exact <= bound)
            and (n_exact == 1 if f0 == 1 else _least_vanishing(x, s, f0, n_exact))
        )
    if kind == "fundamental_unit":
        d = args[0]
        ua, ub = answer
        norm = ua * ua - d * ub * ub
        return ua > 0 and ub > 0 and norm in ((4, -4) if d % 4 == 1 else (1, -1))
    if kind == "analyze":
        mode, ell, bound_n, statuses = answer
        p = args[3]
        return (
            mode == "general" and ell == -1 and bound_n % (p + 1) == 0
            and "fail" not in statuses
        )
    if kind == "factorize":
        return answer == [[args[1], 1], [args[2], 1]]
    if kind == "divisor_bound":
        # generated without a preimage, so the only right answer is None
        x, _, p, _ = args
        return answer is None and not _is_cube(x, p, _euler(x * x - 4, p))
    raise ValueError(f"unknown query kind {kind}")


def oracle_mismatches(queries: list[list], answers: list, seed: int) -> list[str]:
    """Cross-check a seeded subsample against the naive oracle scans."""
    rng = random.Random(seed ^ 0x0C1E)
    bad = []
    qp = [(q, ans) for q, ans in zip(queries, answers) if q[0] == "q_of_p"]
    for q, ans in rng.sample(qp, min(ORACLE_Q_OF_P, len(qp))):
        x, s, p = q[1:]
        if oracle.oracle_q_of_p(x, s, p, cap=p + 2).value != ans:
            bad.append(f"oracle q(p) disagrees on {q}")
    bf = [
        (q, ans) for q, ans in zip(queries, answers)
        if q[0] == "bound_full" and ans is not None and ans[1] <= ORACLE_N_OF_F_MAX
    ]
    for q, ans in rng.sample(bf, min(ORACLE_N_OF_F, len(bf))):
        a, b, d, f = q[1:]
        n_exact = ans[1]
        if oracle.oracle_n_of_f(quadint.QuadInt(a, b, d), f, cap=n_exact + 2).value != n_exact:
            bad.append(f"oracle n(f) disagrees on {q}")
    return bad
