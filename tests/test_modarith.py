import bisect
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from quadorder import modarith
from quadorder.modarith import (
    TRIAL_BOUND,
    Factorization,
    factorize,
    is_prime,
    legendre,
    require_odd_prime,
    sqrt_mod,
)


def sieve(limit):
    """flags[n] is 1 for a prime n < limit and 0 otherwise."""
    flags = bytearray([1]) * limit
    flags[:2] = bytes(2)
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


def reference_factorize(n):
    """factorize as one walk over 2 and every odd q <= TRIAL_BOUND; the reference loop."""
    if n == 0:
        raise ValueError("cannot factor zero")
    rem = abs(n)
    factors = []
    q = 2
    while q <= TRIAL_BOUND and q * q <= rem:
        if rem % q == 0:
            k = 0
            while rem % q == 0:
                rem //= q
                k += 1
            factors.append((q, k))
        q += 1 if q == 2 else 2
    if rem > 1:
        if rem <= TRIAL_BOUND * TRIAL_BOUND or is_prime(rem):
            factors.append((rem, 1))
        else:
            raise ValueError(
                f"composite cofactor {rem} exceeds the trial bound {TRIAL_BOUND}"
            )
    return Factorization(base=abs(n), factors=tuple(factors))


def outcome(factor, n):
    """The factors, or the refusal text."""
    try:
        return factor(n).factors
    except ValueError as exc:
        return f"refused: {exc}"


def test_is_prime_matches_sieve():
    flags = sieve(2000)
    for n in range(2000):
        assert is_prime(n) == flags[n], n


def test_is_prime_negative_and_large():
    assert not is_prime(-7)
    assert not is_prime(1)
    assert is_prime(2**61 - 1)
    # 2^67 - 1 = 193707721 * 761838257287
    assert not is_prime(2**67 - 1)
    assert is_prime(10**9 + 7)


def test_require_odd_prime():
    require_odd_prime(3)
    require_odd_prime(97)


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 29, 97])
def test_legendre_against_count(p):
    for a in range(-p, 2 * p):
        assert legendre(a, p) == brute_legendre(a, p)


@given(st.integers(-500, 500), st.integers(-500, 500))
def test_legendre_multiplicative(a, b):
    p = 43
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 29, 41, 43, 73, 97, 103, 193, 577])
def test_sqrt_mod_exhaustive(p):
    # 97 and 193 exercise the deep 2-adic part of p - 1; 11, 19, 43 and 103
    # are 3 mod 4, where Tonelli-Shanks takes no step past its first power
    for a in range(p):
        r = sqrt_mod(a, p)
        if r is None:
            assert legendre(a, p) == -1
        else:
            assert r * r % p == a
            assert r <= p - r, "canonical root is the smaller of the pair"


def test_sqrt_mod_large_prime_three_mod_four():
    p = 2**61 - 1
    assert p % 4 == 3
    for a in (2, 3, 12345, 10**17 + 3, p - 5):
        r = sqrt_mod(a * a, p)
        assert r == min(a, p - a)
    assert sqrt_mod(-1, p) is None  # -1 is a non-residue when p == 3 mod 4


def test_nonresidue_budget_edge(monkeypatch):
    # 5 is the least non-residue mod 23, and (ln 23)^2 = 9.83: a budget of 5 finds it,
    # one of 4 refuses, naming the budget
    monkeypatch.setattr(modarith, "_BACH", 0.51)
    assert modarith._nonresidue(23) == 5
    monkeypatch.setattr(modarith, "_BACH", 0.5)
    with pytest.raises(ValueError) as info:
        modarith._nonresidue(23)
    assert str(info.value) == "no quadratic non-residue mod p = 23 up to 0.5 (ln p)^2 = 4"


def test_sqrt_mod_zero():
    assert sqrt_mod(0, 11) == 0
    assert sqrt_mod(121, 11) == 0


@pytest.mark.parametrize("p", [3, 13, 17, 97, 193, 257])
def test_sqrt_core_gives_the_canonical_root_for_any_nonresidue(p):
    # the canonical root min(r, p - r) does not depend on which non-residue
    # Tonelli-Shanks is handed; sqrt_mod hands it the least one
    nonresidues = [z for z in range(2, p) if legendre(z, p) == -1]
    assert modarith._nonresidue(p) == nonresidues[0]
    for a in range(p):
        expected = sqrt_mod(a, p)
        assert all(modarith._sqrt_mod(a, p, z) == expected for z in nonresidues), a


def test_factorize_roundtrip():
    for n in range(1, 600):
        fac = factorize(n)
        assert fac.base == n
        prod = 1
        for p, e in fac.factors:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac.factors] == sorted({p for p, _ in fac.factors})


def test_factorize_one_zero_negative():
    assert factorize(1).factors == ()  # factorize(0) is refused: a row of test_refusals
    # negative inputs factor through the absolute value
    assert factorize(-12) == factorize(12)


def test_factorize_frozen_values():
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2**10).factors == ((2, 10),)


def test_factorize_prime_cofactor_beyond_bound():
    # trial division stops well short of 10^9 + 7, primality testing closes the gap
    n = 4 * (10**9 + 7)
    fac = factorize(n)
    assert fac.factors == ((2, 2), (10**9 + 7, 1))


def test_factorize_prime_cofactor_within_bound_square(monkeypatch):
    # 999999999989 exceeds the trial bound but not its square, so it must be
    # prime; a primality test may confirm it only where its witnesses are a proof
    assert 999999999989 <= TRIAL_BOUND**2
    real_is_prime = modarith.is_prime

    def below_psi12(n):
        if n >= PSI12:
            raise AssertionError(f"is_prime({n}) was called")
        return real_is_prime(n)

    monkeypatch.setattr(modarith, "is_prime", below_psi12)
    factorize.cache_clear()
    fac = factorize(2 * 999999999989)
    assert fac.factors == ((2, 1), (999999999989, 1))
    # past psi12 only the walk may decide, and it finds every factor here
    assert factorize(999983**4).factors == ((999983, 4),)


def test_factorize_composite_cofactor_rejected():
    # both factors lie just above the trial bound, so trial division finds neither
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"composite cofactor .* trial bound {TRIAL_BOUND}$"):
        factorize(1000003 * 1000033)
    with pytest.raises(ValueError, match="composite cofactor"):
        factorize(1000003**2)
    assert time.perf_counter() - t0 < 2.0


def is_prime_calls(monkeypatch):
    """Every n modarith.is_prime is called on from now, in order, on uncached factorizations."""
    calls, real = [], modarith.is_prime
    monkeypatch.setattr(modarith, "is_prime", lambda n: calls.append(n) or real(n))
    factorize.cache_clear()
    return calls


def test_factorize_proves_a_prime_rho_returns_once(monkeypatch):
    calls = is_prime_calls(monkeypatch)
    r = 2**61 - 1
    assert factorize(2 * r).factors == ((2, 1), (r, 1))
    assert calls == [r]


def test_factorize_refuses_two_proved_primes_with_no_test_of_their_product(monkeypatch):
    calls = is_prime_calls(monkeypatch)
    text = f"^composite cofactor 1000036000099 exceeds the trial bound {TRIAL_BOUND}$"
    with pytest.raises(ValueError, match=text):
        factorize(1000003 * 1000033)
    # once, before rho splits it; both primes lie below 1025^2, so the first window proves them
    assert calls == [1000036000099]


def test_factorize_ignores_the_environment(monkeypatch):
    # the trial bound is a fixed constant; no environment variable moves it
    monkeypatch.setenv("QUADORDER_TRIAL_BOUND", "100")
    assert factorize(101 * 103).factors == ((101, 1), (103, 1))


def test_factorize_refusal_is_not_cached():
    n = 1000003 * 1000033
    factorize.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            factorize(n)
        texts.append(str(info.value))
    assert texts == [f"composite cofactor {n} exceeds the trial bound {TRIAL_BOUND}"] * 2
    assert factorize.cache_info().currsize == 0


def test_factorize_cache_is_bounded():
    assert factorize.cache_info().maxsize is not None


def test_factorization_is_squarefree():
    assert factorize(30).is_squarefree()
    assert not factorize(12).is_squarefree()
    assert factorize(1).is_squarefree()


WINDOW = modarith._WINDOW
PSI12 = 318665857834031151167461  # a composite is_prime accepts


def edge_primes():
    """(largest prime below, least prime from) each multiple of WINDOW up to TRIAL_BOUND."""
    flags = sieve(TRIAL_BOUND + 100)
    pairs = []
    for edge in range(WINDOW, TRIAL_BOUND + 1, WINDOW):
        below = next(q for q in range(edge - 1, 0, -1) if flags[q])
        above = next(q for q in range(edge, len(flags)) if flags[q])
        pairs.append((below, above))
    return pairs


EDGE_PRIMES = edge_primes()


def test_factorize_matches_reference_at_every_window_edge():
    for below, above in EDGE_PRIMES:
        for n in (below, above, 2 * below, -6 * above):
            # these leave a prime, so the reference walk stops at its square root
            assert outcome(factorize, n) == outcome(reference_factorize, n), n
        # the reference walks all the way to the prime here; the answers are known
        assert factorize(below * below).factors == ((below, 2),)
        assert factorize(above * above).factors == ((above, 2),)


@pytest.mark.parametrize("window", [1, 2, 3, 8, 100, len(EDGE_PRIMES) - 1])
def test_factorize_matches_reference_on_edge_squares(window):
    # the reference walks all the way to the prime, so a few edges are compared
    below, above = EDGE_PRIMES[window - 1]
    for n in (below * below, above * above, below * above, -below * below * above):
        assert outcome(factorize, n) == outcome(reference_factorize, n), n


def straddling_primes(seed=15, per_class=3):
    """Seeded prime lists, product below PSI12, with 0, 1, 2 or 3 primes above TRIAL_BOUND.

    The primes up to the bound lie above the first window, so what it leaves
    is at least (WINDOW + 1)^2 and goes to rho; a single prime above the
    bound lies at most TRIAL_BOUND^2 or past it.
    """
    rng = random.Random(seed)

    def prime_in(lo, hi):
        q = rng.randrange(lo, hi)
        while not is_prime(q):
            q += 1
        return q

    # (primes at most the bound, primes above it, the range of the latter)
    classes = [
        (2, 0, None, None),
        (1, 1, TRIAL_BOUND, TRIAL_BOUND**2),
        (1, 1, TRIAL_BOUND**2, 10**15),
        (1, 2, TRIAL_BOUND, 2 * 10**7),
        (0, 3, TRIAL_BOUND, 10**7),
    ]
    lists = []
    for below, above, lo, hi in classes:
        for _ in range(per_class):
            primes = [prime_in(WINDOW, TRIAL_BOUND - 100) for _ in range(below)]
            primes += [prime_in(lo, hi) for _ in range(above)]
            assert math.prod(primes) < PSI12
            lists.append(sorted(primes))
    return lists


STRADDLING = straddling_primes()


@pytest.mark.parametrize(
    "n",
    [
        *(math.prod(primes) * (-1) ** i for i, primes in enumerate(STRADDLING)),
        0, 1, -1, 2, -2, -360, 999983**2, 999983 * 1000003, 1000003 * 1000033,
        -1000003 * 1000033, 1000003**2, 2**61 - 1, -(2**61 - 1), 2 * (2**61 - 1),
        PSI12 - 1, PSI12, PSI12 + 1, TRIAL_BOUND**2, -TRIAL_BOUND**2,
        TRIAL_BOUND**2 - 1, TRIAL_BOUND**2 + 1, 999983 * 999979, 3 * 999983 * (2**61 - 1),
    ],
)
def test_factorize_matches_reference_fixed(n):
    assert outcome(factorize, n) == outcome(reference_factorize, n)


# factors around the window edges, small ones, and ones up to the trial bound
FACTOR = st.one_of(
    st.integers(2, 5000),
    st.sampled_from([q for pair in EDGE_PRIMES for q in pair]),
    st.integers(2, TRIAL_BOUND + 50),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(FACTOR, min_size=1, max_size=4), st.sampled_from([1, -1]))
def test_factorize_matches_reference_hypothesis(parts, sign):
    n = sign * math.prod(parts)
    assert outcome(factorize, n) == outcome(reference_factorize, n)


def test_window_products_built_on_demand_and_match_a_naive_sieve():
    # small inputs never leave the first window, so the sweep grid never pays for the table
    modarith._window_products.cache_clear()
    for n in range(-(10**4), 10**4 + 1):
        if n:
            factorize(n)
    assert modarith._window_products.cache_info().currsize == 0
    products = modarith._window_products()
    flags = sieve(TRIAL_BOUND + 1)
    assert len(products) == TRIAL_BOUND // WINDOW + 1
    for w, product in enumerate(products):
        odd_primes = range(max(3, w * WINDOW) | 1, min((w + 1) * WINDOW, TRIAL_BOUND + 1), 2)
        assert product == math.prod(q for q in odd_primes if flags[q]), w
    assert sys.getsizeof(products) + sum(map(sys.getsizeof, products)) < 256_000


def best_of_3(call):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_factorize_fast_once_the_table_is_built():
    def build():
        modarith._window_products.cache_clear()
        modarith._window_products()

    def refuse():
        with pytest.raises(ValueError, match="composite cofactor"):
            factorize(1000003 * 1000033)

    def uncached():
        factorize.cache_clear()
        factorize(2**61 - 1)

    assert best_of_3(build) < 0.2
    # neither walks the windows: one primality test accepts 2^61 - 1, rho splits the other
    assert best_of_3(uncached) < 0.02
    assert best_of_3(refuse) < 0.02


def test_factorize_walks_every_window_from_psi12_up():
    # at psi12 and above the witnesses prove nothing, so the walk decides
    modarith._window_products()
    for n in (2**89 - 1, 1000003 * 1000033 * (2**61 - 1)):
        assert n >= PSI12

    def uncached():
        factorize.cache_clear()
        factorize(2**89 - 1)

    def refuse():
        with pytest.raises(ValueError, match="composite cofactor"):
            factorize(1000003 * 1000033 * (2**61 - 1))

    assert best_of_3(uncached) < 0.02
    assert best_of_3(refuse) < 0.02


def contract(n, primes):
    """factorize's outcome given the primes of |n| with multiplicity: trial division's answer."""
    small = sorted((q, primes.count(q)) for q in set(primes) if q <= TRIAL_BOUND)
    above = [q for q in primes if q > TRIAL_BOUND]
    if len(above) > 1:
        return f"refused: composite cofactor {math.prod(above)} exceeds the trial bound {TRIAL_BOUND}"
    return tuple(small + [(q, 1) for q in above])


@pytest.mark.parametrize(
    "primes",
    [
        # semiprimes straddling the trial bound
        [999983, 1000003], [1009, 1000003], [1031, 999983], [999979, 999983],
        # prime powers above the first window
        [1031, 1031, 1031], [65537, 65537], [1031, 1031, 1000003], [1000003, 1000003, 3],
        # three primes
        [1031, 1033, 1039], [1031, 65537, 1000003], [999979, 999983, 1000003],
        # two primes above the trial bound, alone and with small ones
        [1000003, 1000033], [7, 1000003, 1000033], [1013, 2**61 - 1],
        # psi12 - 1 = 2^2 * 3^3 * 5 * 11 * 17 * 474349721 * 6652754837
        [2, 2, 3, 3, 3, 5, 11, 17, 474349721, 6652754837],
        *STRADDLING,
    ],
)
def test_factorize_known_factorizations(primes):
    n = math.prod(primes)
    assert n < PSI12
    assert outcome(factorize, n) == contract(n, primes)


def test_factorize_past_the_rho_budget_refuses():
    # two 38-bit primes: rho would need about 2^19 steps, past its budget
    p1, p2 = 274877906951, 274878906989
    assert is_prime(p1) and is_prime(p2) and p1 * p2 < PSI12
    assert modarith._prime_factors(p1 * p2) == ([], p1 * p2)
    t0 = time.perf_counter()
    assert outcome(factorize, p1 * p2) == contract(p1 * p2, [p1, p2])
    assert time.perf_counter() - t0 < 1.0


def test_rho_budget_edge(monkeypatch):
    # 874771 is the prime in (1024, 10^6] rho takes longest to split off (c = 1);
    # with the budget this split takes factorize answers, one step short it refuses
    n = 874771 * 1000003
    d, left = modarith._rho_divisor(n, modarith._RHO_STEPS)
    assert d in (874771, 1000003)
    steps = modarith._RHO_STEPS - left
    assert steps < modarith._RHO_STEPS // 8
    modarith._window_products.cache_clear()
    monkeypatch.setattr(modarith, "_RHO_STEPS", steps)
    factorize.cache_clear()
    assert factorize(n).factors == ((874771, 1), (1000003, 1))
    monkeypatch.setattr(modarith, "_RHO_STEPS", steps - 1)
    factorize.cache_clear()
    refusal = f"refused: composite cofactor {n} exceeds the trial bound {TRIAL_BOUND}"
    assert outcome(factorize, n) == refusal
    assert modarith._window_products.cache_info().currsize == 0


# inputs below psi12 on which rho spends its budget, and trial division's refusal of each
SPENT_BUDGET = {
    # rho splits off 1031 first, so the cofactor it cannot split is all that is refused
    1031 * 16000000039 * 17000000021:
        "composite cofactor 272000000999000000819 exceeds the trial bound 1000000",
    PSI12 - 1: "composite cofactor 3155732400812350477 exceeds the trial bound 1000000",
    274877906951 * 274878906989:
        "composite cofactor 75558138618114925580539 exceeds the trial bound 1000000",
}


@pytest.mark.parametrize("n", sorted(SPENT_BUDGET))
def test_spent_rho_budget_refuses_at_once(n):
    assert n < PSI12

    def refuse():
        modarith._window_products.cache_clear()
        factorize.cache_clear()
        with pytest.raises(ValueError) as info:
            factorize(n)
        assert str(info.value) == SPENT_BUDGET[n]

    assert best_of_3(refuse) < 0.1
    assert modarith._window_products.cache_info().currsize == 0


def test_factorize_below_psi12_never_builds_the_table():
    # the draws of test_factorize_matches_sympy_below_psi12, each factored cold
    modarith._window_products.cache_clear()
    rng = random.Random(12)
    for _ in range(300):
        n = 1
        for _ in range(rng.randint(1, 4)):
            part = rng.randrange(2, 10 ** rng.randint(1, 23))
            if n * part < PSI12:
                n *= part
        factorize.cache_clear()
        outcome(factorize, n)
    assert modarith._window_products.cache_info().currsize == 0


def test_odd_prime_flags_list_the_odd_primes_below_every_limit():
    # the sweep lists its primes this way; limits below 2 give no flags, and none raises
    flags = sieve(6000)
    odd = [n for n in range(3, 6000, 2) if flags[n]]
    for limit in range(-3, 6000):
        listed = itertools.compress(range(1, limit, 2), modarith._odd_prime_flags(limit))
        assert list(listed) == odd[: bisect.bisect_left(odd, limit)], limit


def test_odd_prime_flags_strike_in_bounded_slices():
    # 3 alone strikes 333,333 flags below 2 * 10^6, several slices of modarith._STRIKE
    limit = 2 * 10**6
    assert modarith._odd_prime_flags(limit) == sieve(limit)[1::2]
    tracemalloc.start()
    try:
        flags = modarith._odd_prime_flags(2 * 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # zeros for the whole of 3's strike at once would add a third of the flags again
    assert peak <= len(flags) + (1 << 20)


def test_factorize_below_psi12_is_fast_and_builds_no_table():
    modarith._window_products.cache_clear()

    def uncached():
        factorize.cache_clear()
        factorize(2**61 - 1)

    def refuse():
        with pytest.raises(ValueError, match="composite cofactor"):
            factorize(1000003 * 1000033)

    assert best_of_3(uncached) < 0.005
    assert best_of_3(refuse) < 0.005
    assert modarith._window_products.cache_info().currsize == 0


def test_factorize_matches_sympy_below_psi12():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for _ in range(300):
        n = 1
        for _ in range(rng.randint(1, 4)):
            part = rng.randrange(2, 10 ** rng.randint(1, 23))
            if n * part < PSI12:
                n *= part
        primes = [q for q, k in sympy.factorint(n).items() for _ in range(k)]
        assert outcome(factorize, n) == contract(n, primes), n


# the witness table: is_prime against the loop over all twelve witnesses

# A014233: psi_k, the least strong pseudoprime to the first k prime bases
# (Jaeschke, Math. Comp. 61, 1993)
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, PSI12,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n, a):
    """n passes the strong (Miller-Rabin) test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def reference_is_prime(n):
    """is_prime as one Miller-Rabin loop over all twelve witnesses; the reference loop."""
    if n < 2:
        return False
    for q in BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    return all(strong_probable_prime(n, a) for a in BASES)


# composites that pass the strong test to each of the first k bases:
# base 2 (A001262), bases 2 and 3 (A072276), and bases 2, 3 and 5
STRONG_PSEUDOPRIMES = {
    1: [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
        74665, 80581, 85489, 88357, 90751, 104653, 130561, 196093, 220729,
        233017, 252601, 253241, 256999, 271951, 280601, 314821, 357761],
    2: [1373653, 1530787, 1987021, 2284453, 3116107, 5173601, 6787327,
        11541307, 13694761, 15978007, 16070429, 16879501, 25326001],
    3: [25326001, 161304001, 960946321, 1157839381, 3215031751],
}


# (bound, bases): below bound, Miller-Rabin on these bases decides.  The first
# three rows are Jaeschke's (Math. Comp. 61, 1993), the first k prime bases below
# psi_k; the rest are the sets of miller-rabin.appspot.com that sympy's isprime
# uses, the last Sinclair's seven bases.  From 2^64 up all twelve BASES run.
TABLE = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851, (
        2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977, (
        2, 123635709730000, 9233062284813009, 43835965440333360, 761179012939631437,
        1263739024124850375)),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)
TABLE_BOUNDS = [bound for bound, _ in TABLE]


def test_base_table_is_pinned():
    assert modarith._BASES == TABLE
    assert TABLE_BOUNDS == sorted(set(TABLE_BOUNDS)) and TABLE_BOUNDS[-1] == 2**64
    for k, row in enumerate(TABLE[:3], 1):
        assert row == (PSI[k - 1], BASES[:k])
    assert modarith._WITNESSES == BASES


@pytest.mark.parametrize("row", range(len(TABLE)))
def test_is_prime_matches_reference_across_each_row(row):
    # reference_is_prime is exact below psi12 > 2^64, so it checks every row;
    # the draws around each bound are test_is_prime_matches_reference_around_each_psi's
    rng = random.Random(row)
    low, bound = TABLE_BOUNDS[row - 1] if row else 41 * 41, TABLE_BOUNDS[row]
    for n in [rng.randrange(low, bound) | 1 for _ in range(800)]:
        assert is_prime(n) == reference_is_prime(n), n


# odd divisors of a table base in its own row with no prime factor <= 37: each
# skips that base, and 3709689913 is a prime that the others must pass
BASE_DIVISORS = (
    1896398411, 3695202151, 68296289, 3709689913, 205836409, 210657001, 215590489,
    9459272301649, 401079056743, 2496591062878201, 346338208585571, 463740991156951,
)


@pytest.mark.parametrize("n", BASE_DIVISORS)
def test_is_prime_skips_a_base_that_n_divides(n):
    low, bound, bases = next(
        (low, bound, bases) for low, (bound, bases) in zip([0] + TABLE_BOUNDS, TABLE) if n < bound
    )
    assert low <= n and any(a % n == 0 for a in bases)
    assert is_prime(n) == reference_is_prime(n) == (n == 3709689913)


def chernick_numbers(limit):
    """(6k+1)(12k+1)(18k+1) below limit with all three factors prime: Carmichael numbers."""
    def chernick(k):
        return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)

    top = next(k for k in itertools.count(1) if chernick(k) >= limit)
    flags = sieve(18 * top + 1)
    return [
        chernick(k) for k in range(1, top)
        if flags[6 * k + 1] and flags[12 * k + 1] and flags[18 * k + 1]
    ]


def test_is_prime_rejects_every_chernick_number_below_2_64():
    chernick = chernick_numbers(2**64)
    fooling = [n for n in chernick if strong_probable_prime(n, 2)]
    assert (len(chernick), len(fooling)) == (1675, 251)
    assert not any(is_prime(n) or reference_is_prime(n) for n in chernick)


def test_is_prime_rejects_base_2_pseudoprimes_of_the_form_k_plus_1_times_2k_plus_1():
    # n = (k+1)(2k+1) with both factors prime, for k + 1 below 10^6
    flags = sieve(2 * 10**6)
    half = len(flags) // 2
    fooling = [
        q * (2 * q - 1) for q in itertools.compress(range(half), flags[:half])
        if flags[2 * q - 1] and strong_probable_prime(q * (2 * q - 1), 2)
    ]
    assert fooling[:4] == [49141, 104653, 873181, 1373653] and len(fooling) == 1284
    assert not any(is_prime(n) or reference_is_prime(n) for n in fooling)


@pytest.mark.parametrize("k", range(1, 12))
def test_each_psi_is_rejected(k):
    psi = PSI[k - 1]
    assert all(strong_probable_prime(psi, a) for a in BASES[:k])  # it fools k bases
    assert not reference_is_prime(psi)
    assert not is_prime(psi)
    assert not is_prime(-psi)


def test_psi12_is_still_accepted():
    # all twelve witnesses pass psi12 = 399165290221 * 798330580441
    assert PSI12 == 399165290221 * 798330580441
    assert is_prime(PSI12) and reference_is_prime(PSI12)


def test_is_prime_matches_reference_below_2e5():
    assert [n for n in range(-10, 2 * 10**5) if is_prime(n) != reference_is_prime(n)] == []


@pytest.mark.parametrize("k", sorted(STRONG_PSEUDOPRIMES))
def test_is_prime_rejects_strong_pseudoprimes(k):
    for n in STRONG_PSEUDOPRIMES[k]:
        assert all(strong_probable_prime(n, a) for a in BASES[:k]), n
        assert any(n % q == 0 for q in range(3, math.isqrt(n) + 1, 2)), n  # composite
        assert not is_prime(n) and not reference_is_prime(n), n


def draws_around(psi, rng, count=400):
    """Odd n just below and just above psi, and a spread within a factor of 2."""
    near = [psi + rng.randrange(-(10**4), 10**4) | 1 for _ in range(count)]
    wide = [rng.randrange(psi // 2, 2 * psi) | 1 for _ in range(count)]
    return [n for n in near + wide if n < PSI12]  # psi12 itself is the known miss


@pytest.mark.parametrize("psi", sorted(set(PSI) | set(TABLE_BOUNDS)))
def test_is_prime_matches_reference_around_each_psi(psi):
    rng = random.Random(psi)
    for n in draws_around(psi, rng):
        assert is_prime(n) == reference_is_prime(n), n


@pytest.mark.parametrize("psi", sorted(set(PSI) | set(TABLE_BOUNDS)))
def test_is_prime_matches_sympy_around_each_psi(psi):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(psi + 1)
    for n in draws_around(psi, rng):
        assert is_prime(n) == bool(sympy.isprime(n)), n


# the first window: one gcd names the odd primes below WINDOW

SMALL_PRIMES = [q for q in range(2, WINDOW) if is_prime(q)]
EDGE_PRIMES_FLAT = sorted({q for pair in EDGE_PRIMES for q in pair})


def test_first_window_is_sieved_without_is_prime(monkeypatch):
    monkeypatch.setattr(modarith, "is_prime", lambda n: pytest.fail("is_prime ran"))
    modarith._first_window.cache_clear()
    primes, product = modarith._first_window()
    flags = sieve(WINDOW)
    assert primes == tuple(q for q in range(3, WINDOW) if flags[q]) and len(primes) == 171
    assert product == math.prod(primes)


def test_factorize_matches_reference_up_to_2_15():
    for n in range(1, 2**15 + 1):
        for signed in (n, -n):
            assert outcome(factorize, signed) == outcome(reference_factorize, signed), signed


def test_factorize_matches_reference_on_first_window_products():
    rng = random.Random(15)
    inputs = [math.prod(SMALL_PRIMES), math.prod(SMALL_PRIMES) ** 2, 1021**9, 3**60, 2**200]
    inputs += [q**k for q in SMALL_PRIMES[-12:] + SMALL_PRIMES[:12] for k in (2, 5, 11)]
    for _ in range(300):
        parts = rng.sample(SMALL_PRIMES, rng.randint(1, 12))
        inputs.append(math.prod(q ** rng.randint(1, 9) for q in parts))
    for n in inputs:
        for signed in (n, -n):
            assert outcome(factorize, signed) == outcome(reference_factorize, signed), signed


def test_factorize_matches_reference_on_powers_of_two_times_m():
    rng = random.Random(16)
    for k in range(0, 80, 3):
        for m in (1, 3, 1021, 1031, 999983, 3 * 1031 * 1033, rng.randrange(1, 10**6) | 1):
            n = 2**k * m
            assert outcome(factorize, n) == outcome(reference_factorize, n), n


def largest_prime_below(n):
    return next(q for q in range(n - 1, 1, -1) if is_prime(q))


def least_prime_from(n):
    return next(q for q in range(n, 2 * n) if is_prime(q))


def test_factorize_matches_reference_around_the_first_window_square():
    # what the first window leaves has no prime factor below WINDOW, so below
    # (WINDOW + 1)^2 it is 1 or a prime and above that it may be composite
    edge = (WINDOW + 1) ** 2
    rng = random.Random(17)
    parts = [
        largest_prime_below(edge), least_prime_from(edge), largest_prime_below(WINDOW * WINDOW),
        1031 * 1031, 1031 * 1033, 1033 * 1039 * 1049, least_prime_from(WINDOW),
    ]
    for part in parts:
        for small in (1, 2, 3 * 5 * 7, 1021**3, math.prod(rng.sample(SMALL_PRIMES, 6))):
            n = small * part
            assert outcome(factorize, n) == outcome(reference_factorize, n), n


def test_factorize_matches_reference_between_the_window_square_and_psi12():
    # the reference walks to the second-largest prime of the part, so those
    # stay below 10^5; the largest one runs past the trial bound
    rng = random.Random(18)
    big = [q for q in EDGE_PRIMES_FLAT if q < 10**5]
    checked = 0
    while checked < 150:
        part = math.prod(rng.sample(big, rng.randint(1, 2)))
        part *= least_prime_from(rng.randrange(WINDOW, 10 ** rng.randint(4, 12)))
        n = math.prod(rng.sample(SMALL_PRIMES, rng.randint(0, 4))) * part
        if n >= PSI12:
            continue
        assert (WINDOW + 1) ** 2 <= part
        assert outcome(factorize, n) == outcome(reference_factorize, n), n
        checked += 1

