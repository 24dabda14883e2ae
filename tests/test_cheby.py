import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from quadorder import cheby
from quadorder.cheby import (
    ChebyPair,
    ChebyParams,
    compose_t,
    compose_u,
    eval_fast,
    run_identity_trials,
    t_exact,
    u_odd_closed_form,
    u_prev_exact,
)


# the step-by-step reference the Lucas kernel is tested against
def u_seq(params: ChebyParams, n_max: int) -> list[int]:
    """u_0 .. u_{n_max}, reduced mod params.modulus when set."""
    return _seq(params, n_max, 1, params.x)


def t_seq(params: ChebyParams, n_max: int) -> list[int]:
    """t_0 .. t_{n_max}, reduced mod params.modulus when set."""
    return _seq(params, n_max, 2, params.x)


def _seq(params: ChebyParams, n_max: int, w0: int, w1: int) -> list[int]:
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    x, s, m = params.x, params.s, params.modulus
    seq = [w0, w1]
    if m is not None:
        seq = [w0 % m, w1 % m]
    while len(seq) <= n_max:
        nxt = x * seq[-1] - s * seq[-2]
        seq.append(nxt % m if m is not None else nxt)
    return seq[: n_max + 1]


PELL = ChebyParams(2, -1)
FIB = ChebyParams(1, -1)


def test_params_validation():
    # s = 0 and a modulus below 2 are refused: rows of test_refusals
    ChebyParams(3, 1, None)
    ChebyParams(0, -4, 2)


def test_pell_sequences_frozen():
    assert u_seq(PELL, 10) == [1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741]
    assert t_seq(PELL, 10) == [2, 2, 6, 14, 34, 82, 198, 478, 1154, 2786, 6726]


def test_fibonacci_lucas_frozen():
    assert u_seq(FIB, 10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert t_seq(FIB, 10) == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]


def test_degenerate_top_of_range():
    # x = 2, s = 1 collapses to u_n = n + 1 and t_n = 2
    flat = ChebyParams(2, 1)
    assert u_seq(flat, 7) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert t_seq(flat, 7) == [2] * 8
    neg = ChebyParams(-2, 1)
    assert u_seq(neg, 5) == [1, -2, 3, -4, 5, -6]
    assert t_seq(neg, 5) == [2, -2, 2, -2, 2, -2]


def test_exact_single_term_matches_seq():
    pairs = [(2, -1), (1, -1), (3, 1), (-4, 7), (6, 1), (0, -3), (0, 1), (0, -1), (5, -6)]
    # every small index, then big integers up to index 5000
    for n_max, step in [(20, 1), (5000, 97)]:
        for x, s in pairs:
            params = ChebyParams(x, s)
            us = u_seq(params, n_max)
            ts = t_seq(params, n_max)
            for n in [*range(0, n_max + 1, step), n_max - 1, n_max]:
                assert t_exact(x, s, n) == ts[n], (x, s, n)
                assert u_prev_exact(x, s, n) == (us[n - 1] if n >= 1 else 0), (x, s, n)


@pytest.mark.parametrize("x,s", [(2, -1), (1, -1), (3, 1), (6, 1), (-4, 7), (5, -6)])
@pytest.mark.parametrize("m", [5, 97, 2**31 - 1])
def test_eval_fast_matches_recurrence(x, s, m):
    params = ChebyParams(x, s, m)
    us = u_seq(ChebyParams(x, s), 300)
    ts = t_seq(ChebyParams(x, s), 300)
    for n in range(0, 301, 7):
        pair = eval_fast(params, n)
        assert pair == ChebyPair(n=n, t=ts[n] % m, u_prev=(us[n - 1] % m if n else 0))


def test_eval_fast_endpoints():
    pair = eval_fast(ChebyParams(9, 4, 13), 0)
    assert (pair.t, pair.u_prev) == (2, 0)
    pair = eval_fast(ChebyParams(9, 4, 13), 1)
    assert (pair.t, pair.u_prev) == (9, 1)


@settings(max_examples=80)
@given(
    st.integers(-30, 30),
    st.integers(-10, 10).filter(lambda s: s != 0),
    st.integers(0, 120),
    st.sampled_from([2, 10007, 2**61 - 1]),
)
def test_eval_fast_hypothesis(x, s, n, m):
    # the reference is the step-by-step walk, not the exact evaluators,
    # which share eval_fast's doubling kernel
    params = ChebyParams(x, s, m)
    pair = eval_fast(params, n)
    assert pair.t == t_seq(params, n)[n]
    assert pair.u_prev == (u_seq(params, n)[n - 1] if n else 0)


def test_odd_closed_form_matches_recurrence():
    for x, s in [(2, -1), (1, -1), (3, 1), (-5, 2), (7, -3), (0, 5), (3, 0), (0, 0)]:
        for n in range(1, 22, 2):
            assert u_odd_closed_form(x, s, n) == u_prev_exact(x, s, n)


def _binomial_sum(x, s, n):
    # the term-by-term sum u_odd_closed_form evaluated before Horner's rule
    disc = x * x - 4 * s
    total = sum(
        comb(n, 2 * k + 1) * x ** (n - 2 * k - 1) * disc**k
        for k in range((n + 1) // 2)
    )
    quot, rem = divmod(total, 1 << (n - 1))
    assert rem == 0
    return quot


def test_odd_closed_form_matches_the_binomial_sum():
    # x = 0 leaves only the last term, and x^2 = 4s (2, 1 and -4, 4) makes
    # disc = 0, leaving only the first
    rng = random.Random(20261019)
    pairs = [(0, 5), (0, -3), (0, 0), (2, 1), (-4, 4), (3, 0), (1, -1)]
    pairs += [(rng.randint(-60, 60), rng.randint(-25, 25)) for _ in range(20)]
    for x, s in pairs:
        for n in range(1, 100, 2):
            assert u_odd_closed_form(x, s, n) == _binomial_sum(x, s, n), (x, s, n)


def test_odd_closed_form_frozen():
    assert u_odd_closed_form(3, 2, 5) == 31
    assert u_odd_closed_form(1, -1, 11) == 89


def test_compose_identities_exact():
    # index 0 included: u_{-1} = 0, t_0 = 2 and t_k(2; 1) = 2 make both laws hold there
    for x in range(-3, 4):
        for s in (-2, -1, 0, 1, 2):
            for m in range(0, 6):
                for n in range(0, 6):
                    lhs, rhs = compose_u(x, s, m, n)
                    assert lhs == rhs, (x, s, m, n)
                    lhs, rhs = compose_t(x, s, m, n)
                    assert lhs == rhs, (x, s, m, n)


def test_kernel_refuses_a_negative_index():
    # bin(-5) is '-0b101', so an unchecked ladder would answer for |n|: (11, 5) at Fibonacci's n = 5
    assert cheby._lucas(1, -1, 5) == (11, 5)
    for n in [*range(-12, 0), -(2**70)]:
        for args in [(1, -1, n), (1, -1, n, 97), (3, 0, n), (2, 1, n, 2)]:
            with pytest.raises(ValueError) as info:
                cheby._lucas(*args)
            assert str(info.value) == "n must be nonnegative", args
    # the check comes before any arithmetic on x, s or m
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        cheby._lucas(None, None, -1, None)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        cheby._lucas(None, None, -1, 7)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: u_prev_exact(2, -1, n),
        lambda n: t_exact(2, -1, n),
        lambda n: eval_fast(ChebyParams(2, -1, 97), n),
        lambda n: compose_u(2, -1, n, 3),
        lambda n: compose_u(2, -1, 3, n),
        lambda n: compose_t(2, -1, n, 3),
        lambda n: compose_t(2, -1, 3, n),
    ],
    ids=["u_prev_exact", "t_exact", "eval_fast", "compose_u-m", "compose_u-n", "compose_t-m",
         "compose_t-n"],
)
def test_fronts_refuse_a_negative_index_with_the_kernel_text(call):
    # the fronts hold no index rule of their own; the kernel's refusal reaches them unchanged
    for n in (-1, -2, -7):
        with pytest.raises(ValueError) as info:
            call(n)
        assert str(info.value) == "n must be nonnegative"


def test_compose_u_frozen():
    # u_5 = u_1(t_3; s^3) * u_2 for the Fibonacci parameters
    lhs, rhs = compose_u(1, -1, 2, 3)
    assert lhs == u_prev_exact(1, -1, 6) == 8
    assert rhs == 8


def test_identity_trials_evaluate_each_term_once(monkeypatch):
    # seven distinct terms a trial: (t_n, u_{n-1}), (t_mn, u_{mn-1}), t_2n,
    # t_m, the two composed sides and u_{odd-1}
    calls = []
    real = cheby._lucas
    monkeypatch.setattr(cheby, "_lucas", lambda *args: calls.append(args) or real(*args))
    tallies = run_identity_trials(60, seed=3)
    assert len(calls) == 7 * 60
    assert all(t.passed == t.total == 60 for t in tallies)


def test_a_wrong_composed_side_fails_only_the_compose_identities(monkeypatch):
    # only the composed sides evaluate at |x| > _X_BOUND (x = t_m or t_n), so
    # this perturbation reaches them alone; had an identity come to compare a
    # value with itself, its tally would stay at total
    real = cheby._lucas

    def perturbed(x, s, n, m=None):
        t, u = real(x, s, n, m)
        return (t + 1, u + 1) if abs(x) > cheby._X_BOUND else (t, u)

    monkeypatch.setattr(cheby, "_lucas", perturbed)
    tallies = run_identity_trials(200, seed=4)
    failing = [t.name for t in tallies if t.passed < t.total]
    assert failing == [
        "compose t: t(mn) == t_n(t_m(x;s); s^m)",
        "compose u: u(mn-1) == u(m-1)(t_n; s^n)*u(n-1)",
    ]
    assert all(t.first_failure for t in tallies if t.name in failing)


def test_a_wrong_closed_form_fails_only_its_identity(monkeypatch):
    real = cheby.u_odd_closed_form
    monkeypatch.setattr(cheby, "u_odd_closed_form", lambda x, s, n: real(x, s, n) + 1)
    tallies = run_identity_trials(50, seed=4)
    failing = [(t.name, t.passed) for t in tallies if t.passed < t.total]
    assert failing == [("odd closed form matches the recurrence", 0)]
