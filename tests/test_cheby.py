import pytest
from hypothesis import given, settings, strategies as st

from quadorder.cheby import (
    ChebyPair,
    ChebyParams,
    compose_t,
    compose_u,
    eval_fast,
    t_exact,
    t_seq,
    u_odd_closed_form,
    u_prev_exact,
    u_seq,
)

PELL = ChebyParams(2, -1)
FIB = ChebyParams(1, -1)


def test_params_validation():
    with pytest.raises(ValueError):
        ChebyParams(3, 0)
    with pytest.raises(ValueError):
        ChebyParams(3, 1, 1)
    with pytest.raises(ValueError):
        ChebyParams(3, 1, -5)
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


def test_eval_fast_requires_modulus():
    with pytest.raises(ValueError):
        eval_fast(ChebyParams(2, -1), 5)
    with pytest.raises(ValueError):
        eval_fast(ChebyParams(2, -1, 97), -1)


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


def test_odd_closed_form_frozen():
    assert u_odd_closed_form(3, 2, 5) == 31
    assert u_odd_closed_form(1, -1, 11) == 89


def test_odd_closed_form_rejects_even_and_modular():
    with pytest.raises(ValueError):
        u_odd_closed_form(3, 2, 4)


def test_compose_identities_exact():
    for x in range(-3, 4):
        for s in (-2, -1, 0, 1, 2):
            for m in range(1, 6):
                for n in range(1, 6):
                    lhs, rhs = compose_u(x, s, m, n)
                    assert lhs == rhs, (x, s, m, n)
                    lhs, rhs = compose_t(x, s, m, n)
                    assert lhs == rhs, (x, s, m, n)


def test_compose_u_frozen():
    # u_5 = u_1(t_3; s^3) * u_2 for the Fibonacci parameters
    lhs, rhs = compose_u(1, -1, 2, 3)
    assert lhs == u_prev_exact(1, -1, 6) == 8
    assert rhs == 8
