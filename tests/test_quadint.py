from quadorder.quadint import Mat2, QuadInt

DS = [2, 3, 5, 6, 7, 13, -1, -2, -7]


def valid_pairs(d, bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if d % 4 == 1 and (a + b) % 2 != 0:
                continue
            yield a, b


def test_radicand_validation():
    # 0, 1 and radicands with a square factor are refused: rows of test_refusals
    QuadInt(1, 1, -7)
    QuadInt(0, 1, -1)


def test_parity_rule_for_one_mod_four():
    # unequal parities, as in QuadInt(1, 0, 5), are refused: rows of test_refusals
    QuadInt(1, 1, 5)
    QuadInt(2, 0, 5)
    QuadInt(1, 1, -7)


def test_one_and_r():
    assert QuadInt.one(5) == QuadInt(2, 0, 5)
    assert QuadInt.one(2) == QuadInt(1, 0, 2)
    assert QuadInt(1, 1, 5).r == 1
    assert QuadInt(1, 1, 2).r == 2
    assert QuadInt(1, 1, 3).r == 3
    assert QuadInt(1, 1, -1).r == 3
    assert QuadInt(1, 1, -2).r == 2
    assert QuadInt(1, 1, -7).r == 1


def test_norm_trace_frozen():
    alpha = QuadInt(1, 1, 2)
    assert (alpha.trace_x, alpha.norm) == (2, -1)
    alpha = QuadInt(3, 2, 2)
    assert (alpha.trace_x, alpha.norm) == (6, 1)
    phi = QuadInt(1, 1, 5)
    assert (phi.trace_x, phi.norm) == (1, -1)
    alpha = QuadInt(1, 1, -7)
    assert (alpha.trace_x, alpha.norm) == (1, 2)
    alpha = QuadInt(2, 1, -1)
    assert (alpha.trace_x, alpha.norm) == (4, 5)


def test_norm_and_trace_are_computed_once_and_stay_out_of_identity():
    # set by __post_init__; equality, hashing and the repr still see (a, b, d) alone
    alpha = QuadInt(3, 2, 2)
    assert QuadInt.__slots__ == ("a", "b", "d", "norm", "trace_x")
    assert (alpha.a, alpha.b, alpha.d, alpha.norm, alpha.trace_x) == (3, 2, 2, 1, 6)
    assert repr(alpha) == "QuadInt(a=3, b=2, d=2)"
    assert alpha == QuadInt(3, 2, 2) and hash(alpha) == hash(QuadInt(3, 2, 2))


def test_mul_frozen():
    r2 = QuadInt(1, 1, 2)
    assert r2 * r2 == QuadInt(3, 2, 2)
    assert r2 * QuadInt(3, 2, 2) == QuadInt(7, 5, 2)
    phi = QuadInt(1, 1, 5)
    assert phi * phi == QuadInt(3, 1, 5)
    # conjugates multiply to the norm, stored as (4 + 0*sqrt(-7))/2
    assert QuadInt(1, 1, -7) * QuadInt(1, -1, -7) == QuadInt(4, 0, -7)


def test_embed_is_multiplicative():
    for d in DS:
        for a, b in valid_pairs(d, 3):
            if a == 0 and b == 0:
                continue
            alpha = QuadInt(a, b, d)
            m = alpha.embed()
            assert m.det == alpha.norm
            assert m.trace == alpha.trace_x
            for a2, b2 in [(1, 1), (3, 1), (0, 2) if d % 4 != 1 else (2, 2)]:
                beta = QuadInt(a2, b2, d)
                assert (alpha * beta).embed() == m * beta.embed()


def test_pow_matches_repeated_mul():
    for alpha in (QuadInt(1, 1, 2), QuadInt(1, 1, 5), QuadInt(2, 1, -1), QuadInt(1, 1, -7)):
        acc = QuadInt.one(alpha.d)
        for n in range(9):
            assert alpha**n == acc
            acc = acc * alpha


def test_pow_matches_embedded_power():
    for alpha in (QuadInt(3, 1, 5), QuadInt(1, 2, 3), QuadInt(5, 2, 6)):
        for n in (0, 1, 2, 7, 20):
            assert (alpha**n).embed() == alpha.embed() ** n


def test_pell_power_frozen():
    r2 = QuadInt(1, 1, 2)
    assert r2**4 == QuadInt(17, 12, 2)
    phi = QuadInt(1, 1, 5)
    assert phi**10 == QuadInt(123, 55, 5)


def test_in_order():
    alpha = QuadInt(17, 12, 2)
    assert alpha.in_order(1)
    assert alpha.in_order(3)
    assert alpha.in_order(4)
    assert alpha.in_order(6)
    assert not alpha.in_order(5)
    assert QuadInt(3, 0, 2).in_order(1000)


def test_str_frozen():
    assert str(QuadInt(1, 1, 2)) == "1 + 1*sqrt(2)"
    assert str(QuadInt(1, 1, 5)) == "(1 + 1*sqrt(5))/2"


def test_mat2_basics():
    ident = Mat2.identity()
    m = Mat2(2, 1, 1, 0)
    assert m * ident == m
    assert m**0 == ident
    assert m**3 == m * m * m
    assert (m**5 % 7) == ((m**5) % 7)
    assert m.trace == 2
    assert m.det == -1


def test_zero_element():
    # d = 5 puts zero in the half-integer class
    for d in (2, 5):
        zero = QuadInt(0, 0, d)
        assert zero.norm == 0
        assert zero * zero == zero
        assert zero**1 == zero**3 == zero
        assert zero**0 == QuadInt.one(d)
