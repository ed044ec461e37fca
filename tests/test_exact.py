import random
from fractions import Fraction as F

import pytest

from packlab import exact


def test_rat_parsing():
    assert exact.rat("-13/2") == F(-13, 2)
    assert exact.rat(7) == 7
    assert exact.rat("−3/4") == F(-3, 4)  # unicode minus
    with pytest.raises(TypeError):
        exact.rat(0.5)


def test_inverse_and_det():
    m = exact.mat([[1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], [-1, -1, -1, 1]])
    inv = exact.inverse(m)
    assert inv == exact.mat_scale(m, F(1, 4))
    assert exact.mat_mul(m, inv) == exact.identity(4)
    assert exact.det(m) == -16
    with pytest.raises(exact.SingularMatrixError):
        exact.inverse(exact.mat([[1, 1], [1, 1]]))


def test_inverse_and_det_of_plain_int_matrices():
    # plain ints, not mat(): int / int division would make floats
    inv = exact.inverse([[2, 1], [1, 3]])
    assert inv == ((F(3, 5), F(-1, 5)), (F(-1, 5), F(2, 5)))
    assert all(type(x) is F for row in inv for x in row)
    d = exact.det([[2, 1], [1, 3]])
    assert d == 5 and type(d) is F
    assert exact.det([[0, 2, 1], [3, 1, 2], [1, 1, 2]]) == -6  # row swap at the first pivot
    with pytest.raises(TypeError):
        exact.det([[0.5, 1], [1, 2]])


def test_inertia_known_cases():
    assert exact.inertia(exact.mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == (2, 1, 0)
    ap = exact.mat([[1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], [-1, -1, -1, 1]])
    assert exact.inertia(ap) == (3, 1, 0)
    # zero diagonal forces the off-diagonal pivot path
    u = exact.mat([[0, 1], [1, 0]])
    assert exact.inertia(u) == (1, 1, 0)
    degenerate = exact.mat([[1, 1], [1, 1]])
    assert exact.inertia(degenerate) == (1, 0, 1)


def test_inertia_of_plain_int_matrix_is_exact():
    # determinant -1: float pivots would round the second pivot to 0
    big = [[10**17 + 1, 10**17], [10**17, 10**17 - 1]]
    assert exact.inertia(big) == exact.inertia(exact.mat(big)) == (1, 1, 0)


def test_inertia_matches_determinant_signs():
    # random symmetric integer matrices: compare against sign of determinant
    # and rank computed independently
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        mm = exact.mat(m)
        pos, neg, zero = exact.inertia(mm)
        assert pos + neg + zero == n
        d = exact.det(mm)
        if zero > 0:
            assert d == 0
        else:
            assert (d > 0) == (neg % 2 == 0)


def test_psd():
    assert exact.is_positive_semidefinite(exact.mat([[1, -1], [-1, 1]]))
    assert exact.is_positive_semidefinite(exact.mat([[2, -1], [-1, 2]]))
    assert not exact.is_positive_semidefinite(exact.mat([[1, -2], [-2, 1]]))
    assert exact.is_positive_semidefinite(exact.mat([[0, 0], [0, 0]]))


def test_smith_invariant_factors():
    m = exact.mat([[12, 6, 4], [3, 9, 6], [2, 16, 14]])
    assert exact.smith_invariant_factors(m) == (1, 10, 30)
    assert exact.smith_invariant_factors(exact.identity(3)) == (1, 1, 1)
    assert exact.smith_invariant_factors(exact.mat([[2, 0], [0, 4]])) == (2, 4)
    # divisibility chain needs the row-addition step
    assert exact.smith_invariant_factors(exact.mat([[2, 0], [0, 3]])) == (1, 6)
    with pytest.raises(ValueError):
        exact.smith_invariant_factors(exact.mat([["1/2", 0], [0, 1]]))


def test_smith_factors_multiply_to_det():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = exact.mat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        factors = exact.smith_invariant_factors(m)
        prod = 1
        for d in factors:
            prod *= d
        assert prod == abs(exact.det(m))
        for a, b in zip(factors, factors[1:]):
            if b != 0:
                assert b % a == 0


def test_sqrt_rational():
    assert exact.sqrt_rational(F(9, 4)) == F(3, 2)
    assert exact.sqrt_rational(F(2)) is None
    assert exact.sqrt_rational(F(-1)) is None
    assert exact.sqrt_rational(F(0)) == 0


def test_reflection_rank_one_update():
    g = exact.mat([[1, F(-3, 2), F(-3, 2)], [F(-3, 2), 1, F(-3, 2)], [F(-3, 2), F(-3, 2), 1]])
    a, q = exact.reflection(g, (1, 0, 0))
    # a q^T = -2 e_0 G[0, :], written with q a primitive integer vector
    assert (a, q) == ((-1, 0, 0), (2, -3, -3))
    assert all(type(x) is int for x in a + q)
    assert exact.reflection_matrix(g, (1, 0, 0)) == exact.mat([[-1, 3, 3], [0, 1, 0], [0, 0, 1]])
