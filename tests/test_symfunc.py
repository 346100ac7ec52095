import itertools
import random
from fractions import Fraction

import pytest

from qwlab.qcore import DomainError
from qwlab.sampling import distinct_rationals, unit_interval_rational
from qwlab.symfunc import (
    SingularMatrixError,
    SymmetricPolynomial,
    dominance_leq,
    eval_symmetric,
    inner_product,
    macdonald_gram_schmidt,
    macdonald_triangular_eigen,
    monomial_value,
    partitions_of,
    power_to_monomial,
    qwhittaker_branch_eval,
    solve_exact,
    weight,
)

F = Fraction
Q, T = F(1, 3), F(1, 5)


def schur_bialternant(lam, z):
    """det(z_i^{lam_j + n - j}) / det(z_i^{n - j}): the test oracle for t=q."""
    n = len(z)
    lam = tuple(lam) + (0,) * (n - len(lam))

    def det(matrix):
        total = F(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = F(1)
            for i in range(n):
                term *= matrix[i][perm[i]]
            total += sign * term
        return total

    num = [[z[i] ** (lam[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    den = [[z[i] ** (n - 1 - j) for j in range(n)] for i in range(n)]
    d = det(den)
    return num and det(num) / d


def test_dominance_basic():
    assert dominance_leq((1, 1), (2,))
    assert not dominance_leq((2,), (1, 1))
    assert dominance_leq((2, 1, 1), (2, 2))


def test_dominance_needs_equal_weight():
    with pytest.raises(DomainError):
        dominance_leq((1,), (2,))


def test_partitions_of_counts():
    assert [len(partitions_of(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_monomial_values():
    assert monomial_value((1,), (F(2), F(3))) == 5
    assert monomial_value((1, 1), (F(2), F(3))) == 6


def test_eval_symmetric_arity():
    f = SymmetricPolynomial({(1,): F(1)}, 2)
    with pytest.raises(DomainError):
        eval_symmetric(f, (F(1),))


def test_gram_schmidt_row_two():
    poly = macdonald_gram_schmidt((2,), Q, T)
    assert poly.coefficient((2,)) == 1
    assert poly.coefficient((1, 1)) == (1 - T) * (1 + Q) / (1 - Q * T)


def test_gram_schmidt_dominance_minimal_is_monomial():
    assert macdonald_gram_schmidt((1, 1), Q, T).terms == {(1, 1): F(1)}
    assert macdonald_gram_schmidt((1,), Q, T).terms == {(1,): F(1)}


def test_triangularity_and_monic():
    for lam in [(2,), (2, 1), (3, 1), (2, 2)]:
        poly = macdonald_gram_schmidt(lam, Q, T)
        assert poly.coefficient(lam) == 1
        for mu in poly.terms:
            assert dominance_leq(mu, lam)


def test_orthogonality_exact():
    rng = random.Random(5)
    for _ in range(5):
        q = unit_interval_rational(rng)
        t = unit_interval_rational(rng)
        for n in range(2, 6):
            polys = [macdonald_gram_schmidt(lam, q, t, nvars=n)
                     for lam in partitions_of(n)]
            for i, a in enumerate(polys):
                for b in polys[i + 1:]:
                    assert inner_product(a, b, q, t) == 0


def test_schur_degeneration_at_t_equals_q():
    rng = random.Random(11)
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
        for n in (2, 3):
            if len(lam) > n:
                continue
            q = unit_interval_rational(rng)
            poly = macdonald_gram_schmidt(lam, q, q, nvars=n)
            for _ in range(3):
                z = distinct_rationals(rng, n)
                assert eval_symmetric(poly, z) == schur_bialternant(lam, z)


def test_triangular_eigen_matches_gram_schmidt():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]:
        for n in (2, 3):
            if len(lam) > n:
                continue
            gs = macdonald_gram_schmidt(lam, Q, T, nvars=n)
            ei = macdonald_triangular_eigen(lam, n, Q, T)
            assert gs.terms == ei.terms


def test_branching_examples():
    z = (F(2, 3), F(5, 7))
    assert qwhittaker_branch_eval((1, 0), z, Q) == z[0] + z[1]
    assert qwhittaker_branch_eval((3,), (F(2, 5),), Q) == F(2, 5) ** 3


def test_branching_matches_gram_schmidt_at_t_zero():
    rng = random.Random(23)
    for lam in [(2,), (2, 1), (3, 1), (2, 2), (4,)]:
        for n in (2, 3):
            if len(lam) > n:
                continue
            q = unit_interval_rational(rng)
            poly = macdonald_gram_schmidt(lam, q, F(0), nvars=n)
            for _ in range(3):
                z = distinct_rationals(rng, n)
                sig = lam + (0,) * (n - len(lam))
                assert qwhittaker_branch_eval(sig, z, q) == eval_symmetric(poly, z)


def test_branching_shift_rule():
    rng = random.Random(31)
    q = unit_interval_rational(rng)
    z = distinct_rationals(rng, 2)
    base = qwhittaker_branch_eval((2, 0), z, q)
    shifted = qwhittaker_branch_eval((3, 1), z, q)
    assert shifted == z[0] * z[1] * base
    negative = qwhittaker_branch_eval((1, -1), z, q)
    assert negative == base / (z[0] * z[1])


def test_degree_cap_enforced():
    with pytest.raises(DomainError):
        macdonald_gram_schmidt((7,), Q, T)
    with pytest.raises(DomainError):
        macdonald_triangular_eigen((3,), 5, Q, T)


def test_gram_degenerate_t_rejected():
    # t = 1 zeroes the power-sum norms' denominators.
    with pytest.raises(SingularMatrixError):
        macdonald_gram_schmidt((2,), Q, F(1))


def test_restriction_drops_long_partitions():
    poly = macdonald_gram_schmidt((1, 1, 1), Q, T, nvars=2)
    assert poly.terms == {}
    assert eval_symmetric(poly, (F(1), F(2))) == 0


def test_solve_exact_against_identity_columns():
    parts, R = power_to_monomial(4)
    n = len(parts)
    A = [[F(R[mu].get(kappa, 0)) for kappa in parts] for mu in parts]
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    X = solve_exact(A, identity)
    product = [[sum(A[i][k] * X[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    assert product == identity
    assert all(isinstance(v, F) for row in X for v in row)


def test_solve_exact_one_column():
    # A zero leading entry forces a row swap; x = (1/2, -3, 2/3) by hand.
    A = [[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]]
    b = [[F(-5, 3)], [F(7, 6)], [F(-2)]]
    assert solve_exact(A, b) == [[F(1, 2)], [F(-3)], [F(2, 3)]]


def test_solve_exact_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact([[F(1), F(2)], [F(2), F(4)]], [[F(1)], [F(0)]])
