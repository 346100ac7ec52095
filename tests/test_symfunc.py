import itertools
import random
from fractions import Fraction

import mpmath as mp
import pytest
from oracles import inner_product, monomial_gram_fraction, monomial_value_oracle

import qwlab.symfunc
from qwlab.qcore import DomainError, compositions_of_weight, rational_parts
from qwlab.sampling import distinct_rationals, unit_interval_rational
from qwlab.symfunc import (
    MAX_DEGREE,
    DegenerateEigenvalueError,
    SingularMatrixError,
    SymmetricPolynomial,
    _scaled_monomials,
    d1_apply_point,
    dominance_leq,
    eval_symmetric,
    macdonald_gram_schmidt,
    macdonald_triangular_eigen,
    monomial_gram,
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
    # m_1 and m_11 at (2, 3), and at (2 q, 3) = (4, 3) for q = 2
    assert _scaled_monomials([(1,), (1, 1)], [2, 3], [1, 1], 2, (2, 1), [(0, 0), (1, 0)]) == [
        [5, 6], [7, 12]]


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
    # Every (lambda, N) with |lambda| <= 6 and N <= 4: the whole degree and
    # variable range of the D1 route.
    for size in range(7):
        for lam in partitions_of(size):
            for n in range(max(len(lam), 1), 5):
                gs = macdonald_gram_schmidt(lam, Q, T, nvars=n)
                ei = macdonald_triangular_eigen(lam, n, Q, T)
                assert gs.terms == ei.terms, (lam, n)


def test_triangular_eigen_takes_one_kernel_call_per_point_row(monkeypatch):
    # Each row's point, base value and N unit shifts come from one call of
    # the shifted-monomial kernel.
    calls = {"kernel": 0, "points": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(qwlab.symfunc, "_scaled_monomials",
                        counting("kernel", qwlab.symfunc._scaled_monomials))
    monkeypatch.setattr(qwlab.symfunc, "distinct_rationals",
                        counting("points", qwlab.symfunc.distinct_rationals))
    for lam, n in (((2, 1), 3), ((3, 2, 1), 4), ((4,), 2)):
        calls.update(kernel=0, points=0)
        ei = macdonald_triangular_eigen(lam, n, Q, T)
        assert ei.terms == macdonald_gram_schmidt(lam, Q, T, nvars=n).terms
        k = sum(1 for mu in partitions_of(sum(lam)) if len(mu) <= n)
        assert calls["kernel"] == calls["points"] == k, (lam, calls)


def test_triangular_eigen_rejects_colliding_eigenvalues():
    # At N = 2 the D1 eigenvalues of (2) and (1, 1), q^2 t + 1 and q t + q,
    # meet where q t = 1.
    with pytest.raises(DegenerateEigenvalueError):
        macdonald_triangular_eigen((2,), 2, 2, F(1, 2))


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


def _branching_sum_by_patterns(lam, z, q):
    """P_lam(z; q, 0) as the sum over Gelfand-Tsetlin patterns with top row
    lam, each row k weighted by prod_i (q;q)_{mu_i - mu_{i+1}} /
    ((q;q)_{mu_i - nu_i} (q;q)_{nu_i - mu_{i+1}}) and z_k ** (|row k| -
    |row k-1|), every power by `**`."""
    def qq(m):
        out = F(1)
        for k in range(1, m + 1):
            out *= 1 - q**k
        return out

    def below(mu):
        return itertools.product(*(range(mu[i + 1], mu[i] + 1) for i in range(len(mu) - 1)))

    def rows(mu):
        if len(mu) == 1:
            yield (mu,)
            return
        for nu in below(mu):
            for rest in rows(nu):
                yield (mu,) + rest

    total = F(0)
    for pattern in rows(tuple(lam)):
        term = F(1)
        for mu, nu in zip(pattern, pattern[1:]):
            for i in range(len(nu)):
                term *= qq(mu[i] - mu[i + 1]) / (qq(mu[i] - nu[i]) * qq(nu[i] - mu[i + 1]))
        sizes = [sum(row) for row in pattern] + [0]
        for k, row in enumerate(pattern):
            term *= z[len(row) - 1] ** (sizes[k] - sizes[k + 1])
        total += term
    return total


def test_branching_power_table_matches_powers():
    # The branching sum reads z_n^e from a table of repeated products; on
    # Fractions that must equal the pattern sum with every power by `**`.
    rng = random.Random(37)
    for lam in [(3,), (4, 1), (3, 3), (5, 2, 0), (4, 2, 1), (2, 2, 2), (3, 1, 0, 0)]:
        q = unit_interval_rational(rng)
        z = distinct_rationals(rng, len(lam))
        assert qwhittaker_branch_eval(lam, z, q) == _branching_sum_by_patterns(lam, z, q)


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


# (q, t) for the Gram checks: generic, t = 0, t = q, and parameters that are
# negative, above 1 or integers.
GRAM_PARAMS = [(Q, T), (F(2, 7), F(0)), (F(3, 5), F(3, 5)), (F(-4, 3), F(7, 2)),
               (2, -3), (F(0), F(-1, 9))]


@pytest.mark.parametrize("q, t", GRAM_PARAMS, ids=str)
def test_integer_gram_matches_fraction_oracle(q, t):
    for n in range(MAX_DEGREE + 1):
        parts, gram = monomial_gram(n, q, t)
        oracle_parts, oracle = monomial_gram_fraction(n, q, t)
        assert parts == oracle_parts
        assert dict(gram) == oracle, n
        assert all(isinstance(v, F) for v in gram.values())


def test_gram_memo_is_keyed_on_q_and_t():
    # Interleaved parameters, each pair repeated after others: every call
    # must return its own matrix, and a repeat the memoised one.
    calls = [(Q, T), (T, Q), (Q, F(0)), (Q, T), (Q, Q), (T, Q), (Q, F(0))]
    first = {}
    for q, t in calls:
        got = monomial_gram(4, q, t)
        assert dict(got[1]) == monomial_gram_fraction(4, q, t)[1], (q, t)
        assert first.setdefault((q, t), got) is got
    assert monomial_gram(4, Q, T)[1] != monomial_gram(5, Q, T)[1]


def test_gram_is_read_only():
    parts, gram = monomial_gram(3, Q, T)
    key = (parts[0], parts[0])
    before = gram[key]
    with pytest.raises(TypeError):
        gram[key] = F(0)
    with pytest.raises(TypeError):
        del gram[key]
    assert monomial_gram(3, Q, T)[1][key] == before


def test_gram_memo_is_bounded():
    # A long suite run must not grow the memo without limit.
    maxsize = monomial_gram.cache_info().maxsize
    assert maxsize is not None and 1 <= maxsize <= 64


def test_gram_degenerate_t_names_the_part():
    # t = -1 leaves the odd parts alone and zeroes 1 - t^2.
    assert dict(monomial_gram(1, Q, F(-1))[1]) == monomial_gram_fraction(1, Q, F(-1))[1]
    for n in (2, 3):
        with pytest.raises(SingularMatrixError, match=r"t\^2 = 1"):
            monomial_gram(n, Q, F(-1))


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


def _oracle_points(rng, n):
    yield distinct_rationals(rng, n)
    yield tuple(-v for v in distinct_rationals(rng, n))
    # a zero coordinate, and repeated integer coordinates
    yield (F(0),) + distinct_rationals(rng, n - 1)
    yield tuple(F(k % 2 - 2) for k in range(n))


def test_integer_monomial_evaluation_matches_fraction_oracle():
    # The kernel at every shift nu with |nu| <= 4 against m_mu at the
    # explicitly shifted point q^nu z, scaled by prod_i b_i^d e^(|nu| d).
    rng = random.Random(41)
    d = MAX_DEGREE
    for n in range(1, 5):
        mus = [mu for k in range(d + 1) for mu in partitions_of(k) if len(mu) <= n]
        mus.append((1,) * (n + 1))  # longer than the point: m_mu vanishes
        shifts = [nu for k in range(5) for nu in compositions_of_weight(k, n)]
        for z in _oracle_points(rng, n):
            nums, dens = rational_parts(z)
            for q in (F(-2, 3), 3):
                c, e = F(q).numerator, F(q).denominator
                rows = _scaled_monomials(mus, nums, dens, d, (c, e), shifts)
                for nu, row in zip(shifts, rows):
                    shifted = tuple(F(q) ** v * zi for v, zi in zip(nu, z))
                    scale = F(1)
                    for b in dens:
                        scale *= b**d
                    scale *= e ** (sum(nu) * d)
                    expect = [monomial_value_oracle(mu, shifted) * scale if len(mu) <= n else 0
                              for mu in mus]
                    assert row == expect, (z, q, nu)


def test_eval_symmetric_matches_fraction_oracle_non_homogeneous():
    rng = random.Random(43)
    for n in range(1, 5):
        mus = [mu for d in range(6) for mu in partitions_of(d) if len(mu) <= n]
        terms = {mu: F(rng.randint(-9, 9), rng.randint(1, 9)) for mu in mus}
        terms[()] = 3  # an int coefficient and a constant term
        f = SymmetricPolynomial(terms, n)
        for z in _oracle_points(rng, n):
            expect = sum(F(c) * monomial_value_oracle(mu, z) for mu, c in f.terms.items())
            got = eval_symmetric(f, z)
            assert isinstance(got, F)
            assert got == expect, z


def test_exact_evaluation_rejects_inexact_points():
    f = SymmetricPolynomial({(1,): F(1)}, 2)
    for z in ((0.5, F(1, 3)), (F(1, 2), mp.mpf("0.25")), (F(1, 2), mp.mpc(1, 1))):
        with pytest.raises(DomainError):
            d1_apply_point(f, z, Q, T)
        with pytest.raises(DomainError):
            eval_symmetric(f, z)
    with pytest.raises(DomainError):
        eval_symmetric(SymmetricPolynomial({(1,): 0.5}, 2), (F(1), F(2)))


def solve_gauss_jordan(A, B):
    """Gauss-Jordan elimination over Fractions with the first nonzero pivot
    in each column: the test oracle for solve_exact."""
    n = len(A)
    M = [list(row) + list(b) for row, b in zip(A, B)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular system in exact solve")
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _random_rational(rng):
    return F(rng.randint(-20, 20), rng.choice((1, 2, 3, 7, 12, 35, 99)))


def test_solve_exact_matches_gauss_jordan_on_random_systems():
    rng = random.Random(47)
    solved = 0
    for size in range(1, 8):
        for _ in range(6):
            A = [[_random_rational(rng) for _ in range(size)] for _ in range(size)]
            if size > 1:
                A[0][0] = F(0)  # the first column needs a row swap
            rhs = rng.randint(1, 4)
            B = [[_random_rational(rng) for _ in range(rhs)] for _ in range(size)]
            try:
                expect = solve_gauss_jordan(A, B)
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    solve_exact(A, B)
                continue
            X = solve_exact(A, B)
            assert X == expect
            assert all(isinstance(v, F) for row in X for v in row)
            AX = [[sum(A[i][k] * X[k][j] for k in range(size)) for j in range(rhs)]
                  for i in range(size)]
            assert AX == B
            solved += 1
    assert solved >= 35


def test_solve_exact_singular_after_elimination():
    # Row 3 = row 1 / 2 - 3 row 2 / 5: no zero column until the last step.
    r1 = [F(1, 3), F(2), F(-5, 7)]
    r2 = [F(4), F(1, 6), F(3, 2)]
    r3 = [a / 2 - 3 * b / 5 for a, b in zip(r1, r2)]
    with pytest.raises(SingularMatrixError):
        solve_exact([r1, r2, r3], [[F(1)], [F(2)], [F(3)]])


def test_triangular_eigen_needs_a_variable():
    for N in (0, -1):
        with pytest.raises(DomainError):
            macdonald_triangular_eigen((), N, Q, T)
