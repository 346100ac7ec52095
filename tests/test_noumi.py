import itertools
import random
from fractions import Fraction

import pytest
from oracles import monomial_value_oracle

import qwlab.noumi

from qwlab.qcore import DomainError, compositions_of_weight, qpoch_finite
from qwlab.noumi import (
    apply_noumi,
    macdonald_d1_check,
    noumi_coeff,
    noumi_eigenvalue_series,
    verify_noumi,
)
from qwlab.qcore import rational_parts
from qwlab.sampling import distinct_rationals
from qwlab.symfunc import (
    SymmetricPolynomial,
    _d1_weights,
    _unit_shifts,
    d1_apply_point,
    eval_symmetric,
    macdonald_gram_schmidt,
    partitions_of,
)

F = Fraction
Q, T = F(1, 3), F(1, 5)


def noumi_coeff_naive(nu, z, q, t):
    """Independent re-implementation by bare loops over the definition."""
    n = len(z)
    cross = F(1)
    for i in range(n):
        for j in range(n):
            if i < j:
                cross *= (q ** nu[i] * z[i] - q ** nu[j] * z[j]) / (z[i] - z[j])
    poch = F(1)
    for i in range(n):
        for j in range(n):
            num = F(1)
            den = F(1)
            for k in range(nu[i]):
                num *= 1 - t * z[i] / z[j] * q**k
                den *= 1 - q * z[i] / z[j] * q**k
            poch *= num / den
    return cross * poch


def test_compositions_enumeration_order():
    assert list(compositions_of_weight(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert sum(1 for _ in compositions_of_weight(4, 3)) == 15


def test_coeff_zero_shift_is_one():
    assert noumi_coeff((0, 0), (F(1, 2), F(1, 3)), Q, T) == 1


def test_coeff_single_variable():
    for n in range(4):
        got = noumi_coeff((n,), (F(2, 5),), Q, T)
        assert got == qpoch_finite(T, Q, n) / qpoch_finite(Q, Q, n)


def test_coeff_matches_naive_loops():
    rng = random.Random(2)
    for _ in range(10):
        z = distinct_rationals(rng, 2)
        for nu in [(1, 0), (0, 1), (2, 1), (1, 2)]:
            assert noumi_coeff(nu, z, Q, T) == noumi_coeff_naive(nu, z, Q, T)


def test_coeff_rejects_coincident_points():
    with pytest.raises(DomainError):
        noumi_coeff((1, 0), (F(1, 2), F(1, 2)), Q, T)


def test_apply_constant_function_single_variable():
    series = apply_noumi(SymmetricPolynomial({(): 1}, 1), (F(2, 7),), Q, T, 2)
    assert series.coeffs == (
        F(1),
        qpoch_finite(T, Q, 1) / qpoch_finite(Q, Q, 1),
        qpoch_finite(T, Q, 2) / qpoch_finite(Q, Q, 2),
    )


def test_apply_order_zero():
    poly = macdonald_gram_schmidt((2, 1), Q, T, nvars=2)
    z = (F(1, 2), F(2, 7))
    series = apply_noumi(poly, z, Q, T, 0)
    assert series.coeffs == (eval_symmetric(poly, z),)


def test_eigenvalue_series_t_zero_degenerates_to_euler_factor():
    s = noumi_eigenvalue_series((0, 0), 2, Q, F(0), 3)
    # Only the last coordinate contributes: the series of 1/(zeta; q)_inf.
    expect = [F(1)]
    den = F(1)
    for k in range(1, 4):
        den *= 1 - Q**k
        expect.append(1 / den)
    assert list(s.coeffs) == expect


def test_eigenvalue_series_first_order():
    s = noumi_eigenvalue_series((0,), 1, Q, T, 1)
    assert s.coeffs[1] == (1 - T) / (1 - Q)


def test_eigenvalue_series_order_zero():
    assert noumi_eigenvalue_series((3, 1), 2, Q, T, 0).coeffs == (F(1),)


def test_verify_empty_partition_is_q_binomial_theorem():
    rep = verify_noumi((), 1, Q, T, order=5, samples=3, seed=1)
    assert rep.passed


def test_verify_small_cases_exact():
    assert verify_noumi((1,), 2, Q, T, order=2, samples=3, seed=7).passed
    assert verify_noumi((2, 1), 2, t=F(0), order=3, samples=3, seed=7).passed
    assert verify_noumi((2,), 2, q=Q, t=Q, order=3, samples=3, seed=3).passed  # t = q


def test_operator_coefficients_symmetric_under_point_permutation():
    rng = random.Random(17)
    poly = macdonald_gram_schmidt((2,), Q, T, nvars=3)
    z = distinct_rationals(rng, 3)
    base = apply_noumi(poly, z, Q, T, 3)
    for perm in itertools.permutations(z):
        assert apply_noumi(poly, perm, Q, T, 3).coeffs == base.coeffs


def test_d1_check_trivial_and_deep():
    assert macdonald_d1_check((), 2, Q, T, samples=2, seed=2).passed
    assert macdonald_d1_check((1,), 2, Q, T, samples=3, seed=2).passed
    assert macdonald_d1_check((2, 1), 3, samples=3, seed=5).passed


def test_verify_rejects_long_partition():
    with pytest.raises(DomainError):
        verify_noumi((1, 1), 1, Q, T)
    with pytest.raises(DomainError):
        macdonald_d1_check((2, 1), 1, Q, T)


def test_verify_rejects_vacuous_runs(monkeypatch):
    # No sample, or order 0 (the zeta^0 term compares P(z) with itself),
    # would pass without checking anything.
    with pytest.raises(DomainError):
        verify_noumi((1,), 2, Q, T, samples=0)
    with pytest.raises(DomainError):
        verify_noumi((1,), 2, Q, T, order=0)
    with pytest.raises(DomainError):
        macdonald_d1_check((1,), 2, Q, T, samples=0)
    # (q;q)_m divides every w_i(m) at every point: it vanishes at q = 1, and
    # at q = -1 from m = 2 on.  Such a q is named before any point is drawn.
    monkeypatch.setattr(qwlab.noumi, "_generic_point", None)
    for q, order in ((1, 1), (1, 4), (-1, 2), (F(-1), 4)):
        with pytest.raises(DomainError, match=rf"at q = {q}:"):
            verify_noumi((1,), 2, q, T, order=order)
    with pytest.raises(DomainError, match=r"at q = -1:"):
        apply_noumi(SymmetricPolynomial({(1,): 1}, 2), (F(1, 2), F(1, 3)), -1, T, 2)
    # at order 1, q = -1 is fine: (q;q)_1 = 2
    assert apply_noumi(SymmetricPolynomial({(): 1}, 1), (F(1, 2),), -1, T, 1).coeffs[1] == \
        (1 - T) / 2


def test_apply_noumi_builds_pochhammer_weights_once_per_point(monkeypatch):
    # Each w_i(m), 1 <= m <= order, takes two Pochhammer symbols per j: at
    # most 2 n^2 order calls, against two per (i, j) for every composition
    # (1120 at n = 4, order 4) when every weight is built afresh.  The shifted
    # values come from the kernel, never from eval_symmetric.
    calls = [0]

    def counting_qpoch(*args):
        calls[0] += 1
        return qpoch_finite(*args)

    def no_eval(*args):
        raise AssertionError("apply_noumi called eval_symmetric")

    monkeypatch.setattr(qwlab.noumi, "qpoch_finite", counting_qpoch)
    monkeypatch.setattr(qwlab.noumi, "eval_symmetric", no_eval)
    order = 4
    terms = {(3, 1): F(2, 3), (2, 1): -2, (2,): F(5, 7), (1, 1): 3, (1,): F(-1, 4), (): 7}
    point = (F(3, 11), F(-5, 13), F(7, 17), F(-2, 19))  # a point no other test uses
    for n in range(1, 5):
        f = SymmetricPolynomial({mu: c for mu, c in terms.items() if len(mu) <= n}, n)
        z = point[:n]
        calls[0] = 0
        series = apply_noumi(f, z, Q, T, order)
        assert 0 < calls[0] <= 2 * n * n * order
        expect = []
        for k in range(order + 1):
            acc = F(0)
            for nu in compositions_of_weight(k, n):
                shifted = tuple(Q**v * zi for v, zi in zip(nu, z))
                value = sum(F(c) * monomial_value_oracle(mu, shifted) for mu, c in f.terms.items())
                acc += noumi_coeff_naive(nu, z, Q, T) * value
            expect.append(acc)
        assert list(series.coeffs) == expect, n


def test_verify_at_four_variables_and_order_four():
    # Criterion 1 stops at N = 3 and weight 4; this reaches N = 4 at the
    # degree cap, one sample per partition.
    for size in (5, 6):
        for lam in partitions_of(size):
            if len(lam) <= 4:
                assert verify_noumi(lam, 4, order=4, samples=1, seed=size).passed, lam


def test_coeff_memo_is_keyed_on_q_and_t():
    z = (F(2, 9), F(-7, 5), F(4, 3))
    nu = (2, 0, 1)
    for q, t in ((Q, T), (F(2, 7), T), (F(2, 7), F(3, 8)), (Q, T)):
        assert noumi_coeff(nu, z, q, t) == noumi_coeff_naive(nu, z, q, t)


def test_coeff_rejects_inexact_inputs():
    z = (F(1, 2), F(1, 3))
    for args in (((1, 0), (0.5, F(1, 3)), Q, T), ((1, 0), z, 0.25, T), ((1, 0), z, Q, 0.2)):
        with pytest.raises(DomainError):
            noumi_coeff(*args)


def test_first_order_term_is_d1():
    # The zeta^1 term of the operator is (1 - t)/(1 - q) D1, which ties the
    # two operator codes together: noumi_coeff at the unit shift e_i is that
    # factor times the i-th D1 weight, and the zeta^1 coefficient on a
    # symmetric polynomial is the factor times D1.
    rng = random.Random(11)
    terms = {(3,): 1, (2, 1): -2, (1, 1): 3, (1,): 5, (): 7}
    for q, t in ((Q, T), (F(2, 7), F(3, 11))):
        scale = (1 - t) / (1 - q)
        for n in range(1, 5):
            z = distinct_rationals(rng, n)
            nums, dens = rational_parts(z)
            weights, den = _d1_weights(nums, dens, t.numerator, t.denominator)
            for i, (w, unit) in enumerate(zip(weights, _unit_shifts(n))):
                assert unit == tuple(int(j == i) for j in range(n))
                assert noumi_coeff(unit, z, q, t) == scale * F(w, den)
            f = SymmetricPolynomial({mu: c for mu, c in terms.items() if len(mu) <= n}, n)
            series = apply_noumi(f, z, q, t, 1)
            assert series.coeffs[1] == scale * d1_apply_point(f, z, q, t)
