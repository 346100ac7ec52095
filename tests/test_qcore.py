import random
import signal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qwlab.qcore import (
    DomainError,
    ZetaSeries,
    qbinomial_ratio_series,
    qpoch_finite,
    qpoch_infinite,
    set_precision,
    zeta_series_mul,
)

F = Fraction

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=20)
unit_fracs = st.fractions(min_value=0, max_value=F(9, 10), max_denominator=20)


def test_qpoch_finite_empty_product():
    assert qpoch_finite(F(7, 3), F(1, 2), 0) == 1


def test_qpoch_finite_two_factors():
    assert qpoch_finite(F(1, 2), F(1, 2), 2) == F(3, 8)


@given(a=small_fracs, q=unit_fracs, m=st.integers(0, 6), n=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_qpoch_finite_splits(a, q, m, n):
    lhs = qpoch_finite(a, q, m + n)
    rhs = qpoch_finite(a, q, m) * qpoch_finite(a * q**m, q, n)
    assert lhs == rhs


def qpoch_generic(a, q, n):
    """(a;q)_n multiplied factor by factor in the inputs' own arithmetic,
    a q^k by repeated multiplication, as qpoch_finite does for mpmath."""
    one = a * 0 + q * 0 + 1
    prod = one
    aqk = a
    for _ in range(n):
        prod = prod * (one - aqk)
        aqk = aqk * q
    return prod


EXACT_POCH_ARGS = [(F(2, 3), F(1, 5)), (F(-7, 4), F(3, 2)), (3, F(-2, 9)), (F(5, 6), -2),
                   (-4, 3), (2, 0), (0, F(1, 2)), (F(-1, 3), F(-1, 3))]


@pytest.mark.parametrize("a, q", EXACT_POCH_ARGS, ids=str)
def test_qpoch_finite_exact_matches_generic_product(a, q):
    for n in range(8):
        got = qpoch_finite(a, q, n)
        assert got == qpoch_generic(a, q, n), n
        # Two ints give an int; a Fraction anywhere gives a Fraction.
        assert type(got) is type(a * 0 + q * 0 + 1)


def test_qpoch_finite_vanishing_factor():
    assert qpoch_finite(F(4), F(1, 2), 3) == 0  # 1 - 4 q^2 = 0
    assert qpoch_finite(F(4), F(1, 2), 2) == 3  # (1 - 4)(1 - 2)
    assert qpoch_finite(F(1, 9), 3, 5) == 0  # 1 - q^2 / 9 = 0
    zero = qpoch_finite(1, 5, 4)
    assert zero == 0 and type(zero) is int


def test_qpoch_finite_mpmath_inputs_keep_their_bits():
    with set_precision(96):
        cases = [(mp.mpf("0.3"), mp.mpf("0.7")), (mp.mpc("0.2", "-0.9"), mp.mpf("0.95")),
                 (mp.mpf("-1.5"), mp.mpc("0.1", "0.4"))]
        for a, q in cases:
            for n in range(8):
                expect = qpoch_generic(a, q, n)
                got = qpoch_finite(a, q, n)
                assert type(got) is type(expect)
                assert got == expect, (a, q, n)


@pytest.mark.parametrize("a, q", [(F(1, 2), F(1, 3)), (2, 3), (mp.mpf("0.5"), mp.mpf("0.5"))],
                         ids=str)
def test_qpoch_finite_rejects_negative_length(a, q):
    with pytest.raises(DomainError):
        qpoch_finite(a, q, -1)


def test_qpoch_infinite_zero_argument():
    assert qpoch_infinite(F(0), F(1, 2)) == 1


def test_qpoch_infinite_exact_zero_factor():
    assert qpoch_infinite(F(1), F(1, 2)) == 0
    assert qpoch_infinite(F(4), F(1, 2)) == 0  # 1 - 4 q^2 = 0


def test_qpoch_infinite_rejects_q_outside_disc():
    with pytest.raises(DomainError):
        qpoch_infinite(F(1, 2), F(3, 2))


@pytest.fixture
def deadline():
    """Turn a call that never returns into a failure after 30 s."""
    def expire(signum, frame):
        raise TimeoutError("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("a, q", [(mp.nan, 0.5), (0.5, mp.nan), (mp.inf, 0.5),
                                  (0.5, mp.mpc(mp.nan, 0))],
                         ids=["a-nan", "q-nan", "a-inf", "q-complex-nan"])
def test_qpoch_infinite_rejects_non_finite_input(a, q, deadline):
    # Without its term cap mp.qp never returns on these.
    with pytest.raises(DomainError):
        qpoch_infinite(a, q)


def test_qpoch_infinite_matches_finite_head():
    q = F(1, 2)
    with set_precision(128):
        full = qpoch_infinite(q, q)
        head = mp.mpmathify(qpoch_finite(q, q, 40))
        # The tail beyond 40 factors is below 2^-40 relative.
        assert abs(full - head) / head < mp.mpf(2) ** -38


def test_qpoch_infinite_near_unit_circle():
    # q = e^-0.01 needs about 9000 factors at 128 bits, more than mpmath's
    # default cap of 50 per bit; the tail past 10000 factors is below e^-100.
    with set_precision(128):
        q = mp.exp(mp.mpf("-0.01"))
        a = mp.mpf("-0.01")
        head = qpoch_finite(a, q, 10000)
        assert abs(qpoch_infinite(a, q) / head - 1) < mp.mpf(2) ** -120


@pytest.mark.parametrize("prec", [64, 128, 256])
@pytest.mark.parametrize("eps", [0.4, 0.05, 0.01])
def test_qpoch_infinite_both_routes_match_the_product(prec, eps):
    # |a| < |q| takes the log series, |a| > |q| the product; just either
    # side of |a| = |q| the two need about as many terms.  Both must be
    # within 4 units of 2^-prec of mp.qp's product 40 bits higher.
    with set_precision(prec):
        q = mp.exp(-mp.mpf(eps))
        moduli = [mp.mpf("1e-3"), mp.mpf("0.05"), mp.mpf("0.4"),
                  q * (1 - mp.mpf("1e-3")), q * (1 + mp.mpf("1e-3"))]
        args = [r * phase for r in moduli for phase in (-1, mp.expj(0.7))]
        values = [qpoch_infinite(a, q) for a in args]
    with set_precision(prec + 40):
        for a, value in zip(args, values):
            exact = mp.qp(a, q, maxterms=mp.inf)
            assert abs(value - exact) <= 4 * mp.mpf(2) ** -prec * abs(exact), a


def test_qbinomial_trivial_ratio():
    s = qbinomial_ratio_series(F(1, 3), F(1, 3), F(1, 2), 4)
    assert s.coeffs == (1, 0, 0, 0, 0)


def test_qbinomial_first_order_coefficient():
    c, t, q = F(2, 7), F(1, 5), F(1, 3)
    s = qbinomial_ratio_series(t * c, c, q, 1)
    assert s.coeffs[1] == c * (1 - t) / (1 - q)


def test_qbinomial_inverse_euler_expansion():
    s = qbinomial_ratio_series(F(0), F(1), F(1, 2), 2)
    assert s.coeffs == (1, 2, F(8, 3))


@given(a=small_fracs, b=small_fracs, q=unit_fracs)
@settings(max_examples=40, deadline=None)
def test_qbinomial_ratio_times_inverse_is_one(a, b, q):
    order = 5
    s1 = qbinomial_ratio_series(a, b, q, order)
    s2 = qbinomial_ratio_series(b, a, q, order)
    assert (s1 * s2).coeffs == ZetaSeries.one(order).coeffs


def test_zeta_series_identity_and_square():
    one = ZetaSeries((F(1), F(0), F(0)))
    assert zeta_series_mul(one, one).coeffs == (1, 0, 0)
    lin = ZetaSeries((F(1), F(1), F(0)))
    assert zeta_series_mul(lin, lin).coeffs == (1, 2, 1)


def test_zeta_series_order_mismatch():
    with pytest.raises(DomainError):
        ZetaSeries((F(1), F(0))) * ZetaSeries((F(1),))


def test_set_precision_floor():
    with pytest.raises(DomainError):
        set_precision(32)
    with set_precision(128):
        assert mp.mp.prec == 128
