import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qwlab.baxter import (
    TestFunction as CutoffFunction,
    _rank8_pair_sum,
    baxter_eigen_check,
    contour_apply,
    gamma_identity_check,
    kappa_parity,
    lemma1_check,
    residue_apply,
)
from qwlab.qcore import DomainError
from qwlab.quadrature import QuadratureConfig


def setup_function(_fn):
    mp.mp.dps = 25


def teardown_function(_fn):
    mp.mp.dps = 15


W1 = (mp.mpc(0, -0.5),)


def test_test_function_kinds_validated():
    with pytest.raises(DomainError):
        CutoffFunction("polynomial")
    with pytest.raises(DomainError):
        CutoffFunction("product-pole")
    with pytest.raises(DomainError):
        CutoffFunction("exp-cutoff", c=-1)
    CutoffFunction("product-pole", b=2.0).check_analytic(1.0)
    with pytest.raises(DomainError):
        CutoffFunction("product-pole", b=0.5).check_analytic(1.0)


def test_residue_cap_zero_returns_f():
    f = CutoffFunction("product-pole", b=3.0)
    res = residue_apply(f, W1, -1.0, cap=0)
    assert abs(res.value - f(W1)) == 0


def test_residue_constant_closed_form():
    res = residue_apply(CutoffFunction("constant"), W1, -1.0, cap=30)
    assert abs(res.value - mp.exp(-1)) < mp.mpf("1e-12")
    res = residue_apply(CutoffFunction("constant"), W1, -0.25, cap=25)
    assert abs(res.value - mp.exp(mp.mpf("-0.25"))) < mp.mpf("1e-12")


def test_residue_exp_cutoff_closed_form():
    c, u = 0.3, 0.5
    w0 = mp.mpc(0.2, -0.5)
    res = residue_apply(CutoffFunction("exp-cutoff", c=c), (w0,), -u, cap=40)
    target = mp.exp(-1j * c * w0) * mp.exp(-u * mp.exp(c))
    assert abs(res.value - target) < mp.mpf("1e-12")


def test_residue_product_pole_closed_form():
    # sum (-u)^k / (k! (b - i w + k)) via the incomplete-gamma-free series
    b, u = 2.0, 0.7
    w0 = mp.mpc(0, -0.5)
    res = residue_apply(CutoffFunction("product-pole", b=b), (w0,), -u, cap=40)
    direct = mp.nsum(lambda k: (-u) ** k / (mp.factorial(k) * (b - 1j * w0 + k)),
                     [0, mp.inf])
    assert abs(res.value - direct) < mp.mpf("1e-12")


def test_residue_symmetric_under_w_permutation():
    f = CutoffFunction("product-pole", b=3.0)
    w = (mp.mpc(0.1, -0.4), mp.mpc(-0.7, -0.6))
    a = residue_apply(f, w, -0.5, cap=25)
    b = residue_apply(f, tuple(reversed(w)), -0.5, cap=25)
    assert abs(a.value - b.value) < mp.mpf("1e-20")


def test_residue_rejects_degenerate_w():
    with pytest.raises(DomainError):
        residue_apply(CutoffFunction("constant"),
                      (mp.mpc(0, -0.5), mp.mpc(0, -0.5)), -1.0, cap=5)
    # w_j - w_i = -i r puts a Gamma pole in the shift ladder
    with pytest.raises(DomainError):
        residue_apply(CutoffFunction("constant"),
                      (mp.mpc(0, -0.2), mp.mpc(0, -1.2)), -1.0, cap=5)


def test_contour_single_variable_closed_form():
    con = contour_apply(CutoffFunction("constant"), W1, 1.0, 1.0)
    assert abs(con.value - mp.exp(-1)) < mp.mpf("1e-9")


def test_contour_independence_of_abscissa():
    f = CutoffFunction("product-pole", b=3.0)
    w = (mp.mpc(0, -0.4),)
    vals = [contour_apply(f, w, 0.7, a).value for a in (0.5, 1.0, 2.0)]
    assert abs(vals[0] - vals[1]) < mp.mpf("1e-9")
    assert abs(vals[1] - vals[2]) < mp.mpf("1e-9")


def test_contour_rejects_low_w():
    with pytest.raises(DomainError):
        contour_apply(CutoffFunction("constant"), (mp.mpc(0, -2.0),), 1.0, 1.0)


def test_lemma_single_variable_pole_function():
    f = CutoffFunction("product-pole", b=3.0)
    rep = lemma1_check(f, W1, 0.25, 1.0, cap=35, tolerance=1e-8)
    assert rep.passed


def test_lemma_single_variable_exp_cutoff():
    f = CutoffFunction("exp-cutoff", c=0.4)
    rep = lemma1_check(f, (mp.mpc(0.3, -0.6),), 0.5, 1.0, cap=40, tolerance=1e-8)
    assert rep.passed


def test_gamma_identity_trivial_cases():
    rep = gamma_identity_check((mp.mpc(0.4, 0.2), mp.mpc(-0.3, -0.1)), (0, 0))
    assert rep.passed and rep.abs_err < mp.mpf("1e-20")
    rep = gamma_identity_check((mp.mpc(0.9, 0.3),), (2,))
    assert rep.passed and rep.abs_err == 0


def test_gamma_identity_pair_case():
    rep = gamma_identity_check((mp.mpc(0.3, 0.1), mp.mpc(-0.2, 0)), (2, 1),
                               tolerance=1e-10)
    assert rep.passed


def test_gamma_identity_grid_small():
    rng = random.Random(6)
    for n in (2, 3):
        for _ in range(3):
            r = tuple(mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1) + 0.3)
                      for _ in range(n))
            for nu in [(1,) * n, tuple(range(n, 0, -1)), (3,) + (0,) * (n - 1)]:
                assert gamma_identity_check(r, nu, tolerance=1e-10).passed


def test_gamma_identity_rejects_poles():
    with pytest.raises(DomainError):
        gamma_identity_check((mp.mpf(1), mp.mpf(0)), (0, 1))


def test_kappa_examples():
    assert kappa_parity((0, 0, 0)) == 0
    assert kappa_parity((3, 1)) == -2


@given(nu=st.lists(st.integers(0, 9), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_kappa_two_forms_agree_and_even(nu):
    kappa = kappa_parity(tuple(nu))
    assert kappa % 2 == 0
    assert kappa == 2 * sum((1 - m) * v for m, v in enumerate(nu, start=1))


def test_eigen_single_variable_second_display():
    w = (mp.mpc(0.3, -0.4),)
    rep = baxter_eigen_check(w, 1.0, (0.2,), "second", tolerance=1e-6)
    assert rep.passed
    lhs = mp.exp(-mp.exp(mp.mpf("-0.2"))) * mp.exp(1j * w[0] * mp.mpf("0.2"))
    assert abs(rep.lhs - lhs) < mp.mpf("1e-15")


def test_eigen_single_variable_first_display():
    rep = baxter_eigen_check((mp.mpc(0.3, -0.4),), 1.0, (0.2,), "first",
                             tolerance=1e-6)
    assert rep.passed


def test_eigen_shift_independence():
    w = (mp.mpc(0.3, -0.4),)
    r1 = baxter_eigen_check(w, 1.0, (0.2,), "second", a_shift=0.6)
    r2 = baxter_eigen_check(w, 1.0, (0.2,), "second", a_shift=1.4)
    assert abs(r1.rhs - r2.rhs) < mp.mpf("1e-9")


def test_eigen_requires_lower_half_plane():
    with pytest.raises(DomainError):
        baxter_eigen_check((mp.mpc(0.3, 0.1),), 1.0, (0.2,), "second")


W2 = (mp.mpc(0, -0.5), mp.mpc(1, -0.6))


@pytest.mark.parametrize("prec", [100, 200])
@pytest.mark.parametrize("f", [CutoffFunction("product-pole", b=3.0),
                               CutoffFunction("exp-cutoff", c=0.3)],
                         ids=lambda f: f.kind)
def test_separable_pair_sum_matches_pairwise_oracle(f, prec):
    # Two levels: the value is level 1's sum, the error its distance from
    # level 0's.  A plain callable takes the pairwise O(n^2) path.
    cfg = QuadratureConfig(target_rel_error=1e-3, max_depth=2, prec_bits=prec)
    separable = contour_apply(f, W2, 1.0, 1.0, cfg)
    pairwise = contour_apply(lambda v: f(v), W2, 1.0, 1.0, cfg)
    assert separable.diagnostics["levels"] == pairwise.diagnostics["levels"] == 2
    unit = mp.mpf(2) ** (6 - prec) * abs(pairwise.value)
    assert abs(separable.value - pairwise.value) < unit
    assert abs(separable.error - pairwise.error) < unit


@pytest.mark.parametrize("prec", [64, 128])
def test_spectral_pair_sum_matches_direct_pair_loop(prec):
    rng = random.Random(5)
    height = 3.0
    with mp.workprec(prec):
        axis = [(mp.mpf(rng.uniform(-height, height)),
                 mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(12)]
        chi_grid = [(mp.mpf(rng.uniform(0, 4)), mp.mpf(rng.uniform(0, 1)))
                    for _ in range(5)]
        separable = _rank8_pair_sum(axis, chi_grid, prec, height)
    with mp.workprec(prec + 60):
        direct = mp.mpc(0)
        for j in range(len(axis)):
            for k in range(j + 1, len(axis)):
                (tj, aj), (tk, ak) = axis[j], axis[k]
                d = tj - tk
                chi = mp.fsum(omega * mp.cos(tau * d) for tau, omega in chi_grid)
                direct += 2 * aj * ak * (d * mp.sinh(mp.pi * d) / mp.pi) * chi
        assert abs(separable - direct) < mp.mpf(2) ** -prec * abs(direct)


def test_eigen_pair_shift_independence():
    w = (mp.mpc(0.2, -0.5), mp.mpc(-0.1, -0.6))
    r1 = baxter_eigen_check(w, 1.0, (0.3, -0.3), "second", tolerance=1e-3, a_shift=1.1)
    r2 = baxter_eigen_check(w, 1.0, (0.3, -0.3), "second", tolerance=1e-3, a_shift=2.0)
    assert r1.passed and r2.passed
    assert abs(r1.rhs - r2.rhs) < mp.mpf("1e-6") * abs(r1.rhs)
