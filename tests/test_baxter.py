import math
import random
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import qwlab.baxter
import qwlab.quadrature
import qwlab.whittaker
from qwlab.baxter import (
    TestFunction as CutoffFunction,
    _hyperbola,
    _lattice_pair_sum,
    baxter_eigen_check,
    contour_apply,
    gamma_identity_check,
    kappa_parity,
    lemma1_check,
    residue_apply,
)
from qwlab.gamma import gamma_c
from qwlab.qcore import DomainError
from qwlab.quadrature import QuadratureConfig, QuadratureError
from qwlab.whittaker import (
    pair_coupling,
    pair_profile,
    profile_grid,
    stade_check,
    whittaker_eval,
)


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
    for w in (W1, W3):
        res = residue_apply(f, w, -1.0, cap=0)
        assert abs(res.value - f(w)) == 0
        assert res.diagnostics["stop_shell"] == 0


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


def test_residue_pole_check_covers_every_shell_to_cap():
    # w_1 - w_0 = 25i puts a Gamma pole at shell 25 of the shift ladder.  At
    # u = 1e-3 the series stops long before that shell, yet the pole is
    # still caught whenever cap reaches it.
    f = CutoffFunction("product-pole", b=3.0)
    w = (mp.mpc(0.3, -0.5), mp.mpc(0.3, 24.5))
    assert residue_apply(f, w, -1e-3, cap=24).diagnostics["stop_shell"] < 15
    with pytest.raises(DomainError, match="Gamma pole"):
        residue_apply(f, w, -1e-3, cap=25)


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


# rhs and quad_error of the N = 1 eigenrelation at w = (0.3 - 0.4i,), u = 1,
# x = (0.2,), by (display, a_shift), as each display's own integrand summed
# them; the shared spectral table reproduces them bit for bit.
EIGEN_N1_BITS = {
    ("second", None): (((0, 17593037521172931477, -65, 64), (0, 2113701553359618821, -66, 61)),
                       (0, 11580648400850607431555026463, -127, 94)),
    ("first", None): (((0, 10022486547518811275, -65, 64), (1, 9633149640485285081, -69, 64)),
                      (0, 9868377606971034142486524429, -127, 93)),
    ("second", 1.4): (((0, 8796518760586465739, -64, 63), (0, 2113701553359618821, -66, 61)),
                      (0, 5790324199866493533240720087, -126, 93)),
    ("first", 1.4): (((0, 10022486547518811275, -65, 64), (1, 1204143705060660635, -66, 61)),
                     (0, 19736755213369906860782386501, -128, 94)),
}


def test_eigen_single_variable_bits_of_both_displays():
    w = (mp.mpc(0.3, -0.4),)
    for (which, a_shift), (rhs, quad_error) in EIGEN_N1_BITS.items():
        rep = baxter_eigen_check(w, 1.0, (0.2,), which, a_shift=a_shift)
        assert rep.rhs._mpc_ == rhs, (which, a_shift)
        assert rep.diagnostics["quad_error"]._mpf_ == quad_error, (which, a_shift)


@pytest.mark.parametrize("x", [0.2, -0.7])
@pytest.mark.parametrize("which, a_shift", list(EIGEN_N1_BITS))
def test_eigen_single_variable_estimate_bounds_error(which, a_shift, x):
    # At N = 1 the left side has a closed form, psi_w(x) = e^{i w x}: the
    # spectral integral must lie within its own estimate of it.
    w = (mp.mpc(0.3, -0.4),)
    rep = baxter_eigen_check(w, 1.0, (x,), which, a_shift=a_shift)
    sign = -1 if which == "second" else 1
    with mp.workprec(128):
        closed = mp.exp(-mp.exp(sign * mp.mpf(x))) * mp.exp(-sign * 1j * w[0] * mp.mpf(x))
        assert abs(rep.rhs - closed) <= rep.diagnostics["quad_error"]


@pytest.mark.parametrize("which", ["second", "first"])
def test_eigen_single_variable_box_floor_keeps_the_digits(which):
    # At target 1e-7 the box T is its floor, 30, and the cut tails sit below
    # the level-1 lattice error, about 1e-18: a box sized to the target
    # alone loses up to 8 of these digits.
    w = (mp.mpc(0.3, -0.4),)
    x = mp.mpf(0.2)
    rep = baxter_eigen_check(w, 1.0, (x,), which, QuadratureConfig(target_rel_error=1e-7))
    assert rep.diagnostics["T"] == 30.0
    sign = -1 if which == "second" else 1
    with mp.workprec(128):
        closed = mp.exp(-mp.exp(sign * x)) * mp.exp(-sign * 1j * w[0] * x)
        assert abs(rep.rhs - closed) <= mp.mpf("1e-17") * abs(closed)


@pytest.mark.parametrize("x", [0.2, -0.7])
@pytest.mark.parametrize("which, a_shift", list(EIGEN_N1_BITS))
def test_eigen_single_variable_phases_hold_at_two_precisions(which, a_shift, x):
    # The phases advance by one multiply per lattice point; 64 bits more
    # must move the sum by less than its estimate.
    w = (mp.mpc(0.3, -0.4),)
    cfg = QuadratureConfig(target_rel_error=1e-9)
    higher = QuadratureConfig(target_rel_error=1e-9, prec_bits=cfg.working_prec() + 64)
    rep = baxter_eigen_check(w, 1.0, (x,), which, cfg, a_shift=a_shift)
    ref = baxter_eigen_check(w, 1.0, (x,), which, higher, a_shift=a_shift)
    with mp.workprec(256):
        assert abs(rep.rhs - ref.rhs) <= rep.diagnostics["quad_error"]


def test_eigen_requires_lower_half_plane():
    with pytest.raises(DomainError):
        baxter_eigen_check((mp.mpc(0.3, 0.1),), 1.0, (0.2,), "second")


W2 = (mp.mpc(0, -0.5), mp.mpc(1, -0.6))


def _pairwise_contour(f, w, u, a, cfg):
    """The N = 2 contour form as the O(n^2) sum over node pairs of the
    trapezoid rule on `_hyperbola`, with pair_coupling as the pair factor:
    returns the sum at level 1 and its distance from the sum at level 0.
    Level 1 takes level 0's nodes at half their weight and adds its own."""
    w = tuple(mp.mpc(v) for v in w)
    prec = cfg.working_prec()
    with mp.workprec(prec):
        u = mp.mpf(u)
        log_u = mp.log(u)
        uw = mp.mpc(1)
        for wi in w:
            uw = uw * u ** (1j * wi)

        def pair_sum(nodes):
            gvals = []
            for xi, wt in nodes:
                g = mp.exp(-xi * log_u)
                for wi in w:
                    g = g * gamma_c(xi - 1j * wi)
                gvals.append((xi, wt * g))
            acc = mp.mpc(0)
            for xi1, gw1 in gvals:
                inner = mp.mpc(0)
                for xi2, gw2 in gvals:
                    inner += gw2 * pair_coupling(xi1 - xi2) * f((-1j * xi1, -1j * xi2))
                acc += gw1 * inner
            return uw * acc / ((2j * mp.pi) ** 2 * 2)

        new_nodes, _ = _hyperbola(w, a, float(u), cfg)
        level0 = new_nodes(0)
        coarse = pair_sum(level0)
        fine = pair_sum([(xi, wt / 2) for xi, wt in level0] + new_nodes(1))
        return +fine, abs(fine - coarse)


@pytest.mark.parametrize("prec", [100, 200])
@pytest.mark.parametrize("f", [CutoffFunction("product-pole", b=3.0),
                               CutoffFunction("exp-cutoff", c=0.3)],
                         ids=lambda f: f.kind)
def test_separable_pair_sum_matches_pairwise_oracle(f, prec):
    # Two levels: the value is the trapezoid sum at level 1, the error its
    # distance from level 0.  The oracle sums the same nodes pair by pair.
    cfg = QuadratureConfig(target_rel_error=0.5, max_depth=2, prec_bits=prec)
    separable = contour_apply(f, W2, 1.0, 1.0, cfg)
    value, error = _pairwise_contour(f, W2, 1.0, 1.0, cfg)
    assert separable.diagnostics["levels"] == 2
    unit = mp.mpf(2) ** (6 - prec) * abs(value)
    assert abs(separable.value - value) < unit
    assert abs(separable.error - error) < unit


W3 = (mp.mpc(0, -0.5), mp.mpc(0.5, -0.4), mp.mpc(1, -0.3))
CFG3 = QuadratureConfig(target_rel_error=1e-8)
POLE = CutoffFunction("product-pole", b=3.0)
CRITERION_4_W = {2: W2, 3: W3}


@lru_cache(maxsize=None)
def _full_residue(n):
    """Criterion 4's residue series at N = n (product-pole f, u = -1, cap 40)
    at 400 bits, where the stop rule lets every shell above 2^-400 in: the
    full cap-40 sum, its tail below 1e-100."""
    with mp.workprec(400):
        return residue_apply(POLE, CRITERION_4_W[n], -1.0, cap=40)


@pytest.mark.parametrize("n", [2, 3])
def test_residue_series_stops_at_working_precision(n):
    with mp.workprec(100):
        res = residue_apply(POLE, CRITERION_4_W[n], -1.0, cap=40)
    stop = res.diagnostics["stop_shell"]
    assert stop < 40
    full = _full_residue(n)
    assert full.error < 1e-100
    # The shells the stop drops, measured at 400 bits: the 100-bit sum's own
    # rounding (a few units of 2^-100) is not the stop's doing.
    with mp.workprec(400):
        head = residue_apply(POLE, CRITERION_4_W[n], -1.0, cap=stop)
        assert head.diagnostics["stop_shell"] == stop
        assert abs(full.value - head.value) <= mp.mpf(2) ** -100 * abs(full.value)


@pytest.mark.parametrize("n", [2, 3])
def test_residue_error_counts_its_own_rounding(n):
    # At 100 bits the summed shells are a few units of 2^-100 |total| off the
    # 400-bit sum, far more than the two last shells; the error field must
    # cover that rounding too.
    with mp.workprec(100):
        res = residue_apply(POLE, CRITERION_4_W[n], -1.0, cap=40)
    with mp.workprec(400):
        assert abs(res.value - _full_residue(n).value) <= res.error


@pytest.mark.parametrize("n", [2, 3, 4])
def test_residue_estimate_bounds_error_against_closed_forms(n):
    # At N >= 2 the shells cancel (for f = 1 every shell k >= 1 sums to 0)
    # while their terms do not, so the sum's rounding scales with the terms'
    # modulus mass.  f = 1 gives 1 and the exp-cutoff e^{-ic sum w}.
    rng = random.Random(f"residue-rounding-{n}")
    cutoff = CutoffFunction("exp-cutoff", c=0.5)
    for _ in range(12):
        w = tuple(mp.mpc(rng.uniform(-1, 1), rng.uniform(-0.6, -0.05)) for _ in range(n))
        for f, exact in ((CutoffFunction("constant"), lambda: mp.mpc(1)),
                         (cutoff, lambda: mp.exp(-0.5j * mp.fsum(w)))):
            with mp.workprec(100):
                res = residue_apply(f, w, -1.0, cap=40)
            with mp.workprec(200):
                assert abs(res.value - exact()) <= res.error, (f.kind, w)


# Three points in the ranges the benchmark's contour workload draws its
# N = 1 inputs from: u in [0.5, 1.5], Re w in [-0.5, 0.5], Im w in
# [-0.8, -0.2], a in [1, 1.5].
@pytest.mark.parametrize("u, w, a", [(1.0, -0.5j, 1.0), (0.5, 0.3 - 0.2j, 1.2),
                                     (1.5, -0.4 - 0.8j, 1.5)])
def test_contour_estimate_bounds_error_against_closed_form(u, w, a):
    con = contour_apply(CutoffFunction("constant"), (w,), u, a)
    with mp.workprec(128):
        assert abs(con.value - mp.exp(-mp.mpf(u))) <= con.error


# Large u: the terms on the bend exceed e^{-u} by 1e3 at u = 10 and 1e12 at
# u = 30, so the sum's own rounding, not the refinement difference, limits
# the result: at u = 30 at 64 bits the levels never agree to 1e-9.
@pytest.mark.parametrize("u", [10, 25, 30])
def test_contour_estimate_covers_rounding_at_large_u(u):
    con = contour_apply(CutoffFunction("constant"), (-0.5j,), u, 1.0)
    with mp.workprec(256):
        assert abs(con.value - mp.exp(-mp.mpf(u))) <= con.error


@pytest.mark.parametrize("n", [2, 3])
def test_contour_estimate_bounds_error_against_residue_series(n):
    con = contour_apply(POLE, CRITERION_4_W[n], 1.0, 1.0, CFG3)
    with mp.workprec(400):
        assert abs(con.value - _full_residue(n).value) <= con.error


# Observed, not derived: at N = 2 and N = 3 the contour form of f = 1 reads
# 1, and that of the exp-cutoff e^{-i c sum v} reads e^{-i c sum w}, to
# 1e-17 or better at every u and w tried.  They anchor the contour sum at
# N >= 2 without the residue series.
@pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("f", [CutoffFunction("constant"), CutoffFunction("exp-cutoff", c=0.5)],
                         ids=lambda f: f.kind)
@pytest.mark.parametrize("n", [2, 3])
def test_contour_estimate_bounds_error_against_closed_forms_at_n2_and_n3(n, f, u):
    w = CRITERION_4_W[n]
    con = contour_apply(f, w, u, 1.0, CFG3)
    with mp.workprec(128):
        closed = mp.mpc(1) if f.kind == "constant" else mp.exp(-1j * f.c * mp.fsum(w))
        assert abs(con.value - closed) <= con.error


def test_contour_rejects_u_beyond_the_ray_budget():
    # Once u > e the hyperbola's vertex scale grows like u/e, and its level-0
    # sum like that scale: u = 900 takes under 2048 nodes, u = 1000 more.
    cfg = QuadratureConfig(target_rel_error=1e-9)
    new_nodes, height = _hyperbola(W1, 1.0, 900.0, cfg)
    assert len(new_nodes(0)) <= 2048 and height > 900 / math.e
    for u in (1e3, 1e30, 1e300, math.inf):
        with pytest.raises(DomainError, match="budget"):
            _hyperbola(W1, 1.0, u, cfg)
    with pytest.raises(DomainError, match="budget"):
        contour_apply(CutoffFunction("constant"), W1, 1e30, 1.0)


def test_contour_rejects_re_w_beyond_the_segment_budget():
    # To pass a pole at height Re w half its distance 0.5 from the line, the
    # hyperbola's vertex scale grows like (Re w)^2: |Re w| = 35 fits in 2048
    # level-0 nodes, 36 does not.
    cfg = QuadratureConfig(target_rel_error=1e-9)
    new_nodes, height = _hyperbola((mp.mpc(-35, -0.5), mp.mpc(1, -0.5)), 1.0, 1.0, cfg)
    assert len(new_nodes(0)) <= 2048 and height > 35
    for re_w in (36, -1e6, 1e300):
        with pytest.raises(DomainError, match="budget"):
            _hyperbola((mp.mpc(re_w, -0.5),), 1.0, 1.0, cfg)
    with pytest.raises(DomainError, match="Re w"):
        contour_apply(CutoffFunction("constant"), (mp.mpc(1e6, -0.5),), 1.0, 1.0)


@pytest.mark.parametrize("f", [CutoffFunction("constant"),
                               CutoffFunction("product-pole", b=3.0)],
                         ids=lambda f: f.kind)
def test_lemma_three_variables(f):
    rep = lemma1_check(f, W3, 1.0, 1.0, cfg=CFG3)
    assert rep.tolerance == 1e-6
    assert rep.passed


def test_contour_three_variables_symmetric_under_w_permutation():
    f = CutoffFunction("product-pole", b=3.0)
    a = contour_apply(f, W3, 1.0, 1.0, CFG3)
    b = contour_apply(f, (W3[2], W3[0], W3[1]), 1.0, 1.0, CFG3)
    assert abs(a.value - b.value) <= a.error + b.error


def test_contour_rejects_a_plain_callable():
    with pytest.raises(DomainError):
        contour_apply(lambda v: 1, W1, 1.0, 1.0)


@pytest.mark.parametrize("w", [W3 + (mp.mpc(-1, -0.5),), (mp.mpc(0, -0.5), mp.mpc(1, -1.2))],
                         ids=["n4", "low-w"])
def test_lemma_rejects_bad_input_before_the_residue_series(w, monkeypatch):
    def residue_apply(*args, **kwargs):
        raise AssertionError("residue series summed before the input was checked")

    monkeypatch.setattr(qwlab.baxter, "residue_apply", residue_apply)
    with pytest.raises(DomainError):
        lemma1_check(CutoffFunction("constant"), w, 1.0, 1.0)


def test_lemma_rejects_a_negative_cap_before_the_contour(monkeypatch):
    def contour_apply(*args, **kwargs):
        raise AssertionError("contour quadrature ran before the cap was checked")

    monkeypatch.setattr(qwlab.baxter, "contour_apply", contour_apply)
    with pytest.raises(DomainError, match="cap"):
        lemma1_check(CutoffFunction("constant"), W1, 1.0, 1.0, cap=-1)


def _random_lattice(prec, rng):
    """Random complex weights on consecutive points of a random lattice
    step, and a random uniform chi grid (h, omegas)."""
    with mp.workprec(prec):
        weights = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(rng.randrange(10, 60))]
        step, h = mp.mpf(rng.uniform(0.05, 0.2)), mp.mpf(rng.uniform(0.05, 0.3))
        omegas = [mp.mpf(rng.uniform(0, 1)) for _ in range(24)]
    return weights, step, h, omegas, prec


def _criterion_6_lattices(prec, monkeypatch):
    """The arguments of every `_lattice_pair_sum` call that criterion 6's N = 2
    check makes, at a_shift 1.1 and 2.0, at the given working precision."""
    calls = []
    original = qwlab.baxter._lattice_pair_sum

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qwlab.baxter, "_lattice_pair_sum", recording)
    cfg = QuadratureConfig(target_rel_error=1e-5, prec_bits=prec)
    for a_shift in (1.1, 2.0):
        baxter_eigen_check((mp.mpc(0.2, -0.5), mp.mpc(-0.1, -0.6)), 1.0, (0.3, -0.3),
                           "second", cfg, tolerance=1e-3, a_shift=a_shift)
    assert {args[-1] for args in calls} == {prec}
    return calls


def _direct_pair_loop(weights, step, h, omegas, prec):
    """sum over j != k of a_j a_k K((j - k) step) at prec + 60 bits, pair by
    pair, K(d) = d sinh(pi d) chi(d) / pi, chi memoised per lag."""
    with mp.workprec(prec + 60):

        @lru_cache(maxsize=None)
        def kernel(lag):
            d = lag * step
            # sum_m omega_m cos(m h d) as the real part of a polynomial in e^{ihd}
            chi = mp.re(mp.polyval(omegas[::-1], mp.expj(h * d)))
            return d * mp.sinh(mp.pi * d) / mp.pi * chi

        return mp.fsum(weights[j] * weights[k] * kernel(abs(j - k))
                       for j in range(len(weights)) for k in range(len(weights)) if j != k)


@pytest.mark.parametrize("prec", [64, 128])
def test_spectral_pair_sum_matches_direct_pair_loop(prec, monkeypatch):
    # The lattice route reads only lattice indices, so the direct loop takes
    # the differences (j - k) step exactly.
    rng = random.Random(5)
    cases = [_random_lattice(prec, rng) for _ in range(4)]
    cases += _criterion_6_lattices(prec, monkeypatch)
    for weights, step, h, omegas, bits in cases:
        with mp.workprec(prec):
            fast = _lattice_pair_sum(weights, step, h, omegas, bits)
        direct = _direct_pair_loop(weights, step, h, omegas, prec)
        with mp.workprec(prec + 60):
            assert abs(fast - direct) <= mp.mpf(2) ** -(prec + 4) * abs(direct), len(weights)


@pytest.mark.parametrize("s", [-1.5, 0.6, 3.0])
def test_chi_grid_matches_k_bessel(s):
    # The one profile grid, at criterion 6's chi grid (target 1e-5, T = 12,
    # rate 0, level 0) out to delta = 2T, and with growth rate 0.6 at levels
    # 0-2 for complex delta, |Im delta| <= 0.6: the trapezoid rule's error
    # is far below the weights' rounding there.
    prec = 64
    for level, rate in ((0, 0), (0, 0.6), (1, 0.6), (2, 0.6)):
        with mp.workprec(prec):
            z = 2 * mp.exp(-mp.mpf(s) / 2)
            h, omegas = profile_grid(z, 1e-5, 24, rate, level)
        with mp.workprec(prec + 40):
            for k in range(97):
                delta = mp.mpc(mp.mpf(k) / 4, rate * (1, 0.5, -1, 0)[k % 4])
                chi = mp.fsum(omega * mp.cos(m * h * delta) for m, omega in enumerate(omegas))
                assert abs(chi - 2 * mp.besselk(1j * delta, z)) <= 4 * mp.mpf(2) ** -prec, \
                    (level, delta)


# (rhs, quad_error) of criterion 6's inputs at each line height, as the
# trapezoid chi grid and the integer lag kernel (`_lattice_pair_sum`) give
# them.  At x = (0.3, -0.3) both displays give the same values.
PAIR_INTEGRAL_BITS = {
    1.1: (((0, 16400607672477328689, -67, 64), (1, 16829441616088344927, -73, 64)),
          (0, 4771646707152758265, -86, 63)),
    2.0: (((0, 16400604755163260333, -67, 64), (1, 16829344908266360455, -73, 64)),
          (0, 11149978729747139411, -86, 64)),
}


def test_eigen_pair_shift_independence():
    w = (mp.mpc(0.2, -0.5), mp.mpc(-0.1, -0.6))
    reports = {(which, a_shift): baxter_eigen_check(w, 1.0, (0.3, -0.3), which,
                                                    tolerance=1e-3, a_shift=a_shift)
               for which in ("second", "first") for a_shift in (1.1, 2.0)}
    r1, r2 = reports["second", 1.1], reports["second", 2.0]
    assert r1.passed and r2.passed
    assert abs(r1.rhs - r2.rhs) < mp.mpf("1e-6") * abs(r1.rhs)
    for (which, a_shift), rep in reports.items():
        rhs, quad_error = PAIR_INTEGRAL_BITS[a_shift]
        assert rep.rhs._mpc_ == rhs, (which, a_shift)
        assert rep.diagnostics["quad_error"]._mpf_ == quad_error, (which, a_shift)


def _gl2_left_side(w, u, x, which):
    """The eigenrelation's left side at N = 2 in closed form: the cutoff
    times psi_lam(x) = e^{i(lam1 + lam2)(x1 + x2)/2} 2 K_{i(lam1 - lam2)}(2 e^{-(x1 - x2)/2}),
    lam = w (`second`) or -w (`first`)."""
    if which == "second":
        cutoff, lam = mp.exp(-u * mp.exp(-x[1])), w
    else:
        cutoff, lam = mp.exp(-u * mp.exp(x[0])), tuple(-v for v in w)
    return (cutoff * mp.exp(1j * (lam[0] + lam[1]) * (x[0] + x[1]) / 2)
            * 2 * mp.besselk(1j * (lam[0] - lam[1]), 2 * mp.exp(-(x[0] - x[1]) / 2)))


@pytest.mark.parametrize("which", ["second", "first"])
@pytest.mark.parametrize("a_shift", [1.1, 2.0])
def test_eigen_pair_error_estimate_bounds_true_error(a_shift, which):
    w = (mp.mpc(0.2, -0.5), mp.mpc(-0.1, -0.6))
    x = (mp.mpf(0.3), mp.mpf(-0.3))
    rep = baxter_eigen_check(w, 1.0, x, which, a_shift=a_shift)
    with mp.workprec(128):
        exact = _gl2_left_side(w, 1, x, which)
    assert abs(rep.rhs - exact) <= rep.diagnostics["quad_error"]


@pytest.mark.parametrize("which", ["second", "first"])
@pytest.mark.parametrize("a_shift", [3.0, 4.0])
def test_eigen_pair_on_high_lines_raises_rather_than_understates(a_shift, which):
    # On these lines the box T = 12 cuts tails that are not small, and a
    # lattice sum cut off where the integrand is not negligible converges
    # only to first order: the levels cannot agree to the target.  (The
    # Gauss-Legendre panels returned values 9e-4 and 0.5 off, under
    # estimates near 1e-8 and 1e-11.)  Sizing T from a_shift is ROADMAP
    # item 8.
    w = (mp.mpc(0.2, -0.5), mp.mpc(-0.1, -0.6))
    with pytest.raises(QuadratureError, match="spectral quadrature did not converge"):
        baxter_eigen_check(w, 1.0, (0.3, -0.3), which, a_shift=a_shift)


def test_eigen_rejects_non_finite_input():
    w = (mp.mpc(0.2, -0.5), mp.mpc(-0.1, -0.6))
    for kwargs in ({"u": mp.nan}, {"a_shift": mp.inf}, {"x": (0.3, mp.nan)},
                   {"w": (w[0], mp.mpc(mp.inf, -0.6))}):
        with pytest.raises(DomainError, match="finite"):
            baxter_eigen_check(**{"w": w, "u": 1.0, "x": (0.3, -0.3), **kwargs})


NON_FINITE = [
    lambda: stade_check(mp.nan, (0.7,), (0.6,)),
    lambda: stade_check(1, (0.7,), (mp.inf,)),
    lambda: whittaker_eval((0.5, -0.2), (mp.nan, 0.1)),
    lambda: pair_profile(0.5, -0.2, mp.nan),
    lambda: contour_apply(CutoffFunction("constant"), (0.3 - 0.2j,), mp.nan, 1.0),
    lambda: contour_apply(CutoffFunction("constant"), (0.3 - 0.2j,), 1.0, mp.inf),
    lambda: residue_apply(CutoffFunction("constant"), (0.3 - 0.2j,), mp.nan),
]


@pytest.mark.parametrize("run", NON_FINITE, ids=[
    "stade-u-nan", "stade-nu-inf", "whittaker-x-nan", "profile-s-nan",
    "contour-u-nan", "contour-a-inf", "residue-u-nan"])
def test_non_finite_input_is_rejected_before_any_work(run):
    with pytest.raises(DomainError, match="finite"):
        run()


def _counting(monkeypatch, module, name) -> list:
    calls = [0]
    original = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("w, x, cfg", [
    ((mp.mpc(0.3, -0.4),), (0.2,), None),
    ((0.2 - 0.5j, -0.1 - 0.6j), (0.3, -0.1), QuadratureConfig(target_rel_error=1e-4)),
], ids=["N=1", "N=2"])
def test_second_display_takes_no_gamma_evaluation(w, x, cfg, monkeypatch):
    qwlab.baxter._spectral_axis.cache_clear()
    calls = _counting(monkeypatch, qwlab.baxter, "gamma_c")
    baxter_eigen_check(w, 1.0, x, "first", cfg)
    first = calls[0]
    baxter_eigen_check(w, 1.0, x, "second", cfg)
    assert first > 0 and calls[0] == first


def _counting_points(monkeypatch, module) -> list:
    """The (level, point count) of each nodes_1d call made through module."""
    calls = []
    original = module.nodes_1d

    def counting(level, *args):
        points = original(level, *args)
        calls.append((level, len(points)))
        return points

    monkeypatch.setattr(module, "nodes_1d", counting)
    return calls


def test_spectral_sum_evaluates_each_gamma_once(monkeypatch):
    # The gamma-limits workload's N = 1 input.  Each level tabulates only
    # the points it adds, so Gamma runs once per point of the stop level's
    # lattice (Gauss-Legendre panels, which do not nest, took
    # 240 + 480 + 960 = 1680 calls here).
    qwlab.baxter._spectral_axis.cache_clear()
    gammas = _counting(monkeypatch, qwlab.baxter, "gamma_c")
    levels = _counting_points(monkeypatch, qwlab.baxter)
    cfg = QuadratureConfig(target_rel_error=1e-7)
    rep = baxter_eigen_check((mp.mpc(0.3, -0.4),), 1.0, (0.2,), "second", cfg)
    assert [level for level, _ in levels] == list(range(rep.diagnostics["levels"]))
    assert gammas[0] == sum(count for _, count in levels)


def _counting_profiles(monkeypatch) -> list:
    """(len(ds), len(deltas)) of each `_lattice_profiles` call, with
    mp.besselk refused."""
    calls = []
    original = qwlab.whittaker._lattice_profiles

    def counting(table, ds, deltas):
        calls.append((len(ds), len(deltas)))
        return original(table, ds, deltas)

    def refused(*args, **kwargs):
        raise AssertionError("mp.besselk called")

    monkeypatch.setattr(qwlab.whittaker, "_lattice_profiles", counting)
    monkeypatch.setattr(mp, "besselk", refused)
    return calls


def test_relative_integral_evaluates_each_k_bessel_pair_once(monkeypatch):
    # The profiles workload's N = 2 Stade input: one kernel call per level,
    # over exactly the points the level adds, with both profiles in it, and
    # no K-Bessel call (the mp.besselk route took two per point).
    qwlab.whittaker._stade_relative_integral.cache_clear()
    kernel = _counting_profiles(monkeypatch)
    levels = _counting_points(monkeypatch, qwlab.whittaker)
    lam, nu = (mp.mpc(1.5), mp.mpc(1.4)), (mp.mpc(1.45), mp.mpc(1.35))
    qwlab.whittaker._stade_relative_integral(lam, nu, sum(lam) + sum(nu),
                                             QuadratureConfig(target_rel_error=1e-2),
                                             mp.mp.prec)
    assert [level for level, _ in levels] == list(range(len(levels)))
    assert kernel == [(count, 2) for _, count in levels]


def test_second_stade_display_takes_no_k_bessel_evaluation(monkeypatch):
    qwlab.whittaker._stade_relative_integral.cache_clear()
    calls = _counting_profiles(monkeypatch)
    stade_check(1.0, (0.5, 0.2), (0.4, 0.3), "first")
    first = len(calls)
    stade_check(1.0, (0.5, 0.2), (0.4, 0.3), "second")
    assert first > 0 and len(calls) == first


def _interleaved_equals_cold(memo, run):
    """run(dps, cfg, which) at two ambient precisions and two configurations,
    each called after memo.cache_clear() and then interleaved on a warm
    memo, forwards and backwards: every value must keep its bits."""
    cfgs = (QuadratureConfig(target_rel_error=1e-6),
            QuadratureConfig(target_rel_error=1e-6, prec_bits=80))
    keys = [(dps, cfg, which) for dps in (15, 30) for cfg in cfgs
            for which in ("first", "second")]
    cold = {}
    for key in keys:
        memo.cache_clear()
        cold[key] = run(*key)
    memo.cache_clear()
    for key in keys + keys[::-1]:
        assert run(*key) == cold[key], key


def test_spectral_table_memo_keeps_cold_bits():
    def run(dps, cfg, which):
        with mp.workdps(dps):
            rep = baxter_eigen_check((mp.mpc(0.3, -0.4),), 1.3, (0.2,), which, cfg)
        return rep.rhs._mpc_, rep.diagnostics["quad_error"]._mpf_

    _interleaved_equals_cold(qwlab.baxter._spectral_axis, run)


def test_relative_integral_memo_keeps_cold_bits():
    def run(dps, cfg, which):
        with mp.workdps(dps):
            rep = stade_check(1.0, (1.5, 1.4), (1.45, 1.35), which, cfg)
        return rep.lhs._mpc_, rep.diagnostics["rel_error"]._mpf_

    _interleaved_equals_cold(qwlab.whittaker._stade_relative_integral, run)


def test_display_memos_are_bounded():
    assert qwlab.whittaker._stade_relative_integral.cache_info().maxsize is not None
    # One pair's every refinement level fits.
    assert qwlab.baxter._spectral_axis.cache_info().maxsize >= QuadratureConfig().max_depth
