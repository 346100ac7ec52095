import itertools
import random

import mpmath as mp
import pytest

from qwlab.gamma import gamma_c
from qwlab.qcore import DomainError
from qwlab.quadrature import QuadratureConfig, integrate_nd
from qwlab.whittaker import (
    GiventalPattern,
    _interior_box,
    givental_action,
    pair_coupling,
    pair_profile,
    sklyanin_m,
    sklyanin_s,
    stade_check,
    whittaker_eval,
)


def setup_function(_fn):
    mp.mp.dps = 25


def teardown_function(_fn):
    mp.mp.dps = 15


def givental_action_naive(lam, rows):
    """Second implementation by bare double loops over the definition."""
    n = len(rows)
    total = mp.mpc(0)
    for k in range(n):
        row_sum = sum(rows[k], mp.mpf(0))
        prev = sum(rows[k - 1], mp.mpf(0)) if k else mp.mpf(0)
        total += 1j * mp.mpc(lam[k]) * (row_sum - prev)
    for k in range(n - 1):
        for i in range(k + 1):
            total -= mp.exp(rows[k][i] - rows[k + 1][i])
            total -= mp.exp(rows[k + 1][i + 1] - rows[k][i])
    return total


def test_pattern_shape_validated():
    with pytest.raises(DomainError):
        GiventalPattern(((0.0, 0.0),))


def test_action_single_row():
    pat = GiventalPattern(((0.7,),))
    # inputs travel as doubles, compare at that accuracy
    assert abs(givental_action((0.3,), pat) - 0.21j) < mp.mpf("1e-15")


def test_action_two_rows_at_origin():
    pat = GiventalPattern(((0.0,), (0.0, 0.0)))
    assert abs(givental_action((0.0, 0.0), pat) + 2) < mp.mpf("1e-20")


def test_action_matches_naive_double_loop():
    rng = random.Random(7)
    for _ in range(10):
        rows = (
            (rng.uniform(-2, 2),),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        lam = tuple(complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4)) for _ in range(3))
        pat = GiventalPattern(rows)
        assert abs(givental_action(lam, pat) - givental_action_naive(lam, rows)) < mp.mpf("1e-18")


def test_whittaker_single_variable_exact():
    res = whittaker_eval((0.7,), (0.4,))
    assert res.error == 0
    expect = mp.exp(1j * mp.mpf(0.7) * mp.mpf(0.4))
    assert abs(res.value - expect) < mp.mpf("1e-24")


def test_whittaker_pair_matches_raw_pattern_integral():
    # The tuned integrand against a direct exp(action) quadrature.
    lam, x = (0.4, -0.1), (0.2, -0.5)
    cfg = QuadratureConfig(target_rel_error=1e-10)
    direct = integrate_nd(
        lambda pt: mp.exp(givental_action(lam, GiventalPattern(((pt[0],), x)))),
        [(-6, 6)], cfg)
    tuned = whittaker_eval(lam, x, cfg)
    assert abs(direct.value - tuned.value) / abs(tuned.value) < mp.mpf("1e-9")


def test_whittaker_triple_matches_givental_recursion_step():
    # One Givental recursion step as an independent oracle: integrate the
    # closed-form GL(2) Whittaker function of the middle row (z1, z2),
    #   e^{i(lam1 + lam2)(z1 + z2)/2} 2 K_{i(lam1 - lam2)}(2 e^{-(z1 - z2)/2}),
    # against the row-2/row-3 couplings and the lam3 phase, in 2-d.
    lam, x = (0.5, 0.1, -0.4), (0.4, 0.0, -0.4)
    cfg = QuadratureConfig(target_rel_error=1e-7)
    l1, l2, l3 = (mp.mpc(v) for v in lam)
    x1, x2, x3 = (mp.mpf(v) for v in x)

    def integrand(pt):
        z1, z2 = pt
        couplings = mp.exp(z1 - x1) + mp.exp(x2 - z1) + mp.exp(z2 - x2) + mp.exp(x3 - z2)
        gl2 = 2 * mp.besselk(1j * (l1 - l2), 2 * mp.exp(-(z1 - z2) / 2))
        phase = 1j * l3 * (x1 + x2 + x3 - z1 - z2) + 1j * (l1 + l2) * (z1 + z2) / 2
        return mp.exp(phase - couplings) * gl2

    box = (min(x) - 5, max(x) + 5)
    oracle = integrate_nd(integrand, [box] * 2, cfg)
    tuned = whittaker_eval(lam, x, cfg)
    assert abs(oracle.value - tuned.value) / abs(tuned.value) < mp.mpf("1e-6")


@pytest.mark.parametrize("prec_bits", [None, 128])
def test_whittaker_triple_same_nodes_as_raw_pattern_integral(prec_bits):
    # The factorised N = 3 sum against exp(givental_action) summed as a plain
    # tensor product over the same Gauss-Legendre nodes and levels: they
    # differ only by rounding, at either working precision.  x enters as
    # mpf so that both sides build the same box.
    lam = (0.5, 0.1, -0.4)
    x = tuple(mp.mpf(v) for v in (0.4, 0.0, -0.4))
    cfg = QuadratureConfig(box_halfwidth=1.0, target_rel_error=0.2,
                           prec_bits=prec_bits)
    raw = integrate_nd(
        lambda pt: mp.exp(givental_action(
            lam, GiventalPattern(((pt[0],), (pt[1], pt[2]), x)))),
        [_interior_box(x, cfg)] * 3, cfg)
    tuned = whittaker_eval(lam, x, cfg)
    assert raw.diagnostics["levels"] == tuned.diagnostics["levels"]
    bound = mp.mpf(2) ** -(cfg.working_prec() - 8)
    assert abs(raw.value - tuned.value) <= bound * abs(tuned.value)


def test_whittaker_triple_weyl_invariance_within_error_estimates():
    # psi_lam is symmetric in lam: all six orderings agree within the sum of
    # their reported error estimates.
    x = (0.4, 0.0, -0.4)
    results = [whittaker_eval(perm, x) for perm in itertools.permutations((0.5, 0.1, -0.4))]
    for a, b in itertools.combinations(results, 2):
        assert abs(a.value - b.value) <= a.error + b.error


def test_whittaker_triple_exponential_count_is_quadratic(monkeypatch):
    # Two levels of 24 and 48 nodes: the factorised sum takes about
    # 2 n^2 exponentials per level, the tensor sum n^3.
    calls = [0]
    exp = mp.exp

    def counting_exp(*args, **kwargs):
        calls[0] += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(mp, "exp", counting_exp)
    cfg = QuadratureConfig(box_halfwidth=2.5, target_rel_error=1e-9)
    res = whittaker_eval((0.5, 0.1, -0.4), (0.4, 0.0, -0.4), cfg)
    assert res.diagnostics["levels"] == 2
    assert calls[0] < 3 * (24**2 + 48**2)


def test_whittaker_reflection_symmetry():
    lam, x = (0.5, -0.2), (0.3, -0.3)
    direct = whittaker_eval(lam, x)
    mirrored = whittaker_eval((-0.5, 0.2), (0.3, -0.3))
    assert abs(direct.value - mirrored.value) / abs(direct.value) < mp.mpf("1e-8")


def test_whittaker_permutation_invariance_pair():
    x = (0.4, -0.1)
    a = whittaker_eval((0.6, -0.3), x)
    b = whittaker_eval((-0.3, 0.6), x)
    assert abs(a.value - b.value) / abs(a.value) < mp.mpf("1e-9")


def test_whittaker_box_doubling_within_error():
    lam, x = (0.5, -0.2), (0.3, -0.3)
    r1 = whittaker_eval(lam, x, QuadratureConfig(box_halfwidth=4.5,
                                                 target_rel_error=1e-10))
    r2 = whittaker_eval(lam, x, QuadratureConfig(box_halfwidth=9.0,
                                                 target_rel_error=1e-10))
    assert abs(r1.value - r2.value) <= r1.error + r2.error + mp.mpf("1e-20")


def test_separation_matches_pattern_integral():
    lam, x = (0.5, -0.2), (0.3, -0.3)
    sigma = (x[0] + x[1]) / 2
    s = x[0] - x[1]
    prof = pair_profile(lam[0], lam[1], s)
    sep = mp.exp(1j * (lam[0] + lam[1]) * sigma) * prof.value
    ref = whittaker_eval(lam, x)
    assert abs(sep - ref.value) / abs(ref.value) < mp.mpf("1e-9")


def test_sklyanin_single_point():
    assert abs(sklyanin_m((0.7,)) - 1 / (2 * mp.pi)) < mp.mpf("1e-24")
    assert abs(sklyanin_s((0.7,)) - 1 / (2j * mp.pi)) < mp.mpf("1e-24")


def test_sklyanin_pair_matches_direct_substitution():
    xi = (mp.mpf("0.7"), mp.mpf("-0.3"))
    direct = 1 / ((2 * mp.pi) ** 2 * 2
                  * gamma_c(1j * (xi[0] - xi[1])) * gamma_c(1j * (xi[1] - xi[0])))
    assert abs(sklyanin_m(xi) - direct) < mp.mpf("1e-20")


def test_sklyanin_rejects_coincident():
    with pytest.raises(DomainError):
        sklyanin_m((0.3, 0.3))


def test_pair_coupling_is_reflected_gamma_product():
    for d in (mp.mpc(0.4, 0.1), mp.mpc(-1.3, 0.7)):
        direct = 1 / (gamma_c(d) * gamma_c(-d))
        assert abs(pair_coupling(d) - direct) < mp.mpf("1e-20")
    assert pair_coupling(0) == 0


def test_stade_single_variable_both_identities():
    for which in ("first", "second"):
        rep = stade_check(1.0, (0.7,), (0.6,), which, tolerance=1e-8)
        assert rep.passed
        # inputs travel as doubles, so compare at double-level accuracy
        expect = gamma_c(mp.mpf(0.7) + mp.mpf(0.6))
        assert abs(rep.rhs - expect) < mp.mpf("1e-15")


def test_stade_rejects_bad_domain():
    with pytest.raises(DomainError):
        stade_check(1.0, (0.2,), (-0.3,), "first")
    with pytest.raises(DomainError):
        stade_check(-1.0, (0.7,), (0.6,), "first")
    with pytest.raises(DomainError):
        stade_check(1.0, (0.7,), (0.6,), "sideways")


@pytest.mark.parametrize("u, lam, nu", [
    (1.0, (0.5, 0.2), (0.4, 0.3)),  # criterion 5
    (1.0, (0.5 + 0.1j, 0.2), (0.4, 0.3 - 0.1j)),
    (1.3, (0.9, 0.1 + 0.3j), (0.6 - 0.2j, 0.5)),
])
def test_stade_pair_matches_gamma_product(u, lam, nu):
    # Default configuration: composite Gauss-Legendre to 1e-11, 66 bits.
    prec = QuadratureConfig(target_rel_error=1e-11).working_prec()
    with mp.workprec(256):
        rhs = mp.mpf(u) ** -(mp.fsum(lam) + mp.fsum(nu))
        for li in lam:
            for nj in nu:
                rhs *= mp.gamma(mp.mpc(li) + nj)
    for which in ("first", "second"):
        rep = stade_check(u, lam, nu, which, tolerance=1e-12)
        assert rep.passed, (which, rep.rel_err)
        with mp.workprec(256):
            slack = 16 * mp.mpf(2) ** -prec * abs(rhs)
            assert abs(rep.lhs - rhs) <= rep.diagnostics["quad_error"] + slack


def test_n2_error_estimates_bound_the_k_bessel_closed_form():
    # psi_lam(x) = e^{i(lam1 + lam2)(x1 + x2)/2} 2 K_{i(lam1 - lam2)}(2 e^{-(x1 - x2)/2})
    # (the GL(2) Whittaker function).  Called at mpmath's default 53 bits,
    # the reported error must still bound the true error up to 16 units of
    # the 64-bit working precision.
    rng = random.Random("n2-error-estimates")
    whittaker_points = [
        ((round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4)),
         (round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4)))
        for _ in range(8)]
    profile_points = [
        (complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-0.3, 0.3), 4)),
         complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-0.3, 0.3), 4)),
         round(rng.uniform(-2, 3), 4))
        for _ in range(48)]

    def closed_form(mu1, mu2, s):
        return 2 * mp.besselk(1j * (mp.mpc(mu1) - mp.mpc(mu2)), 2 * mp.exp(-mp.mpf(s) / 2))

    cases = []
    for lam, x in whittaker_points:
        with mp.workprec(53):
            res = whittaker_eval(lam, x)
        with mp.workprec(128):
            anchor = (mp.exp(1j * (mp.mpc(lam[0]) + lam[1]) * (mp.mpf(x[0]) + x[1]) / 2)
                      * closed_form(lam[0], lam[1], mp.mpf(x[0]) - x[1]))
        cases.append((res, anchor))
    for mu1, mu2, s in profile_points:
        with mp.workprec(53):
            res = pair_profile(mu1, mu2, s)
        with mp.workprec(128):
            cases.append((res, closed_form(mu1, mu2, s)))
    with mp.workprec(128):
        for res, anchor in cases:
            slack = 16 * mp.mpf(2) ** -64 * abs(anchor)
            assert abs(res.value - anchor) <= res.error + slack
