import itertools
import random

import mpmath as mp
import pytest
from oracles import GiventalPattern, gauss_legendre_pattern_3, givental_action, integrate_nd

from qwlab import quadrature, whittaker
from qwlab.gamma import gamma_c
from qwlab.qcore import DomainError
from qwlab.quadrature import QuadratureConfig
from qwlab.whittaker import (
    _pattern_lattice,
    _pattern_sum_3,
    pair_coupling,
    pair_profile,
    sklyanin_m,
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
    # against the row-2/row-3 couplings and the lam3 phase, in 2-d.  The
    # integrand dies double-exponentially in every direction, so the
    # trapezoid rule on a uniform grid converges geometrically (Trefethen &
    # Weideman, SIAM Review 56, 2014); on that grid z1 - z2 takes only
    # 2n + 1 values, so besselk runs O(n) times.  At pad 6, h = 0.2 and
    # h = 0.15 agree to 20 digits here.
    lam, x = (0.5, 0.1, -0.4), (0.4, 0.0, -0.4)
    l1, l2, l3 = (mp.mpc(v) for v in lam)
    x1, x2, x3 = (mp.mpf(v) for v in x)
    h = mp.mpf("0.2")
    lo = min(x) - 6
    n = int(mp.ceil((max(x) + 6 - lo) / h))
    zs = [lo + h * k for k in range(n + 1)]
    rate = 1j * (l1 + l2 - 2 * l3) / 2
    a = [mp.exp(rate * z - mp.exp(z - x1) - mp.exp(x2 - z)) for z in zs]
    b = [mp.exp(rate * z - mp.exp(z - x2) - mp.exp(x3 - z)) for z in zs]
    gl2 = {d: 2 * mp.besselk(1j * (l1 - l2), 2 * mp.exp(-h * d / 2))
           for d in range(-n, n + 1)}
    total = mp.fsum(a[i] * b[j] * gl2[i - j] for i in range(n + 1) for j in range(n + 1))
    oracle = h * h * mp.exp(1j * l3 * (x1 + x2 + x3)) * total
    tuned = whittaker_eval(lam, x, QuadratureConfig(target_rel_error=1e-12))
    assert abs(oracle - tuned.value) / abs(tuned.value) < mp.mpf("1e-12")


@pytest.mark.parametrize("prec_bits", [None, 128])
def test_whittaker_triple_same_nodes_as_raw_pattern_integral(prec_bits):
    # One level of the lattice sum against exp(givental_action) summed node
    # by node over the same lattice: row 2 on z = k h inside its windows,
    # row 1 on the half lattice (i + j + 2m) h / 2 inside [z2 - L, z1 + L].
    # They differ only by rounding, at either working precision; target 0.2
    # keeps the lattice coarse.
    lam = tuple(mp.mpc(v) for v in (0.5, 0.1, -0.4))
    x = tuple(mp.mpf(v) for v in (0.4, 0.0, -0.4))
    cfg = QuadratureConfig(target_rel_error=0.2, prec_bits=prec_bits)
    with mp.workprec(cfg.integrand_prec()):
        h, L = _pattern_lattice(lam, x, cfg.target_rel_error)
        tuned = _pattern_sum_3(lam, x, h, L)
        terms = []
        for i in range(int(mp.ceil((x[1] - L) / h)), int(mp.floor((x[0] + L) / h)) + 1):
            for j in range(int(mp.ceil((x[2] - L) / h)), int(mp.floor((x[1] + L) / h)) + 1):
                z1, z2 = i * h, j * h
                reach = int(2 * L / h) + 2
                for m in range(-(i - j) - reach, reach + 1):
                    y = (i + j + 2 * m) * h / 2
                    if z2 - L <= y <= z1 + L:
                        pattern = GiventalPattern(((y,), (z1, z2), x))
                        terms.append(mp.exp(givental_action(lam, pattern)))
        raw = h ** 3 * mp.fsum(terms)
    assert len(terms) > 500
    bound = mp.mpf(2) ** -(cfg.working_prec() - 8)
    assert abs(raw - tuned) <= bound * abs(tuned)


@pytest.mark.parametrize("target", [1e-10, 1e-12])
def test_whittaker_triple_weyl_invariance_within_error_estimates(target):
    # psi_lam is symmetric in lam: all six orderings agree within the sum of
    # their reported error estimates.  The lattice sum singles out lam3, so
    # the orderings run different sums, on windows sized from the target.
    x = (0.4, 0.0, -0.4)
    cfg = QuadratureConfig(target_rel_error=target)
    results = [whittaker_eval(perm, x, cfg)
               for perm in itertools.permutations((0.5, 0.1, -0.4))]
    for a, b in itertools.combinations(results, 2):
        assert abs(a.value - b.value) <= a.error + b.error


def test_whittaker_triple_exponential_count_is_linear(monkeypatch):
    # The benchmark's N = 3 point stops after two levels, and a level takes
    # O(n) exponentials for n lattice nodes per axis: halving the step about
    # doubles the count, where a sum factorised per row-1 node would
    # quadruple it and a node-by-node sum multiply it by eight.
    lam = tuple(mp.mpc(v) for v in (0.5, 0.1, -0.4))
    x = tuple(mp.mpf(v) for v in (0.4, 0.0, -0.4))
    cfg = QuadratureConfig(target_rel_error=1e-9)
    assert whittaker_eval(lam, x, cfg).diagnostics["levels"] == 2
    calls = [0]
    exp = mp.exp

    def counting_exp(*args, **kwargs):
        calls[0] += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(mp, "exp", counting_exp)
    counts = []
    with mp.workprec(cfg.integrand_prec()):
        h0, L = _pattern_lattice(lam, x, cfg.target_rel_error)
        for level in range(3):
            calls[0] = 0
            _pattern_sum_3(lam, x, h0 / 2**level, L)
            counts.append(calls[0])
    assert counts[0] > 100
    assert counts[1] < 2.2 * counts[0] and counts[2] < 2.2 * counts[1]


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


def _givental_step_reference(lam, x):
    """psi_lam(x) at N = 3 from one Givental recursion step with the GL(2)
    closed form, as in test_whittaker_triple_matches_givental_recursion_step,
    at 100 bits on h = 0.2 and pad 6: about 1e-20 relative, far below the
    estimates it is checked against."""
    with mp.workprec(100):
        l1, l2, l3 = (mp.mpc(v) for v in lam)
        x1, x2, x3 = (mp.mpf(v) for v in x)
        h = mp.mpf("0.2")
        lo = min(x) - 6
        n = int(mp.ceil((max(x) + 6 - lo) / h))
        zs = [lo + h * k for k in range(n + 1)]
        rate = 1j * (l1 + l2 - 2 * l3) / 2
        a = [mp.exp(rate * z - mp.exp(z - x1) - mp.exp(x2 - z)) for z in zs]
        b = [mp.exp(rate * z - mp.exp(z - x2) - mp.exp(x3 - z)) for z in zs]
        gl2 = {d: 2 * mp.besselk(1j * (l1 - l2), 2 * mp.exp(-h * d / 2))
               for d in range(-n, n + 1)}
        total = mp.fsum(a[i] * b[j] * gl2[i - j] for i in range(n + 1) for j in range(n + 1))
        return h * h * mp.exp(1j * l3 * (x1 + x2 + x3)) * total


_N3_RNG = random.Random("n3-estimates")
N3_POINTS = [((0.5, 0.1, -0.4), (0.4, 0.0, -0.4))] + [
    (tuple(round(_N3_RNG.uniform(-1, 1), 4) for _ in range(3)),
     tuple(round(_N3_RNG.uniform(-1, 1), 4) for _ in range(3)))
    for _ in range(3)]
N3_REFERENCES = {}


@pytest.mark.parametrize("target", [1e-8, 1e-10, 1e-12])
def test_whittaker_triple_estimate_bounds_true_error(target):
    # Criterion 8's point and three seeded points: the windows' truncation is
    # invisible to the refinement estimate, so only an independent reference
    # shows that it stays below the estimate.
    cfg = QuadratureConfig(target_rel_error=target)
    for lam, x in N3_POINTS:
        if (lam, x) not in N3_REFERENCES:
            N3_REFERENCES[(lam, x)] = _givental_step_reference(lam, x)
        res = whittaker_eval(lam, x, cfg)
        with mp.workprec(100):
            assert abs(res.value - N3_REFERENCES[(lam, x)]) <= res.error


def test_whittaker_triple_matches_gauss_legendre_oracle():
    # The composite Gauss-Legendre pattern sum on a wide box (row 1 padded
    # by 12 about the top-row hull, row 2 by 5) at criterion 8's point.
    lam, x = (0.5, 0.1, -0.4), (0.4, 0.0, -0.4)
    cfg = QuadratureConfig(target_rel_error=1e-10)
    oracle = gauss_legendre_pattern_3(lam, x, (min(x) - 12, max(x) + 12),
                                      (min(x) - 5, max(x) + 5), cfg)
    tuned = whittaker_eval(lam, x, cfg)
    assert abs(oracle.value - tuned.value) <= oracle.error + tuned.error


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


@pytest.mark.parametrize("target", [None, 1e-2])
@pytest.mark.parametrize("u, lam, nu", [
    (1.0, 0.7, 0.6), (1.7, 0.35, 0.9),
    # Complex rates narrow the strip in which the mapped terms decay, and a
    # small rate stretches the left tail.
    *((u, lam, nu) for u in (0.3, 1.0, 5.0)
      for lam, nu in ((0.3 + 5j, 0.3 - 1j), (0.5 + 8j, 0.4), (0.15, 0.15))),
])
def test_stade_single_variable_estimate_bounds_error(u, lam, nu, target):
    # At N = 1 the left side is the cutoff integral of e^{+-r y}, r = lam + nu,
    # whose value u^-r Gamma(r) the estimate must bound, up to 16 units of
    # the working precision, and the estimate is never 0.
    cfg = None if target is None else QuadratureConfig(target_rel_error=target)
    prec = (cfg or QuadratureConfig(target_rel_error=1e-11)).working_prec()
    with mp.workprec(256):
        r = mp.mpc(lam) + mp.mpc(nu)
        exact = mp.mpf(u) ** -r * mp.gamma(r)
    for which in ("first", "second"):
        rep = stade_check(u, (lam,), (nu,), which, cfg)
        error = rep.diagnostics["quad_error"]
        assert error > 0
        with mp.workprec(256):
            assert abs(rep.lhs - exact) <= error + 16 * mp.mpf(2) ** -prec * abs(exact)


def test_stade_single_variable_displays_sum_the_same_terms():
    # y = tau - e^{-tau} and y = e^{-tau} - tau turn both displays into one
    # sum in tau, so their left sides agree in every bit.
    for u, lam, nu in [(1.0, 0.7, 0.6), (0.3, 0.3 + 5j, 0.3 - 1j)]:
        first, second = (stade_check(u, (lam,), (nu,), which) for which in ("first", "second"))
        assert first.lhs == second.lhs
        assert first.diagnostics["quad_error"] == second.diagnostics["quad_error"]


def test_stade_single_variable_lattice_is_short(monkeypatch):
    # Criterion 5's N = 1 pair: the double-exponential map cuts both tails
    # double-exponentially, so a display takes at most 250 lattice points
    # (a window in y takes 998).
    points = []
    nodes_1d = quadrature.nodes_1d

    def counted(*args):
        out = nodes_1d(*args)
        points.extend(out)
        return out

    monkeypatch.setattr(quadrature, "nodes_1d", counted)
    for which in ("first", "second"):
        points.clear()
        assert stade_check(1.0, (0.7,), (0.6,), which).passed
        assert 0 < len(points) <= 250


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
    # Default configuration: the nested trapezoid rule to 1e-11, 66 bits.
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


def _gamma_product(u, lam, nu):
    with mp.workprec(300):
        rhs = mp.mpf(u) ** -(mp.fsum(lam) + mp.fsum(nu))
        for li in lam:
            for nj in nu:
                rhs *= mp.gamma(mp.mpc(li) + nj)
        return rhs


@pytest.mark.parametrize("u, lam, nu, target", [
    (1.0, (0.5, 0.2), (0.4, 0.3), 1e-11),  # criterion 5
    (1.0, (1.5, 1.4), (1.45, 1.35), 1e-2),  # the profiles workload's pair
    (1.0, (0.7 + 0.2j, 0.4 - 0.1j), (0.6 + 0.1j, 0.5 - 0.3j), 1e-6),
])
def test_stade_pair_estimate_bounds_error(u, lam, nu, target):
    # At 40 digits the caller's precision rounds nothing, so the left side's
    # error is the program's own: the two integrals', the profiles' and the
    # product's rounding at the working precision, which the estimate once
    # left out (criterion 5's pair read 4.5e-21 against 2.0e-28).
    rhs = _gamma_product(u, lam, nu)
    for which in ("first", "second"):
        with mp.workdps(40):
            rep = stade_check(u, lam, nu, which, QuadratureConfig(target_rel_error=target))
        with mp.workprec(300):
            assert abs(rep.lhs - rhs) <= rep.diagnostics["quad_error"], which


# delta in 2 K_{i delta}: order 0, real orders, complex orders whose
# |Re delta| = 6 cancels about e^{-3 pi} of the terms, and an imaginary one.
LATTICE_ORDERS = [0, 0.7, 3, 0.5 + 0.3j, 6 + 0.4j, -6 - 0.2j, -0.9j]


def _lattice_chis(delta, prec):
    """chi_d and its bound at every d of a lattice at the step of
    `_profile_step`, with z = 2 e^{-d h/2} from about 1e-3 to 500."""
    h = mp.mpf(whittaker._profile_step([delta], 100))
    ds = range(int(-2 * mp.log(250) / h), int(-2 * mp.log(5e-4) / h) + 1)
    with mp.workprec(prec):
        table = whittaker._profile_table_at(h, ds[-1], [mp.mpc(delta)], prec)
        (pairs,) = whittaker._lattice_profiles(table, ds, [mp.mpc(delta)])
        bounds = whittaker._lattice_profile_bounds(table, ds, mp.mpc(delta))
    unit = -3 * table.width
    chis = [h * mp.mpc(mp.mpf((re, unit)), mp.mpf((im, unit))) for re, im in pairs]
    return h, ds, chis, bounds


@pytest.mark.parametrize("delta", LATTICE_ORDERS)
def test_lattice_profiles_match_k_bessel(delta):
    with mp.workprec(160):
        h, ds, chis, bounds = _lattice_chis(delta, 100)
        for d, chi, bound in zip(ds, chis, bounds):
            exact = 2 * mp.besselk(1j * mp.mpc(delta), 2 * mp.exp(-d * h / 2))
            assert abs(chi - exact) <= bound, d


@pytest.mark.parametrize("delta", LATTICE_ORDERS)
def test_lattice_profiles_hold_at_two_precisions(delta):
    with mp.workprec(400):
        _, ds, low, low_bounds = _lattice_chis(delta, 100)
        _, _, high, high_bounds = _lattice_chis(delta, 132)
        for d, a, b, bound_a, bound_b in zip(ds, low, high, low_bounds, high_bounds):
            assert abs(a - b) <= bound_a + bound_b, d


@pytest.mark.parametrize("delta", LATTICE_ORDERS)
def test_lattice_profile_bound_is_near_the_precision(delta):
    # At 100 bits the bound stays within 12 bits of the profile, or of its
    # size e^{-pi |Re delta| / 2} where it is below that, so a caller at the
    # integrand's precision loses little to it.
    _, ds, chis, bounds = _lattice_chis(delta, 100)
    floor = mp.exp(-mp.pi * abs(mp.re(delta)) / 2)
    for d, chi, bound in zip(ds, chis, bounds):
        assert bound <= 2.0 ** -88 * max(abs(chi), floor), d


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


# (mu1, mu2, s) where the profile sum at 94 bits cancelled to below its
# estimate: at |Re delta| = 8..20 the terms are O(1) while the profile is
# about e^{-pi |Re delta| / 2}.
CANCELLING_PROFILES = [(8, 0, 0), (6, -6, 0.5), (12, 0, 2.5), (10, -10, -1)]


def _profile_points():
    rng = random.Random("profile-sum")
    # z = 2 e^{-s/2} from 6e-7 to 4e4: the profile runs from O(1) down to
    # 1e-19134, so the weights cannot sit on one absolute fixed-point scale.
    points = [*CANCELLING_PROFILES, (0.5, -0.2, -10), (0.3 + 0.4j, 0, -20), (9 + 0.5j, -0.2, 30)]
    for _ in range(8):
        re, im = rng.uniform(-20, 20), rng.choice([0, rng.uniform(-0.6, 0.6)])
        points.append((complex(round(re, 3), round(im, 3)), 0, round(rng.uniform(-2, 3), 3)))
    return points


@pytest.mark.parametrize("target", [1e-5, 1e-10, 1e-12])
@pytest.mark.parametrize("mu1, mu2, s", _profile_points())
def test_profile_estimate_bounds_error_against_k_bessel(mu1, mu2, s, target):
    res = pair_profile(mu1, mu2, s, QuadratureConfig(target_rel_error=target))
    with mp.workprec(200):
        exact = 2 * mp.besselk(1j * (mp.mpc(mu1) - mp.mpc(mu2)), 2 * mp.exp(-mp.mpf(s) / 2))
        assert abs(res.value - exact) <= res.error


@pytest.mark.parametrize("mu1, mu2, s", [(0.5, -0.2, 0.6), (12, 0, 2.5), (-3.7, 6.1, -2)])
def test_profile_of_real_order_is_real(mu1, mu2, s):
    assert mp.im(pair_profile(mu1, mu2, s).value) == 0


@pytest.mark.parametrize("mu1, mu2, s", [*CANCELLING_PROFILES, (0.3 + 0.2j, -0.4 - 0.3j, 1.0),
                                         (0.5, -0.2, -10)])
def test_profile_holds_at_two_precisions(mu1, mu2, s):
    cfg = QuadratureConfig()
    low = pair_profile(mu1, mu2, s, cfg)
    high = pair_profile(mu1, mu2, s, QuadratureConfig(prec_bits=cfg.working_prec() + 64))
    with mp.workprec(300):
        assert abs(low.value - high.value) <= low.error + high.error


def test_profile_evaluates_each_weight_once(monkeypatch):
    # Every level's points are new, so the weights taken over a two-level
    # run are the level-1 lattice j h0 / 2, j = 0..2 steps, each once.
    calls = []
    fold_weights = whittaker._fold_weights

    def counting(z, h, first, stride, count, *rest):
        calls.append((h, first, stride, count))
        return fold_weights(z, h, first, stride, count, *rest)

    monkeypatch.setattr(whittaker, "_fold_weights", counting)
    res = pair_profile(0.5 + 0.1j, -0.2, 0.6)
    assert res.diagnostics["levels"] == 2
    finest = calls[-1][0]
    points = [int(h / finest) * (first + stride * i)
              for h, first, stride, count in calls for i in range(count)]
    assert sorted(points) == list(range(max(points) + 1))
