import ast
import pkgutil
import random
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from oracles import integrate_nd

import qwlab
from qwlab.baxter import TestFunction as CutoffFunction, _baxter_pair_integral, contour_apply
from qwlab.qcore import DomainError
from qwlab.quadrature import (
    GAUSS_LEGENDRE,
    QuadratureConfig,
    QuadratureError,
    _fixed_correlation,
    integrate_1d,
    nodes_1d,
    refine,
    trapezoid_refine,
)
from qwlab.whittaker import pair_profile, whittaker_eval


@pytest.fixture(params=[GAUSS_LEGENDRE])  # the one scheme value the config accepts
def cfg(request):
    return QuadratureConfig(scheme=request.param, target_rel_error=1e-12)


def test_gaussian_on_box(cfg):
    res = integrate_1d(lambda x: mp.exp(-(x**2)), -9, 9, cfg, 1)
    assert abs(res.value - mp.sqrt(mp.pi)) < mp.mpf("1e-12")


def test_two_dimensional_gaussian(cfg):
    res = integrate_nd(lambda p: mp.exp(-p[0] ** 2 - p[1] ** 2),
                       [(-8, 8), (-8, 8)], cfg)
    assert abs(res.value - mp.pi) < mp.mpf("1e-11")


def test_error_estimate_bounds_the_k_bessel_closed_form():
    # On the line, the integral of e^{-a e^x - b e^{-x}} e^{ix} is
    # 2 (b/a)^{i/2} K_i(2 sqrt(ab)); at a = 1/e, b = 1 the cosine part is
    # 2 Re(e^{i/2} K_i(2 e^{-1/2})), and the tails beyond +-10 are below e^{-8000}.
    f = lambda x: mp.exp(-mp.exp(x - 1) - mp.exp(-x)) * mp.cos(x)
    res = integrate_1d(f, -10, 10, QuadratureConfig(target_rel_error=1e-11), mp.pi / 4)
    with mp.workprec(128):
        exact = 2 * mp.re(mp.expj(mp.mpf(1) / 2) * mp.besselk(1j, 2 * mp.exp(-mp.mpf(1) / 2)))
        assert abs(res.value - exact) < res.error


def test_nonconvergence_raises():
    cfg = QuadratureConfig(target_rel_error=1e-30, max_depth=2)
    with pytest.raises(QuadratureError):
        integrate_1d(lambda x: 1 / mp.sqrt(abs(x) + mp.mpf("1e-18")), -1, 1, cfg, 1)


@settings(max_examples=60, deadline=None)
@given(lo=st.floats(-9, -0.01), hi=st.floats(0.01, 9), h0=st.floats(0.05, 2),
       k=st.integers(0, 4), aligned=st.booleans())
def test_levels_nest_into_one_lattice(lo, hi, h0, k, aligned):
    # Levels 0..k of nodes_1d give the h0 / 2^k lattice on [lo, hi], each
    # point once, whether or not the ends are lattice points.
    with mp.workprec(80):
        h = mp.mpf(h0) / 2**k
        if aligned:
            lo, hi = int(lo / h) * h, int(hi / h) * h
        union = [t for level in range(k + 1) for t in nodes_1d(level, lo, hi, h0)]
        lattice = [j * h for j in range(int(lo / h) - 2, int(hi / h) + 3) if lo <= j * h <= hi]
    assert len(set(union)) == len(union)
    assert sorted(union) == lattice
    if aligned:
        assert lattice[0] == lo and lattice[-1] == hi


@settings(max_examples=30, deadline=None)
@given(lo=st.floats(-9, -0.5), hi=st.floats(0.5, 9), h0=st.floats(0.05, 2))
def test_running_sum_is_the_direct_lattice_sum(lo, hi, h0):
    # Each level halves the last level's sum and adds its own points: at the
    # stop level k that is h0 / 2^k times the plain sum over the level-k
    # lattice, up to rounding.
    centre, width = (lo + hi) / 2, (hi - lo) / 10
    f = lambda t: mp.exp(-((t - centre) / width) ** 2)
    with mp.workprec(80):
        res = trapezoid_refine(lambda level: [f(t) for t in nodes_1d(level, lo, hi, h0)],
                               h0, QuadratureConfig(target_rel_error=1e-6), "toy")
        k = res.diagnostics["levels"] - 1
        points = [t for level in range(k + 1) for t in nodes_1d(level, lo, hi, h0)]
        direct = mp.mpf(h0) / 2**k * mp.fsum(f(t) for t in points)
        assert abs(res.value - direct) <= 4 * (k + 1) * mp.mpf(2) ** -80 * abs(direct)
        assert 0 < res.error


def test_estimate_counts_rounding_when_levels_agree():
    # Two levels that agree in every bit still report the sum's rounding.
    res = trapezoid_refine(lambda level: [mp.mpf(1)], 1, QuadratureConfig(), "constant")
    assert res.value == 1 and res.diagnostics == {"levels": 2}
    assert 0 < res.error <= 8 * mp.mpf(2) ** -mp.mp.prec


def test_bad_config_rejected():
    with pytest.raises(Exception):
        QuadratureConfig(scheme="simpson")
    with pytest.raises(Exception):
        QuadratureConfig(scheme="tanh-sinh")
    with pytest.raises(Exception):
        QuadratureConfig(box_halfwidth=-1)
    with pytest.raises(DomainError, match="precision must be >= 64 bits"):
        QuadratureConfig(prec_bits=10)


def test_refine_stops_at_first_agreeing_pair():
    half, tiny = mp.mpf(2) ** -12, mp.mpf(2) ** -24
    values = {2: mp.mpf(1), 3: mp.mpf(2), 4: mp.mpf("1.5"), 5: 1.5 + half,
              6: 1.5 + half + tiny}
    called = []

    def value_at(level):
        called.append(level)
        return values[level]

    res = refine(value_at, range(2, 7), QuadratureConfig(target_rel_error=1e-3), "toy")
    assert called == [2, 3, 4, 5]
    assert res.value == 1.5 + half
    assert res.error == half
    assert res.diagnostics == {"levels": 4}


def test_refine_raises_naming_the_label():
    called = []

    def value_at(level):
        called.append(level)
        return mp.mpf(-1) ** level

    with pytest.raises(QuadratureError, match=r"^toy sum did not converge \(last values"):
        refine(value_at, range(5), QuadratureConfig(), "toy sum")
    assert called == [0, 1, 2, 3, 4]


ONE_LEVEL = QuadratureConfig(target_rel_error=1e-5, max_depth=1)


def _spectral_pair_sum():
    prec = ONE_LEVEL.working_prec()
    with mp.workprec(prec):
        x = (mp.mpf("0.3"), mp.mpf("-0.3"))
        _baxter_pair_integral((0.2 - 0.5j, -0.1 - 0.6j), mp.mpf(1), x, -1, 1.1,
                              ONE_LEVEL, prec)


@pytest.mark.parametrize("label, run", [
    ("1-d quadrature", lambda: integrate_1d(lambda x: x, 0, 1, ONE_LEVEL, 1)),
    ("2-d quadrature", lambda: integrate_nd(lambda p: p[0] * p[1], [(0, 1), (0, 1)],
                                            ONE_LEVEL)),
    ("pattern quadrature", lambda: whittaker_eval(
        (0.5, 0.1, -0.2), (0.3, 0.0, -0.3), ONE_LEVEL)),
    ("contour quadrature", lambda: contour_apply(CutoffFunction("constant"), (0.3 - 0.2j,),
                                                 1, 1.0, ONE_LEVEL)),
    ("spectral quadrature", _spectral_pair_sum),
    ("profile sum", lambda: pair_profile(0.5, -0.2, 0.6, ONE_LEVEL)),
], ids=["1-d", "2-d", "pattern", "contour", "spectral", "profile"])
def test_every_refined_sum_needs_two_levels(label, run):
    with pytest.raises(QuadratureError, match=label):
        run()


def test_one_refinement_loop():
    # Every refined value in the lab stops by the same rule only if refine
    # is the one place that gives up, and every site reaches it through the
    # module-level import.
    src = Path(qwlab.__file__).parent
    raises = {}
    for info in pkgutil.iter_modules(qwlab.__path__):
        tree = ast.parse((src / f"{info.name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and "QuadratureError" in ast.unparse(node):
                raises[info.name] = raises.get(info.name, 0) + 1
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    assert not (isinstance(inner, ast.ImportFrom) and inner.level == 1
                                and inner.module == "quadrature"), \
                        f"{info.name}.py imports from .quadrature inside {node.name}"
    assert raises == {"quadrature": 1}


FIXED_POINT_HELPERS = ("_fixed_point", "_fixed_dot", "_fixed_correlation", "_real_correlation")


def test_one_fixed_point_copy():
    # The profile sums, the N = 3 row-2 correlations and the N = 2 spectral
    # pair sum scale, correlate and dot on integers through one copy of the
    # fixed-point helpers.
    src = Path(qwlab.__file__).parent
    defined = {}
    for info in pkgutil.iter_modules(qwlab.__path__):
        tree = ast.parse((src / f"{info.name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in FIXED_POINT_HELPERS:
                defined.setdefault(node.name, []).append(info.name)
    assert defined == {name: ["quadrature"] for name in FIXED_POINT_HELPERS}


def test_fixed_correlation_matches_direct_sums():
    # Every lag of two complex integer lists, exactly, including lists of
    # different lengths, signs, zeros and sizes from 1 to 300 bits.
    rng = random.Random(11)
    for bits in (1, 8, 64, 300):
        for nx, ny in ((1, 1), (5, 1), (1, 7), (17, 9), (40, 40)):
            x, y = ([[rng.randint(-2**bits, 2**bits) for _ in range(k)] for _ in range(2)]
                    for k in (nx, ny))
            re, im = _fixed_correlation(x, y)
            for lag in range(1 - ny, nx):
                pairs = [(j, j - lag) for j in range(nx) if 0 <= j - lag < ny]
                assert re[lag + ny - 1] == sum(x[0][j] * y[0][k] - x[1][j] * y[1][k]
                                               for j, k in pairs)
                assert im[lag + ny - 1] == sum(x[0][j] * y[1][k] + x[1][j] * y[0][k]
                                               for j, k in pairs)
    top = 2**64 - 1
    assert _fixed_correlation(([-top] * 30, [top] * 30), ([top] * 30, [0] * 30))[0][29] == \
        -30 * top * top
