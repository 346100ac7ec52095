import ast
import pkgutil
from pathlib import Path

import mpmath as mp
import pytest

import qwlab
from qwlab.baxter import _baxter_pair_integral, contour_apply
from qwlab.quadrature import (
    GAUSS_LEGENDRE,
    QuadratureConfig,
    QuadratureError,
    gauss_legendre_rule,
    integrate_1d,
    integrate_nd,
    refine,
)
from qwlab.whittaker import whittaker_eval


@pytest.fixture(params=[GAUSS_LEGENDRE])  # the param names the rule in the test ids
def cfg():
    return QuadratureConfig(target_rel_error=1e-12)


def test_polynomial(cfg):
    res = integrate_1d(lambda x: x**2, 0, 1, cfg)
    assert abs(res.value - mp.mpf(1) / 3) < mp.mpf("1e-12")
    assert res.error < mp.mpf("1e-12")


def test_gaussian_on_box(cfg):
    res = integrate_1d(lambda x: mp.exp(-(x**2)), -9, 9, cfg)
    assert abs(res.value - mp.sqrt(mp.pi)) < mp.mpf("1e-12")


def test_oscillatory(cfg):
    res = integrate_1d(lambda x: mp.cos(5 * x), 0, 2, cfg)
    assert abs(res.value - mp.sin(mp.mpf(10)) / 5) < mp.mpf("1e-11")


def test_two_dimensional_gaussian(cfg):
    res = integrate_nd(lambda p: mp.exp(-p[0] ** 2 - p[1] ** 2),
                       [(-8, 8), (-8, 8)], cfg)
    assert abs(res.value - mp.pi) < mp.mpf("1e-11")


def test_error_estimate_bounds_the_k_bessel_closed_form():
    # On the line, the integral of e^{-a e^x - b e^{-x}} e^{ix} is
    # 2 (b/a)^{i/2} K_i(2 sqrt(ab)); at a = 1/e, b = 1 the cosine part is
    # 2 Re(e^{i/2} K_i(2 e^{-1/2})), and the tails beyond +-10 are below e^{-8000}.
    f = lambda x: mp.exp(-mp.exp(x - 1) - mp.exp(-x)) * mp.cos(x)
    res = integrate_1d(f, -10, 10, QuadratureConfig(target_rel_error=1e-11))
    with mp.workprec(128):
        exact = 2 * mp.re(mp.expj(mp.mpf(1) / 2) * mp.besselk(1j, 2 * mp.exp(-mp.mpf(1) / 2)))
        assert abs(res.value - exact) < res.error


def test_gauss_legendre_rule_exactness():
    # 12-point rule integrates degree-23 monomials exactly.
    rule = gauss_legendre_rule(12, 80)
    with mp.workprec(80):
        val = sum(w * x**22 for x, w in rule)
        assert abs(val - mp.mpf(2) / 23) < mp.mpf(2) ** (-70)


def test_nonconvergence_raises():
    cfg = QuadratureConfig(target_rel_error=1e-30, max_depth=2)
    with pytest.raises(QuadratureError):
        integrate_1d(lambda x: 1 / mp.sqrt(abs(x) + mp.mpf("1e-18")), -1, 1, cfg)


def test_bad_config_rejected():
    with pytest.raises(Exception):
        QuadratureConfig(scheme="simpson")
    with pytest.raises(Exception):
        QuadratureConfig(scheme="tanh-sinh")
    with pytest.raises(Exception):
        QuadratureConfig(box_halfwidth=-1)


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
    ("1-d quadrature", lambda: integrate_1d(lambda x: x, 0, 1, ONE_LEVEL)),
    ("2-d quadrature", lambda: integrate_nd(lambda p: p[0] * p[1], [(0, 1), (0, 1)],
                                            ONE_LEVEL)),
    ("pattern quadrature", lambda: whittaker_eval(
        (0.5, 0.1, -0.2), (0.3, 0.0, -0.3), ONE_LEVEL)),
    ("contour quadrature", lambda: contour_apply(lambda v: 1, (0.3 - 0.2j,), 1, 1.0,
                                                 ONE_LEVEL)),
    ("spectral quadrature", _spectral_pair_sum),
], ids=["1-d", "2-d", "pattern", "contour", "spectral"])
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
