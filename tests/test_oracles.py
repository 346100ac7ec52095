"""The composite Gauss-Legendre oracle on generic finite intervals: the
independent rule that `integrate_nd` and `gauss_legendre_pattern_3` sum
by, checked on integrands the package's trapezoid lattice is not for."""

import mpmath as mp
from oracles import gauss_legendre_rule, integrate_nd

from qwlab.quadrature import QuadratureConfig

CFG = QuadratureConfig(target_rel_error=1e-12)


def test_polynomial():
    res = integrate_nd(lambda p: p[0] ** 2, [(0, 1)], CFG)
    assert abs(res.value - mp.mpf(1) / 3) < mp.mpf("1e-12")
    assert res.error < mp.mpf("1e-12")


def test_oscillatory():
    res = integrate_nd(lambda p: mp.cos(5 * p[0]), [(0, 2)], CFG)
    assert abs(res.value - mp.sin(mp.mpf(10)) / 5) < mp.mpf("1e-11")


def test_gauss_legendre_rule_exactness():
    # 12-point rule integrates degree-23 monomials exactly.
    rule = gauss_legendre_rule(80)
    with mp.workprec(80):
        val = sum(w * x**22 for x, w in rule)
        assert abs(val - mp.mpf(2) / 23) < mp.mpf(2) ** (-70)
