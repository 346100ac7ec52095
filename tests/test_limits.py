import mpmath as mp
import pytest
from oracles import a_eps_corrected

from qwlab.limits import (
    ScalingPoint,
    convergence_sweep,
    eq_exp_limit_check,
    scaled_qwhittaker,
    scaling_map,
    sweep_rows_to_csv,
    term_limit_checks,
)
from qwlab.qcore import DomainError, qpoch_infinite, set_precision


def test_a_eps_corrected_tracks_euler_product():
    with set_precision(128):
        for eps in (0.2, 0.1, 0.05):
            q = mp.exp(-mp.mpf(eps))
            direct = mp.log(qpoch_infinite(q, q))
            # The asymptotic is off by eps/24 + O(eps^2).
            assert abs(a_eps_corrected(eps) - direct) < eps / 20


def test_scaling_map_symmetric_point():
    img = scaling_map(ScalingPoint(0.1, (0.0, 0.0), (0.5, -0.2)))
    assert img.lam == (23, -23)
    assert abs(img.lam_raw[0] - mp.mpf("23.02585093")) < mp.mpf("1e-6")
    assert abs(img.zeta + mp.mpf("0.01")) < mp.mpf("1e-15")
    assert abs(img.q - mp.exp(mp.mpf("-0.1"))) < mp.mpf("1e-15")


def test_scaling_map_single_variable_kills_log_term():
    img = scaling_map(ScalingPoint(0.25, (0.0,), (0.7,)))
    assert img.lam == (0,)
    assert abs(img.zeta + 0.25) < mp.mpf("1e-20")


def test_scaling_map_rejects_disordered():
    with pytest.raises(DomainError):
        scaling_map(ScalingPoint(0.1, (-3.0, 3.0), (0.1, 0.2)))


def test_scaled_single_variable_closed_form():
    p = ScalingPoint(0.1, (0.3,), (0.5,), prec_bits=128)
    val = scaled_qwhittaker(p)
    with set_precision(128):
        # the point carries double-precision 0.1, so compare in that binary value
        expect = mp.exp(1j * mp.mpf(0.5) * mp.mpf(0.1) * 3)
        assert abs(val - expect) < mp.mpf("1e-30")


def test_scaled_shift_consistency():
    # Shifting lambda by (1,1) against dividing by z1 z2 is a wash.
    from qwlab.symfunc import qwhittaker_branch_eval

    with set_precision(192):
        img = scaling_map(ScalingPoint(0.1, (0.2, -0.2), (0.5, -0.2), prec_bits=192))
        base = qwhittaker_branch_eval(img.lam, img.z, img.q)
        up = qwhittaker_branch_eval(tuple(v + 1 for v in img.lam), img.z, img.q)
        prod = img.z[0] * img.z[1]
        assert abs(up - prod * base) / abs(up) < mp.mpf(2) ** -150


def test_precision_doubling_stability():
    p256 = ScalingPoint(0.1, (0.3, -0.3), (0.5, -0.2), prec_bits=256)
    p512 = ScalingPoint(0.1, (0.3, -0.3), (0.5, -0.2), prec_bits=512)
    v1 = scaled_qwhittaker(p256)
    v2 = scaled_qwhittaker(p512)
    assert abs(v1 - v2) / abs(v2) < mp.mpf("1e-10")


def test_eq_exp_ladder_decreases():
    rep = eq_exp_limit_check((0.4, 0.2, 0.1, 0.05), 1.0, 0.0)
    assert rep.passed
    errs = [row["abs_err"] for row in rep.diagnostics["rows"]]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_eq_exp_small_u_trivializes():
    rep = eq_exp_limit_check((0.4, 0.2), 1e-12, 0.0)
    # Both sides are 1 + O(u); errors are tiny at every epsilon.
    assert max(row["abs_err"] for row in rep.diagnostics["rows"]) < mp.mpf("1e-11")


def test_eq_exp_large_x_trivializes():
    rep = eq_exp_limit_check((0.4, 0.2), 1.0, 30.0)
    assert max(row["abs_err"] for row in rep.diagnostics["rows"]) < mp.mpf("1e-11")


def test_eq_exp_last_rung_must_be_within_epsilon():
    # u = 30: the error falls from rung to rung, but the last rung is
    # 7.8e5 relative to e^{-30}; the first-order limit allows 0.2.
    rep = eq_exp_limit_check((0.4, 0.2), 30.0, 0.0)
    errs = [row["abs_err"] for row in rep.diagnostics["rows"]]
    assert errs[1] < errs[0]
    assert rep.rel_err > 1e5
    assert not rep.passed
    for ladder, u, x_n in (((0.4, 0.2), 1e-12, 0.0), ((0.4, 0.2), 1.0, 30.0)):
        assert eq_exp_limit_check(ladder, u, x_n).passed


def test_eq_exp_requires_decreasing_ladder():
    with pytest.raises(DomainError):
        eq_exp_limit_check((0.1, 0.2), 1.0, 0.0)


@pytest.mark.parametrize("ladder", [(0.4, 0.0), (1.5, 0.2), (0.4, -0.1)])
def test_ladders_reject_epsilon_outside_unit_interval(ladder):
    with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1\)"):
        eq_exp_limit_check(ladder, 1.0, 0.0)
    with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1\)"):
        term_limit_checks(ladder, (1, 0), (0.5, -0.2))


def test_term_limits_zero_shift_is_exact():
    rep = term_limit_checks((0.4, 0.2), (0, 0), (0.5, -0.2))
    assert rep.passed
    assert rep.abs_err == 0


def test_term_limits_ladders():
    rep = term_limit_checks((0.2, 0.1, 0.05), (1, 0), (0.5, -0.2))
    assert rep.passed
    rep = term_limit_checks((0.2, 0.1, 0.05), (2, 1), (1.0, mp.mpc(-1, 0.3)))
    assert rep.passed


def test_term_limits_rejects_equal_w():
    with pytest.raises(DomainError):
        term_limit_checks((0.2, 0.1), (1, 0), (0.5, 0.5))


def test_sweep_single_variable():
    rep, rows = convergence_sweep((0.4, 0.2, 0.1, 0.05), (0.3,), (0.5,),
                                  prec_bits=128)
    assert rep.passed  # rounding hits x exactly from eps = 0.1 on
    assert rows[-1][3] < rows[0][3] / 2


def test_sweep_pair_canonical_point():
    rep, rows = convergence_sweep((0.4, 0.2, 0.1), (0.1, -0.1), (0.5, -0.2),
                                  prec_bits=192)
    assert rep.passed
    assert rep.diagnostics["strictly_decreasing"]


def test_sweep_csv_shape():
    rep, rows = convergence_sweep((0.4, 0.2), (0.3,), (0.5,), prec_bits=128)
    csv = sweep_rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "epsilon,re_value,im_value,re_target,im_target,abs_err"
    assert len(lines) == 3
