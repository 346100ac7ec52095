"""The acceptance ladder: every headline check at its stated tolerance.

Each criterion function returns a list of VerificationReports; a criterion
passes when every report in it does.  `--quick` shrinks grids and sample
counts but keeps every code path alive.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import mpmath as mp

from .baxter import (
    TestFunction,
    baxter_eigen_check,
    contour_apply,
    gamma_identity_check,
    kappa_parity,
    lemma1_check,
    residue_apply,
)
from .gamma import gamma_c
from .limits import (
    convergence_sweep,
    eq_exp_limit_check,
    term_limit_checks,
)
from .noumi import verify_noumi
from .quadrature import QuadratureConfig
from .report import VerificationReport, comparison_report, relative_error
from .sampling import distinct_rationals, unit_interval_rational
from .symfunc import (
    eval_symmetric,
    macdonald_gram_schmidt,
    macdonald_triangular_eigen,
    partitions_of,
    qwhittaker_branch_eval,
    weight,
)
from .whittaker import stade_check, whittaker_eval


def _grid_partitions(max_weight: int):
    for n in range(max_weight + 1):
        yield from partitions_of(n)


def criterion_1_noumi_eigenrelation(quick: bool = False) -> list:
    """Exact-zero residuals for the q-integral operator eigenrelation."""
    max_weight = 2 if quick else 4
    ns = (1, 2) if quick else (1, 2, 3)
    order = 3 if quick else 4
    samples = 2 if quick else 5
    reports = []
    for lam in _grid_partitions(max_weight):
        for n in ns:
            if len(lam) > n:
                continue  # P_lambda vanishes identically in fewer variables
            seed = 1000 + 7 * weight(lam) + sum(i * p for i, p in enumerate(lam, 1)) + n
            reports.append(verify_noumi(lam, n, order=order, samples=samples, seed=seed))
    return reports


def criterion_2_macdonald_cross_validation(quick: bool = False) -> list:
    """Gram-Schmidt vs difference-operator eigenvector vs t=0 branching."""
    max_weight = 2 if quick else 4
    ns = (1, 2) if quick else (1, 2, 3)
    samples = 2 if quick else 5
    reports = []
    for lam in _grid_partitions(max_weight):
        for n in ns:
            if len(lam) > n:
                continue
            rng = random.Random(4200 + 13 * weight(lam) + n + len(lam))
            agree = True
            diag = {"cases": 0}
            for _ in range(samples):
                q = unit_interval_rational(rng)
                t = unit_interval_rational(rng)
                gs = macdonald_gram_schmidt(lam, q, t, nvars=n)
                eig = macdonald_triangular_eigen(lam, n, q, t)
                agree = agree and gs.terms == eig.terms
                z = distinct_rationals(rng, n)
                gs0 = macdonald_gram_schmidt(lam, q, Fraction(0), nvars=n)
                branch = qwhittaker_branch_eval(lam + (0,) * (n - len(lam)), z, q)
                agree = agree and branch == eval_symmetric(gs0, z)
                diag["cases"] += 1
            reports.append(VerificationReport(
                check_id="macdonald-construction-agreement",
                params={"lambda": list(lam), "n": n, "samples": samples},
                lhs="gram-schmidt",
                rhs="difference-eigenvector / branching",
                abs_err=Fraction(0) if agree else Fraction(1),
                rel_err=Fraction(0) if agree else Fraction(1),
                tolerance=Fraction(0),
                passed=agree,
                seed=4200 + 13 * weight(lam) + n + len(lam),
                diagnostics=diag,
            ))
    return reports


def _gamma_identity_batch(n: int, rng: random.Random, nu_max: int,
                          samples: int, tolerance: float) -> VerificationReport:
    """All nu in {0..nu_max}^n against `samples` random r draws, with the
    Gamma values built once per draw by recurrence from Gamma(d_ij), one
    ladder per ordered pair.

    A random subsample is cross-checked against gamma_identity_check to
    guard the batched tables themselves.
    """
    worst = mp.mpf(0)
    checked = 0
    cross_checked = 0
    for _ in range(samples):
        r = tuple(
            mp.mpc(rng.uniform(-2, 2) + k * 0.7, rng.uniform(-1.5, 1.5))
            for k in range(n)
        )
        # ladder[(i, j)][k] = Gamma(d_ij + k), d_ij = r_j - r_i, for k in
        # -nu_max..nu_max + 1: one gamma_c call per ordered pair, then
        # Gamma(z + 1) = z Gamma(z) up and down.
        ladder = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = r[j] - r[i]
                up = down = gamma_c(d)
                rungs = {0: up}
                for k in range(nu_max + 1):
                    up = up * (d + k)
                    rungs[k + 1] = up
                for k in range(1, nu_max + 1):
                    down = down / (d - k)
                    rungs[-k] = down
                ladder[(i, j)] = rungs

        def assemble(nu):
            lhs = mp.mpc(1)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        # Gamma(d_ij - nu_j) / Gamma(d_ji + nu_j - nu_i)
                        lhs *= ladder[(i, j)][-nu[j]]
                        lhs /= ladder[(j, i)][nu[j] - nu[i]]
            rhs = mp.mpc(1)
            for i in range(n):
                for j in range(i + 1, n):
                    d = r[j] - r[i]
                    rhs *= (d - nu[j] + nu[i]) / d
                    rhs *= ladder[(j, i)][1] * ladder[(i, j)][1]
                    rhs /= ladder[(j, i)][1 + nu[j]] * ladder[(i, j)][1 + nu[i]]
            return lhs, rhs

        for nu in itertools.product(range(nu_max + 1), repeat=n):
            lhs, rhs = assemble(nu)
            worst = max(worst, relative_error(lhs, rhs))
            checked += 1
            if rng.random() < 0.01:
                rep = gamma_identity_check(r, nu, tolerance)
                if relative_error(lhs, rep.lhs) > 1e-15 or relative_error(rhs, rep.rhs) > 1e-15:
                    raise AssertionError("batched Gamma tables disagree with the direct check")
                cross_checked += 1
    return VerificationReport(
        check_id="gamma-ratio-identity-grid",
        params={"n": n, "nu_max": nu_max, "samples": samples},
        lhs="recurrence-assembled ratio product",
        rhs="reflection-formula product",
        abs_err=worst,
        rel_err=worst,
        tolerance=tolerance,
        passed=bool(worst <= tolerance),
        diagnostics={"cases": checked, "cross_checked": cross_checked},
    )


def criterion_3_gamma_identity(quick: bool = False) -> list:
    ns = (2, 3) if quick else (1, 2, 3, 4)
    samples = 3 if quick else 10
    tolerance = 1e-10
    reports = []
    with mp.workprec(100):
        rng = random.Random(9000)
        for n in ns:
            # Ladder arguments hit Gamma poles only at integer real parts;
            # the sampler keeps Im(r) generic so ladders stay finite.
            reports.append(_gamma_identity_batch(n, rng, 3, samples, tolerance))
        # kappa parity on random shift vectors
        ok = True
        for _ in range(100):
            ln = rng.randint(1, 5)
            nu = tuple(rng.randint(0, 9) for _ in range(ln))
            kappa = kappa_parity(nu)
            ok = ok and kappa % 2 == 0
        reports.append(VerificationReport(
            check_id="kappa-parity",
            params={"samples": 100, "max_len": 5},
            lhs="double-sum form",
            rhs="closed form",
            abs_err=0,
            rel_err=0,
            tolerance=0,
            passed=ok,
            seed=9000,
        ))
    return reports


def criterion_4_residue_vs_contour(quick: bool = False) -> list:
    reports = []
    with mp.workprec(100):
        one = TestFunction("constant")
        w1 = (mp.mpc(0, -0.5),)
        res = residue_apply(one, w1, -1.0, cap=30)
        con = contour_apply(one, w1, 1.0, 1.0)
        target = mp.exp(mp.mpf(-1))
        reports.append(comparison_report(
            "baxter-residue-closed-form", {"n": 1, "u": 1.0}, res.value, target,
            tolerance=1e-10, diagnostics={"tail": res.error}))
        reports.append(comparison_report(
            "baxter-contour-closed-form", {"n": 1, "u": 1.0, "a": 1.0}, con.value,
            target, tolerance=1e-10, diagnostics={"quad_error": con.error}))
        if not quick:
            pole = TestFunction("product-pole", b=3.0)
            w2 = (mp.mpc(0, -0.5), mp.mpc(1, -0.6))
            w3 = (mp.mpc(0, -0.5), mp.mpc(0.5, -0.4), mp.mpc(1, -0.3))
            cfg = QuadratureConfig(target_rel_error=1e-8)
            for w in (w2, w3):
                reports.append(lemma1_check(pole, w, 1.0, 1.0, cap=40, cfg=cfg))
    return reports


def criterion_5_stade(quick: bool = False) -> list:
    reports = [
        stade_check(1.0, (0.7,), (0.6,), "first"),
        stade_check(1.0, (0.7,), (0.6,), "second"),
    ]
    if not quick:
        reports.append(stade_check(1.0, (0.5, 0.2), (0.4, 0.3), "first"))
        reports.append(stade_check(1.0, (0.5, 0.2), (0.4, 0.3), "second"))
    return reports


def criterion_6_baxter_eigenrelation(quick: bool = False) -> list:
    w1 = (mp.mpc(0.3, -0.4),)
    reports = [
        baxter_eigen_check(w1, 1.0, (0.2,), "second"),
        baxter_eigen_check(w1, 1.0, (0.2,), "first"),
    ]
    if not quick:
        w2 = (mp.mpc(0.2, -0.5), mp.mpc(-0.1, -0.6))
        x2 = (0.3, -0.3)
        reports.append(baxter_eigen_check(w2, 1.0, x2, "second"))
        reports.append(baxter_eigen_check(w2, 1.0, x2, "first"))
    return reports


def criterion_7_scaling_limits(quick: bool = False) -> list:
    ladder = (0.4, 0.2, 0.1) if quick else (0.4, 0.2, 0.1, 0.05)
    prec = 128 if quick else 256
    reports = [
        eq_exp_limit_check(ladder, 1.0, 0.0),
        term_limit_checks(ladder, (1, 0), (0.5, -0.2)),
        term_limit_checks(ladder, (2, 1), (1.0, mp.mpc(-1, 0.3))),
    ]
    sweep_report, _rows = convergence_sweep(ladder, (0.1, -0.1), (0.5, -0.2),
                                            prec_bits=prec)
    # The acceptance ladder demands strict decrease on top of the factor-2
    # contract of the sweep itself.
    strict = sweep_report.diagnostics["strictly_decreasing"]
    sweep_report.passed = bool(sweep_report.passed and strict)
    reports.append(sweep_report)
    return reports


def criterion_8_analytic_infrastructure(quick: bool = False) -> list:
    reports = []
    with mp.workprec(120):
        rng = random.Random(88)
        count = 10 if quick else 50
        worst = mp.mpf(0)
        for _ in range(count):
            z = mp.mpc(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(z.imag) < 0.05:
                z += 0.3j
            lhs = gamma_c(z) * gamma_c(1 - z) * mp.sinpi(z) / mp.pi
            worst = max(worst, abs(lhs - 1))
        reports.append(VerificationReport(
            check_id="euler-reflection",
            params={"samples": count},
            lhs="Gamma(z) Gamma(1-z) sin(pi z)/pi",
            rhs=1,
            abs_err=worst,
            rel_err=worst,
            tolerance=1e-12,
            passed=bool(worst <= 1e-12),
            seed=88,
        ))
        # |Gamma| decay bracket on a grid of the vertical strip
        ratios = []
        for re10 in range(10, 21, 2):
            for im in (5, 9, 15, 25, 40, 50):
                z = mp.mpc(re10 / 10, im)
                ratio = abs(gamma_c(z)) * mp.exp(mp.pi * im / 2) * mp.mpf(im) ** (
                    mp.mpf("0.5") - z.real)
                ratios.append(ratio)
        c1, c2 = min(ratios), max(ratios)
        reports.append(VerificationReport(
            check_id="gamma-decay-bracket",
            params={"re_range": [1, 2], "im_range": [5, 50]},
            lhs=c1,
            rhs=c2,
            abs_err=c2 - c1,
            rel_err=c2 / c1 - 1,
            tolerance="c2/c1 < 2",
            passed=bool(c2 / c1 < 2),
            diagnostics={"c1": c1, "c2": c2},
        ))
    cfg = QuadratureConfig(target_rel_error=1e-9)
    # N = 2: psi_lam(x) against its K-Bessel closed form, at twice the
    # working precision so that the comparison sees the sum's own error.
    lam, x = (0.5, -0.2), (0.3, -0.3)
    psi = whittaker_eval(lam, x, cfg)
    with mp.workprec(2 * cfg.working_prec()):
        l1, l2 = (mp.mpf(v) for v in lam)
        x1, x2 = (mp.mpf(v) for v in x)
        closed = (mp.exp(1j * (l1 + l2) * (x1 + x2) / 2)
                  * 2 * mp.besselk(1j * (l1 - l2), 2 * mp.exp(-(x1 - x2) / 2)))
    reports.append(comparison_report(
        "whittaker-k-bessel", {"lam": list(lam), "x": list(x), "n": 2},
        psi.value, closed, tolerance=1e-8, diagnostics={"quad_error": psi.error}))
    if not quick:
        # N = 3: psi_lam is symmetric in lam; a permuted lam runs a different sum.
        lam, x = (0.5, 0.1, -0.4), (0.4, 0.0, -0.4)
        direct = whittaker_eval(lam, x, cfg)
        other = whittaker_eval((0.1, -0.4, 0.5), x, cfg)
        reports.append(comparison_report(
            "whittaker-weyl-permutation", {"lam": list(lam), "x": list(x), "n": 3},
            direct.value, other.value, tolerance=1e-8,
            diagnostics={"quad_error": direct.error}))
    return reports


CRITERIA = (
    ("noumi-eigenrelation-exact", criterion_1_noumi_eigenrelation),
    ("macdonald-cross-validation", criterion_2_macdonald_cross_validation),
    ("gamma-identity-and-parity", criterion_3_gamma_identity),
    ("residue-vs-contour", criterion_4_residue_vs_contour),
    ("stade-identities", criterion_5_stade),
    ("dual-baxter-eigenrelation", criterion_6_baxter_eigenrelation),
    ("scaling-limits", criterion_7_scaling_limits),
    ("analytic-infrastructure", criterion_8_analytic_infrastructure),
)


def run_criterion(index: int, quick: bool = False):
    """Run one criterion (1-based); returns (name, reports, passed, seconds)."""
    name, fn = CRITERIA[index - 1]
    start = time.perf_counter()
    reports = fn(quick=quick)
    elapsed = time.perf_counter() - start
    passed = all(r.passed for r in reports)
    return name, reports, passed, elapsed
