"""The q-integral operator of Noumi type and its Macdonald eigenrelation.

The operator is a formal power series in zeta whose zeta^k coefficient acts
on a function of (z_1, ..., z_N) as a weighted sum over shift multi-indices
nu with |nu| = k:

    coeff(nu; z) = prod_{i<j} (q^{nu_i} z_i - q^{nu_j} z_j)/(z_i - z_j)
                 * prod_{i,j} (t z_i/z_j; q)_{nu_i} / (q z_i/z_j; q)_{nu_i}

applied to f(q^{nu_1} z_1, ..., q^{nu_N} z_N).  On a Macdonald polynomial
the series collapses to an explicit q-Pochhammer ratio eigenvalue, and the
identity holds coefficientwise in exact rational arithmetic; the checks
here demand exact zeros.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from .qcore import (
    DomainError,
    ZetaSeries,
    compositions_of_weight,
    qbinomial_ratio_series,
    qpoch_finite,
)
from .report import VerificationReport
from .sampling import distinct_rationals, unit_interval_rational
from .symfunc import (
    check_partition,
    d1_apply_point,
    d1_eigenvalue,
    eval_symmetric,
    macdonald_gram_schmidt,
)


def noumi_coeff(nu: Sequence[int], z: Sequence, q, t):
    """The scalar weight multiplying f(q^nu . z) in the zeta^{|nu|} term."""
    nu = tuple(nu)
    z = tuple(z)
    n = len(z)
    if len(nu) != n:
        raise DomainError("shift index and point must have the same length")
    if any(v < 0 for v in nu):
        raise DomainError("shift indices must be non-negative")
    one = z[0] * 0 + q * 0 + t * 0 + 1
    qpow = [q**v if v else one for v in nu]
    cross = one
    for i in range(n):
        for j in range(i + 1, n):
            den = z[i] - z[j]
            if den == 0:
                raise DomainError("coincident coordinates hit a cross-ratio pole")
            cross = cross * (qpow[i] * z[i] - qpow[j] * z[j]) / den
    poch = one
    for i in range(n):
        if nu[i] == 0:
            continue
        for j in range(n):
            if z[j] == 0:
                raise DomainError("zero coordinate in Pochhammer ratio")
            ratio = z[i] / z[j]
            num = qpoch_finite(t * ratio, q, nu[i])
            den = qpoch_finite(q * ratio, q, nu[i])
            if den == 0:
                raise DomainError("Pochhammer denominator vanished (non-generic z)")
            poch = poch * num / den
    return cross * poch


def apply_noumi(f_eval: Callable, z: Sequence, q, t, order: int) -> ZetaSeries:
    """Apply the operator to a point-evaluator f_eval, through zeta^order.

    The zeta^k coefficient is the sum over |nu| = k of
    noumi_coeff(nu, z, q, t) * f_eval(q^{nu_1} z_1, ..., q^{nu_N} z_N),
    accumulated in lexicographic nu order so results are reproducible.
    """
    z = tuple(z)
    n = len(z)
    zero = z[0] * 0 + q * 0 + t * 0
    coeffs = []
    for k in range(order + 1):
        acc = zero
        for nu in compositions_of_weight(k, n):
            shifted = tuple(z[i] * q ** nu[i] for i in range(n))
            acc = acc + noumi_coeff(nu, z, q, t) * f_eval(shifted)
        coeffs.append(acc)
    return ZetaSeries(tuple(coeffs))


def noumi_eigenvalue_series(sig: Sequence[int], n: int, q, t, order: int) -> ZetaSeries:
    """prod_i (q^{sig_i} t^{n+1-i} zeta; q)_inf / (q^{sig_i} t^{n-i} zeta; q)_inf
    as a zeta-series through the given order."""
    sig = tuple(sig)
    if len(sig) > n:
        raise DomainError("signature longer than the variable count")
    sig = sig + (0,) * (n - len(sig))
    one = q * 0 + t * 0 + 1
    series = ZetaSeries.one(order, one)
    for i in range(1, n + 1):
        a = q ** sig[i - 1] * t ** (n + 1 - i)
        b = q ** sig[i - 1] * t ** (n - i)
        series = series * qbinomial_ratio_series(a, b, q, order)
    return series


def _generic_point(rng: random.Random, n: int, q: Fraction, order: int) -> tuple:
    """Distinct nonzero rationals avoiding z_i q^m = z_j for 1 <= m <= order."""
    for _ in range(10000):
        z = distinct_rationals(rng, n)
        ok = True
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for m in range(1, order + 1):
                    if z[i] * q**m == z[j]:
                        ok = False
        if ok:
            return z
    raise DomainError("could not sample a pole-free point")


def verify_noumi(lam, n: int, q=None, t=None, order: int = 4,
                 samples: int = 5, seed: int = 0) -> VerificationReport:
    """Check the eigenrelation coefficientwise, exactly, at sampled points.

    When q or t is None, each sample draws fresh rational parameters in
    (0,1); otherwise the given exact values are used for every sample.
    """
    lam = check_partition(lam)
    if n < 1:
        raise DomainError(f"need at least one variable, got n = {n}")
    if len(lam) > n:
        raise DomainError(f"lambda = {lam} needs at least {len(lam)} variables")
    rng = random.Random(seed)
    sample_records = []
    all_residuals_zero = True
    worst = Fraction(0)
    for s in range(samples):
        qs = Fraction(q) if q is not None else unit_interval_rational(rng)
        ts = Fraction(t) if t is not None else unit_interval_rational(rng)
        z = _generic_point(rng, n, qs, order)
        poly = macdonald_gram_schmidt(lam, qs, ts, nvars=n)
        lhs = apply_noumi(lambda pt: eval_symmetric(poly, pt), z, qs, ts, order)
        eig = noumi_eigenvalue_series(lam, n, qs, ts, order)
        rhs = eig.scale(eval_symmetric(poly, z))
        residuals = [a - b for a, b in zip(lhs.coeffs, rhs.coeffs)]
        zero_here = all(r == 0 for r in residuals)
        all_residuals_zero = all_residuals_zero and zero_here
        worst = max(worst, max(abs(r) for r in residuals))
        sample_records.append({
            "q": qs,
            "t": ts,
            "z": list(z),
            "residuals": residuals,
            "exact_zero": zero_here,
        })
    return VerificationReport(
        check_id="noumi-eigenrelation",
        params={"lambda": list(lam), "n": n, "order": order, "samples": samples},
        lhs="operator series",
        rhs="eigenvalue series x P(z)",
        abs_err=worst,
        rel_err=worst,
        tolerance=Fraction(0),
        passed=all_residuals_zero,
        seed=seed,
        diagnostics={"samples": sample_records},
    )


def macdonald_d1_check(lam, n: int, q=None, t=None, samples: int = 5,
                       seed: int = 0) -> VerificationReport:
    """Check D1 P_lambda = (sum_i q^{lambda_i} t^{n-i}) P_lambda exactly."""
    lam = check_partition(lam)
    if n < 1:
        raise DomainError(f"need at least one variable, got n = {n}")
    rng = random.Random(seed)
    records = []
    ok = True
    worst = Fraction(0)
    for s in range(samples):
        qs = Fraction(q) if q is not None else unit_interval_rational(rng)
        ts = Fraction(t) if t is not None else unit_interval_rational(rng)
        z = distinct_rationals(rng, n)
        poly = macdonald_gram_schmidt(lam, qs, ts, nvars=n)
        lhs = d1_apply_point(poly, z, qs, ts)
        rhs = d1_eigenvalue(lam, n, qs, ts) * eval_symmetric(poly, z)
        diff = lhs - rhs
        ok = ok and diff == 0
        worst = max(worst, abs(diff))
        records.append({"q": qs, "t": ts, "z": list(z), "residual": diff})
    return VerificationReport(
        check_id="macdonald-d1-eigenrelation",
        params={"lambda": list(lam), "n": n, "samples": samples},
        lhs="D1 P(z)",
        rhs="eigenvalue x P(z)",
        abs_err=worst,
        rel_err=worst,
        tolerance=Fraction(0),
        passed=ok,
        seed=seed,
        diagnostics={"samples": records},
    )
