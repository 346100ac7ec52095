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

z, q and t must be exact rationals (int or Fraction), and the sums run on
integers.  With z_i = a_i/b_i and q = c/e the weight is

    coeff(nu; z) = cross(nu) prod_i P_i(nu_i) / (G prod_i D_i e^{(N-1)|nu|}):

the cross product is cross(nu) / (G e^{(N-1)|nu|}) with
cross(nu) = prod_{i<j} (c^{nu_i} e^{nu_j} a_i b_j - c^{nu_j} e^{nu_i} a_j b_i)
and G = prod_{i<j} (a_i b_j - a_j b_i), and the Pochhammer weights
w_i(m) = prod_j (t z_i/z_j; q)_m / (q z_i/z_j; q)_m = P_i(m) / D_i are built
once per point, each i's over one denominator D_i.  The values f(q^nu z) of
every shift come from one call of the shifted-monomial kernel
(`symfunc._scaled_monomials`) per point, over the scale prod_i b_i^d e^{|nu| d},
so the compositions of one order share one denominator and each zeta^k
coefficient is one integer sum and one Fraction.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .qcore import (
    DomainError,
    ZetaSeries,
    compositions_of_weight,
    qbinomial_ratio_series,
    qpoch_finite,
    rational_parts,
)
from .report import VerificationReport
from .sampling import distinct_rationals, unit_interval_rational
from .symfunc import (
    SymmetricPolynomial,
    _scaled_values,
    check_partition,
    d1_apply_point,
    d1_eigenvalue,
    eval_symmetric,
    macdonald_gram_schmidt,
)


def _qq_table(q, order: int) -> list:
    """[(q;q)_m for m = 1..order].  (q;q)_m is the j = i factor of the
    denominator of every w_i(m), whatever the point, so a q at which it
    vanishes (q = 1, or q = -1 from m = 2 on) is rejected by name."""
    table = []
    for m in range(1, order + 1):
        qq = qpoch_finite(q, q, m)
        if qq == 0:
            raise DomainError(f"(q;q)_{m} = 0 at q = {q}: the operator's weights of "
                              f"order {m} and above have no value at any point")
        table.append(qq)
    return table


def _weight_pieces(z: tuple, q, t, orders: tuple) -> tuple:
    """The per-point integer pieces of coeff(nu; z) for every nu with
    nu_i <= orders[i] (the module docstring's formula): returns (cross, P, den)
    with cross a function of nu, P[i][m] = P_i(m) for m <= orders[i] and
    den = G prod_i D_i.

    The j = i factor (t;q)_m / (q;q)_m of w_i(m) is the same for every i, so
    a point takes at most 2 order + 2 N (N - 1) order Pochhammer symbols,
    order = max(orders)."""
    n = len(z)
    order = max(orders, default=0)
    nums, dens = rational_parts(z)
    (c, _), (e, _) = rational_parts((q, t))
    pairs = [(i, j, nums[i] * dens[j], nums[j] * dens[i])
             for i in range(n) for j in range(i + 1, n)]
    den = 1
    for _, _, x, y in pairs:
        if x == y:
            raise DomainError("coincident coordinates hit a cross-ratio pole")
        den *= x - y
    cpow = [c**m for m in range(order + 1)]
    epow = [e**m for m in range(order + 1)]

    def cross(nu) -> int:
        out = 1
        for i, j, x, y in pairs:
            out *= cpow[nu[i]] * epow[nu[j]] * x - cpow[nu[j]] * epow[nu[i]] * y
        return out

    if order and any(zj == 0 for zj in z):
        raise DomainError("zero coordinate in Pochhammer ratio")
    diag = [(qpoch_finite(t, q, m), qq) for m, qq in enumerate(_qq_table(q, order), 1)]
    P = []
    for i in range(n):
        ws = []
        for m, (top, bottom) in enumerate(diag[:orders[i]], 1):
            num = top.numerator * bottom.denominator
            wden = top.denominator * bottom.numerator
            for j in range(n):
                if j != i:
                    ratio = Fraction(z[i], z[j])
                    top_j = qpoch_finite(t * ratio, q, m)
                    bottom_j = qpoch_finite(q * ratio, q, m)
                    if bottom_j == 0:
                        raise DomainError("Pochhammer denominator vanished (non-generic z)")
                    num *= top_j.numerator * bottom_j.denominator
                    wden *= top_j.denominator * bottom_j.numerator
            ws.append(Fraction(num, wden))
        d_i = math.lcm(*(w.denominator for w in ws))
        P.append([d_i] + [w.numerator * (d_i // w.denominator) for w in ws])
        den *= d_i
    return cross, P, den


def noumi_coeff(nu: Sequence[int], z: Sequence, q, t) -> Fraction:
    """The scalar weight multiplying f(q^nu . z) in the zeta^{|nu|} term,
    for exact rational z, q and t: the integer pieces of `_weight_pieces`
    (the cross product and prod_i w_i(nu_i)) and one Fraction."""
    nu = tuple(nu)
    z = tuple(z)
    n = len(z)
    if len(nu) != n:
        raise DomainError("shift index and point must have the same length")
    if any(v < 0 for v in nu):
        raise DomainError("shift indices must be non-negative")
    cross, P, den = _weight_pieces(z, q, t, nu)
    num = cross(nu)
    for row, v in zip(P, nu):
        num *= row[v]
    return Fraction(num, den * q.denominator ** ((n - 1) * sum(nu)))


def apply_noumi(f: SymmetricPolynomial, z: Sequence, q, t, order: int) -> ZetaSeries:
    """Apply the operator to the symmetric polynomial f, through zeta^order.

    The zeta^k coefficient is the sum over |nu| = k of
    coeff(nu; z) * f(q^{nu_1} z_1, ..., q^{nu_N} z_N).  Every shifted value
    comes from one kernel call at z and every weight from the per-point
    pieces of `_weight_pieces`, both as integers; the compositions of one
    order share one denominator, so each coefficient is one Fraction.
    """
    z = tuple(z)
    n = len(z)
    nums, dens = rational_parts(z)
    (c, _), (e, _) = rational_parts((q, t))
    cross, P, den = _weight_pieces(z, q, t, (order,) * n)
    shifts = [list(compositions_of_weight(k, n)) for k in range(order + 1)]
    values, scale, d = _scaled_values(f, nums, dens, (c, e),
                                      [nu for nus in shifts for nu in nus])
    values = iter(values)
    coeffs = []
    for k, nus in enumerate(shifts):
        total = 0
        for nu in nus:
            term = cross(nu) * next(values)
            for row, v in zip(P, nu):
                term *= row[v]
            total += term
        coeffs.append(Fraction(total, den * scale * e ** ((n - 1 + d) * k)))
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
    if order < 1:
        raise DomainError(f"need order >= 1, got order = {order}: "
                          "the zeta^0 term compares P(z) with itself")
    if samples < 1:
        raise DomainError(f"need at least one sample, got samples = {samples}")
    if q is not None:
        _qq_table(Fraction(q), order)  # a q that fails at every point, before any is drawn
    rng = random.Random(seed)
    sample_records = []
    all_residuals_zero = True
    worst = Fraction(0)
    for s in range(samples):
        qs = Fraction(q) if q is not None else unit_interval_rational(rng)
        ts = Fraction(t) if t is not None else unit_interval_rational(rng)
        z = _generic_point(rng, n, qs, order)
        poly = macdonald_gram_schmidt(lam, qs, ts, nvars=n)
        lhs = apply_noumi(poly, z, qs, ts, order)
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
    if len(lam) > n:
        raise DomainError(f"lambda = {lam} needs at least {len(lam)} variables")
    if samples < 1:
        raise DomainError(f"need at least one sample, got samples = {samples}")
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
