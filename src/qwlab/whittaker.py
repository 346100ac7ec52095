"""Whittaker functions via the Givental integral, and Stade's identities.

The Whittaker function is defined here as the integral over triangular
patterns X = (x_{k,i}, 1 <= i <= k <= N) with the top row pinned to x:

    psi_lam(x) = integral exp(F_lam(X)) over the N(N-1)/2 interior entries,

    F_lam(X) = i sum_k lam_k (|row_k| - |row_{k-1}|)
             - sum_{k<N} sum_i (e^{x_{k,i}-x_{k+1,i}} + e^{x_{k+1,i+1}-x_{k,i}}).

The e^(-e^s) coupling makes the integrand die double-exponentially a few
units outside the top-row hull, so a modest truncated box suffices.

For N = 2 the interior integral separates into a center-of-mass phase times
a one-dimensional profile in s = x_1 - x_2; `pair_profile` exposes that
profile by quadrature.  The separation is an exact change of variables and
is itself cross-checked against the direct pattern integral in the tests.
The profile's closed form is 2 K_{i(mu1-mu2)}(2 e^{-s/2}), the GL(2)
Whittaker function (Bump, Automorphic Forms and Representations, 1997): the
tests anchor `pair_profile` against it, and the N = 2 Stade check takes
its profiles from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .gamma import gamma_c
from .qcore import DomainError
from .quadrature import (
    QuadratureConfig,
    QuadResult,
    integrate_1d,
    nodes_1d,
    refine,
)
from .report import VerificationReport, comparison_report

MAX_WHITTAKER_N = 3


@dataclass(frozen=True)
class GiventalPattern:
    """Triangular array; rows[k] has k+1 entries and rows[-1] is the top row."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for k, row in enumerate(rows):
            if len(row) != k + 1:
                raise DomainError(f"row {k + 1} must have {k + 1} entries")


def givental_action(lam, pattern: GiventalPattern):
    """The exponent F_lam(X) of the Givental integrand."""
    rows = pattern.rows
    n = len(rows)
    if len(lam) != n:
        raise DomainError("need one spectral parameter per row")
    total = mp.mpc(0)
    prev_sum = mp.mpf(0)
    for k in range(n):
        row_sum = mp.fsum(rows[k])
        total = total + 1j * mp.mpc(lam[k]) * (row_sum - prev_sum)
        prev_sum = row_sum
    for k in range(n - 1):
        lower, upper = rows[k], rows[k + 1]
        for i in range(k + 1):
            total = total - mp.exp(lower[i] - upper[i]) - mp.exp(upper[i + 1] - lower[i])
    return total


DEFAULT_WHITTAKER_CFG = QuadratureConfig(box_halfwidth=12.0, target_rel_error=1e-10)


def _interior_box(x, cfg: QuadratureConfig):
    # Integrand is below e^(-e^pad) outside this window: pad 5 leaves mass
    # ~1e-64, so the configured half-width only matters if smaller.
    pad = min(cfg.box_halfwidth, 5.0)
    return (min(x) - pad, max(x) + pad)


def whittaker_eval(lam, x, cfg: QuadratureConfig | None = None) -> QuadResult:
    """psi_lam(x) for N <= 3 by quadrature over the interior pattern entries.

    N = 1 is the exact exponential e^{i lam_1 x_1}.  The error field carries
    the last refinement difference.
    """
    x = tuple(mp.mpf(v) for v in x)
    lam = tuple(mp.mpc(v) for v in lam)
    n = len(x)
    if len(lam) != n:
        raise DomainError("lam and x must have the same length")
    if n == 0 or n > MAX_WHITTAKER_N:
        raise DomainError(f"pattern integral supports 1 <= N <= {MAX_WHITTAKER_N}")
    if cfg is None:
        cfg = DEFAULT_WHITTAKER_CFG
    if n == 1:
        return QuadResult(mp.exp(1j * lam[0] * x[0]), mp.mpf(0), {"exact": True})
    box = _interior_box(x, cfg)
    if n == 2:
        l1, l2 = lam
        x1, x2 = x
        # At the integrand's precision: the caller's would round the phase.
        with mp.workprec(cfg.integrand_prec()):
            phase2 = 1j * l2 * (x1 + x2)

        def integrand2(t):
            return mp.exp(
                1j * (l1 - l2) * t + phase2 - mp.exp(t - x1) - mp.exp(x2 - t)
            )

        return integrate_1d(integrand2, box[0], box[1], cfg)
    return _pattern_quad_3(lam, x, box, cfg)


def _pattern_quad_3(lam, x, box, cfg: QuadratureConfig) -> QuadResult:
    """N = 3 pattern integral, summed per row-1 node with per-axis tables.

    The row-1 entry z1 couples to each row-2 entry (z2, z3), and those two
    do not couple to each other, so at each row-1 node the double sum over
    row 2 is a product of two single sums:

        total = sum_1 p1 (sum_2 p2 e^{-(E1/E2 + a2)}) (sum_3 p3 e^{-(E3/E1 + a3)})

    with E = e^z and a2, a3 the couplings of z2, z3 to the top row x.  This
    is Givental's recursion (Givental 1997) read as a quadrature sum:
    O(n^2) real exponentials per level instead of O(n^3).  The complex
    spectral phases factor per axis and are precomputed on the shared node
    list.
    """
    l1, l2, l3 = lam
    x1, x2, x3 = x
    prec = cfg.working_prec()
    with mp.workprec(prec):
        const = mp.exp(1j * l3 * (x1 + x2 + x3))
        c1, c2 = mp.exp(-x1), mp.exp(x2)
        c3, c4 = mp.exp(-x2), mp.exp(x3)
        d12 = 1j * (l1 - l2)
        d23 = 1j * (l2 - l3)

        def value_at(level):
            nodes = nodes_1d(level, box[0], box[1], prec)
            ax1 = []
            ax2 = []
            ax3 = []
            for t, wt in nodes:
                E = mp.exp(t)
                iE = 1 / E
                p23 = wt * mp.exp(d23 * t)
                ax1.append((E, iE, wt * mp.exp(d12 * t)))
                ax2.append((iE, E * c1 + c2 * iE, p23))
                ax3.append((E, E * c3 + c4 * iE, p23))
            total = mp.mpc(0)
            exp = mp.exp
            for E1, iE1, p1 in ax1:
                s2 = mp.mpc(0)
                for iE2, a2, p2 in ax2:
                    s2 += p2 * exp(-(E1 * iE2 + a2))
                s3 = mp.mpc(0)
                for E3, a3, p3 in ax3:
                    s3 += p3 * exp(-(E3 * iE1 + a3))
                total += p1 * s2 * s3
            return const * total

        return refine(value_at, range(cfg.max_depth), cfg, "pattern quadrature")


def pair_profile(mu1, mu2, s, cfg: QuadratureConfig | None = None) -> QuadResult:
    """The reduced N = 2 pattern integral at row separation s:

        integral dt exp(i (mu1 - mu2) t - 2 e^{-s/2} cosh t),

    so that psi_(mu1,mu2)(x1, x2) = e^{i (mu1+mu2)(x1+x2)/2} * profile(x1-x2).
    """
    if cfg is None:
        cfg = DEFAULT_WHITTAKER_CFG
    # z at the integrand's precision: the caller's would round it, and the
    # quadrature's error estimate cannot see that.
    with mp.workprec(cfg.integrand_prec()):
        mu1, mu2 = mp.mpc(mu1), mp.mpc(mu2)
        z = 2 * mp.exp(-mp.mpf(s) / 2)
    rate = abs(mp.im(mu1 - mu2))  # real growth rate of the phase factor
    # Box: z cosh(t) must dominate both the target accuracy and the phase growth.
    need = -mp.log(mp.mpf(cfg.target_rel_error)) + 45
    tmax = mp.log(2 * need / z + 3) + 1
    for _ in range(3):
        tmax = mp.log(2 * (need + rate * tmax) / z + 3) + 1

    def integrand(t):
        return mp.exp(1j * (mu1 - mu2) * t - z * mp.cosh(t))

    return integrate_1d(integrand, -tmax, tmax, cfg)


# ---------------------------------------------------------------------------
# Sklyanin measures
# ---------------------------------------------------------------------------


def _check_distinct(xi):
    for i in range(len(xi)):
        for j in range(i + 1, len(xi)):
            if xi[i] == xi[j]:
                raise DomainError("Sklyanin measure needs pairwise distinct arguments")


def sklyanin_m(xi) -> mp.mpc:
    """(2 pi)^-N / N! * prod_{i != j} Gamma(i xi_i - i xi_j)^-1."""
    xi = tuple(mp.mpc(v) for v in xi)
    _check_distinct(xi)
    n = len(xi)
    val = mp.mpc(1) / ((2 * mp.pi) ** n * mp.factorial(n))
    for i in range(n):
        for j in range(n):
            if i != j:
                val = val / gamma_c(1j * (xi[i] - xi[j]))
    return val


def sklyanin_s(xi) -> mp.mpc:
    """(2 pi i)^-N / N! * prod_{i != j} Gamma(xi_i - xi_j)^-1."""
    xi = tuple(mp.mpc(v) for v in xi)
    _check_distinct(xi)
    n = len(xi)
    val = mp.mpc(1) / ((2j * mp.pi) ** n * mp.factorial(n))
    for i in range(n):
        for j in range(n):
            if i != j:
                val = val / gamma_c(xi[i] - xi[j])
    return val


def pair_coupling(delta) -> mp.mpc:
    """1 / (Gamma(z) Gamma(-z)) = -z sin(pi z) / pi, the reflection-resolved
    form of the Sklyanin pair factor; analytic across z = 0."""
    z = mp.mpc(delta)
    return -z * mp.sinpi(z) / mp.pi


# ---------------------------------------------------------------------------
# Stade's integral identities
# ---------------------------------------------------------------------------


def _cutoff_box(rate, u, target):
    """[lo, hi] for integrals of e^{-u e^y} e^{rate y}: double-exponential on
    the right, rate-exponential on the left."""
    rate = mp.re(mp.mpc(rate))
    if rate <= 0:
        raise DomainError("cutoff integral needs a positive decay rate")
    need = -mp.log(mp.mpf(target)) + 12
    hi = mp.log((need + rate * 10) / u + 3) + 2
    lo = -(need / rate) - 2
    return float(lo), float(hi)


def stade_check(u, lam, nu, which: str = "first",
                cfg: QuadratureConfig | None = None,
                tolerance: float = 1e-8) -> VerificationReport:
    """Compare the N-fold cutoff integral of a product of two Whittaker
    functions against its closed Gamma-product value, for N <= 2.

    first:  integral dx e^{-u e^{x_1}}  psi_{-i lam}(x) psi_{-i nu}(x)
    second: integral dx e^{-u e^{-x_N}} psi_{ i lam}(x) psi_{ i nu}(x)
    both equal u^{-sum(lam + nu)} prod_{i,j} Gamma(lam_i + nu_j).

    At N = 1 the left side is the cutoff integral of e^{+-(lam_1 + nu_1) y}.
    At N = 2 the center-of-mass change of variables turns it into the same
    cutoff integral at rate sum(lam + nu), times a relative-coordinate
    integral over s = x_1 - x_2 of the two GL(2) profiles, whose closed form
    is the K-Bessel function (see `_stade_relative_integral`).  Both
    integrals are numeric; the right side is the Gamma product.  cfg
    defaults to composite Gauss-Legendre at a 1e-11 target for both N.
    """
    if which not in ("first", "second"):
        raise DomainError("which must be 'first' or 'second'")
    lam = tuple(mp.mpc(v) for v in lam)
    nu = tuple(mp.mpc(v) for v in nu)
    n = len(lam)
    if len(nu) != n or n not in (1, 2):
        raise DomainError("Stade check supports N in {1, 2}")
    u = mp.mpf(u)
    if u <= 0:
        raise DomainError("u must be positive")
    for li in lam:
        for nj in nu:
            if mp.re(li + nj) <= 0:
                raise DomainError("need Re(lam_i + nu_j) > 0 for all pairs")
    if cfg is None:
        cfg = QuadratureConfig(target_rel_error=1e-11)

    # One cutoff integral in y: x_1 at N = 1, the center of mass at N = 2.
    total_rate = mp.fsum([mp.re(v) for v in lam + nu])
    box = _cutoff_box(total_rate, u, cfg.target_rel_error)
    with mp.workprec(cfg.integrand_prec()):
        rate = sum(lam) + sum(nu)
    if which == "first":
        f = lambda y: mp.exp(-u * mp.exp(y) + rate * y)
        com = integrate_1d(f, box[0], box[1], cfg)
    else:
        f = lambda y: mp.exp(-u * mp.exp(-y) - rate * y)
        com = integrate_1d(f, -box[1], -box[0], cfg)

    if n == 1:
        lhs = com.value
        diag = {"quad_error": com.error}
    else:
        rel = _stade_relative_integral(lam, nu, rate, cfg)
        # At the working precision: the caller's would round the product.
        with mp.workprec(cfg.working_prec()):
            lhs = com.value * rel.value
            err = abs(com.error * rel.value) + abs(com.value * rel.error)
        diag = {"com_error": com.error, "rel_error": rel.error, "quad_error": err}

    rhs = u ** (-mp.fsum([v for v in lam]) - mp.fsum([v for v in nu]))
    for li in lam:
        for nj in nu:
            rhs = rhs * gamma_c(li + nj)
    return comparison_report(
        check_id=f"stade-{which}",
        params={"u": u, "lam": list(lam), "nu": list(nu), "n": n},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        diagnostics=diag,
    )


def _stade_relative_integral(lam, nu, rate, cfg: QuadratureConfig) -> QuadResult:
    """integral ds e^{-rate s/2} 2K_{lam1-lam2}(2e^{-s/2}) 2K_{nu1-nu2}(2e^{-s/2})
    with rate = sum(lam + nu): the relative-coordinate factor at N = 2.

    Each profile is pair_profile(mu1, mu2, s) = 2K_{i(mu1-mu2)}(2e^{-s/2}) at
    mu = -+i lam (resp. nu), so i(mu1 - mu2) = +-(lam1 - lam2); K is even in
    its order, so both displays share this integral.
    """
    # Tail rates in s: the profile product grows like e^{(d_lam + d_nu) s / 2}
    # with d = |Re spread|, against the cutoff factor e^{-rate s / 2}.
    spread = abs(mp.re(lam[0] - lam[1])) + abs(mp.re(nu[0] - nu[1]))
    right_rate = (mp.re(rate) - spread) / 2
    if right_rate <= 0:
        raise DomainError("relative-coordinate integral does not converge")
    need = -mp.log(mp.mpf(cfg.target_rel_error)) + 12
    s_hi = float(need / right_rate + 5)
    s_lo = -float(2 * mp.log(need) + 6)

    with mp.workprec(cfg.integrand_prec()):
        order_lam, order_nu = lam[0] - lam[1], nu[0] - nu[1]

    def fs(s):
        # integrate_1d calls this at the integrand's precision.
        z = 2 * mp.exp(-s / 2)
        return (4 * mp.exp(-rate * s / 2)
                * mp.besselk(order_lam, z) * mp.besselk(order_nu, z))

    return integrate_1d(fs, s_lo, s_hi, cfg)
