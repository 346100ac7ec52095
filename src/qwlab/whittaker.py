"""Whittaker functions via the Givental integral, and Stade's identities.

The Whittaker function is defined here as the integral over triangular
patterns X = (x_{k,i}, 1 <= i <= k <= N) with the top row pinned to x:

    psi_lam(x) = integral exp(F_lam(X)) over the N(N-1)/2 interior entries,

    F_lam(X) = i sum_k lam_k (|row_k| - |row_{k-1}|)
             - sum_{k<N} sum_i (e^{x_{k,i}-x_{k+1,i}} + e^{x_{k+1,i+1}-x_{k,i}}).

The e^(-e^s) coupling makes the integrand die double-exponentially a few
units outside the top-row hull, so a modest truncated box suffices.

For N = 2 the interior integral separates into a center-of-mass phase times
a one-dimensional profile in s = x_1 - x_2, `pair_profile`, a trapezoid sum
on the `profile_grid` that also carries the N = 2 spectral sum's chi grid.
The separation is cross-checked against the direct pattern integral in the
tests.  The profile's closed form is 2 K_{i(mu1-mu2)}(2 e^{-s/2}), the GL(2)
Whittaker function (Bump, Automorphic Forms and Representations, 1997): the
tests anchor `pair_profile` against it, and the N = 2 Stade check takes
its profiles from it.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

from .gamma import gamma_c
from .qcore import DomainError
from .quadrature import QuadratureConfig, QuadResult, integrate_1d, nodes_1d, refine
from .report import VerificationReport, comparison_report

MAX_WHITTAKER_N = 3


def _interior_box(x, cfg: QuadratureConfig, pad: float = 5.0):
    # The N = 3 pattern sum's windows.  A row-2 entry couples to the top row
    # x and is below e^(-e^pad) outside this window: pad 5 leaves mass
    # ~1e-64.  The row-1 entry couples only to row 2, whose entries stray a
    # few units past the hull at a cost of only ~e^-13, so the row-1 tail at
    # pad 5 is ~1e-11: that entry takes pad 7.  The configured half-width
    # caps the pad.
    pad = min(cfg.box_halfwidth, pad)
    return (min(x) - pad, max(x) + pad)


def whittaker_eval(lam, x, cfg: QuadratureConfig | None = None) -> QuadResult:
    """psi_lam(x) for N <= 3 by quadrature over the interior pattern entries.

    N = 1 is the exact exponential e^{i lam_1 x_1}, N = 2 the center-of-mass
    phase times `pair_profile` (no box).  The error field carries the last
    refinement difference.
    """
    x = tuple(mp.mpf(v) for v in x)
    lam = tuple(mp.mpc(v) for v in lam)
    if not all(mp.isfinite(v) for v in (*x, *lam)):
        raise DomainError("lam and x must be finite")
    n = len(x)
    if len(lam) != n:
        raise DomainError("lam and x must have the same length")
    if n == 0 or n > MAX_WHITTAKER_N:
        raise DomainError(f"pattern integral supports 1 <= N <= {MAX_WHITTAKER_N}")
    if cfg is None:
        cfg = QuadratureConfig()
    if n == 1:
        return QuadResult(mp.exp(1j * lam[0] * x[0]), mp.mpf(0), {"exact": True})
    if n == 2:
        # s and the phase at the integrand's precision: the caller's would
        # round them, and the profile's estimate cannot see that.
        with mp.workprec(cfg.integrand_prec()):
            phase = mp.exp(1j * (lam[0] + lam[1]) * (x[0] + x[1]) / 2)
            prof = pair_profile(lam[0], lam[1], x[0] - x[1], cfg)
            return QuadResult(phase * prof.value, abs(phase) * prof.error, prof.diagnostics)
    return _pattern_quad_3(lam, x, cfg)


def _pattern_quad_3(lam, x, cfg: QuadratureConfig) -> QuadResult:
    """N = 3 pattern integral, summed per row-1 node with per-axis tables.

    The row-1 entry z1 couples to each row-2 entry (z2, z3), and those two
    do not couple to each other, so at each row-1 node the double sum over
    row 2 is a product of two single sums:

        total = sum_1 p1 (sum_2 p2 e^{-(E1/E2 + a2)}) (sum_3 p3 e^{-(E3/E1 + a3)})

    with E = e^z and a2, a3 the couplings of z2, z3 to the top row x.  This
    is Givental's recursion (Givental 1997) read as a quadrature sum:
    O(n^2) real exponentials per level instead of O(n^3).  The complex
    spectral phases factor per axis and are precomputed on its node list:
    one for row 1 on its own window, one shared by the two row-2 entries.
    """
    l1, l2, l3 = lam
    x1, x2, x3 = x
    row1 = _interior_box(x, cfg, pad=7.0)
    row2 = _interior_box(x, cfg)
    prec = cfg.working_prec()
    with mp.workprec(prec):
        const = mp.exp(1j * l3 * (x1 + x2 + x3))
        c1, c2 = mp.exp(-x1), mp.exp(x2)
        c3, c4 = mp.exp(-x2), mp.exp(x3)
        d12 = 1j * (l1 - l2)
        d23 = 1j * (l2 - l3)

        def value_at(level):
            ax1 = []
            for t, wt in nodes_1d(level, row1[0], row1[1], prec):
                E = mp.exp(t)
                ax1.append((E, 1 / E, wt * mp.exp(d12 * t)))
            ax2 = []
            ax3 = []
            for t, wt in nodes_1d(level, row2[0], row2[1], prec):
                E = mp.exp(t)
                iE = 1 / E
                p23 = wt * mp.exp(d23 * t)
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

        integral dt exp(i (mu1 - mu2) t - 2 e^{-s/2} cosh t) = 2 K_{i(mu1-mu2)}(2 e^{-s/2}),

    so that psi_(mu1,mu2)(x1, x2) = e^{i (mu1+mu2)(x1+x2)/2} * profile(x1-x2).
    It is the trapezoid sum on `profile_grid`, refined by halving h; the
    error field is the last difference |T_h - T_{h/2}|.
    """
    if not all(mp.isfinite(v) for v in (mu1, mu2, s)):
        raise DomainError("mu1, mu2 and s must be finite")
    if cfg is None:
        cfg = QuadratureConfig()
    # z and delta at the integrand's precision: the caller's would round
    # them, and the refinement estimate cannot see that.
    with mp.workprec(cfg.integrand_prec()):
        delta = mp.mpc(mu1) - mp.mpc(mu2)
        z = 2 * mp.exp(-mp.mpf(s) / 2)

        def value_at(level):
            h, omegas = profile_grid(z, cfg.target_rel_error, abs(delta),
                                     abs(mp.im(delta)), level)
            return mp.fsum(omega * mp.cos(m * h * delta) for m, omega in enumerate(omegas))

        return refine(value_at, range(cfg.max_depth), cfg, "profile sum")


def profile_grid(z, target: float, delta_max, rate=0, level: int = 0):
    """(h, omegas) with 2 K_{i delta}(z) = sum_m omega_m cos(m h delta): the
    trapezoid rule for integral e^{i delta t - z cosh t} dt on t = m h, folded
    onto m >= 0, so omega_0 = h e^{-z} and omega_m = 2 h e^{-z cosh(m h)} up
    to t = tmax.  The integrand is analytic for |Im t| < pi/2, so the error
    falls like e^{-pi^2/h + pi |delta|/2} (Trefethen & Weideman, SIAM Rev.
    2014), below e^{-need} out to |delta| = delta_max.  tmax outruns the
    phase's growth e^{rate |t|}, rate = |Im delta|; each level halves h.
    The N = 2 profile and the spectral sum's chi grid both sum on it."""
    need = -mp.log(mp.mpf(target)) + 20
    tmax = 0
    for _ in range(4):
        tmax = mp.log(2 * (need + rate * tmax) / z + 3) + 1
    h = mp.pi ** 2 / (mp.mpf(1.5) * mp.pi * delta_max + need) / 2**level
    steps = int(mp.ceil(float(tmax) / h))
    omegas = [h * mp.exp(-z)]
    omegas += [2 * h * mp.exp(-z * mp.cosh(m * h)) for m in range(1, steps + 1)]
    return h, omegas


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
                tolerance: float | None = None) -> VerificationReport:
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
    defaults to composite Gauss-Legendre at a 1e-11 target for both N, and
    the relative tolerance to 1e-8 at N = 1 and 1e-4 at N = 2.

    The relative-coordinate integral is the same for both displays and is
    memoised on (lam, nu, rate, cfg, ambient precision), so the second
    display of a pair takes no K-Bessel evaluation; the cutoff integral in
    y differs between them and is computed per display.
    """
    if which not in ("first", "second"):
        raise DomainError("which must be 'first' or 'second'")
    lam = tuple(mp.mpc(v) for v in lam)
    nu = tuple(mp.mpc(v) for v in nu)
    u = mp.mpf(u)
    if not all(mp.isfinite(v) for v in (u, *lam, *nu)):
        raise DomainError("u, lam and nu must be finite")
    n = len(lam)
    if len(nu) != n or n not in (1, 2):
        raise DomainError("Stade check supports N in {1, 2}")
    if u <= 0:
        raise DomainError("u must be positive")
    for li in lam:
        for nj in nu:
            if mp.re(li + nj) <= 0:
                raise DomainError("need Re(lam_i + nu_j) > 0 for all pairs")
    if cfg is None:
        cfg = QuadratureConfig(target_rel_error=1e-11)
    if tolerance is None:
        tolerance = 1e-8 if n == 1 else 1e-4

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
        rel, rel_error = _stade_relative_integral(lam, nu, rate, cfg, mp.mp.prec)
        # At the working precision: the caller's would round the product.
        with mp.workprec(cfg.working_prec()):
            lhs = com.value * rel
            err = abs(com.error * rel) + abs(com.value * rel_error)
        diag = {"com_error": com.error, "rel_error": rel_error, "quad_error": err}

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


@lru_cache(maxsize=4)
def _stade_relative_integral(lam, nu, rate, cfg: QuadratureConfig, prec: int) -> tuple:
    """integral ds e^{-rate s/2} 2K_{lam1-lam2}(2e^{-s/2}) 2K_{nu1-nu2}(2e^{-s/2})
    with rate = sum(lam + nu): the relative-coordinate factor at N = 2, as the
    pair (value, error estimate).

    Each profile is pair_profile(mu1, mu2, s) = 2K_{i(mu1-mu2)}(2e^{-s/2}) at
    mu = -+i lam (resp. nu), so i(mu1 - mu2) = +-(lam1 - lam2); K is even in
    its order, so both displays share this integral.  It is memoised on
    (lam, nu, rate, cfg, prec), prec being the caller's ambient precision,
    at which the box is sized, so the second display of a pair reuses the
    first's; the result is an immutable tuple.
    """
    with mp.workprec(prec):
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

        res = integrate_1d(fs, s_lo, s_hi, cfg)
        return res.value, res.error
