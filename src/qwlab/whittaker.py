"""Whittaker functions via the Givental integral, and Stade's identities.

The Whittaker function is defined here as the integral over triangular
patterns X = (x_{k,i}, 1 <= i <= k <= N) with the top row pinned to x:

    psi_lam(x) = integral exp(F_lam(X)) over the N(N-1)/2 interior entries,

    F_lam(X) = i sum_k lam_k (|row_k| - |row_{k-1}|)
             - sum_{k<N} sum_i (e^{x_{k,i}-x_{k+1,i}} + e^{x_{k+1,i+1}-x_{k,i}}).

The e^(-e^s) coupling makes the integrand die double-exponentially in
every direction, so the trapezoid rule on a uniform grid converges
geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014), on windows sized
from the target through that decay.

For N = 2 the interior integral separates into a center-of-mass phase times
a one-dimensional profile in s = x_1 - x_2, `pair_profile`.  It is the
trapezoid sum on the lattice of `_profile_lattice`, which also sizes
`profile_grid`, the N = 2 spectral sum's chi grid.  The profile's levels
nest: each adds only the odd lattice points, and it sums them in integer
fixed point, with its weights and phases advanced along ladders, so each
point takes one exponential.  The separation is cross-checked against the
direct pattern integral in the tests.  The profile's closed form is
2 K_{i(mu1-mu2)}(2 e^{-s/2}), the GL(2) Whittaker function (Bump,
Automorphic Forms and Representations, 1997): the tests anchor
`pair_profile` against it, and the N = 2 Stade check takes its profiles
from it.

For N = 3 the row-1 entry integrates to that profile of row 2, and the
remaining double integral over row 2 is one step of Givental's recursion.
`_pattern_sum_3` sums all three entries on one uniform lattice, with the
row-1 sum in the profile's own trapezoid form, refined by halving the step.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_exp, to_fixed

from .gamma import gamma_c
from .qcore import DomainError
from .quadrature import (
    QuadratureConfig,
    QuadResult,
    _fixed_dot,
    _fixed_ladder,
    integrate_1d,
    lattice_need,
    refine,
    trapezoid_sums,
)
from .report import VerificationReport, comparison_report

MAX_WHITTAKER_N = 3


def whittaker_eval(lam, x, cfg: QuadratureConfig | None = None) -> QuadResult:
    """psi_lam(x) for N <= 3 by quadrature over the interior pattern entries.

    N = 1 is the exact exponential e^{i lam_1 x_1}, N = 2 the center-of-mass
    phase times `pair_profile`, N = 3 the lattice sum `_pattern_sum_3`
    refined by halving its step.  The error field carries the last
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
    # The lattice and its sums at the integrand's precision, as for N = 2.
    with mp.workprec(cfg.integrand_prec()):
        h0, L = _pattern_lattice(lam, x, cfg.target_rel_error)
        return refine(lambda level: _pattern_sum_3(lam, x, h0 / 2**level, L),
                      range(cfg.max_depth), cfg, "pattern quadrature")


def _pattern_lattice(lam, x, target):
    """(h0, L): the level-0 step and the window bound of the N = 3 lattice
    sum at a relative target.

    The integrand's modulus is e^{-Phi}, Phi the sum of the action's six
    exponentials (for real lam), and Phi at the balanced pattern (each entry
    halfway between the two it couples to) bounds Phi's minimum Phi_0.
    Where one exponential exceeds e^L = Phi_0 + 2 need, the integrand is
    below e^{-2 need} of its peak: the windows keep every exponential below
    e^L, L enlarged by the phases' growth when lam is complex, so that the
    tails fall under the first refinement difference, about e^{-need}, which
    cannot see them.  The integrand is analytic for |Im| < pi/2 in each
    lattice direction, so the trapezoid error falls like
    e^{-pi^2/h + pi mu/2}, mu the larger of |lam1 - lam2| and
    |lam1 + lam2 - 2 lam3| / 2; h0 puts it near e^{-need} (as `profile_grid`
    does)."""
    l1, l2, l3 = lam
    x1, x2, x3 = x
    need = -mp.log(mp.mpf(target)) + 8
    delta, rho = l1 - l2, (l1 + l2 - 2 * l3) / 2
    phi = 2 * (mp.exp((x2 - x1) / 2) + mp.exp((x3 - x2) / 2) + mp.exp((x3 - x1) / 4))
    rate = 2 * abs(mp.im(rho)) + abs(mp.im(delta))
    L = 0
    for _ in range(4):
        L = mp.log(phi + 2 * need + rate * (x1 - x3 + 2 * L))
    h0 = mp.pi ** 2 / (mp.mpf(1.5) * mp.pi * max(abs(delta), abs(rho)) + need)
    return h0, L


def _pattern_sum_3(lam, x, h, L):
    """The trapezoid rule for the N = 3 pattern integral on one uniform
    lattice of step h: row 2 at z1 = i h in [x2 - L, x1 + L] and
    z2 = j h in [x3 - L, x2 + L], row 1 at y = (i + j + 2m) h / 2 on the half
    lattice, in [z2 - L, z1 + L].

    The row-1 sum is the trapezoid sum of the GL(2) profile,
    chi_d = 2 K_{i delta}(2 e^{-d h/2}) for d = i - j, delta = lam1 - lam2,
    summed as `profile_grid` sums it: with F_k = e^{-e^{k h/2}} on the half
    lattice, e^{-2 e^{-d h/2} cosh(m h)} = F_{2m-d} F_{-2m-d}, so one F table
    and one cos(m h delta) table serve every d.  The double sum over row 2
    is then

        h^2 e^{i lam3 (x1 + x2 + x3)} sum_d chi_d sum_i a_i b_{i-d},

    a_i and b_j the row-2 couplings to x times the phase
    e^{i (lam1 + lam2 - 2 lam3) z / 2}: O(n) exponentials per level for n
    lattice nodes per axis.  This is one step of Givental's recursion
    (Givental 1997) read as a quadrature sum."""
    l1, l2, l3 = lam
    x1, x2, x3 = x
    delta = l1 - l2
    rate = 1j * (l1 + l2 - 2 * l3) / 2
    i0, i1 = int(mp.ceil((x2 - L) / h)), int(mp.floor((x1 + L) / h))
    j0, j1 = int(mp.ceil((x3 - L) / h)), int(mp.floor((x2 + L) / h))
    kcut = int(mp.floor(2 * L / h))

    def row(lo, hi, left, right):
        c1, c2 = mp.exp(-left), mp.exp(right)
        out = []
        for k in range(lo, hi + 1):
            E = mp.exp(k * h)
            out.append(mp.exp(rate * k * h - E * c1 - c2 / E))
        return out

    a, b = row(i0, i1, x1, x2), row(j0, j1, x2, x3)
    # y - z1 = (2m - d) h / 2 and z2 - y = (-2m - d) h / 2 stay below L.
    dmin, dmax = max(i0 - j1, -kcut), i1 - j0
    mmax = (kcut + dmax) // 2
    f0 = -2 * mmax - dmax
    F = [mp.exp(-mp.exp(k * h / 2)) for k in range(f0, kcut + 1)]
    cosines = [mp.cos(m * h * delta) * (2 if m else 1) for m in range(mmax + 1)]
    chis, corrs = [], []
    for d in range(dmin, dmax + 1):
        ms = range((kcut + d) // 2 + 1)
        chis.append(mp.fdot((F[2 * m - d - f0] * F[-2 * m - d - f0] for m in ms), cosines))
        lo, hi = max(i0, j0 + d), min(i1, j1 + d)
        corrs.append(mp.fdot(a[lo - i0:hi - i0 + 1], b[lo - d - j0:hi - d - j0 + 1]))
    return h ** 3 * mp.exp(1j * l3 * (x1 + x2 + x3)) * mp.fdot(chis, corrs)


def pair_profile(mu1, mu2, s, cfg: QuadratureConfig | None = None) -> QuadResult:
    """The reduced N = 2 pattern integral at row separation s:

        integral dt exp(i (mu1 - mu2) t - 2 e^{-s/2} cosh t) = 2 K_{i(mu1-mu2)}(2 e^{-s/2}),

    so that psi_(mu1,mu2)(x1, x2) = e^{i (mu1+mu2)(x1+x2)/2} * profile(x1-x2).

    It is `profile_grid`'s trapezoid sum, folded onto t = j h >= 0 and
    nested as `trapezoid_sums` nests it: level 0 takes j = 0..steps on
    `_profile_lattice`'s step h0, and each level k >= 1 adds only the odd j
    below 2^k steps on h0 / 2^k, so each point's weight
    omega_j = e^{-z cosh t_j}, z = 2 e^{-s/2}, is evaluated once
    (`_fold_weights`, over the largest weight e^{-z}, which the level's
    sums are multiplied by).  With delta = mu1 - mu2 = a + ib,

        cos(delta t) = cos(a t) cosh(b t) - i sin(a t) sinh(b t),

    so a level's new part is two integer dot products (`_fixed_dot`): the
    real weights 2 omega cosh(b t) and -2 omega sinh(b t) against cos(a t)
    and sin(a t).  The weights are integers at 2^-W, and e^{|b| t}, e^{t}
    and (cos, sin)(a t) advance along the level by `_fixed_ladder`, one
    fixed-point multiply per point.  For real delta the sine weights are 0
    and the value is exactly real.

    Width.  The terms are O(1), while 2 K_{i delta}(z) is about
    e^{-pi |a| / 2}, so the sum cancels that much.  It runs at
    prec = integrand precision + log2(e) pi |a| / 2 + 1 bits, and its
    weights and phases at W = prec + bit_length(M) + 8, M the largest index
    j the refinement can reach: over up to M terms the weights' flooring and
    the ladders' error (at most 5 M units) stay below 2^-(prec+5) of the
    terms' modulus mass.

    The error field is the last difference |S_k - S_{k-1}| plus the sum's
    own rounding, TERM_ULPS 2^-prec h sum 2 omega_j cosh(b t_j), which
    bounds h sum |terms| (`trapezoid_sums`).
    """
    if not all(mp.isfinite(v) for v in (mu1, mu2, s)):
        raise DomainError("mu1, mu2 and s must be finite")
    if cfg is None:
        cfg = QuadratureConfig()
    a_bits = math.log2(math.e) * math.pi * abs(float(mp.re(mp.mpc(mu1) - mp.mpc(mu2)))) / 2
    prec = cfg.integrand_prec() + int(a_bits) + 1
    # z and delta at the sum's precision: the caller's would round them,
    # and the refinement estimate cannot see that.
    with mp.workprec(prec):
        delta = mp.mpc(mu1) - mp.mpc(mu2)
        a, b = mp.re(delta), mp.im(delta)
        z = 2 * mp.exp(-mp.mpf(s) / 2)
        h0, tmax = _profile_lattice(z, cfg.target_rel_error, abs(delta), abs(b))
        steps = int(mp.ceil(tmax / h0))
        width = prec + (steps << (cfg.max_depth - 1)).bit_length() + 8
        # The weights are scaled by the largest, e^{-z} at t = 0, so that a
        # large z cannot sink them below 2^-W.  e^{-z} amplifies the
        # rounding of z by z, so z takes its own bits above W.
        with mp.workprec(width + int(z).bit_length()):
            z = 2 * mp.exp(-mp.mpf(s) / 2)
            peak = mp.exp(-z)

        def sums_at(level):
            h = h0 / 2**level
            # Level 0 takes j = 0..steps, each later level the odd j.
            first, stride = (0, 1) if level == 0 else (1, 2)
            lattice = (first, stride, (steps << level) // stride + 1 - first, width)
            omegas = _fold_weights(z, h, *lattice, prec)
            # The folded weights 2 omega_j (omega_0 at j = 0) times
            # cosh(b t) and -sinh(b t), from the growing ladder e^{|b| t}
            # and its reciprocal.
            if b:
                ups, _ = _fixed_ladder(abs(b) * h, *lattice)
                downs = [(1 << 2 * width) // up for up in ups]
                sign = 1 if b > 0 else -1
                re = [(w * (up + down)) >> width for w, up, down in zip(omegas, ups, downs)]
                im = [sign * ((w * (down - up)) >> width)
                      for w, up, down in zip(omegas, ups, downs)]
            else:
                re, im = [w << 1 for w in omegas], [0] * len(omegas)
            if level == 0:
                re[0] >>= 1
            cos, sin = _fixed_ladder(1j * a * h, *lattice)
            return (peak * _fixed_dot((re, im, width), cos, sin, width),
                    peak * mp.mpf((sum(re), -width)))

        return trapezoid_sums(sums_at, h0, cfg, "profile sum")


def _profile_lattice(z, target: float, delta_max, rate):
    """(h0, tmax), the level-0 step and the window of the GL(2) profile's
    trapezoid sum at z, out to |delta| = delta_max, for `profile_grid` and
    `pair_profile`.  The integrand e^{i delta t - z cosh t} is analytic for
    |Im t| < pi/2, so the error falls like e^{-pi^2/h + pi |delta|/2}
    (Trefethen & Weideman, SIAM Rev. 2014): h0 puts it below e^{-need},
    need = -log(target) + 20.  The folded tail beyond tmax is below
    e^{-2 need}, and tmax outruns the phase's growth e^{rate |t|},
    rate = |Im delta|."""
    need = -mp.log(mp.mpf(target)) + 20
    tmax = 0
    for _ in range(4):
        tmax = mp.log(2 * (need + rate * tmax) / z + 3) + 1
    return mp.pi ** 2 / (mp.mpf(1.5) * mp.pi * delta_max + need), tmax


def _fold_weights(z, h, first: int, stride: int, count: int, width: int, prec: int) -> list:
    """e^{-z (cosh t - 1)} at t = (first + stride i) h for i < count, the
    profile's weights e^{-z cosh t} over their largest, e^{-z}, as integers
    at 2^-width: cosh t from the fixed-point ladder e^{t} of `_fixed_ladder`
    and its reciprocal, then one exponential per point at prec bits."""
    ups, _ = _fixed_ladder(h, first, stride, count, width)
    zf = to_fixed(z._mpf_, width)
    two = 2 << width
    xs = [(zf * (up + (1 << 2 * width) // up - two)) >> (width + 1) for up in ups]
    return [to_fixed(mpf_exp(from_man_exp(-x, -width), prec), width) for x in xs]


def profile_grid(z, target: float, delta_max, rate=0, level: int = 0):
    """(h, omegas) with 2 K_{i delta}(z) = sum_m omega_m cos(m h delta): the
    trapezoid rule for integral e^{i delta t - z cosh t} dt on t = m h, folded
    onto m >= 0, so omega_0 = h e^{-z} and omega_m = 2 h e^{-z cosh(m h)} up
    to t = tmax, on `_profile_lattice`'s step and window, out to
    |delta| = delta_max and at growth rate = |Im delta|; each level halves h.
    The spectral sum's chi grid sums on it."""
    h0, tmax = _profile_lattice(z, target, delta_max, rate)
    h = h0 / 2**level
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


def _cutoff_window(rate, u, target):
    """[lo, hi] in tau for the cutoff integral of e^{-u e^y + r y},
    Re r = rate > 0, on the map y = tau - e^{-tau}.

    On the right y ~ tau, and e^{-u e^y} cuts the tail double-exponentially;
    on the left y ~ -e^{-tau}, so e^{r y} decays double-exponentially too,
    and at lo, where e^{-tau} = 2e need / rate, it is below e^{-2e need},
    need = lattice_need(target)."""
    rate = mp.re(mp.mpc(rate))
    if rate <= 0:
        raise DomainError("cutoff integral needs a positive decay rate")
    need = lattice_need(target)
    hi = mp.log((2 * need + rate * 10) / u + 3) + 2
    lo = -mp.log(2 * need / rate) - 1
    return float(lo), float(hi)


def stade_check(u, lam, nu, which: str = "first",
                cfg: QuadratureConfig | None = None,
                tolerance: float | None = None) -> VerificationReport:
    """Compare the N-fold cutoff integral of a product of two Whittaker
    functions against its closed Gamma-product value, for N <= 2.

    first:  integral dx e^{-u e^{x_1}}  psi_{-i lam}(x) psi_{-i nu}(x)
    second: integral dx e^{-u e^{-x_N}} psi_{ i lam}(x) psi_{ i nu}(x)
    both equal u^{-sum(lam + nu)} prod_{i,j} Gamma(lam_i + nu_j).

    At N = 1 the left side is the cutoff integral of e^{-u e^{+-y} +- r y},
    r = lam_1 + nu_1.  At N = 2 the center-of-mass change of variables turns
    it into the same cutoff integral at rate r = sum(lam + nu), times a
    relative-coordinate integral over s = x_1 - x_2 of the two GL(2)
    profiles, whose closed form is the K-Bessel function (see
    `_stade_relative_integral`).  Both integrals are numeric, each by
    `integrate_1d`'s nested trapezoid rule on a window whose tails are cut
    at e^{-2 need}, where the refinement difference cannot see them; the
    right side is the Gamma product.  cfg defaults to a 1e-11 target for
    both N, and the relative tolerance to 1e-8 at N = 1 and 1e-4 at N = 2.

    The cutoff integral is summed in tau on the double-exponential map
    y = tau - e^{-tau} for `first` and y = e^{-tau} - tau for `second`, so
    both displays sum the same terms
    e^{-u e^{y} + r y} (1 + e^{-tau}), y = tau - e^{-tau}, on the window of
    `_cutoff_window`.  In y the left tail decays only like e^{Re(r) y}, and
    a window in y takes 998 lattice points at criterion 5's N = 1 pair,
    where the map takes 175.  For complex r the terms decay in a narrower strip
    than pi/2, and the refinement takes more levels.  The relative-coordinate
    integral is also the same for both displays and is memoised on
    (lam, nu, rate, cfg, ambient precision), so the second display of a pair
    takes no K-Bessel evaluation.
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

    # One cutoff integral in y: x_1 at N = 1, the center of mass at N = 2,
    # summed in tau, the same terms for both displays.
    total_rate = mp.fsum([mp.re(v) for v in lam + nu])
    lo, hi = _cutoff_window(total_rate, u, cfg.target_rel_error)
    with mp.workprec(cfg.integrand_prec()):
        rate = sum(lam) + sum(nu)

    def f(tau):
        e = mp.exp(-tau)
        y = tau - e
        return mp.exp(-u * mp.exp(y) + rate * y) * (1 + e)

    # The terms keep their double-exponential decay for |Im tau| < pi/2
    # when r is real; the lattice takes half that strip.
    com = integrate_1d(f, lo, hi, cfg, math.pi / 4)

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
        need = lattice_need(cfg.target_rel_error)
        s_hi = float(2 * need / right_rate + 5)
        s_lo = -float(2 * mp.log(need) + 6)

        with mp.workprec(cfg.integrand_prec()):
            order_lam, order_nu = lam[0] - lam[1], nu[0] - nu[1]

        def fs(s):
            # integrate_1d calls this at the integrand's precision.
            z = 2 * mp.exp(-s / 2)
            return (4 * mp.exp(-rate * s / 2)
                    * mp.besselk(order_lam, z) * mp.besselk(order_nu, z))

        # K(2 e^{-s/2}) keeps its decay for |Im s| < pi; the lattice takes
        # half that strip.
        res = integrate_1d(fs, s_lo, s_hi, cfg, math.pi / 2)
        return res.value, res.error
