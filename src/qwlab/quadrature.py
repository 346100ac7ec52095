"""Refined quadrature in mpmath arithmetic: one stopping rule, one lattice.

`refine` is the one place the stopping rule lives: refinement stops when
two successive levels agree to the target relative error, and the last
disagreement is reported as the error estimate.  Every refined value in the
lab goes through it.

The one rule for 1-d sums is the nested trapezoid rule on the lattice
t = j h0 / 2^k.  The lab's integrands (Gamma products on a spectral line,
cutoff integrals, K-Bessel products) are analytic in a strip about the real
line and decay along it, and there the rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014).  Its levels nest: `nodes_1d`
gives the points a level adds, so a level's sum is half the last level's
plus its own, and each point is evaluated once (`trapezoid_refine`,
`integrate_1d`).  The Stade integrals, the spectral sums of the dual Baxter
checks and the contour sum on its hyperbola all read `nodes_1d`.  The GL(2)
profile (`whittaker.pair_profile`) nests the same way on its own lattice,
folded onto t >= 0: it sums each level's new points on integers and hands
`trapezoid_sums` the level's sum and modulus mass.  Two grids keep their
own form: the spectral sum's chi grid (`whittaker.profile_grid`), one level
of that lattice, and the N = 3 pattern lattice (`whittaker._pattern_sum_3`),
summed afresh at each halving of its step.

Two of these sums run on a map of the real line rather than on the
integration variable itself.  Stade's cutoff integral in y, whose left tail
decays only like e^{Re(r) y}, is summed in tau with the double-exponential
map y = tau - e^{-tau} (Takahasi & Mori 1974; Trefethen & Weideman 2014),
which makes that tail double-exponential too (`whittaker.stade_check`);
the contour sum runs in the parameter of its hyperbola
(`baxter._hyperbola`).  The other sums are taken in their own variable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import mpmath as mp
from mpmath.libmp import from_int, mpc_exp, mpf_mul, to_fixed

from .qcore import MIN_PREC_BITS, DomainError, QwlabError

GAUSS_LEGENDRE = "gauss-legendre-composite"


class QuadratureError(QwlabError):
    """Refinement failed to converge; diagnostics carry the level history."""


@dataclass(frozen=True)
class QuadratureConfig:
    # Nothing reads `scheme` or `box_halfwidth`: the one scheme value names
    # no rule in src (the panel rule it named is the tests' oracle now), and
    # each truncated window is sized by its caller.  Both fields stay while
    # the benchmark workloads still pass them, and go with the benchmark
    # mends (ROADMAP item 1).
    scheme: str = GAUSS_LEGENDRE
    box_halfwidth: float = 12.0
    target_rel_error: float = 1e-10
    max_depth: int = 8
    prec_bits: int | None = None

    def __post_init__(self):
        if self.scheme != GAUSS_LEGENDRE:
            raise QwlabError(f"unknown quadrature scheme {self.scheme!r}")
        if self.box_halfwidth <= 0 or self.target_rel_error <= 0:
            raise QwlabError("box half-width and target error must be positive")
        if self.prec_bits is not None and self.prec_bits < MIN_PREC_BITS:
            raise DomainError(
                f"precision must be >= {MIN_PREC_BITS} bits, got {self.prec_bits}")

    def working_prec(self) -> int:
        if self.prec_bits is not None:
            return self.prec_bits
        return max(64, int(-math.log2(self.target_rel_error)) + 30)

    def integrand_prec(self) -> int:
        """Precision the integrand is evaluated and summed at: the extra bits
        absorb accumulation error in long sums."""
        return self.working_prec() + 30


@dataclass
class QuadResult:
    value: object
    error: object
    diagnostics: dict = field(default_factory=dict)


# Ulps of rounding per term of a trapezoid sum, against the sum of the
# terms' moduli: each term's node, weight and integrand factors round.  On
# the contour (`baxter.contour_apply`) at N = 1 and u <= 28 the sum's
# rounding error reached 2 ulps of that mass, coherently.
TERM_ULPS = 8


def nodes_1d(level: int, lo, hi, h0) -> list:
    """The lattice points t = j h, h = h0 / 2^level, that the level adds
    inside [lo, hi], in increasing order: every j at level 0, odd j after
    that, so levels 0..k together give each point of the h0 / 2^k lattice
    on [lo, hi] once.  A point belongs to [lo, hi] as computed, j times h at
    the working precision, so every level agrees on the ends."""
    h = mp.mpf(h0) / 2**level
    first, last = int(mp.floor(lo / h)), int(mp.ceil(hi / h))
    if level and not first % 2:
        first += 1
    points = (j * h for j in range(first, last + 1, 2 if level else 1))
    return [t for t in points if lo <= t <= hi]


def refine(value_at, levels, cfg: QuadratureConfig, label: str) -> QuadResult:
    """Evaluate value_at(level) over the levels until two successive values
    agree to cfg.target_rel_error; the last difference is the error estimate,
    and the diagnostics hold {"levels": k}, the number of levels taken.

    The caller sets the working precision around the call."""
    history = []
    for level in levels:
        history.append(value_at(level))
        if len(history) > 1:
            err = abs(history[-1] - history[-2])
            if err <= cfg.target_rel_error * abs(history[-1]):
                return QuadResult(+history[-1], +err, {"levels": len(history)})
    raise QuadratureError(
        f"{label} did not converge "
        f"(last values {[mp.nstr(abs(h), 8) for h in history[-3:]]})"
    )


def trapezoid_refine(terms_at, h0, cfg: QuadratureConfig, label: str) -> QuadResult:
    """The nested trapezoid rule through `refine`: terms_at(level) gives the
    integrand at the points nodes_1d(level, ..., h0) adds, and level k's value
    is S_k = S_{k-1}/2 + h_k sum(terms_at(k)), h_k = h0 / 2^k, the trapezoid
    sum on the level-k lattice with each point evaluated once.

    The error field adds the sum's rounding to the last difference:
    TERM_ULPS units of 2^-prec of h_k sum |terms| through level k, prec
    being the precision the caller sets around the call.  Two levels can
    agree in every bit, and the estimate still is not 0."""

    def sums_at(level):
        terms = terms_at(level)
        return mp.fsum(terms), mp.fsum(abs(v) for v in terms)

    return trapezoid_sums(sums_at, h0, cfg, label)


def trapezoid_sums(sums_at, h0, cfg: QuadratureConfig, label: str) -> QuadResult:
    """`trapezoid_refine` for a caller that sums a level's new terms itself:
    sums_at(level) gives (sum of the terms, a bound on the sum of their
    moduli) over the points the level adds, each point taken once."""
    total = mass = mp.mpf(0)

    def value_at(level):
        nonlocal total, mass
        h = mp.mpf(h0) / 2**level
        part, part_mass = sums_at(level)
        total = total / 2 + h * part
        mass = mass / 2 + h * part_mass
        return total

    res = refine(value_at, range(cfg.max_depth), cfg, label)
    return QuadResult(res.value, res.error + TERM_ULPS * mass / 2**mp.mp.prec, res.diagnostics)


def lattice_need(target: float) -> float:
    """need = -log(target) + 12, in e-folds: level 0 of `integrate_1d` puts
    the trapezoid error near e^{-need}, and its callers cut their windows'
    tails at e^{-2 need}."""
    return -math.log(target) + 12


def integrate_1d(f, lo, hi, cfg: QuadratureConfig, strip) -> QuadResult:
    """integral of f over [lo, hi] by `trapezoid_refine` on the lattice
    t = j h0 / 2^k, h0 = 2 pi strip / need, need = lattice_need(target).
    For f analytic and integrable in |Im t| < strip, the trapezoid error is
    about e^{-2 pi strip / h} times the integral of |f| on the strip's edges
    (Trefethen & Weideman, SIAM Rev. 56, 2014): near e^{-need} at level 0,
    squared at each halving.  The refinement cannot see truncation, so the
    caller's window must cut the tails far below that, at e^{-2 need}."""
    h0 = 2 * math.pi * strip / lattice_need(cfg.target_rel_error)
    label = f"1-d quadrature on [{lo}, {hi}]"
    with mp.workprec(cfg.integrand_prec()):
        return trapezoid_refine(lambda level: [f(t) for t in nodes_1d(level, lo, hi, h0)],
                                h0, cfg, label)


# ---------------------------------------------------------------------------
# Lattice phases and fixed-point sums
# ---------------------------------------------------------------------------
#
# Two sums run on integers: the GL(2) profile (`whittaker.pair_profile`) and
# the rank-8 pair sum of the N = 2 spectral integral
# (`baxter._rank8_pair_sum`).  Their weights are integers at 2^-shift (the
# rank-8 sum scales its mpc weights once by `_fixed_point`), their phases
# are integers at 2^-scale advanced by `_fixed_rotate`, and each sum is an
# exact integer dot product (`_fixed_dot`), rounded once.


def _fixed_point(values, bits: int):
    """Complex values as integer lists (re, im) times 2^-shift, the shift
    chosen so that the largest real or imaginary part is below 2^bits."""
    parts = [v._mpc_ for v in values]
    top = max((exp + bc for part in parts for _, man, exp, bc in part if man), default=0)
    shift = bits - top
    return ([to_fixed(re, shift) for re, _ in parts],
            [to_fixed(im, shift) for _, im in parts], shift)


def _fixed_dot(weights, re_phases, im_phases, scale: int):
    """sum_j re_j re_phase_j + i sum_j im_j im_phase_j as an mpc, from
    weights (re, im, shift), integer lists at 2^-shift as `_fixed_point`
    gives them, and integer phases at 2^-scale."""
    re, im, shift = weights
    unit = -(shift + scale)
    return mp.mpc(mp.mpf((sum(map(operator.mul, re, re_phases)), unit)),
                  mp.mpf((sum(map(operator.mul, im, im_phases)), unit)))


def _fixed_rotate(cos, sin, step_cos, step_sin, scale: int):
    """Each phase cos_j + i sin_j times its step step_cos_j + i step_sin_j,
    all integers at 2^-scale: one complex multiply per phase, floored to
    2^-scale, so a part gains under 1 unit beyond its factors' errors."""
    return ([(c * sc - s * ss) >> scale for c, s, sc, ss in zip(cos, sin, step_cos, step_sin)],
            [(c * ss + s * sc) >> scale for c, s, sc, ss in zip(cos, sin, step_cos, step_sin)])


def _fixed_ladder(c, first: int, stride: int, count: int, scale: int):
    """e^{(first + stride i) c} for i < count, c an mpc or mpf, as integer
    lists (re, im) at 2^-scale: (cos, sin) of a real angle when c is
    imaginary.  The first entry and the step e^{stride c} come from mpc_exp,
    each off by at most 2 units per part.  The table doubles: the n entries
    it holds are multiplied by the step (`_fixed_rotate`), and the step is
    squared.  A multiply adds its factors' errors and its floor, so for
    |e^{stride c}| <= 1 the entry i is off by at most 5 i + 3 units, and a
    growing ladder's entries by as many units relative to their size."""
    re, im = mp.mpc(c)._mpc_

    def fresh(k):
        k = from_int(k)
        value = mpc_exp((mpf_mul(re, k), mpf_mul(im, k)), scale, "n")
        return [to_fixed(value[0], scale)], [to_fixed(value[1], scale)]

    out_re, out_im = fresh(first)
    step_re, step_im = fresh(stride)
    while len(out_re) < count:
        n = len(out_re)
        more_re, more_im = _fixed_rotate(out_re, out_im, step_re * n, step_im * n, scale)
        out_re += more_re
        out_im += more_im
        step_re, step_im = _fixed_rotate(step_re, step_im, step_re, step_im, scale)
    return out_re[:count], out_im[:count]
