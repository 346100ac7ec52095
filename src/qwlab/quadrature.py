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
checks and the contour sum on its hyperbola all read `nodes_1d`.  Two
grids keep their own form: the GL(2) profile (`whittaker.profile_grid`),
folded onto m >= 0, and the N = 3 pattern lattice
(`whittaker._pattern_sum_3`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp

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
    # mends (ROADMAP item 5).
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
    total = mass = mp.mpf(0)

    def value_at(level):
        nonlocal total, mass
        h = mp.mpf(h0) / 2**level
        terms = terms_at(level)
        total = total / 2 + h * mp.fsum(terms)
        mass = mass / 2 + h * mp.fsum(abs(v) for v in terms)
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
