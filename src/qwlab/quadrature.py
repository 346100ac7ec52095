"""Adaptive quadrature over truncated boxes, in mpmath arithmetic.

The one rule is composite Gauss-Legendre: fixed-order panels, refined by
doubling the panel count.  Every lab integrand is smooth on its truncated
box, and the tests anchor the rule against closed forms.  The lab's
multi-dimensional sums (the N = 3 pattern sum, the contour and spectral
sums) are built on the same node sets.  The exception is the GL(2) profile
2 K_{i delta}(z) (the N = 2 Whittaker function and the N = 2 spectral sum's
chi grid): a trapezoid sum on `whittaker.profile_grid`.

`refine` is the one place the stopping rule lives: refinement stops when
two successive levels agree to the target relative error, and the last
disagreement is reported as the error estimate.  Every refined value in the
lab (these integrals, the profile sum, the N = 3 pattern sum, the contour
and spectral sums of the dual Baxter checks) goes through it.  The contour
sum is a trapezoid sum on one smooth contour whose levels nest, so each of
its levels evaluates only the nodes the level adds (`baxter._hyperbola`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath as mp

from .qcore import MIN_PREC_BITS, DomainError, QwlabError

GAUSS_LEGENDRE = "gauss-legendre-composite"


class QuadratureError(QwlabError):
    """Refinement failed to converge; diagnostics carry the level history."""


@dataclass(frozen=True)
class QuadratureConfig:
    # Nothing reads `scheme`: composite Gauss-Legendre is the only rule.  The
    # field stays while the benchmark workloads still pass it.
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


GL_ORDER = 12


@lru_cache(maxsize=None)
def gauss_legendre_rule(prec: int) -> tuple:
    """GL_ORDER nodes/weights on [-1, 1], Newton-refined to the requested
    precision."""
    order = GL_ORDER
    with mp.workprec(prec + 20):
        nodes = []
        for k in range(1, order + 1):
            x = mp.mpf(math.cos(math.pi * (k - 0.25) / (order + 0.5)))
            for _ in range(60):
                p0, p1 = mp.mpf(1), x
                for n in range(2, order + 1):
                    p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
                dp = order * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x = x - dx
                if abs(dx) < mp.mpf(2) ** (-(prec + 10)):
                    break
            p0, p1 = mp.mpf(1), x
            for n in range(2, order + 1):
                p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
            dp = order * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((+x, +w))
        return tuple(nodes)


def nodes_1d(level: int, lo, hi, prec: int) -> tuple:
    """Composite Gauss-Legendre nodes/weights on [lo, hi]: ceil(width / 3)
    panels of GL_ORDER points, doubled at each refinement level."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    width = hi - lo
    panels = max(1, int(mp.ceil(width / 3))) * 2**level
    step = width / panels
    rule = gauss_legendre_rule(prec)
    half = step / 2
    out = []
    for p in range(panels):
        mid = lo + p * step + half
        for x, w in rule:
            out.append((mid + half * x, half * w))
    return tuple(out)


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


def integrate_1d(f, lo, hi, cfg: QuadratureConfig) -> QuadResult:
    """Adaptive 1-d integral of f over [lo, hi]."""
    prec = cfg.working_prec()
    label = f"1-d quadrature on [{lo}, {hi}]"

    def value_at(level):
        total = mp.mpf(0)
        for x, w in nodes_1d(level, lo, hi, prec):
            total = total + w * f(x)
        return total

    with mp.workprec(cfg.integrand_prec()):
        return refine(value_at, range(cfg.max_depth), cfg, label)
