"""Reference implementations that only the tests use.

Each one is the plain, slow form of something the package computes faster,
or a formula that a package docstring states, kept so that the package can
be checked against it.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from qwlab.qcore import DomainError
from qwlab.quadrature import QuadratureConfig, QuadResult, refine
from qwlab.symfunc import (
    SingularMatrixError,
    SymmetricPolynomial,
    monomial_to_power,
    weight,
    zsym,
)


def power_norm_fraction(mu, q, t) -> Fraction:
    """<p_mu, p_mu> = z_mu prod_i (1 - q^{mu_i}) / (1 - t^{mu_i}), in Fractions."""
    val = Fraction(zsym(mu))
    for part in mu:
        denom = 1 - Fraction(t) ** part
        if denom == 0:
            raise SingularMatrixError(f"inner product degenerate at t^{part} = 1")
        val *= (1 - Fraction(q) ** part) / denom
    return val


def monomial_value_oracle(mu, z) -> Fraction:
    """m_mu(z) by a bare loop of Fraction products over the distinct
    permutations of mu padded with zeros."""
    padded = tuple(mu) + (0,) * (len(z) - len(mu))
    total = Fraction(0)
    for alpha in set(itertools.permutations(padded)):
        term = Fraction(1)
        for zi, e in zip(z, alpha):
            term *= Fraction(zi) ** e
        total += term
    return total


def monomial_gram_fraction(n: int, q, t):
    """Gram matrix <m_a, m_b> at degree n, summed entry by entry in Fractions:
    <m_a, m_b> = sum_mu A[a][mu] A[b][mu] <p_mu, p_mu>."""
    parts, A = monomial_to_power(n)
    norms = {mu: power_norm_fraction(mu, q, t) for mu in parts}
    gram = {}
    for a in parts:
        for b in parts:
            if (b, a) in gram:
                gram[(a, b)] = gram[(b, a)]
                continue
            acc = Fraction(0)
            for mu, ca in A[a].items():
                cb = A[b].get(mu)
                if cb is not None:
                    acc += ca * cb * norms[mu]
            gram[(a, b)] = acc
    return parts, gram


def inner_product(f: SymmetricPolynomial, g: SymmetricPolynomial, q, t) -> Fraction:
    """(q,t) inner product of two homogeneous symmetric polynomials, through
    the Fraction Gram matrix."""
    if f.nvars != g.nvars:
        raise DomainError("inner product needs a common number of variables")
    degs = {weight(mu) for mu in f.terms} | {weight(mu) for mu in g.terms}
    if len(degs) > 1:
        raise DomainError("inner product needs homogeneous inputs")
    if not degs:
        return Fraction(0)
    _, gram = monomial_gram_fraction(degs.pop(), Fraction(q), Fraction(t))
    acc = Fraction(0)
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            acc += ca * cb * gram[(a, b)]
    return acc


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


def gauss_legendre_nodes(level: int, lo, hi, prec: int) -> tuple:
    """Composite Gauss-Legendre nodes/weights on [lo, hi]: ceil(width / 3)
    panels of GL_ORDER points, doubled at each refinement level.  Panel
    nodes do not nest, so each level evaluates all of them afresh."""
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


def integrate_nd(f, boxes, cfg: QuadratureConfig) -> QuadResult:
    """Adaptive tensor-product integral over a list of [lo, hi] boxes: every
    node tuple of the composite Gauss-Legendre axes, through `refine`.  An
    independent rule beside the package's trapezoid lattice: it needs no
    strip of analyticity and no decay at the ends of the box."""
    prec = cfg.working_prec()

    def value_at(level):
        axes = [gauss_legendre_nodes(level, lo, hi, prec) for lo, hi in boxes]
        return _tensor_sum(f, axes, ())

    with mp.workprec(cfg.integrand_prec()):
        return refine(value_at, range(cfg.max_depth), cfg,
                      f"{len(boxes)}-d quadrature")


def _tensor_sum(f, axes, prefix):
    total = mp.mpf(0)
    if len(axes) == 1:
        for x, w in axes[0]:
            total = total + w * f(prefix + (x,))
        return total
    for x, w in axes[0]:
        total = total + w * _tensor_sum(f, axes[1:], prefix + (x,))
    return total


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
    """The exponent F_lam(X) of the Givental integrand (the `whittaker`
    module docstring), summed row by row."""
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


def gauss_legendre_pattern_3(lam, x, row1, row2, cfg: QuadratureConfig) -> QuadResult:
    """The N = 3 pattern integral by composite Gauss-Legendre on explicit
    windows: row1 for the row-1 entry, row2 for both row-2 entries.

    The row-1 entry z1 couples to each row-2 entry (z2, z3), and those two
    do not couple to each other, so at each row-1 node the double sum over
    row 2 is a product of two single sums:

        total = sum_1 p1 (sum_2 p2 e^{-(E1/E2 + a2)}) (sum_3 p3 e^{-(E3/E1 + a3)})

    with E = e^z and a2, a3 the couplings of z2, z3 to the top row x.  The
    refinement estimate cannot see the windows' truncation, so they must be
    wide: pad 7 about the top-row hull leaves a row-1 tail near 1e-11, and
    pad 12 one far below any target."""
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
            ax1 = []
            for t, wt in gauss_legendre_nodes(level, row1[0], row1[1], prec):
                E = mp.exp(t)
                ax1.append((E, 1 / E, wt * mp.exp(d12 * t)))
            ax2 = []
            ax3 = []
            for t, wt in gauss_legendre_nodes(level, row2[0], row2[1], prec):
                E = mp.exp(t)
                iE = 1 / E
                p23 = wt * mp.exp(d23 * t)
                ax2.append((iE, E * c1 + c2 * iE, p23))
                ax3.append((E, E * c3 + c4 * iE, p23))
            total = mp.mpc(0)
            for E1, iE1, p1 in ax1:
                s2 = mp.fsum(p2 * mp.exp(-(E1 * iE2 + a2)) for iE2, a2, p2 in ax2)
                s3 = mp.fsum(p3 * mp.exp(-(E3 * iE1 + a3)) for E3, a3, p3 in ax3)
                total += p1 * s2 * s3
            return const * total

        return refine(value_at, range(cfg.max_depth), cfg, "pattern quadrature")


def a_eps_corrected(epsilon) -> mp.mpf:
    """log (q;q)_inf asymptotic at q = e^{-eps}: -(pi^2/6)/eps - log(eps/(2 pi))/2
    (the `limits` module docstring)."""
    eps = mp.mpf(epsilon)
    if not 0 < eps < 1:
        raise DomainError("epsilon must lie in (0, 1)")
    return -mp.pi**2 / (6 * eps) - mp.log(eps / (2 * mp.pi)) / 2
