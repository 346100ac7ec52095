"""Reference implementations that only the tests use.

Each one is the plain, slow form of something the package computes faster,
or a formula that a package docstring states, kept so that the package can
be checked against it.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from qwlab.qcore import DomainError
from qwlab.quadrature import QuadratureConfig, QuadResult, integrate_1d, nodes_1d, refine
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


def integrate_nd(f, boxes, cfg: QuadratureConfig) -> QuadResult:
    """Adaptive tensor-product integral over a list of [lo, hi] boxes: every
    node tuple of the composite Gauss-Legendre axes, through `refine`."""
    if len(boxes) == 1:
        return integrate_1d(lambda x: f((x,)), boxes[0][0], boxes[0][1], cfg)
    prec = cfg.working_prec()

    def value_at(level):
        axes = [nodes_1d(level, lo, hi, prec) for lo, hi in boxes]
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


def a_eps_corrected(epsilon) -> mp.mpf:
    """log (q;q)_inf asymptotic at q = e^{-eps}: -(pi^2/6)/eps - log(eps/(2 pi))/2
    (the `limits` module docstring)."""
    eps = mp.mpf(epsilon)
    if not 0 < eps < 1:
        raise DomainError("epsilon must lie in (0, 1)")
    return -mp.pi**2 / (6 * eps) - mp.log(eps / (2 * mp.pi)) / 2
