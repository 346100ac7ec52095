"""Reference implementations that only the tests use.

Each one is the plain, slow form of something the package computes faster,
kept so that the fast form can be checked against it.
"""

from fractions import Fraction

from qwlab.qcore import DomainError
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
