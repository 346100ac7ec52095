"""Partitions, signatures, and Macdonald polynomials in exact arithmetic.

Macdonald polynomials are constructed by three independent routes so that
bugs in any one route cannot pass unnoticed:

* Gram-Schmidt against the (q,t) power-sum inner product (the defining
  characterization: monic in m_lambda, orthogonal to dominance-lower
  monomials);
* the eigenvector of the first Macdonald q-difference operator, solved in
  the monomial basis;
* for t = 0, the interlacing branching sum with q-Pochhammer weights.

All three run over exact rationals; agreement is checked exactly in the
test suite.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qcore import DomainError, QwlabError, qpoch_finite

MAX_DEGREE = 6
MAX_NVARS = 4


class SingularMatrixError(QwlabError):
    """Exact linear solve hit a zero pivot (degenerate parameters)."""


class DegenerateEigenvalueError(QwlabError):
    """Eigenvalues of the difference operator collide at these (q,t)."""


# ---------------------------------------------------------------------------
# Partitions and signatures (plain tuples; partitions are trimmed of zeros)
# ---------------------------------------------------------------------------


def trim(parts) -> tuple:
    """Canonical partition form: drop trailing zeros."""
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def check_partition(lam) -> tuple:
    lam = trim(lam)
    for i, p in enumerate(lam):
        if p < 0 or (i + 1 < len(lam) and lam[i + 1] > p):
            raise DomainError(f"not a partition: {lam}")
    return lam


def check_signature(sig) -> tuple:
    sig = tuple(sig)
    for i in range(len(sig) - 1):
        if sig[i] < sig[i + 1]:
            raise DomainError(f"not weakly decreasing: {sig}")
    return sig


def weight(lam) -> int:
    return sum(lam)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        raise DomainError("partition weight must be >= 0")
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return tuple(out)


def dominance_leq(mu, lam) -> bool:
    """True iff mu <= lam in dominance order; requires |mu| = |lam|."""
    mu, lam = trim(mu), trim(lam)
    if weight(mu) != weight(lam):
        raise DomainError(f"dominance needs equal weights: {mu} vs {lam}")
    acc_mu = acc_lam = 0
    for k in range(max(len(mu), len(lam))):
        acc_mu += mu[k] if k < len(mu) else 0
        acc_lam += lam[k] if k < len(lam) else 0
        if acc_mu > acc_lam:
            return False
    return True


def zsym(lam) -> int:
    """z_lambda = prod_i i^{m_i} m_i! with m_i the multiplicity of i."""
    z = 1
    for part in set(lam):
        m = lam.count(part)
        z *= part**m
        for j in range(1, m + 1):
            z *= j
    return z


# ---------------------------------------------------------------------------
# Monomial symmetric polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricPolynomial:
    """Symmetric polynomial in the monomial basis: terms maps partition -> coeff.

    Invariants: keys are trimmed partitions of length <= nvars; zero
    coefficients are never stored.
    """

    terms: dict
    nvars: int

    def __post_init__(self):
        clean = {}
        for mu, c in self.terms.items():
            mu = check_partition(mu)
            if len(mu) > self.nvars:
                raise DomainError(f"partition {mu} too long for {self.nvars} variables")
            if c != 0:
                clean[mu] = c
        object.__setattr__(self, "terms", clean)

    def coefficient(self, mu):
        return self.terms.get(trim(mu), 0)

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))


def monomial_value(mu, z: tuple):
    """m_mu(z): sum of x^alpha over distinct permutations alpha of mu."""
    n = len(z)
    mu = trim(mu)
    if len(mu) > n:
        return z[0] * 0
    padded = mu + (0,) * (n - len(mu))
    total = z[0] * 0
    for perm in set(itertools.permutations(padded)):
        term = z[0] * 0 + 1
        for zi, e in zip(z, perm):
            if e:
                term = term * zi**e
        total = total + term
    return total


def eval_symmetric(f: SymmetricPolynomial, z) -> object:
    """Evaluate f at the point z; len(z) must equal f.nvars."""
    z = tuple(z)
    if len(z) != f.nvars:
        raise DomainError(f"arity mismatch: polynomial in {f.nvars} vars, point has {len(z)}")
    total = z[0] * 0 if z else Fraction(0)
    for mu in sorted(f.terms):
        total = total + f.terms[mu] * monomial_value(mu, z)
    return total


# ---------------------------------------------------------------------------
# Exact linear algebra (small dense systems over Fraction)
# ---------------------------------------------------------------------------


def solve_exact(A, B):
    """Solve A X = B by Gauss-Jordan elimination over exact scalars.  B and
    the returned X are lists of rows, one column per right-hand side."""
    n = len(A)
    M = [list(row) + list(b) for row, b in zip(A, B)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular system in exact solve")
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


# ---------------------------------------------------------------------------
# Transition matrices between power sums and monomials (cached per degree)
# ---------------------------------------------------------------------------


def _expand_power_product(mu, n: int) -> dict:
    """Expand p_mu = prod_j (x_1^{mu_j} + ... + x_n^{mu_j}) over n variables."""
    poly = {(0,) * n: 1}
    for r in mu:
        new = {}
        for expo, c in poly.items():
            for i in range(n):
                e2 = list(expo)
                e2[i] += r
                e2 = tuple(e2)
                new[e2] = new.get(e2, 0) + c
        poly = new
    return poly


@lru_cache(maxsize=None)
def power_to_monomial(n: int):
    """Matrix R with p_mu = sum_kappa R[mu][kappa] m_kappa at degree n.

    Coefficients are read off the sorted-descending representative monomial,
    which is exact for symmetric polynomials.  n variables are faithful for
    degree-n symmetric functions.
    """
    parts = partitions_of(n)
    R = {}
    for mu in parts:
        poly = _expand_power_product(mu, n)
        row = {}
        for kappa in parts:
            rep = kappa + (0,) * (n - len(kappa))
            c = poly.get(rep, 0)
            if c:
                row[kappa] = c
        R[mu] = row
    return parts, R


@lru_cache(maxsize=None)
def monomial_to_power(n: int):
    """Matrix A with m_lambda = sum_mu A[lambda][mu] p_mu at degree n."""
    parts, R = power_to_monomial(n)
    idx = {p: i for i, p in enumerate(parts)}
    dense = [[Fraction(R[mu].get(kappa, 0)) for kappa in parts] for mu in parts]
    identity = [[Fraction(int(i == j)) for j in range(len(parts))] for i in range(len(parts))]
    inv = solve_exact(dense, identity)
    A = {}
    for lam in parts:
        A[lam] = {mu: inv[idx[lam]][idx[mu]] for mu in parts if inv[idx[lam]][idx[mu]] != 0}
    return parts, A


def _power_norm(mu, q: Fraction, t: Fraction) -> Fraction:
    """<p_mu, p_mu> = z_mu prod_i (1 - q^{mu_i}) / (1 - t^{mu_i})."""
    val = Fraction(zsym(mu))
    for part in mu:
        denom = 1 - Fraction(t) ** part
        if denom == 0:
            raise SingularMatrixError(f"inner product degenerate at t^{part} = 1")
        val *= (1 - Fraction(q) ** part) / denom
    return val


def monomial_gram(n: int, q: Fraction, t: Fraction):
    """Gram matrix <m_a, m_b> at degree n under the (q,t) inner product."""
    parts, A = monomial_to_power(n)
    norms = {mu: _power_norm(mu, q, t) for mu in parts}
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


# ---------------------------------------------------------------------------
# Macdonald polynomials: Gram-Schmidt route
# ---------------------------------------------------------------------------


def macdonald_gram_schmidt(lam, q, t, nvars: int | None = None,
                           degree_cap: int = MAX_DEGREE) -> SymmetricPolynomial:
    """P_lambda as m_lambda + (dominance-lower terms), orthogonal to all
    m_mu with mu < lambda under the (q,t) power-sum inner product.

    Returns the expansion restricted to nvars variables (default |lambda|);
    the monomial coefficients do not depend on the number of variables.
    """
    lam = check_partition(lam)
    n = weight(lam)
    if n > degree_cap:
        raise DomainError(f"|lambda| = {n} exceeds degree cap {degree_cap}")
    q, t = Fraction(q), Fraction(t)
    if nvars is None:
        nvars = max(n, 1)  # |lambda| variables keep the full stable expansion
    elif nvars < 1:
        raise DomainError(f"need at least one variable, got nvars = {nvars}")
    parts, gram = monomial_gram(n, q, t)
    lower = [mu for mu in parts if mu != lam and dominance_leq(mu, lam)]
    coeffs = {lam: Fraction(1)}
    if lower:
        A = [[gram[(mu, kappa)] for mu in lower] for kappa in lower]
        rhs = [-gram[(lam, kappa)] for kappa in lower]
        sol = [x for (x,) in solve_exact(A, [[r] for r in rhs])]
        for mu, c in zip(lower, sol):
            coeffs[mu] = c
    terms = {mu: c for mu, c in coeffs.items() if len(mu) <= nvars}
    return SymmetricPolynomial(terms, nvars)


def inner_product(f: SymmetricPolynomial, g: SymmetricPolynomial,
                  q, t) -> Fraction:
    """(q,t) inner product of two homogeneous symmetric polynomials."""
    if f.nvars != g.nvars:
        raise DomainError("inner product needs a common number of variables")
    degs = {weight(mu) for mu in f.terms} | {weight(mu) for mu in g.terms}
    if len(degs) > 1:
        raise DomainError("inner product needs homogeneous inputs")
    if not degs:
        return Fraction(0)
    n = degs.pop()
    _, gram = monomial_gram(n, Fraction(q), Fraction(t))
    acc = Fraction(0)
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            acc += ca * cb * gram[(a, b)]
    return acc


# ---------------------------------------------------------------------------
# Macdonald polynomials: first q-difference operator route
# ---------------------------------------------------------------------------


def d1_apply_point(f: SymmetricPolynomial, z, q, t):
    """Evaluate (D1 f)(z) with D1 = sum_i prod_{j!=i} (t z_i - z_j)/(z_i - z_j) T_{q,z_i}."""
    z = tuple(z)
    total = z[0] * 0
    for i in range(len(z)):
        num = z[0] * 0 + 1
        den = z[0] * 0 + 1
        for j in range(len(z)):
            if j != i:
                num = num * (t * z[i] - z[j])
                den = den * (z[i] - z[j])
        if den == 0:
            raise DomainError("coincident coordinates in difference operator")
        shifted = z[:i] + (q * z[i],) + z[i + 1:]
        total = total + (num / den) * eval_symmetric(f, shifted)
    return total


def d1_eigenvalue(lam, N: int, q, t):
    """sum_i q^{lambda_i} t^{N-i} with lambda padded to length N."""
    lam = trim(lam)
    padded = lam + (0,) * (N - len(lam))
    acc = Fraction(0)
    for i in range(N):
        acc += Fraction(q) ** padded[i] * Fraction(t) ** (N - 1 - i)
    return acc


def _sample_distinct_fractions(rng: random.Random, count: int, max_den: int = 40):
    vals = []
    while len(vals) < count:
        v = Fraction(rng.randint(1, max_den), rng.randint(1, max_den))
        if rng.random() < 0.5:
            v = -v
        if v != 0 and v not in vals:
            vals.append(v)
    return tuple(vals)


def _d1_matrix(n: int, N: int, q, t):
    """Matrix of D1 on degree-n symmetric polynomials in N variables,
    in the monomial basis, found by exact evaluation at generic points."""
    basis = [mu for mu in partitions_of(n) if len(mu) <= N]
    k = len(basis)
    rng = random.Random(0x5EED ^ (n * 131 + N))
    for _ in range(64):
        points = [_sample_distinct_fractions(rng, N) for _ in range(k)]
        E = [[monomial_value(mu, pt) for mu in basis] for pt in points]
        # Column s of V holds D1 m_s at the points; E X = V gives its
        # monomial coefficients.
        V = [[d1_apply_point(SymmetricPolynomial({mu: Fraction(1)}, N), pt, q, t)
              for mu in basis] for pt in points]
        try:
            X = solve_exact(E, V)
        except SingularMatrixError:
            continue
        return basis, {mu: [row[s] for row in X] for s, mu in enumerate(basis)}
    raise SingularMatrixError("could not find generic evaluation points")


def macdonald_triangular_eigen(lam, N: int, q, t,
                               degree_cap: int = MAX_DEGREE) -> SymmetricPolynomial:
    """P_lambda in N variables as the D1 eigenvector with eigenvalue
    sum_i q^{lambda_i} t^{N-i}, normalized so the m_lambda coefficient is 1."""
    lam = check_partition(lam)
    n = weight(lam)
    if n > degree_cap:
        raise DomainError(f"|lambda| = {n} exceeds degree cap {degree_cap}")
    if N > MAX_NVARS:
        raise DomainError(f"N = {N} exceeds variable cap {MAX_NVARS}")
    if len(lam) > N:
        raise DomainError(f"lambda = {lam} has more parts than N = {N}")
    q, t = Fraction(q), Fraction(t)
    if n == 0:
        return SymmetricPolynomial({(): Fraction(1)}, N)
    basis, cols = _d1_matrix(n, N, q, t)
    eig = d1_eigenvalue(lam, N, q, t)
    for mu in basis:
        if mu != lam and d1_eigenvalue(mu, N, q, t) == eig:
            raise DegenerateEigenvalueError(
                f"eigenvalue collision between {lam} and {mu} at q={q}, t={t}"
            )
    # Solve (M - eig I) x = 0 with x_lam = 1: move the lam-column to the rhs.
    others = [mu for mu in basis if mu != lam]
    idx = {mu: i for i, mu in enumerate(basis)}
    if others:
        A = [
            [cols[mu][idx[kappa]] - (eig if mu == kappa else 0) for mu in others]
            for kappa in basis
            if kappa != lam
        ]
        rhs = [-(cols[lam][idx[kappa]]) for kappa in basis if kappa != lam]
        sol = [x for (x,) in solve_exact(A, [[r] for r in rhs])]
    else:
        sol = []
    coeffs = {lam: Fraction(1)}
    for mu, c in zip(others, sol):
        coeffs[mu] = c
    # Consistency: the lam-row must close the eigen equation exactly.
    residual = cols[lam][idx[lam]] - eig
    for mu, c in zip(others, sol):
        residual += cols[mu][idx[lam]] * c
    if residual != 0:
        raise DegenerateEigenvalueError("eigenvector solve is inconsistent")
    return SymmetricPolynomial(coeffs, N)


# ---------------------------------------------------------------------------
# t = 0 branching evaluation (q-Whittaker functions), signatures allowed
# ---------------------------------------------------------------------------


def qwhittaker_branch_eval(sig, z, q):
    """P_sig(z; q, t=0) by the interlacing branching sum.

    sig is a signature (weakly decreasing integers, negatives allowed);
    negative parts are handled by the shift rule
    P_{sig + c(1,...,1)} = (prod z_i)^c P_sig.
    """
    sig = check_signature(sig)
    z = tuple(z)
    if len(z) != len(sig):
        raise DomainError(f"need len(z) = len(sig), got {len(z)} vs {len(sig)}")
    if not sig:
        return z[0] * 0 + 1 if z else 1
    shift = min(sig[-1], 0)
    lam = tuple(p - shift for p in sig)
    one = z[0] * 0 + 1

    # Every gap that appears in the weights is bounded by lam_1 - lam_N.
    max_gap = lam[0] - lam[-1]
    qq = [one]
    acc = one
    qk = q
    for _ in range(max_gap):
        acc = acc * (one - qk)
        qq.append(acc)
        qk = qk * q

    memo = {}

    def rec(mu: tuple, n: int):
        # P_mu(z_1..z_n; q, 0) for a weakly decreasing nonneg tuple mu.
        if n == 1:
            return z[0] ** mu[0] if mu[0] else one
        key = (n, mu)
        if key in memo:
            return memo[key]
        total = None
        ranges = [range(mu[i + 1], mu[i] + 1) for i in range(n - 1)]
        for nu in itertools.product(*ranges):
            w = one
            for i in range(n - 1):
                w = w * qq[mu[i] - mu[i + 1]] / (qq[mu[i] - nu[i]] * qq[nu[i] - mu[i + 1]])
            term = w * rec(tuple(nu), n - 1)
            e = sum(mu) - sum(nu)
            if e:
                term = term * z[n - 1] ** e
            total = term if total is None else total + term
        memo[key] = total
        return total

    value = rec(lam, len(lam))
    if shift:
        prod_z = one
        for zi in z:
            prod_z = prod_z * zi
        value = value * prod_z**shift
    return value
