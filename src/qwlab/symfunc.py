"""Partitions, signatures, and Macdonald polynomials in exact arithmetic.

Macdonald polynomials are constructed by three independent routes so that
bugs in any one route cannot pass unnoticed:

* Gram-Schmidt against the (q,t) power-sum inner product (the defining
  characterization: monic in m_lambda, orthogonal to dominance-lower
  monomials);
* the eigenvector of the first Macdonald q-difference operator: one exact
  solve for its monomial coefficients, straight from evaluations of
  (D1 - eigenvalue) m_mu at generic points;
* for t = 0, the interlacing branching sum with q-Pochhammer weights.

All three run over exact rationals; agreement is checked exactly in the
test suite.  Points, parameters and coefficients must be exact rationals
(int or Fraction); anything else raises DomainError.  The hot arithmetic
runs on integers and builds one Fraction per result.  `_scaled_monomials`
is the one shifted-monomial kernel: at z_i = a_i/b_i and q = c/e it sums
prod_i a_i^alpha_i b_i^(d - alpha_i) c^(nu.alpha) e^(|nu| d - nu.alpha) over
the exponent vectors alpha of m_mu, which is m_mu(q^nu z) times
prod_i b_i^d e^(|nu| d), for a list of shifts nu at once.  Plain evaluation
takes the zero shift, D1 its unit shifts (D_r would take the 0/1 vectors
with r ones), and the q-integral operator of `noumi` every composition of
each order.  The linear solve is Bareiss fraction-free elimination, and
each Gram entry is one integer dot product of (q,t)-free products, built
once per degree, with the power-sum norms over one common denominator.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .qcore import DomainError, QwlabError, rational_parts
from .sampling import distinct_rationals

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


@lru_cache(maxsize=None)
def _exponents(mu: tuple, n: int) -> tuple:
    """The distinct exponent vectors of m_mu in n variables: the distinct
    permutations of mu padded with zeros to length n."""
    return tuple(sorted(set(itertools.permutations(mu + (0,) * (n - len(mu))))))


def _scaled_monomials(mus, nums, dens, d: int, ratio, shifts) -> list:
    """The shifted-monomial kernel.  At the point z_i = a_i/b_i (nums, dens),
    the ratio q = c/e (ratio = (c, e)) and a degree d >= every |mu|, returns
    one row per shift nu in shifts, holding for each mu the integer

        sum_{alpha in E(mu)} prod_i a_i^alpha_i b_i^(d - alpha_i) c^(nu.alpha) e^(|nu| d - nu.alpha)
        = m_mu(q^nu z) * prod_i b_i^d * e^(|nu| d),

    E(mu) being the exponent vectors of m_mu.  Each exponent term is built
    once and reused for every shift; the zero shift gives m_mu(z) prod_i b_i^d."""
    n = len(nums)
    c, e = ratio
    cols = [[a**k * b ** (d - k) for k in range(d + 1)] for a, b in zip(nums, dens)]
    # factors[|nu|][s] = c^s e^(|nu| d - s), shared by the shifts of one weight
    factors = {}
    for size in {sum(nu) for nu in shifts}:
        top = size * d
        factors[size] = [c**s * e ** (top - s) for s in range(top + 1)]
    rows = [([0] * len(mus), nu, factors[sum(nu)]) for nu in shifts]
    for k, mu in enumerate(mus):
        if len(mu) > n:
            continue
        for alpha in _exponents(mu, n):
            term = 1
            for col, x in zip(cols, alpha):
                term *= col[x]
            for row, nu, fac in rows:
                row[k] += term * fac[sum(map(operator.mul, nu, alpha))]
    return [row for row, _, _ in rows]


def _scaled_values(f: SymmetricPolynomial, nums, dens, ratio, shifts) -> tuple:
    """f(q^nu z) for each nu in shifts, on integers from one kernel call:
    returns (values, scale, d) with f(q^nu z) = values[s] / (scale e^(|nu| d)),
    where z_i = a_i/b_i, q = c/e (ratio = (c, e)), d is the degree of f and
    scale is prod_i b_i^d times the lcm of f's coefficient denominators."""
    if len(nums) != f.nvars:
        raise DomainError(f"arity mismatch: polynomial in {f.nvars} vars, point has {len(nums)}")
    mus = sorted(f.terms)
    coeff_nums, coeff_dens = rational_parts(f.terms[mu] for mu in mus)
    d = max((weight(mu) for mu in mus), default=0)
    common = math.lcm(*coeff_dens)
    coeffs = [p * (common // c) for p, c in zip(coeff_nums, coeff_dens)]
    rows = _scaled_monomials(mus, nums, dens, d, ratio, shifts)
    values = [sum(map(operator.mul, coeffs, row)) for row in rows]
    return values, common * math.prod(dens) ** d, d


def eval_symmetric(f: SymmetricPolynomial, z) -> Fraction:
    """Evaluate f at the point z of exact rationals; len(z) must equal
    f.nvars.  The sum runs on integers over one common denominator."""
    nums, dens = rational_parts(z)
    (value,), scale, _ = _scaled_values(f, nums, dens, (1, 1), ((0,) * len(nums),))
    return Fraction(value, scale)


# ---------------------------------------------------------------------------
# Exact linear algebra (small dense systems over Fraction)
# ---------------------------------------------------------------------------


def solve_exact(A, B):
    """Solve A X = B for exact rational A and B; B and the returned X are
    lists of rows, one column per right-hand side.

    Each row of [A | B] is scaled to integers by the lcm of its
    denominators, Bareiss fraction-free elimination (exact integer division
    by the previous pivot) makes it upper triangular, and back-substitution
    runs in Fractions.  A zero pivot is skipped by the same row swap as
    Gaussian elimination, so the system is singular exactly when no row
    offers a nonzero pivot.
    """
    n = len(A)
    M = []
    for row, b in zip(A, B):
        nums, dens = rational_parts(list(row) + list(b))
        common = math.lcm(*dens)
        M.append([p * (common // c) for p, c in zip(nums, dens)])
    width = len(M[0]) if M else 0
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular system in exact solve")
        M[col], M[pivot] = M[pivot], M[col]
        top = M[col]
        pv = top[col]
        for r in range(col + 1, n):
            row = M[r]
            f = row[col]
            M[r] = [0] * (col + 1) + [(pv * row[c] - f * top[c]) // prev
                                      for c in range(col + 1, width)]
        prev = pv
    X = [None] * n
    for r in range(n - 1, -1, -1):
        row = M[r]
        X[r] = [
            (row[n + j] - sum(row[k] * X[k][j] for k in range(r + 1, n))) / Fraction(row[r])
            for j in range(width - n)
        ]
    return X


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


@lru_cache(maxsize=None)
def _gram_products(n: int):
    """The (q,t)-free half of the Gram matrix at degree n.

    With A = monomial_to_power(n) written over its common denominator L,
    returns (parts, L^2, table): table[(a, b)] lists A[a][mu] A[b][mu] L^2
    as integers for every mu in parts, for each pair with a at or before b.
    """
    parts, A = monomial_to_power(n)
    L = math.lcm(*(c.denominator for row in A.values() for c in row.values()))
    scaled = {lam: [int(A[lam].get(mu, 0) * L) for mu in parts] for lam in parts}
    table = {}
    for i, a in enumerate(parts):
        for b in parts[i:]:
            table[(a, b)] = tuple(x * y for x, y in zip(scaled[a], scaled[b]))
    return parts, L * L, table


def _power_norm(mu, g: int, h: int, c: int, e: int) -> tuple:
    """<p_mu, p_mu> = z_mu prod_i (1 - q^{mu_i}) / (1 - t^{mu_i}) at q = g/h
    and t = c/e, as an integer numerator and denominator:
    z_mu prod_p (h^p - g^p) e^p / (h^p (e^p - c^p)) over the parts p of mu."""
    num, den = zsym(mu), 1
    for part in mu:
        ep, cp = e**part, c**part
        if ep == cp:
            raise SingularMatrixError(f"inner product degenerate at t^{part} = 1")
        hp = h**part
        num *= (hp - g**part) * ep
        den *= hp * (ep - cp)
    return num, den


@lru_cache(maxsize=8)
def monomial_gram(n: int, q, t):
    """Gram matrix <m_a, m_b> at degree n under the (q,t) inner product, for
    exact rational q and t, as a read-only mapping (a, b) -> Fraction.

    <m_a, m_b> = sum_mu A[a][mu] A[b][mu] <p_mu, p_mu>: each entry is one
    integer dot product of the per-degree products (_gram_products) with the
    power-sum norms over their common denominator, and one Fraction.  The
    last few (n, q, t) are memoised, so the checks of one case share a build.
    """
    parts, scale, products = _gram_products(n)
    (g, c), (h, e) = rational_parts((q, t))
    norms = [_power_norm(mu, g, h, c, e) for mu in parts]
    common = math.lcm(*(den for _, den in norms))
    weights = [num * (common // den) for num, den in norms]
    common *= scale
    gram = {}
    for (a, b), row in products.items():
        gram[(a, b)] = gram[(b, a)] = Fraction(sum(map(operator.mul, row, weights)), common)
    return parts, MappingProxyType(gram)


# ---------------------------------------------------------------------------
# Macdonald polynomials: Gram-Schmidt route
# ---------------------------------------------------------------------------


def macdonald_gram_schmidt(lam, q, t, nvars: int | None = None) -> SymmetricPolynomial:
    """P_lambda as m_lambda + (dominance-lower terms), orthogonal to all
    m_mu with mu < lambda under the (q,t) power-sum inner product.

    Returns the expansion restricted to nvars variables (default |lambda|);
    the monomial coefficients do not depend on the number of variables.
    """
    lam = check_partition(lam)
    n = weight(lam)
    if n > MAX_DEGREE:
        raise DomainError(f"|lambda| = {n} exceeds degree cap {MAX_DEGREE}")
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


# ---------------------------------------------------------------------------
# Macdonald polynomials: first q-difference operator route
# ---------------------------------------------------------------------------


def _d1_weights(nums, dens, c: int, e: int) -> tuple:
    """The weights prod_{j!=i} (t z_i - z_j)/(z_i - z_j) of D1 at z_i = a_i/b_i
    and t = c/e over one denominator: (weights, den) with the i-th weight
    weights[i] / den.  A factor is (c a_i b_j - e a_j b_i) / (e g_ij) with
    g_ij = a_i b_j - a_j b_i, and den = e^(N-1) prod_{i<j} g_ij."""
    n = len(nums)
    gaps = [[nums[i] * dens[j] - nums[j] * dens[i] for j in range(n)] for i in range(n)]
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            if gaps[i][j] == 0:
                raise DomainError("coincident coordinates in difference operator")
            den *= gaps[i][j]
    weights = []
    for i in range(n):
        num = part = 1
        for j in range(n):
            if j != i:
                num *= c * nums[i] * dens[j] - e * nums[j] * dens[i]
                part *= gaps[i][j]
        weights.append(num * (den // part))  # exact: part divides den up to sign
    return weights, e ** (n - 1) * den


def _unit_shifts(n: int) -> list:
    """The shifts of D1: z_i -> q z_i, one per coordinate."""
    return [tuple(int(j == i) for j in range(n)) for i in range(n)]


def d1_apply_point(f: SymmetricPolynomial, z, q, t) -> Fraction:
    """Evaluate (D1 f)(z) with D1 = sum_i prod_{j!=i} (t z_i - z_j)/(z_i - z_j) T_{q,z_i},
    for exact rational z, q and t: every unit shift from one kernel call,
    summed on integers into one Fraction."""
    nums, dens = rational_parts(z)
    (qn, tn), (qd, td) = rational_parts((q, t))
    weights, den = _d1_weights(nums, dens, tn, td)
    values, scale, d = _scaled_values(f, nums, dens, (qn, qd), _unit_shifts(len(nums)))
    return Fraction(sum(map(operator.mul, weights, values)), den * scale * qd**d)


def d1_eigenvalue(lam, N: int, q, t):
    """sum_i q^{lambda_i} t^{N-i} with lambda padded to length N."""
    lam = trim(lam)
    padded = lam + (0,) * (N - len(lam))
    acc = Fraction(0)
    for i in range(N):
        acc += Fraction(q) ** padded[i] * Fraction(t) ** (N - 1 - i)
    return acc


def macdonald_triangular_eigen(lam, N: int, q, t) -> SymmetricPolynomial:
    """P_lambda in N variables as the D1 eigenvector with eigenvalue
    sum_i q^{lambda_i} t^{N-i}, normalized so the m_lambda coefficient is 1.

    One exact solve straight from evaluations: over the k partitions mu of
    |lambda| with at most N parts, row p holds ((D1 - eig) m_mu)(z_p) at a
    generic point z_p.  The eigenvalue is simple (collisions raise), so the
    kernel of D1 - eig is spanned by P_lambda and k - 1 rows fix its non-lambda
    coefficients; the k-th row checks the solution.  The solve runs over the
    full basis, so no triangularity is assumed.  Each row comes from one
    kernel call (the point and its N unit shifts) and is scaled to integers
    by a nonzero factor, which leaves the solution unchanged.
    """
    lam = check_partition(lam)
    n = weight(lam)
    if n > MAX_DEGREE:
        raise DomainError(f"|lambda| = {n} exceeds degree cap {MAX_DEGREE}")
    if N < 1:
        raise DomainError(f"need at least one variable, got N = {N}")
    if N > MAX_NVARS:
        raise DomainError(f"N = {N} exceeds variable cap {MAX_NVARS}")
    if len(lam) > N:
        raise DomainError(f"lambda = {lam} has more parts than N = {N}")
    q, t = Fraction(q), Fraction(t)
    if n == 0:
        return SymmetricPolynomial({(): Fraction(1)}, N)
    basis = [mu for mu in partitions_of(n) if len(mu) <= N]
    eig = d1_eigenvalue(lam, N, q, t)
    for mu in basis:
        if mu != lam and d1_eigenvalue(mu, N, q, t) == eig:
            raise DegenerateEigenvalueError(
                f"eigenvalue collision between {lam} and {mu} at q={q}, t={t}"
            )
    # The lam column goes last: with c_lam = 1 it is the right-hand side.
    others = [mu for mu in basis if mu != lam]
    order = others + [lam]
    (qn, tn), (qd, td) = rational_parts((q, t))
    shifts = [(0,) * N] + _unit_shifts(N)
    rng = random.Random(0x5EED ^ (n * 131 + N))
    for _ in range(64):
        rows = []
        for _ in basis:
            nums, dens = rational_parts(distinct_rationals(rng, N))
            weights, den = _d1_weights(nums, dens, tn, td)
            # The row times den * qd^n * prod_i b_i^n * eig.denominator.
            coeffs = [-eig.numerator * den * qd**n] + [w * eig.denominator for w in weights]
            values = _scaled_monomials(order, nums, dens, n, (qn, qd), shifts)
            rows.append([sum(map(operator.mul, coeffs, col)) for col in zip(*values)])
        try:
            sol = [c for (c,) in solve_exact([row[:-1] for row in rows[:-1]],
                                             [[-row[-1]] for row in rows[:-1]])]
        except SingularMatrixError:
            continue
        check = rows[-1]
        if check[-1] + sum(c * r for c, r in zip(sol, check)) != 0:
            raise DegenerateEigenvalueError("eigenvector solve is inconsistent")
        return SymmetricPolynomial({lam: Fraction(1), **dict(zip(others, sol))}, N)
    raise SingularMatrixError("could not find generic evaluation points")


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

    # Every exponent of z_n in the sum lies in [0, lam_1]: pows[k][e] = z_k^e,
    # each entry one multiply from the last (exact on Fractions).
    pows = []
    for zk in z:
        row = [one]
        for _ in range(lam[0]):
            row.append(row[-1] * zk)
        pows.append(row)
    memo = {}

    def rec(mu: tuple, n: int):
        # P_mu(z_1..z_n; q, 0) for a weakly decreasing nonneg tuple mu.
        if n == 1:
            return pows[0][mu[0]]
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
                term = term * pows[n - 1][e]
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
