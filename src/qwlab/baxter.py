"""Dual Baxter operator in residue-series and contour-integral form.

The operator acts on bounded analytic symmetric functions as a Gamma-
weighted sum over shift vectors nu (the residue form), and equivalently as
a Mellin-Barnes-type integral over vertical lines against a Sklyanin-type
density (the contour form).  Both forms are implemented and compared.

Contour geometry.  On the straight lines Re(xi_j) = a the N >= 2 integrand
decays only polynomially along xi_1 + xi_2 = const (the Gamma decay of the
axes is exactly cancelled by the 1/(Gamma(xi_i - xi_j)) growth), so the
lines are bent into the left half-plane, where the Gamma factors decay
super-exponentially.  The bend crosses no poles: the xi_j-poles i w_i - k
sit at heights Re(w_i), left of Re(xi) = a in the working regime
-a < Im(w_i) < 0.  (For Im(w_i) < -a some poles would sit on the wrong side
of the line and the printed identity genuinely fails, so that regime is
rejected.)  The bent line is one hyperbola opening left with asymptotes at
45 degrees (`_hyperbola`), summed by the trapezoid rule in its parameter,
which converges geometrically (Weideman and Trefethen, Math. Comp. 76,
2007).  Each level halves the step and adds only the new odd nodes, so each
Gamma factor is evaluated once, and the working precision covers the
rounding of terms that outgrow the result.  A contour whose level-0 sum
would exceed `CONTOUR_NODE_BUDGET` nodes is rejected: u beyond about 950 at
target 1e-9, or max |Re w_i| beyond about 35 when a + Im w_i = 0.5.

Pair kernels.  Both multiple integrals are sums over one node set with a
pair factor of xi_i - xi_j, and neither sum runs over node tuples:

* contour form, any N: with c(d) = -d sin(pi d)/pi and M = N(N-1)/2,
  prod_{i<j} c(xi_i - xi_j) = (-1/(2 pi i))^M det[xi_j^k] det[e^{i pi (2l-N+1) xi_j}]
  (Vandermonde determinants in xi and in e^{2 pi i xi}).  For a product test
  function Andreief's identity (C. Andreief 1886; P. J. Forrester,
  arXiv:1806.10411) then turns the N-fold node sum into N! det B, with
  B_kl = sum_j G_j xi_j^k e^{i pi (2l-N+1) xi_j} and G_j the node weight
  times the integrand's single-variable factors: O(N^2 n) work per level;
* spectral form, N = 2: the nodes of levels 0..k are the whole lattice
  t_j = j h0 / 2^k on [-T, T], so the pair factor depends only on the lag
  j - k, and the sum is sum_D K(D step) R(D) over lags, R the weights'
  autocorrelation (`_lattice_pair_sum`): R at every lag is exact from three
  big-integer products (`quadrature._fixed_correlation`), the kernel
  K(d) = d sinh(pi d) chi(d)/pi is tabulated on integers once per lag, in
  O(n m) work for n lags and m chi-grid nodes, and the total is one integer
  dot product.

The separated terms can exceed the result.  The columns of det B grow like
e^{pi |2l-N+1| H}, H the largest |Im xi|, so det B is combined at the guard
bits of e^{pi floor(N^2/2) H} (log2 e per unit of exponent) above the
working precision.  The spectral kernel grows like e^{pi D step/2} while
R(D) decays like e^{-pi D step}, so the autocorrelation's weights carry
the guard bits of e^{pi T}.

Spectral form.  The eigenrelation's right side integrates, along the lines
R + i a_shift, the display-free factor e^{i xi log u} prod_j Gamma(-i xi - i w_j)
times the Whittaker phase e^{-+i xi x} of the `second` or `first` display.
The factor is analytic down to the first Gamma pole row, a_shift - max(-Im w_j)
below the line, and decays along it, so each axis is summed by the nested
trapezoid rule on the `nodes_1d` lattice (`_spectral_lattice`).  The two
displays differ only in the phase, so `_spectral_axis` tabulates the factor
at the points each refinement level adds, memoised on
(w, log u, a_shift, h0, T, level, working precision), and both displays of a
pair read one table: each Gamma factor is evaluated once per lattice point,
and the second display evaluates none.  The phases e^{i xi log u} of the
table and e^{-+i xi x} of each display (at N = 2 its centre-of-mass part
e^{-+i xi sigma}) advance along a level's evenly spaced points by one
complex multiply each (`_exp_on_lattice`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import to_fixed

from .gamma import GammaPoleError, gamma_c
from .qcore import DomainError, QwlabError, compositions_of_weight
from .quadrature import (
    TERM_ULPS,
    QuadratureConfig,
    QuadResult,
    _fixed_correlation,
    _fixed_dot,
    _fixed_ladder,
    _fixed_point,
    nodes_1d,
    refine,
    trapezoid_refine,
)
from .report import VerificationReport, comparison_report
from .whittaker import profile_grid, whittaker_eval


@dataclass(frozen=True)
class TestFunction:
    """Symmetric test functions analytic on upper half-spaces
    {Im(v_j) >= -a}:

    * constant: f = 1;
    * product-pole: f(v) = prod_j (b - i v_j)^-1, analytic there iff b > a
      (and bounded);
    * exp-cutoff: f(v) = prod_j e^{-i c v_j} with c >= 0, which grows like
      e^{c Im v} upward; the growth is factorially dominated in the residue
      series and super-exponentially dominated on the bent contour, and the
      closed-form checks confirm the identity still holds for it.
    """

    kind: str
    b: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "product-pole", "exp-cutoff"):
            raise DomainError(f"unknown test function kind {self.kind!r}")
        if self.kind == "product-pole" and self.b is None:
            raise DomainError("product-pole needs the pole parameter b")
        if self.kind == "exp-cutoff" and (self.c is None or self.c < 0):
            raise DomainError("exp-cutoff needs a rate c >= 0")

    def check_analytic(self, a: float) -> None:
        if self.kind == "product-pole" and not self.b > a:
            raise DomainError(
                f"product-pole with b = {self.b} has its pole inside Im(v) >= -{a}"
            )

    def axis_value(self, vj) -> mp.mpc:
        """Per-coordinate factor; every kind here is a product over coordinates."""
        if self.kind == "constant":
            return mp.mpc(1)
        if self.kind == "product-pole":
            return 1 / (self.b - 1j * mp.mpc(vj))
        return mp.exp(-1j * self.c * mp.mpc(vj))

    def __call__(self, v) -> mp.mpc:
        out = mp.mpc(1)
        for vj in v:
            out = out * self.axis_value(vj)
        return out


# ---------------------------------------------------------------------------
# Residue form
# ---------------------------------------------------------------------------


def residue_apply(f, w, u, cap: int = 30) -> QuadResult:
    """sum_{|nu| <= cap} u^{|nu|} cross(nu) GammaRatio(nu) f(w + i nu).

    cross(nu)  = prod_{i<j} (w_j - w_i + i(nu_j - nu_i)) / (w_j - w_i)
    GammaRatio = prod_{i,j} Gamma(1 + i(w_j - w_i)) / Gamma(1 + nu_i + i(w_j - w_i))

    The caller passes u with the sign demanded by the identity under test.
    The Gamma ratios are built by recurrence, so no Gamma evaluations are
    needed.  Both factors are read from tables: per pair i < j the quotient
    at each shift difference nu_j - nu_i, added as the shells reach it, and
    per coordinate i the product over j of the Gamma ratios at every shift
    nu_i <= cap; a term then costs at most N(N-1)/2 + N multiplies.  The
    series stops at shell k <= cap once shells k - 1 and k both fall below
    2^-prec |total| at the working precision prec; cap is only the upper
    bound, and the Gamma-pole check still covers every shell up to cap.  The error field carries the magnitude of the last two shells
    summed plus the sum's own rounding: (k + 1) 2^-prec times the largest
    partial sum for the shells' additions, and TERM_ULPS 2^-prec times the
    terms' modulus mass sum_k |u|^k sum_nu |term| for the terms themselves.
    At N >= 2 the shells cancel (for f = 1 every shell k >= 1 sums to 0)
    while their terms do not, so the mass can far exceed the partial sums.
    The diagnostics hold cap, stop_shell (k) and last_shells.
    """
    w = tuple(mp.mpc(v) for v in w)
    u = mp.mpc(u)
    if not all(mp.isfinite(v) for v in (u, *w)):
        raise DomainError("u and w must be finite")
    n = len(w)
    if cap < 0:
        raise DomainError("cap must be >= 0")
    # Treat anything within working roundoff of a pole as the pole itself.
    near_zero = mp.mpf(2) ** (-mp.mp.prec // 2)
    # rows[i][m] = prod_j Gamma(1 + i d_ij) / Gamma(1 + m + i d_ij), d_ij = w_j - w_i
    rows = []
    for i in range(n):
        row = [mp.mpc(1)] * (cap + 1)
        for j in range(n):
            d = 1j * (w[j] - w[i])
            acc = mp.mpc(1)
            for m in range(1, cap + 1):
                fact = m + d
                if abs(fact) < near_zero:
                    raise DomainError(
                        f"Gamma pole in shift ladder: w_{j} - w_{i} = {w[j] - w[i]}"
                    )
                acc = acc / fact
                row[m] = row[m] * acc
        rows.append(row)
    # Per pair i < j, quotient[delta] = (w_j - w_i + i delta) / (w_j - w_i),
    # filled for delta = +-k as shell k begins.
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) < near_zero:
                raise DomainError("coincident w entries hit a cross-ratio pole")
            pairs.append((i, j, w[j] - w[i], {}))
    # points[i][m] = w_i + i m, the arguments f is read at
    points = [[wi + 1j * m for m in range(cap + 1)] for wi in w]

    total = mp.mpc(0)
    shell_mags = []
    upow = mp.mpc(1)
    unit = mp.mpf(2) ** -mp.mp.prec
    largest = mass = mp.mpf(0)
    for k in range(cap + 1):
        shell = mp.mpc(0)
        shell_mass = mp.mpf(0)
        for _, _, diff, quotient in pairs:
            quotient[k] = (diff + 1j * k) / diff
            quotient[-k] = (diff - 1j * k) / diff
        for nu in compositions_of_weight(k, n):
            cross = mp.mpc(1)
            for i, j, _, quotient in pairs:
                cross = cross * quotient[nu[j] - nu[i]]
            ratio = mp.mpc(1)
            for row, m in zip(rows, nu):
                if m:
                    ratio = ratio * row[m]
            term = cross * ratio * f(tuple(row[m] for row, m in zip(points, nu)))
            shell = shell + term
            shell_mass = shell_mass + abs(term)
        total = total + upow * shell
        largest = max(largest, abs(total))
        mass = mass + abs(upow) * shell_mass
        shell_mags.append(abs(upow * shell))
        if k and max(shell_mags[-2:]) < unit * abs(total):
            break
        upow = upow * u
    tail = shell_mags[-1] + (shell_mags[-2] if len(shell_mags) > 1 else mp.mpf(0))
    rounding = (k + 1) * unit * largest + TERM_ULPS * unit * mass
    return QuadResult(total, tail + rounding, {"cap": cap, "stop_shell": k,
                                               "last_shells": shell_mags[-2:]})


# ---------------------------------------------------------------------------
# Contour form
# ---------------------------------------------------------------------------


CONTOUR_NODE_BUDGET = 2048


def _hyperbola(w, a: float, u: float, cfg: QuadratureConfig):
    """The contour xi(s) = a - nu (cosh s - 1) + i nu sinh s, |s| <= s_max,
    oriented upward: it crosses Re xi = a at height 0 and bends left, with
    asymptotes at 45 degrees.  Returns (new_nodes, height): new_nodes(level)
    gives the (xi, W) pairs, W = h xi'(s), at the points s of
    nodes_1d(level, -s_max, s_max, h0), those the step h = h0 / 2^level adds
    to the trapezoid sum, so a level's sum is half the last level's plus
    its own; height bounds |Im xi| on the contour.

    nu starts at max(1, D + 1, u/e), D = max |Re w_i|, so that the bend lies
    above the poles and beyond |xi| = u/e, where u^-xi outgrows the Gamma
    decay.  It grows by 1.25 until the contour passes each rightmost pole
    i w_i, at height Re w_i, by at least half the pole's distance a + Im w_i
    from the line; the poles i w_i - k lie further left.  The far end lies
    D + R left of the line, R from the ray decay bound below, and
    h0 = 1/(2 nu).  A contour whose level-0 sum would take more than
    CONTOUR_NODE_BUDGET nodes raises DomainError before any node is built:
    u beyond about 950 at target 1e-9, or D beyond about 35 when
    a + Im w_i = 0.5."""
    reach = max(abs(float(mp.re(wi))) for wi in w)
    nu = max(1.0, reach + 1, u / math.e)

    def check_budget(R):
        if not 4 * nu * math.acosh(1 + (reach + R) / nu) + 1 <= CONTOUR_NODE_BUDGET:
            raise DomainError(
                f"u = {u} with max |Re w| = {reach:.4g} needs a contour beyond the "
                f"budget of {CONTOUR_NODE_BUDGET} level-0 nodes")

    # Beyond distance r on a 45-degree ray each Gamma factor decays like
    # exp(-(r/sqrt 2)(log r + 3pi/4 - 1)); size the tail against that,
    # minus the u^{-xi} growth when u > 1.
    need = -math.log(cfg.target_rel_error) + 10
    u_penalty = max(0.0, math.log(u))
    R = 8.0
    check_budget(R)
    while (R / math.sqrt(2)) * (math.log(R) + 1.0 - u_penalty) < need:
        R *= 1.25
        check_budget(R)
    while any(nu * (math.hypot(1, float(mp.re(wi)) / nu) - 1) > (a + float(mp.im(wi))) / 2
              for wi in w):
        nu *= 1.25
        check_budget(R)
    s_max = math.acosh(1 + (reach + R) / nu)
    h0 = mp.mpf(1 / (2 * nu))
    nu_mp = mp.mpf(nu)

    def new_nodes(level):
        h = h0 / 2**level
        out = []
        for s in nodes_1d(level, -s_max, s_max, h0):
            ch, sh = mp.cosh(s), mp.sinh(s)
            out.append((mp.mpc(a - nu_mp * (ch - 1), nu_mp * sh), h * nu_mp * mp.mpc(-sh, ch)))
        return out

    return new_nodes, nu * math.sinh(s_max)


def _check_contour_regime(w, a: float):
    if a <= 0:
        raise DomainError("contour abscissa a must be positive")
    for wi in w:
        if not -a < mp.im(mp.mpc(wi)):
            raise DomainError(
                f"need Im(w_i) > -a so every Gamma pole sits left of the line; "
                f"got Im(w) = {mp.im(mp.mpc(wi))}, a = {a}"
            )


def contour_apply(f: TestFunction, w, u, a: float,
                  cfg: QuadratureConfig | None = None) -> QuadResult:
    """integral over (a + i R)^N (bent for convergence) of

        s_N(xi) u^{sum_i (i w_i - xi_i)} prod_{i,j} Gamma(xi_j - i w_i) f(-i xi).

    Requires a TestFunction f analytic and bounded on {Im v >= -a}, u > 0,
    a > 0, -a < Im(w_i), and N <= 3; a u or max |Re w_i| whose contour
    exceeds the node budget of `_hyperbola` raises DomainError.  Every N
    takes the Andreief determinant (`_andreief_det`) of the product
    integrand, summed by the trapezoid rule on `_hyperbola`: B is linear in
    the nodes, so each level's B is half the last level's plus B over the
    level's new nodes.  The error field carries the last refinement
    difference plus the rounding of the sum's terms, which can exceed the
    result by far at large u; the working precision rises where that
    rounding would exceed the target.
    """
    if not isinstance(f, TestFunction):
        raise DomainError("the contour form needs a product TestFunction")
    w = tuple(mp.mpc(v) for v in w)
    u = mp.mpf(u)
    if not all(mp.isfinite(v) for v in (u, a, *w)):
        raise DomainError("u, a and w must be finite")
    n = len(w)
    if not 1 <= n <= 3:
        raise DomainError("contour form implemented for N in {1, 2, 3}")
    if u <= 0:
        raise DomainError("u must be positive")
    _check_contour_regime(w, a)
    f.check_analytic(a)
    if cfg is None:
        cfg = QuadratureConfig(target_rel_error=1e-9)
    new_nodes, height = _hyperbola(w, a, float(u), cfg)
    guard_bits = _guard_bits(height * (n * n // 2) / 2)
    # The sum's terms can exceed the result by far (u^-xi outgrows the Gamma
    # decay on the bend when u is large), and each term carries its own
    # rounding: TERM_ULPS 2^-prec times the terms' modulus mass,
    # measured at level 0.  Where that would exceed the target at a level's
    # value T, the working precision rises by log2(mass/|T|) and the levels
    # so far are summed again.  Level 0's T cannot stand for the result: at
    # u = 30 it is 1e10 times too big.
    prec = cfg.working_prec()
    sum_at, mass = _contour_levels(f, w, u, new_nodes, prec, guard_bits)

    def rounding():
        return TERM_ULPS * mass[0] / 2**prec

    def value_at(level):
        nonlocal prec, sum_at, mass
        value = sum_at(level)
        while value and rounding() > cfg.target_rel_error * abs(value):
            prec += max(1, math.ceil(math.log2(mass[0] / abs(value))))
            sum_at, mass = _contour_levels(f, w, u, new_nodes, prec, guard_bits)
            for again in range(level + 1):
                value = sum_at(again)
        return value

    # The levels' values carry their own precision; the configured one,
    # 2^-30 below the target, is enough to compare and return them.
    with mp.workprec(cfg.working_prec()):
        res = refine(value_at, range(cfg.max_depth), cfg, "contour quadrature")
        return QuadResult(res.value, res.error + rounding(), res.diagnostics)


def _contour_levels(f: TestFunction, w, u, new_nodes, prec: int, guard_bits: int):
    """(sum_at, mass) for the contour sum at working precision prec:
    sum_at(level) is the trapezoid sum through that level, called for
    level 0, 1, ... in turn, and its level-0 call sets mass[0] to the sum of
    the moduli of the terms of that sum, `_andreief_mass` times the
    prefactors'."""
    n = len(w)
    with mp.workprec(prec):
        log_u = mp.log(u)
        uw = mp.mpc(1)
        for wi in w:
            uw = uw * u ** (1j * wi)
    B = None
    mass = [None]

    def axis_factor(xi):
        g = mp.exp(-xi * log_u)
        for wi in w:
            g = g * gamma_c(xi - 1j * wi)
        return g * f.axis_value(-1j * xi)

    def sum_at(level):
        nonlocal B
        with mp.workprec(prec):
            gvals = [(xi, wt * axis_factor(xi)) for xi, wt in new_nodes(level)]
            if not level:
                mass[0] = abs(uw) * _andreief_mass(gvals, n) / (2 * mp.pi) ** (n * (n + 1) // 2)
        with mp.workprec(prec + guard_bits):
            new = _andreief_matrix(gvals, n)
            if B is not None:
                new = [[b / 2 + x for b, x in zip(rb, rx)] for rb, rx in zip(B, new)]
            B = new
            det = _andreief_det(B, n)
        with mp.workprec(prec):
            return uw * det / (2j * mp.pi) ** n

    return sum_at, mass


def _guard_bits(height) -> int:
    """Extra bits for a separated sum whose terms can exceed the result by
    e^{2 pi height}."""
    return math.ceil(2 * math.pi * float(height) * math.log2(math.e))


def _andreief_matrix(gvals, n: int):
    """B_kl = sum_j g_j xi_j^k e^{i pi (2l-N+1) xi_j} over the (xi_j, g_j) of
    `gvals`, in node order at the working precision."""
    B = [[mp.mpc(0)] * n for _ in range(n)]
    for xi, g in gvals:
        phases = [mp.expjpi((2 * l - n + 1) * xi) for l in range(n)]
        for row in B:
            for l, phase in enumerate(phases):
                row[l] += g * phase
            g = g * xi
    return B


def _andreief_mass(gvals, n: int):
    """The sum of the moduli of the terms of det B, B the `_andreief_matrix`
    of `gvals`, expanded over permutations and nodes: the permanent of the
    entrywise sums of |g_j xi_j^k e^{i pi (2l-N+1) xi_j}|."""
    A = [[mp.mpf(0)] * n for _ in range(n)]
    for xi, g in gvals:
        decays = [mp.exp(-mp.pi * (2 * l - n + 1) * mp.im(xi)) for l in range(n)]
        m = abs(g)
        for row in A:
            for l, decay in enumerate(decays):
                row[l] += m * decay
            m = m * abs(xi)
    return mp.fsum(mp.fprod(A[k][p[k]] for k in range(n))
                   for p in itertools.permutations(range(n)))


def _andreief_det(B, n: int):
    """(1/N!) sum over node N-tuples of prod_j g_j prod_{i<j} pair_coupling(xi_i - xi_j),
    exactly as

        (-1/(2 pi i))^M det B,  B the nodes' `_andreief_matrix`,

    with M = N(N-1)/2 (Andreief's identity).  The caller sets the working
    precision: prec plus the guard bits of e^{pi floor(N^2/2) H}, H the
    contour's height."""
    return (-1 / (2j * mp.pi)) ** (n * (n - 1) // 2) * mp.det(B)


def lemma1_check(f: TestFunction, w, u, a: float,
                        cap: int = 30,
                        cfg: QuadratureConfig | None = None,
                        tolerance: float | None = None) -> VerificationReport:
    """Residue form at argument -u against the contour form, N <= 3: the two
    evaluations of the same operator must agree, to a relative tolerance
    that defaults to 1e-8 at N = 1 and 1e-6 at N >= 2.  A negative cap is
    rejected before either form runs; the contour form runs first, so an
    input outside its domain is rejected before any residue shell is
    summed.  The diagnostics carry the residue tail and stop shell and the
    contour's error estimate."""
    if cap < 0:
        raise DomainError("cap must be >= 0")
    if tolerance is None:
        tolerance = 1e-8 if len(w) == 1 else 1e-6
    con = contour_apply(f, w, u, a, cfg)
    res = residue_apply(f, w, -mp.mpf(u), cap)
    return comparison_report(
        check_id="baxter-residue-vs-contour",
        params={"kind": f.kind, "b": f.b, "c": f.c, "w": list(w), "u": u,
                "a": a, "cap": cap},
        lhs=res.value,
        rhs=con.value,
        tolerance=tolerance,
        diagnostics={"residue_tail": res.error,
                     "residue_stop_shell": res.diagnostics["stop_shell"],
                     "contour_error": con.error},
    )


# ---------------------------------------------------------------------------
# The Gamma identity behind the residue-contour matching, and its parity
# ---------------------------------------------------------------------------


def gamma_identity_check(r, nu, tolerance: float | None = None) -> VerificationReport:
    """prod_{i!=j} Gamma(r_j - r_i - nu_j) / Gamma(r_i - r_j - nu_i + nu_j)
    against its reflection-formula evaluation

        prod_{i<j} (r_j - r_i - nu_j + nu_i)/(r_j - r_i)
                   * Gamma(1 + r_i - r_j) Gamma(1 + r_j - r_i)
                   / (Gamma(1 + nu_j + r_i - r_j) Gamma(1 + nu_i + r_j - r_i)),

    to a relative tolerance that defaults to 1e-10.  The reflection pair
    Gamma(1 - d) Gamma(1 + d) = pi d / sin(pi d), d = r_j - r_i, is taken in
    that closed form, so it does not rest on `gamma_c`.
    """
    if tolerance is None:
        tolerance = 1e-10
    r = tuple(mp.mpc(v) for v in r)
    nu = tuple(int(v) for v in nu)
    n = len(r)
    if len(nu) != n:
        raise DomainError("r and nu must have the same length")
    if any(v < 0 for v in nu):
        raise DomainError("nu entries must be >= 0")
    try:
        lhs = mp.mpc(1)
        for i in range(n):
            for j in range(n):
                if i != j:
                    lhs *= gamma_c(r[j] - r[i] - nu[j])
                    lhs /= gamma_c(r[i] - r[j] - nu[i] + nu[j])
        rhs = mp.mpc(1)
        for i in range(n):
            for j in range(i + 1, n):
                d = r[j] - r[i]
                if d == 0:
                    raise DomainError("coincident r entries")
                rhs *= (d - nu[j] + nu[i]) / d
                rhs *= mp.pi * d / mp.sinpi(d)  # Gamma(1 - d) Gamma(1 + d)
                rhs /= gamma_c(1 + nu[j] - d) * gamma_c(1 + nu[i] + d)
    except GammaPoleError as exc:
        raise DomainError(f"pole configuration rejected: {exc}") from exc
    return comparison_report(
        check_id="gamma-ratio-identity",
        params={"r": list(r), "nu": list(nu), "n": n},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
    )


def kappa_parity(nu) -> int:
    """The sign exponent kappa, by double sum and by closed form 2 sum (1-m) nu_m;
    both must agree and be even."""
    nu = tuple(int(v) for v in nu)
    if any(v < 0 for v in nu):
        raise DomainError("nu entries must be >= 0")
    n = len(nu)
    double_form = 0
    for i in range(n):
        for j in range(i + 1, n):
            double_form += nu[i] - nu[j]
    for i in range(n):
        for j in range(n):
            if i != j:
                double_form += nu[i] - 2 * nu[j]
    closed = 2 * sum((1 - m) * nu[m - 1] for m in range(1, n + 1))
    if double_form != closed:
        raise QwlabError(f"kappa forms disagree: {double_form} vs {closed}")
    if double_form % 2:
        raise QwlabError(f"kappa = {double_form} is odd")
    return double_form


# ---------------------------------------------------------------------------
# Dual Baxter eigenrelations on Whittaker functions
# ---------------------------------------------------------------------------


def baxter_eigen_check(w, u, x, which: str = "second",
                       cfg: QuadratureConfig | None = None,
                       tolerance: float | None = None,
                       a_shift: float | None = None) -> VerificationReport:
    """Cutoff-times-Whittaker against its spectral-integral form, N <= 2.

    second:  e^{-u e^{-x_N}} psi_w(x)
           = integral d xi m_N(xi) u^{i sum(w_i + xi_i)}
                      prod_{i,j} Gamma(-i xi_i - i w_j) psi_{-xi}(x)

    first uses cutoff e^{-u e^{x_1}} on psi_{-w}(x) with psi_{+xi} inside.
    (The reflected variant of `second`; the two are exchanged by
    x -> -reverse(x), w -> -w.)

    The spectral lines run along R + i a_shift with a_shift > max(-Im w_i):
    the Gamma factors put their first pole ladder at heights -Im(w_j) > 0,
    and integrating below it (e.g. on the real line) drops those residues
    and breaks the identity.  The result is independent of the shift, which
    the tests exercise, up to the truncation of the N = 2 spectral box at
    the fixed T = 12: a higher line weakens the Gamma decay at |t| = T, so
    the dropped tails grow.  On criterion 6's inputs the relative error is
    3.2e-8 at a_shift = 1.1 and 1.7e-7 at 2, each inside the estimate; at 3
    and 4 the cut tails are not small, the lattice sum converges only to
    first order, and the check raises QuadratureError instead of returning
    a value its estimate does not cover.
    The relative tolerance defaults to 1e-6 at N = 1 and 1e-3 at N = 2.

    Both displays integrate the same Gamma product on the spectral line; it
    is read from the memoised `_spectral_axis` table of each refinement
    level, so the second display of a pair, on the same (w, u, a_shift,
    cfg), evaluates no Gamma function.
    """
    if which not in ("first", "second"):
        raise DomainError("which must be 'first' or 'second'")
    w = tuple(mp.mpc(v) for v in w)
    x = tuple(mp.mpf(v) for v in x)
    given = (u, *x, *w) if a_shift is None else (u, a_shift, *x, *w)
    if not all(mp.isfinite(v) for v in given):
        raise DomainError("u, a_shift, x and w must be finite")
    n = len(w)
    if len(x) != n or n not in (1, 2):
        raise DomainError("eigenrelation check supports N in {1, 2}")
    u = mp.mpf(u)
    if u <= 0:
        raise DomainError("u must be positive")
    for wi in w:
        if not mp.im(wi) < 0:
            raise DomainError("need Im(w_i) < 0")
    if cfg is None:
        cfg = QuadratureConfig(target_rel_error=1e-9 if n == 1 else 1e-5)
    if tolerance is None:
        tolerance = 1e-6 if n == 1 else 1e-3
    if a_shift is None:
        a_shift = max(-float(mp.im(wi)) for wi in w) + 0.5
    if not a_shift > max(-float(mp.im(wi)) for wi in w):
        raise DomainError("spectral line must pass above every Gamma pole ladder")
    prec = cfg.working_prec()
    with mp.workprec(prec):
        if which == "second":
            cutoff = mp.exp(-u * mp.exp(-x[-1]))
            psi_out = whittaker_eval(w, x, cfg).value
            sign = -1
        else:
            cutoff = mp.exp(-u * mp.exp(x[0]))
            psi_out = whittaker_eval(tuple(-wi for wi in w), x, cfg).value
            sign = +1
        lhs = cutoff * psi_out

        log_u = mp.log(u)
        uw = mp.exp(1j * mp.fsum([wi for wi in w]) * log_u)

        if n == 1:
            h0, need = _spectral_lattice(w, a_shift, cfg)
            # The floor is not waste: the cut tails must stay below the
            # level-1 lattice error, about e^{-2 need} (1e-18 at target
            # 1e-7), not below the target.  At w = 0.3 - 0.4i, u = 1,
            # x = 0.2 and target 1e-7 the `first` display reads 9.7, 13.8,
            # 16.7 and 17.5 digits at floors 14, 20, 24 and 27, and 17.5 at 30.
            T = max(30.0, 2 * need / math.pi + abs(float(mp.re(w[0]))) + abs(float(x[0])))
            work = cfg.integrand_prec()

            def terms_at(level):
                # The display-free factor from the shared table, times this
                # display's Whittaker phase e^{sign i xi x}.
                table = _spectral_axis(w, log_u, a_shift, h0, T, level, work)
                phases = _exp_on_lattice(sign * 1j * x[0], [t for t, _ in table], 1j * a_shift)
                return [g * phase for (_, g), phase in zip(table, phases)]

            with mp.workprec(work):
                quad = trapezoid_refine(terms_at, h0, cfg, f"1-d quadrature on [{-T}, {T}]")
            rhs = uw * quad.value / (2 * mp.pi)
            diag = {**quad.diagnostics, "quad_error": quad.error, "T": T, "a_shift": a_shift}
        else:
            rhs, diag = _baxter_pair_integral(w, u, x, sign, a_shift, cfg, prec)
    return comparison_report(
        check_id=f"baxter-eigenrelation-{which}",
        params={"w": list(w), "u": u, "x": list(x), "n": n},
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        diagnostics=diag,
    )


def _spectral_lattice(w, a_shift, cfg: QuadratureConfig):
    """(h0, need) for the spectral line R + i a_shift: need =
    -log(target 1e-2) also sizes the box T, and the integrand is analytic
    down to the first Gamma pole row, a_shift - max(-Im w_j) below the
    line, so h0 = 2 pi strip / need puts level 0's error near e^{-need}."""
    need = -math.log(cfg.target_rel_error * 1e-2)
    strip = a_shift - max(-float(mp.im(wi)) for wi in w)
    return 2 * math.pi * strip / need, need


@lru_cache(maxsize=8)
def _spectral_axis(w, log_u, a_shift, h0, T, level: int, work: int) -> tuple:
    """The display-free factor of the spectral integrand,

        g(t) = e^{i xi log u} (Gamma(-i xi - i w_1) ... Gamma(-i xi - i w_N)),
        xi = t + i a_shift,

    as (t, g(t)) pairs at the points t of nodes_1d(level, -T, T, h0), the
    points the level adds, evaluated at `work` bits, the precision of the
    caller's sum; e^{i xi log u} advances along them by `_exp_on_lattice`.
    The two displays differ only in the Whittaker phase e^{-+i xi x} they
    multiply it by, so a pair reads one table.  Memoised on every argument,
    `work` included; the 8 entries hold every refinement level of one
    pair."""
    with mp.workprec(work):
        ts = nodes_1d(level, -T, T, h0)
        out = []
        for t, phase in zip(ts, _exp_on_lattice(1j * log_u, ts, 1j * a_shift)):
            xi = t + 1j * a_shift
            gammas = gamma_c(-1j * xi - 1j * w[0])
            for wj in w[1:]:
                gammas = gammas * gamma_c(-1j * xi - 1j * wj)
            out.append((t, phase * gammas))
        return tuple(out)


def _exp_on_lattice(c, ts, shift) -> list:
    """[e^{c (t + shift)} for t in ts], ts evenly spaced, as the points of
    one `nodes_1d` level are: the first by mp.exp, each next by one multiply
    by e^{c dt}, dt = ts[1] - ts[0].  The spectral tables' e^{i xi log u},
    the N = 1 displays' e^{-+i xi x} and the N = 2 displays' e^{-+i xi sigma}
    advance along a level this way.  Each multiply rounds by about a unit,
    so the products carry bit_length(len(ts)) + 4 guard bits and the last
    is still within a unit of the working precision."""
    if not ts:
        return []
    with mp.workprec(mp.mp.prec + len(ts).bit_length() + 4):
        value = mp.exp(c * (ts[0] + shift))
        step = mp.exp(c * (ts[1] - ts[0])) if len(ts) > 1 else 1
        out = [value]
        for _ in ts[1:]:
            value *= step
            out.append(value)
    return out


def _baxter_pair_integral(w, u, x, sign, a_shift, cfg: QuadratureConfig, prec: int):
    """N = 2 spectral integral along (R + i a_shift)^2 with the Whittaker
    factor reduced to the relative-coordinate profile chi(xi_1 - xi_2),
    which only sees the real parts, on `profile_grid` at rate 0, level 0.
    Level k sums over every node pair of the h0 / 2^k lattice on [-T, T],
    the union of the `_spectral_axis` tables of levels 0..k, at weight
    h0 / 2^k per node; each node's weight carries the display's phase
    e^{sign i xi sigma}, advanced along the level's points by
    `_exp_on_lattice`, and the double sum over the lattice is
    `_lattice_pair_sum`."""
    sigma = (x[0] + x[1]) / 2
    s = x[0] - x[1]
    z = 2 * mp.exp(-s / 2)
    log_u = mp.log(u)
    uw = mp.exp(1j * (w[0] + w[1]) * log_u)

    h0, need = _spectral_lattice(w, a_shift, cfg)
    T = max(12.0, 2 * need / math.pi)
    h, omegas = profile_grid(z, cfg.target_rel_error, 2 * T)
    axis = []

    def value_at(level):
        nonlocal axis
        table = _spectral_axis(w, log_u, a_shift, h0, T, level, prec)
        # phase from psi_{sign * xi}: e^{sign * i xi sigma} per coordinate
        phases = _exp_on_lattice(sign * 1j * sigma, [t for t, _ in table], 1j * a_shift)
        # The level's odd lattice points interleave with the last levels'.
        axis = sorted(axis + [(t, g * phase) for (t, g), phase in zip(table, phases)],
                      key=lambda node: node[0])
        step = mp.mpf(h0) / 2**level
        pairs = _lattice_pair_sum([a for _, a in axis], step, h, omegas, prec)
        return uw * step**2 * pairs / ((2 * mp.pi) ** 2 * 2)

    quad = refine(value_at, range(min(cfg.max_depth, 4)), cfg, "spectral quadrature")
    return quad.value, {**quad.diagnostics, "quad_error": quad.error,
                        "T": T, "chi_nodes": len(omegas), "a_shift": a_shift}


def _lattice_pair_sum(weights, step, h, omegas, prec: int):
    """sum_{j,k} a_j a_k K((j - k) step) over the weights a_j of consecutive
    points of a lattice of the given step, with K(d) = d sinh(pi d) chi(d) / pi
    and chi(d) = sum_m omega_m cos(m h d) on the grid of `profile_grid`.
    K is even and K(0) = 0, so the sum is

        2 sum_{D >= 1} K(D step) R(D),   R(D) = sum_j a_j a_{j-D},

    R the weights' autocorrelation: only lattice indices enter, not the
    points themselves.  Everything runs on integers and is rounded once, to
    prec + 10 bits:

    * the a_j are scaled once to W-bit fixed point (`_fixed_point`), and R
      at every lag is exact for the scaled weights, three big-integer
      products (`_fixed_correlation`);
    * chi at every lag D by Clenshaw's recurrence for the Chebyshev series
      sum_m omega_m T_m(cos(h D step)), one pass over m for all lags at
      once, from cos(h D step) of `_fixed_ladder`, at Wk bits;
    * D sinh(pi D step) from the growing ladder e^{pi D step}
      (`_fixed_ladder`) and its reciprocal, at Wk bits;

    and the total is one integer dot product of the kernel against R.

    Widths.  The only error in R is the weights' flooring, a few units of
    2^-W A sum_j |a_j| at each lag, A = max |a_j|, and K(D step) multiplies
    it.  The spectral weights decay like e^{-pi |t|}, so R(D) falls like
    e^{-pi D step} while K grows like e^{pi D step / 2} (chi(d) =
    2 K_{id}(z) falls like e^{-pi d / 2}): the sum is the size of its first
    lags, but a flooring error at the longest lag, 2 T = (n - 1) step, is
    amplified by e^{pi T}.  So W = prec + pi T log2 e + 2 bit_length(n) + 8,
    the last for the n lags of an n-term sum.  The kernel's errors are
    relative, or absolute on chi, whose weight sinh(pi D step) R(D) stays
    bounded: the ladders are off by at most 5 D + 3 units, and over the
    M chi-grid nodes the Chebyshev series turns an error e in cos into at
    most sum_m m^2 |omega_m| e and its own rounding into at most M^2 units,
    so Wk = prec + 2 bit_length(M) + bit_length(5 n + 3) + 2 bit_length(n)
    + 8."""
    n = len(weights)
    guard = math.ceil(math.pi * float((n - 1) * step) / 2 * math.log2(math.e))
    width = prec + guard + 2 * n.bit_length() + 8
    kwidth = (prec + 2 * len(omegas).bit_length() + (5 * n + 3).bit_length()
              + 2 * n.bit_length() + 8)
    re, im, shift = _fixed_point(weights, width)
    corr_re, corr_im = _fixed_correlation((re, im), (re, im))
    # The ladders' steps at their own precision: D times a rounded step
    # would drift by D of its ulps.
    with mp.workprec(kwidth + n.bit_length() + 8):
        cos, _ = _fixed_ladder(1j * h * step, 1, 1, n - 1, kwidth)
        ups, _ = _fixed_ladder(mp.pi * step, 1, 1, n - 1, kwidth)
    omega = [to_fixed(v._mpf_, kwidth) for v in omegas]
    # Clenshaw: b_m = omega_m + 2 x b_{m+1} - b_{m+2}, chi = omega_0 + x b_1 - b_2.
    twice = [c << 1 for c in cos]
    b1 = b2 = [0] * (n - 1)
    for w_m in reversed(omega[1:]):
        b1, b2 = [w_m + ((x * p) >> kwidth) - q for x, p, q in zip(twice, b1, b2)], b1
    chi = [omega[0] + ((x * p) >> (kwidth + 1)) - q for x, p, q in zip(twice, b1, b2)]
    # 2 D sinh(pi D step) chi(D step), at 2^-(2 kwidth), for D = 1 .. n - 1.
    kernel = [d * (up - (1 << 2 * kwidth) // up) * c
              for d, (up, c) in enumerate(zip(ups, chi), 1)]
    with mp.workprec(prec + 10):
        return step / mp.pi * _fixed_dot((corr_re[n:], corr_im[n:], 2 * shift),
                                         kernel, kernel, 2 * kwidth)
