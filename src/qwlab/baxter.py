"""Dual Baxter operator in residue-series and contour-integral form.

The operator acts on bounded analytic symmetric functions as a Gamma-
weighted sum over shift vectors nu (the residue form), and equivalently as
a Mellin-Barnes-type integral over vertical lines against a Sklyanin-type
density (the contour form).  Both forms are implemented and compared.

Contour geometry.  On the straight lines Re(xi_j) = a the N >= 2 integrand
decays only polynomially along xi_1 + xi_2 = const (the Gamma decay of the
axes is exactly cancelled by the 1/(Gamma(xi_i - xi_j)) growth), so the
lines are bent into the left half-plane beyond the pole heights, where the
Gamma factors decay super-exponentially.  The bend crosses no poles: the
integrand's xi_j-poles all sit at heights Im(xi) = Re(w_i), below the bend
corners, and to the left of Re(xi) = a in the working regime
-a < Im(w_i) < 0.  (For Im(w_i) < -a some poles would sit on the wrong
side of the line and the printed identity genuinely fails, so that regime
is rejected.)

Separable pair kernels.  Both N = 2 integrals are double sums over one node
set with a pair factor of d = xi_1 - xi_2, and both pair factors split
exactly into products of single-node factors, so the double sums cost O(n)
(contour) and O(n m) (spectral, m chi-grid nodes) instead of O(n^2) and
O(n^2 m):

* contour form, product test functions: -d sin(pi d)/pi has rank 4 (the
  four sums of g, g xi against sin(pi xi), cos(pi xi));
* spectral form: d sinh(pi d) cos(tau d)/pi has rank 8 per chi-grid node
  tau (the sums of a, a t against e^{+-pi t} cos(tau t), e^{+-pi t} sin(tau t)).

The single-node factors grow like e^{pi |Im xi|} (contour) or e^{pi |t|}
(spectral), so the products can exceed the result by e^{2 pi H}, with H the
largest such height; they are combined at 2 pi H log2(e) guard bits above
the working precision.  The contour form keeps the pairwise O(n^2) sum for a
plain callable f, which also serves as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .gamma import GammaPoleError, gamma_c
from .qcore import DomainError, QwlabError, compositions_of_weight
from .quadrature import (
    GL_ORDER,
    QuadratureConfig,
    QuadResult,
    gauss_legendre_rule,
    integrate_1d,
    nodes_1d,
    refine,
)
from .report import VerificationReport, comparison_report
from .whittaker import pair_coupling, whittaker_eval


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
    needed; the error field carries the magnitude of the last two shells.
    """
    w = tuple(mp.mpc(v) for v in w)
    n = len(w)
    if cap < 0:
        raise DomainError("cap must be >= 0")
    u = mp.mpc(u)
    # Treat anything within working roundoff of a pole as the pole itself.
    near_zero = mp.mpf(2) ** (-mp.mp.prec // 2)
    # ratio_tab[i][j][m] = Gamma(1 + i d_ij) / Gamma(1 + m + i d_ij)
    ratio_tab = []
    for i in range(n):
        row = []
        for j in range(n):
            d = 1j * (w[j] - w[i])
            vals = [mp.mpc(1)]
            acc = mp.mpc(1)
            for m in range(1, cap + 1):
                fact = m + d
                if abs(fact) < near_zero:
                    raise DomainError(
                        f"Gamma pole in shift ladder: w_{j} - w_{i} = {w[j] - w[i]}"
                    )
                acc = acc / fact
                vals.append(acc)
            row.append(vals)
        ratio_tab.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) < near_zero:
                raise DomainError("coincident w entries hit a cross-ratio pole")

    total = mp.mpc(0)
    shell_mags = []
    upow = mp.mpc(1)
    for k in range(cap + 1):
        shell = mp.mpc(0)
        for nu in compositions_of_weight(k, n):
            cross = mp.mpc(1)
            for i in range(n):
                for j in range(i + 1, n):
                    cross = cross * (w[j] - w[i] + 1j * (nu[j] - nu[i])) / (w[j] - w[i])
            ratio = mp.mpc(1)
            for i in range(n):
                if nu[i]:
                    for j in range(n):
                        ratio = ratio * ratio_tab[i][j][nu[i]]
            shell = shell + cross * ratio * f(tuple(w[i] + 1j * nu[i] for i in range(n)))
        total = total + upow * shell
        shell_mags.append(abs(upow * shell))
        upow = upow * u
    tail = shell_mags[-1] + (shell_mags[-2] if len(shell_mags) > 1 else mp.mpf(0))
    return QuadResult(total, tail, {"cap": cap, "last_shells": shell_mags[-2:]})


# ---------------------------------------------------------------------------
# Contour form
# ---------------------------------------------------------------------------


def _bent_contour(w, a: float, u: float, cfg: QuadratureConfig, level: int,
                  prec: int):
    """Node/weight pairs (xi, W) along the bent line: vertical on
    [a - i S0, a + i S0], then rays into the left half-plane at 45 degrees.
    Oriented upward; W includes d(xi)."""
    s0 = max(abs(mp.re(wi)) for wi in w) + 3.0 if w else 3.0
    # On the 45-degree rays each Gamma factor decays like
    # exp(-(r/sqrt 2)(log r + 3pi/4 - 1)); size the tail against that,
    # minus the u^{-xi} growth when u > 1.
    need = -mp.log(mp.mpf(cfg.target_rel_error)) + 10
    u_penalty = max(0.0, math.log(u))
    R = 8.0
    while (R / math.sqrt(2)) * (math.log(R) + 1.0 - u_penalty) < need:
        R *= 1.25
    e_up = mp.mpc(-1, 1) / mp.sqrt(2)
    e_low = mp.mpc(-1, -1) / mp.sqrt(2)
    corner_up = mp.mpc(a, s0)
    corner_low = mp.mpc(a, -s0)
    out = []
    # Lower ray traversed from the far end to the corner: -e_low direction.
    for t, wt in nodes_1d(level, 0, R, prec):
        out.append((corner_low + t * e_low, -wt * e_low))
    for s, wt in nodes_1d(level, -s0, s0, prec):
        out.append((mp.mpc(a, 0) + 1j * s, wt * 1j))
    for t, wt in nodes_1d(level, 0, R, prec):
        out.append((corner_up + t * e_up, wt * e_up))
    return out


def _check_contour_regime(w, a: float):
    if a <= 0:
        raise DomainError("contour abscissa a must be positive")
    for wi in w:
        if not -a < mp.im(mp.mpc(wi)):
            raise DomainError(
                f"need Im(w_i) > -a so every Gamma pole sits left of the line; "
                f"got Im(w) = {mp.im(mp.mpc(wi))}, a = {a}"
            )


def contour_apply(f, w, u, a: float,
                  cfg: QuadratureConfig | None = None) -> QuadResult:
    """integral over (a + i R)^N (bent for convergence) of

        s_N(xi) u^{sum_i (i w_i - xi_i)} prod_{i,j} Gamma(xi_j - i w_i) f(-i xi).

    Requires u > 0, a > 0, -a < Im(w_i), and f analytic/bounded on
    {Im v >= -a}; N <= 2.  At N = 2 a TestFunction takes the rank-4 pair
    sum (`_rank4_pair_sum`); any other callable f takes the pairwise sum.
    """
    w = tuple(mp.mpc(v) for v in w)
    n = len(w)
    if n not in (1, 2):
        raise DomainError("contour form implemented for N in {1, 2}")
    u = mp.mpf(u)
    if u <= 0:
        raise DomainError("u must be positive")
    _check_contour_regime(w, a)
    if isinstance(f, TestFunction):
        f.check_analytic(a)
    if cfg is None:
        cfg = QuadratureConfig(target_rel_error=1e-9)
    prec = cfg.working_prec()
    with mp.workprec(prec):
        log_u = mp.log(u)
        uw = mp.mpc(1)
        for wi in w:
            uw = uw * u ** (1j * wi)

        separable = isinstance(f, TestFunction)

        def axis_factor(xi):
            g = mp.exp(-xi * log_u)
            for wi in w:
                g = g * gamma_c(xi - 1j * wi)
            if separable:
                g = g * f.axis_value(-1j * xi)
            return g

        def value_at(level):
            nodes = _bent_contour(w, a, float(u), cfg, level, prec)
            gvals = [(xi, wt * axis_factor(xi)) for xi, wt in nodes]
            if n == 1:
                acc = mp.mpc(0)
                if separable:
                    for xi, gw in gvals:
                        acc += gw
                else:
                    for xi, gw in gvals:
                        acc += gw * f((-1j * xi,))
                return uw * acc / (2j * mp.pi)
            if separable:
                acc = _rank4_pair_sum(gvals, prec)
            else:
                acc = mp.mpc(0)
                for xi1, gw1 in gvals:
                    inner = mp.mpc(0)
                    for xi2, gw2 in gvals:
                        inner += gw2 * pair_coupling(xi1 - xi2) * f((-1j * xi1, -1j * xi2))
                    acc += gw1 * inner
            return uw * acc / ((2j * mp.pi) ** 2 * 2)

        # Pair counts grow 4x per level; past level 5 a miss means the
        # target is out of reach, not under-resolved.
        max_level = cfg.max_depth if n == 1 else min(cfg.max_depth, 5)
        return refine(value_at, range(max_level), cfg, "contour quadrature")


def _guard_bits(height) -> int:
    """Extra bits for a separated pair sum whose single-node factors reach
    e^{pi height}: its rank-k products can exceed the result by e^{2 pi height}."""
    return math.ceil(2 * math.pi * float(height) * math.log2(math.e))


def _rank4_pair_sum(gvals, prec: int):
    """sum_{j,k} g_j g_k pair_coupling(xi_j - xi_k) over all node pairs,
    exactly as

        -(2/pi) (S_xs S_c - S_xc S_s),  S_xs = sum g xi sin(pi xi), ...,

    since -d sin(pi d) with d = xi_j - xi_k expands into four products of
    single-node factors.  The four sums are combined at prec plus the guard
    bits of the largest |Im xi|."""
    height = max(abs(mp.im(xi)) for xi, _ in gvals)
    with mp.workprec(prec + _guard_bits(height)):
        g = [gw for _, gw in gvals]
        gx = [gw * xi for xi, gw in gvals]
        sin = [mp.sinpi(xi) for xi, _ in gvals]
        cos = [mp.cospi(xi) for xi, _ in gvals]
        return -2 / mp.pi * (mp.fdot(gx, sin) * mp.fdot(g, cos)
                             - mp.fdot(gx, cos) * mp.fdot(g, sin))


def lemma1_check(f: TestFunction, w, u, a: float,
                        cap: int = 30,
                        cfg: QuadratureConfig | None = None,
                        tolerance: float = 1e-8) -> VerificationReport:
    """Residue form at argument -u against the contour form: the two
    evaluations of the same operator must agree."""
    res = residue_apply(f, w, -mp.mpf(u), cap)
    con = contour_apply(f, w, u, a, cfg)
    return comparison_report(
        check_id="baxter-residue-vs-contour",
        params={"kind": f.kind, "b": f.b, "c": f.c, "w": list(w), "u": u,
                "a": a, "cap": cap},
        lhs=res.value,
        rhs=con.value,
        tolerance=tolerance,
        diagnostics={"residue_tail": res.error, "contour_error": con.error},
    )


# ---------------------------------------------------------------------------
# The Gamma identity behind the residue-contour matching, and its parity
# ---------------------------------------------------------------------------


def gamma_identity_check(r, nu, tolerance: float = 1e-10) -> VerificationReport:
    """prod_{i!=j} Gamma(r_j - r_i - nu_j) / Gamma(r_i - r_j - nu_i + nu_j)
    against its reflection-formula evaluation

        prod_{i<j} (r_j - r_i - nu_j + nu_i)/(r_j - r_i)
                   * Gamma(1 + r_i - r_j) Gamma(1 + r_j - r_i)
                   / (Gamma(1 + nu_j + r_i - r_j) Gamma(1 + nu_i + r_j - r_i)).
    """
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
                rhs *= gamma_c(1 - d) * gamma_c(1 + d)
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
                       tolerance: float = 1e-6,
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
    the tests exercise, up to the N = 2 chi grid's discretisation error: at
    large |delta| sinh(pi delta) amplifies it, and more so the higher the
    line (relative error 8e-4 at a_shift = 3 on criterion 6's inputs).
    """
    if which not in ("first", "second"):
        raise DomainError("which must be 'first' or 'second'")
    w = tuple(mp.mpc(v) for v in w)
    x = tuple(mp.mpf(v) for v in x)
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
            T = max(30.0, 2 * (-math.log(cfg.target_rel_error * 1e-2)) / math.pi
                    + abs(float(mp.re(w[0]))) + abs(float(x[0])))

            def integrand(t):
                xi = t + 1j * a_shift
                val = mp.exp(1j * xi * log_u) * gamma_c(-1j * xi - 1j * w[0])
                return val * mp.exp(sign * 1j * xi * x[0])

            quad = integrate_1d(integrand, -T, T, cfg)
            rhs = uw * quad.value / (2 * mp.pi)
            diag = {"quad_error": quad.error, "T": T, "a_shift": a_shift}
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


def _baxter_pair_integral(w, u, x, sign, a_shift, cfg: QuadratureConfig, prec: int):
    """N = 2 spectral integral along (R + i a_shift)^2 with the Whittaker
    factor reduced to the relative-coordinate profile chi(xi_1 - xi_2),
    which only sees the real parts, on a fixed grid.  The double sum over
    the spectral nodes is the rank-8 separation `_rank8_pair_sum`."""
    sigma = (x[0] + x[1]) / 2
    s = x[0] - x[1]
    z = 2 * mp.exp(-s / 2)
    log_u = mp.log(u)
    uw = mp.exp(1j * (w[0] + w[1]) * log_u)

    T = max(12.0, 2 * (-math.log(cfg.target_rel_error * 1e-2)) / math.pi)
    delta_max = 2 * T
    # chi(delta) = 2 int_0^inf cos(delta t) e^{-z cosh t} dt on a fixed grid
    # dense enough for the fastest oscillation.
    need = -mp.log(mp.mpf(cfg.target_rel_error)) + 20
    tmax = float(mp.log(2 * need / z + 3) + 1)
    panel = min(0.5, 4 * math.pi / delta_max)
    panels = max(8, int(math.ceil(tmax / panel)))
    tg = []
    rule = gauss_legendre_rule(GL_ORDER, prec)
    step = mp.mpf(tmax) / panels
    for p in range(panels):
        mid = (p + mp.mpf("0.5")) * step
        for node, wt in rule:
            t = mid + node * step / 2
            tg.append((t, wt * step / 2 * 2 * mp.exp(-z * mp.cosh(t))))

    def g(t):
        xi = t + 1j * a_shift
        val = mp.exp(1j * xi * log_u)
        val *= gamma_c(-1j * xi - 1j * w[0]) * gamma_c(-1j * xi - 1j * w[1])
        # phase from psi_{sign * xi}: e^{sign * i xi sigma} per coordinate
        return val * mp.exp(sign * 1j * xi * sigma)

    def value_at(level):
        axis = [(t, wt * g(t)) for t, wt in nodes_1d(level, -T, T, prec)]
        return uw * _rank8_pair_sum(axis, tg, prec, T) / ((2 * mp.pi) ** 2 * 2)

    quad = refine(value_at, range(min(cfg.max_depth, 4)), cfg, "spectral quadrature")
    return quad.value, {**quad.diagnostics, "quad_error": quad.error,
                        "T": T, "chi_nodes": len(tg), "a_shift": a_shift}


def _rank8_pair_sum(axis, chi_grid, prec: int, height):
    """sum_{j,k} a_j a_k (d sinh(pi d)/pi) chi(d) over all node pairs, where
    d = t_j - t_k and chi(d) = sum_m omega_m cos(tau_m d) on its grid.

    For each tau, write A_0(c) = sum a_j e^{c t_j}, A_1(c) = sum a_j t_j e^{c t_j}
    and F(c) = A_1(c) A_0(-c) - A_0(c) A_1(-c), the pair sum of a a d e^{c d}.
    Expanding sinh and cos into four exponentials, and using F(-c) = -F(c),
    the pair sum at tau is (F(pi + i tau) + F(pi - i tau)) / (2 pi).  With
    A_k(+-pi +- i tau) = sum (a t^k e^{+-pi t}) (cos(tau t) +- i sin(tau t)),
    that takes eight single-node sums per tau: O(n m) work instead of
    O(n^2 m).  They are combined at prec plus the guard bits of |t| <= height.
    """
    with mp.workprec(prec + _guard_bits(height)):
        up = [a * mp.exp(mp.pi * t) for t, a in axis]
        down = [a * mp.exp(-mp.pi * t) for t, a in axis]
        up_t = [b * t for (t, _), b in zip(axis, up)]
        down_t = [b * t for (t, _), b in zip(axis, down)]
        acc = mp.mpc(0)
        for tau, omega in chi_grid:
            cos, sin = zip(*(mp.cos_sin(tau * t) for t, _ in axis))
            # (F(pi + i tau) + F(pi - i tau)) / 2: the cross terms of the
            # conjugate pairs cancel.
            acc += omega * (mp.fdot(up_t, cos) * mp.fdot(down, cos)
                            + mp.fdot(up_t, sin) * mp.fdot(down, sin)
                            - mp.fdot(up, cos) * mp.fdot(down_t, cos)
                            - mp.fdot(up, sin) * mp.fdot(down_t, sin))
        return acc / mp.pi
