"""The q -> 1 scaling regime connecting q-Whittaker to Whittaker functions.

A scaling point (epsilon, x, w, u) is mapped to

    q    = e^{-epsilon}
    lam_k = (N - 2k + 1) eps^{-1} log(eps^{-1}) + eps^{-1} x_k   (rounded)
    z_k  = e^{i epsilon w_k}
    zeta = -u epsilon^N

and the scaled polynomial

    psi^eps_w(x) = (eps (q;q)_inf)^{N(N-1)/2} P_lam(z; q, t=0)

converges to the Whittaker function psi_w(x).  The normalization can be
derived by a Riemann-sum heuristic on the branching sum: each interlacing
weight degenerates to (q;q)_inf^{-1} times one exponential coupling of the
pattern integral, and each lattice coordinate contributes a mesh factor
eps.  Via the eta-product asymptotic

    log (q;q)_inf = -pi^2/(6 eps) - (1/2) log(eps / (2 pi)) + O(eps)

the prefactor is asymptotically eps^{N(N-1)/2} e^{N(N-1)/2 * A~(eps)} with
A~ the right-hand side above (`tests/oracles.py` keeps it as
`a_eps_corrected`, checked against the Euler product).  A variant with an
eps^{-1} coefficient on the log term grows too fast by
exp(Theta(log^2(1/eps)/eps)) when used as the exponent, and gives no
convergent scaling.

The checks demonstrate the convergence of each factor numerically: no rate
is asserted, only error decrease along a decreasing epsilon ladder.

lam_k must be an integer for P_lam to exist, while the scaling display is
real-valued; each coordinate is rounded to the nearest integer (ties to
even) and the raw values are kept for diagnostics.  All arithmetic runs at
a caller-chosen precision (default 256 bits): the prefactor is astronomically
small and P_lam correspondingly large, but the branching sum has positive
weights times unit-modulus phases, so the cancellation is bounded by the
phase spread and high precision keeps it harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath as mp

from .gamma import gamma_c
from .qcore import DomainError, QwlabError, qpoch_finite, qpoch_infinite, set_precision
from .quadrature import QuadratureConfig
from .report import VerificationReport
from .symfunc import qwhittaker_branch_eval
from .whittaker import whittaker_eval

DEFAULT_PREC_BITS = 256
MAX_PREC_BITS = 4096
DEFAULT_EPS_LADDER = (0.4, 0.2, 0.1, 0.05)


@dataclass(frozen=True)
class ScalingPoint:
    epsilon: float
    x: tuple
    w: tuple
    u: float = 1.0
    prec_bits: int = DEFAULT_PREC_BITS

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "w", tuple(self.w))
        if not 0 < self.epsilon < 1:
            raise DomainError("epsilon must lie in (0, 1)")
        if len(self.x) != len(self.w) or not self.x:
            raise DomainError("x and w must be nonempty vectors of equal length")
        if self.u <= 0:
            raise DomainError("u must be positive")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class ScaledImage:
    q: mp.mpf
    lam: tuple        # rounded, weakly decreasing integers
    lam_raw: tuple
    z: tuple
    zeta: mp.mpf


def scaling_map(p: ScalingPoint) -> ScaledImage:
    """All four scaled images; lam rounded to nearest integer (ties to even)."""
    with set_precision(p.prec_bits):
        eps = mp.mpf(p.epsilon)
        n = p.n
        log_inv = mp.log(1 / eps)
        raw = tuple(
            ((n - 2 * k + 1) * log_inv + mp.mpf(p.x[k - 1])) / eps
            for k in range(1, n + 1)
        )
        lam = tuple(int(mp.nint(v)) for v in raw)
        for i in range(n - 1):
            if lam[i] < lam[i + 1]:
                raise DomainError(
                    f"rounded signature {lam} is not weakly decreasing "
                    f"(raw {[mp.nstr(v, 8) for v in raw]}); "
                    "reorder x or perturb epsilon"
                )
        z = tuple(mp.exp(1j * eps * mp.mpc(wk)) for wk in p.w)
        zeta = -mp.mpf(p.u) * eps**n
        return ScaledImage(q=mp.exp(-eps), lam=lam, lam_raw=raw, z=z, zeta=zeta)


def _scaled_value(p: ScalingPoint, prec: int) -> mp.mpc:
    with set_precision(prec):
        img = scaling_map(replace(p, prec_bits=prec))
        eps = mp.mpf(p.epsilon)
        n = p.n
        poly = qwhittaker_branch_eval(img.lam, img.z, img.q)
        # (eps (q;q)_inf)^{N(N-1)/2}, assembled in log space.
        half = mp.mpf(n * (n - 1)) / 2
        log_pref = half * (mp.log(eps) + mp.log(qpoch_infinite(img.q, img.q)))
        return mp.exp(log_pref) * poly


def scaled_qwhittaker(p: ScalingPoint) -> mp.mpc:
    """psi^eps_w(x) at the point's precision, with automatic escalation.

    The value is recomputed with 64 extra bits; if the two disagree beyond
    2^(-prec/4) the precision is doubled, up to a cap.
    """
    if p.n > 3:
        raise DomainError("scaled evaluation supports N <= 3")
    prec = p.prec_bits
    while True:
        v1 = _scaled_value(p, prec)
        v2 = _scaled_value(p, prec + 64)
        scale = max(abs(v2), mp.mpf(2) ** (-prec))
        if abs(v1 - v2) / scale < mp.mpf(2) ** (-prec // 4):
            return v2
        prec *= 2
        if prec > MAX_PREC_BITS:
            raise QwlabError(
                f"catastrophic cancellation persists at {MAX_PREC_BITS} bits"
            )


def _check_ladder(eps_list) -> tuple:
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 2:
        raise DomainError("need at least two epsilon values")
    if not all(0 < e < 1 for e in eps_list):
        raise DomainError("epsilon must lie in (0, 1)")
    for a, b in zip(eps_list, eps_list[1:]):
        if not b < a:
            raise DomainError("epsilon list must be strictly decreasing")
    return eps_list


def _ladder_flags(errors) -> tuple:
    """(strictly_improving, halved): zero-error plateaus count as converged."""
    strict = True
    for a, b in zip(errors, errors[1:]):
        if not (b < a or (a == 0 and b == 0)):
            strict = False
    halved = errors[-1] <= errors[0] / 2 or (errors[0] == 0 and errors[-1] == 0)
    return strict, halved


def eq_exp_limit_check(eps_list=DEFAULT_EPS_LADDER, u=1.0, x_n=0.0,
                       prec_bits: int = 128) -> VerificationReport:
    """1/(zeta q^{lam_N}; q)_inf against e^{-u e^{-x_N}} along the ladder
    (N = 1 scaling: lam = round(x_N / eps), zeta = -u eps).

    Passes when the error falls strictly along the ladder and the last
    rung's relative error is at most its epsilon: the limit is first order
    in epsilon, so a falling error that is still far from the target fails.
    """
    eps_list = _check_ladder(eps_list)
    with set_precision(prec_bits):
        target = mp.exp(-mp.mpf(u) * mp.exp(-mp.mpf(x_n)))
        rows = []
        errors = []
        for eps_f in eps_list:
            eps = mp.mpf(eps_f)
            q = mp.exp(-eps)
            lam = int(mp.nint(mp.mpf(x_n) / eps))
            zeta = -mp.mpf(u) * eps
            val = 1 / qpoch_infinite(zeta * q**lam, q)
            err = abs(val - target)
            errors.append(err)
            rows.append({"epsilon": eps_f, "value": val, "abs_err": err})
        strict, halved = _ladder_flags(errors)
    rel_err = errors[-1] / abs(target)
    return VerificationReport(
        check_id="eq-exponential-limit",
        params={"u": u, "x_n": x_n, "eps_list": list(eps_list)},
        lhs=rows[-1]["value"],
        rhs=target,
        abs_err=errors[-1],
        rel_err=rel_err,
        tolerance="strictly decreasing error ladder",
        passed=strict and rel_err <= eps_list[-1],
        diagnostics={"rows": rows, "halved": halved},
    )


def term_limit_checks(eps_list=DEFAULT_EPS_LADDER, nu=(1, 0),
                      w=(0.5, -0.2), prec_bits: int = 128) -> VerificationReport:
    """Factorwise limits of one operator term at a pair of coordinates:

    * cross ratio (q^{nu_1} z_1 - q^{nu_2} z_2)/(z_1 - z_2)
        -> (i(nu_2 - nu_1) + (w_2 - w_1)) / (w_2 - w_1);
    * scaled Pochhammer eps^{nu_i} / (q z_i/z_j; q)_{nu_i}
        -> Gamma(1 + i(w_j - w_i)) / Gamma(1 + nu_i + i(w_j - w_i))
      for every ordered pair (i, j).

    Every ladder must be strictly decreasing (identically-zero ladders pass).
    """
    eps_list = _check_ladder(eps_list)
    nu = tuple(int(v) for v in nu)
    if len(nu) != 2 or len(w) != 2:
        raise DomainError("this check works on a coordinate pair")
    if any(v < 0 for v in nu):
        raise DomainError("nu entries must be >= 0")
    with set_precision(prec_bits):
        w = tuple(mp.mpc(v) for v in w)
        if w[0] == w[1]:
            raise DomainError("need w_1 != w_2 for the cross ratio")
        factors = {"cross": []}
        targets = {
            "cross": (1j * (nu[1] - nu[0]) + (w[1] - w[0])) / (w[1] - w[0])
        }
        for i in range(2):
            for j in range(2):
                key = f"poch[{i + 1},{j + 1}]"
                factors[key] = []
                targets[key] = gamma_c(1 + 1j * (w[j] - w[i])) / gamma_c(
                    1 + nu[i] + 1j * (w[j] - w[i])
                )
        for eps_f in eps_list:
            eps = mp.mpf(eps_f)
            q = mp.exp(-eps)
            z = tuple(mp.exp(1j * eps * wk) for wk in w)
            factors["cross"].append(
                (q ** nu[0] * z[0] - q ** nu[1] * z[1]) / (z[0] - z[1])
            )
            for i in range(2):
                for j in range(2):
                    key = f"poch[{i + 1},{j + 1}]"
                    factors[key].append(
                        eps ** nu[i] / qpoch_finite(q * z[i] / z[j], q, nu[i])
                    )
        tables = {}
        all_strict = True
        worst_last = mp.mpf(0)
        for key, vals in factors.items():
            errs = [abs(v - targets[key]) for v in vals]
            strict, halved = _ladder_flags(errs)
            all_strict = all_strict and strict
            worst_last = max(worst_last, errs[-1])
            tables[key] = {
                "target": targets[key],
                "errors": errs,
                "strict": strict,
                "halved": halved,
            }
    return VerificationReport(
        check_id="term-factor-limits",
        params={"nu": list(nu), "w": [str(v) for v in w], "eps_list": list(eps_list)},
        lhs="epsilon-dependent factors",
        rhs="Gamma-ratio limits",
        abs_err=worst_last,
        rel_err=worst_last,
        tolerance="strictly decreasing error ladders",
        passed=all_strict,
        diagnostics={"factors": tables},
    )


def convergence_sweep(eps_list=DEFAULT_EPS_LADDER, x=(0.3, -0.3),
                      w=(0.5, -0.2), prec_bits: int = DEFAULT_PREC_BITS):
    """psi^eps_w(x) against psi_w(x), the latter integrated to a relative
    error of 1e-12, along the ladder; returns
    (report, rows) where rows are (epsilon, value, target, abs_err).

    Passes when the smallest-epsilon error is at most half the largest-
    epsilon error; strict monotonicity is recorded separately.
    """
    eps_list = _check_ladder(eps_list)
    x = tuple(x)
    w = tuple(w)
    if len(x) not in (1, 2):
        raise DomainError("sweep supports N in {1, 2}")
    with set_precision(prec_bits):
        target = whittaker_eval(w, x, QuadratureConfig(target_rel_error=1e-12)).value
        rows = []
        errors = []
        for eps_f in eps_list:
            val = scaled_qwhittaker(ScalingPoint(eps_f, x, w, 1.0, prec_bits))
            err = abs(val - target)
            errors.append(err)
            rows.append((eps_f, val, target, err))
        strict, halved = _ladder_flags(errors)
    report = VerificationReport(
        check_id="scaled-whittaker-sweep",
        params={"x": list(x), "w": [str(v) for v in w],
                "eps_list": list(eps_list), "prec_bits": prec_bits},
        lhs=rows[-1][1],
        rhs=target,
        abs_err=errors[-1],
        rel_err=errors[-1] / abs(target),
        tolerance="error at smallest epsilon at most half the largest",
        passed=halved,
        diagnostics={
            "errors": errors,
            "strictly_decreasing": strict,
            "halved": halved,
        },
    )
    return report, rows


SWEEP_CSV_HEADER = "epsilon,re_value,im_value,re_target,im_target,abs_err"


def sweep_rows_to_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for eps_f, val, target, err in rows:
        lines.append(",".join([
            repr(float(eps_f)),
            mp.nstr(mp.re(val), 17),
            mp.nstr(mp.im(val), 17),
            mp.nstr(mp.re(target), 17),
            mp.nstr(mp.im(target), 17),
            mp.nstr(err, 8),
        ]))
    return "\n".join(lines) + "\n"
