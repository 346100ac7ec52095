"""The four workloads: seeded inputs and the checks run on them.

``make_inputs(workload, seed)`` is a pure function of its arguments and uses
no qwlab code, so the program receives only generated inputs.
``make_checks(workload, inputs)`` turns them into a list of ``Check``: each
has a ``run`` step that calls qwlab's public functions (timed) and a
``verify`` step that compares the outputs with an anchor from ``anchors``
(not timed).  Calls go through the ``qwlab`` package attribute at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

import qwlab

from qwbench import WORKLOADS, anchors

# Stands for "exact" in accuracy_digits: on the exact workload every residual
# must be an exact Fraction zero, so there is no rounding error to measure.
EXACT_DIGITS = 1000.0

# The default configuration's working precision (whittaker_eval,
# pair_profile), and the precision of the callers here: mpmath's default.
PROFILE_PREC = qwlab.QuadratureConfig().working_prec()
CALLER_PREC = mp.mp.prec


@dataclass
class Outcome:
    passed: bool
    rel_err: object = None  # None: exact, or a ladder that shows convergence
    detail: str = ""
    # A failure that a known, documented fault of the program explains, and
    # no worse than that fault is today: counted as failed, but it does not
    # make the run wrong.  Beyond that ceiling the failure is a new one.
    known_fault: bool = False


@dataclass
class Check:
    check_id: str
    run: Callable[[], object]
    verify: Callable[[object], Outcome]
    # Working precision of the program's result.  The runner verifies at
    # this plus anchors.GUARD_BITS and counts accuracy digits against it.
    prec_bits: int | None = None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _partitions(weight: int, largest: int | None = None):
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, largest or weight), 0, -1):
        for rest in _partitions(weight - first, first):
            yield (first,) + rest


def _unit_rational(rng: random.Random) -> Fraction:
    den = rng.randint(50, 99)
    return Fraction(rng.randint(1, den - 1), den)


def _distinct_rationals(rng: random.Random, count: int) -> tuple:
    vals: list = []
    while len(vals) < count:
        v = Fraction(rng.randint(1, 40), rng.randint(2, 40)) * rng.choice((1, -1))
        if v not in vals:
            vals.append(v)
    return tuple(vals)


def _exact_inputs(rng: random.Random) -> dict:
    cases = []
    for weight in range(7):  # qwlab's degree cap is 6 ...
        for lam in _partitions(weight):
            for n in range(1, 5):  # ... and its variable cap is 4
                if len(lam) > n:
                    continue
                q = _unit_rational(rng)
                t = _unit_rational(rng)
                while t == q:
                    t = _unit_rational(rng)
                cases.append({
                    "lam": lam, "n": n, "q": q, "t": t,
                    "z": _distinct_rationals(rng, n),
                    "noumi_seed": rng.randrange(2**31),
                    "d1_seed": rng.randrange(2**31),
                })
    return {"cases": cases, "order": 4}


def _contour_inputs(rng: random.Random) -> dict:
    n1 = [{
        "u": round(rng.uniform(0.5, 1.5), 4),
        "w": complex(round(rng.uniform(-0.5, 0.5), 4), round(rng.uniform(-0.8, -0.2), 4)),
        "a": round(rng.uniform(1.0, 1.5), 4),
    } for _ in range(3)]
    return {
        "n1": n1,
        # The N = 2 cases are those of acceptance criteria 4 and 6: their
        # quadrature level counts, and so their cost, stay fixed.
        "lemma_n2": {"b": 3.0, "w": (-0.5j, 1 - 0.6j), "u": 1.0, "a": 1.0, "cap": 40},
        "baxter_n2": {"w": (0.2 - 0.5j, -0.1 - 0.6j), "u": 1.0, "x": (0.3, -0.3)},
    }


def _n2_points(rng: random.Random, whittaker: int, profile: int) -> dict:
    return {
        "whittaker_n2": [{
            "lam": (round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4)),
            "x": (round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4)),
        } for _ in range(whittaker)],
        "pair_profile": [{
            "mu": (complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-0.3, 0.3), 4)),
                   complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-0.3, 0.3), 4))),
            "s": round(rng.uniform(-2, 3), 4),
        } for _ in range(profile)],
    }


def _profiles_inputs(rng: random.Random) -> dict:
    return {
        **_n2_points(rng, 4, 4),
        # The error estimates miss the true error on some points of every
        # few dozen (see README), so the points of this check do not depend
        # on the seed: it fails in every round, on the same points.
        "estimates": _n2_points(random.Random("n2-error-estimates"), 8, 48),
        "stade_n2": {"u": 1.0, "lam": (1.5, 1.4), "nu": (1.45, 1.35), "target": 1e-2},
        "n3": {"lam": (0.5, 0.1, -0.4), "x": (0.4, 0.0, -0.4), "target": 1e-9,
               "box_halfwidth": 2.5},
    }


def _gamma_points(rng: random.Random, count: int) -> list:
    pts = []
    while len(pts) < count:
        z = complex(round(rng.uniform(-3.5, 6), 4), round(rng.uniform(-5, 5), 4))
        if abs(z.imag) >= 0.1:  # keep clear of the poles
            pts.append(z)
    return pts


def _gamma_limits_inputs(rng: random.Random) -> dict:
    grid = {64: _gamma_points(rng, 10), 128: _gamma_points(rng, 10),
            # gamma_c misses the 256-bit target on every point tried (see
            # README), so this grid does not depend on the seed.
            256: _gamma_points(random.Random("gamma-256"), 10)}
    identity = []
    for n in (2, 3):
        r = tuple(complex(round(rng.uniform(-2, 2) + 0.7 * k, 4), round(rng.uniform(-1.5, 1.5), 4))
                  for k in range(n))
        identity.append({"r": r, "nu_max": 2})
    kappa = [tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 5))) for _ in range(100)]
    euler = []
    while len(euler) < 50:
        z = complex(round(rng.uniform(-8, 8), 4), round(rng.uniform(-8, 8), 4))
        if abs(z.imag) >= 0.05:
            euler.append(z)
    stade_n1 = [{"u": round(rng.uniform(0.5, 2), 4), "lam": (round(rng.uniform(0.3, 1), 4),),
                 "nu": (round(rng.uniform(0.3, 1), 4),)} for _ in range(2)]
    return {
        "gamma_grid": grid,
        "identity": identity,
        "kappa": kappa,
        "euler": euler,
        "stade_n1": stade_n1,
        # Criterion 6 (N = 1) and criterion 7 inputs: fixed, because the
        # signature rounding of the scaling map rejects arbitrary points.
        "baxter_n1": {"w": (0.3 - 0.4j,), "u": 1.0, "x": (0.2,), "target": 1e-7},
        "ladder": (0.4, 0.2, 0.1, 0.05),
        "sweep": {"x": (0.1, -0.1), "w": (0.5, -0.2)},
    }


_INPUTS = {
    "exact": _exact_inputs,
    "contour": _contour_inputs,
    "profiles": _profiles_inputs,
    "gamma-limits": _gamma_limits_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same (workload, seed) gives the same inputs."""
    if workload not in _INPUTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _INPUTS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# Verification helpers
# ---------------------------------------------------------------------------


def _close(value, anchor, tolerance: float, what: str = "") -> Outcome:
    err = anchors.relative_error(value, anchor)
    return Outcome(bool(err <= tolerance), err, f"{what}rel_err={mp.nstr(err, 3)} tol={tolerance}")


def _all(outcomes) -> Outcome:
    """Combine sub-comparisons of one check: it passes when all do, and its
    error is the largest among them."""
    outcomes = list(outcomes)
    return Outcome(all(o.passed for o in outcomes), max(o.rel_err for o in outcomes),
                   "; ".join(o.detail for o in outcomes if not o.passed))


def _report_and_anchor(report, value, anchor, tolerance) -> Outcome:
    own = _close(value, anchor, tolerance, "anchor ")
    return Outcome(bool(report.passed) and own.passed, own.rel_err,
                   f"report pass={report.passed}; {own.detail}")


def _strictly_decreasing(errors) -> bool:
    return all(b < a or (a == 0 and b == 0) for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _exact_checks(inp: dict) -> list:
    checks = []
    order = inp["order"]
    for case in inp["cases"]:
        lam, n, q, t, z = case["lam"], case["n"], case["q"], case["t"], case["z"]
        tag = f"{''.join(map(str, lam)) or '0'}-n{n}"
        padded = lam + (0,) * (n - len(lam))

        def exact_zero(rep):
            ok = bool(rep.passed) and isinstance(rep.abs_err, Fraction) and rep.abs_err == 0
            return Outcome(ok, None, f"abs_err={rep.abs_err}")

        checks.append(Check(
            f"noumi-{tag}",
            lambda lam=lam, n=n, q=q, t=t, s=case["noumi_seed"]:
                qwlab.verify_noumi(lam, n, q, t, order=order, samples=1, seed=s),
            exact_zero))
        checks.append(Check(
            f"d1-{tag}",
            lambda lam=lam, n=n, q=q, t=t, s=case["d1_seed"]:
                qwlab.macdonald_d1_check(lam, n, q, t, samples=1, seed=s),
            exact_zero))

        def three_ways(lam=lam, n=n, q=q, t=t, z=z, padded=padded):
            gs = qwlab.macdonald_gram_schmidt(lam, q, t, nvars=n)
            eig = qwlab.macdonald_triangular_eigen(lam, n, q, t)
            gs0 = qwlab.macdonald_gram_schmidt(lam, q, Fraction(0), nvars=n)
            return gs, eig, qwlab.qwhittaker_branch_eval(padded, z, q), qwlab.eval_symmetric(gs0, z)

        def three_agree(out):
            gs, eig, branch, at_zero = out
            exact = isinstance(branch, Fraction) and isinstance(at_zero, Fraction)
            return Outcome(exact and gs.terms == eig.terms and branch == at_zero, None,
                           f"gs==eig {gs.terms == eig.terms}, branch==gs(t=0) {branch == at_zero}")

        checks.append(Check(f"macdonald-three-ways-{tag}", three_ways, three_agree))
        checks.append(Check(
            f"schur-at-t-eq-q-{tag}",
            lambda lam=lam, n=n, q=q, z=z:
                qwlab.eval_symmetric(qwlab.macdonald_gram_schmidt(lam, q, q, nvars=n), z),
            lambda v, lam=lam, z=z: Outcome(
                isinstance(v, Fraction) and v == anchors.schur_bialternant(lam, z), None,
                f"value={v}")))
    return checks


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------


CONTOUR_PREC = 100  # the precision acceptance criterion 4 runs at


def _at_prec(prec: int, fn: Callable[[], object]) -> Callable[[], object]:
    def run():
        with mp.workprec(prec):
            return fn()
    return run


def _contour_checks(inp: dict) -> list:
    checks = []
    one = qwlab.TestFunction("constant")
    for k, case in enumerate(inp["n1"]):
        u, w, a = case["u"], (case["w"],), case["a"]

        def e_minus_u(res, u=u):
            return _close(res.value, mp.exp(-mp.mpf(u)), 1e-10)

        checks.append(Check(f"residue-n1-{k}", _at_prec(
            CONTOUR_PREC, lambda w=w, u=u: qwlab.residue_apply(one, w, -u, cap=30)), e_minus_u,
            CONTOUR_PREC))
        checks.append(Check(f"contour-n1-{k}", _at_prec(
            CONTOUR_PREC, lambda w=w, u=u, a=a: qwlab.contour_apply(one, w, u, a)), e_minus_u,
            CONTOUR_PREC))

    lem = inp["lemma_n2"]
    cfg = qwlab.QuadratureConfig(scheme=qwlab.GAUSS_LEGENDRE, target_rel_error=1e-3)
    checks.append(Check(
        "residue-vs-contour-n2",
        _at_prec(CONTOUR_PREC, lambda: qwlab.lemma1_check(
            qwlab.TestFunction("product-pole", b=lem["b"]), lem["w"], lem["u"], lem["a"],
            cap=lem["cap"], cfg=cfg, tolerance=1e-6)),
        lambda rep: Outcome(bool(rep.passed), rep.rel_err, f"rel_err={mp.nstr(rep.rel_err, 3)}"),
        CONTOUR_PREC))

    bax = inp["baxter_n2"]
    # The default configuration: its spectral integral runs at 64 bits.
    checks.append(Check(
        "baxter-n2-second",
        lambda: qwlab.baxter_eigen_check(bax["w"], bax["u"], bax["x"], "second", tolerance=1e-3),
        lambda rep: _report_and_anchor(
            rep, rep.rhs, anchors.baxter_left_side(bax["w"], bax["u"], bax["x"], "second"), 1e-3),
        64))
    return checks


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def _bounded_by_estimate(res, anchor, slack_bits: int) -> bool:
    """The reported error estimate bounds the true error, up to 16 units of
    2^-slack_bits."""
    slack = 16 * mp.mpf(2) ** -slack_bits * abs(anchor)
    return bool(abs(mp.mpc(res.value) - anchor) <= res.error + slack)


def _profile_point(res, anchor) -> Outcome:
    """A seeded N = 2 point: close to the K-Bessel closed form, and bounded by
    its estimate up to the known fault's ceiling (see _estimates_verify)."""
    close = _close(res.value, anchor, 1e-8)
    bounded = _bounded_by_estimate(res, anchor, CALLER_PREC)
    return Outcome(close.passed and bounded, close.rel_err,
                   f"{close.detail}; true_err={mp.nstr(abs(mp.mpc(res.value) - anchor), 3)} "
                   f"reported={mp.nstr(res.error, 3)}")


def _estimates_run(points: dict) -> tuple:
    return ([qwlab.whittaker_eval(pt["lam"], pt["x"]) for pt in points["whittaker_n2"]],
            [qwlab.pair_profile(pt["mu"][0], pt["mu"][1], pt["s"]) for pt in points["pair_profile"]])


def _estimates_verify(out, points: dict) -> Outcome:
    """Every reported error estimate bounds the true error up to 16 units of
    the working precision.  Known fault: whittaker_eval (its centre-of-mass
    phase) and pair_profile (its z = 2 e^{-s/2}) compute one factor at the
    caller's precision before the quadrature raises it, so their results
    carry that rounding, which the estimate does not see.  The ceiling of the
    fault is 16 units of the caller's precision."""
    pairs = list(zip(out[0], (anchors.gl2_whittaker(pt["lam"], pt["x"])
                              for pt in points["whittaker_n2"])))
    pairs += zip(out[1], (anchors.gl2_profile(pt["mu"][0], pt["mu"][1], pt["s"])
                          for pt in points["pair_profile"]))
    strict = sum(_bounded_by_estimate(res, a, PROFILE_PREC) for res, a in pairs)
    within_ceiling = all(_bounded_by_estimate(res, a, CALLER_PREC) for res, a in pairs)
    return Outcome(strict == len(pairs), max(anchors.relative_error(r.value, a) for r, a in pairs),
                   f"{len(pairs) - strict} of {len(pairs)} estimates miss the true error by "
                   f"more than 16 units of 2^-{PROFILE_PREC}",
                   known_fault=within_ceiling)


def _profiles_checks(inp: dict) -> list:
    checks = []
    for k, pt in enumerate(inp["whittaker_n2"]):
        checks.append(Check(
            f"whittaker-n2-{k}",
            lambda pt=pt: qwlab.whittaker_eval(pt["lam"], pt["x"]),
            lambda res, pt=pt: _profile_point(res, anchors.gl2_whittaker(pt["lam"], pt["x"])),
            PROFILE_PREC))
    for k, pt in enumerate(inp["pair_profile"]):
        checks.append(Check(
            f"pair-profile-{k}",
            lambda pt=pt: qwlab.pair_profile(pt["mu"][0], pt["mu"][1], pt["s"]),
            lambda res, pt=pt: _profile_point(
                res, anchors.gl2_profile(pt["mu"][0], pt["mu"][1], pt["s"])),
            PROFILE_PREC))
    est = inp["estimates"]
    checks.append(Check("n2-error-estimates", lambda: _estimates_run(est),
                        lambda out: _estimates_verify(out, est), PROFILE_PREC))

    st = inp["stade_n2"]
    st_cfg = qwlab.QuadratureConfig(scheme=qwlab.GAUSS_LEGENDRE, target_rel_error=st["target"])
    for which in ("first", "second"):
        checks.append(Check(
            f"stade-n2-{which}",
            lambda which=which: qwlab.stade_check(st["u"], st["lam"], st["nu"], which,
                                                  cfg=st_cfg, tolerance=1e-4),
            lambda rep: _report_and_anchor(
                rep, rep.lhs, anchors.stade_value(st["u"], st["lam"], st["nu"]), 1e-4),
            st_cfg.working_prec()))

    n3 = inp["n3"]
    n3_cfg = qwlab.QuadratureConfig(scheme=qwlab.GAUSS_LEGENDRE, target_rel_error=n3["target"],
                                    box_halfwidth=n3["box_halfwidth"])

    def reflection_pair():
        direct = qwlab.whittaker_eval(n3["lam"], n3["x"], n3_cfg)
        mirrored = qwlab.whittaker_eval(tuple(-v for v in n3["lam"]),
                                        tuple(-v for v in reversed(n3["x"])), n3_cfg)
        return direct, mirrored

    checks.append(Check(
        "whittaker-n3-reflection", reflection_pair,
        lambda out: _close(out[0].value, out[1].value, 1e-8), n3_cfg.working_prec()))
    return checks


# ---------------------------------------------------------------------------
# gamma-limits
# ---------------------------------------------------------------------------


GAMMA_UNITS = 8  # "a few units" of the working precision
# Known fault: at 256 bits gamma_c misses by about 6e5 units (see README).
# Worse than this ceiling is a new failure.
GAMMA_256_CEILING = 1e7


def _gamma_grid_check(prec: int, points) -> Check:
    def run():
        with mp.workprec(prec):
            return [qwlab.gamma_c(z) for z in points]

    def verify(values):
        worst = max(anchors.relative_error(v, mp.gamma(mp.mpc(z))) for v, z in zip(values, points))
        units = worst * mp.mpf(2) ** prec
        return Outcome(bool(units <= GAMMA_UNITS), worst,
                       f"worst error {mp.nstr(units, 3)} units of 2^-{prec}",
                       known_fault=prec == 256 and bool(units <= GAMMA_256_CEILING))

    return Check(f"gamma-c-grid-{prec}", run, verify, prec)


def _gamma_limits_checks(inp: dict) -> list:
    checks = []
    for prec, points in inp["gamma_grid"].items():
        checks.append(_gamma_grid_check(prec, points))

    for case in inp["identity"]:
        r = case["r"]
        n = len(r)
        nus = [()]
        for _ in range(n):
            nus = [nu + (m,) for nu in nus for m in range(case["nu_max"] + 1)]

        def identity_run(r=r, nus=nus):
            with mp.workprec(100):
                return [qwlab.gamma_identity_check(r, nu, 1e-10) for nu in nus]

        def identity_verify(reps, r=r, nus=nus):
            return _all(_report_and_anchor(rep, rep.lhs, anchors.gamma_ratio_product(r, nu), 1e-10)
                        for rep, nu in zip(reps, nus))

        checks.append(Check(f"gamma-ratio-identity-n{n}", identity_run, identity_verify, 100))

    checks.append(Check(
        "kappa-parity",
        lambda: [qwlab.kappa_parity(nu) for nu in inp["kappa"]],
        lambda ks: Outcome(all(k == anchors.kappa_closed_form(nu) and k % 2 == 0
                               for k, nu in zip(ks, inp["kappa"])))))

    def euler_run():
        with mp.workprec(120):
            return [qwlab.gamma_c(z) * qwlab.gamma_c(1 - mp.mpc(z)) * mp.sinpi(z) / mp.pi
                    for z in inp["euler"]]

    def euler_verify(vals):
        worst = max(abs(v - 1) for v in vals)
        return Outcome(bool(worst <= 1e-12), worst, f"worst={mp.nstr(worst, 3)}")

    checks.append(Check("euler-reflection", euler_run, euler_verify, 120))

    def decay_run():
        with mp.workprec(120):
            ratios = []
            for re10 in range(10, 21, 2):
                for im in (5, 9, 15, 25, 40, 50):
                    z = mp.mpc(re10 / 10, im)
                    ratios.append(abs(qwlab.gamma_c(z)) * mp.exp(mp.pi * im / 2)
                                  * mp.mpf(im) ** (mp.mpf("0.5") - z.real))
            return ratios

    checks.append(Check("gamma-decay-bracket", decay_run,
                        lambda rs: Outcome(bool(max(rs) / min(rs) < 2), None,
                                           f"c2/c1={mp.nstr(max(rs) / min(rs), 4)}")))

    bax = inp["baxter_n1"]
    bax_cfg = qwlab.QuadratureConfig(scheme=qwlab.GAUSS_LEGENDRE, target_rel_error=bax["target"])
    for which in ("second", "first"):
        checks.append(Check(
            f"baxter-n1-{which}",
            lambda which=which: qwlab.baxter_eigen_check(bax["w"], bax["u"], bax["x"], which,
                                                         cfg=bax_cfg, tolerance=1e-6),
            lambda rep, which=which: _report_and_anchor(
                rep, rep.rhs, anchors.baxter_left_side(bax["w"], bax["u"], bax["x"], which), 1e-6),
            bax_cfg.working_prec()))

    n1_prec = qwlab.QuadratureConfig(target_rel_error=1e-11).working_prec()
    for k, case in enumerate(inp["stade_n1"]):
        for which in ("first", "second"):
            checks.append(Check(
                f"stade-n1-{k}-{which}",
                lambda case=case, which=which: qwlab.stade_check(
                    case["u"], case["lam"], case["nu"], which, tolerance=1e-8),
                lambda rep, case=case: _report_and_anchor(
                    rep, rep.lhs, anchors.stade_value(case["u"], case["lam"], case["nu"]), 1e-8),
                n1_prec))

    ladder = inp["ladder"]
    ladder_ok = lambda rep: Outcome(bool(rep.passed), None, f"pass={rep.passed}")
    checks.append(Check("eq-exp-ladder",
                        lambda: qwlab.eq_exp_limit_check(ladder, 1.0, 0.0, prec_bits=256),
                        ladder_ok))
    checks.append(Check("term-ladder-10",
                        lambda: qwlab.term_limit_checks(ladder, (1, 0), (0.5, -0.2), prec_bits=256),
                        ladder_ok))
    checks.append(Check("term-ladder-21",
                        lambda: qwlab.term_limit_checks(ladder, (2, 1), (1.0, mp.mpc(-1, 0.3)),
                                                        prec_bits=256),
                        ladder_ok))

    sweep = inp["sweep"]

    def sweep_verify(out):
        report, rows = out
        psi = anchors.gl2_whittaker(sweep["w"], sweep["x"])
        errors = [abs(row[1] - psi) for row in rows]
        decreasing = _strictly_decreasing(errors) and errors[-1] <= errors[0] / 2
        return Outcome(bool(report.passed) and decreasing, None,
                       f"errors against K-Bessel psi {[mp.nstr(e, 3) for e in errors]}")

    checks.append(Check("scaled-whittaker-sweep",
                        lambda: qwlab.convergence_sweep(ladder, sweep["x"], sweep["w"],
                                                        prec_bits=256),
                        sweep_verify, 256))
    return checks


_CHECKS = {
    "exact": _exact_checks,
    "contour": _contour_checks,
    "profiles": _profiles_checks,
    "gamma-limits": _gamma_limits_checks,
}


def make_checks(workload: str, inputs: dict) -> list:
    return _CHECKS[workload](inputs)
