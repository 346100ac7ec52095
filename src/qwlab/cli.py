"""Command-line surface: run any verification or sweep, emit reports.

Reports are printed as one JSON object per line with a fixed key order, so
identical seeds and flags give byte-identical output.  Sweeps emit CSV.
Exit codes: 0 all checks passed, 1 a check failed, 2 bad usage: an
unknown flag, an input outside a check's domain or an unwritable --out.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .baxter import TestFunction, baxter_eigen_check, gamma_identity_check, lemma1_check
from .limits import (
    DEFAULT_EPS_LADDER,
    convergence_sweep,
    eq_exp_limit_check,
    sweep_rows_to_csv,
    term_limit_checks,
)
from .noumi import macdonald_d1_check, verify_noumi
from .qcore import QwlabError, set_precision
from .quadrature import QuadratureConfig
from .report import format_value
from .suite import CRITERIA, run_criterion
from .symfunc import eval_symmetric, macdonald_gram_schmidt
from .whittaker import stade_check, whittaker_eval


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _float(text: str) -> float:
    """float(text), with nan and inf reported as a usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _floats(text: str) -> tuple:
    return tuple(_float(v) for v in text.split(",") if v.strip() != "")


def _complexes(text: str) -> tuple:
    values = tuple(complex(v.replace(" ", "")) for v in text.split(",") if v.strip() != "")
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError(text)
    return values


def _rational(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(text) from exc


def _rationals(text: str) -> tuple:
    return tuple(_rational(v) for v in text.split(",") if v.strip() != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwlab",
        description="verification lab for Macdonald/q-Whittaker eigenrelations "
                    "and Whittaker integral identities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, prec_bits=False, tolerance=False):
        """--out everywhere; the other flags only where run() reads them, so
        a flag the command would ignore is a usage error."""
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if prec_bits:
            p.add_argument("--prec-bits", type=int, default=None)
        if tolerance:
            p.add_argument("--tolerance", type=_float, default=None)

    p = sub.add_parser("verify-noumi", help="eigenrelation of the q-integral operator, exact")
    common(p, seed=True)
    p.add_argument("--lambda", dest="lam", type=_ints, default=(1,))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=_rational, default=None)
    p.add_argument("--t", type=_rational, default=None)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--samples", type=int, default=5)

    p = sub.add_parser("verify-d1", help="first q-difference operator eigenrelation, exact")
    common(p, seed=True)
    p.add_argument("--lambda", dest="lam", type=_ints, default=(1,))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=_rational, default=None)
    p.add_argument("--t", type=_rational, default=None)
    p.add_argument("--samples", type=int, default=5)

    p = sub.add_parser("verify-gamma-identity", help="Gamma ratio identity behind the residue matching")
    common(p, prec_bits=True, tolerance=True)
    p.add_argument("--r", type=_complexes, default=(0.3 + 0.1j, -0.2))
    p.add_argument("--nu", type=_ints, default=(2, 1))

    p = sub.add_parser("verify-lemma1", help="residue form vs contour form of the dual operator")
    common(p, prec_bits=True, tolerance=True)
    p.add_argument("--kind", choices=("constant", "product-pole", "exp-cutoff"),
                   default="product-pole")
    p.add_argument("--b", type=_float, default=3.0)
    p.add_argument("--c", type=_float, default=0.3)
    p.add_argument("--w", type=_complexes, default=(-0.5j, 1 - 0.6j))
    p.add_argument("--u", type=_float, default=1.0)
    p.add_argument("--a", type=_float, default=1.0)
    p.add_argument("--truncation", type=int, default=40,
                   help="residue shell cap: the series stops earlier once two successive "
                        "shells fall below 2^-prec of the sum")

    p = sub.add_parser("verify-stade", help="cutoff integral of two Whittaker functions vs Gamma product")
    common(p, tolerance=True)
    p.add_argument("--which", choices=("first", "second"), default="first")
    p.add_argument("--u", type=_float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=_complexes, default=(0.7,))
    p.add_argument("--nu", type=_complexes, default=(0.6,))

    p = sub.add_parser("verify-baxter", help="dual Baxter eigenrelation on Whittaker functions")
    common(p, tolerance=True)
    p.add_argument("--which", choices=("first", "second"), default="second")
    p.add_argument("--w", type=_complexes, default=(0.3 - 0.4j,))
    p.add_argument("--u", type=_float, default=1.0)
    p.add_argument("--x", type=_floats, default=(0.2,))
    p.add_argument("--a-shift", type=_float, default=None)

    p = sub.add_parser("limit-exp", help="q-exponential factor limit ladder")
    common(p, prec_bits=True)
    p.add_argument("--eps-list", type=_floats, default=DEFAULT_EPS_LADDER)
    p.add_argument("--u", type=_float, default=1.0)
    p.add_argument("--x-n", type=_float, default=0.0)

    p = sub.add_parser("limit-terms", help="termwise operator factor limits")
    common(p, prec_bits=True)
    p.add_argument("--eps-list", type=_floats, default=DEFAULT_EPS_LADDER)
    p.add_argument("--nu", type=_ints, default=(1, 0))
    p.add_argument("--w", type=_complexes, default=(0.5, -0.2))

    p = sub.add_parser("limit-sweep", help="scaled q-Whittaker to Whittaker sweep (CSV)")
    common(p, prec_bits=True)
    p.add_argument("--eps-list", type=_floats, default=DEFAULT_EPS_LADDER)
    p.add_argument("--x", type=_floats, default=(0.3, -0.3))
    p.add_argument("--w", type=_complexes, default=(0.5, -0.2))

    p = sub.add_parser("eval-macdonald", help="print a Macdonald polynomial and optionally its value")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_ints, default=(2, 1))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=_rational, default=Fraction(1, 3))
    p.add_argument("--t", type=_rational, default=Fraction(1, 5))
    p.add_argument("--z", type=_rationals, default=None)

    p = sub.add_parser("eval-whittaker", help="evaluate a Whittaker function by quadrature")
    common(p, prec_bits=True, tolerance=True)
    p.add_argument("--lambda", dest="lam", type=_complexes, default=(0.5, -0.2))
    p.add_argument("--x", type=_floats, default=(0.3, -0.3))

    p = sub.add_parser("suite", help="run the acceptance ladder")
    common(p)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--criteria", type=_ints, default=tuple(range(1, len(CRITERIA) + 1)))

    return parser


def _emit(lines: list, out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_line(report) -> str:
    return json.dumps(report.to_obj(), separators=(", ", ": "))


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = args.command
    reports = []
    lines = []
    try:
        if cmd == "verify-noumi":
            reports = [verify_noumi(args.lam, args.n, args.q, args.t,
                                    order=args.order, samples=args.samples,
                                    seed=args.seed)]
        elif cmd == "verify-d1":
            reports = [macdonald_d1_check(args.lam, args.n, args.q, args.t,
                                          samples=args.samples, seed=args.seed)]
        elif cmd == "verify-gamma-identity":
            with set_precision(args.prec_bits or 100):
                reports = [gamma_identity_check(args.r, args.nu, args.tolerance)]
        elif cmd == "verify-lemma1":
            f = TestFunction(args.kind,
                             b=args.b if args.kind == "product-pole" else None,
                             c=args.c if args.kind == "exp-cutoff" else None)
            with set_precision(args.prec_bits or 100):
                reports = [lemma1_check(f, args.w, args.u, args.a,
                                        cap=args.truncation, tolerance=args.tolerance)]
        elif cmd == "verify-stade":
            reports = [stade_check(args.u, args.lam, args.nu, args.which,
                                   tolerance=args.tolerance)]
        elif cmd == "verify-baxter":
            reports = [baxter_eigen_check(args.w, args.u, args.x, args.which,
                                          tolerance=args.tolerance, a_shift=args.a_shift)]
        elif cmd == "limit-exp":
            reports = [eq_exp_limit_check(args.eps_list, args.u, args.x_n,
                                          prec_bits=args.prec_bits or 128)]
        elif cmd == "limit-terms":
            reports = [term_limit_checks(args.eps_list, args.nu, args.w,
                                         prec_bits=args.prec_bits or 128)]
        elif cmd == "limit-sweep":
            report, rows = convergence_sweep(args.eps_list, args.x, args.w,
                                             prec_bits=args.prec_bits or 256)
            _emit([sweep_rows_to_csv(rows).rstrip("\n")], args.out)
            return 0 if report.passed else 1
        elif cmd == "eval-macdonald":
            poly = macdonald_gram_schmidt(args.lam, args.q, args.t, nvars=args.n)
            obj = {
                "lambda": list(args.lam),
                "nvars": poly.nvars,
                "q": format_value(args.q),
                "t": format_value(args.t),
                "coefficients": {
                    str(list(mu)): format_value(c)
                    for mu, c in sorted(poly.terms.items())
                },
            }
            if args.z is not None:
                obj["z"] = [format_value(v) for v in args.z]
                obj["value"] = format_value(eval_symmetric(poly, args.z))
            _emit([json.dumps(obj, separators=(", ", ": "))], args.out)
            return 0
        elif cmd == "eval-whittaker":
            tol = args.tolerance if args.tolerance is not None else 1e-10
            cfg = QuadratureConfig(target_rel_error=tol, prec_bits=args.prec_bits)
            res = whittaker_eval(args.lam, args.x, cfg)
            obj = {
                "lambda": [format_value(complex(v)) for v in args.lam],
                "x": list(args.x),
                "value": format_value(res.value),
                "error_estimate": format_value(res.error),
            }
            _emit([json.dumps(obj, separators=(", ", ": "))], args.out)
            return 0
        elif cmd == "suite":
            all_pass = True
            counts = {"pass": 0, "fail": 0}
            for idx in args.criteria:
                if not 1 <= idx <= len(CRITERIA):
                    parser.error(f"criterion index {idx} out of range")
            for idx in args.criteria:
                name, crit_reports, passed, elapsed = run_criterion(idx, args.quick)
                all_pass = all_pass and passed
                counts["pass" if passed else "fail"] += 1
                print(f"[{idx}] {name}: {'PASS' if passed else 'FAIL'} "
                      f"({elapsed:.1f}s, {len(crit_reports)} checks)",
                      file=sys.stderr)
                lines.extend(_report_line(r) for r in crit_reports)
            lines.append(json.dumps({
                "check_id": "suite-summary",
                "criteria_pass": counts["pass"],
                "criteria_fail": counts["fail"],
                "pass": all_pass,
            }, separators=(", ", ": ")))
            _emit(lines, args.out)
            return 0 if all_pass else 1
        else:  # pragma: no cover
            parser.error(f"unknown command {cmd}")
        lines.extend(_report_line(r) for r in reports)
        _emit(lines, args.out)
    except (QwlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
