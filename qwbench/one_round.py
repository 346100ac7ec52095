"""One round of a workload in a fresh interpreter: every check, once.

    python3 qwbench/one_round.py --workload NAME --seed N [--trace 0|1]
                                 [--spans PATH] [--setup-only]

Prints one JSON line.  ``setup_s`` runs from the top of this file to the
moment the first check could start: importing qwlab (and mpmath with it)
and building the inputs and checks.  ``wall_s`` sums the time spent in the
checks' calls into qwlab; verification against the anchors is not timed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_program():
    """Import qwlab from this checkout's sources, never from elsewhere."""
    if not (SRC / "qwlab" / "__init__.py").is_file():
        sys.exit(f"qwbench: no qwlab sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qwlab

    if Path(qwlab.__file__).resolve().parent != SRC / "qwlab":
        sys.exit(f"qwbench: imported qwlab from {qwlab.__file__}, not from {SRC}")
    return qwlab


def _verify(check, out):
    """Verify above the program's working precision, so that rounding the
    comparison does not count against the program."""
    import mpmath as mp

    from qwbench import anchors

    if check.prec_bits is None:
        return check.verify(out)
    with mp.workprec(check.prec_bits + anchors.GUARD_BITS):
        return check.verify(out)


def run_round(workload: str, seed: int, trace: bool, spans_path=None) -> dict:
    from qwbench import anchors, workloads
    from qwbench.tracing import Tracer

    checks = workloads.make_checks(workload, workloads.make_inputs(workload, seed))
    setup_s = time.perf_counter() - T0
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    wall = 0.0
    failed, wrong, digits = [], [], []
    clock = time.perf_counter
    for check in checks:
        if tracer:
            tracer.begin_check(check.check_id)
        start = clock()
        try:
            out = check.run()
        except Exception:  # a check that raises is a failed check; the round goes on
            out, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        wall += clock() - start
        if tracer:
            tracer.end_check()
        known_fault = False
        if error is None:
            try:
                outcome = _verify(check, out)
            except Exception:
                error = traceback.format_exc(limit=3)
            else:
                if outcome.rel_err is not None:
                    digits.append(anchors.digits(outcome.rel_err, check.prec_bits))
                if not outcome.passed:
                    error, known_fault = outcome.detail, outcome.known_fault
        if error is not None:
            failed.append({"check": check.check_id, "detail": error})
            if not known_fault:
                wrong.append(check.check_id)
    if tracer:
        tracer.uninstall()
        if spans_path:
            tracer.write_spans(spans_path)
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_digits": min(digits) if digits else workloads.EXACT_DIGITS,
        "attempted": len(checks),
        "failed": failed,
        "wrong": wrong,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSONL)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, report set-up time and stop")
    args = parser.parse_args(argv)
    _import_program()
    if args.setup_only:
        from qwbench import workloads

        workloads.make_checks(args.workload, workloads.make_inputs(args.workload, args.seed))
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    print(json.dumps(run_round(args.workload, args.seed, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
