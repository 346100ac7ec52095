"""Reference figures that are too long or too different to be workloads.

    python3 qwbench/reference.py [--ladder]

Prints, as JSON: the environment; the wall time of ``qwlab suite --quick``
and the time of each criterion it reports; the cost per call of gamma_c
against mpmath's Gamma at 64, 128 and 256 bits (median over a fixed grid);
the time a traced call adds, for a leaf and for a call that records a span.
With ``--ladder`` it also times the full acceptance ladder, one criterion
per fresh interpreter (several minutes).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qwbench.run import environment  # noqa: E402

CRITERION_LINE = re.compile(r"^\[(\d+)\] (\S+): (PASS|FAIL) \(([\d.]+)s")


def suite(*flags: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qwlab.cli", "suite", *flags], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    criteria = {}
    for line in proc.stderr.splitlines():
        m = CRITERION_LINE.match(line)
        if m:
            criteria[f"{m.group(1)} {m.group(2)}"] = {"s": float(m.group(4)), "verdict": m.group(3)}
    return {"wall_s": wall, "exit": proc.returncode, "criteria": criteria}


def gamma_per_call(repeats: int = 3) -> dict:
    import mpmath as mp
    import qwlab

    points = [mp.mpc(re / 4, im / 3) for re in range(-10, 20, 3) for im in range(-9, 10, 4)]
    out = {}
    for prec in (64, 128, 256):
        with mp.workprec(prec):
            qwlab.gamma_c(2.5)  # build the cached Spouge coefficients first
            row = {}
            for name, fn in (("gamma_c_ms", qwlab.gamma_c), ("mp_gamma_ms", mp.gamma)):
                runs = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    for z in points:
                        fn(z)
                    runs.append((time.perf_counter() - start) / len(points) * 1e3)
                row[name] = statistics.median(runs)
            out[str(prec)] = row
    return out


def tracer_cost_per_call(calls: int = 100_000) -> dict:
    """Time a traced call adds: a leaf keeps counters, a non-leaf also a span."""
    import qwlab
    from qwbench.tracing import Tracer

    out = {}
    for name, module, func, args in (("leaf_us", "qcore", "qpoch_finite", (0.5, 0.5, 0)),
                                     ("span_us", "symfunc", "weight", ((1,),))):
        times = []
        for trace in (False, True):
            tracer = Tracer(traced={module: (func,)})
            if trace:
                tracer.install()
            fn = getattr(getattr(qwlab, module), func)
            start = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            times.append(time.perf_counter() - start)
            tracer.uninstall()
        out[name] = (times[1] - times[0]) / calls * 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ladder", action="store_true",
                        help="also time every criterion of the full ladder")
    args = parser.parse_args(argv)
    figures = {"environment": environment(), "suite_quick": suite("--quick"),
               "gamma_per_call": gamma_per_call(),
               "tracer_cost_per_call": tracer_cost_per_call()}
    if args.ladder:
        figures["ladder"] = {}
        for k in range(1, 9):
            figures["ladder"].update(suite("--criteria", str(k))["criteria"])
    print(json.dumps(figures, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
