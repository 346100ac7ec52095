"""Run one workload of the qwlab benchmark and print its metrics.

    python3 qwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qwlab is imported from its ``src``.  The
load is a closed loop with one client: each round is a fresh interpreter
(``one_round.py``) that runs all of the workload's checks back to back, so
every round pays qwlab's lazy table set-up, as every CLI run does.  Another
round starts only while it would still end within S seconds; at least one
runs, and a round that has started is never cut short.  Set-up time is also
probed in separate interpreters that only import qwlab and build the inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (medians over rounds); with
``--trace 1`` they are the per-layer counters of traced rounds.  A traced
run runs each traced round beside an untraced one, in two processes, and
reports the difference of their times as the tracing overhead.  Lines
before it, starting with ``#``, give the environment and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from qwbench import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
# Only a hung round runs this long: it is stopped, and the run reports the
# rounds that finished before it, or fails if none did.
HUNG_ROUND_S = 600.0


def environment() -> dict:
    """What decides which program is measured: runs with different mpmath
    backends (gmpy2 or pure Python) must not be compared."""
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _children(arg_lists: list) -> list:
    """Run one interpreter of one_round.py per argument list, side by side,
    and return their results.  Every one has ended when this returns."""
    procs = [subprocess.Popen([sys.executable, str(HERE / "one_round.py"), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for args in arg_lists]
    try:
        outputs = [proc.communicate(timeout=HUNG_ROUND_S) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    for proc, (out, err) in zip(procs, outputs):
        if proc.returncode != 0:
            raise RuntimeError(f"round exited with {proc.returncode}: {err.strip()}")
    return [json.loads(out.strip().splitlines()[-1]) for out, _ in outputs]


def _rounds(common: list, seconds: float, trace: bool, spans: Path) -> tuple:
    """Untraced rounds, or for a traced run traced rounds each beside an
    untraced one."""
    plain, traced, durations = [], [], []
    start = time.monotonic()
    while True:
        arg_lists = [common]
        if trace:
            arg_lists.append(common + ["--trace", "1"] + ([] if traced else ["--spans", str(spans)]))
        began = time.monotonic()
        try:
            results = _children(arg_lists)
        except subprocess.TimeoutExpired:
            if not plain:
                raise
            print(f"# a round ran past {HUNG_ROUND_S:.0f} s and was stopped", flush=True)
            return plain, traced
        durations.append(time.monotonic() - began)
        plain.append(results[0])
        traced.extend(results[1:])
        if time.monotonic() - start + max(durations) > seconds:
            return plain, traced


def _end_to_end(plain: list, setups: list) -> dict:
    digits = {r["accuracy_digits"] for r in plain}
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        "accuracy_digits": {"value": min(digits), "unit": "digits"},
    }, len(digits) == 1


def _per_layer(plain: list, traced: list) -> tuple:
    first = traced[0]["layers"]
    metrics = {}
    for name, value in first.items():
        if name.endswith(".self_s"):
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                             "unit": "s"}
        else:
            metrics[name] = {"value": value, "unit": "count"}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    repeatable = all(r["layers"][k] == v for r in traced for k, v in first.items()
                     if not k.endswith(".self_s"))
    return metrics, repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the qwlab benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qwlab" / "__init__.py").is_file():
        print(f"qwbench: no qwlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("# environment " + json.dumps(environment()), flush=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        setups = [_children([common + ["--setup-only"]])[0]["setup_s"]
                  for _ in range(SETUP_PROBES)]
        plain, traced = _rounds(common, args.seconds, bool(args.trace), spans)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"qwbench: {exc}", file=sys.stderr)
        return 1
    rounds = plain + traced
    for f in rounds[0]["failed"]:
        print(f"# failed {f['check']}: {f['detail'].strip()}")
    if traced and traced[0]["absent"]:
        print("# absent " + " ".join(traced[0]["absent"]))
    if args.trace:
        metrics, consistent = _per_layer(plain, traced)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, consistent = _end_to_end(plain, setups + [r["setup_s"] for r in plain])
    result = {
        "correct": consistent and not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
