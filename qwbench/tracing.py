"""Per-layer call tracing from outside the program.

``Tracer.install`` replaces each traced function at every module attribute
of the ``qwlab`` package that binds it (``gamma_c`` is bound in ``gamma``,
``whittaker``, ``baxter``, ``limits``, ``suite`` and the package itself), so
calls made inside the program are seen as well as the benchmark's own.
Each wrapper counts calls and self time: the time inside the call minus the
time inside traced calls it made.  Calls into non-leaf functions also
record a span (name, start, end, parent span, check id); hot leaves keep
only the counters.  Spans stay in memory until ``write_spans``.

A traced name that the program no longer has is listed in ``absent`` and
reports zero, so that a refactor which moves or deletes it does not break
the traced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer (module) -> traced public functions.  Leaves run too often for a
# span each (pair_coupling about 2M times in acceptance criterion 4).
TRACED = {
    "gamma": ("gamma_c",),
    "quadrature": ("integrate_1d", "nodes_1d"),
    "whittaker": ("pair_profile", "whittaker_eval", "stade_check", "pair_coupling"),
    "baxter": ("contour_apply", "residue_apply", "baxter_eigen_check", "gamma_identity_check"),
    "limits": ("scaled_qwhittaker", "term_limit_checks"),
    "symfunc": ("macdonald_gram_schmidt", "macdonald_triangular_eigen", "solve_exact",
                "eval_symmetric", "qwhittaker_branch_eval"),
    "noumi": ("verify_noumi", "apply_noumi", "noumi_coeff"),
    "qcore": ("qpoch_finite", "qpoch_infinite"),
}
LEAVES = frozenset({
    "gamma.gamma_c", "quadrature.nodes_1d", "whittaker.pair_coupling", "symfunc.solve_exact",
    "symfunc.eval_symmetric", "noumi.noumi_coeff", "qcore.qpoch_finite", "qcore.qpoch_infinite",
})
LEVELS = "quadrature.levels"  # sum of `levels` over results of integrate_1d


class Tracer:
    def __init__(self, traced: dict = TRACED):
        self.traced = traced
        self.stats: dict = {}  # "module.function" -> [calls, self seconds]
        self.levels = 0
        self.absent: list = []
        self.spans: list = []
        self._frames: list = []  # per open traced call: time spent in traced callees
        self._open_spans: list = []
        self._check = None
        self._patched: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qwlab" or name.startswith("qwlab."))]
        for module_name, functions in self.traced.items():
            home = sys.modules.get(f"qwlab.{module_name}")
            for func in functions:
                name = f"{module_name}.{func}"
                self.stats[name] = [0, 0.0]
                original = getattr(home, func, None) if home is not None else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    if vars(module).get(func) is original:
                        setattr(module, func, wrapper)
                        self._patched.append((module, func, original))

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        leaf = name in LEAVES
        count_levels = name == "quadrature.integrate_1d"
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not leaf:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - frames.pop()
                if frames:
                    frames[-1] += elapsed
                if not leaf:
                    open_spans.pop()
                    spans[sid] = (name, start, end, parent, self._check)
            if count_levels:
                self.levels += getattr(result, "diagnostics", {}).get("levels", 0)
            return result

        return wrapper

    # -- checks ------------------------------------------------------------

    def begin_check(self, check_id: str) -> None:
        """Open the span of one check; traced calls made in it are its children."""
        self._check = check_id
        sid = len(self.spans)
        self.spans.append((check_id, time.perf_counter(), None, None, check_id))
        self._open_spans.append(sid)

    def end_check(self) -> None:
        sid = self._open_spans.pop()
        name, start, _, parent, check_id = self.spans[sid]
        self.spans[sid] = (name, start, time.perf_counter(), parent, check_id)
        self._check = None

    # -- output ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out[LEVELS] = self.levels
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, check_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "check": check_id}) + "\n")
