"""Tests of the benchmark itself: seeded inputs, anchors, tracing, output."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import qwlab  # noqa: E402
from qwbench import WORKLOADS, anchors, workloads  # noqa: E402
from qwbench.tracing import LEVELS, TRACED, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Traced functions each workload must call (the README's layer table).
EXPECTED_CALLS = {
    "exact": ["symfunc.macdonald_gram_schmidt", "symfunc.macdonald_triangular_eigen",
              "symfunc.solve_exact", "symfunc.eval_symmetric", "symfunc.qwhittaker_branch_eval",
              "noumi.verify_noumi", "noumi.apply_noumi", "noumi.noumi_coeff",
              "qcore.qpoch_finite"],
    "contour": ["gamma.gamma_c", "quadrature.nodes_1d", "whittaker.pair_coupling",
                "baxter.contour_apply", "baxter.residue_apply", "baxter.baxter_eigen_check"],
    "profiles": ["quadrature.integrate_1d", "quadrature.nodes_1d", "whittaker.pair_profile",
                 "whittaker.whittaker_eval", "whittaker.stade_check"],
    "gamma-limits": ["gamma.gamma_c", "quadrature.integrate_1d", "baxter.baxter_eigen_check",
                     "baxter.gamma_identity_check", "limits.scaled_qwhittaker",
                     "limits.term_limit_checks", "symfunc.qwhittaker_branch_eval",
                     "qcore.qpoch_finite", "qcore.qpoch_infinite"],
}
# Traced functions a workload must not reach at all.
EXPECTED_IDLE = {
    "exact": ["gamma.gamma_c", "quadrature.integrate_1d", "quadrature.nodes_1d",
              "whittaker.pair_coupling"],
    "profiles": ["whittaker.pair_coupling"],
    "gamma-limits": ["whittaker.pair_coupling"],
}


def _python(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


@lru_cache(maxsize=None)
def traced_round(workload: str, seed: int = 1) -> dict:
    proc = _python(["qwbench/one_round.py", "--workload", workload, "--seed", str(seed),
                    "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -- inputs -----------------------------------------------------------------


def test_inputs_are_a_pure_function_of_the_seed():
    for workload in WORKLOADS:
        first = workloads.make_inputs(workload, 7)
        assert workloads.make_inputs(workload, 7) == first
        assert workloads.make_inputs(workload, 8) != first


def test_inputs_do_not_depend_on_the_interpreter_hash_seed():
    code = ("import sys; sys.path[:0] = ['src', '.']; from qwbench import workloads; "
            "print(repr([workloads.make_inputs(w, 3) for w in workloads.WORKLOADS]))")
    outs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = _python(["-c", code], env=env)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_unknown_workload_is_rejected():
    try:
        workloads.make_inputs("no-such-workload", 1)
    except ValueError:
        return
    raise AssertionError("an unknown workload was accepted")


# -- anchors ----------------------------------------------------------------


def test_schur_bialternant_hand_values():
    x, y, z = Fraction(1), Fraction(2), Fraction(3)
    assert anchors.schur_bialternant((1, 1), (x, y)) == x * y
    assert anchors.schur_bialternant((2,), (x, y)) == x * x + x * y + y * y
    # s_21 = m_21 + 2 m_111
    m21 = x * x * (y + z) + y * y * (x + z) + z * z * (x + y)
    assert anchors.schur_bialternant((2, 1), (x, y, z)) == m21 + 2 * x * y * z
    assert anchors.schur_bialternant((), (x, y, z)) == 1


def test_gl2_anchor_against_besselk_and_the_defining_integral():
    with mp.workprec(80):
        s = mp.mpf("0.7")
        z = 2 * mp.exp(-s / 2)
        # Equal spectral parameters: the profile is 2 K_0(z).
        assert abs(anchors.gl2_profile(0.3, 0.3, s) - 2 * mp.besselk(0, z)) < mp.mpf(10) ** -20
        # Complex order against the integral the program approximates.
        mu1, mu2 = mp.mpc(0.4, 0.1), mp.mpc(-0.2, 0.05)
        # e^{-z cosh t} is below 1e-10000 beyond |t| = 12.
        direct = mp.quad(lambda t: mp.exp(1j * (mu1 - mu2) * t - z * mp.cosh(t)), [-12, 0, 12])
        assert abs(anchors.gl2_profile(mu1, mu2, s) - direct) < mp.mpf(10) ** -18
        # psi carries the centre-of-mass phase.
        lam, x = (0.5, -0.2), (0.3, -0.4)
        phase = mp.exp(1j * (mp.mpf(0.5) + mp.mpf(-0.2)) * (mp.mpf(0.3) + mp.mpf(-0.4)) / 2)
        expect = phase * anchors.gl2_profile(0.5, -0.2, mp.mpf(0.3) - mp.mpf(-0.4))
        assert abs(anchors.gl2_whittaker(lam, x) - expect) < mp.mpf(10) ** -20


def test_stade_and_gamma_anchors_hand_values():
    assert abs(anchors.stade_value(1, (0.5,), (0.5,)) - 1) < 1e-15  # Gamma(1)
    assert abs(anchors.stade_value(2, (1,), (1,)) - 0.25) < 1e-15  # 2^-2 Gamma(2)
    # r_2 - r_1 = d and nu = (1, 0): the product telescopes to Gamma(d) / Gamma(d + 1).
    d = 1 - 0.1j
    assert abs(anchors.gamma_ratio_product((0.3j, 1 + 0.2j), (1, 0)) - 1 / d) < 1e-14
    assert anchors.kappa_closed_form((1, 0)) == 0
    assert anchors.kappa_closed_form((0, 1, 2)) == -10


def test_digits_counts_the_working_precision_unit():
    assert abs(anchors.digits(1e-10, 64) - 10) < 1e-12
    assert abs(anchors.digits(0, 64) - 64 * 0.30102999566398120) < 1e-12


# -- tracing ----------------------------------------------------------------


def test_missing_names_are_reported_absent_and_bindings_restored():
    original = qwlab.gamma.gamma_c
    tracer = Tracer(traced={"gamma": ("gamma_c", "no_such_function"), "no_module": ("f",)})
    tracer.install()
    try:
        assert qwlab.gamma_c is not original and qwlab.baxter.gamma_c is qwlab.gamma.gamma_c
        with mp.workprec(64):
            qwlab.gamma_c(2.5)
            qwlab.whittaker.sklyanin_m((0.1, 0.4))  # calls gamma_c twice inside the program
    finally:
        tracer.uninstall()
    assert qwlab.gamma_c is original and qwlab.baxter.gamma_c is original
    assert tracer.absent == ["gamma.no_such_function", "no_module.f"]
    metrics = tracer.metrics()
    assert metrics["gamma.gamma_c.calls"] == 3
    assert metrics["gamma.no_such_function.calls"] == 0


def test_two_traced_runs_count_the_same():
    first = traced_round("gamma-limits")
    proc = _python(["qwbench/one_round.py", "--workload", "gamma-limits", "--seed", "1",
                    "--trace", "1"])
    second = json.loads(proc.stdout.splitlines()[-1])
    counts = lambda r: {k: v for k, v in r["layers"].items() if not k.endswith(".self_s")}
    assert counts(first) == counts(second)
    assert first["layers"][LEVELS] > 0


def test_each_traced_function_is_reached_where_the_table_says():
    reached = set()
    for workload in WORKLOADS:
        result = traced_round(workload)
        layers = result["layers"]
        assert result["absent"] == []
        assert result["wrong"] == [], result["failed"]
        for name in EXPECTED_CALLS[workload]:
            assert layers[f"{name}.calls"] > 0, (workload, name)
        for name in EXPECTED_IDLE.get(workload, ()):
            assert layers[f"{name}.calls"] == 0, (workload, name)
        reached |= {k[:-len(".calls")] for k, v in layers.items() if k.endswith(".calls") and v}
    every = {f"{module}.{func}" for module, funcs in TRACED.items() for func in funcs}
    assert reached == every


def test_traced_metrics_match_benchmark_json():
    names = set(traced_round("exact")["layers"]) | {"trace.wall_s", "trace.overhead_s"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}


# -- known faults -----------------------------------------------------------


def test_known_faults_are_bounded_by_their_ceilings():
    points = [1.5 + 2j, -0.5 + 0.5j]
    check = workloads._gamma_grid_check(256, points)
    with mp.workprec(256 + anchors.GUARD_BITS):
        exact = [mp.gamma(mp.mpc(z)) for z in points]
        today = check.verify([g * (1 + mp.mpf(2) ** -237) for g in exact])  # ~5e5 units
        worse = check.verify([g * (1 + mp.mpf(10) ** -60) for g in exact])
        fixed = check.verify(exact)
    assert not today.passed and today.known_fault
    assert not worse.passed and not worse.known_fault
    assert fixed.passed

    est = workloads.make_inputs("profiles", 1)["estimates"]
    assert est == workloads.make_inputs("profiles", 2)["estimates"]
    outcome = workloads._estimates_verify(workloads._estimates_run(est), est)
    assert not outcome.passed and outcome.known_fault, outcome.detail


# -- the command ------------------------------------------------------------


def test_run_prints_every_end_to_end_metric():
    proc = _python(["qwbench/run.py", "--workload", "exact", "--seed", "2", "--seconds", "1",
                    "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0].removeprefix("# environment "))
    assert set(env) == {"python", "mpmath", "mpmath_backend", "nproc"}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "qwbench", tmp_path / "qwbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _python(["qwbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
