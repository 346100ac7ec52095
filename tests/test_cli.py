import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qwlab.cli import build_parser, run

README = Path(__file__).resolve().parents[1] / "README.md"


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_verify_noumi_passes_and_emits_json(capsys):
    code = run(["verify-noumi", "--lambda", "2,1", "--n", "2", "--q", "1/3",
                "--t", "1/5", "--order", "3", "--samples", "2", "--seed", "7"])
    out, _ = _capture(capsys)
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["check_id"] == "noumi-eigenrelation"
    assert obj["pass"] is True
    assert obj["seed"] == 7


def test_same_seed_same_flags_byte_identical(capsys):
    argv = ["verify-noumi", "--lambda", "2", "--n", "2", "--order", "2",
            "--samples", "3", "--seed", "11"]
    run(argv)
    first, _ = _capture(capsys)
    run(argv)
    second, _ = _capture(capsys)
    assert first == second


def test_seed_changes_samples(capsys):
    run(["verify-noumi", "--lambda", "2", "--n", "2", "--order", "2",
         "--samples", "3", "--seed", "1"])
    a, _ = _capture(capsys)
    run(["verify-noumi", "--lambda", "2", "--n", "2", "--order", "2",
         "--samples", "3", "--seed", "2"])
    b, _ = _capture(capsys)
    assert a != b


N2_BAXTER = ["--w", "0.2-0.5j,-0.1-0.6j", "--x", "0.3,-0.3"]


def test_usage_error_exits_2():
    for argv in (["no-such-command"],
                 ["verify-baxter", "--x", "inf"],
                 ["eval-whittaker", "--x", "nan,-0.3"],
                 ["verify-stade", "--u", "nan"],
                 ["verify-lemma1", "--u", "nan"],
                 ["verify-lemma1", "--b", "inf"],
                 ["verify-baxter", "--u", "nan", *N2_BAXTER],
                 ["verify-baxter", "--a-shift", "inf", *N2_BAXTER],
                 ["verify-baxter", "--w", "nan-0.4j"],
                 ["verify-gamma-identity", "--tolerance", "nan"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv


def _cli_child(args, timeout):
    """Run the CLI in a child process with a timeout and a 1.5 GB address-space
    limit, so that a hang or a runaway allocation fails the test instead of
    stalling the run or exhausting the machine."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    limit = 1500 * 2**20
    return subprocess.run(
        [sys.executable, "-m", "qwlab.cli", *args], capture_output=True, text=True,
        env=env, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


def test_non_finite_limit_argument_exits_2_promptly():
    # A non-finite u once ran (a;q)_infinity forever.
    done = _cli_child(["limit-exp", "--eps-list", "0.4,0.2", "--u", "nan", "--x-n", "0"], 60)
    assert done.returncode == 2
    assert "argument --u: invalid" in done.stderr


def test_huge_u_on_the_contour_exits_2_promptly():
    # The contour rays grow like u/e, so u = 1e30 once built nodes until the
    # memory ran out.
    done = _cli_child(["verify-lemma1", "--kind", "constant", "--w=-0.5j", "--u", "1e30",
                       "--a", "1"], 30)
    assert done.returncode == 2
    assert (done.stdout, done.stderr.split(":")[0]) == ("", "error")
    assert "budget" in done.stderr


def test_huge_re_w_on_the_contour_exits_2_promptly():
    # The vertical contour segment spans 2 (max |Re w| + 3), so Re w = 1e6
    # once built 8M nodes.
    done = _cli_child(["verify-lemma1", "--kind", "constant", "--w=1e6-0.5j", "--u", "1",
                       "--a", "1"], 30)
    assert done.returncode == 2
    assert (done.stdout, done.stderr.split(":")[0]) == ("", "error")
    assert "budget" in done.stderr and "Re w" in done.stderr


def test_domain_error_reports_exit_2(capsys):
    for argv in (["verify-stade", "--u", "-1", "--lambda", "0.7", "--nu", "0.6"],
                 ["verify-noumi", "--n", "0", "--lambda="],
                 ["verify-d1", "--n", "0", "--lambda="],
                 ["verify-d1", "--n", "1", "--lambda=2,1"],
                 ["eval-macdonald", "--lambda=", "--n", "0", "--z="],
                 ["eval-whittaker", "--prec-bits", "10"],
                 ["limit-exp", "--eps-list", "0.4,0"],
                 ["limit-terms", "--eps-list", "0.4,0"],
                 ["limit-exp", "--eps-list", "1.5,0.2"],
                 ["verify-noumi", "--samples", "0"],
                 ["verify-noumi", "--order", "0"],
                 ["verify-noumi", "--lambda", "1", "--n", "2", "--q", "1"],
                 ["verify-noumi", "--lambda", "1", "--n", "2", "--q", "-1", "--order", "2"],
                 ["verify-d1", "--samples", "0"]):
        code = run(argv)
        out, err = _capture(capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize("argv", [
    ["eval-macdonald", "--q", "1/0"],
    ["eval-macdonald", "--t", "1/0"],
    ["eval-macdonald", "--z", "2/3,1/0"],
    ["verify-noumi", "--q", "1/0"],
    ["verify-noumi", "--t", "1/0"],
    ["verify-d1", "--q", "1/0"],
    ["verify-d1", "--t", "1/0"],
], ids=lambda argv: f"{argv[0]} {argv[1]}")
def test_zero_denominator_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: invalid" in capsys.readouterr().err


def test_unwritable_out_reports_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code = run(["verify-d1", "--out", str(path)])
    out, err = _capture(capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "x.json" in err
    assert not path.exists()


def test_failing_check_exits_1(capsys):
    code = run(["verify-gamma-identity", "--r", "0.3+0.1j,-0.2",
                "--nu", "2,1", "--tolerance", "0.0"])
    out, _ = _capture(capsys)
    assert code == 1
    assert json.loads(out.strip())["pass"] is False


def test_gamma_identity_passes(capsys):
    code = run(["verify-gamma-identity", "--r", "0.3+0.1j,-0.2", "--nu", "2,1"])
    out, _ = _capture(capsys)
    assert code == 0


def test_limit_exp(capsys):
    code = run(["limit-exp", "--eps-list", "0.4,0.2,0.1", "--u", "1", "--x-n", "0"])
    out, _ = _capture(capsys)
    assert code == 0
    assert json.loads(out.strip())["check_id"] == "eq-exponential-limit"


@pytest.mark.parametrize("u", ["30", "1e300"])
def test_limit_exp_far_from_target_fails(u, capsys):
    # The error still falls along the ladder, but the last rung is far off.
    code = run(["limit-exp", "--eps-list", "0.4,0.2", "--u", u])
    out, _ = _capture(capsys)
    assert code == 1
    assert json.loads(out.strip())["pass"] is False


def test_limit_sweep_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code = run(["limit-sweep", "--eps-list", "0.4,0.2,0.1", "--x", "0.3",
                "--w", "0.5", "--prec-bits", "128", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epsilon,re_value,im_value,re_target,im_target,abs_err"
    assert len(lines) == 4


def test_eval_macdonald(capsys):
    code = run(["eval-macdonald", "--lambda", "2", "--q", "1/3", "--t", "1/5",
                "--z", "2/3,5/7"])
    out, _ = _capture(capsys)
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["coefficients"]["[1, 1]"] == "8/7"
    assert obj["value"] == "661/441"


def test_eval_whittaker(capsys):
    code = run(["eval-whittaker", "--lambda", "0.5,-0.2", "--x", "0.3,-0.3"])
    out, _ = _capture(capsys)
    assert code == 0
    obj = json.loads(out.strip())
    assert abs(float(obj["value"]["re"]) - 0.38394938440851) < 1e-9


def test_suite_quick_single_criterion(capsys):
    code = run(["suite", "--quick", "--criteria", "3"])
    out, err = _capture(capsys)
    assert code == 0
    assert "PASS" in err
    last = json.loads(out.strip().split("\n")[-1])
    assert last["check_id"] == "suite-summary"
    assert last["pass"] is True


def test_suite_checks_every_criterion_index_before_running(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["suite", "--quick", "--criteria", "3,9"])
    out, err = _capture(capsys)
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith("usage:")
    assert err.endswith("error: criterion index 9 out of range\n")


@pytest.mark.parametrize("argv", [
    ["suite", "--quick", "--criteria", "5", "--tolerance", "1e-30"],
    ["suite", "--quick", "--prec-bits", "400"],
    ["verify-stade", "--prec-bits", "400"],
    ["verify-stade", "--seed", "9"],
    ["verify-baxter", "--prec-bits", "400"],
    ["verify-noumi", "--tolerance", "1e-3"],
    ["verify-gamma-identity", "--seed", "3"],
    ["limit-exp", "--tolerance", "1e-3"],
    ["eval-macdonald", "--seed", "1"],
    ["eval-whittaker", "--scheme", "gauss-legendre-composite"],
])
def test_flag_the_command_ignores_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_readme_cli_example_parses():
    block = re.search(r"^## CLI\n\n```bash\n(.*?)^```", README.read_text(),
                      re.S | re.M).group(1)
    lines = [line for line in block.splitlines() if line.startswith("qwlab ")]
    assert len(lines) >= 12
    parser = build_parser()
    rejected = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            rejected.append(line)
    assert rejected == []
