"""Golden outputs of the README's CLI examples.

Each `qwlab ...` line of the README's CLI block runs as
`python -m qwlab.cli ...` in a fresh interpreter with PYTHONPATH=src, and
its stdout bytes and exit code must match the files under tests/golden/:
`<subcommand>.out` holds the stdout and `exit_codes.json` the command line
and exit code of each example.  `suite-5-6.out` holds the stdout of
`qwlab suite --criteria 5,6` on the full ladder, which pins both displays of
Stade's identity and of the Baxter eigenrelation at N = 2; the README's
`suite --quick` example runs neither at N = 2.  After a deliberate output
change, rewrite them all with `PYTHONPATH=src python tests/test_readme_golden.py`.
Before it writes a golden, it prints each report value that moved, against
the old line's error estimate (its `quad_error`): a numerical change must
keep every value inside the old estimate.  It only reports; it refuses
nothing.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"


def readme_examples() -> list:
    block = re.search(r"^## CLI\n\n```bash\n(.*?)^```", (ROOT / "README.md").read_text(),
                      re.S | re.M).group(1)
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.startswith("qwlab ")]


def run_example(argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run([sys.executable, "-m", "qwlab.cli", *argv[1:]], cwd=ROOT,
                          env=env, capture_output=True, timeout=600)


EXAMPLES = readme_examples()
DISPLAY_PAIRS = ["qwlab", "suite", "--criteria", "5,6"]


def test_readme_examples_have_goldens():
    names = [argv[1] for argv in EXAMPLES]
    assert len(set(names)) == len(names), "one example per subcommand"
    recorded = json.loads(EXIT_CODES.read_text())
    assert {argv[1]: shlex.join(argv) for argv in EXAMPLES} == {
        name: entry["command"] for name, entry in recorded.items()}


@pytest.mark.parametrize("argv", EXAMPLES, ids=[argv[1] for argv in EXAMPLES])
def test_readme_example_matches_golden(argv):
    recorded = json.loads(EXIT_CODES.read_text())[argv[1]]
    proc = run_example(argv)
    assert proc.returncode == recorded["exit"], proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{argv[1]}.out").read_bytes()


def test_display_pairs_match_golden():
    proc = run_example(DISPLAY_PAIRS)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "suite-5-6.out").read_bytes()


def _number(value):
    """A report value as an mpmath number, or None if it is not one."""
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return mp.mpc(value["re"], value["im"])
    try:
        return mp.mpf(value)
    except (TypeError, ValueError):
        return None


def moved_values(old: bytes, new: bytes) -> list:
    """One line per lhs or rhs of a report line that moved from old to new:
    line number, check id, field, the move, and the old line's quad_error."""
    rows = []
    with mp.workprec(128):
        for number, (before, after) in enumerate(zip(old.splitlines(), new.splitlines()), 1):
            try:
                before, after = json.loads(before), json.loads(after)
            except json.JSONDecodeError:
                continue
            if not isinstance(before, dict) or before.get("check_id") != after.get("check_id"):
                continue
            bound = _number((before.get("diagnostics") or {}).get("quad_error"))
            for key in ("lhs", "rhs"):
                a, b = _number(before.get(key)), _number(after.get(key))
                if a is None or b is None or a == b:
                    continue
                move = abs(b - a)
                verdict = ("no error field" if bound is None
                           else "inside" if move <= bound else "OUTSIDE")
                rows.append(f"{number} {before['check_id']} {key}: moved {mp.nstr(move, 3)}, "
                            f"old quad_error {mp.nstr(bound, 3) if bound else '-'} ({verdict})")
    return rows


def write_golden(path: Path, stdout: bytes) -> None:
    if path.exists():
        for row in moved_values(path.read_bytes(), stdout):
            print(f"{path.name}:{row}")
    path.write_bytes(stdout)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for argv in EXAMPLES:
        proc = run_example(argv)
        write_golden(GOLDEN / f"{argv[1]}.out", proc.stdout)
        codes[argv[1]] = {"command": shlex.join(argv), "exit": proc.returncode}
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n")
    write_golden(GOLDEN / "suite-5-6.out", run_example(DISPLAY_PAIRS).stdout)
