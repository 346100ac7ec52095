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
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for argv in EXAMPLES:
        proc = run_example(argv)
        (GOLDEN / f"{argv[1]}.out").write_bytes(proc.stdout)
        codes[argv[1]] = {"command": shlex.join(argv), "exit": proc.returncode}
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n")
    (GOLDEN / "suite-5-6.out").write_bytes(run_example(DISPLAY_PAIRS).stdout)
