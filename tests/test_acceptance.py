"""The acceptance gate: every headline criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
The full ladder takes about half a minute; the heavy entries are the
residue series of criterion 4 and the Baxter eigenrelation of criterion 6.
"""

import pytest

from qwlab.suite import CRITERIA, run_criterion

STATED_TOLERANCES = {
    1: "exact zero residuals",
    2: "exact agreement",
    3: "rel err < 1e-10; parity exact",
    4: "N=1 abs err < 1e-10; N=2, 3 rel err < 1e-6",
    5: "N=1 rel err < 1e-8; N=2 rel err < 1e-4",
    6: "N=1 rel err < 1e-6; N=2 rel err < 1e-3",
    7: "strictly decreasing ladders; sweep halved",
    8: "reflection 1e-12; bracket x2; Whittaker K-Bessel / Weyl permutation 1e-8",
}

# Criteria whose checks take their default tolerance, by N.
DEFAULT_TOLERANCES = {
    5: {1: 1e-8, 2: 1e-4},
    6: {1: 1e-6, 2: 1e-3},
}


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1))
def test_acceptance_criterion(index):
    name, reports, passed, elapsed = run_criterion(index)
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {index}] {name}: {verdict} "
          f"({elapsed:.1f}s, {len(reports)} checks, {STATED_TOLERANCES[index]})")
    failing = [(r.check_id, r.params, str(r.rel_err)) for r in reports if not r.passed]
    assert passed, f"{name} failed: {failing}"
    if index in DEFAULT_TOLERANCES:
        assert {r.params["n"]: r.tolerance for r in reports} == DEFAULT_TOLERANCES[index]
