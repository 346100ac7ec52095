import importlib
import math
import pkgutil
import random
import re
from pathlib import Path

import mpmath as mp
import pytest

import qwlab
import qwlab.gamma
from qwlab.gamma import GammaPoleError, gamma_c


def setup_function(_fn):
    mp.mp.dps = 25


def teardown_function(_fn):
    mp.mp.dps = 15


def test_integer_values():
    assert abs(gamma_c(1) - 1) < mp.mpf("1e-24")
    assert abs(gamma_c(5) - 24) < mp.mpf("1e-22")


def test_half_integer_reflection_seam():
    assert abs(gamma_c(mp.mpf("0.5")) ** 2 - mp.pi) < mp.mpf("1e-23")


def test_poles_rejected():
    for prec in (64, 256):
        with mp.workprec(prec):
            for n in (0, -1, -7, -50):
                for z in (n, mp.mpf(n), mp.mpc(n, 0)):
                    with pytest.raises(GammaPoleError):
                        gamma_c(z)
                # Just off the pole the value is finite.
                off = mp.mpf(2) ** (-prec // 2)
                assert mp.isfinite(gamma_c(mp.mpf(n) + off))
                assert mp.isfinite(gamma_c(mp.mpc(n, off)))


def test_recurrence_on_random_points():
    rng = random.Random(3)
    for _ in range(100):
        z = mp.mpc(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 0.1:
            z += 0.5j
        lhs = z * gamma_c(z)
        rhs = gamma_c(z + 1)
        assert abs(lhs - rhs) / abs(rhs) < mp.mpf("1e-12")


def test_euler_reflection_on_random_points():
    rng = random.Random(4)
    for _ in range(50):
        z = mp.mpc(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if abs(z.imag) < 0.05:
            z += 0.2j
        val = gamma_c(z) * gamma_c(1 - z) * mp.sinpi(z) / mp.pi
        assert abs(val - 1) < mp.mpf("1e-12")


def test_against_library_oracle_across_precisions():
    """gamma_c returns mp.gamma, so this compares the library with itself:
    it now only checks that gamma_c honours the ambient precision.  The
    independent anchors are the identity tests below."""
    rng = random.Random(5)
    for dps in (15, 30, 60):
        mp.mp.dps = dps
        for _ in range(40):
            z = mp.mpc(rng.uniform(-15, 15), rng.uniform(-25, 25))
            if abs(z.imag) < 0.1 and z.real <= 0:
                continue
            mine = gamma_c(z)
            ref = mp.gamma(z)
            assert abs(mine - ref) / abs(ref) < mp.mpf(10) ** (-dps + 2)


def test_vertical_strip_decay_bracket():
    # |Gamma(x+iy)| e^{pi|y|/2} |y|^{1/2-x} stays in a narrow bracket.
    ratios = []
    for x10 in range(10, 21, 5):
        for y in (5, 12, 30, 50):
            z = mp.mpc(x10 / 10, y)
            ratios.append(abs(gamma_c(z)) * mp.exp(mp.pi * y / 2)
                          * mp.mpf(y) ** (mp.mpf("0.5") - z.real))
    assert max(ratios) / min(ratios) < 2


# ---------------------------------------------------------------------------
# Independent anchors at 64-1024 bits.  Sample points are dyadic (eight
# fractional bits), so z + 1/2, z + 1, 1 - z, 2z and 1 - 2z are exact and
# each identity is held to a few units of 2^-prec.
# ---------------------------------------------------------------------------

PRECISIONS = (64, 128, 256, 512, 1024)
UNITS = 8


def _dyadic_points(seed, count=25):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        z = mp.mpc(mp.mpf(rng.randint(-12 * 256, 12 * 256)) / 256,
                   mp.mpf(rng.randint(-15 * 256, 15 * 256)) / 256)
        if abs(z.imag) >= 0.1:
            pts.append(z)
    return pts


def _units(value, anchor, prec):
    return abs(value - anchor) / abs(anchor) * mp.mpf(2) ** prec


@pytest.mark.parametrize("prec", PRECISIONS)
def test_recurrence_to_working_precision(prec):
    with mp.workprec(prec):
        for z in _dyadic_points(prec):
            assert _units(z * gamma_c(z), gamma_c(z + 1), prec) < UNITS, z


@pytest.mark.parametrize("prec", PRECISIONS)
def test_euler_reflection_to_working_precision(prec):
    with mp.workprec(prec):
        for z in _dyadic_points(prec + 1):
            lhs = gamma_c(z) * gamma_c(1 - z) * mp.sinpi(z) / mp.pi
            assert _units(lhs, mp.mpf(1), prec) < UNITS, z


@pytest.mark.parametrize("prec", PRECISIONS)
def test_conjugate_symmetry(prec):
    with mp.workprec(prec):
        for z in _dyadic_points(prec + 2):
            assert _units(gamma_c(mp.conj(z)), mp.conj(gamma_c(z)), prec) < UNITS, z


@pytest.mark.parametrize("prec", PRECISIONS)
def test_integer_and_half_integer_values(prec):
    with mp.workprec(prec):
        for n in range(1, 41):
            assert _units(gamma_c(n), mp.mpf(math.factorial(n - 1)), prec) < UNITS, n
            # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
            half = (mp.mpf(math.factorial(2 * n)) / (mp.mpf(4) ** n * math.factorial(n))
                    * mp.sqrt(mp.pi))
            assert _units(gamma_c(n + mp.mpf("0.5")), half, prec) < UNITS, n


@pytest.mark.parametrize("prec", PRECISIONS)
def test_legendre_duplication(prec):
    # Gamma(z) Gamma(z + 1/2) = 2^(1-2z) sqrt(pi) Gamma(2z)
    with mp.workprec(prec):
        for z in _dyadic_points(prec + 3):
            lhs = gamma_c(z) * gamma_c(z + mp.mpf("0.5"))
            rhs = mp.power(2, 1 - 2 * z) * mp.sqrt(mp.pi) * gamma_c(2 * z)
            assert _units(lhs, rhs, prec) < UNITS, z


def test_256_bit_grid_to_working_precision():
    # A fixed grid over the strip the lab uses, against mpmath 20 bits up.
    rng = random.Random("gamma-256")
    pts = []
    while len(pts) < 10:
        z = complex(round(rng.uniform(-3.5, 6), 4), round(rng.uniform(-5, 5), 4))
        if abs(z.imag) >= 0.1:
            pts.append(z)
    for z in pts:
        with mp.workprec(256):
            value = gamma_c(z)
        with mp.workprec(276):
            assert _units(value, mp.gamma(mp.mpc(z)), 256) < UNITS, z


def test_one_gamma_entry_point():
    # Pole handling, and any counting wrapped around qwlab.gamma.gamma_c,
    # see every Gamma call only if each module calls that one function.
    src = Path(qwlab.__file__).parent
    library_gamma = re.compile(r"\b(?:mp|mpmath)\.(?:gamma|rgamma|loggamma)\b")
    callers = []
    for info in pkgutil.iter_modules(qwlab.__path__):
        if info.name == "gamma":
            continue
        text = (src / f"{info.name}.py").read_text()
        assert not library_gamma.search(text), f"{info.name}.py calls mpmath's Gamma directly"
        if "gamma_c(" in text:
            module = importlib.import_module(f"qwlab.{info.name}")
            assert module.gamma_c is qwlab.gamma.gamma_c, info.name
            callers.append(info.name)
    assert set(callers) >= {"baxter", "limits", "suite", "whittaker"}
