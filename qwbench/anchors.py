"""Reference values computed apart from qwlab.

Each anchor uses a different formula from the program's own: a
determinant formula instead of Gram-Schmidt, the modified Bessel function
instead of a pattern quadrature, and mpmath's Gamma instead of the Spouge
kernel.  They are evaluated with extra guard bits so that their own
rounding stays below the program's working-precision unit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp

GUARD_BITS = 20


def _det(rows) -> Fraction:
    """Leibniz determinant; the matrices here are at most 4 x 4."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def schur_bialternant(lam, z) -> Fraction:
    """s_lam(z) = det(z_i^(lam_j + n - j)) / det(z_i^(n - j)), exactly."""
    n = len(z)
    parts = tuple(lam) + (0,) * (n - len(lam))
    num = [[Fraction(zi) ** (parts[j] + n - 1 - j) for j in range(n)] for zi in z]
    den = [[Fraction(zi) ** (n - 1 - j) for j in range(n)] for zi in z]
    return _det(num) / _det(den)


def gl2_profile(mu1, mu2, s):
    """2 K_{i(mu1 - mu2)}(2 e^{-s/2}): the N = 2 row-separation profile."""
    with mp.extraprec(GUARD_BITS):
        order = 1j * (mp.mpc(mu1) - mp.mpc(mu2))
        return 2 * mp.besselk(order, 2 * mp.exp(-mp.mpf(s) / 2))


def gl2_whittaker(lam, x):
    """psi_lam(x) = e^{i(lam1 + lam2)(x1 + x2)/2} 2 K_{i(lam1 - lam2)}(2 e^{-(x1 - x2)/2})."""
    l1, l2 = (mp.mpc(v) for v in lam)
    x1, x2 = (mp.mpf(v) for v in x)
    with mp.extraprec(GUARD_BITS):
        return mp.exp(1j * (l1 + l2) * (x1 + x2) / 2) * gl2_profile(l1, l2, x1 - x2)


def whittaker(lam, x):
    """psi_lam(x) for N = 1 (an exponential) or N = 2 (the K-Bessel form)."""
    if len(lam) == 1:
        with mp.extraprec(GUARD_BITS):
            return mp.exp(1j * mp.mpc(lam[0]) * mp.mpf(x[0]))
    return gl2_whittaker(lam, x)


def baxter_left_side(w, u, x, which):
    """Cutoff times Whittaker function, the closed-form side of the dual
    Baxter eigenrelation: e^{-u e^{-x_N}} psi_w(x) or e^{-u e^{x_1}} psi_{-w}(x)."""
    with mp.extraprec(GUARD_BITS):
        u = mp.mpf(u)
        if which == "second":
            return mp.exp(-u * mp.exp(-mp.mpf(x[-1]))) * whittaker(w, x)
        return mp.exp(-u * mp.exp(mp.mpf(x[0]))) * whittaker([-mp.mpc(v) for v in w], x)


def stade_value(u, lam, nu):
    """u^{-sum(lam + nu)} prod_{i,j} Gamma(lam_i + nu_j) with mpmath's Gamma."""
    with mp.extraprec(GUARD_BITS):
        val = mp.mpf(u) ** (-mp.fsum([mp.mpc(v) for v in list(lam) + list(nu)]))
        for li in lam:
            for nj in nu:
                val *= mp.gamma(mp.mpc(li) + mp.mpc(nj))
        return val


def gamma_ratio_product(r, nu):
    """prod_{i != j} Gamma(r_j - r_i - nu_j) / Gamma(r_i - r_j - nu_i + nu_j)."""
    r = [mp.mpc(v) for v in r]
    with mp.extraprec(GUARD_BITS):
        val = mp.mpc(1)
        for i in range(len(r)):
            for j in range(len(r)):
                if i != j:
                    val *= mp.gamma(r[j] - r[i] - nu[j]) / mp.gamma(r[i] - r[j] - nu[i] + nu[j])
        return val


def kappa_closed_form(nu) -> int:
    return 2 * sum((1 - m) * nu[m - 1] for m in range(1, len(nu) + 1))


def relative_error(value, anchor):
    anchor_abs = abs(anchor)
    diff = abs(mp.mpc(value) - mp.mpc(anchor))
    return diff / anchor_abs if anchor_abs else diff


def digits(rel_err, prec_bits: int) -> float:
    """Correct decimal digits, -log10(rel_err), with an error below the
    working-precision unit 2^-prec_bits counted as that unit."""
    unit = 2.0 ** -prec_bits
    return -math.log10(max(float(rel_err), unit))
