"""Scalar domains and q-series primitives.

Everything downstream runs on one of two scalar domains:

* exact rationals (`fractions.Fraction`) -- used whenever both sides of an
  identity are rational, so equality checks can demand exact zeros;
* arbitrary-precision floats/complexes (mpmath `mpf`/`mpc`) -- used for the
  analytic side, with the working precision set explicitly by the caller.

The q-series functions here are pure and accept either domain; they never
silently convert an exact input to floating point, except `qpoch_infinite`,
which returns mpmath's (a;q)_infty as an mpmath value.  `rational_parts` splits
exact rationals into integer numerators and denominators for the code that
runs on integers, and rejects every other scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath as mp

MIN_PREC_BITS = 64


class QwlabError(Exception):
    """Base class for errors raised by this package."""


class DomainError(QwlabError):
    """Input outside an operation's mathematical domain."""


def rational_parts(values) -> tuple:
    """Numerators and denominators of exact rationals (int or Fraction), as
    two lists; any other scalar raises DomainError."""
    nums, dens = [], []
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise DomainError(f"exact rationals required, got {type(v).__name__}")
        nums.append(v.numerator)
        dens.append(v.denominator)
    return nums, dens


def set_precision(bits: int):
    """Context manager fixing the mpmath working precision in bits (>= 64)."""
    if bits < MIN_PREC_BITS:
        raise DomainError(f"precision must be >= {MIN_PREC_BITS} bits, got {bits}")
    return mp.workprec(bits)


# ---------------------------------------------------------------------------
# Truncated power series in the formal variable zeta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaSeries:
    """Truncated power series sum_{k=0}^{order} coeffs[k] * zeta^k.

    The product truncates at the shared order; mixing orders is an error
    rather than an implicit truncation.
    """

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise DomainError("ZetaSeries needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int, domain_one=Fraction(1)) -> "ZetaSeries":
        zero = domain_one * 0
        return cls((domain_one,) + (zero,) * order)

    def __mul__(self, other: "ZetaSeries") -> "ZetaSeries":
        return zeta_series_mul(self, other)

    def scale(self, c) -> "ZetaSeries":
        return ZetaSeries(tuple(c * a for a in self.coeffs))

    def _check_order(self, other: "ZetaSeries") -> None:
        if self.order != other.order:
            raise DomainError(
                f"series order mismatch: {self.order} != {other.order}"
            )


def zeta_series_mul(s1: ZetaSeries, s2: ZetaSeries) -> ZetaSeries:
    """Cauchy product truncated at the shared order."""
    s1._check_order(s2)
    n = s1.order
    out = []
    for k in range(n + 1):
        acc = s1.coeffs[0] * s2.coeffs[k]
        for i in range(1, k + 1):
            acc = acc + s1.coeffs[i] * s2.coeffs[k - i]
        out.append(acc)
    return ZetaSeries(tuple(out))


# ---------------------------------------------------------------------------
# Shift compositions
# ---------------------------------------------------------------------------


def compositions_of_weight(k: int, n: int) -> Iterator[tuple]:
    """All nu in Z_{>=0}^n with |nu| = k, in lexicographic order: the shift
    vectors of the zeta^k term of the Noumi operator and of the k-th shell
    of the dual Baxter residue series."""
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions_of_weight(k - first, n - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# q-Pochhammer symbols
# ---------------------------------------------------------------------------


def qpoch_finite(a, q, n: int):
    """(a;q)_n = prod_{k=0}^{n-1} (1 - a q^k); exact when the inputs are.

    When a = A/B and q = C/D are exact rationals the product runs on
    integers, (a;q)_n = prod_k (B D^k - A C^k) / (B^n D^{n(n-1)/2}), and an
    int comes back when both are ints.  Other scalars (mpf, mpc, float)
    multiply the factors in their own arithmetic.
    """
    if n < 0:
        raise DomainError("finite q-Pochhammer needs n >= 0")
    if isinstance(a, (int, Fraction)) and isinstance(q, (int, Fraction)):
        A, B, C, D = a.numerator, a.denominator, q.numerator, q.denominator
        num = 1
        ck = dk = 1
        for _ in range(n):
            num *= B * dk - A * ck
            ck *= C
            dk *= D
        if isinstance(a, Fraction) or isinstance(q, Fraction):
            return Fraction(num, B**n * D ** (n * (n - 1) // 2))
        return num
    one = a * 0 + q * 0 + 1
    prod = one
    aqk = a
    for _ in range(n):
        prod = prod * (one - aqk)
        aqk = aqk * q
    return prod


def _float_abs(x) -> float:
    if isinstance(x, Fraction):
        return abs(float(x))
    return float(abs(mp.mpf(abs(x))))


def qpoch_infinite(a, q):
    """(a;q)_infty = prod_{k>=0} (1 - a q^k) for |q| < 1, at the working
    precision, as an mpmath value.

    Two routes, whichever takes fewer terms.  The factors come within
    2^-prec of 1 after about prec log 2 / log(1/|q|) of them, while the
    series

        log (a;q)_infty = -sum_{m>=1} a^m / (m (1 - q^m))

    (each log(1 - a q^k) expanded, the geometric sums over k done) needs
    about prec log 2 / log(1/|a|) terms: fewer exactly when 0 < |a| < |q|.
    There `_qpoch_log_series` sums it; everywhere else mp.qp multiplies the
    factors.  mpmath stops after 50 factors per bit of precision, which
    (a;q)_infty outruns for |q| near 1 (q = e^-0.01 at 128 bits needs about
    9000); the product converges for every |q| < 1, so that cap is lifted.
    Without the cap a non-finite a or q would never stop, so both are
    rejected.
    """
    if not (mp.isfinite(a) and mp.isfinite(q)):
        raise DomainError("infinite q-Pochhammer needs finite a and q")
    if _float_abs(q) >= 1.0:
        raise DomainError("infinite q-Pochhammer needs |q| < 1")
    a, q = mp.mpmathify(a), mp.mpmathify(q)
    if 0 < abs(a) < abs(q):
        return _qpoch_log_series(a, q)
    return mp.qp(a, q, maxterms=mp.inf)


def _qpoch_log_series(a, q):
    """exp(-sum_{m=1}^{M} a^m / (m (1 - q^m))) for 0 < |a| < |q| < 1, rounded
    to the working precision prec.

    Since |1 - q^m| >= 1 - |q|, the terms from m on sum to at most
    |a|^m / ((1 - |q|)(1 - |a|)), so M puts the dropped tail below
    2^-(prec+8).  The sum runs at g guard bits.  a^m and q^m by repeated
    multiplication are off by m units each, and 1 - q^m, at least 1 - |q|
    in modulus, turns q^m's error into m + 1 units of 1 / (1 - |q|), so a
    term is off by at most (2m + 4) / (1 - |q|) units of its modulus.  The
    moduli sum to at most mass = log(1/(1 - |a|)) / (1 - |q|), and adding M
    terms rounds by M units of that, so the sum is off by at most
    (3M + 4) mass / (1 - |q|) units of 2^-(prec+g); g puts that below
    2^-(prec+4), the absolute accuracy the exponential needs."""
    prec = mp.mp.prec
    ra, rq = float(abs(a)), float(abs(q))
    mass = -math.log1p(-ra) / (1 - rq)
    terms = math.ceil((prec + 8 - math.log2((1 - rq) * (1 - ra))) / -float(mp.log(abs(a), 2)))
    guard = max(8, math.ceil(math.log2(max(1, (3 * terms + 4) * mass / (1 - rq)))) + 4)
    with mp.workprec(prec + guard):
        total = 0
        am, qm = a, q
        for m in range(1, terms + 1):
            total += am / (m * (1 - qm))
            am, qm = am * a, qm * q
        value = mp.exp(-total)
    return +value


def qbinomial_ratio_series(a, b, q, order: int) -> ZetaSeries:
    """Series of (a zeta; q)_infty / (b zeta; q)_infty up to the given order.

    Coefficient of zeta^n is prod_{k=0}^{n-1}(b - a q^k) / (q;q)_n, the
    q-binomial theorem written so that b = 0 degenerates smoothly to the
    q-exponential expansion of (a zeta; q)_infty.
    """
    abs_q = _float_abs(q)
    if abs_q >= 1.0:
        raise DomainError("q-binomial series needs |q| < 1")
    one = a * 0 + b * 0 + q * 0 + 1
    coeffs = [one]
    num = one  # prod_{k<n} (b - a q^k)
    den = one  # (q;q)_n
    aqk = a
    qn = q
    for n in range(1, order + 1):
        num = num * (b - aqk)
        den = den * (one - qn)
        coeffs.append(num / den)
        aqk = aqk * q
        qn = qn * q
    return ZetaSeries(tuple(coeffs))
