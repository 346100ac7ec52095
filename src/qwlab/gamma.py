"""Complex Gamma at the ambient mpmath working precision.

`gamma_c` is the lab's single Gamma entry point: it rejects the poles at
the non-positive integers with `GammaPoleError` (a `DomainError`, so the
checks can catch it and the CLI maps it to exit code 2) and otherwise
returns mpmath's own `mp.gamma`.  The tests anchor it at 64 to 1024 bits,
to a few units of 2^-prec, with identities Gamma must satisfy (recurrence,
reflection, duplication, factorial and half-integer values).  Call sites
go through `gamma_c` rather than `mp.gamma`, so pole handling lives in one
place.
"""

from __future__ import annotations

import mpmath as mp

from .qcore import DomainError


class GammaPoleError(DomainError):
    """Gamma evaluated at a non-positive integer."""


def gamma_c(z) -> mp.mpc:
    """Complex Gamma at the current mpmath working precision.

    Raises GammaPoleError at non-positive integers.
    """
    z = mp.mpc(z)
    if z.imag == 0 and z.real == mp.floor(z.real) and z.real <= 0:
        raise GammaPoleError(f"Gamma pole at {z}")
    return mp.gamma(z)
