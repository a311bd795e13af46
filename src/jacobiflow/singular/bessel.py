"""Modified Bessel functions I_a and K_a for the closed-form models.

Thin wrappers over :func:`scipy.special.iv` and :func:`scipy.special.kv`
that add the package's argument checks; derivatives follow from the ladder
identities.  Orders are ``a >= 0`` and arguments ``0 < x <= 700``, where
both values are finite in double precision.
"""

from __future__ import annotations

import numpy as np
from scipy.special import iv, kv

from ..errors import PreconditionError

__all__ = ["bessel_ik", "bessel_i", "bessel_k", "i_derivative", "k_derivative"]


def bessel_i(a: float, x: float) -> float:
    """Modified Bessel function of the first kind, order a >= 0."""
    _check(a, x)
    return float(iv(a, x))


def bessel_k(a: float, x: float) -> float:
    """Modified Bessel function of the second kind, order a >= 0."""
    _check(a, x)
    return float(kv(a, x))


def bessel_ik(a: float, x: float) -> tuple[float, float]:
    """Pair ``(I_a(x), K_a(x))``."""
    return bessel_i(a, x), bessel_k(a, x)


def i_derivative(a: float, x: float) -> float:
    """dI_a/dx via the ladder identity I_a' = (a/x) I_a + I_{a+1}."""
    return (a / x) * bessel_i(a, x) + bessel_i(a + 1.0, x)


def k_derivative(a: float, x: float) -> float:
    """dK_a/dx via the ladder identity K_a' = (a/x) K_a - K_{a+1}."""
    return (a / x) * bessel_k(a, x) - bessel_k(a + 1.0, x)


def _check(a: float, x: float) -> None:
    if not np.isfinite(a) or not np.isfinite(x):
        raise PreconditionError("order and argument must be finite")
    if a < 0:
        raise PreconditionError("order must be nonnegative")
    if x <= 0:
        raise PreconditionError("argument must be positive")
    if x > 700.0:
        raise PreconditionError("argument too large for double-precision I/K values")
