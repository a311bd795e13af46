"""Oscillation classification at a vanishing instant of the weight.

In the block normal form ``B(0) = diag(1/b_m, 0)`` and ``C`` is diagonal, so
``C(0) B(0) = diag(c11(0)/b_m, 0)``: one number decides the verdict.

- Order at most one never oscillates.
- Order two: with ``p = c11(0)/b_m`` the flow oscillates where ``p < -1/4``
  and not otherwise; ``delta = sqrt(1 + 4p)`` where it is real.
- Higher order: the sign of ``c11(0)`` against that of ``b_m`` (negative)
  decides; the same signs do not oscillate.

A relative band of width ``tol_thresh`` around each critical value (``p`` at
``-1/4`` and at 0, ``c11(0)`` at 0, relative to the larger of 1 and the
``C(0)`` entries) returns the ``Threshold`` verdict instead of guessing a
side.  The first-jet continuation reads this rule too: its blown-up
exponents are refused, and its ``delta`` taken, by
:func:`classify_coefficients` (:func:`~jacobiflow.singular.firstjet.case_system`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SingularityError
from .frame import NormalFormCoefficients, NormalFormFrame

__all__ = [
    "SingularityReport",
    "classify_frame",
    "classify_coefficients",
]

NON_OSCILLATING = "NonOscillating"
OSCILLATING = "Oscillating"
THRESHOLD = "Threshold"

TOL_THRESH = 1e-6


@dataclass
class SingularityReport:
    """Classification summary at a vanishing instant of the weight."""

    m: int
    b_m: float
    sigma_xxdot: float
    delta: float | None
    verdict: str
    case: str
    k: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise SingularityError("classification needs a weight vanishing to order >= 1")
        if self.b_m >= 0.0:
            raise SingularityError("leading weight coefficient must be negative")


def classify_coefficients(
    coeffs: NormalFormCoefficients,
    *,
    case: str = "",
    sigma_xxdot: float | None = None,
    tol_thresh: float = TOL_THRESH,
) -> SingularityReport:
    """Report at the vanishing instant of ``coeffs``, decided by ``c11(0)`` and
    ``b_m`` alone (see the module docstring); ``sigma_xxdot`` defaults to
    ``-c11(0)``."""
    c0 = float(coeffs.c11[0])
    delta = None
    if coeffs.m <= 1:
        verdict = NON_OSCILLATING
    elif coeffs.m == 2:
        p = 1.0 / coeffs.b_m * c0
        band = 0.25 * tol_thresh
        if abs(p + 0.25) <= band or abs(p) <= band:
            verdict = THRESHOLD
        else:
            verdict = OSCILLATING if p < -0.25 else NON_OSCILLATING
        disc = 1.0 + 4.0 * p
        delta = float(np.sqrt(disc)) if disc >= 0.0 else None
    else:
        scale = max(1.0, abs(c0), abs(float(coeffs.c22[0])) if coeffs.k == 2 else 0.0)
        if abs(c0) <= tol_thresh * scale:
            verdict = THRESHOLD
        else:
            verdict = NON_OSCILLATING if c0 < 0.0 else OSCILLATING
    return SingularityReport(
        m=coeffs.m,
        b_m=coeffs.b_m,
        sigma_xxdot=-c0 if sigma_xxdot is None else sigma_xxdot,
        delta=delta,
        verdict=verdict,
        case=case,
        k=coeffs.k,
    )


def classify_frame(frame: NormalFormFrame, tol_thresh: float = TOL_THRESH) -> SingularityReport:
    return classify_coefficients(
        frame.coeffs,
        case="span3" if frame.coeffs.k == 2 else "span2",
        sigma_xxdot=frame.sigma_xxdot,
        tol_thresh=tol_thresh,
    )
