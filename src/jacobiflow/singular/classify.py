"""Oscillation classification at a vanishing instant of the weight.

The verdict is decided by the spectrum of ``C(0) B(0)`` for the block normal
form: with ``B(0) = diag(1/b_m, 0)`` the only structurally nonzero eigenvalue
is ``b11 * c11``.  For order two the flow is non-oscillating when every real
eigenvalue stays above ``-1/4``; for higher order the sign of ``C(0)`` on the
range of ``B(0)`` decides; order at most one never oscillates.  A relative
band of width ``tol_thresh`` around the critical values returns the
``Threshold`` verdict instead of guessing a side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError, SingularityError
from .frame import NormalFormCoefficients, NormalFormFrame

__all__ = [
    "SingularityReport",
    "kneser_classify",
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

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "b_m": self.b_m,
            "sigma_xxdot": self.sigma_xxdot,
            "delta": self.delta,
            "verdict": self.verdict,
            "case": self.case,
            "k": self.k,
        }


def kneser_classify(
    bnf0: np.ndarray,
    cnf0: np.ndarray,
    m: int,
    tol_thresh: float = TOL_THRESH,
) -> str:
    """Verdict from the block data at the singular instant.

    ``bnf0`` is the analytic numerator of ``B`` evaluated at zero (so its
    (1,1) entry is ``1/b_m``) and ``cnf0`` the diagonal ``C(0)``.
    """
    bnf0 = np.atleast_2d(np.asarray(bnf0, dtype=float))
    cnf0 = np.atleast_2d(np.asarray(cnf0, dtype=float))
    if m <= 1:
        return NON_OSCILLATING

    if m == 2:
        eigs = np.linalg.eigvals(cnf0 @ bnf0)
        if np.max(np.abs(eigs.imag)) > 1e-9 * max(1.0, np.max(np.abs(eigs))):
            # complex pair below the critical line still oscillates
            return OSCILLATING if np.min(eigs.real) < -0.25 else NON_OSCILLATING
        vals = np.sort(eigs.real)
        product = bnf0[0, 0] * cnf0[0, 0]
        band = 0.25 * tol_thresh
        if abs(product + 0.25) <= band or abs(product) <= band:
            return THRESHOLD
        if np.any(np.abs(vals + 0.25) <= band):
            return THRESHOLD
        return OSCILLATING if vals[0] < -0.25 else NON_OSCILLATING

    # m > 2: sign of C(0) restricted to the range of B(0)
    u, s, _ = np.linalg.svd(bnf0)
    rng_cols = u[:, s > 1e-12 * max(s[0], 1.0)]
    if rng_cols.shape[1] == 0:
        raise PreconditionError("B(0) vanishes; no singular direction to classify")
    wb = np.linalg.eigvalsh(rng_cols.T @ bnf0 @ rng_cols)
    wc = np.linalg.eigvalsh(rng_cols.T @ cnf0 @ rng_cols)
    b_sign = np.sign(wb[np.argmax(np.abs(wb))])
    scale = max(1.0, float(np.max(np.abs(cnf0))))
    if np.any(np.abs(wc) <= tol_thresh * scale):
        return THRESHOLD
    if np.all(np.sign(wc) == b_sign):
        return NON_OSCILLATING
    return OSCILLATING


def classify_coefficients(
    coeffs: NormalFormCoefficients,
    *,
    case: str = "",
    sigma_xxdot: float | None = None,
    tol_thresh: float = TOL_THRESH,
) -> SingularityReport:
    # B(0) of the analytic numerator t**m B(t) is diag(1/b_m, 0)
    bnf0 = np.zeros((coeffs.k, coeffs.k))
    bnf0[0, 0] = 1.0 / coeffs.b_m
    cnf0 = coeffs.chat(0.0)
    verdict = kneser_classify(bnf0, cnf0, coeffs.m, tol_thresh)
    delta = None
    if coeffs.m == 2:
        disc = 1.0 + 4.0 * bnf0[0, 0] * cnf0[0, 0]
        delta = float(np.sqrt(disc)) if disc >= 0.0 else None
    if sigma_xxdot is None:
        sigma_xxdot = -float(cnf0[0, 0])
    return SingularityReport(
        m=coeffs.m,
        b_m=coeffs.b_m,
        sigma_xxdot=sigma_xxdot,
        delta=delta,
        verdict=verdict,
        case=case,
        k=coeffs.k,
    )


def classify_frame(frame: NormalFormFrame, tol_thresh: float = TOL_THRESH) -> SingularityReport:
    return classify_coefficients(
        frame.coeffs,
        case=frame.case,
        sigma_xxdot=frame.sigma_xxdot,
        tol_thresh=tol_thresh,
    )
