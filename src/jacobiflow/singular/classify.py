"""Oscillation classification at a vanishing instant of the weight.

The verdict is decided by the spectrum of ``C(0) B(0)`` for the block normal
form: with ``B(0) = diag(1/b_m, 0)`` the only structurally nonzero eigenvalue
is ``b11 * c11``.  For order two the flow is non-oscillating when every real
eigenvalue stays above ``-1/4``; for higher order the sign of ``C(0)`` on the
range of ``B(0)`` decides; order at most one never oscillates.  A relative
band of width ``tol_thresh`` around the critical values returns the
``Threshold`` verdict instead of guessing a side.

``oscillation_count_oracle`` is an independent cross-check: it integrates
random Lagrangian frames of the block system towards the singular instant and
counts sign changes of the vertical-block determinant, so saturating versus
growing counts discriminate the verdicts without using the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ..errors import PreconditionError, SingularityError
from ..grassmann import random_lagrangian
from ..series import meval
from .frame import NormalFormCoefficients, NormalFormFrame

__all__ = [
    "SingularityReport",
    "kneser_classify",
    "autonomous_spectrum_test",
    "oscillation_count_oracle",
    "oscillation_verdict",
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


def autonomous_spectrum_test(
    b0: np.ndarray, c0: np.ndarray, tol: float = 1e-9
) -> tuple[str, np.ndarray]:
    """Verdict for the frozen system ``[[0, B/t**2], [C, 0]]``.

    Oscillating exactly when ``B C`` has a real eigenvalue below ``-1/4``;
    meaningful when one of the factors is semidefinite (real spectrum).
    Returns the verdict together with the eigenvalues.
    """
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    c0 = np.atleast_2d(np.asarray(c0, dtype=float))
    eigs = np.linalg.eigvals(b0 @ c0)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    real = eigs[np.abs(eigs.imag) <= tol * scale].real
    if real.size and np.min(real) < -0.25:
        return OSCILLATING, eigs
    return NON_OSCILLATING, eigs


def oscillation_count_oracle(
    bnf,
    cnf,
    m: int,
    interval: tuple[float, float],
    n_solutions: int = 8,
    seed: int = 0,
    samples_per_decade: int = 400,
    rtol: float = 1e-10,
) -> list[int]:
    """Count vertical crossings of random solutions of the block system.

    ``bnf``/``cnf`` are coefficient stacks of the analytic numerator of ``B``
    and of ``C`` (constants are accepted); the frames are integrated from
    ``interval[0]`` up to ``interval[1]`` and the sign changes of the
    determinant of the vertical block are counted per solution.
    """
    tau_min, tau_max = float(interval[0]), float(interval[1])
    if not 0.0 < tau_min < tau_max:
        raise PreconditionError("need 0 < tau_min < tau_max")
    bnf = np.asarray(bnf, dtype=float)
    cnf = np.asarray(cnf, dtype=float)
    if bnf.ndim == 2:
        bnf = bnf[None, :, :]
    if cnf.ndim == 2:
        cnf = cnf[None, :, :]
    k = bnf.shape[1]

    def sys(t: float) -> np.ndarray:
        out = np.zeros((2 * k, 2 * k))
        out[:k, k:] = meval(bnf, t) / t**m
        out[k:, :k] = meval(cnf, t)
        return out

    def rhs(t, y):
        return (sys(t) @ y.reshape(2 * k, k)).ravel()

    rng = np.random.default_rng(seed)
    counts = []
    for _ in range(n_solutions):
        frame = random_lagrangian(rng, k)
        count = 0
        parity = 1.0
        t = tau_min
        prev_sign = None
        while t < tau_max:
            t_next = min(t * 2.0, tau_max)
            n_samp = max(8, int(samples_per_decade * np.log10(t_next / t)) + 2)
            ts = np.geomspace(t, t_next, n_samp)
            sol = solve_ivp(
                rhs,
                (t, t_next),
                frame.ravel(),
                method="DOP853",
                rtol=rtol,
                atol=1e-13,
                t_eval=ts,
                dense_output=False,
            )
            if sol.status != 0:
                raise PreconditionError(f"oracle integration failed: {sol.message}")
            for col in sol.y.T:
                det = np.linalg.det(col.reshape(2 * k, k)[k:, :]) * parity
                sign = np.sign(det)
                if prev_sign is not None and sign != 0 and prev_sign != 0 and sign != prev_sign:
                    count += 1
                if sign != 0:
                    prev_sign = sign
            end = sol.y[:, -1].reshape(2 * k, k)
            q, r = np.linalg.qr(end)
            # renormalizing rescales the determinant by det(R)^-1; fold its
            # sign into the running parity so crossings stay comparable
            parity *= np.sign(np.linalg.det(r))
            frame = q
            t = t_next
        counts.append(count)
    return counts


def oscillation_verdict(
    bnf,
    cnf,
    m: int,
    tau_max: float = 1.0,
    n_solutions: int = 4,
    seed: int = 0,
) -> str:
    """Saturation-versus-growth protocol on top of the crossing counts."""
    stages = [1e-2, 1e-3, 1e-4]
    totals = []
    for tau_min in stages:
        counts = oscillation_count_oracle(
            bnf, cnf, m, (tau_min, tau_max), n_solutions=n_solutions, seed=seed
        )
        totals.append(sum(counts))
    if totals[2] > totals[1] > totals[0]:
        return OSCILLATING
    if totals[2] == totals[1]:
        return NON_OSCILLATING
    # one extra crossing picked up while the transient settles: refine once
    extra = oscillation_count_oracle(
        bnf, cnf, m, (1e-5, tau_max), n_solutions=n_solutions, seed=seed
    )
    return OSCILLATING if sum(extra) > totals[2] else NON_OSCILLATING


def classify_coefficients(
    coeffs: NormalFormCoefficients,
    *,
    case: str = "",
    sigma_xxdot: float | None = None,
    tol_thresh: float = TOL_THRESH,
) -> SingularityReport:
    bnf0 = coeffs.bnum_stack(2)[0]
    cnf0 = coeffs.cnf_stack(1)[0]
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
