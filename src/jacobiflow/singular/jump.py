"""Right limits of Lagrangian curves across a vanishing instant.

In the non-oscillating case the curve of planes has a limit from the right
at the singular instant, and the limit of the continuation equals the
isotropic extension of the incoming plane along ``X``: the jump inserts the
singular direction and drops the part of the plane it cannot keep.  The
``epsilon_family_oracle`` realizes the defining family: flow the incoming
plane from a small ``eps`` up to an evaluation time with the exact block
system; as ``eps`` shrinks, the planes must approach the continuation.
"""

from __future__ import annotations

import numpy as np

from ..engine import JumpEvent
from ..errors import NoRightLimitError, PreconditionError, UndecidedError
from ..flows import flow_plane
from ..grassmann import canonicalize, extend_by_isotropic
from .classify import NON_OSCILLATING, THRESHOLD, SingularityReport
from .frame import NormalFormCoefficients

__all__ = ["jump_operator", "epsilon_family_oracle"]


def jump_operator(
    plane: np.ndarray,
    x0: np.ndarray,
    report: SingularityReport,
    time: float = 0.0,
) -> JumpEvent:
    """Insert the singular direction into ``plane`` at a vanishing instant.

    Refuses to produce a right limit unless the classification verdict is
    non-oscillating: oscillating data admit no limit plane, and threshold
    data sit inside the tolerance band where the two regimes cannot be told
    apart.
    """
    if report.verdict == THRESHOLD:
        raise UndecidedError(
            "threshold band: the verdict is undecided at the working tolerance"
        )
    if report.verdict != NON_OSCILLATING:
        raise NoRightLimitError(
            f"verdict {report.verdict!r}: the curve has no right limit here"
        )
    if report.sigma_xxdot == 0.0:
        raise PreconditionError(
            "the inserted direction must pair nontrivially with its derivative"
        )
    pre = canonicalize(np.asarray(plane, dtype=float))
    post = extend_by_isotropic(pre, np.asarray(x0, dtype=float))
    return JumpEvent(time=time, pre_plane=pre, post_plane=post, inserted=np.asarray(x0, dtype=float))


def epsilon_family_oracle(
    coeffs: NormalFormCoefficients,
    l0: np.ndarray,
    tau_eval: float,
    eps_list,
    rtol: float = 1e-12,
) -> list[np.ndarray]:
    """Planes ``Phi(tau_eval) Phi(eps)^-1 L0`` by renormalized integration.

    Integrates the exact rational block system from each starting time in
    ``eps_list`` up to ``tau_eval``; never evaluates a fundamental matrix at
    tiny times, so the family is well conditioned arbitrarily close to the
    pole.  Returns canonical frames in the order of ``eps_list``.
    """
    l0 = np.asarray(l0, dtype=float)
    if tau_eval <= 0.0:
        raise PreconditionError("evaluation time must be positive")
    out = []
    for eps in eps_list:
        if not 0.0 < eps < tau_eval:
            raise PreconditionError("each eps must satisfy 0 < eps < tau_eval")
        curve = flow_plane(coeffs.system, l0, [float(eps), float(tau_eval)], rtol=rtol)
        out.append(curve.planes[-1])
    return out
