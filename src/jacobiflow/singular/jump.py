"""Right limits of Lagrangian curves across a vanishing instant.

In the non-oscillating case the curve of planes has a limit from the right
at the singular instant, and the limit of the continuation equals the
isotropic extension of the incoming plane along ``X``: the jump inserts the
singular direction and drops the part of the plane it cannot keep.  The
``epsilon_family_oracle`` realizes the defining family: flow the incoming
plane from a small ``eps`` up to an evaluation time with the exact block
system, every member in one march; as ``eps`` shrinks, the planes must
approach the continuation.
"""

from __future__ import annotations

import numpy as np

from ..engine import JumpEvent
from ..errors import NoRightLimitError, PreconditionError, UndecidedError
from ..flows import _integrate, flow_plane  # flow_plane: bound here for tracers
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
    pole.  The members share their march: the deepest one is marched from
    the smallest eps to the next, where L0 joins it as a second frame, and
    so on up to ``tau_eval``.  The stack is one plane march (``_integrate``
    with ``planes``): each frame is tested on its own plane, so each member
    meets its own error bound, and the steps are graded away from the pole.
    One QR and one canonicalisation of the final stack give the members,
    returned in the order of ``eps_list``; a repeated eps is marched once.
    """
    l0 = np.asarray(l0, dtype=float)
    if tau_eval <= 0.0:
        raise PreconditionError("evaluation time must be positive")
    eps = np.asarray(eps_list, dtype=float)
    if not np.all((0.0 < eps) & (eps < tau_eval)):
        raise PreconditionError("each eps must satisfy 0 < eps < tau_eval")
    times, member = np.unique(eps, return_inverse=True)
    frame = np.linalg.qr(l0[:, None] if l0.ndim == 1 else l0)[0]
    stack = np.empty((0,) + frame.shape)
    for a, b in zip(times.tolist(), times[1:].tolist() + [float(tau_eval)]):
        stack = np.concatenate([stack, frame[None]])
        stack = _integrate(coeffs.system, stack, [a, b], rtol, planes=True)[-1]
    return list(canonicalize(np.linalg.qr(stack)[0])[member])
