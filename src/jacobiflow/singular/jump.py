"""Right limits of Lagrangian curves across a vanishing instant.

In the non-oscillating case the curve of planes has a limit from the right
at the singular instant, and the limit of the continuation equals the
isotropic extension of the incoming plane along ``X``: the jump inserts the
singular direction and drops the part of the plane it cannot keep.  The
``epsilon_family_oracle`` realizes the defining family: flow the incoming
plane from a small ``eps`` up to an evaluation time with the system handed
in, every member in one march; as ``eps`` shrinks, the planes must approach
the continuation.  The CLI hands in the data's own system from ``M(eps) L0``,
which the normal-form frame M(t) conjugates into the block system: it is
rank one, so cheaper to step.  It is written in the coordinates M(0)^-1,
where X(0) is the first axis, so the large steps next to the pole move that
coordinate alone; M(0) maps its members to trace coordinates.
"""

from __future__ import annotations

import numpy as np

from ..engine import JumpEvent
from ..errors import NoRightLimitError, PreconditionError, UndecidedError
from ..flows import SystemLike, _integrate, flow_plane  # flow_plane: bound here for tracers
from ..grassmann import _as_frame, canonicalize, extend_by_isotropic
from .classify import NON_OSCILLATING, THRESHOLD, SingularityReport

__all__ = ["jump_operator", "epsilon_family_oracle"]


def jump_operator(plane: np.ndarray, x0: np.ndarray, report: SingularityReport) -> JumpEvent:
    """Insert the singular direction into ``plane`` at the marked instant 0.

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
    return JumpEvent(time=0.0, pre_plane=pre, post_plane=post, inserted=np.asarray(x0, dtype=float))


def epsilon_family_oracle(
    system: SystemLike,
    starts: np.ndarray,
    tau_eval: float,
    eps_list,
    rtol: float = 1e-12,
) -> np.ndarray:
    """Planes ``Phi(tau_eval) Phi(eps_i)^-1 starts[i]`` by renormalized integration.

    ``Phi`` is the flow of ``system``, in a form :func:`_integrate` takes; a
    single start frame serves every member.  No fundamental matrix is ever
    evaluated at tiny times, so the family is well conditioned arbitrarily
    close to the pole.  The members share their march: the deepest one is
    marched from the smallest eps to the next, where the next member joins
    it, and so on up to ``tau_eval``.  The stack is one plane march
    (``_integrate`` with ``planes``), each member meeting its own error
    bound, with steps graded away from the pole.  One QR and one
    canonicalisation of the final stack give the members as one
    ``(len(eps_list), 2n, k)`` stack of canonical frames, in the order of
    ``eps_list``; a repeated eps is marched once, from its first start.
    """
    if tau_eval <= 0.0:
        raise PreconditionError("evaluation time must be positive")
    eps = np.asarray(eps_list, dtype=float)
    if not np.all((0.0 < eps) & (eps < tau_eval)):
        raise PreconditionError("each eps must satisfy 0 < eps < tau_eval")
    frames = np.linalg.qr(_as_frame(starts))[0]
    if frames.ndim == 3 and len(frames) != eps.size:
        raise PreconditionError("need one start frame, or one per member")
    times, first, member = np.unique(eps, return_index=True, return_inverse=True)
    stack = np.empty((0,) + frames.shape[-2:])
    for i, a, b in zip(first.tolist(), times.tolist(), times[1:].tolist() + [float(tau_eval)]):
        stack = np.concatenate([stack, (frames if frames.ndim == 2 else frames[i])[None]])
        stack = _integrate(system, stack, [a, b], rtol, planes=True)[-1]
    return canonicalize(np.linalg.qr(stack)[0])[member]
