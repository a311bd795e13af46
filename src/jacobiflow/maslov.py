"""Maslov index of curves of Lagrangian planes.

Method.  An orthonormal frame ``[A; B]`` of a Lagrangian plane L is a
unitary matrix U = A + iB (isotropy is exactly the vanishing of the
imaginary part of U^H U).  The Souriau map

    W = U U^T (U_Pi U_Pi^T)^*

depends on L and the reference plane Pi only, is unitary, and
dim(L ∩ Pi) is the multiplicity of its eigenvalue 1 (Arnold 1967).  The
Maslov index of a curve is the spectral flow of W through 1: the net
number of eigenvalues that pass 1 counterclockwise (Robbin & Salamon,
*Topology* 32, 1993).

Sign convention.  Counterclockwise passages count +1.  Along an arc that
stays in one chart ``(Delta, Pi)``, whose chart matrix S is singular exactly
where the plane meets Pi, the index is half the change of signature,

    index = (sign S_1 - sign S_0) / 2,

so a line whose chart matrix moves from -1 to +1 through 0 has index +1.

Counting.  :func:`_spectral_flow` makes one vectorised pass over the nodes
of a sampled curve: the stack of nodes is validated in one call, each node
is orthonormalised once and its W and eigenvalue angles are computed once.
The increment of an interval is the spectral flow of W along the shortest
path between its two samples, the geodesic of the Lagrangian Grassmannian
(the path a chart covering both samples would count along).  On that path
arg det W turns by the sum of the angles, each in (-pi, pi), of the
eigenvalues of W_{k-1}^H W_k; these are twice the signed principal angles
between the samples.  With G(W) the sum of the eigenvalue angles of W
measured counterclockwise from 1 in [0, 2 pi), an eigenvalue passing 1
counterclockwise lowers G by 2 pi, so the increment is (turn of arg det W -
change of G) / 2 pi.  No tolerance enters.

A step is refused when W_{k-1}^H W_k has the eigenvalue -1 (its angle
evaluates to pi): a principal angle between the samples is pi/2, the
Bhatia-Davis bound 2 arcsin(||W_k - W_{k-1}||_2 / 2) on eigenvalue motion
(*Linear Multilinear Algebra* 15, 1984) reaches pi, and no single shortest
path joins the samples.  :func:`maslov_index` then raises
:class:`RefinementError` and :func:`maslov_partial_sums` writes ``nan``.
Whether a node meets Pi is decided by one stacked rank test: validation
has fixed rank L = rank Pi = n, so L meets Pi exactly where ``[L | Pi]``
has rank below 2n, and one batched SVD gives that rank at every node.
:func:`maslov_index` refuses a curve whose endpoints meet Pi
(:class:`PreconditionError`) and counts across interior nodes on Pi, while
the partial sums carry ``nan`` on both intervals at such a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError, RefinementError
from .grassmann import GrassmannCurve, validate_lagrangian
from .symplectic import frame_rank

__all__ = [
    "maslov_index",
    "maslov_partial_sums",
]


def _souriau(frames: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Souriau maps W of a stack of ``(2n, n)`` Lagrangian frames over ``pi``."""
    n = pi.shape[0] // 2
    q, _ = np.linalg.qr(np.concatenate([pi[None], frames]))
    u = q[:, :n] + 1j * q[:, n:]
    uut = u @ np.swapaxes(u, 1, 2)
    return uut[1:] @ uut[0].conj()


@dataclass(frozen=True)
class _SpectralFlow:
    """One pass over a sampled curve: what both counting folds read.

    ``on_pi[k]``: node k meets pi; ``steps[k]``: net counterclockwise
    passages of eigenvalues of W through 1 on the shortest path from node
    k to node k + 1; ``refused[k]``: nodes k and k + 1 have a principal
    angle of pi/2, so there is no such path and ``steps[k]`` means nothing.
    """

    on_pi: np.ndarray
    steps: np.ndarray
    refused: np.ndarray

    def partial_sums(self) -> list[float]:
        """See :func:`maslov_partial_sums`."""
        sums: list[float] = [0.0]
        total = 0.0
        for k, (step, refused) in enumerate(zip(self.steps, self.refused)):
            if refused or self.on_pi[k] or self.on_pi[k + 1]:
                sums.append(float("nan"))
            else:
                total += int(step)
                sums.append(total)
        return sums

    def index(self) -> int:
        """See :func:`maslov_index`."""
        if self.on_pi.size < 2:
            return 0
        if self.on_pi[0] or self.on_pi[-1]:
            raise PreconditionError("curve endpoint is not transversal to the reference plane")
        if np.any(self.refused):
            k = int(np.argmax(self.refused))
            raise RefinementError(
                f"samples {k} and {k + 1} are antipodal: no shortest path joins them")
        return int(np.sum(self.steps))


def _spectral_flow(planes: Sequence[np.ndarray] | np.ndarray, pi: np.ndarray) -> _SpectralFlow:
    """Validate ``pi`` and every node, then count each interval (see module doc).

    ``planes`` is a sequence of frames or their ``(K, 2n, n)`` stack, which is
    used as it is.
    """
    pi = validate_lagrangian(np.asarray(pi, dtype=float))
    frames = validate_lagrangian(np.asarray(planes, dtype=float) if len(planes)
                                 else np.empty((0,) + pi.shape))
    both = np.concatenate([frames, np.broadcast_to(pi, frames.shape)], axis=-1)
    on_pi = frame_rank(both) < pi.shape[0]
    if len(frames) < 2:
        return _SpectralFlow(on_pi, np.zeros(0, dtype=int), np.zeros(0, dtype=bool))
    w = _souriau(frames, pi)
    # a node on pi has an eigenvalue angle of +-0, placed at 0 or 2 pi; both
    # of its intervals read the same G, so its crossing is counted once
    g = np.sum(np.mod(np.angle(np.linalg.eigvals(w)), 2.0 * np.pi), axis=1)
    turn = np.angle(np.linalg.eigvals(np.swapaxes(w[:-1].conj(), 1, 2) @ w[1:]))
    refused = np.max(np.abs(turn), axis=1) >= np.pi
    steps = np.rint((np.sum(turn, axis=1) - np.diff(g)) / (2.0 * np.pi)).astype(int)
    return _SpectralFlow(on_pi, steps, refused)


def maslov_index(curve: GrassmannCurve, pi: np.ndarray) -> int:
    """Maslov index of a sampled curve with respect to the plane ``pi``.

    Interior nodes may lie on ``pi``.  Raises :class:`PreconditionError`
    when a curve endpoint touches ``pi`` and :class:`RefinementError` when
    some step between samples is refused (see the module docstring).
    """
    return _spectral_flow(curve.planes, pi).index()


def maslov_partial_sums(curve: GrassmannCurve, pi: np.ndarray) -> list[float]:
    """Cumulative Maslov index along the sampled curve, one value per node.

    Each increment is :func:`maslov_index` of the two-node arc between
    consecutive nodes.  Nodes where the increment cannot be computed
    (endpoint on pi, refused step) carry ``nan``; subsequent sums resume
    from the last good value.
    """
    return _spectral_flow(curve.planes, pi).partial_sums()
