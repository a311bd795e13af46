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
of a sampled curve, and trusts it: the public counts validate what they are
handed, and the CLI hands over stacks checked where they were made.  Each
node gets its chart matrix S in the orthogonal symplectic chart adapted to
Pi, ``grassmann._pi_chart(Pi)``: ``[[A, -B], [B, A]]`` from the QR frame
``[A; B]`` of Pi with a nonnegative R diagonal, which for
``vertical_plane(n)`` is the identity, the chart (Sigma, Pi) of the CLI's
chart columns.  There the Souriau map is the Cayley transform W = (I +
iS)(I - iS)^-1, up to a unitary similarity, and its eigenvalue angles are 2
arctan of the eigenvalues of S.  The increment
of an interval is the spectral flow of W along the shortest path between
its two samples, the geodesic of the Lagrangian Grassmannian (the path a
chart covering both samples would count along).  On that path arg det W
turns by the sum of the angles, each in (-pi, pi), of the eigenvalues of
W_{k-1}^H W_k; these are twice the signed principal angles between the
samples.  With G(W) the sum of the eigenvalue angles of W measured
counterclockwise from 1 in [0, 2 pi), an eigenvalue passing 1
counterclockwise lowers G by 2 pi, so the increment is (turn of arg det W -
change of G) / 2 pi.  No tolerance enters the increment.

The chart counts an interval where it certifies it.  Both nodes must be on
the chart: S exists, its norm is below ``_CHART_MAX`` (so the absolute error
of its eigenvalues, about eps ||S||, stays far below ``_ON_PI``), and every
principal angle to Pi is at least twice ``_ON_PI`` (so the Souriau pass
decides every node near Pi).  The Bhatia-Davis bound on eigenvalue motion,
2 arcsin(||W_k - W_{k-1}||_F / 2) (*Linear Multilinear Algebra* 15, 1984),
must be below pi/(2n), so that every turn angle is and their sum is below
pi/2 in magnitude; and so must be D, the change of 2 sum_j arctan s_j.  The
turn equals D modulo 2 pi, so it is D, and the increment is the half
signature change neg(S_{k-1}) - neg(S_k), with neg the count of negative
eigenvalues.  Every other node and interval goes through the Souriau pass
on that subset: one stacked QR for W, the eigenvalues of W (the angles of
the nodes off the chart) and the eigenvalues of the turns.  Each node takes
its angles from one source, so G telescopes across interior nodes on Pi.

A step is refused when W_{k-1}^H W_k has the eigenvalue -1 (its angle
evaluates to pi): a principal angle between the samples is pi/2, the
bound 2 arcsin(||W_k - W_{k-1}||_2 / 2) reaches pi, and no single shortest
path joins the samples.  :func:`maslov_index` then raises
:class:`RefinementError` and :func:`maslov_partial_sums` writes ``nan``.
Whether a node meets Pi is read off the eigenvalue angles of W: an angle
2 theta is a principal angle theta between L and Pi, and L meets Pi where one
is below ``_ON_PI`` = 2e-9, as the rank test of ``[L | Pi]`` at ``TOL_RANK``
had it for orthonormal frames (singular values sqrt(1 +- cos theta_j)).
:func:`maslov_index` refuses a curve whose endpoints meet Pi
(:class:`PreconditionError`) and counts across interior nodes on Pi, while
the partial sums carry ``nan`` on both intervals at such a node.

On the bang-bang recursion no path joins the planes, so there the
shortest-path count is the definition of the index, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, RefinementError
from .grassmann import GrassmannCurve, _chart_matrix, _pi_chart, validate_lagrangian

__all__ = [
    "maslov_index",
    "maslov_partial_sums",
]

#: largest principal angle to the reference plane of a node on it
_ON_PI = 2e-9
#: largest norm of the chart matrix of a node counted on the chart
_CHART_MAX = 1e4


def _souriau(frames: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Souriau maps W of a stack of ``(2n, n)`` Lagrangian frames over ``pi``."""
    n = pi.shape[0] // 2
    q, _ = np.linalg.qr(np.concatenate([pi[None], frames]))
    u = q[:, :n] + 1j * q[:, n:]
    uut = u @ np.swapaxes(u, 1, 2)
    return uut[1:] @ uut[0].conj()


def _turns(w: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Eigenvalue angles of W_k^H W_{k+1} for the intervals from the nodes ``left``."""
    return np.angle(np.linalg.eigvals(np.swapaxes(w[left].conj(), 1, 2) @ w[left + 1]))


@dataclass(frozen=True)
class _SpectralFlow:
    """One pass over a sampled curve: what both counting folds read.

    ``on_pi[k]``: node k meets pi; ``steps[k]``: net counterclockwise
    passages of eigenvalues of W through 1 on the shortest path from node
    k to node k + 1; ``refused[k]``: nodes k and k + 1 have a principal
    angle of pi/2, so there is no such path and ``steps[k]`` means nothing.
    ``charts[k]``: the chart matrix of node k over ``_pi_chart(pi)``, NaN
    where node k is not transversal to the chart plane.
    """

    on_pi: np.ndarray
    steps: np.ndarray
    refused: np.ndarray
    charts: np.ndarray

    def partial_sums(self) -> list[float]:
        """See :func:`maslov_partial_sums`."""
        counted = ~(self.refused | self.on_pi[:-1] | self.on_pi[1:])
        total = np.cumsum(np.where(counted, self.steps, 0))
        return [0.0] + np.where(counted, total, np.nan).tolist()

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


def _spectral_flow(frames: np.ndarray, pi: np.ndarray) -> _SpectralFlow:
    """Count each interval on the chart where it certifies it, and by the
    Souriau pass elsewhere (see module doc).  The caller has decided the
    stack: ``frames`` is a Lagrangian ``(K, 2n, n)`` stack and ``pi`` a
    Lagrangian frame, both used as they are."""
    n = pi.shape[0] // 2
    charts = _chart_matrix(frames, _pi_chart(pi))
    exists = np.isfinite(charts).all(axis=(1, 2))
    s = np.where(exists[:, None, None], charts, 0.0)
    lam = np.linalg.eigvalsh(s)
    angles = 2.0 * np.arctan(lam)
    chart = (exists & (np.max(np.abs(lam), axis=1) < _CHART_MAX)
             & (np.min(np.abs(angles), axis=1) >= 4.0 * _ON_PI))
    eye = np.eye(n)
    w = np.linalg.solve(eye - 1j * s, eye + 1j * s)
    certified = (chart[:-1] & chart[1:]
                 & (np.linalg.norm(w[1:] - w[:-1], axis=(1, 2)) < 2.0 * np.sin(np.pi / (4 * n)))
                 & (np.abs(np.sum(np.diff(angles, axis=0), axis=1)) < 0.5 * np.pi))
    # the Souriau pass on the rest; it makes its calls on no node too, so the
    # LAPACK calls of a pass do not depend on its nodes
    open_ = np.flatnonzero(~certified)
    rest = np.flatnonzero(~chart)
    sub = np.union1d(rest, np.concatenate([open_, open_ + 1]))
    ws = _souriau(frames[sub], pi)
    angles[rest] = np.angle(np.linalg.eigvals(ws[np.searchsorted(sub, rest)]))
    turn = _turns(ws, np.searchsorted(sub, open_))
    # a node on pi has an eigenvalue angle of +-0, placed at 0 or 2 pi; both
    # of its intervals read the same G, so its crossing is counted once
    g = np.sum(np.mod(angles, 2.0 * np.pi), axis=1)
    neg = np.count_nonzero(lam < 0.0, axis=1)
    steps = neg[:-1] - neg[1:]
    steps[open_] = np.rint((np.sum(turn, axis=1) - (g[open_ + 1] - g[open_])) / (2.0 * np.pi))
    refused = np.zeros(certified.shape, dtype=bool)
    refused[open_] = np.max(np.abs(turn), axis=1) >= np.pi
    return _SpectralFlow(np.min(np.abs(angles), axis=1) < 2.0 * _ON_PI, steps, refused, charts)


def _validated_flow(curve: GrassmannCurve, pi: np.ndarray) -> _SpectralFlow:
    """Validate a curve and a plane from outside, then count (an empty curve has no frames)."""
    pi = validate_lagrangian(np.asarray(pi, dtype=float))
    frames = validate_lagrangian(curve.planes if len(curve.planes) else np.empty((0,) + pi.shape))
    if frames.shape[-2] != pi.shape[0]:
        raise PreconditionError(
            f"curve frames have {frames.shape[-2]} rows, the reference plane {pi.shape[0]}")
    return _spectral_flow(frames, pi)


def maslov_index(curve: GrassmannCurve, pi: np.ndarray) -> int:
    """Maslov index of a sampled curve with respect to the plane ``pi``.

    Interior nodes may lie on ``pi``.  Raises :class:`PreconditionError`
    when a curve endpoint touches ``pi`` and :class:`RefinementError` when
    some step between samples is refused (see the module docstring).
    """
    return _validated_flow(curve, pi).index()


def maslov_partial_sums(curve: GrassmannCurve, pi: np.ndarray) -> list[float]:
    """Cumulative Maslov index along the sampled curve, one value per node.

    Each increment is :func:`maslov_index` of the two-node arc between
    consecutive nodes.  Nodes where the increment cannot be computed
    (endpoint on pi, refused step) carry ``nan``; subsequent sums resume
    from the last good value.
    """
    return _validated_flow(curve, pi).partial_sums()
