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

Sign convention.  Counterclockwise passages count +1.  This is the
convention of :func:`simple_arc_index`, the half signature difference of
the endpoint chart matrices

    index = (sign S_1 - sign S_0) / 2,

so the arc ``S(t) = (t, .)`` in dimension one (chart matrix moving from -1
to +1 through 0) has index +1.

Counting.  :func:`_spectral_flow` makes one vectorised pass over the nodes
of a sampled curve: each node is validated and orthonormalised once and its
W and eigenvalue angles are computed once.  The increment of an interval is
the spectral flow of W along the shortest path between its two samples, the
geodesic of the Lagrangian Grassmannian (the path a chart covering both
samples would count along).  On that path arg det W turns by the sum of the
angles, each in (-pi, pi), of the eigenvalues of W_{k-1}^H W_k; these are
twice the signed principal angles between the samples.  With G(W) the sum
of the eigenvalue angles of W measured counterclockwise from 1 in
[0, 2 pi), an eigenvalue passing 1 counterclockwise lowers G by 2 pi, so
the increment is (turn of arg det W - change of G) / 2 pi.  No tolerance
enters.

A step is refused when W_{k-1}^H W_k has the eigenvalue -1 (its angle
evaluates to pi): a principal angle between the samples is pi/2, the
Bhatia-Davis bound 2 arcsin(||W_k - W_{k-1}||_2 / 2) on eigenvalue motion
(*Linear Multilinear Algebra* 15, 1984) reaches pi, and no single shortest
path joins the samples.  :func:`maslov_index` then raises
:class:`RefinementError` and :func:`maslov_partial_sums` writes ``nan``.
Whether a node meets Pi is decided by :func:`intersection_dimension`:
:func:`maslov_index` refuses a curve whose endpoints meet Pi
(:class:`PreconditionError`) and counts across interior nodes on Pi, while
the partial sums carry ``nan`` on both intervals at such a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArcError, PreconditionError, RefinementError
from .flows import _system, fundamental_solution
from .symplectic import apply_j
from .grassmann import (
    GrassmannCurve,
    intersection_dimension,
    to_chart,
    validate_lagrangian,
)

__all__ = [
    "simple_arc_index",
    "maslov_index",
    "maslov_partial_sums",
    "vertical_intersection_count",
]


def _signature(s: np.ndarray, tol: float = 1e-9) -> int:
    """Signature of a symmetric matrix; ArcError on (numerically) zero eigenvalues."""
    w = np.linalg.eigvalsh(0.5 * (s + s.T))
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.any(np.abs(w) <= tol * scale):
        raise ArcError("chart matrix is singular: endpoint touches the reference plane")
    return int(np.sum(w > 0) - np.sum(w < 0))


def simple_arc_index(l0: np.ndarray, l1: np.ndarray, pi: np.ndarray, delta: np.ndarray) -> int:
    """Index of a simple arc from l0 to l1 in the chart ``(delta, pi)``.

    Both endpoints must be transversal to ``delta`` (so chart matrices
    exist) and to ``pi`` (so the signatures are defined); the arc is assumed
    to stay inside the chart.
    """
    s0 = to_chart(l0, delta, pi).s
    s1 = to_chart(l1, delta, pi).s
    return (_signature(s1) - _signature(s0)) // 2


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


def _spectral_flow(planes: Sequence[np.ndarray], pi: np.ndarray) -> _SpectralFlow:
    """Validate ``pi`` and every node, then count each interval (see module doc)."""
    pi = validate_lagrangian(np.asarray(pi, dtype=float))
    frames = [validate_lagrangian(p) for p in planes]
    on_pi = np.array([intersection_dimension(f, pi) > 0 for f in frames], dtype=bool)
    if len(frames) < 2:
        return _SpectralFlow(on_pi, np.zeros(0, dtype=int), np.zeros(0, dtype=bool))
    w = _souriau(np.stack(frames), pi)
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


def _restricted_form_sign(h, delta_q: np.ndarray, ts: np.ndarray, tol: float = 1e-10) -> int:
    """Uniform sign of the Hamiltonian form restricted to a plane, else raise."""
    sys = _system(h)
    sign = 0
    for t in ts:
        jm = apply_j(sys(t))
        ham = 0.5 * (jm + jm.T)
        w = np.linalg.eigvalsh(delta_q.T @ ham @ delta_q)
        scale = max(1.0, float(np.max(np.abs(w))))
        pos = bool(np.any(w > tol * scale))
        neg = bool(np.any(w < -tol * scale))
        if pos and neg:
            raise PreconditionError(
                "Hamiltonian form restricted to the counting plane is indefinite"
            )
        here = 1 if pos else (-1 if neg else 0)
        if here != 0:
            if sign != 0 and here != sign:
                raise PreconditionError(
                    "restricted Hamiltonian form changes sign along the interval"
                )
            sign = here
    return sign


def vertical_intersection_count(h, l0: np.ndarray, delta: np.ndarray,
                                grid: Sequence[float]) -> int:
    """Total intersection count of the flow of ``l0`` with the plane ``delta``.

    Requires the Hamiltonian form restricted to ``delta`` to be
    sign-semidefinite on the whole interval, so crossings are one-way and
    the count is the sum of the absolute spectral-flow steps over a refined
    sample set (each eigenvalue of W that passes 1 is one dimension of an
    intersection).  A refused step is bisected in t until it is accepted.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise PreconditionError("grid needs at least two nodes")
    delta = validate_lagrangian(np.asarray(delta, dtype=float))
    qd, _ = np.linalg.qr(delta)

    refine = 6
    ts = np.unique(np.concatenate([np.linspace(a, b, refine + 1)
                                   for a, b in zip(grid[:-1], grid[1:])]))
    _restricted_form_sign(h, qd, ts)

    interp, _ = fundamental_solution(h, grid[0], grid[-1])
    l0 = validate_lagrangian(np.asarray(l0, dtype=float))

    def plane(t: float) -> np.ndarray:
        q, _ = np.linalg.qr(interp(t) @ l0)
        return q

    def count(ta: float, tb: float, pa: np.ndarray, pb: np.ndarray) -> int:
        flow = _spectral_flow([pa, pb], delta)
        if not flow.refused[0]:
            return abs(int(flow.steps[0]))
        tm = 0.5 * (ta + tb)
        pm = plane(tm)
        return count(ta, tm, pa, pm) + count(tm, tb, pm, pb)

    planes = [plane(t) for t in ts]
    flow = _spectral_flow(planes, delta)
    return sum(count(ts[k], ts[k + 1], planes[k], planes[k + 1]) if refused else abs(int(step))
               for k, (step, refused) in enumerate(zip(flow.steps, flow.refused)))
