"""Frames, charts and metrics on the Lagrangian Grassmannian.

A Lagrangian plane is represented by a ``(2n, n)`` frame; isotropic
subspaces of lower dimension by ``(2n, k)`` frames.  Frames are unique only
up to right multiplication by an invertible matrix; :func:`canonicalize`
picks the reduced column-echelon representative so planes can be compared
entry by entry.

A chart is an ordered pair ``(delta, pi_ref)`` of transversal Lagrangian
planes.  Every plane transversal to ``delta`` is the graph of a symmetric
matrix over ``pi_ref``; :func:`to_chart` and :func:`from_chart` convert
between frames and chart matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartError, NondegeneracyError, PreconditionError
from .symplectic import (
    TOL_ISO,
    TOL_RANK,
    dim_to_n,
    frame_rank,
    gram,
    isotropy_residual,
)

__all__ = [
    "LagrangianFrame",
    "ChartPoint",
    "GrassmannCurve",
    "canonicalize",
    "intersection_dimension",
    "transversality_margin",
    "to_chart",
    "from_chart",
    "extend_by_isotropic",
    "plane_distance",
    "vertical_plane",
    "horizontal_plane",
    "random_lagrangian",
]

# A frame is just an ndarray; the alias documents intent in signatures.
LagrangianFrame = np.ndarray


def _as_frame(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.ndim != 2:
        raise PreconditionError("frame must be a (2n, k) array")
    dim_to_n(f.shape[0])
    return f


def validate_lagrangian(f: np.ndarray, tol_iso: float = TOL_ISO) -> np.ndarray:
    """Check that a frame spans a Lagrangian plane (full rank, isotropic)."""
    f = _as_frame(f)
    n = f.shape[0] // 2
    if f.shape[1] != n:
        raise PreconditionError(f"Lagrangian frame must have n={n} columns, got {f.shape[1]}")
    if frame_rank(f) < n:
        raise NondegeneracyError("Lagrangian frame is rank deficient")
    if isotropy_residual(f) > tol_iso:
        raise NondegeneracyError("frame is not isotropic to tolerance")
    return f


def vertical_plane(n: int) -> np.ndarray:
    """The vertical plane Pi = {q = 0}, spanned by the p-axes."""
    return np.eye(2 * n)[:, :n]


def horizontal_plane(n: int) -> np.ndarray:
    """The horizontal plane Sigma = {p = 0}, spanned by the q-axes."""
    return np.eye(2 * n)[:, n:]


def canonicalize(f: np.ndarray, tol: float = TOL_RANK) -> np.ndarray:
    """Reduced column-echelon representative of a frame.

    The result is the unique basis of span(f) in which each column has a
    leading coordinate equal to exactly 1, that coordinate vanishes in all
    other columns, and columns are ordered by leading coordinate.  Linearly
    dependent columns are dropped, so the output has ``rank(f)`` columns.

    The representative is invariant under right multiplication by any
    invertible matrix and the map is idempotent.
    """
    f = _as_frame(f)
    a = f.T.copy()  # rows are basis vectors, columns are coordinates
    k, dim = a.shape
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return np.zeros((dim, 0))
    thresh = tol * scale
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(dim):
        if r >= k:
            break
        i = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[i, c]) <= thresh:
            continue
        a[[r, i]] = a[[i, r]]
        a[r] = a[r] / a[r, c]
        a[r, c] = 1.0
        for j in range(k):
            if j != r and a[j, c] != 0.0:
                a[j] = a[j] - a[j, c] * a[r]
                a[j, c] = 0.0
        pivots.append((r, c))
        r += 1
    return a[: len(pivots)].T.copy()


def intersection_dimension(a: np.ndarray, b: np.ndarray, tol: float = TOL_RANK) -> int:
    """dim(span(a) ∩ span(b)) via rank arithmetic on stacked frames."""
    a = _as_frame(a)
    b = _as_frame(b)
    if a.shape[0] != b.shape[0]:
        raise PreconditionError("frames live in different ambient spaces")
    ra = frame_rank(a, tol)
    rb = frame_rank(b, tol)
    rab = frame_rank(np.hstack([a, b]), tol)
    return ra + rb - rab


def _orthonormal(f: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(f)
    keep = np.abs(np.diag(r)) > TOL_RANK * max(1.0, float(np.max(np.abs(r))))
    return q[:, keep]


def transversality_margin(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest principal angle between two subspaces, in radians.

    Zero iff the subspaces intersect nontrivially; pi/2 for orthogonal
    complements.
    """
    qa = _orthonormal(_as_frame(a))
    qb = _orthonormal(_as_frame(b))
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return float(np.pi / 2)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(min(1.0, float(s[0]))))


def plane_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Gap distance between subspaces: spectral norm of the projector difference."""
    a = _as_frame(a)
    b = _as_frame(b)
    qa = _orthonormal(a)
    qb = _orthonormal(b)
    pa = qa @ qa.T
    pb = qb @ qb.T
    return float(np.linalg.norm(pa - pb, 2))


@dataclass
class ChartPoint:
    """A Lagrangian plane written as the graph of a symmetric matrix.

    Attributes
    ----------
    s : (n, n) symmetric array
        Chart matrix: the plane is ``{x + delta-component S x}`` over the
        reference plane.
    delta : (2n, n) array
        Plane at infinity of the chart (canonical frame).
    pi_ref : (2n, n) array
        Reference plane of the chart (canonical frame).
    """

    s: np.ndarray
    delta: np.ndarray
    pi_ref: np.ndarray

    def __post_init__(self) -> None:
        self.s = np.asarray(self.s, dtype=float)
        asym = float(np.max(np.abs(self.s - self.s.T))) if self.s.size else 0.0
        if asym > 1e-10 * max(1.0, float(np.max(np.abs(self.s)))):
            raise ChartError("chart matrix is not symmetric to tolerance")


def _chart_basis(delta: np.ndarray, pi_ref: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical frames (P, D) with sigma(P_i, D_j) = delta_ij, and M = [P | D]."""
    p = canonicalize(validate_lagrangian(pi_ref))
    d0 = canonicalize(validate_lagrangian(delta))
    w = gram(p, d0)
    sw = np.linalg.svd(w, compute_uv=False)
    if sw[0] == 0.0 or sw[-1] < 1e-12 * sw[0]:
        raise ChartError("chart planes are not transversal")
    d = d0 @ np.linalg.inv(w)
    return p, d, np.hstack([p, d])


def to_chart(
    plane: np.ndarray,
    delta: np.ndarray,
    pi_ref: np.ndarray,
    tol: float = 1e-10,
) -> ChartPoint:
    """Chart matrix of a Lagrangian plane in the chart ``(delta, pi_ref)``.

    Raises
    ------
    ChartError
        If ``plane`` is not transversal to ``delta`` (to tolerance), or the
        chart pair itself is degenerate.
    """
    plane = validate_lagrangian(plane)
    p, d, m = _chart_basis(delta, pi_ref)
    n = plane.shape[0] // 2
    y = np.linalg.solve(m, plane)
    u, v = y[:n], y[n:]
    su = np.linalg.svd(u, compute_uv=False)
    if su[0] == 0.0 or su[-1] < tol * su[0]:
        raise ChartError("plane is not transversal to the chart plane delta")
    s = v @ np.linalg.inv(u)
    s = 0.5 * (s + s.T)
    return ChartPoint(s=s, delta=canonicalize(d), pi_ref=p)


def from_chart(point: ChartPoint) -> np.ndarray:
    """Frame of the plane described by a chart point (graph of S over pi_ref)."""
    p, d, _ = _chart_basis(point.delta, point.pi_ref)
    return p + d @ np.asarray(point.s, dtype=float)


def extend_by_isotropic(plane: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The extension ``L^G = (L ∩ G^∠) + G`` of a plane by an isotropic frame.

    For a Lagrangian ``L`` the result is again Lagrangian; it equals ``L``
    exactly when ``G ⊂ L``.  Returns a canonical frame.
    """
    plane = _as_frame(plane)
    g = _as_frame(g)
    if g.shape[0] != plane.shape[0]:
        raise PreconditionError("frames live in different ambient spaces")
    if isotropy_residual(g) > TOL_ISO:
        raise PreconditionError("extension frame is not isotropic to tolerance")
    a = gram(g, plane)  # rows: sigma(g_i, l_j)
    if a.size:
        u, s, vt = np.linalg.svd(a)
        # the pairing scale is set by the frames themselves: when G nearly
        # lies inside L the whole gram matrix is round-off, and a threshold
        # relative to s[0] would promote that noise to full rank
        scale = np.linalg.norm(g, 2) * np.linalg.norm(plane, 2)
        rank = int(np.sum(s > TOL_RANK * max(scale, 1e-300)))
        inside = plane @ vt[rank:].T
    else:
        inside = plane
    stacked = np.hstack([inside, g])
    # G may already lie inside L, making the stacked frame rank deficient;
    # keep an orthonormal basis of the span before canonicalising
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = int(np.sum(s > TOL_RANK * s[0])) if s.size and s[0] > 0 else 0
    return canonicalize(u[:, :keep])


def random_lagrangian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random Lagrangian plane, uniform w.r.t. the unitary-invariant measure.

    A unitary ``U = A + iB`` gives the Lagrangian frame ``[A; B]``: column
    orthonormality of U is exactly isotropy plus orthonormality downstairs.
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.sign(np.where(np.real(np.diag(r)) == 0, 1.0, np.real(np.diag(r)))))
    return np.vstack([np.real(q), np.imag(q)])


@dataclass
class GrassmannCurve:
    """A sampled curve in the Lagrangian Grassmannian.

    Attributes
    ----------
    times : (m,) array, strictly increasing
    planes : list of (2n, n) frames, one per time
    """

    times: np.ndarray
    planes: list[np.ndarray]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.planes) != self.times.shape[0]:
            raise PreconditionError("curve needs one plane per time node")
        if self.times.shape[0] >= 2 and not np.all(np.diff(self.times) > 0):
            raise PreconditionError("curve times must be strictly increasing")
        self.planes = [np.asarray(p, dtype=float) for p in self.planes]

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def n(self) -> int:
        return self.planes[0].shape[0] // 2
