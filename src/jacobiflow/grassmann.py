"""Frames, charts and metrics on the Lagrangian Grassmannian.

A Lagrangian plane is represented by a ``(2n, n)`` frame; isotropic
subspaces of lower dimension by ``(2n, k)`` frames.  Frames are unique only
up to right multiplication by an invertible matrix; :func:`canonicalize`
picks the reduced column-echelon representative so planes can be compared
entry by entry.

The helpers a sampled curve calls at every node (:func:`validate_lagrangian`,
:func:`canonicalize`, :func:`intersection_dimension`, :func:`plane_distance`
and the chart solve ``_chart_matrix``) take either one frame or a
``(K, 2n, k)`` stack of frames, and a stack costs a fixed number of LAPACK
calls.  There is one code path: a single frame is a stack of one.  numpy's
``svd``, ``qr``, ``solve`` and ``inv`` run the same LAPACK routine on each
matrix of a stack, and the stacked Gauss-Jordan makes the same elementwise
operations, so every frame of a stack gets bit for bit what it gets alone.

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
    if f.ndim not in (2, 3):
        raise PreconditionError("frame must be a (2n, k) array or a (K, 2n, k) stack")
    dim_to_n(f.shape[-2])
    return f


def validate_lagrangian(f: np.ndarray, tol_iso: float = TOL_ISO) -> np.ndarray:
    """Check that a frame, or each frame of a stack, spans a Lagrangian plane
    (full rank, isotropic).

    A stack fails at its first bad frame, with the error that checking the
    frames one by one would raise.
    """
    f = _as_frame(f)
    n = f.shape[-2] // 2
    if f.shape[-1] != n:
        raise PreconditionError(f"Lagrangian frame must have n={n} columns, got {f.shape[-1]}")
    deficient = np.atleast_1d(frame_rank(f) < n)
    leaky = np.atleast_1d(isotropy_residual(f) > tol_iso)
    bad = deficient | leaky
    if bad.any():
        if deficient[np.argmax(bad)]:
            raise NondegeneracyError("Lagrangian frame is rank deficient")
        raise NondegeneracyError("frame is not isotropic to tolerance")
    return f


def vertical_plane(n: int) -> np.ndarray:
    """The vertical plane Pi = {q = 0}, spanned by the p-axes."""
    return np.eye(2 * n)[:, :n]


def horizontal_plane(n: int) -> np.ndarray:
    """The horizontal plane Sigma = {p = 0}, spanned by the q-axes."""
    return np.eye(2 * n)[:, n:]


def canonicalize(f: np.ndarray, tol: float = TOL_RANK) -> np.ndarray:
    """Reduced column-echelon representative of a frame, or of each frame of a stack.

    The result is the unique basis of span(f) in which each column has a
    leading coordinate equal to exactly 1, that coordinate vanishes in all
    other columns, and columns are ordered by leading coordinate.  Linearly
    dependent columns are dropped, so the output has ``rank(f)`` columns.
    In a stack, a frame of lower rank than the highest is padded with zero
    columns; a canonical column never vanishes, so the padding is plain.

    The representative is invariant under right multiplication by any
    invertible matrix and the map is idempotent.
    """
    f = _as_frame(f)
    # rows are basis vectors, columns are coordinates
    a = np.swapaxes(f, -1, -2).reshape((int(np.prod(f.shape[:-2])),) + f.shape[:-3:-1]).copy()
    count, k, dim = a.shape
    scale = np.max(np.abs(a), axis=(1, 2), initial=0.0)
    thresh = tol * scale
    rank = np.zeros(count, dtype=int)
    live = scale != 0.0
    rows = np.arange(k)
    for c in range(dim):
        free = np.flatnonzero(live & (rank < k))
        if not free.size:
            break
        # the largest entry of column c among each frame's unreduced rows
        col = np.where(rows >= rank[:, None], np.abs(a[:, :, c]), -np.inf)
        below = np.argmax(col, axis=1)
        take = free[~(col[free, below[free]] <= thresh[free])]
        r, i = rank[take], below[take]
        a[take, r], a[take, i] = a[take, i], a[take, r]
        block = a[take]
        pivot = block[np.arange(take.size), r]
        pivot /= pivot[:, c, None]
        pivot[:, c] = 1.0
        block[np.arange(take.size), r] = pivot
        # rows with a zero in column c keep every bit, signed zeros included
        lead = block[:, :, c, None]
        reduced = block - lead * pivot[:, None, :]
        reduced[:, :, c] = 0.0
        hit = (lead != 0.0) & (rows != r[:, None])[:, :, None]
        a[take] = np.where(hit, reduced, block)
        rank[take] += 1
    width = int(rank.max(initial=0))
    out = a[:, :width]
    out[rows[:width] >= rank[:, None]] = 0.0
    return np.ascontiguousarray(np.swapaxes(out, 1, 2)).reshape(f.shape[:-2] + (dim, width))


def intersection_dimension(a: np.ndarray, b: np.ndarray, tol: float = TOL_RANK):
    """dim(span(a) ∩ span(b)) via rank arithmetic on stacked frames.

    ``a`` may be a stack of frames; then the result has one dimension per
    frame, and the rank of ``b`` is taken once.
    """
    a = _as_frame(a)
    b = _as_frame(b)
    if a.shape[-2] != b.shape[-2]:
        raise PreconditionError("frames live in different ambient spaces")
    both = np.concatenate([a, np.broadcast_to(b, a.shape[:-1] + b.shape[-1:])], axis=-1)
    return frame_rank(a, tol) + frame_rank(b, tol) - frame_rank(both, tol)


def _orthonormal(f: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning ``f`` (or each frame of a stack); the
    columns of dependent directions are zero."""
    q, r = np.linalg.qr(f)
    scale = np.maximum(1.0, np.max(np.abs(r), axis=(-2, -1), keepdims=True))
    keep = np.abs(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :] > TOL_RANK * scale
    return q * keep


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


def plane_distance(a: np.ndarray, b: np.ndarray):
    """Gap distance between subspaces: spectral norm of the projector difference.

    A float for two frames, an array of the pairwise distances for stacks.
    """
    qa = _orthonormal(_as_frame(a))
    qb = _orthonormal(_as_frame(b))
    gap = np.linalg.norm(qa @ np.swapaxes(qa, -1, -2) - qb @ np.swapaxes(qb, -1, -2), 2,
                         axis=(-2, -1))
    return float(gap) if gap.ndim == 0 else gap


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
    s = _chart_matrix(plane, m, tol)
    if np.isnan(s).all():
        raise ChartError("plane is not transversal to the chart plane delta")
    return ChartPoint(s=s, delta=canonicalize(d), pi_ref=p)


def _chart_matrix(planes: np.ndarray, m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric chart matrices of a validated plane, or a stack of them, over
    the basis ``m`` of :func:`_chart_basis`; the solving step of :func:`to_chart`.

    A plane not transversal to the chart plane delta gets a matrix of NaN.
    Each frame is first scaled by the power of two that brings its largest
    entry into [0.5, 1), so that a frame of tiny entries cannot overflow the
    inverse.  The scaling is exact, so elsewhere the result is unchanged.
    """
    n = planes.shape[-2] // 2
    top = np.frexp(np.max(np.abs(planes), axis=(-2, -1), keepdims=True))[1]
    y = np.linalg.solve(m, np.ldexp(planes, -top))
    u, v = y[..., :n, :], y[..., n:, :]
    su = np.linalg.svd(u, compute_uv=False)
    off = ((su[..., 0] == 0.0) | (su[..., -1] < tol * su[..., 0]))[..., None, None]
    s = v @ np.linalg.inv(np.where(off, np.eye(n), u))
    return np.where(off, np.nan, 0.5 * (s + np.swapaxes(s, -1, -2)))


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
        if len({p.shape for p in self.planes}) > 1:
            raise PreconditionError("curve planes must share one shape")

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def n(self) -> int:
        return self.planes[0].shape[0] // 2
