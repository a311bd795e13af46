"""Frames, charts and metrics on the Lagrangian Grassmannian.

A Lagrangian plane is represented by a ``(2n, n)`` frame; isotropic
subspaces of lower dimension by ``(2n, k)`` frames.  Frames are unique only
up to right multiplication by an invertible matrix; :func:`canonicalize`
picks the reduced column-echelon representative so planes can be compared
entry by entry.

The helpers a sampled curve calls at every node (:func:`canonicalize`,
:func:`intersection_dimension`, :func:`plane_distance`, the chart solve
``_chart_matrix``) and :func:`validate_lagrangian`, the check of planes from
outside, take one frame or a ``(K, 2n, k)`` stack of frames, and a stack
costs a fixed number of LAPACK calls.  There is one code path: a single
frame is a stack of one.  numpy's ``svd``, ``qr``, ``solve`` and ``inv`` run
the same LAPACK routine on each matrix of a stack, and the stacked
Gauss-Jordan makes the same elementwise operations, so every frame of a
stack gets bit for bit what it gets alone.

A chart is an ordered pair ``(delta, pi_ref)`` of transversal Lagrangian
planes.  Every plane transversal to ``delta`` is the graph of a symmetric
matrix over ``pi_ref``, which :func:`to_chart` computes from a frame.  The
one chart over a reference plane Pi that the Maslov pass and the first-jet
case selection read is ``_pi_chart(Pi)``.

Every jump of a curve extends its plane by one vector at a time, ``L^x =
(L ∩ x^∠) + x``, by the rank-one update ``_insert`` of an orthonormal frame
q of L; x pairs with L where ``|sigma(x, q)| > TOL_RANK |x|``.  Its first
half, ``_meet``, gives the boundary space ``L ∩ Gamma^∠`` of an order-m curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartError, NondegeneracyError, PreconditionError
from .symplectic import TOL_ISO, TOL_RANK, apply_j, dim_to_n, gram, isotropy_residual

__all__ = [
    "GrassmannCurve",
    "canonicalize",
    "intersection_dimension",
    "transversality_margin",
    "to_chart",
    "extend_by_isotropic",
    "plane_distance",
    "vertical_plane",
    "horizontal_plane",
]


def _as_frame(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.ndim not in (2, 3):
        raise PreconditionError("frame must be a (2n, k) array or a (K, 2n, k) stack")
    dim_to_n(f.shape[-2])
    return f


def validate_lagrangian(f: np.ndarray) -> np.ndarray:
    """Check that a frame, or each frame of a stack, spans a Lagrangian plane
    (full rank, isotropic).

    A stack fails at its first bad frame, with the error that checking the
    frames one by one would raise.
    """
    f = _as_frame(f)
    n = f.shape[-2] // 2
    if f.shape[-1] != n:
        raise PreconditionError(f"Lagrangian frame must have n={n} columns, got {f.shape[-1]}")
    deficient = np.atleast_1d(np.linalg.matrix_rank(f, rtol=TOL_RANK) < n)
    leaky = np.atleast_1d(isotropy_residual(f) > TOL_ISO)
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


def canonicalize(f: np.ndarray) -> np.ndarray:
    """Reduced column-echelon representative of a frame, or of each frame of a stack.

    The result is the unique basis of span(f) in which each column has a
    leading coordinate equal to exactly 1, that coordinate vanishes in all
    other columns, and columns are ordered by leading coordinate.  Linearly
    dependent columns are dropped, so the output has ``rank(f)`` columns.
    In a stack, a frame of lower rank than the highest is padded with zero
    columns; a canonical column never vanishes, so the padding is plain.

    The representative is invariant under right multiplication by any
    invertible matrix and the map is idempotent: a frame already in this
    form comes back bit for bit, without the rank tolerance judging it again
    (elimination can leave a leading 1 below the tolerance of the largest
    entry, which a second pass would drop).
    """
    f = _as_frame(f)
    # rows are basis vectors, columns are coordinates
    a = np.swapaxes(f, -1, -2).reshape((int(np.prod(f.shape[:-2])),) + f.shape[:-3:-1]).copy()
    count, k, dim = a.shape
    scale = np.max(np.abs(a), axis=(1, 2), initial=0.0)
    thresh = TOL_RANK * scale
    done, rank = _echelon_rank(a)
    live = (scale != 0.0) & ~done
    rows = np.arange(k)
    for c in range(dim):
        free = np.flatnonzero(live & (rank < k))
        if not free.size:
            break
        # the largest entry of column c among each frame's unreduced rows
        col = np.where(rows >= rank[:, None], np.abs(a[:, :, c]), -np.inf)
        below = np.argmax(col, axis=1)
        small = col[free, below[free]] <= thresh[free]
        # coordinate c is negligible in every unreduced row of these frames:
        # clear it, so each row that pivots later leads with exact zeros
        skip = free[small]
        if skip.size:
            tail = a[skip, :, c]
            tail[(rows >= rank[skip, None]) & (tail != 0.0)] = 0.0
            a[skip, :, c] = tail
        take = free[~small]
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


def _echelon_rank(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which (k, dim) row stacks of ``a`` are finite and in reduced echelon form
    (nonzero rows first, each with a leading 1 at a coordinate that increases
    down the rows and vanishes in every other row), and each one's count of
    nonzero rows; the count is 0 where the form does not hold."""
    if not (a == 1.0).any():  # no leading 1: at most zero frames, of rank 0 anyway
        return np.zeros(len(a), dtype=bool), np.zeros(len(a), dtype=int)
    nonzero = a != 0.0
    used = nonzero.any(axis=2)
    lead = np.argmax(nonzero, axis=2)
    # at[q, j, i] is row j's entry at the leading coordinate of row i
    at = np.take_along_axis(a, np.broadcast_to(lead[:, None, :], a.shape[:2] + a.shape[1:2]), axis=2)
    key = np.where(used, lead, a.shape[2])  # a zero row sorts last
    done = (
        np.isfinite(a).all(axis=(1, 2))
        & ((at == np.eye(a.shape[1])) | ~used[:, None, :]).all(axis=(1, 2))
        & ((key[:, 1:] > key[:, :-1]) | ~used[:, 1:]).all(axis=1)
    )
    return done, np.where(done, used.sum(axis=1), 0)


def intersection_dimension(a: np.ndarray, b: np.ndarray):
    """dim(span(a) ∩ span(b)) via rank arithmetic on stacked frames.

    ``a`` may be a stack of frames; then the result has one dimension per
    frame, and the rank of ``b`` is taken once.
    """
    a = _as_frame(a)
    b = _as_frame(b)
    if a.shape[-2] != b.shape[-2]:
        raise PreconditionError("frames live in different ambient spaces")
    both = np.concatenate([a, np.broadcast_to(b, a.shape[:-1] + b.shape[-1:])], axis=-1)
    return (np.linalg.matrix_rank(a, rtol=TOL_RANK) + np.linalg.matrix_rank(b, rtol=TOL_RANK)
            - np.linalg.matrix_rank(both, rtol=TOL_RANK))


def _orthonormal(f: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning ``f`` (or each frame of a stack): its left
    singular vectors, with those whose singular values are at most
    ``TOL_RANK`` times the largest zeroed.  This is the rank rule of
    ``np.linalg.matrix_rank(f, rtol=TOL_RANK)``, so it does not depend on the
    frame's scale or on the order of its columns."""
    u, s, _ = np.linalg.svd(f, full_matrices=False)
    return u * (s > TOL_RANK * s[..., :1])[..., None, :]


def transversality_margin(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest principal angle between two subspaces, in radians.

    Zero iff the subspaces intersect nontrivially; pi/2 for orthogonal
    complements.  With ``qa`` a basis of the larger subspace and ``qb`` one
    of the other, the angle is ``atan2(s, c)`` of its sine ``s``, the
    smallest singular value of ``qb - qa qa^T qb``, and its cosine ``c``, the
    largest of ``qa^T qb``, so it keeps its digits near 0, where an
    ``arccos`` of the cosine loses half of them.
    """
    qa, qb = sorted((_basis(_as_frame(a)), _basis(_as_frame(b))), key=lambda q: -q.shape[1])
    if qb.shape[1] == 0:
        return float(np.pi / 2)
    proj = qa.T @ qb
    c = np.linalg.svd(proj, compute_uv=False)[0]
    s = np.linalg.svd(qb - qa @ proj, compute_uv=False)[-1]
    return float(np.arctan2(s, c))


def plane_distance(a: np.ndarray, b: np.ndarray):
    """Gap distance between subspaces: spectral norm of the projector difference.

    A float for two frames, an array of the pairwise distances for stacks.
    """
    qa = _orthonormal(_as_frame(a))
    qb = _orthonormal(_as_frame(b))
    gap = np.linalg.norm(qa @ np.swapaxes(qa, -1, -2) - qb @ np.swapaxes(qb, -1, -2), 2,
                         axis=(-2, -1))
    return float(gap) if gap.ndim == 0 else gap


def _chart_basis(delta: np.ndarray, pi_ref: np.ndarray) -> np.ndarray:
    """The basis M = [P | D] of a chart: canonical frames P of ``pi_ref`` and
    D of ``delta`` with sigma(P_i, D_j) = delta_ij."""
    p = canonicalize(validate_lagrangian(pi_ref))
    d0 = canonicalize(validate_lagrangian(delta))
    w = gram(p, d0)
    sw = np.linalg.svd(w, compute_uv=False)
    if sw[0] == 0.0 or sw[-1] < 1e-12 * sw[0]:
        raise ChartError("chart planes are not transversal")
    return np.hstack([p, d0 @ np.linalg.inv(w)])


def to_chart(plane: np.ndarray, delta: np.ndarray, pi_ref: np.ndarray) -> np.ndarray:
    """Symmetric chart matrix S of a Lagrangian plane in the chart
    ``(delta, pi_ref)``: the plane is ``{x + delta-component S x}`` over
    ``pi_ref``.

    Raises
    ------
    ChartError
        If ``plane`` is not transversal to ``delta`` (to tolerance), or the
        chart pair itself is degenerate.
    """
    s = _chart_matrix(validate_lagrangian(plane), _chart_basis(delta, pi_ref))
    if np.isnan(s).all():
        raise ChartError("plane is not transversal to the chart plane delta")
    return s


def _pi_chart(pi: np.ndarray) -> np.ndarray:
    """Basis ``[[A, -B], [B, A]]`` of the orthogonal symplectic chart adapted to
    ``pi``: ``[A; B]`` is its QR frame with a nonnegative R diagonal.  The
    zeros are all +0.0, so for ``vertical_plane(n)`` it is the identity, the
    :func:`_chart_basis` of the chart (Sigma, Pi)."""
    n = pi.shape[0] // 2
    q, r = np.linalg.qr(pi)
    q = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    m = np.empty((2 * n, 2 * n))
    m[:n, :n] = m[n:, n:] = q[:n]
    m[n:, :n], m[:n, n:] = q[n:], -q[n:]
    return m + 0.0


def _chart_matrix(planes: np.ndarray, m: np.ndarray) -> np.ndarray:
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
    off = ((su[..., 0] == 0.0) | (su[..., -1] < 1e-10 * su[..., 0]))[..., None, None]
    s = v @ np.linalg.inv(np.where(off, np.eye(n), u))
    return np.where(off, np.nan, 0.5 * (s + np.swapaxes(s, -1, -2)))


def _meet(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """An orthonormal frame of ``span(q) ∩ x^∠``, for an orthonormal frame q.

    x pairs with span(q) where the pairing row p = sigma(x, q) has
    ``|p| > TOL_RANK |x|``.  Where it does not, the meet is all of span(q),
    and q comes back as it is.  Where it does, a Householder reflector H with
    p H on the last coordinate makes the first k - 1 columns of q H the meet.
    """
    p = x @ apply_j(q)  # sigma(x, q_j)
    norm = float(np.linalg.norm(p))
    if not norm > TOL_RANK * float(np.linalg.norm(x)):
        return q
    v = p.copy()
    v[-1] += np.copysign(norm, p[-1])
    return (q - np.outer(q @ v, v * (2.0 / (v @ v))))[:, :-1]


def _insert(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """An orthonormal frame of the extension ``(span(q) ∩ x^∠) + x``, for an
    orthonormal frame q: the QR of the :func:`_meet` with x appended.

    An x that does not pair with span(q) is appended only when it lies
    outside it; otherwise, x = 0 included, q comes back as it is.  For a
    Lagrangian q, |sigma(x, q)| is the part of x outside span(q), so that
    never happens.
    """
    meet = _meet(q, x)
    if meet is q and not np.linalg.norm(x - q @ (q.T @ x)) > TOL_RANK * np.linalg.norm(x):
        return q
    return np.linalg.qr(np.column_stack([meet, x]))[0]


def extend_by_isotropic(plane: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The extension ``L^G = (L ∩ G^∠) + G`` of a plane by an isotropic frame.

    For a Lagrangian ``L`` the result is again Lagrangian; it equals ``L``
    exactly when ``G ⊂ L``.  Each vector of an orthonormal basis of span(G)
    is inserted (:func:`_insert`) into one of the plane in turn; G is
    isotropic, so ``(L^{g_1})^{g_2} = (L ∩ {g_1, g_2}^∠) + span{g_1, g_2}``.
    Dependent columns of either frame drop out of its basis, and columns of
    G far from orthogonal, inserted as they are, would cost digits.  Returns
    a canonical frame.
    """
    plane = _as_frame(plane)
    g = _as_frame(g)
    if g.shape[0] != plane.shape[0]:
        raise PreconditionError("frames live in different ambient spaces")
    if isotropy_residual(g) > TOL_ISO:
        raise PreconditionError("extension frame is not isotropic to tolerance")
    return _extend(plane, g)


def _extend(plane: np.ndarray, g: np.ndarray) -> np.ndarray:
    """:func:`extend_by_isotropic` of frames it trusts: one ambient space, g isotropic."""
    q = _basis(plane)
    for x in _basis(g).T:
        q = _insert(q, x)
    return canonicalize(q)


def _basis(f: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(f): the nonzero columns of :func:`_orthonormal`."""
    q = _orthonormal(f)
    return q[:, q.any(axis=0)]


@dataclass
class GrassmannCurve:
    """A sampled curve in the Lagrangian Grassmannian.

    Attributes
    ----------
    times : (K,) array, strictly increasing
    planes : (K, 2n, k) float array, the frame at each time; a list of
        frames of one shape is stacked on entry
    """

    times: np.ndarray
    planes: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.planes) != self.times.shape[0]:
            raise PreconditionError("curve needs one plane per time node")
        if self.times.shape[0] >= 2 and not np.all(np.diff(self.times) > 0):
            raise PreconditionError("curve times must be strictly increasing")
        try:
            self.planes = np.asarray(self.planes, dtype=float)
        except ValueError as exc:  # numpy refuses frames of different shapes
            raise PreconditionError("curve planes must share one shape") from exc
        if len(self.planes) and self.planes.ndim != 3:
            raise PreconditionError("curve planes must be (2n, k) frames, one per node")
