"""Jacobi curves of singular extremals.

The raw data is a pair ``(b, X)`` on an interval: a scalar weight ``b(tau)``
and a curve of vectors ``X(tau)`` in R^(2n), both piecewise polynomial
(:class:`PiecewiseAnalytic`).  Out of it the module builds

* the sequence ``b^0 = b``, ``b^i = sigma(X^(i), X^(i-1))`` whose first
  nonvanishing entry is the order of the problem (:func:`legendre_sequence`;
  each entry is compiled once per piece, on first use, and kept on the data),
* the nested spans of derivatives ``Gamma^i = span{X^(j) : j <= i}``
  (:func:`goh_subspace`),
* the curve of Lagrangian planes solving the order-m Jacobi equation
  (:func:`singular_jacobi_curve`), its degenerate constant variant
  (:func:`infinite_order_curve`) and the purely combinatorial bang-bang
  recursion (:func:`bang_bang_sequence`).

Products and derivatives of polynomial data are exact coefficient
arithmetic in :mod:`jacobiflow.series`; quadrature is never used.  The
Jacobi equation is marched once per interval of regularity (each piece of
the data inside the interval): breakpoints start a new march, and grid
nodes are step ends of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    NondegeneracyError,
    PoleError,
    PreconditionError,
    RankDriftError,
    UndecidedError,
)
from .flows import _integrate
from .grassmann import (
    GrassmannCurve,
    _extend,
    _insert,
    _meet,
    canonicalize,
    validate_lagrangian,
)
from .series import meval, sder, strim, vsigma
from .symplectic import TOL_ISO, apply_j, dim_to_n, gram, isotropy_residual

__all__ = [
    "PiecewiseAnalytic",
    "LegendreSequence",
    "JumpEvent",
    "JacobiTrace",
    "legendre_sequence",
    "goh_subspace",
    "singular_jacobi_curve",
    "infinite_order_curve",
    "bang_bang_sequence",
]

#: hard cap on polynomial degrees accepted from scenario data
D_MAX = 64
#: hard cap on the grid nodes of a scenario, far above any grid in use
STEPS_MAX = 10**6


@dataclass
class PiecewiseAnalytic:
    """Piecewise polynomial data ``(b, X)`` on a breakpoint grid.

    Attributes
    ----------
    breakpoints : (npieces + 1,) strictly increasing array
    b_pieces : list of 1-D coefficient arrays, lowest order first
    x_pieces : list of (2n, d+1) coefficient arrays, one row per component

    :meth:`x` compiles the coefficient stack of each piece and derivative
    order on first use, and the entries ``b^i`` of the Legendre sequence are
    compiled the same way from those stacks; both are evaluated with
    :func:`~jacobiflow.series.meval`, so an integrator calling them per stage
    never differentiates or multiplies a polynomial again.
    """

    breakpoints: np.ndarray
    b_pieces: list[np.ndarray]
    x_pieces: list[np.ndarray]
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _entries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        if self.breakpoints.ndim != 1 or self.breakpoints.size < 2:
            raise PreconditionError("need at least two breakpoints")
        if not np.all(np.diff(self.breakpoints) > 0):
            raise PreconditionError("breakpoints must be strictly increasing")
        np_pieces = self.breakpoints.size - 1
        if len(self.b_pieces) != np_pieces or len(self.x_pieces) != np_pieces:
            raise PreconditionError("need one (b, X) pair per interval")
        self.b_pieces = [np.atleast_1d(np.asarray(c, dtype=float)) for c in self.b_pieces]
        self.x_pieces = [np.atleast_2d(np.asarray(c, dtype=float)) for c in self.x_pieces]
        dim = self.x_pieces[0].shape[0]
        dim_to_n(dim)
        for c in self.b_pieces:
            if c.size > D_MAX + 1:
                raise PreconditionError(f"b degree exceeds the cap {D_MAX}")
        for c in self.x_pieces:
            if c.shape[0] != dim:
                raise PreconditionError("inconsistent ambient dimension across pieces")
            if c.shape[1] > D_MAX + 1:
                raise PreconditionError(f"X degree exceeds the cap {D_MAX}")

    @property
    def dim(self) -> int:
        return self.x_pieces[0].shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2

    @property
    def npieces(self) -> int:
        return len(self.b_pieces)

    def piece_index(self, t):
        """Index of the piece containing t; a breakpoint belongs to the piece
        on its right, the last one to the last piece.

        A 1-D array of times gives the array of their indices.
        """
        bp = self.breakpoints
        ts = np.asarray(t)
        outside = (ts < bp[0]) | (ts > bp[-1])
        if np.any(outside):
            bad = t if ts.ndim == 0 else ts[np.argmax(outside)]
            raise PreconditionError(f"t = {bad} outside [{bp[0]}, {bp[-1]}]")
        i = np.minimum(np.searchsorted(bp, t, side="right") - 1, self.npieces - 1)
        return int(i) if ts.ndim == 0 else i

    def _stack(self, piece: int, deriv: int) -> np.ndarray:
        """Trimmed coefficient stack of the deriv-th derivative of ``X``."""
        stack = self._stacks.get((piece, deriv))
        if stack is None:
            stack = (strim(self.x_pieces[piece].T) if deriv == 0
                     else sder(self._stack(piece, deriv - 1)))
            self._stacks[piece, deriv] = stack
        return stack

    def _entry(self, piece: int, i: int) -> np.ndarray:
        """Coefficients of ``b^i`` on a piece: ``b`` for i = 0, otherwise the
        full-length product ``sigma(X^(i), X^(i-1))``."""
        if i == 0:
            return self.b_pieces[piece]
        entry = self._entries.get((piece, i))
        if entry is None:
            u, v = self._stack(piece, i), self._stack(piece, i - 1)
            entry = self._entries[piece, i] = vsigma(u, v, u.shape[0] + v.shape[0] - 1)
        return entry

    def _piecewise(self, stack, t) -> np.ndarray:
        """Value at ``t`` of the polynomial with coefficient stack ``stack(p)``
        on each piece p; a 1-D array of K times gives the K values stacked,
        each equal bit for bit to the call at that time alone."""
        pieces = np.atleast_1d(self.piece_index(t))
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        parts = [(pieces == p, stack(p)) for p in np.unique(pieces).tolist()]
        out = np.empty((ts.size,) + parts[0][1].shape[1:])
        for at, coeffs in parts:
            out[at] = meval(coeffs, ts[at])
        return out if np.ndim(t) else out[0]

    def x(self, t, deriv: int = 0) -> np.ndarray:
        """X^(deriv) at ``t``; a 1-D array of K times gives the ``(K, 2n)`` values."""
        return self._piecewise(lambda p: self._stack(p, deriv), t)


def _window_pieces(data: PiecewiseAnalytic, interval: tuple[float, float]) -> list:
    """``(piece, lo, hi)`` for each piece meeting the window, ``[lo, hi]`` its part of it."""
    t0, t1 = interval
    bp = data.breakpoints.tolist()
    return [(p, max(t0, a), min(t1, b)) for p, (a, b) in enumerate(zip(bp[:-1], bp[1:]))
            if b > t0 and a < t1]


@dataclass
class LegendreSequence:
    """The order of ``data`` on a window: its first entry b^i that does not vanish.

    The entries ``b^0 = b``, ``b^i = sigma(X^(i), X^(i-1))`` live on the
    data, each compiled once per piece on first use, so the search forms no
    product past the order.  ``first_nonzero`` is the smallest i with
    ``b^i`` not identically zero on some piece of the window, or ``None``
    when every entry vanishes up to ``imax = min(2n + 2, D_MAX - 1)``
    ("infinite up to imax").
    """

    data: PiecewiseAnalytic
    first_nonzero: int | None
    imax: int
    interval: tuple[float, float]


def legendre_sequence(data: PiecewiseAnalytic, interval: tuple[float, float]) -> LegendreSequence:
    """Search b^0 = b, b^1, .. for the first entry not identically zero on the window.

    The scale of the "identically zero" test is the largest coefficient
    magnitude of the data on the pieces of the window (squared for the
    sigma products, which scale quadratically).  A test whose scale or
    entry overflows decides nothing and raises :class:`PreconditionError`.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    if not t0 < t1:
        raise PreconditionError("interval must be nondegenerate")
    pieces = [p for p, _, _ in _window_pieces(data, (t0, t1))]
    scale = np.float64(max([float(np.max(np.abs(c[p]))) for c in (data.x_pieces, data.b_pieces)
                            for p in pieces] + [1.0]))
    imax = min(2 * data.n + 2, D_MAX - 1)
    first = None
    for i in range(imax + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = scale if i == 0 else scale * scale
            tops = [np.max(np.abs(data._entry(p, i))) for p in pieces]
        if not (np.isfinite(ref) and np.all(np.isfinite(tops))):
            raise PreconditionError(f"b^{i} overflows: the coefficients of the data "
                                    f"(largest {scale:.3g}) are too large to decide the order")
        if any(top > 1e-12 * ref for top in tops):
            first = i
            break
    return LegendreSequence(data=data, first_nonzero=first, imax=imax, interval=(t0, t1))


def goh_subspace(data: PiecewiseAnalytic, tau, i: int) -> np.ndarray:
    """Canonical frame of ``Gamma^i(tau) = span{X^(j)(tau) : 0 <= j <= i}``.

    A 1-D array of times gives the stack of frames (see :func:`canonicalize`
    for frames of lower rank).
    """
    if i < 0:
        return np.zeros(np.shape(tau) + (data.dim, 0))
    cols = np.stack([data.x(tau, deriv=j) for j in range(i + 1)], axis=-1)
    return canonicalize(cols)


def _widths(frames: np.ndarray) -> np.ndarray:
    """Rank of each canonical frame of a stack: its count of nonzero columns."""
    return np.count_nonzero(np.any(frames != 0.0, axis=-2), axis=-1)


def _checked(planes: np.ndarray, times, drifts=False) -> np.ndarray:
    """Isotropy residuals of a canonical stack made here.  Its earliest bad node refuses it:
    first where the Goh span drifts (``drifts``), then width below n, then residual > TOL_ISO."""
    residuals = isotropy_residual(planes)
    deficient = _widths(planes) != planes.shape[-2] // 2
    bad = drifts | deficient | (residuals > TOL_ISO)
    if np.any(bad):
        k = int(np.argmax(bad))
        if np.ndim(drifts) and drifts[k]:
            raise RankDriftError(f"Goh span rank drifts at t = {times[k]:.6g}")
        fault = "rank deficient" if deficient[k] else "not isotropic"
        raise NondegeneracyError(f"plane {fault} at t = {times[k]:.6g}")
    return residuals


@dataclass
class JumpEvent:
    """A discontinuity of a curve of planes.

    ``pre_plane`` is the left limit, ``post_plane`` the right limit and
    ``inserted`` the isotropic frame whose extension produced the jump.  A
    sampled curve does not store ``pre_plane`` at the event time: a bang-bang
    curve stores the post plane at a switch's node, and a degeneracy curve,
    sampled from grid.t0 > 0, has no node at the event time.
    """

    time: float
    pre_plane: np.ndarray
    post_plane: np.ndarray
    inserted: np.ndarray


@dataclass
class JacobiTrace:
    """A sampled curve of Lagrangian planes plus the diagnostics of its march."""

    curve: GrassmannCurve
    diagnostics: dict = field(default_factory=dict)


def _order_and_check_sign(seq: LegendreSequence) -> int:
    m = seq.first_nonzero
    if m is None:
        raise UndecidedError(
            f"all sequence entries vanish up to order {seq.imax}: order undecided"
        )
    # sign condition: b^m strictly negative on the closed window, with each
    # piece's own polynomial up to its ends, as the march uses it.  A maximum
    # lies at an end or where the derivative vanishes; the real parts of its
    # roots cover those, and points to spare cannot refuse a negative b^m
    for p, lo, hi in _window_pieces(seq.data, seq.interval):
        c = seq.data._entry(p, m)
        crit = np.roots(sder(c)[::-1]).real if np.all(np.isfinite(c)) else []
        ts = np.sort(np.clip(np.concatenate([[lo, hi], crit]), lo, hi))
        vals = meval(c, ts)
        bad = ~(vals < -1e-12 * max(1.0, float(np.max(np.abs(c)))))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise PreconditionError(f"b^{m} = {vals[k]:.3g} at t = {ts[k]:.6g}: it does not "
                                    "stay strictly negative on the interval")
    return m


def _jacobi_system(data: PiecewiseAnalytic, piece: int, m: int, to: np.ndarray | None = None):
    """The order-m Jacobi equation of a piece as the rank-one system u w^T of
    :func:`~jacobiflow.flows._integrate`: mu' = X^(m) sigma(X^(m), mu) / b^m and
    sigma(X^(m), mu) = (-J X^(m)) . mu, so u = X^(m) and w = -J X^(m) / b^m, with
    the piece's own polynomials at any time, also past its ends.

    With ``to``, a constant symplectic matrix T, it is the equation of T X:
    T keeps sigma, so its flow is T Phi T^-1, the flow of the data in the
    coordinates mu -> T mu."""
    xs, bs = data._stack(piece, m), data._entry(piece, m)
    if to is not None:
        xs = xs @ to.T

    def system(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xm = meval(xs, t)
        return xm, -apply_j(xm, axis=1) / meval(bs, t)[:, None]
    return system


def singular_jacobi_curve(data: PiecewiseAnalytic, l_init: np.ndarray,
                          grid: Sequence[float], *, rtol: float = 1e-12) -> JacobiTrace:
    """Curve of Lagrangian planes of an order-m problem along the grid's interval.

    The order m is the first nonvanishing entry of the sequence; ``b^m``
    must stay strictly negative.  Solutions of

        mu' = sigma(X^(m), mu) / b^m * X^(m)

    are propagated from the (n - m)-dimensional boundary space
    ``l_init ∩ Gamma^(m-1)(t0)^∠`` and the plane at each node is
    ``span(Gamma^(m-1)(t), solutions)``.  For m = 0 the boundary space is
    all of ``l_init``; for m >= 1 it is the meet of the QR frame of
    ``l_init`` with the columns of ``Gamma^(m-1)(t0)`` in turn
    (:func:`~jacobiflow.grassmann._meet`), each lowering its dimension by one
    where it pairs with it by the rule of every jump, whatever the frame of
    ``l_init``.  Each piece inside the interval is one march at relative
    tolerance ``rtol``.

    The pairings ``sigma(mu, X^(i))``, i < m, vanish identically along
    solutions; their drift is monitored and stored in the diagnostics.  A
    plane rank deficient or not isotropic at a node raises NondegeneracyError.
    """
    return _jacobi_curve(data, validate_lagrangian(np.asarray(l_init, dtype=float)), grid, rtol)


def _jacobi_curve(data, l_init, grid, rtol, seq=None) -> JacobiTrace:
    """:func:`singular_jacobi_curve` on an ``l_init`` it trusts to be Lagrangian, as the
    CLI parsed it or a stack check passed it; ``seq``, when given, is the sequence of
    the grid's window."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.diff(grid) > 0):
        raise PreconditionError("grid must increase strictly")
    t0, t1 = float(grid[0]), float(grid[-1])
    n = data.n
    m = _order_and_check_sign(seq or legendre_sequence(data, (t0, t1)))
    if m > n:
        raise NondegeneracyError(f"order {m} exceeds n = {n}; no isotropic Goh span")

    # boundary space, from the Goh span at t0: the first frame of the grid's stack
    goh = goh_subspace(data, grid, m - 1)
    drifts = _widths(goh) != m
    if m == 0:
        mu0 = l_init.copy()
    else:
        if drifts[0]:
            raise RankDriftError("Goh span has deficient rank at the interval start")
        if isotropy_residual(goh[0]) > TOL_ISO:
            raise PreconditionError("Goh span is not isotropic: order condition violated")
        mu0 = np.linalg.qr(l_init)[0]
        for x in goh[0].T:
            mu0 = _meet(mu0, x)
        if mu0.shape[1] != n - m:
            raise NondegeneracyError(
                f"boundary space has dimension {mu0.shape[1]}, expected {n - m}"
            )

    frames = np.empty((grid.size,) + mu0.shape)
    frames[0] = cur = mu0
    for p, a_, b_ in _window_pieces(data, (t0, t1)):
        if not mu0.shape[1]:  # m = n: the plane is the Goh span alone
            break

        inside = (grid > a_) & (grid <= b_)
        try:
            marched = _integrate(_jacobi_system(data, p, m), cur,
                                 np.union1d([a_, b_], grid[inside]), rtol)
        except PoleError as exc:
            # b^m < 0 on the closed piece bounds the system there: only
            # coefficients that overflow can stall the march
            raise PreconditionError(
                f"the coefficients overflow near t = {exc.t:.6g}: no step is accurate there"
            ) from exc
        frames[inside] = marched[1 : 1 + np.count_nonzero(inside)]
        cur = marched[-1]

    # every node at once: the plane is span(Gamma^(m-1)(t), mu(t)), for m = n the Goh span
    planes = canonicalize(np.concatenate([goh, frames], axis=-1)) if mu0.shape[1] else goh
    residuals = _checked(planes, grid, drifts)
    drift = 0.0
    for i in range(m if mu0.shape[1] else 0):
        xi = data.x(grid, deriv=i)[:, :, None]
        # |X^(i)| as np.linalg.norm takes it: the square root of one dot product
        norm = np.sqrt(np.swapaxes(xi, 1, 2) @ xi)[:, 0, 0]
        pair = np.abs(gram(xi, frames)).max(axis=(1, 2)) / np.maximum(1.0, norm)
        drift = max(drift, float(pair.max()))

    diag = {"order": m, "conservation_drift": drift, "lagrangian_residual": float(residuals.max())}
    return JacobiTrace(curve=GrassmannCurve(times=grid, planes=planes), diagnostics=diag)


def infinite_order_curve(data: PiecewiseAnalytic, l_init: np.ndarray,
                         grid: Sequence[float]) -> JacobiTrace:
    """Constant curve of the totally degenerate case (all b^i vanish), sampled
    at every node of ``grid``; an interval ``(t0, t1)`` is a grid of two nodes.

    The plane is the extension of ``l_init`` by the right-limit span of all
    derivatives of X at the first node, computed from the Taylor
    coefficients (so isolated rank drops of ``Gamma(t)`` cannot corrupt it).
    """
    l_init = validate_lagrangian(np.asarray(l_init, dtype=float))
    times = np.asarray(grid, dtype=float)
    seq = legendre_sequence(data, (float(times[0]), float(times[-1])))
    if seq.first_nonzero is not None:
        raise PreconditionError(
            f"sequence entry b^{seq.first_nonzero} is nonzero: not an infinite-order arc"
        )
    return _infinite_curve(data, l_init, times)


def _infinite_curve(data, l_init, times) -> JacobiTrace:
    """:func:`infinite_order_curve` on a Lagrangian ``l_init`` and a window whose
    sequence vanishes, both trusted.  The derivative span's isotropy is tested
    here, once, so :func:`~jacobiflow.grassmann._extend` takes it as it is."""
    t0, t1 = float(times[0]), float(times[-1])
    p = data.piece_index(t0)
    if data.breakpoints[p + 1] < t1:
        raise PreconditionError("infinite-order arc must not cross breakpoints")
    # span of Taylor coefficients of X at t0 = right limit of the derivative span
    gamma = goh_subspace(data, t0, data.x_pieces[p].shape[1] - 1)
    if isotropy_residual(gamma) > TOL_ISO:
        raise PreconditionError("derivative span is not isotropic")
    plane = _extend(l_init, gamma)[None]
    _checked(plane, times)
    return JacobiTrace(GrassmannCurve(times, np.repeat(plane, times.size, axis=0)), {"order": None})


def bang_bang_sequence(l0: np.ndarray, x_list: Sequence[np.ndarray]) -> np.ndarray:
    """Planes of the bang-bang recursion ``L_{i+1} = L_i ^ {X_i} = (L_i ∩ X_i^∠) + X_i``.

    Returns the ``(len(x_list) + 1, 2n, n)`` stack ``L_0, L_1, ..`` of
    canonical frames.  Pure linear algebra, no integration.

    Each switch is one rank-one update (:func:`~jacobiflow.grassmann._insert`)
    of an orthonormal frame of the plane; an X_i that does not pair with the
    plane lies in it, or vanishes, and leaves the frame as it is.  Each X_i
    is first scaled, exactly, by the power of two that brings its largest
    entry into [0.5, 1), so that its norms neither overflow nor underflow.
    The frames are canonicalised once, as one stack; a switch whose plane is
    rank deficient or not isotropic raises :class:`NondegeneracyError`.
    """
    return _bang_bang(validate_lagrangian(np.asarray(l0, dtype=float)), x_list)


def _bang_bang(l0, x_list) -> np.ndarray:
    """:func:`bang_bang_sequence` from an ``l0`` it trusts to be Lagrangian (the CLI parsed it)."""
    q = np.linalg.qr(l0)[0]
    xs = np.asarray(x_list, dtype=float).reshape(-1, q.shape[0])
    xs = np.ldexp(xs, -np.frexp(np.max(np.abs(xs), axis=1, initial=0.0))[1][:, None])
    frames = [q]
    for x in xs:
        q = _insert(q, x)
        frames.append(q)
    planes = canonicalize(np.stack(frames))
    _checked(planes, np.arange(len(planes)))
    return planes
