"""Jacobi curves of singular extremals.

The raw data is a pair ``(b, X)`` on an interval: a scalar weight ``b(tau)``
and a curve of vectors ``X(tau)`` in R^(2n), both piecewise polynomial
(:class:`PiecewiseAnalytic`).  Out of it the module builds

* the sequence ``b^0 = b``, ``b^i = sigma(X^(i), X^(i-1))`` whose first
  nonvanishing entry is the order of the problem (:func:`legendre_sequence`),
* the nested spans of derivatives ``Gamma^i = span{X^(j) : j <= i}``
  (:func:`goh_subspace`),
* the curve of Lagrangian planes solving the order-m Jacobi equation
  (:func:`singular_jacobi_curve`), its degenerate constant variant
  (:func:`infinite_order_curve`) and the purely combinatorial bang-bang
  recursion (:func:`bang_bang_sequence`).

Products and derivatives of polynomial data are exact coefficient
arithmetic; quadrature is never used.  The Jacobi equation is marched once
per interval of regularity (each piece of the data inside the interval):
breakpoints restart the integrator, grid nodes only sample it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    NondegeneracyError,
    PreconditionError,
    RankDriftError,
    UndecidedError,
)
from .flows import _integrate, _transport  # noqa: F401  (_integrate: for perfbench's tracer)
from .grassmann import (
    GrassmannCurve,
    canonicalize,
    extend_by_isotropic,
    validate_lagrangian,
)
from .series import meval, strim
from .symplectic import apply_j, dim_to_n, gram, isotropy_residual

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


@dataclass
class PiecewiseAnalytic:
    """Piecewise polynomial data ``(b, X)`` on a breakpoint grid.

    Attributes
    ----------
    breakpoints : (npieces + 1,) strictly increasing array
    b_pieces : list of 1-D coefficient arrays, lowest order first
    x_pieces : list of (2n, d+1) coefficient arrays, one row per component

    :meth:`b` and :meth:`x` compile the coefficient stack of each piece and
    derivative order on first use and evaluate it with
    :func:`~jacobiflow.series.meval`, so an integrator calling them per
    stage never differentiates a polynomial again.
    """

    breakpoints: np.ndarray
    b_pieces: list[np.ndarray]
    x_pieces: list[np.ndarray]
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def piece_index(self, t: float, side: str = "+") -> int:
        """Index of the piece containing t; breakpoints resolve by ``side``."""
        bp = self.breakpoints
        if t < bp[0] or t > bp[-1]:
            raise PreconditionError(f"t = {t} outside [{bp[0]}, {bp[-1]}]")
        if side == "+":
            i = int(np.searchsorted(bp, t, side="right")) - 1
            return min(i, self.npieces - 1)
        i = int(np.searchsorted(bp, t, side="left")) - 1
        return max(i, 0)

    def _stack(self, name: str, piece: int, deriv: int) -> np.ndarray:
        """Trimmed coefficient stack of the deriv-th derivative of ``b`` or ``X``."""
        key = (name, piece, deriv)
        stack = self._stacks.get(key)
        if stack is None:
            if name == "b":
                stack = npp.polyder(self.b_pieces[piece], deriv)
            else:
                stack = self.x_coeff(piece, deriv).T
            stack = self._stacks[key] = strim(stack)
        return stack

    def b(self, t: float, deriv: int = 0, side: str = "+") -> float:
        return float(meval(self._stack("b", self.piece_index(t, side), deriv), t))

    def x(self, t: float, deriv: int = 0, side: str = "+") -> np.ndarray:
        return meval(self._stack("x", self.piece_index(t, side), deriv), t)

    def x_coeff(self, piece: int, deriv: int = 0) -> np.ndarray:
        """(2n, d+1-deriv) coefficient array of the deriv-th derivative of X."""
        c = self.x_pieces[piece]
        if deriv == 0:
            return c
        if deriv >= c.shape[1]:
            return np.zeros((self.dim, 1))
        return np.vstack([npp.polyder(row, deriv) for row in c])


def _sigma_poly(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Polynomial sigma(u(t), v(t)) from component coefficient arrays."""
    n = u.shape[0] // 2
    deg = u.shape[1] + v.shape[1] - 1
    out = np.zeros(deg)
    for i in range(n):
        # polymul trims trailing zeros, so accumulate at the actual length
        prod = npp.polymul(u[i], v[n + i])
        out[: prod.size] += prod
        prod = npp.polymul(u[n + i], v[i])
        out[: prod.size] -= prod
    return out


def _poly_is_zero(c: np.ndarray, scale: float, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(c)) <= tol * max(1.0, scale))


@dataclass
class LegendreSequence:
    """The sequence b^0, b^1, .. b^imax as polynomials, piece by piece.

    ``entries[i][p]`` is the coefficient array of ``b^i`` on piece p;
    ``first_nonzero`` is the smallest i with ``b^i`` not identically zero on
    some piece, or ``None`` when the whole sequence vanishes up to ``imax``
    ("infinite up to imax").
    """

    entries: list[list[np.ndarray]]
    first_nonzero: int | None
    imax: int
    interval: tuple[float, float]

    def value(self, i: int, t: float, data: "PiecewiseAnalytic") -> float:
        p = data.piece_index(t)
        return float(meval(self.entries[i][p], t))


def legendre_sequence(data: PiecewiseAnalytic, interval: tuple[float, float],
                      imax: int) -> LegendreSequence:
    """Compute b^0 = b and b^i = sigma(X^(i), X^(i-1)) for i = 1..imax.

    All products are exact coefficient convolutions.  The scale used for the
    "identically zero" test is the largest coefficient magnitude of the data
    on the relevant pieces.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    if not t0 < t1:
        raise PreconditionError("interval must be nondegenerate")
    pieces = sorted({data.piece_index(0.5 * (max(t0, a) + min(t1, b)))
                     for a, b in zip(data.breakpoints[:-1], data.breakpoints[1:])
                     if b > t0 and a < t1})
    scale = max(
        [np.max(np.abs(data.x_pieces[p])) for p in pieces]
        + [np.max(np.abs(data.b_pieces[p])) for p in pieces]
        + [1.0]
    )
    entries: list[list[np.ndarray]] = []
    all_pieces = range(data.npieces)
    entries.append([data.b_pieces[p] for p in all_pieces])
    for i in range(1, imax + 1):
        row = []
        for p in all_pieces:
            u = data.x_coeff(p, i)
            v = data.x_coeff(p, i - 1)
            row.append(_sigma_poly(u, v))
        entries.append(row)
    first = None
    scale_sq = max(1.0, float(scale)) ** 2  # sigma products scale quadratically
    for i in range(imax + 1):
        ref = scale if i == 0 else scale_sq
        if any(not _poly_is_zero(entries[i][p], ref) for p in pieces):
            first = i
            break
    return LegendreSequence(entries=entries, first_nonzero=first, imax=imax,
                            interval=(t0, t1))


def goh_subspace(data: PiecewiseAnalytic, tau: float, i: int) -> np.ndarray:
    """Canonical frame of ``Gamma^i(tau) = span{X^(j)(tau) : 0 <= j <= i}``."""
    if i < 0:
        return np.zeros((data.dim, 0))
    cols = np.column_stack([data.x(tau, deriv=j) for j in range(i + 1)])
    return canonicalize(cols)


@dataclass
class JumpEvent:
    """A discontinuity of a curve of planes.

    ``pre_plane`` is the left limit (the curve stores it at the event time,
    keeping traces left-continuous), ``post_plane`` the right limit and
    ``inserted`` the isotropic frame whose extension produced the jump.
    """

    time: float
    pre_plane: np.ndarray
    post_plane: np.ndarray
    inserted: np.ndarray


@dataclass
class JacobiTrace:
    """A sampled curve of Lagrangian planes plus its jump events."""

    curve: GrassmannCurve
    jumps: list[JumpEvent] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _order_and_check_sign(data: PiecewiseAnalytic, seq: LegendreSequence,
                          interval: tuple[float, float]) -> int:
    m = seq.first_nonzero
    if m is None:
        raise UndecidedError(
            f"all sequence entries vanish up to order {seq.imax}: order undecided"
        )
    # sign condition: b^m strictly negative on the closed interval
    ts = np.linspace(interval[0], interval[1], 101)
    vals = np.array([seq.value(m, t, data) for t in ts])
    if np.max(vals) >= 0.0:
        raise PreconditionError(
            f"b^{m} does not stay strictly negative on the interval (max {np.max(vals):.3g})"
        )
    return m


def singular_jacobi_curve(data: PiecewiseAnalytic, l_init: np.ndarray,
                          interval: tuple[float, float],
                          grid: Sequence[float], *, rtol: float = 1e-12) -> JacobiTrace:
    """Curve of Lagrangian planes of an order-m problem along an interval.

    The order m is the first nonvanishing entry of the sequence; ``b^m``
    must stay strictly negative.  Solutions of

        mu' = sigma(X^(m), mu) / b^m * X^(m)

    are propagated from the (n - m)-dimensional boundary space
    ``l_init ∩ Gamma^(m-1)(t0)^∠`` and the plane at each node is
    ``span(Gamma^(m-1)(t), solutions)``.  For m = 0 the boundary space is
    all of ``l_init``.  Each piece inside the interval is one march at
    relative tolerance ``rtol``.

    The pairings ``sigma(mu, X^(i))``, i < m, vanish identically along
    solutions; their drift is monitored and stored in the diagnostics.
    """
    l_init = validate_lagrangian(np.asarray(l_init, dtype=float))
    grid = np.asarray(grid, dtype=float)
    t0, t1 = float(interval[0]), float(interval[1])
    if grid[0] != t0 or grid[-1] != t1 or not np.all(np.diff(grid) > 0):
        raise PreconditionError("grid must increase strictly from interval start to end")
    n = data.n
    seq = legendre_sequence(data, interval, imax=min(2 * n + 2, D_MAX - 1))
    m = _order_and_check_sign(data, seq, interval)
    if m > n:
        raise NondegeneracyError(f"order {m} exceeds n = {n}; no isotropic Goh span")

    # boundary space
    if m == 0:
        mu0 = l_init.copy()
    else:
        goh0 = goh_subspace(data, t0, m - 1)
        if goh0.shape[1] != m:
            raise RankDriftError("Goh span has deficient rank at the interval start")
        if isotropy_residual(goh0) > 1e-8:
            raise PreconditionError("Goh span is not isotropic: order condition violated")
        a = gram(goh0, l_init)
        u, s, vt = np.linalg.svd(a)
        rank = int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
        mu0 = l_init @ vt[rank:].T
        if mu0.shape[1] != n - m:
            raise NondegeneracyError(
                f"boundary space has dimension {mu0.shape[1]}, expected {n - m}"
            )

    frames = np.empty((grid.size,) + mu0.shape)
    frames[0] = cur = mu0
    bps = data.breakpoints
    cuts = np.concatenate([[t0], bps[(bps > t0) & (bps < t1)], [t1]])
    for a_, b_ in zip(cuts[:-1], cuts[1:]):
        if not mu0.shape[1]:  # m = n: the plane is the Goh span alone
            break
        p = data.piece_index(0.5 * (a_ + b_))

        def rhs(t: float, xs=data._stack("x", p, m), bs=seq.entries[m][p]) -> np.ndarray:
            # mu' = X^(m) sigma(X^(m), mu) / b^m, sigma(X^(m), mu) = (-J X^(m)) . mu,
            # with the piece's own polynomials, also at its end breakpoint
            xm = meval(xs, t)
            return np.outer(xm, -apply_j(xm)) / meval(bs, t)

        inside = (grid > a_) & (grid <= b_)
        marched = _transport(rhs, cur, np.union1d([a_, b_], grid[inside]), rtol)
        frames[inside] = marched[1 : 1 + np.count_nonzero(inside)]
        cur = marched[-1]

    goh_rank_ref = m
    planes = []
    drift = 0.0
    for t, mu in zip(grid, frames):
        goh = goh_subspace(data, t, m - 1)
        if goh.shape[1] != goh_rank_ref:
            raise RankDriftError(f"Goh span rank drifts at t = {t:.6g}")
        plane = canonicalize(np.hstack([goh, mu]))
        if plane.shape[1] != n:
            raise NondegeneracyError(f"plane rank deficient at t = {t:.6g}")
        planes.append(plane)
        for i in range(m if mu.shape[1] else 0):
            xi = data.x(t, deriv=i)
            pair = np.abs(gram(xi, mu)).max() / max(1.0, np.linalg.norm(xi))
            drift = max(drift, float(pair))

    curve = GrassmannCurve(times=grid, planes=planes)
    diag = {
        "order": m,
        "conservation_drift": drift,
        "lagrangian_residual": max(isotropy_residual(p) for p in planes),
    }
    return JacobiTrace(curve=curve, jumps=[], diagnostics=diag)


def infinite_order_curve(data: PiecewiseAnalytic, l_init: np.ndarray,
                         interval: tuple[float, float]) -> JacobiTrace:
    """Constant curve of the totally degenerate case (all b^i vanish).

    The plane is the extension of ``l_init`` by the right-limit span of all
    derivatives of X at the interval start, computed from the Taylor
    coefficients (so isolated rank drops of ``Gamma(t)`` cannot corrupt it).
    """
    l_init = validate_lagrangian(np.asarray(l_init, dtype=float))
    t0, t1 = float(interval[0]), float(interval[1])
    seq = legendre_sequence(data, (t0, t1), imax=min(2 * data.n + 2, D_MAX - 1))
    if seq.first_nonzero is not None:
        raise PreconditionError(
            f"sequence entry b^{seq.first_nonzero} is nonzero: not an infinite-order arc"
        )
    p = data.piece_index(t0, side="+")
    if data.breakpoints[p + 1] < t1:
        raise PreconditionError("infinite-order arc must not cross breakpoints")
    # span of Taylor coefficients of X at t0 = right limit of the derivative span
    c = data.x_pieces[p]
    d = c.shape[1]
    cols = np.column_stack([
        data.x(t0, deriv=k, side="+")
        for k in range(d)
    ])
    gamma = canonicalize(cols)
    if isotropy_residual(gamma) > 1e-8:
        raise PreconditionError("derivative span is not isotropic")
    plane = extend_by_isotropic(l_init, gamma)
    times = np.array([t0, t1])
    curve = GrassmannCurve(times=times, planes=[plane, plane])
    return JacobiTrace(curve=curve, jumps=[], diagnostics={"order": None})


def bang_bang_sequence(l0: np.ndarray, x_list: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Planes of the bang-bang recursion ``L_{i+1} = L_i ^ {X_i}``.

    Returns the list ``[L_0, L_1, ..]`` of canonical frames (length
    ``len(x_list) + 1``).  Pure linear algebra, no integration.
    """
    plane = canonicalize(validate_lagrangian(np.asarray(l0, dtype=float)))
    out = [plane]
    for x in x_list:
        plane = extend_by_isotropic(plane, np.asarray(x, dtype=float))
        out.append(plane)
    return out
