"""Linear Hamiltonian flows and matrix Riccati integration.

Systems are ``lambda' = M(t) lambda`` with the Hamiltonian system matrix

    M(t) = [[A(t), B(t)/t^m], [C(t), -A(t)^T]]

given through :class:`HamiltonianCoefficients` (polynomial coefficient
blocks, with an optional pole of order m at t = 0, compiled at construction
into one stack that :func:`~jacobiflow.series.meval` evaluates in a single
Horner pass) or any callable ``t -> (2n, 2n) array``.  The integrator is
an embedded adaptive Runge-Kutta scheme (DOP853); nothing is ever
re-projected onto the symplectic group, drift is only monitored, and the
tolerance ladder is tightened until the monitored residual passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ChartExhaustedError,
    PoleError,
    PreconditionError,
)
from .grassmann import ChartPoint, GrassmannCurve, canonicalize, to_chart
from .series import meval, strim
from .symplectic import apply_j, dim_to_n

__all__ = [
    "HamiltonianCoefficients",
    "fundamental_matrix",
    "flow_plane",
    "riccati_flow",
    "RiccatiResult",
]

RTOL_LADDER = (1e-10, 1e-12, 1e-13)
ATOL = 1e-13
SYMPLECTICITY_TOL = 1e-8
SWITCH_THRESHOLD = 1e3


def _as_coeff_array(x, n: int) -> np.ndarray:
    """Coerce a constant matrix or (d+1, n, n) stack to coefficient form."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3 or a.shape[1:] != (n, n):
        raise PreconditionError(f"coefficient block must be (d+1, {n}, {n})")
    return a


@dataclass(frozen=True)
class HamiltonianCoefficients:
    """Polynomial coefficient blocks of a linear Hamiltonian system.

    ``a``, ``b``, ``c`` are stacks of matrix coefficients, lowest order
    first: ``A(t) = sum_k a[k] t^k`` and so on.  When ``pole_order = m > 0``
    the B-block of the system is ``B(t)/t^m`` where ``B(t)`` is the stored
    (analytic) numerator series; ``b`` and ``c`` must be symmetric.

    The blocks are compiled once, at construction, into one stack of
    ``[[A, B], [C, -A^T]]`` without trailing zero orders; a call is one
    :func:`~jacobiflow.series.meval` pass plus the division of the B-block by
    ``t^m``.  The instance and its arrays are read-only, so the compiled
    stack cannot go stale.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    pole_order: int = 0
    n: int = field(init=False)
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        first = np.asarray(self.a, dtype=float)
        n = first.shape[-1]
        a = _as_coeff_array(self.a, n)
        b = _as_coeff_array(self.b, n)
        c = _as_coeff_array(self.c, n)
        if self.pole_order < 0:
            raise PreconditionError("pole_order must be nonnegative")
        for name, blk in (("b", b), ("c", c)):
            asym = np.max(np.abs(blk - np.transpose(blk, (0, 2, 1))))
            scale = max(1.0, float(np.max(np.abs(blk))))
            if asym > 1e-10 * scale:
                raise PreconditionError(f"coefficient block {name!r} is not symmetric")
        stack = np.zeros((max(a.shape[0], b.shape[0], c.shape[0]), 2 * n, 2 * n))
        stack[: a.shape[0], :n, :n] = a
        stack[: a.shape[0], n:, n:] = -np.transpose(a, (0, 2, 1))
        stack[: b.shape[0], :n, n:] = b
        stack[: c.shape[0], n:, :n] = c
        object.__setattr__(self, "n", n)
        for name, arr in (("a", a), ("b", b), ("c", c), ("_stack", strim(stack))):
            arr = np.array(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def blocks(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A(t), B_eff(t), C(t)) with the pole of the B-block evaluated."""
        m = self(t)
        n = self.n
        return m[:n, :n], m[:n, n:], m[n:, :n]

    def __call__(self, t: float) -> np.ndarray:
        out = meval(self._stack, t)
        if self.pole_order > 0:
            if t == 0.0:
                raise PoleError("coefficients have a pole at t = 0")
            out[: self.n, self.n :] /= t**self.pole_order
        return out


SystemLike = Callable[[float], np.ndarray]


def _system(h) -> SystemLike:
    if isinstance(h, HamiltonianCoefficients):
        return h
    if callable(h):
        return h
    raise PreconditionError("expected HamiltonianCoefficients or a callable t -> matrix")


def _symplecticity_residual(m: np.ndarray) -> float:
    dim = m.shape[0]
    n = dim // 2
    r = m.T @ apply_j(m)
    r[:n, n:] -= np.eye(n)
    r[n:, :n] += np.eye(n)
    scale = max(1.0, float(np.max(np.abs(m))) ** 2)
    return float(np.max(np.abs(r))) / scale


def _integrate(sys: SystemLike, y0: np.ndarray, t0: float, t1: float, rtol: float,
               events=None, dense: bool = False):
    shape = y0.shape

    def rhs(t, y):
        m = sys(t)
        with np.errstate(over="ignore", invalid="ignore"):
            return (m @ y.reshape(shape)).ravel()

    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0.ravel(),
        method="DOP853",
        rtol=rtol,
        atol=ATOL,
        dense_output=dense,
        events=events,
    )
    if sol.status == -1:
        raise PoleError(
            f"integration stalled at t = {sol.t[-1]:.6g} (step size underflow near a pole)"
        )
    return sol


def fundamental_matrix(h, t0: float, t1: float, *, rtol_ladder: Sequence[float] = RTOL_LADDER):
    """Fundamental solution Phi(t1) of lambda' = M(t) lambda with Phi(t0) = I.

    The tolerance ladder is walked until the symplecticity residual of the
    result is below 1e-8; the final drift is only monitored, never projected
    out.  Raises :class:`PoleError` if the step size underflows.
    """
    sys = _system(h)
    dim = 2 * h.n if isinstance(h, HamiltonianCoefficients) else sys(t0).shape[0]
    y0 = np.eye(dim)
    if t1 == t0:
        return y0
    best = None
    best_resid = np.inf
    for rtol in rtol_ladder:
        sol = _integrate(sys, y0, t0, t1, rtol)
        phi = sol.y[:, -1].reshape(dim, dim)
        resid = _symplecticity_residual(phi)
        if resid < best_resid:
            best, best_resid = phi, resid
        if resid <= SYMPLECTICITY_TOL:
            return phi
    # drift is reported, not fixed
    raise PoleError(
        f"symplecticity drift {best_resid:.3e} exceeds {SYMPLECTICITY_TOL:.0e} "
        "at the tightest tolerance"
    )


def fundamental_solution(h, t0: float, t1: float, rtol: float = 1e-12):
    """Dense-output fundamental solution; returns ``(interpolant, dim)``.

    ``interpolant(t)`` is the (2n, 2n) fundamental matrix at ``t``.
    """
    sys = _system(h)
    probe = 0.5 * (t0 + t1)
    dim = sys(probe if probe != 0 else t1).shape[0]
    sol = _integrate(sys, np.eye(dim), t0, t1, rtol, dense=True)

    def interp(t: float) -> np.ndarray:
        return sol.sol(t).reshape(dim, dim)

    return interp, dim


_AMP_LIMIT = 1e8
_MAX_RENORM = 100000


def _evolve_step(sys: SystemLike, f: np.ndarray, a: float, b: float,
                 rtol: float) -> np.ndarray:
    """One renormalised hop from ``a`` to ``b``.

    Near a strong pole the dominant mode can gain hundreds of e-foldings over
    a single sub-interval.  Long before the frame overflows, the subdominant
    directions of the span drop below the dominant column's round-off floor
    and the endpoint QR would return noise for them.  A terminal event stops
    the integration whenever the frame has grown by ``_AMP_LIMIT`` so it can
    be re-orthonormalised in place; genuine poles still underflow the step
    size inside and surface as :class:`PoleError`.
    """
    t = float(a)
    cur = f
    for _ in range(_MAX_RENORM):
        scale = max(1.0, float(np.linalg.norm(cur)))

        def grew(tt, y, _s=scale):
            return float(np.linalg.norm(y)) - _AMP_LIMIT * _s

        grew.terminal = True
        grew.direction = 1
        sol = _integrate(sys, cur, t, b, rtol, events=grew)
        y_end = sol.y[:, -1]
        if not np.all(np.isfinite(y_end)):
            raise PoleError(
                f"frame transport lost finiteness near t = {sol.t[-1]:.6g}"
            )
        q, _ = np.linalg.qr(y_end.reshape(f.shape))
        cur = q
        if sol.status == 0:
            return cur
        t_ev = float(sol.t_events[0][-1])
        if t_ev == t:
            raise PoleError(
                f"frame transport pinned at t = {t:.6g} (growth event makes no progress)"
            )
        t = t_ev
    raise PoleError(
        f"renormalisation budget exhausted between t = {a:.6g} and {b:.6g}"
    )


def _evolve_frame(sys: SystemLike, f0: np.ndarray, t0: float, t1: float,
                  rtol: float = 1e-12, max_ratio: float = 2.0) -> np.ndarray:
    """Propagate a frame, orthonormalising between sub-intervals.

    Renormalisation keeps the span while avoiding overflow when the flow has
    strongly growing modes (e.g. approaching a pole).  Sub-intervals follow a
    geometric progression when both endpoints have the same sign, linear
    otherwise.
    """
    if t1 == t0:
        return f0.copy()
    if t0 * t1 > 0 and abs(t1) != abs(t0):
        # geometric: constant ratio in |t|
        k = max(1, int(np.ceil(abs(np.log(abs(t1) / abs(t0))) / np.log(max_ratio))))
        ts = np.sign(t0) * np.exp(np.linspace(np.log(abs(t0)), np.log(abs(t1)), k + 1))
        ts[0], ts[-1] = t0, t1
    else:
        ts = np.linspace(t0, t1, 9)
    f = f0.copy()
    for a, b in zip(ts[:-1], ts[1:]):
        f = _evolve_step(sys, f, a, b, rtol)
    return f


def flow_plane(h, l0: np.ndarray, grid: Sequence[float], *, rtol: float = 1e-12) -> GrassmannCurve:
    """Transport a plane along the flow, sampled at the grid nodes.

    Frames are orthonormalised at every node (a span-preserving operation);
    the returned planes are canonical frames.
    """
    sys = _system(h)
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(l0, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    q, _ = np.linalg.qr(f)
    planes = [canonicalize(q)]
    cur = q
    for a, b in zip(grid[:-1], grid[1:]):
        cur = _evolve_frame(sys, cur, a, b, rtol=rtol)
        planes.append(canonicalize(cur))
    return GrassmannCurve(times=grid, planes=planes)


def _apply_j_right(m: np.ndarray) -> np.ndarray:
    """Right multiplication M J without materialising J."""
    n = dim_to_n(m.shape[1])
    return np.hstack([-m[:, n:], m[:, :n]])


def symplectic_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix via T^{-1} = -J T^T J."""
    return -_apply_j_right(apply_j(t.T))


def _swap_catalogue(n: int) -> list[np.ndarray]:
    """Darboux pair swaps (p_i, q_i) -> (q_i, -p_i) for index subsets, plus the
    two constant singular-chart moves in dimension two."""
    cats: list[np.ndarray] = []
    from itertools import combinations

    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            u = np.eye(2 * n)
            for i in subset:
                u[:, [i, n + i]] = u[:, [n + i, i]]
                u[:, n + i] *= -1.0
            cats.append(u)
    if n == 2:
        m2 = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
            ]
        )
        m3 = np.array(
            [
                [1.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
            ]
        )
        cats.extend([m2, m3])
    return cats


@dataclass
class RiccatiResult:
    """Output of :func:`riccati_flow`.

    ``points`` holds one :class:`ChartPoint` per grid node; ``events`` is a
    list of ``(time, chart_index)`` chart-switch records; ``max_asymmetry``
    is the largest symmetry drift of S seen at any node before
    symmetrisation.
    """

    times: np.ndarray
    points: list[ChartPoint]
    events: list[tuple[float, int]]
    max_asymmetry: float

    def curve(self) -> GrassmannCurve:
        from .grassmann import from_chart

        return GrassmannCurve(
            times=self.times, planes=[canonicalize(from_chart(p)) for p in self.points]
        )


def riccati_flow(s0: np.ndarray, h, grid: Sequence[float], *, rtol: float = 1e-12,
                 switch_threshold: float = SWITCH_THRESHOLD) -> RiccatiResult:
    """Integrate the matrix Riccati equation S' = C - S A - A^T S - S B S.

    The plane ``graph(S)`` is tracked through moving charts: when the
    max-norm of S crosses ``switch_threshold`` the solver switches to the
    first catalogue chart that brings the norm below a tenth of the
    threshold and keeps integrating.  The chart at each output node is part
    of the returned :class:`ChartPoint`.
    """
    sys = _system(h)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise PreconditionError("riccati_flow needs a strictly increasing grid")
    s = np.asarray(s0, dtype=float).copy()
    n = s.shape[0]
    dim = 2 * n
    t_frame = np.eye(dim)  # global coords = t_frame @ chart coords
    catalogue = _swap_catalogue(n)
    events: list[tuple[float, int]] = []
    max_asym = 0.0

    def conj_sys(t: float, tf: np.ndarray, tf_inv: np.ndarray) -> np.ndarray:
        return tf_inv @ sys(t) @ tf

    def rhs_factory(tf, tf_inv):
        def rhs(t, y):
            m = conj_sys(t, tf, tf_inv)
            a, b, c = m[:n, :n], m[:n, n:], m[n:, :n]
            smat = y.reshape(n, n)
            ds = c - smat @ a - a.T @ smat - smat @ b @ smat
            return ds.ravel()

        return rhs

    def norm_event(t, y):
        return float(np.max(np.abs(y)) - switch_threshold)

    norm_event.terminal = True
    norm_event.direction = 1.0

    def chart_point(t_cur: float, s_cur: np.ndarray) -> ChartPoint:
        plane = t_frame[:, :n] + t_frame[:, n:] @ s_cur
        return to_chart(plane, t_frame[:, n:], t_frame[:, :n])

    points: list[ChartPoint] = []
    t_cur = grid[0]
    points.append(chart_point(t_cur, s))
    for t_next in grid[1:]:
        while t_cur < t_next:
            tf_inv = symplectic_inverse(t_frame)
            sol = solve_ivp(
                rhs_factory(t_frame, tf_inv),
                (t_cur, t_next),
                s.ravel(),
                method="DOP853",
                rtol=rtol,
                atol=ATOL,
                events=norm_event,
            )
            if sol.status == -1:
                raise PoleError(f"Riccati integration stalled at t = {sol.t[-1]:.6g}")
            s = sol.y[:, -1].reshape(n, n)
            asym = float(np.max(np.abs(s - s.T)))
            max_asym = max(max_asym, asym / max(1.0, float(np.max(np.abs(s)))))
            s = 0.5 * (s + s.T)
            t_cur = float(sol.t[-1])
            if sol.status == 1:  # hit the norm threshold: switch chart
                switched = False
                for ci, u in enumerate(catalogue):
                    y = symplectic_inverse(u) @ np.vstack([np.eye(n), s])
                    p_blk, q_blk = y[:n], y[n:]
                    sv = np.linalg.svd(p_blk, compute_uv=False)
                    if sv[-1] < 1e-10 * sv[0]:
                        continue
                    s_new = q_blk @ np.linalg.inv(p_blk)
                    s_new = 0.5 * (s_new + s_new.T)
                    if np.max(np.abs(s_new)) <= switch_threshold / 10.0:
                        t_frame = t_frame @ u
                        s = s_new
                        events.append((t_cur, ci))
                        switched = True
                        break
                if not switched:
                    raise ChartExhaustedError(
                        f"no catalogue chart bounds the Riccati state at t = {t_cur:.6g}"
                    )
        points.append(chart_point(t_cur, s))
    return RiccatiResult(times=grid, points=points, events=events, max_asymmetry=max_asym)
