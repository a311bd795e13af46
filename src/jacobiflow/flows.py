"""Linear Hamiltonian flows: fundamental matrices and plane transport.

Systems are ``lambda' = M(t) lambda`` with the Hamiltonian system matrix

    M(t) = [[A(t), B(t)/t^m], [C(t), -A(t)^T]]

given through :class:`HamiltonianCoefficients` (polynomial coefficient
blocks, with an optional pole of order m at t = 0, compiled at construction
into one stack that :func:`~jacobiflow.series.meval` evaluates in a single
Horner pass) or any callable ``t -> (2n, 2n) array``.  The integrator is
an embedded adaptive Runge-Kutta scheme (DOP853), and ``_integrate`` is the
package's only call into it: every transport, fundamental solution and
crossing count of the package goes through it.  Planes are always moved as
frames, never as chart matrices, so a chart pole cannot stop a transport.

A transport is one march over its node list (:func:`_transport`), read off
the solver's dense output.  It restarts, after a QR, only where the frame's
norm has grown by ``_AMP_LIMIT``.  Its steps span at most ``_NODE_STEPS``
node spacings: rtol controls the error at step ends only, and the 7th-order
interpolant's error at the nodes inside a long step would exceed it.
Piecewise analytic data march once per piece.

Nothing is ever re-projected onto the symplectic group, drift is only
monitored, and the tolerance ladder is tightened until the monitored
residual passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import PoleError, PreconditionError
from .grassmann import GrassmannCurve, canonicalize
from .series import meval, strim
from .symplectic import apply_j, dim_to_n

__all__ = [
    "HamiltonianCoefficients",
    "fundamental_matrix",
    "flow_plane",
]

RTOL_LADDER = (1e-10, 1e-12, 1e-13)
ATOL = 1e-13
SYMPLECTICITY_TOL = 1e-8


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
               events=None, dense: bool = False, t_eval=None, max_step: float = np.inf):
    """One DOP853 solve of ``Y' = sys(t) Y``, sampled at ``t_eval`` if given."""
    shape = y0.shape
    reached = [t0]

    def rhs(t, y):
        reached[0] = t
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
        t_eval=t_eval,
        max_step=max_step,
    )
    if sol.status == -1:
        raise PoleError(
            f"integration stalled at t = {reached[0]:.6g} (step size underflow near a pole)"
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
_NODE_STEPS = 3
_MAX_RENORM = 100000


def _transport(sys: SystemLike, f0: np.ndarray, nodes: Sequence[float],
               rtol: float, *, node_steps: float = _NODE_STEPS) -> np.ndarray:
    """Frames at the strictly monotone ``nodes`` of one march from ``f0``.

    The first frame is ``f0``.  Only the spans are meaningful, so callers
    orthonormalise or canonicalise what they emit.  Restarts and step cap: see
    the module docstring; ``node_steps=np.inf`` lifts the cap.  A pole
    underflows the step size and raises :class:`PoleError`.
    """
    nodes = np.asarray(nodes, dtype=float)
    out = np.empty((nodes.size,) + f0.shape)
    out[0] = f0
    max_step = node_steps * float(np.max(np.abs(np.diff(nodes)), initial=0.0))
    t, cur, k = float(nodes[0]), f0, 1
    for _ in range(_MAX_RENORM):
        if k == nodes.size:
            return out

        def grew(tt, y, _lim=_AMP_LIMIT * max(1.0, float(np.linalg.norm(cur)))):
            return float(np.linalg.norm(y)) - _lim

        grew.terminal = True
        grew.direction = 1
        sol = _integrate(sys, cur, t, float(nodes[-1]), rtol, events=grew, t_eval=nodes[k:],
                         max_step=max_step)
        got = len(sol.t)
        if got:
            out[k : k + got] = np.asarray(sol.y).T.reshape((got,) + f0.shape)
        if not np.all(np.isfinite(out[k : k + got])):
            raise PoleError(f"frame transport lost finiteness near t = {sol.t[-1]:.6g}")
        k += got
        if sol.status == 0:
            return out
        t_ev, y_ev = float(sol.t_events[0][-1]), sol.y_events[0][-1]
        if t_ev == t:
            raise PoleError(
                f"frame transport pinned at t = {t:.6g} (growth event makes no progress)"
            )
        if not np.all(np.isfinite(y_ev)):
            raise PoleError(f"frame transport lost finiteness near t = {t_ev:.6g}")
        t = t_ev
        # R with a positive diagonal keeps the sign of every block determinant
        cur, r = np.linalg.qr(y_ev.reshape(f0.shape))
        cur = cur * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    raise PoleError(
        f"renormalisation budget exhausted between t = {nodes[0]:.6g} and {nodes[-1]:.6g}"
    )


def flow_plane(h, l0: np.ndarray, grid: Sequence[float], *, rtol: float = 1e-12) -> GrassmannCurve:
    """Transport a plane along the flow, sampled at the grid nodes.

    The grid must be strictly monotone and is one march (:func:`_transport`);
    frames are orthonormalised at every node and returned as canonical frames.
    """
    sys = _system(h)
    grid = np.asarray(grid, dtype=float)
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise PreconditionError("grid must be strictly monotone")
    f = np.asarray(l0, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    q, _ = np.linalg.qr(f)
    frames = _transport(sys, q, grid, rtol)
    planes = [canonicalize(q)] + [canonicalize(np.linalg.qr(y)[0]) for y in frames[1:]]
    return GrassmannCurve(times=grid, planes=planes)


def _apply_j_right(m: np.ndarray) -> np.ndarray:
    """Right multiplication M J without materialising J."""
    n = dim_to_n(m.shape[1])
    return np.hstack([-m[:, n:], m[:, :n]])


def symplectic_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix via T^{-1} = -J T^T J."""
    return -_apply_j_right(apply_j(t.T))
