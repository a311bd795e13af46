"""Linear Hamiltonian flows: plane transport.

Systems are ``lambda' = M(t) lambda`` with the Hamiltonian system matrix

    M(t) = [[A(t), B(t)/t^m], [C(t), -A(t)^T]]

given through :class:`HamiltonianCoefficients` (polynomial coefficient
blocks, with an optional pole of order m at t = 0, compiled at construction
into one stack that :func:`~jacobiflow.series.meval` evaluates in a single
Horner pass) or any callable that maps a 1-D array of K times to the
``(K, 2n, 2n)`` stack of system matrices.  Planes are always moved as
frames, never as chart matrices, so a chart pole cannot stop a transport.

Every transport of the package is one call of :func:`_integrate`: one march
over a node list, with each node a step end.  A step is 3-stage
Gauss-Legendre collocation (order 6).  On a linear system it is one small
linear solve, so steps are computed in batches with numpy alone, and its
propagator is symplectic up to rounding, because Gauss methods keep the
quadratic invariants of the flow (Hairer, Lubich & Wanner, *Geometric
Numerical Integration*, 2nd ed., 2006, sections IV.2 and VI.4).  Nothing is
ever re-projected onto the symplectic group.  Piecewise analytic data march
once per piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import PoleError, PreconditionError
from .grassmann import GrassmannCurve, canonicalize
from .series import meval, strim

__all__ = [
    "HamiltonianCoefficients",
    "flow_plane",
]


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

    def __call__(self, t) -> np.ndarray:
        """The system matrix at ``t``, or the ``(K, 2n, 2n)`` stack at a 1-D array."""
        out = meval(self._stack, t)
        if self.pole_order > 0:
            t = np.asarray(t, dtype=float)
            if np.any(t == 0.0):
                raise PoleError("coefficients have a pole at t = 0")
            out[..., : self.n, self.n :] /= (t**self.pole_order)[..., None, None]
        return out


SystemLike = Callable[[np.ndarray], np.ndarray]


def _system(h) -> SystemLike:
    if isinstance(h, HamiltonianCoefficients):
        return h
    if callable(h):
        return h
    raise PreconditionError("expected HamiltonianCoefficients or a callable of times")


# 3-stage Gauss-Legendre collocation (order 6): nodes, coefficients, weights
_R15 = np.sqrt(15.0)
_GAUSS_C = np.array([0.5 - _R15 / 10.0, 0.5, 0.5 + _R15 / 10.0])
_GAUSS_A = np.array([
    [5.0 / 36.0, 2.0 / 9.0 - _R15 / 15.0, 5.0 / 36.0 - _R15 / 30.0],
    [5.0 / 36.0 + _R15 / 24.0, 2.0 / 9.0, 5.0 / 36.0 - _R15 / 24.0],
    [5.0 / 36.0 + _R15 / 30.0, 2.0 / 9.0 + _R15 / 15.0, 5.0 / 36.0],
])
_GAUSS_B = np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0])
#: steps proposed, and evaluated, per batch
_BATCH = 32
#: a frame entry beyond this bound triggers a QR of that frame
_GROWTH = 1e4
#: share of rtol a step's error estimate may use
_SAFETY = 0.0625
#: smallest rtol honoured; below it the error estimate is rounding noise
_RTOL_MIN = 100.0 * np.finfo(float).eps


def _increments(sys: SystemLike, t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``P - I`` for the Gauss-Legendre propagators ``P`` of the steps ``[t, t + h]``.

    On ``Y' = A(t) Y`` the stage values of the step from ``Y = I`` solve the
    linear system ``(I - h [a_ij A(t + c_j h)]) Y = 1 (x) I``, and
    ``P = I + h sum_i b_i A_i Y_i``.  The increment is kept apart from ``I``
    so that chaining it rounds at the size of the increment.
    """
    a = sys((t[:, None] + h[:, None] * _GAUSS_C).ravel())
    d = a.shape[-1]
    ha = a.reshape(-1, 3, d, d) * h[:, None, None, None]
    lhs = np.eye(3 * d) - np.einsum("ij,kjab->kiajb", _GAUSS_A, ha).reshape(-1, 3 * d, 3 * d)
    rhs = np.broadcast_to(np.tile(np.eye(d), (3, 1)), lhs.shape[:1] + (3 * d, d))
    y = np.linalg.solve(lhs, rhs).reshape(-1, 3, d, d)
    return np.einsum("i,kiac->kac", _GAUSS_B, ha @ y)


def _batch(sys: SystemLike, t: np.ndarray, h: np.ndarray, rtol: float):
    """Propagator increments of a batch of steps and each step's error over its bound.

    Each step is taken whole and as two halves; the halves' product is the
    propagator, and the gap between the two, over ``2**6 - 1``, its error,
    bounded by ``_SAFETY * rtol`` times the propagator's size.  A step whose
    propagator is not finite, or a batch whose system has a pole at a stage
    time or whose stage solve is singular, gets an infinite error.  Poles
    overflow on the way, so floating-point warnings are off.
    """
    half = 0.5 * h
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            d = _increments(sys, np.concatenate([t, t, t + half]), np.concatenate([h, half, half]))
        except (PoleError, np.linalg.LinAlgError):
            return None, np.full(t.size, np.inf)
        k = t.size
        d1, d2 = d[k : 2 * k], d[2 * k :]
        inc = d1 + d2 + d2 @ d1
        scale = 1.0 + np.max(np.abs(inc), axis=(1, 2))
        err = np.max(np.abs(inc - d[:k]), axis=(1, 2)) / (63.0 * _SAFETY * rtol * scale)
    return inc, np.where(np.isfinite(err), err, np.inf)


def _integrate(sys: SystemLike, frames: np.ndarray, nodes: Sequence[float],
               rtol: float) -> np.ndarray:
    """Frames at the strictly monotone ``nodes`` of one march from ``frames``.

    ``frames`` is one ``(2n, k)`` frame or a stack of them; the result has one
    entry per node, the first being ``frames``.  Every node is a step end, so
    nothing is interpolated.  Steps are proposed ``_BATCH`` at a time with
    one length, shortened so that each node interval is split evenly, and
    accepted up to the first one whose error estimate (:func:`_batch`)
    exceeds its bound; the step length then follows the usual order-7 local
    error rule.  The steps therefore depend on ``sys``, ``nodes`` and
    ``rtol`` only, never on the frames.  An rtol below ``_RTOL_MIN`` is
    raised to it, as DOP853 does.  Each frame is chained by the propagators
    and given a QR (R with a positive diagonal, which keeps the sign of every
    block determinant) when one of its entries passes ``_GROWTH``; only the
    spans are meaningful.  Only the frames at the nodes and one batch of
    propagators are held.  A step length that underflows, as near a pole,
    raises :class:`PoleError`.
    """
    nodes = np.asarray(nodes, dtype=float)
    frames = np.asarray(frames, dtype=float)
    rtol = max(rtol, _RTOL_MIN)
    f = frames.reshape((-1,) + frames.shape[-2:]).copy()
    out = np.empty((nodes.size,) + f.shape)
    out[0] = f
    span = abs(float(nodes[-1] - nodes[0]))
    direction = 1.0 if nodes[-1] > nodes[0] else -1.0
    t, k = float(nodes[0]), 1
    h = abs(float(nodes[min(1, nodes.size - 1)] - nodes[0]))
    while k < nodes.size:
        # one length h, every node interval split into equal steps
        starts, stops, ends = [], [], []
        s, j = t, k
        while len(starts) < _BATCH and j < nodes.size:
            gap = abs(float(nodes[j]) - s)
            parts = max(1, int(np.ceil(gap / h * (1.0 - 1e-12))))
            starts.append(s)
            ends.append(parts == 1)
            s, j = (float(nodes[j]), j + 1) if parts == 1 else (s + direction * gap / parts, j)
            stops.append(s)
        starts, stops = np.array(starts), np.array(stops)
        lengths = np.abs(stops - starts)
        inc, err = _batch(sys, starts, stops - starts, rtol)
        good = int(np.argmax(err > 1.0)) if np.any(err > 1.0) else err.size
        for i in range(good):
            f = f + inc[i] @ f
            if np.abs(f).max() > _GROWTH:
                big = np.abs(f).max(axis=(1, 2)) > _GROWTH
                q, r = np.linalg.qr(f[big])
                f[big] = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None]
            if ends[i]:
                out[k] = f
                k += 1
        if good:
            t = float(stops[good - 1])
        if good < err.size:  # order-7 rule, from the rejected step
            h = lengths[good] * max(0.1, 0.9 * err[good] ** (-1.0 / 7.0))
        elif np.any(lengths >= 0.5 * h):  # from the steps h was not shortened for
            full = lengths >= 0.5 * h
            grow = 0.9 * np.maximum(err[full], 1e-300) ** (-1.0 / 7.0)
            h = min(4.0 * h, float(np.min(lengths[full] * grow)))
        if not h > 16.0 * np.spacing(max(abs(t), span)):
            raise PoleError(
                f"integration stalled at t = {t:.6g} (step size underflow near a pole)")
    return out.reshape((nodes.size,) + frames.shape)


def flow_plane(h, l0: np.ndarray, grid: Sequence[float], *, rtol: float = 1e-12) -> GrassmannCurve:
    """Transport a plane along the flow, sampled at the grid nodes.

    The grid must be strictly monotone and is one march (:func:`_integrate`);
    frames are orthonormalised at every node and returned as canonical frames,
    with one QR and one canonicalisation on the stack of nodes.
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
    frames = _integrate(sys, q, grid, rtol)
    frames[1:] = np.linalg.qr(frames[1:])[0]
    return GrassmannCurve(times=grid, planes=list(canonicalize(frames)))

