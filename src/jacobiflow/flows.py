"""Linear Hamiltonian flows: plane transport.

Systems are ``lambda' = M(t) lambda`` with a Hamiltonian system matrix
M(t), given as a callable that maps a 1-D array of K times to the
``(K, 2n, 2n)`` stack of system matrices, or to a pair ``(u, w)`` of
``(K, 2n)`` stacks for a rank-one system M = u w^T.  The Jacobi equation of
a one-dimensional control variation is of this form, and its Gauss stage
system shrinks from 3*2n unknowns per column to the three pairings
``w_i . Y_i`` (:func:`_increments`).  Planes are always moved as frames,
never as chart matrices, so a chart pole cannot stop a transport.

Every transport of the package is one call of :func:`_integrate`: one march
over a node list, with each node a step end.  A step is 3-stage
Gauss-Legendre collocation (order 6).  On a linear system it is one small
linear solve, so steps are computed in batches with numpy alone, and its
propagator is symplectic up to rounding, because Gauss methods keep the
quadratic invariants of the flow (Hairer, Lubich & Wanner, *Geometric
Numerical Integration*, 2nd ed., 2006, sections IV.2 and VI.4).  Nothing is
ever re-projected onto the symplectic group.  Piecewise analytic data march
once per piece.

Only the plane of a frame is meaningful, so a plane march, of one frame of
rank k < 2n or of a stack of such frames, accepts a step on the error of
the planes it carries, each frame on its own, where the system varies
little over the step.  Near an order-3 singular instant the flow has an
exponential dichotomy that the propagator must resolve step by step but a
plane need not: the epsilon family takes from a quarter (from eps = 1e-3)
to a twentieth (from eps = 1e-6) of the steps it would take on the
propagator.  The steps of such a march therefore depend on its frames.
The family marches its members as one stack of planes, a member joining
the stack at its eps, so the members share every step above their start.
Any other stack of frames, or a full-rank frame, keeps the error of the
propagator, so each frame of such a stack moves as it would alone.  Every
march moves its frames, one or a stack, by one chain of propagators
(:func:`_chain`), which runs a QR only where a bound on the frames' growth
passes ``_GROWTH``.

Step control (:func:`_integrate`; Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., 1993, section II.4) grows h
from the latest step of a batch: as a march leaves a pole its error falls
along a batch, and the first step would hold h back.  A plane march also
grades the steps of a batch that the error bounds, ``h g**i``, with g
fitted to the error profile of the batch before (:func:`_grade`): along a
batch of one length leaving an order-3 pole, the error fell from about 0.4
of the bound to 0.03 or less.  A march opens with a batch of one step, the
whole first node interval, so a failed opening costs one step, not a
batch: the first step of a march handed over near a pole, or of a
portrait, often fails.  A march whose first step fails tries a ladder of
shorter lengths at once, where shrinking by the order-7 rule took up to
eight batches.  Only the opening gets a ladder: a stalling order-3 march
took three times the batches with one after every rejection.

On a grid of many nodes the node spacing, not the error, sets most steps
(the corpus ``regular`` march's median step error is 2e-7 of its bound),
and every batch pays the same fixed cost of stacked numpy and LAPACK calls.
So after the opening a batch takes every leading node interval within reach
of h as one step, up to ``_RUN`` = 256 of them, which bounds a batch's
memory on any grid; the corpus ``regular`` march takes 1 + 198 steps in two
batches, where batches of ``_BATCH`` = 32 steps took seven.  Batches whose
steps the error sets keep ``_BATCH`` steps.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import PoleError, PreconditionError
from .grassmann import GrassmannCurve, canonicalize

__all__ = ["flow_plane"]


SystemLike = Callable[[np.ndarray], "np.ndarray | tuple[np.ndarray, np.ndarray]"]


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
#: most node intervals one batch takes as one step each (:func:`_proposed`);
#: it bounds a batch's memory on grids of up to ``engine.STEPS_MAX`` nodes
_RUN = 8 * _BATCH
#: a frame entry beyond this bound triggers a QR of that frame
_GROWTH = 1e4
#: share of rtol a step's error estimate may use
_SAFETY = 0.0625
#: smallest rtol honoured; below it the error estimate is rounding noise
_RTOL_MIN = 100.0 * np.finfo(float).eps
#: largest gap between a step's whole and halved propagators, as a share of
#: their size, at which the plane test holds.  On y' = w y a Gauss step is the
#: (3, 3) Pade approximant R(z) of e^z, z = h w, and the share is
#: |R(z) - R(z/2)^2| / R(z/2)^2: 1.5e-3 at z = 2, 7.6e-3 at 2.5, 3.1e-2 at 3
#: and 0.41 at 4, short of the pole of R at z = 4.64.  So 0.01 admits the
#: steps of growth up to e^2.6 that a plane on the dominant directions
#: allows, and keeps them where the gap still measures the error.
_SHARE_MAX = 0.01
#: largest ratio of the system's size between the stage times of a step that
#: the plane test may take.  A step with a pole of order m inside samples the
#: system at least 6 times nearer to the pole than farther away, so its sizes
#: differ by at least 6^m; a step that ends within its own length of the
#: pole, by at least (1.94 / 1.06)^m (3.4 for m = 2).  Such steps, and any
#: other whose coefficients the step does not resolve, are tested on the
#: propagator, as the steps of a stack are.
_VARIATION_MAX = 2.0


def _increments(sys: SystemLike, t: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P - I`` for the Gauss-Legendre propagators ``P`` of the steps ``[t, t + h]``,
    and the system's size (largest entry) at each step's three stage times.

    On ``Y' = A(t) Y`` the stage values of the step from ``Y = I`` solve the
    linear system ``(I - h [a_ij A(t + c_j h)]) Y = 1 (x) I``, and
    ``P = I + h sum_i b_i A_i Y_i``.  The increment is kept apart from ``I``
    so that chaining it rounds at the size of the increment.

    A rank-one system ``A = u w^T`` (``sys`` returns the pair ``(u, w)``)
    has stage values ``Y_i = I + h sum_j a_ij u_j z_j`` with the rows
    ``z_j = w_j^T Y_j``, so the same solve shrinks to the 3x3 system of the
    pairings, ``(I_3 - h [a_ij w_i . u_j]) Z = [w_1; w_2; w_3]``, and
    ``P - I = h sum_i b_i u_i Z_i``; its size is ``max|u| max|w|``.
    """
    a = sys((t[:, None] + h[:, None] * _GAUSS_C).ravel())
    if isinstance(a, tuple):
        u, w = (v.reshape(-1, 3, v.shape[-1]) for v in a)
        lhs = np.eye(3) - _GAUSS_A * (h[:, None, None] * (w @ np.swapaxes(u, 1, 2)))
        z = np.linalg.solve(lhs, w)
        size = np.max(np.abs(u), axis=2) * np.max(np.abs(w), axis=2)
        return h[:, None, None] * (np.swapaxes(u * _GAUSS_B[:, None], 1, 2) @ z), size
    d = a.shape[-1]
    ha = a.reshape(-1, 3, d, d) * h[:, None, None, None]
    lhs = np.eye(3 * d) - np.einsum("ij,kjab->kiajb", _GAUSS_A, ha).reshape(-1, 3 * d, 3 * d)
    rhs = np.broadcast_to(np.tile(np.eye(d), (3, 1)), lhs.shape[:1] + (3 * d, d))
    y = np.linalg.solve(lhs, rhs).reshape(-1, 3, d, d)
    size = np.max(np.abs(a), axis=(1, 2)).reshape(-1, 3)
    return np.einsum("i,kiac->kac", _GAUSS_B, ha @ y), size


def _batch(sys: SystemLike, t: np.ndarray, h: np.ndarray, rtol: float, frames: np.ndarray,
           plane: bool, ladder: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """The stack ``frames`` after each step of a batch, and each step's error over its bound.

    Each step is taken whole and as two halves; the halves' product is the
    propagator, and the gap between the two, over ``2**6 - 1``, its error,
    bounded by ``_SAFETY * rtol`` times the propagator's size.  With
    ``plane``, every frame of ``frames`` being of rank k < 2n, a step whose
    system varies by at most ``_VARIATION_MAX`` over its stage times is
    tested on the planes it carries instead, each frame on its own
    (:func:`_plane_errors`).

    The steps either follow one another, in a chain, or, in a ``ladder``,
    all share their start ``t`` and so start from ``frames``.  A chain moves
    ``frames`` by :func:`_chain` as far as the first step that fails whatever
    the frame; steps after it are not evaluated.  A ladder moves ``frames``
    by every step that passes whatever the frame; the other entries are nan.
    A step whose propagator is not finite, or a batch whose system has a pole
    at a stage time or whose stage solve is singular, gets an infinite error.
    Poles overflow on the way, so floating-point warnings are off.
    """
    half = 0.5 * h
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            d, size = _increments(sys, np.concatenate([t, t, t + half]),
                                  np.concatenate([h, half, half]))
        except (PoleError, np.linalg.LinAlgError):
            return None, np.full(t.size, np.inf)
        k = t.size
        d1, d2 = d[k : 2 * k], d[2 * k :]
        inc = d1 + d2 + d2 @ d1
        gap = d[:k] - inc
        scale = 1.0 + np.max(np.abs(inc), axis=(1, 2))
        top = np.max(np.abs(gap), axis=(1, 2))
        err = top / (63.0 * _SAFETY * rtol * scale)
        if plane:
            size = size.reshape(3, k, 3)  # whole, first half, second half
            smooth = np.max(size, axis=(0, 2)) <= _VARIATION_MAX * np.min(size, axis=(0, 2))
            err = np.where(smooth, top / (_SHARE_MAX * scale), err)
        passing = err <= 1.0
        if ladder:
            idx = np.flatnonzero(passing)
            steps = np.full((k,) + frames.shape, np.nan)
            if idx.size:
                steps[idx] = _renormalise(frames + inc[idx, None] @ frames)
        else:
            idx = np.arange(k if passing.all() else int(np.argmin(passing)))
            steps = _chain(frames, inc[idx])
        if plane:  # the frames before each step are the march's, or the chain's
            before = frames[None] if ladder else np.concatenate([frames[None], steps[:-1]])[: idx.size]
            err[idx] = np.where(smooth[idx], np.maximum(err[idx], _plane_errors(
                inc[idx], gap[idx], before, _SAFETY * rtol)), err[idx])
    return steps, np.where(np.isfinite(err), err, np.inf)


def _chain(f: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """The stack of frames ``f`` after each step of increment ``inc[i]`` in turn.

    Each step gives ``_renormalise(f + inc[i] @ f)`` bit for bit, but the
    exact size of the frames, and the QR, are needed only where a bound on it
    passes ``_GROWTH``: max|f + inc f| <= max|f| (1 + the largest row sum of
    |inc|), and a relative slack of 1e-12 a step covers the rounding of the
    chain and of the bound.
    """
    out = np.empty((inc.shape[0],) + f.shape)
    top = float(np.abs(f).max())
    grow = (1.0 + np.max(np.sum(np.abs(inc), axis=2), axis=1)) * (1.0 + 1e-12)
    for i, g in enumerate(grow.tolist()):
        f = f + inc[i] @ f
        top *= g
        if top > _GROWTH:
            top = float(np.abs(f).max())
            if top > _GROWTH:
                f = _renormalise(f)
                top = float(np.abs(f).max())
        out[i] = f
    return out


def _renormalise(f: np.ndarray) -> np.ndarray:
    """``f`` with each frame one of whose entries passes ``_GROWTH`` replaced
    by the Q of its QR, with R given a positive diagonal, which keeps the sign
    of every block determinant."""
    if np.abs(f).max() > _GROWTH:
        big = np.abs(f).max(axis=(-2, -1)) > _GROWTH
        q, r = np.linalg.qr(f[big])
        f[big] = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None]
    return f


def _plane_errors(inc: np.ndarray, gap: np.ndarray, before: np.ndarray,
                  bound: float) -> np.ndarray:
    """Each step's largest plane error over ``bound``, from the ``(K, S, 2n, k)``
    stacks of frames ``before`` the K steps (or one stack before them all).

    ``inc`` is the step's propagator P minus I, and ``gap`` the whole step's
    propagator minus the halves' one.  With W an orthonormal frame before a
    step and V = P W, its error is the part of ``gap @ W`` outside span(V),
    over sigma_min(V) and ``2**6 - 1``: a first-order bound on how far the
    gap moves the plane.  A step's error is the largest over its S frames.
    Near an order-3 singular instant the flow has an exponential dichotomy,
    and a plane on its dominant directions allows steps far longer than the
    propagator does.
    """
    q = np.linalg.qr(before)[0]
    u, sv, _ = np.linalg.svd(q + inc[:, None] @ q, full_matrices=False)
    eq = gap[:, None] @ q
    out = eq - u @ (np.swapaxes(u, -1, -2) @ eq)
    return np.max(np.sqrt(np.sum(out * out, axis=(-2, -1))) / (63.0 * sv[..., -1] * bound), axis=1)


def _proposed(nodes: np.ndarray, t: float, k: int, h: float,
              g: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Starts, stops, node-end flags and whole-length flags of the steps of one
    batch from ``t``, whose next node is ``nodes[k]``.

    A node interval within reach of h (one step of length at most h, with a
    relative slack of 1e-12) is one step.  The batch takes every leading node
    interval within reach, at most ``_RUN`` of them, then adds steps up to
    ``_BATCH`` in all.  At the grade ``g`` = 1, each node interval is split
    into equal steps of at most h.  At any other grade the steps are
    ``h g**i``, built with numpy: a step that would pass a node ends on it,
    and the rest of it is a step of its own.  The run is found with numpy
    on the look-ahead, and only when the next node is within reach, so a
    batch bound by the error pays nothing for it.  A step is whole unless a
    node cut it short: h (or ``h g**i``) was not shortened for it.
    """
    run = 0
    if abs(float(nodes[k]) - t) / h * (1.0 - 1e-12) <= 1.0:
        ahead = nodes[k : k + _RUN]
        reach = np.abs(np.diff(ahead, prepend=t)) / h * (1.0 - 1e-12) <= 1.0
        run = ahead.size if reach.all() else int(np.argmin(reach))
    s, j = (float(nodes[k + run - 1]), k + run) if run else (t, k)
    head = nodes[k : k + run]
    if g == 1.0 or run >= _BATCH or j == nodes.size:
        starts, stops, ends = [], [], []
        while run + len(starts) < _BATCH and j < nodes.size:
            node = float(nodes[j])
            parts = max(1, math.ceil(abs(node - s) / h * (1.0 - 1e-12)))
            starts.append(s)
            ends.append(parts == 1)
            s, j = (node, j + 1) if parts == 1 else (s + (node - s) / parts, j)
            stops.append(s)
        starts = np.concatenate([[t], head[:-1], starts]) if run else np.array(starts)
        stops = np.concatenate([head, stops])
        return (starts, stops, np.concatenate([np.ones(run, dtype=bool), np.array(ends, dtype=bool)]),
                np.abs(stops - starts) >= 0.5 * h)
    room = _BATCH - run
    ahead = nodes[j : j + room]
    sign = 1.0 if ahead[0] > s else -1.0  # sign * t grows along the march
    graded = sign * s + np.cumsum(h * g ** np.arange(room))
    at_node = np.zeros(room, dtype=bool)
    if graded[-1] >= sign * ahead[0]:  # the steps end on the nodes they pass
        graded, first = np.unique(np.concatenate([sign * ahead, graded[graded < sign * ahead[-1]]]),
                                  return_index=True)
        graded, at_node = graded[:room], first[:room] < ahead.size
    graded = sign * graded
    starts, stops = np.concatenate([[t], head, graded[:-1]]), np.concatenate([head, graded])
    whole = np.abs(stops - starts) >= 0.5 * h
    whole[run:] = ~(at_node | np.concatenate([[False], at_node[:-1]]))
    return starts, stops, np.concatenate([np.ones(run, dtype=bool), at_node]), whole


def _grade(starts: np.ndarray, lengths: np.ndarray, err: np.ndarray, h: float) -> float:
    """The grade g of a batch of steps ``h g**i`` that keeps their error flat.

    The error of a step of length L at t is about C(t) L^7.  With s the
    slope of log C against the distance marched, over the steps ``(starts,
    lengths, err)`` of the batch before, steps ``h g**i`` with
    ``g = exp(-s h / 7)`` keep it flat.  g is 1 without two steps to fit,
    and is held in [0.9, 1.1], so the last step of a batch is at most 19
    times longer or 26 times shorter than its first.
    """
    keep = err > 0.0
    if np.count_nonzero(keep) < 2:
        return 1.0
    x = np.abs(starts[keep] - starts[0]) + 0.5 * lengths[keep]
    x -= x.sum() / x.size
    slope = float(x @ (np.log(err[keep]) - 7.0 * np.log(lengths[keep]))) / float(x @ x)
    return min(1.1, max(0.9, math.exp(-slope * h / 7.0)))


def _integrate(sys: SystemLike, frames: np.ndarray, nodes: Sequence[float],
               rtol: float, *, planes: bool = False) -> np.ndarray:
    """Frames at the strictly monotone ``nodes`` of one march from ``frames``.

    ``frames`` is one ``(2n, k)`` frame or a stack of them; the result has one
    entry per node, the first being ``frames``.  ``sys`` gives the system at
    a 1-D array of times, as the dense stack of its matrices or as the
    rank-one pair ``(u, w)`` of :func:`_increments`; the form changes how a
    step is computed, not how steps are chosen.  Every node is a step end, so
    nothing is interpolated.  A batch of steps (:func:`_batch`) is accepted
    up to the first step whose error estimate exceeds its bound.  h then
    follows the order-7 local error rule: from the rejected step, at most ten
    times shorter, or, when the whole batch is accepted, from its last whole
    step (one h was not shortened for), at most four times longer.

    The march opens with a batch of one step, the whole first node interval.
    If it fails, the next batch is a ladder: ``_BATCH`` steps from the same
    start and frame of lengths h/2, h/4, ..., of which the longest that
    passes is taken as one step; if none passes, a ladder below it follows.
    After the opening, a batch (:func:`_proposed`) takes every leading node
    interval within reach of h as one step, up to ``_RUN`` of them, so a
    march whose steps are set by its grid takes few batches; then it adds
    steps bound by the error, up to ``_BATCH`` steps in all.

    A plane march, of one frame of rank k < 2n or, with ``planes``, of a
    stack of such frames, is marched on the error of each frame's plane
    wherever the system varies little over a step, so its steps depend on
    the frames too; each frame of a stack meets its own bound.  Its steps
    bound by the error are graded, ``h g**i``, with g fitted to the batch
    before when that batch passed whole (:func:`_grade`), and g = 1 after a
    ladder or a rejection: as a march leaves a pole its error falls along a
    batch of steps of one length, from about 0.4 of the bound to 0.03 or
    less.  Node-bound runs are not graded.  Any other stack of frames, or a
    full-rank frame, is marched on the error of the propagator, with each
    node interval split into equal steps, so its steps depend on ``sys``,
    ``nodes`` and ``rtol`` only and each frame of a stack moves as it would
    alone.  An rtol below ``_RTOL_MIN`` is raised to it, as DOP853 does.
    Every march takes its frames from those :func:`_batch` returns after
    each step, moved by the propagators in one chain (:func:`_chain`); only
    the spans are meaningful.  Only the frames at the nodes and one batch of
    frames are held.  A step length that underflows, as near a pole, raises
    :class:`PoleError`.
    """
    nodes = np.asarray(nodes, dtype=float)
    frames = np.asarray(frames, dtype=float)
    rtol = max(rtol, _RTOL_MIN)
    f = frames.reshape((-1,) + frames.shape[-2:]).copy()
    plane = planes or (frames.ndim == 2 and 0 < frames.shape[1] < frames.shape[0])
    out = np.empty((nodes.size,) + f.shape)
    out[0] = f
    span = abs(float(nodes[-1] - nodes[0]))
    direction = 1.0 if nodes[-1] > nodes[0] else -1.0
    t, k = float(nodes[0]), 1
    h = abs(float(nodes[min(1, nodes.size - 1)] - nodes[0]))
    g = 1.0
    opening, ladder = True, False
    while k < nodes.size:
        if ladder:  # lengths h/2, h/4, ... from t, each from the march's frame at t
            starts = np.full(_BATCH, t)
            stops = t + direction * h * 0.5 ** np.arange(1.0, _BATCH + 1.0)
            ends, whole = np.zeros(_BATCH, dtype=bool), np.ones(_BATCH, dtype=bool)
        elif opening:  # the whole first node interval
            starts, stops, ends = nodes[:1], nodes[1:2], np.ones(1, dtype=bool)
            whole = ends
        else:
            starts, stops, ends, whole = _proposed(nodes, t, k, h, g)
        lengths = np.abs(stops - starts)
        steps, err = _batch(sys, starts, stops - starts, rtol, f, plane, ladder)
        if ladder:  # the longest candidate that passes is one step
            taken = np.flatnonzero(err <= 1.0)[:1]
        else:  # the steps up to the first one that fails
            taken = np.arange(int(np.argmax(err > 1.0)) if np.any(err > 1.0) else err.size)
        if taken.size:
            at = taken[ends[taken]]
            f = steps[taken[-1]]
            out[k : k + at.size] = steps[at]
            k += at.size
            t = float(stops[taken[-1]])
        full = taken[whole[taken]]
        opening = opening and not taken.size
        if opening:  # a ladder below the shortest length that failed
            h = float(lengths[-1] if ladder else lengths[0])
            ladder = True
        elif not ladder and taken.size < err.size:  # order-7 rule, from the rejected step
            i = taken.size
            h = lengths[i] * max(0.1, 0.9 * err[i] ** (-1.0 / 7.0))
        else:  # grow from the latest whole step taken
            if ladder:  # as from a batch of the length taken
                ladder, h = False, float(lengths[taken[0]])
            if full.size:
                i = full[-1]
                h = min(4.0 * h, lengths[i] * 0.9 * max(err[i], 1e-300) ** (-1.0 / 7.0))
        if plane:  # graded after a batch that passed whole, from its first step h
            g = _grade(starts[full], lengths[full], err[full], h) if taken.size == err.size else 1.0
        if not h > 16.0 * np.spacing(max(abs(t), span)):
            raise PoleError(
                f"integration stalled at t = {t:.6g} (step size underflow near a pole)", t)
    return out.reshape((nodes.size,) + frames.shape)


def flow_plane(sys: SystemLike, l0: np.ndarray, grid: Sequence[float], *,
               rtol: float = 1e-12) -> GrassmannCurve:
    """Transport a plane along the flow of ``sys``, sampled at the grid nodes.

    The grid must be strictly monotone and is one march (:func:`_integrate`);
    frames are orthonormalised at every node and returned as canonical frames,
    with one QR and one canonicalisation on the stack of nodes.
    """
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

