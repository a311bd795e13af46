"""Linear Hamiltonian flows: plane transport.

Systems are ``lambda' = M(t) lambda`` with a Hamiltonian system matrix
M(t), given as a callable that maps a 1-D array of K times to the
``(K, 2n, 2n)`` stack of system matrices, or to a pair ``(u, w)`` of
``(K, 2n)`` stacks for a rank-one system M = u w^T.  The Jacobi equation of
a one-dimensional control variation is of this form, and its Gauss stage
system shrinks from 4*2n unknowns per column to the four pairings
``w_i . Y_i`` (:func:`_increments`).  Planes are always moved as frames,
never as chart matrices, so a chart pole cannot stop a transport.

Every transport of the package is one call of :func:`_integrate`: one march
over a node list, with each node a step end or the node inside a step of
two node intervals, so nothing is interpolated.  A step is 4-stage
Gauss-Legendre collocation (order 8).  On a linear system it is one small
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
plane need not: a member of the epsilon family marched alone takes from
a third (from eps = 1e-3) to a seventh (from eps = 1e-6) of the steps it
would take on the propagator.  The steps of such a march therefore depend
on its frames.  The family marches its members as one stack of planes, a
member joining the stack at its eps, so the members share every step above
their start.  A trace marches it on the data's own rank-one Jacobi equation,
in coordinates where X(0) is an axis (:mod:`.singular.jump`), not the dense
block system conjugate to it: 1,460 steps on the corpus ``degen_m3`` trace,
not 1,328, each half as costly.  Any other stack of
frames, or a full-rank frame, keeps the error of the propagator, so each
frame of such a stack moves as it would alone.  Every march moves its
frames, one or a stack, by one chain of propagators (:func:`_chain`), which
runs a QR only where a bound on the frames' growth passes ``_GROWTH``.

Step control (:func:`_integrate`; Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., 1993, section II.4) grows h
from the latest step of a batch: as a march leaves a pole its error falls
along a batch, and the first step would hold h back.  A plane march also
grades the steps of a batch that the error bounds, ``h g**i``, with g
fitted to the error profile of the batch before (:func:`_grade`): along a
batch of one length leaving an order-3 pole, the error fell from about 0.2
of the bound to 0.08, and from 0.016 to 3e-6.

One builder places the steps of every batch (:func:`_proposed`): it
proposes the lengths ``h g**i``, and each node interval the batch reaches
takes the fewest of them that cover it, scaled by one ratio so that the
last ends on the node; so at g = 1 each such interval is split evenly.  A
march opens with the batch of its first node interval alone, one step,
so a failed opening costs one step, not a batch: the first step of a
march handed over near a pole, or of a portrait, often fails, by about
1e11 times its bound next to a singular instant.  The batch after a failed
opening is the same builder at g = 2 from far below the failed length,
``L 2**(i - 32)``, which stays short of L, so one batch finds the scale
the error allows where shrinking by the order rule took up to eight
batches (Hairer, Norsett & Wanner, II.4, on starting step sizes).  Every
batch is thus a chain of steps that follow one another.

On a grid of many nodes the node spacing, not the error, sets most steps
(the corpus ``regular`` march's median step error is 6e-8 of its bound),
and every batch pays the same fixed cost of stacked numpy and LAPACK calls.
So after the opening a batch first takes every leading node interval within
reach of h, up to ``_RUN`` = 256 of them, which bounds a batch's memory on
any grid.  Where h covers two of them, a pair of equal neighbours is one
step whose halves are the two intervals (:func:`_paired`): its error is
estimated by step doubling as any step's, and the node between them gets
the first half's propagator from the step's start, off the chain, whose
error is about half the pair's estimate; so one doubling test and one
chain step serve two nodes.  An interval without a partner moves by its
single propagator, as a pair's first half does, so a march over a prefix
of the nodes gives the full march's frames bit for bit wherever both accept
the step to its last node, as on the corpus ``regular`` march; where the
pair across that node fails and its first half alone passes, or the other
way round, the two marches reach the node by different steps.  The corpus
``regular`` march takes 1 + 99 steps in two batches, where one step per
interval took 1 + 198 and batches of ``_BATCH`` = 32 steps took seven.
Batches whose steps the error sets keep ``_BATCH`` steps.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import PoleError, PreconditionError
from .grassmann import GrassmannCurve, _as_frame, canonicalize

__all__ = ["flow_plane"]


SystemLike = Callable[[np.ndarray], "np.ndarray | tuple[np.ndarray, np.ndarray]"]


# 4-stage Gauss-Legendre collocation (order 8): nodes, coefficients, weights
_GAUSS_C = np.array([0.06943184420297371, 0.33000947820757187,
                     0.6699905217924281, 0.9305681557970263])
_GAUSS_A = np.array([
    [0.08696371128436346, -0.026604180084998794, 0.012627462689404725, -0.0035551496857956833],
    [0.18811811749986806, 0.16303628871563652, -0.027880428602470895, 0.006735500594538156],
    [0.16719192197418878, 0.35395300603374397, 0.16303628871563652, -0.014190694931141144],
    [0.1774825722545226, 0.31344511474186837, 0.35267675751627187, 0.08696371128436346],
])
_GAUSS_B = np.array([0.17392742256872692, 0.32607257743127305,
                     0.32607257743127305, 0.17392742256872692])
#: stages per step, and the order of the step, 2 * stages
_STAGES = _GAUSS_B.size
_ORDER = 2 * _STAGES
#: the gap between a step's whole and halved propagators over this is its error
_DOUBLING = 2.0**_ORDER - 1.0
#: steps proposed, and evaluated, per batch
_BATCH = 32
#: most node intervals one batch takes as a run, one or two a step
#: (:func:`_proposed`); it bounds a batch's memory on grids of up to
#: ``engine.STEPS_MAX`` nodes
_RUN = 8 * _BATCH
#: a frame entry beyond this bound triggers a QR of that frame
_GROWTH = 1e4
#: share of rtol a step's error estimate may use
_SAFETY = 0.0625
#: smallest rtol honoured; below it the error estimate is rounding noise
_RTOL_MIN = 100.0 * np.finfo(float).eps
#: largest gap between a step's whole and halved propagators, as a share of
#: their size, at which the plane test holds.  On y' = w y a Gauss step is the
#: (4, 4) Pade approximant R(z) of e^z, z = h w, and the share is
#: |R(z) - R(z/2)^2| / R(z/2)^2: 2.255e-5 at z = 2, 1.791e-4 at 2.5, 9.983e-4
#: at 3 and 1.591e-2 at 4.  Its value at z = 2.6 admits the steps of growth up
#: to e^2.6 that a plane on the dominant directions allows, and keeps them
#: where the gap still measures the error.
_SHARE_MAX = 2.587e-4
#: largest ratio of the system's size between the stage times of a step that
#: the plane test may take.  A step with a pole of order m inside samples the
#: system at least 8.6 times nearer to the pole than farther away, so its
#: sizes differ by at least 8.6^m; a step that ends within its own length of
#: the pole, by at least (1.97 / 1.03)^m (3.6 for m = 2).  Such steps, and any
#: other whose coefficients the step does not resolve, are tested on the
#: propagator, as the steps of a stack are.
_VARIATION_MAX = 2.0


def _absmax(a: np.ndarray, axes: int) -> np.ndarray:
    """The largest ``|a|`` over the last ``axes`` axes of ``a``.

    numpy reduces short trailing axes one output at a time, which costs about
    ten times more here than reducing the same entries laid out as a leading
    axis; the maxima are the same bit for bit.
    """
    lead = a.shape[: a.ndim - axes]
    return np.abs(a).reshape(lead + (math.prod(a.shape[len(lead) :]),)).T.copy().max(axis=0).T


def _sum(a: np.ndarray, axes: int) -> np.ndarray:
    """The sum of ``a`` over its last ``axes`` axes, bit for bit numpy's.

    numpy adds fewer than 8 entries in order, as a reduction over a leading
    axis does, so those are laid out as one, for the speed :func:`_absmax`
    gets; 8 or more it adds pairwise, and those keep numpy's own reduction.
    """
    lead = a.shape[: a.ndim - axes]
    flat = a.reshape(lead + (math.prod(a.shape[len(lead) :]),))
    if flat.shape[-1] >= 8:
        return flat.sum(axis=-1)
    return flat.T.copy().sum(axis=0).T


def _increments(sys: SystemLike, t: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P - I`` for the Gauss-Legendre propagators ``P`` of the steps ``[t, t + h]``,
    and the system's size (largest entry) at each step's ``_STAGES`` stage times.

    On ``Y' = A(t) Y`` the stage values of the step from ``Y = I`` solve the
    linear system ``(I - h [a_ij A(t + c_j h)]) Y = 1 (x) I``, and
    ``P = I + h sum_i b_i A_i Y_i``.  The increment is kept apart from ``I``
    so that chaining it rounds at the size of the increment.

    A rank-one system ``A = u w^T`` (``sys`` returns the pair ``(u, w)``)
    has stage values ``Y_i = I + h sum_j a_ij u_j z_j`` with the rows
    ``z_j = w_j^T Y_j``, so the same solve shrinks to the s x s system of the
    pairings, ``(I_s - h [a_ij w_i . u_j]) Z = [w_1; ...; w_s]``, and
    ``P - I = h sum_i b_i u_i Z_i``; its size is ``max|u| max|w|``.
    """
    s = _STAGES
    a = sys((t[:, None] + h[:, None] * _GAUSS_C).ravel())
    if isinstance(a, tuple):
        u, w = (v.reshape(-1, s, v.shape[-1]) for v in a)
        lhs = np.eye(s) - _GAUSS_A * (h[:, None, None] * (w @ np.swapaxes(u, 1, 2)))
        z = np.linalg.solve(lhs, w)
        size = _absmax(u, 1) * _absmax(w, 1)
        return h[:, None, None] * (np.swapaxes(u * _GAUSS_B[:, None], 1, 2) @ z), size
    d = a.shape[-1]
    ha = a.reshape(-1, s, d, d) * h[:, None, None, None]
    lhs = np.eye(s * d) - np.einsum("ij,kjab->kiajb", _GAUSS_A, ha).reshape(-1, s * d, s * d)
    rhs = np.broadcast_to(np.tile(np.eye(d), (s, 1)), lhs.shape[:1] + (s * d, d))
    y = np.linalg.solve(lhs, rhs).reshape(-1, s, d, d)
    size = _absmax(a, 2).reshape(-1, s)
    return np.einsum("i,kiac->kac", _GAUSS_B, ha @ y), size


def _batch(sys: SystemLike, t: np.ndarray, h: np.ndarray, rtol: float, frames: np.ndarray,
           plane: bool, first: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The stack ``frames`` at the end of each step of a chain, and at a node
    inside it, and each step's error over its bound.

    Each step is taken whole and as two halves; the halves' product is the
    propagator, and the gap between the two, over ``_DOUBLING``, its error,
    bounded by ``_SAFETY * rtol`` times the propagator's size.  With
    ``plane``, every frame of ``frames`` being of rank k < 2n, a step whose
    system varies by at most ``_VARIATION_MAX`` over its stage times is
    tested on the planes it carries instead, each frame on its own
    (:func:`_plane_errors`).

    The halves are equal unless ``first``, the length of each step's part up
    to a node (nan for none), says otherwise.  A step with a node inside, a
    pair of node intervals, is halved there, and its frames at that node are
    its first half's propagator applied to the frames before it.  A step
    whose part is the whole step, a lone node interval, moves by its single
    propagator, whose error is the halves' gap times ``2**_ORDER /
    _DOUBLING``.  Either way a node is reached by the single step from the
    frames before it, as a march that ends there reaches it.

    The steps follow one another.  ``frames`` are moved by :func:`_chain` as
    far as the first step that fails whatever the frame; steps after it are
    not evaluated.  The frames come as a ``(K, 2)`` stack: at the node inside
    each step (unset where there is none), and at its end.  A step whose
    propagator is not finite, or a batch whose system has a pole at a stage
    time or whose stage solve is singular, gets an infinite error.  Poles
    overflow on the way, so floating-point warnings are off.
    """
    k = t.size
    single, inner = first == h, first < h
    cut = np.where(inner, first, 0.5 * h)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            d, size = _increments(sys, np.concatenate([t, t, t + cut]),
                                  np.concatenate([h, cut, h - cut]))
        except (PoleError, np.linalg.LinAlgError):
            return None, np.full(k, np.inf)
        d1, d2 = d[k : 2 * k], d[2 * k :]
        inc = d1 + d2 + d2 @ d1
        gap = d[:k] - inc
        if single.any():
            inc[single] = d[:k][single]
            gap[single] *= 2.0**_ORDER
        scale = 1.0 + _absmax(inc, 2)
        top = _absmax(gap, 2)
        err = top / (_DOUBLING * _SAFETY * rtol * scale)
        if plane:  # the sizes at the stage times of the whole step and of its halves
            size = size.reshape(3, k, _STAGES).transpose(0, 2, 1).reshape(3 * _STAGES, k)
            smooth = size.max(axis=0) <= _VARIATION_MAX * size.min(axis=0)
            err = np.where(smooth, top / (_SHARE_MAX * scale), err)
        passing = err <= 1.0
        idx = np.arange(k if passing.all() else int(np.argmin(passing)))
        steps = np.empty((idx.size, 2) + frames.shape)
        at = np.flatnonzero(inner[idx])
        steps[:, 1], steps[at, 0] = _chain(frames, inc[idx], (at, d1[at]))
        if plane:  # the frames before each step: the march's, then the chain's
            before = np.concatenate([frames[None], steps[:-1, 1]])[: idx.size]
            err[idx] = np.where(smooth[idx], np.maximum(err[idx], _plane_errors(
                inc[idx], gap[idx], before, _SAFETY * rtol)), err[idx])
    return steps, np.where(np.isfinite(err), err, np.inf)


def _chain(f: np.ndarray, inc: np.ndarray,
           part: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The stack of frames ``f`` after each step of increment ``inc[i]`` in turn,
    and after the parts of some steps.

    Each step gives ``_renormalise(f + inc[i] @ f)`` bit for bit, but the
    exact size of the frames, and the QR, are needed only where a bound on it
    passes ``_GROWTH``: max|f + inc f| <= max|f| (1 + the largest row sum of
    |inc|), and a relative slack of 1e-12 a step covers the rounding of the
    chain and of the bound.

    ``part``, step indices ``i`` and increments ``d``, asks for the frames
    after the part ``d[j]`` of step ``i[j]``, off the chain: with ``g`` the
    frames before that step, ``_renormalise(g + d[j] @ g)``, bit for bit what
    the chain would give for a step ``d[j]``.  They are returned second.
    """
    out = np.empty((inc.shape[0],) + f.shape)
    start = f
    top = float(np.abs(f).max())
    grow = (1.0 + _absmax(_sum(np.abs(inc), 1), 1)) * (1.0 + 1e-12)
    for i, g in enumerate(grow.tolist()):
        f = f + inc[i] @ f
        top *= g
        if top > _GROWTH:
            top = float(np.abs(f).max())
            if top > _GROWTH:
                f = _renormalise(f)
                top = float(np.abs(f).max())
        out[i] = f
    at, d = part
    if not at.size:
        return out, out[:0]
    g = out[at - 1]
    g[at == 0] = start
    return out, _renormalise(g + d[:, None] @ g)


def _renormalise(f: np.ndarray) -> np.ndarray:
    """The stack ``f``, for :func:`_chain`, with each frame one of whose
    entries passes ``_GROWTH`` replaced by the Q of its QR, with R given a
    positive diagonal, which keeps the sign of every block determinant."""
    if np.abs(f).max() > _GROWTH:
        big = np.abs(f).max(axis=(-2, -1)) > _GROWTH
        q, r = np.linalg.qr(f[big])
        f[big] = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None]
    return f


def _plane_errors(inc: np.ndarray, gap: np.ndarray, before: np.ndarray,
                  bound: float) -> np.ndarray:
    """Each step's largest plane error over ``bound``, from the ``(K, S, 2n, k)``
    stacks of frames ``before`` each of the K steps of a chain.

    ``inc`` is the step's propagator P minus I, and ``gap`` the whole step's
    propagator minus the halves' one.  With W an orthonormal frame before a
    step and V = P W, its error is the part of ``gap @ W`` outside span(V),
    over sigma_min(V) and ``_DOUBLING``: a first-order bound on how far the
    gap moves the plane.  A step's error is the largest over its S frames.
    Near an order-3 singular instant the flow has an exponential dichotomy,
    and a plane on its dominant directions allows steps far longer than the
    propagator does.
    """
    q = np.linalg.qr(before)[0]
    u, sv, _ = np.linalg.svd(q + inc[:, None] @ q, full_matrices=False)
    eq = gap[:, None] @ q
    out = eq - u @ (np.swapaxes(u, -1, -2) @ eq)
    err = np.sqrt(_sum(out * out, 2)) / (_DOUBLING * sv[..., -1] * bound)
    return _absmax(err, 1)


def _proposed(nodes: np.ndarray, t: float, k: int, h: float, g: float) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Starts, stops, node-end flags, whole-length flags and inner nodes of the
    steps of one batch from ``t``, whose next node is ``nodes[k]``.

    A node interval within reach of h (one step of length at most h, with a
    relative slack of 1e-12) is one step.  The batch takes every leading node
    interval within reach, at most ``_RUN`` of them; the run is found with
    numpy on the look-ahead, and only when the next node is within reach, so
    a batch bound by the error pays nothing for it.  Where h covers two of
    its intervals, the run takes them in pairs (:func:`_paired`).  Then it
    proposes the lengths ``h g**i``, up to ``_BATCH`` steps and run intervals
    in all: each node interval takes the fewest of the next lengths that
    reach its node, scaled by gap/sum so that the last ends on it, and steps
    short of their node keep their lengths.  At g = 1 each node interval
    reached is thus split evenly.  The batch ends at the last of ``nodes``.
    A step is whole unless a node cut it below half its proposed length.
    A step's inner node is the node that its single propagator from its
    start reaches: the middle node of a pair, the stop of a lone interval,
    nan for any other step.
    """
    run, part = 0, np.zeros(0)  # part: each leading node interval over h
    if (float(nodes[k]) - t) / h * (1.0 - 1e-12) <= 1.0:
        part = np.diff(nodes[k : k + _RUN], prepend=t) / h
        reach = part * (1.0 - 1e-12) <= 1.0
        run = part.size if reach.all() else int(np.argmin(reach))
    head, span, inside = nodes[k : k + run], part[:run], np.zeros(0)
    twice = span * (1.0 - 1e-12) <= 0.5
    if twice.any():
        head, span, inside = _paired(head, span, twice)
    s, j = (float(nodes[k + run - 1]), k + run) if run else (t, k)
    room = _BATCH - run if j < nodes.size else 0
    marched = np.cumsum(h * g ** np.arange(room))
    # the steps in each node interval entered are anchor + (marched - ref) * scale:
    # back from its node at gap/sum if the batch reaches it, so that the last
    # ends on the node bit for bit, else on from its start
    rows, counts, cuts, base, first = [], [], [], 0.0, 0
    for node in nodes[j : j + room].tolist():
        i = int(marched.searchsorted(base + (node - s) * (1.0 - 1e-12)))
        if i == room:
            rows.append((s, base, 1.0))
            counts.append(room - first)
            break
        end = float(marched[i])
        rows.append((node, end, (node - s) / (end - base)))
        counts.append(i + 1 - first)
        cuts.append(i)
        s, base, first = node, end, i + 1
    anchor, ref, scale = np.repeat(np.array(rows).reshape(-1, 3), counts, axis=0).T
    stops = np.concatenate([head, anchor + (marched[: scale.size] - ref) * scale])
    ends = np.arange(stops.size) < head.size
    ends[[head.size + i for i in cuts]] = True
    mids = np.full(stops.size, np.nan)
    mids[: inside.size] = inside
    return (np.concatenate([[t], stops[:-1]]), stops, ends,
            np.concatenate([span, scale]) >= 0.5, mids)


def _paired(stops: np.ndarray, part: np.ndarray,
            twice: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The steps of a run of node intervals that end at ``stops``, each
    ``part`` of h long: their stops, their lengths over h and their inner
    nodes (:func:`_proposed`).  ``twice`` marks the intervals that fit twice
    in h.

    Neighbours that both fit twice and are equal to a relative 1e-9 pair up,
    from the left of each stretch of them, and each pair is one step halved
    at its middle node.  Any other interval is one step, and one that fits
    twice is lone: it moves by its single propagator, as the first half of a
    pair does, so that a march that stops at a node reaches it as the march
    past it does when both steps pass.  All of it is numpy, with no loop
    over the intervals.
    """
    same = twice[1:] & twice[:-1] & (
        np.abs(part[1:] - part[:-1]) <= 1e-9 * np.maximum(part[1:], part[:-1]))
    i = np.flatnonzero(same)
    head = np.ones(i.size, dtype=bool)  # the starts of the stretches of equal neighbours
    head[1:] = i[1:] - i[:-1] > 1
    i = i[(i - np.maximum.accumulate(i * head)) % 2 == 0]  # each start and every other one after it
    lead = np.ones(stops.size, dtype=bool)
    lead[i + 1] = False
    s = np.flatnonzero(lead)
    return (stops[np.append(s[1:], stops.size) - 1], np.add.reduceat(part, s),
            np.where(twice[s], stops[s], np.nan))


def _grade(starts: np.ndarray, lengths: np.ndarray, err: np.ndarray, h: float) -> float:
    """The grade g of a batch of steps ``h g**i`` that keeps their error flat.

    The error of a step of length L at t is about C(t) L^(p + 1), p =
    ``_ORDER``.  With s the slope of log C against the distance marched, over
    the steps ``(starts, lengths, err)`` of the batch before, steps ``h g**i``
    with ``g = exp(-s h / (p + 1))`` keep it flat.  g is 1 without two steps
    to fit, and is held in [0.9, 1.1], so the last step of a batch is at most
    19 times longer or 26 times shorter than its first.
    """
    keep = err > 0.0
    if np.count_nonzero(keep) < 2:
        return 1.0
    x = starts[keep] - starts[0] + 0.5 * lengths[keep]
    x -= x.sum() / x.size
    slope = float(x @ (np.log(err[keep]) - (_ORDER + 1) * np.log(lengths[keep]))) / float(x @ x)
    return min(1.1, max(0.9, math.exp(-slope * h / (_ORDER + 1))))


def _integrate(sys: SystemLike, frames: np.ndarray, nodes: Sequence[float],
               rtol: float, *, planes: bool = False) -> np.ndarray:
    """Frames at the strictly increasing ``nodes`` of one march from ``frames``.

    ``frames`` is one ``(2n, k)`` frame or a stack of them; the result has one
    entry per node, the first being ``frames``.  ``sys`` gives the system at
    a 1-D array of times, as the dense stack of its matrices or as the
    rank-one pair ``(u, w)`` of :func:`_increments`; the form changes how a
    step is computed, not how steps are chosen.  Every node is a step end
    or the node inside a pair step, so nothing is interpolated.  A batch of
    steps (:func:`_batch`) is accepted
    up to the first step whose error estimate exceeds its bound.  h then
    follows the local error rule of order ``_ORDER + 1``: from the rejected
    step, at most ten times shorter, or, when the whole batch is accepted,
    from its last whole step (one no node cut below half its proposed
    length), at most four times longer.

    :func:`_proposed` builds every batch, as the module docstring says;
    during the opening it is given the nodes up to the first only, so no
    batch passes that node.  After a failed opening step of length L the
    march takes the steps of the doubling chain from ``L 2**-_BATCH`` up to
    the first that fails and goes on from the longest it took, with g = 1;
    if the chain's first step fails, a chain below it follows.

    A plane march, of one frame of rank k < 2n or, with ``planes``, of a
    stack of such frames, is marched on the error of each frame's plane
    wherever the system varies little over a step, so its steps depend on
    the frames too; each frame of a stack meets its own bound.  Its steps
    bound by the error are graded, ``h g**i``, with g fitted to the batch
    before when that batch passed whole (:func:`_grade`), and g = 1 after
    the opening or a rejection: as a march leaves a pole its error falls
    along a batch of steps of one length, by a factor of 2.5 to 5,000 on
    the corpus ``degen_m3`` trace.  Node-bound runs are not graded.  Any
    other stack of frames, or a full-rank frame, is marched on the error of
    the propagator with g = 1, each node interval a batch reaches split
    evenly, so its steps depend on ``sys``, ``nodes`` and ``rtol`` only and
    each frame of a stack moves as it would alone.  An rtol below
    ``_RTOL_MIN`` is raised to it, as DOP853 does.
    Every march takes its frames from those :func:`_batch` returns after
    each step, moved by the propagators in one chain (:func:`_chain`), and
    at the node inside each pair step; only the spans are meaningful.  Only
    the frames at the nodes and one batch of frames are held.  A step length
    that underflows, as near a pole, raises :class:`PoleError`.
    """
    nodes = np.asarray(nodes, dtype=float)
    frames = np.asarray(frames, dtype=float)
    rtol = max(rtol, _RTOL_MIN)
    f = frames.reshape((-1,) + frames.shape[-2:]).copy()
    plane = planes or (frames.ndim == 2 and 0 < frames.shape[1] < frames.shape[0])
    out = np.empty((nodes.size,) + f.shape)
    out[0] = f
    span = float(nodes[-1] - nodes[0])
    t, k = float(nodes[0]), 1
    h = float(nodes[min(1, nodes.size - 1)] - nodes[0])
    g, opening = 1.0, True
    while k < nodes.size:
        # the opening takes the whole first node interval, and after it fails
        # a chain of steps doubling from h 2**-_BATCH up to h/2, short of the node
        starts, stops, ends, whole, mids = _proposed(nodes[: k + 1] if opening else nodes, t, k,
                                                     h * 2.0 ** -_BATCH if g == 2.0 else h, g)
        lengths = stops - starts
        steps, err = _batch(sys, starts, lengths, rtol, f, plane, mids - starts)
        taken = np.arange(int(np.argmax(err > 1.0)) if np.any(err > 1.0) else err.size)
        if taken.size:
            n = taken.size  # the nodes reached: inside each step, then at its end
            at = np.stack([mids[:n] - starts[:n] < lengths[:n], ends[:n]], axis=1)
            reached = steps[:n][at]
            f = steps[n - 1, 1]
            out[k : k + len(reached)] = reached
            k += len(reached)
            t = float(stops[n - 1])
        chain, opening = opening and g != 1.0, opening and not taken.size
        if opening:  # a chain below the shortest length that failed
            h, g = float(lengths[0]), 2.0
        elif chain:  # on from the longest step the chain took
            h, g = float(lengths[taken[-1]]), 1.0
        elif taken.size < err.size:  # the order rule, from the rejected step
            i = taken.size
            h, g = lengths[i] * max(0.1, 0.9 * err[i] ** (-1.0 / (_ORDER + 1))), 1.0
        else:  # grow from the latest whole step taken; a plane march grades the next batch
            full = taken[whole[taken]]
            if full.size:
                i = full[-1]
                h = min(4.0 * h, lengths[i] * 0.9 * max(err[i], 1e-300) ** (-1.0 / (_ORDER + 1)))
            if plane:
                g = _grade(starts[full], lengths[full], err[full], h)
        if not h > 16.0 * np.spacing(max(abs(t), span)):
            raise PoleError(
                f"integration stalled at t = {t:.6g} (step size underflow near a pole)", t)
    return out.reshape((nodes.size,) + frames.shape)


def flow_plane(sys: SystemLike, l0: np.ndarray, grid: Sequence[float], *,
               rtol: float = 1e-12) -> GrassmannCurve | list[GrassmannCurve]:
    """Transport a plane along the flow of ``sys``, sampled at the grid nodes.

    ``l0`` is one ``(2n, k)`` frame, giving one curve, or a ``(S, 2n, k)``
    stack, giving a list of S curves.  The grid must increase strictly, as the
    times of a curve do, and is refused before the march otherwise; it is one
    march (:func:`_integrate`).  A stack is marched on the propagator's
    error, so each frame moves as it would alone in a stack (one frame of rank
    k < 2n is marched on its plane's error).  Frames are orthonormalised at
    every node and returned as canonical frames, with one QR and one
    canonicalisation on the stack of all nodes and frames.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.diff(grid) > 0):
        raise PreconditionError("grid must be strictly increasing")
    l0 = _as_frame(l0)
    frames = _integrate(sys, np.linalg.qr(l0)[0], grid, rtol)
    frames[1:] = np.linalg.qr(frames[1:])[0]
    planes = canonicalize(frames.reshape((-1,) + l0.shape[-2:])).reshape(frames.shape[:-1] + (-1,))
    if l0.ndim == 2:
        return GrassmannCurve(times=grid, planes=planes)
    return [GrassmannCurve(times=grid, planes=stack) for stack in np.swapaxes(planes, 0, 1)]

