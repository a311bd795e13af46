"""Continuation of the curve through a vanishing-order 1 or 2 singularity.

After the jump the curve admits exactly one analytic continuation, and it is
computable from local data alone.  The construction works in a chart where
the post-jump plane is the zero point:

1. a symplectic chart transform (one of three, selected from the position of
   the incoming plane relative to the span of the momentum directions) sends
   the post-jump plane to the reference plane of the chart;
2. the chart matrix is blown up as ``S(t) = t * S1(t)``; the blown-up Riccati
   equation has an algebraic fixed point ``S1(0)`` and a unique formal power
   series through it, built order by order from linear solves;
3. the series is summed, and mapped back by the chart transform, at the
   grid points up to the handover time: the end of the series window
   ``series_start``, or the last grid point if the grid ends first.  Past it
   the curve solves a regular equation, which the caller marches on the
   original data.

The jump itself is :func:`~jacobiflow.singular.jump.jump_operator`'s:
:func:`first_jet_case` takes the post-jump plane it gives and only checks
that its chart covers it.  The order-two exponents are the classifier's:
:func:`case_system` refuses by the rule of :mod:`~jacobiflow.singular.classify`
at the ``tol_thresh`` it is given, as the jump does.

The transformed block system keeps its pole in the same entry for all three
transforms, so the conjugation is done numerically order by order instead of
copying per-case formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import JacobiTrace
from ..errors import (
    ChartError,
    OscillatingError,
    PreconditionError,
    RadiusError,
    ResonanceError,
    SeriesResonanceError,
)
from ..grassmann import (
    GrassmannCurve,
    _chart_matrix,
    _pi_chart,
    canonicalize,
    horizontal_plane,
    intersection_dimension,
    validate_lagrangian,
    vertical_plane,
)
from ..series import _pad, meval, srecip
from .classify import OSCILLATING, THRESHOLD, TOL_THRESH, classify_coefficients
from .frame import DEFAULT_NTERMS, NormalFormCoefficients

__all__ = [
    "JetCase",
    "CaseSystem",
    "first_jet_case",
    "case_system",
    "blowup_equilibrium",
    "blowup_series",
    "series_start",
    "first_jet_continuation",
]

CASE_TOL = 1e-9
TAIL_TOL = 1e-10
START_MAX = 0.1
MAX_SHRINKS = 60
ENDPOINT_TOL = 1e-8


# ---------------------------------------------------------------------------
# chart transform selection
# ---------------------------------------------------------------------------


@dataclass
class JetCase:
    """Chart transform data for one incoming plane and its post-jump plane.

    ``matrix`` is the symplectic transform that sends the post-jump plane,
    handed to :func:`first_jet_case`, to the plane spanned by the momentum
    directions, and ``minv`` its inverse.  In case 1 it is a shear,
    ``-matrix[3, 1]`` its coefficient.
    """

    case: int
    matrix: np.ndarray
    minv: np.ndarray


def _case_matrix(case: int, shear: float) -> np.ndarray:
    if case == 1:
        m = np.eye(4)
        m[3, 1] = -shear
        return m
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    m[1, 3] = -1.0
    m[2, 2] = 1.0
    m[3, 1] = 1.0
    if case == 3:
        m[0, 2] = -1.0
    return m


def first_jet_case(plane: np.ndarray, post: np.ndarray) -> JetCase:
    """Select the chart transform for an incoming plane and its jump extension.

    ``post`` is any frame of the jump extension of ``plane`` by ``e_1``, the
    post-jump plane of :func:`~jacobiflow.singular.jump.jump_operator` in the
    normal-form coordinates, where ``X(0)`` is ``e_1``.  The selection looks
    at the chart matrix ``S0`` of the plane over the momentum directions (or,
    failing transversality, at the dimension of the intersection with the
    span of the position directions) and picks the transform whose chart
    covers both the plane and ``post``: one chart solve of the two
    transformed frames checks both.  With one degree of freedom the jump
    extension is always the momentum axis, so the identity chart covers
    every incoming line.

    Raises
    ------
    ChartError
        If the plane sits in a position none of the three transforms covers
        (possible only on a measure-zero set of non-transversal positions).
    """
    return _jet_case(canonicalize(np.asarray(plane, dtype=float)), post, validate_lagrangian)


def _jet_case(plane: np.ndarray, post: np.ndarray, check=np.asarray) -> JetCase:
    """:func:`first_jet_case` of a canonical ``plane``; ``check`` is applied to the frames
    it charts.  The CLI trusts them, as symplectic images of its parsed plane and its jump."""
    if plane.shape == (2, 1):
        return JetCase(case=1, matrix=np.eye(2), minv=np.eye(2))
    if plane.shape != (4, 2):
        raise PreconditionError("chart transforms exist for one or two degrees of freedom")
    # graphs are taken over the momentum span {q = 0}; the complement is the
    # span of the position directions {p = 0}
    sigma = horizontal_plane(2)
    chart = _pi_chart(vertical_plane(2))

    def chart_s(f):
        # to_chart(f, sigma, Pi) of a plane or a stack, on one chart basis
        s = _chart_matrix(check(f), chart)
        if np.isnan(s).all(axis=(-2, -1)).any():
            raise ChartError("plane is not transversal to the chart plane delta")
        return s

    shear = 0.0
    try:
        s0 = chart_s(plane)
    except ChartError:
        s0 = None
    if s0 is not None:
        scale = max(1.0, float(np.linalg.norm(s0)))
        z11 = abs(s0[0, 0]) <= CASE_TOL * scale
        z12 = abs(s0[0, 1]) <= CASE_TOL * scale
        z22 = abs(s0[1, 1]) <= CASE_TOL * scale
        if (not z11) or z12:
            case = 1
            shear = float(s0[1, 1]) if z11 else float(s0[1, 1] - s0[0, 1] ** 2 / s0[0, 0])
        elif not z22:
            case = 2
        else:
            case = 3
    else:
        case = 2 if intersection_dimension(plane, sigma) == 1 else 3

    mat = _case_matrix(case, shear)
    minv = np.linalg.inv(mat)
    try:
        res = chart_s(mat @ np.stack([plane, np.asarray(post, dtype=float)]))[1]
    except ChartError as exc:
        raise ChartError(
            "plane position is outside the chart classes of the continuation transforms"
        ) from exc
    if np.linalg.norm(res) > ENDPOINT_TOL * max(1.0, abs(shear)) ** 2:
        raise ChartError(
            "selected transform does not send the jump extension to the chart origin"
        )
    return JetCase(case=case, matrix=mat, minv=minv)


# ---------------------------------------------------------------------------
# transformed block system
# ---------------------------------------------------------------------------


@dataclass
class CaseSystem:
    """Coefficient data of the block system after the chart transform.

    ``aprime``/``cprime`` are coefficient stacks of the analytic blocks,
    ``g`` is the stack of ``G(t) = t**2 * B'(t)`` (analytic for orders one
    and two), and ``b2`` is the leading weight coefficient.  ``d`` is the
    classifier's ``delta = sqrt(1 + 4 c11(0)/b2)`` for order two.
    """

    m: int
    b2: float
    d: float | None
    aprime: np.ndarray
    cprime: np.ndarray
    g: np.ndarray

    @property
    def k(self) -> int:
        return self.cprime.shape[1]


def case_system(
    coeffs: NormalFormCoefficients,
    case: JetCase,
    *,
    nterms: int = DEFAULT_NTERMS,
    tol_thresh: float = TOL_THRESH,
) -> CaseSystem:
    """Conjugate the block system by the selected chart transform.

    The pole entry stays in the same place under all three transforms, so
    only the analytic stack compiled by ``coeffs`` is conjugated (order by
    order); the pole series is added back into ``G`` afterwards.  It refuses
    by the verdict of ``classify_coefficients(coeffs, tol_thresh=tol_thresh)``:
    ``Oscillating`` raises :class:`OscillatingError`, ``Threshold`` :class:`ResonanceError`.
    """

    kk = coeffs.k
    if coeffs.m not in (1, 2):
        raise PreconditionError("continuation series exists for vanishing orders one and two")
    mat, minv = case.matrix, case.minv
    if mat.shape != (2 * kk, 2 * kk):
        raise PreconditionError("chart transform size does not match the block system")

    ln = int(nterms)
    conj = np.einsum("ij,ljk,km->lim", mat, _pad(coeffs._system_stack, ln), minv)
    aprime = conj[:, :kk, :kk]
    cprime = conj[:, kk:, :kk]
    lower_right = conj[:, kk:, kk:]
    scale = max(1.0, float(np.max(np.abs(conj))))
    if np.max(np.abs(lower_right + np.swapaxes(aprime, 1, 2))) > 1e-9 * scale:
        raise PreconditionError("transformed system lost its Hamiltonian block structure")

    g = np.zeros((ln, kk, kk))
    g[2:] = conj[: ln - 2, :kk, kk:]
    srb = srecip(_pad(coeffs.b, ln + coeffs.m)[coeffs.m :], ln)
    shift = 2 - coeffs.m
    g[shift:, 0, 0] += srb[: ln - shift]

    report = classify_coefficients(coeffs, tol_thresh=tol_thresh)
    if report.verdict == OSCILLATING:
        raise OscillatingError("the curve oscillates into the singularity")
    if report.verdict == THRESHOLD:
        raise ResonanceError("blow-up exponents degenerate (threshold band)")
    return CaseSystem(
        m=coeffs.m,
        b2=coeffs.b_m,
        d=report.delta,
        aprime=aprime,
        cprime=cprime,
        g=g,
    )


# ---------------------------------------------------------------------------
# equilibrium and series
# ---------------------------------------------------------------------------


def blowup_equilibrium(system: CaseSystem) -> np.ndarray:
    """Algebraic fixed point ``S1(0)`` of the truncated blown-up equation.

    Solves ``S + S G0 S = C'(0)`` exactly: for order one ``G0 = 0`` and the
    fixed point is ``C'(0)``; for order two the top entry solves a quadratic
    (root with the minus sign, the attracting branch).
    """

    c0 = 0.5 * (system.cprime[0] + system.cprime[0].T)
    if system.m == 1:
        return c0.copy()
    d = system.d
    gg = 1.0 / system.b2
    s11 = -(system.b2 / 2.0) * (1.0 - d)
    if system.k == 1:
        return np.array([[s11]])
    s12 = c0[0, 1] / (1.0 + gg * s11)
    s22 = c0[1, 1] - gg * s12 * s12
    return np.array([[s11, s12], [s12, s22]])


def blowup_series(system: CaseSystem, least: int | None = None) -> np.ndarray:
    """Coefficient stack of the blown-up chart series ``S1(t)``.

    Order zero is the fixed point ``S*``.  Order ``k`` collects the products
    of the orders already solved and solves ``(k+1) Y + Y G0 S* + S* G0 Y =
    rhs`` on ``vec(Y)`` (row-major).  ``G0`` and ``S*`` are symmetric, so the
    operator ``(k+1) I + I (x) (G0 S*)^T + (S* G0) (x) I`` has the same
    eigenvalues as its restriction to symmetric matrices; it is invertible
    away from the resonant exponent collisions.  They are inverted from the
    SVD that checks them, and each Cauchy sum of an order is one matmul of a
    row of blocks by a column of blocks.  The solve runs to the system's
    length or, with ``least`` given, stops at the first length from
    ``least`` on that passes the tail test at ``START_MAX``; only then are
    the operators past ``least`` inverted.
    """

    ln = system.cprime.shape[0]
    kk = system.k
    s_star = blowup_equilibrium(system)
    a, c, g = system.aprime, system.cprime, system.g
    eye = np.eye(kk)
    right, left = np.kron(eye, (g[0] @ s_star).T), np.kron(s_star @ g[0], eye)

    def inverses(lo: int, hi: int) -> np.ndarray:
        """The inverted solve operators of the orders ``lo .. hi - 1``."""
        ops = np.arange(lo + 1.0, hi + 1.0)[:, None, None] * np.eye(kk * kk) + right + left
        u, sv, vt = np.linalg.svd(ops)
        singular = sv[:, -1] <= 1e-12 * np.maximum(1.0, sv[:, 0])
        if singular.any():
            raise SeriesResonanceError(
                f"coefficient solve is singular at order {lo + int(np.argmax(singular))}"
            )
        return np.swapaxes(vt, 1, 2) / sv[:, None, :] @ np.swapaxes(u, 1, 2)

    inv = inverses(1, ln if least is None else min(least, ln))
    # rows of blocks [g[0] g[1] ...] and [a[0]^T a[1]^T ...]
    g_row = g.transpose(1, 0, 2).reshape(kk, ln * kk)
    at_row = a.transpose(2, 0, 1).reshape(kk, ln * kk)
    # the orders of S1 in reverse, rev[ln - 1 - j] = S1[j], and gy[j] = sum_{q + r
    # = j} g[q] S1[r], the G S1 product series so far, as columns of blocks;
    # each S1[j] is symmetric, so a column of them transposed is their row
    rev = np.zeros((ln, kk, kk))
    rev[-1] = s_star
    gy = np.zeros((ln, kk, kk))
    gy[0] = g[0] @ s_star
    rev_col, gy_col = rev.reshape(ln * kk, kk), gy.reshape(ln * kk, kk)
    for k in range(1, ln):
        if k > len(inv):
            inv = np.concatenate([inv, inverses(k, ln)])
        known = rev_col[(ln - k) * kk :]  # S1[k-1], ..., S1[0]
        # the order-k part of G S1 without its unknown g[0] S1[k]
        gy_k = g_row[:, kk : (k + 1) * kk] @ known
        lin = at_row[:, : k * kk] @ known  # the transpose of sum_i S1[k-1-i] a[i]
        rhs = (c[k] - lin - lin.T - s_star @ gy_k
               - rev_col[(ln - k) * kk : (ln - 1) * kk].T @ gy_col[kk : k * kk])
        y = (inv[k - 1] @ (0.5 * (rhs + rhs.T)).ravel()).reshape(kk, kk)
        rev[ln - 1 - k] = 0.5 * (y + y.T)
        gy[k] = gy_k + g[0] @ rev[ln - 1 - k]
        if least is not None and k + 1 >= least:
            solved = rev[ln - 1 - k :][::-1]
            if _tail_within(np.linalg.norm(solved, axis=(1, 2)), START_MAX):
                return solved.copy()
    return rev[::-1].copy()


def _tail_within(norms: np.ndarray, t: float) -> bool:
    """Whether a series with per-order norms ``norms`` has a negligible tail at ``t``.

    The tail is bounded by the last coefficient continued geometrically with
    the growth ratio read off the top of the stack; it must stay within
    ``TAIL_TOL`` relative to ``max(1, |c0|)``.
    """
    kmax = norms.size - 1
    last = float(norms[-1])
    prev = float(np.max(norms[-4:-1])) if kmax else 0.0
    growth = last * t / prev if prev > 0.0 else (1.0 if last > 0.0 else 0.0)
    if growth >= 0.9:
        return False
    return last * t**kmax / max(1.0 - growth, 0.1) <= TAIL_TOL * max(1.0, float(norms[0]))


def series_start(stack: np.ndarray) -> float:
    """Largest admissible evaluation point of the series below the cap.

    Admissible means the tail test of :func:`_tail_within` passes there.
    """

    norms = np.linalg.norm(np.asarray(stack, dtype=float), axis=(1, 2))
    for j in range(MAX_SHRINKS + 1):
        t0 = START_MAX * 0.8**j
        if _tail_within(norms, t0):
            return t0
    raise RadiusError("series has no admissible evaluation point below the cap")


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def first_jet_continuation(
    coeffs: NormalFormCoefficients,
    case: JetCase,
    grid: np.ndarray,
    *,
    nterms: int = DEFAULT_NTERMS,
    least: int | None = None,
    tol_thresh: float = TOL_THRESH,
) -> JacobiTrace:
    """Continue the curve through the singular instant up to the handover time.

    ``case`` is the chart transform data of the incoming plane
    (:func:`first_jet_case`).  The block system is conjugated at ``nterms``
    orders and the blown-up series solved to that length, or stopped from
    ``least`` on (:func:`blowup_series`); ``tol_thresh`` is
    :func:`case_system`'s.  The handover time t_h is
    ``series_start``, or the last grid point if the grid ends first.
    The returned curve holds the summed series planes at the grid points
    below t_h and at t_h itself, its last time, as the frames
    ``minv @ [I; t S1(t)]``, not canonicalised: a caller that maps them on
    canonicalises once, after its own map.  The diagnostics add the
    ``equilibrium`` ``S1(0)`` and the series' length ``series_order``.
    """

    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise PreconditionError("grid must be a nonempty finite vector")
    if grid[0] <= 0.0 or (grid.size > 1 and not np.all(np.diff(grid) > 0)):
        raise PreconditionError("grid must be strictly increasing and start after zero")

    system = case_system(coeffs, case, nterms=nterms, tol_thresh=tol_thresh)
    kk = system.k
    stack = blowup_series(system, least)
    t0 = series_start(stack)

    t_h = min(t0, float(grid[-1]))
    times = np.append(grid[grid < t_h], t_h)
    # the planes [I; t S1(t)] of the series window, mapped back, as one stack
    frames = np.concatenate([np.broadcast_to(np.eye(kk), (times.size, kk, kk)),
                             times[:, None, None] * meval(stack, times)], axis=1)
    planes = case.minv @ frames

    curve = GrassmannCurve(times=times, planes=planes)
    return JacobiTrace(curve=curve, diagnostics={"series_start": t0, "equilibrium": stack[0],
                                                 "series_order": len(stack)})
