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
3. the series is summed at grid points up to a small ``series_start``
   point; from there the plane ``[I; t S1(t)]``, mapped back by the chart
   transform, is transported as a frame by the block system itself
   (:func:`~jacobiflow.flows._transport`), so the continuation goes on where
   the curve leaves the chart.  ``S1`` is read back wherever the chart
   exists.

The transformed block system keeps its pole in the same entry for all three
transforms, so the conjugation is done numerically order by order instead of
copying per-case formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import JacobiTrace, JumpEvent
from ..errors import (
    ChartError,
    OscillatingError,
    PreconditionError,
    RadiusError,
    ResonanceError,
    SeriesResonanceError,
)
from ..flows import _transport
from ..grassmann import (
    GrassmannCurve,
    _chart_basis,
    _chart_matrix,
    canonicalize,
    extend_by_isotropic,
    horizontal_plane,
    intersection_dimension,
    to_chart,
    vertical_plane,
)
from ..series import _pad, meval, srecip
from .frame import NormalFormCoefficients

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
RESONANCE_TOL = 1e-6
SERIES_TERMS = 30
TAIL_TOL = 1e-10
START_MAX = 0.1
MAX_SHRINKS = 60
ENDPOINT_TOL = 1e-8


# ---------------------------------------------------------------------------
# chart transform selection
# ---------------------------------------------------------------------------


@dataclass
class JetCase:
    """Chart transform data for one incoming plane.

    ``matrix`` is the symplectic transform that sends the post-jump plane to
    the plane spanned by the momentum directions; ``s22plus`` is the shear
    coefficient it carries in case 1 (zero otherwise).
    """

    case: int
    matrix: np.ndarray
    minv: np.ndarray
    s22plus: float
    plane: np.ndarray
    post_plane: np.ndarray
    inserted: np.ndarray


def _case_matrix(case: int, s22plus: float) -> np.ndarray:
    if case == 1:
        m = np.eye(4)
        m[3, 1] = -s22plus
        return m
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    m[1, 3] = -1.0
    m[2, 2] = 1.0
    m[3, 1] = 1.0
    if case == 3:
        m[0, 2] = -1.0
    return m


def first_jet_case(plane: np.ndarray) -> JetCase:
    """Select the chart transform for an incoming plane.

    The selection looks at the chart matrix ``S0`` of the plane over the
    momentum directions (or, failing transversality, at the dimension of the
    intersection with the span of the position directions) and picks the
    transform whose chart covers both the plane and its jump extension.
    With one degree of freedom the jump extension is always the momentum
    axis, so the identity chart covers every incoming line.

    Raises
    ------
    ChartError
        If the plane sits in a position none of the three transforms covers
        (possible only on a measure-zero set of non-transversal positions).
    """

    plane = canonicalize(np.asarray(plane, dtype=float))
    if plane.shape == (2, 1):
        x0 = np.array([1.0, 0.0])
        return JetCase(
            case=1,
            matrix=np.eye(2),
            minv=np.eye(2),
            s22plus=0.0,
            plane=plane,
            post_plane=canonicalize(extend_by_isotropic(plane, x0)),
            inserted=x0,
        )
    if plane.shape != (4, 2):
        raise PreconditionError("chart transforms exist for one or two degrees of freedom")
    # graphs are taken over the momentum span {q = 0}; the complement is the
    # span of the position directions {p = 0}
    base = vertical_plane(2)
    sigma = horizontal_plane(2)
    x0 = np.zeros(4)
    x0[0] = 1.0
    post = canonicalize(extend_by_isotropic(plane, x0))

    s22plus = 0.0
    try:
        s0 = to_chart(plane, sigma, base).s
    except ChartError:
        s0 = None
    if s0 is not None:
        scale = max(1.0, float(np.linalg.norm(s0)))
        z11 = abs(s0[0, 0]) <= CASE_TOL * scale
        z12 = abs(s0[0, 1]) <= CASE_TOL * scale
        z22 = abs(s0[1, 1]) <= CASE_TOL * scale
        if (not z11) or z12:
            case = 1
            s22plus = float(s0[1, 1]) if z11 else float(s0[1, 1] - s0[0, 1] ** 2 / s0[0, 0])
        elif not z22:
            case = 2
        else:
            case = 3
    else:
        case = 2 if intersection_dimension(plane, sigma) == 1 else 3

    mat = _case_matrix(case, s22plus)
    minv = np.linalg.inv(mat)
    try:
        to_chart(mat @ plane, sigma, base)
        res = to_chart(mat @ post, sigma, base).s
    except ChartError as exc:
        raise ChartError(
            "plane position is outside the chart classes of the continuation transforms"
        ) from exc
    if np.linalg.norm(res) > ENDPOINT_TOL * max(1.0, abs(s22plus)) ** 2:
        raise ChartError(
            "selected transform does not send the jump extension to the chart origin"
        )
    return JetCase(
        case=case,
        matrix=mat,
        minv=minv,
        s22plus=s22plus,
        plane=plane,
        post_plane=post,
        inserted=x0,
    )


# ---------------------------------------------------------------------------
# transformed block system
# ---------------------------------------------------------------------------


@dataclass
class CaseSystem:
    """Coefficient data of the block system after the chart transform.

    ``aprime``/``cprime`` are coefficient stacks of the analytic blocks,
    ``g`` is the stack of ``G(t) = t**2 * B'(t)`` (analytic for orders one
    and two), and ``b2`` is the leading weight coefficient.  ``d`` is the
    discriminant root ``sqrt(1 + 4 c'11(0)/b2)`` for order two.
    """

    case: int
    m: int
    b2: float
    d: float | None
    aprime: np.ndarray
    cprime: np.ndarray
    g: np.ndarray
    matrix: np.ndarray
    minv: np.ndarray

    @property
    def k(self) -> int:
        return self.cprime.shape[1]

    @property
    def g0(self) -> np.ndarray:
        return self.g[0]


def case_system(
    coeffs: NormalFormCoefficients,
    case: JetCase | int,
    *,
    s22plus: float = 0.0,
    nterms: int = SERIES_TERMS,
) -> CaseSystem:
    """Conjugate the block system by the selected chart transform.

    The pole entry stays in the same place under all three transforms, so
    only the analytic stack compiled by ``coeffs`` is conjugated (order by
    order); the pole series is added back into ``G`` afterwards.
    """

    kk = coeffs.k
    if kk not in (1, 2):
        raise PreconditionError("continuation needs a one- or two-block reduced system")
    if coeffs.m not in (1, 2):
        raise PreconditionError("continuation series exists for vanishing orders one and two")
    if isinstance(case, JetCase):
        idx, mat, minv = case.case, case.matrix, case.minv
    else:
        idx = int(case)
        if idx not in (1, 2, 3):
            raise PreconditionError("case index must be 1, 2 or 3")
        mat = np.eye(2) if kk == 1 else _case_matrix(idx, s22plus)
        minv = np.linalg.inv(mat)
    if mat.shape != (2 * kk, 2 * kk):
        raise PreconditionError("chart transform size does not match the block system")
    if kk == 1 and idx != 1:
        raise PreconditionError("one degree of freedom admits only the identity chart")

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

    b2 = coeffs.b_m
    d = None
    if coeffs.m == 2:
        disc = 1.0 + 4.0 * cprime[0, 0, 0] / b2
        if disc < -RESONANCE_TOL:
            raise OscillatingError(
                "blow-up discriminant is negative: the curve oscillates into the singularity"
            )
        if abs(disc) <= RESONANCE_TOL:
            raise ResonanceError("blow-up discriminant vanishes to tolerance")
        d = float(np.sqrt(disc))
        if abs(d - 1.0) <= RESONANCE_TOL:
            raise ResonanceError("blow-up exponents collide (discriminant root near one)")
    return CaseSystem(
        case=idx,
        m=coeffs.m,
        b2=b2,
        d=d,
        aprime=aprime,
        cprime=cprime,
        g=g,
        matrix=mat,
        minv=minv,
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


def blowup_series(system: CaseSystem) -> np.ndarray:
    """Coefficient stack of the blown-up chart series ``S1(t)``.

    Order zero is the fixed point ``S*``.  Order ``k`` collects the products
    of the orders already solved and solves ``(k+1) Y + Y G0 S* + S* G0 Y =
    rhs`` on ``vec(Y)`` (row-major).  ``G0`` and ``S*`` are symmetric, so the
    operator ``(k+1) I + I (x) (G0 S*)^T + (S* G0) (x) I`` has the same
    eigenvalues as its restriction to symmetric matrices; it is invertible
    away from the resonant exponent collisions.
    """

    ln = system.cprime.shape[0]
    kk = system.k
    s_star = blowup_equilibrium(system)
    a, c, g = system.aprime, system.cprime, system.g
    eye = np.eye(kk)
    ops = (np.arange(2.0, ln + 1.0)[:, None, None] * np.eye(kk * kk)
           + np.kron(eye, (g[0] @ s_star).T) + np.kron(s_star @ g[0], eye))
    sv = np.linalg.svd(ops, compute_uv=False)
    singular = sv[:, -1] <= 1e-12 * np.maximum(1.0, sv[:, 0])
    if singular.any():
        raise SeriesResonanceError(
            f"coefficient solve is singular at order {int(np.argmax(singular)) + 1}"
        )
    out = np.zeros((ln, kk, kk))
    out[0] = s_star
    # gy[j] = sum_{q + r = j} g[q] out[r], the G S1 product series so far
    gy = np.zeros((ln, kk, kk))
    gy[0] = g[0] @ s_star
    for k in range(1, ln):
        known = out[k - 1 :: -1]  # out[k-1], ..., out[0]
        # the order-k part of G S1 without its unknown g[0] out[k]
        gy_k = np.einsum("qrs,qsc->rc", g[1 : k + 1], known)
        lin = np.einsum("irs,isc->rc", known, a[:k])
        rhs = (c[k] - lin - lin.T - s_star @ gy_k
               - np.einsum("prs,psc->rc", out[1:k], gy[k - 1 : 0 : -1]))
        y = np.linalg.solve(ops[k - 1], (0.5 * (rhs + rhs.T)).ravel()).reshape(kk, kk)
        out[k] = 0.5 * (y + y.T)
        gy[k] = gy_k + g[0] @ out[k]
    return out


def series_start(stack: np.ndarray) -> float:
    """Largest admissible evaluation point of the series below the cap.

    The tail is bounded by the last coefficient continued geometrically with
    the growth ratio read off the top of the stack.
    """

    stack = np.asarray(stack, dtype=float)
    norms = np.array([np.linalg.norm(stack[k]) for k in range(stack.shape[0])])
    kmax = stack.shape[0] - 1
    scale = max(1.0, float(norms[0]))
    last = float(norms[-1])
    head = norms[:-1]
    prev = float(np.max(head[-3:])) if head.size else 0.0
    for j in range(MAX_SHRINKS + 1):
        t0 = START_MAX * 0.8**j
        growth = last * t0 / prev if prev > 0.0 else (1.0 if last > 0.0 else 0.0)
        if growth < 0.9:
            tail = last * t0**kmax / max(1.0 - growth, 0.1)
            if tail <= TAIL_TOL * scale:
                return t0
    raise RadiusError("series has no admissible evaluation point below the cap")


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def first_jet_continuation(
    coeffs: NormalFormCoefficients,
    case: JetCase | np.ndarray,
    grid: np.ndarray,
    *,
    nterms: int = SERIES_TERMS,
    rtol: float = 1e-12,
) -> JacobiTrace:
    """Continue the curve through the singular instant onto a positive grid.

    ``case`` is the chart transform data of the incoming plane (a raw frame
    is accepted and classified first).  Grid points inside the certified
    series window are summed directly; beyond it the plane is transported as
    a frame by one march of ``coeffs.as_callable()`` from ``series_start``
    over the remaining nodes.  ``diagnostics["blowup_values"]`` holds ``S1``
    at every node, and NaN where the plane has left the blow-up chart.  The
    jump at time zero is recorded on the returned trace.
    """

    if isinstance(case, np.ndarray):
        case = first_jet_case(case)
    if not isinstance(case, JetCase):
        raise PreconditionError("case must be a JetCase or a plane frame")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise PreconditionError("grid must be a nonempty finite vector")
    if grid[0] <= 0.0 or (grid.size > 1 and not np.all(np.diff(grid) > 0)):
        raise PreconditionError("grid must be strictly increasing and start after zero")

    system = case_system(coeffs, case, nterms=nterms)
    kk = system.k
    stack = blowup_series(system)
    t0 = series_start(stack)

    planes = []
    blown = np.full((grid.size, kk, kk), np.nan)
    above = grid[grid > t0]
    for i, t in enumerate(grid[: grid.size - above.size]):
        blown[i] = meval(stack, float(t))
        planes.append(canonicalize(case.minv @ np.vstack([np.eye(kk), float(t) * blown[i]])))

    if above.size:
        # past the series window the plane is moved as a frame, so leaving
        # the blow-up chart ends nothing; S1 is read back where the chart exists
        start = case.minv @ np.vstack([np.eye(kk), t0 * meval(stack, t0)])
        # nodes inside a step are read off the interpolant, uncapped: on the
        # degen_m1/m2 corpus traces the planes stay within 6e-13 of a tight march
        frames = _transport(coeffs.as_callable(), start, np.concatenate([[t0], above]), rtol,
                            node_steps=np.inf)
        # the chart of to_chart(case.matrix @ plane, Sigma, Pi), its basis
        # prepared once for all nodes
        chart = _chart_basis(horizontal_plane(kk), vertical_plane(kk))[2]
        for t, frame in zip(above, frames[1:]):
            plane = canonicalize(frame)
            try:
                blown[len(planes)] = _chart_matrix(case.matrix @ plane, chart) / t
            except ChartError:
                pass
            planes.append(plane)

    curve = GrassmannCurve(times=grid, planes=planes)
    jump = JumpEvent(
        time=0.0,
        pre_plane=case.plane,
        post_plane=case.post_plane,
        inserted=case.inserted,
    )
    diagnostics = {
        "case": case.case,
        "order": coeffs.m,
        "series_start": t0,
        "equilibrium": stack[0],
        "blowup_values": blown,
    }
    return JacobiTrace(curve=curve, jumps=[jump], diagnostics=diagnostics)
