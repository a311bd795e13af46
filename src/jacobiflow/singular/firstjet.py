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
from ..series import meval
from ..series import srecip
from .frame import NormalFormCoefficients, _pad

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
    only the analytic part is conjugated (order by order); the pole series
    is added back into ``G`` afterwards.
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
    sysreg = np.zeros((ln, 2 * kk, 2 * kk))
    sysreg[:, 0, kk] = _pad(coeffs.b11, ln)
    if kk == 2:
        sysreg[:, 0, 3] = _pad(coeffs.b12, ln)
        sysreg[:, 1, 2] = _pad(coeffs.b12, ln)
        sysreg[:, 1, 3] = _pad(coeffs.b22, ln)
    sysreg[:, kk:, :kk] = coeffs.cnf_stack(ln)
    conj = np.einsum("ij,ljk,km->lim", mat, sysreg, minv)
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


def blowup_equilibrium(case: int, m: int, system: CaseSystem) -> np.ndarray:
    """Algebraic fixed point ``S1(0)`` of the truncated blown-up equation.

    Solves ``S + S G0 S = C'(0)`` exactly: for order one ``G0 = 0`` and the
    fixed point is ``C'(0)``; for order two the top entry solves a quadratic
    (root with the minus sign, the attracting branch).
    """

    if case not in (1, 2, 3):
        raise PreconditionError("case index must be 1, 2 or 3")
    if m not in (1, 2):
        raise PreconditionError("equilibrium exists for vanishing orders one and two")
    if case != system.case or m != system.m:
        raise PreconditionError("case data does not match the transformed system")
    c0 = 0.5 * (system.cprime[0] + system.cprime[0].T)
    if m == 1:
        return c0.copy()
    d = system.d
    gg = 1.0 / system.b2
    s11 = -(system.b2 / 2.0) * (1.0 - d)
    if system.k == 1:
        return np.array([[s11]])
    s12 = c0[0, 1] / (1.0 + gg * s11)
    s22 = c0[1, 1] - gg * s12 * s12
    return np.array([[s11, s12], [s12, s22]])


def _sym_basis(k: int) -> tuple[np.ndarray, ...]:
    if k == 1:
        return (np.array([[1.0]]),)
    return (
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
    )


def _sym_pack(f: np.ndarray) -> list[float]:
    if f.shape[0] == 1:
        return [f[0, 0]]
    return [f[0, 0], f[1, 1], f[0, 1]]


def _sym_unpack(y: np.ndarray, k: int) -> np.ndarray:
    if k == 1:
        return np.array([[y[0]]])
    return np.array([[y[0], y[2]], [y[2], y[1]]])


def _sym_operator(shift: float, gs: np.ndarray, sg: np.ndarray) -> np.ndarray:
    """Matrix of ``Y -> shift*Y + Y@gs + sg@Y`` on packed symmetric entries."""
    cols = []
    for b in _sym_basis(gs.shape[0]):
        f = shift * b + b @ gs + sg @ b
        cols.append(_sym_pack(f))
    return np.array(cols).T


def blowup_series(system: CaseSystem, nterms: int | None = None) -> np.ndarray:
    """Coefficient stack of the blown-up chart series ``S1(t)``.

    Order zero is the fixed point; each higher order solves a small linear
    system on symmetric matrices whose operator is invertible away from the
    resonant exponent collisions.
    """

    ln = system.cprime.shape[0] if nterms is None else int(nterms)
    ln = min(ln, system.cprime.shape[0])
    kk = system.k
    s_star = blowup_equilibrium(system.case, system.m, system)
    out = np.zeros((ln, kk, kk))
    out[0] = s_star
    g0 = system.g0
    gs = g0 @ s_star
    sg = s_star @ g0
    a = system.aprime
    c = system.cprime
    g = system.g
    for k in range(1, ln):
        rhs = c[k].copy()
        for i in range(k):
            j = k - 1 - i
            rhs -= a[i].T @ out[j] + out[j] @ a[i]
        for p in range(k + 1):
            for q in range(k - p + 1):
                r = k - p - q
                if q == 0 and ((p == k and r == 0) or (p == 0 and r == k)):
                    continue
                rhs -= out[p] @ g[q] @ out[r]
        rhs = 0.5 * (rhs + rhs.T)
        tmat = _sym_operator(float(k + 1), gs, sg)
        sv = np.linalg.svd(tmat, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise SeriesResonanceError(f"coefficient solve is singular at order {k}")
        y = np.linalg.solve(tmat, np.array(_sym_pack(rhs)))
        out[k] = _sym_unpack(y, kk)
    return out


def series_start(
    stack: np.ndarray,
    *,
    start_max: float = START_MAX,
    tail_tol: float = TAIL_TOL,
    max_shrinks: int = 60,
) -> float:
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
    for j in range(max_shrinks + 1):
        t0 = start_max * 0.8**j
        growth = last * t0 / prev if prev > 0.0 else (1.0 if last > 0.0 else 0.0)
        if growth < 0.9:
            tail = last * t0**kmax / max(1.0 - growth, 0.1)
            if tail <= tail_tol * scale:
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
