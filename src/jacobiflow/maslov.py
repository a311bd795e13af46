"""Maslov index of curves of Lagrangian planes.

The index of a *simple arc* (a curve segment contained in the chart of some
plane Delta, with endpoints transversal to the reference plane Pi) is half
the signature difference of the endpoint chart matrices:

    index = (sign S_1 - sign S_0) / 2.

With this sign convention the arc ``S(t) = (t, .)`` in dimension one (chart
matrix moving from -1 to +1 through 0) has index +1.

:func:`maslov_index` sums simple-arc indices over a sampled curve, choosing
chart planes from a fixed catalogue and bisecting the sample range when no
single catalogue plane covers an arc.

Both counting functions work through one memo per curve (``_CurveMemo``):
each node is validated, tested against the reference plane and
orthonormalised once, each catalogue chart is prepared once, and each
(node, chart) margin and chart matrix is computed once.
:func:`maslov_partial_sums` is therefore one pass over the intervals; each
increment follows the rule :func:`maslov_index` applies to a two-node arc.
The trace chart columns of the CLI are read from the same memo.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ArcError, ChartError, JacobiflowError, PreconditionError, RefinementError
from .flows import _system, fundamental_solution
from .symplectic import apply_j
from .grassmann import (
    GrassmannCurve,
    _as_frame,
    _basis_distance,
    _basis_margin,
    _chart_basis,
    _chart_matrix,
    _orthonormal,
    horizontal_plane,
    intersection_dimension,
    random_lagrangian,
    to_chart,
    validate_lagrangian,
    vertical_plane,
)

__all__ = [
    "simple_arc_index",
    "maslov_index",
    "maslov_partial_sums",
    "vertical_intersection_count",
    "reference_catalogue",
]

#: number of pseudo-random catalogue planes and their fixed seed
N_RANDOM_CHARTS = 16
_CATALOGUE_SEED = 20240913
#: minimal principal angle for a chart plane to be considered usable
CHART_MARGIN = 1e-5
MAX_DEPTH = 40

_catalogue_cache: dict[int, list[np.ndarray]] = {}


def reference_catalogue(n: int) -> list[np.ndarray]:
    """Fixed catalogue of candidate chart planes: Sigma, Pi, then 16
    pseudo-random Lagrangian planes drawn with a fixed seed."""
    if n not in _catalogue_cache:
        rng = np.random.default_rng(_CATALOGUE_SEED + n)
        cats = [horizontal_plane(n), vertical_plane(n)]
        cats.extend(random_lagrangian(rng, n) for _ in range(N_RANDOM_CHARTS))
        _catalogue_cache[n] = cats
    return _catalogue_cache[n]


def _signature(s: np.ndarray, tol: float = 1e-9) -> int:
    """Signature of a symmetric matrix; ArcError on (numerically) zero eigenvalues."""
    w = np.linalg.eigvalsh(0.5 * (s + s.T))
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.any(np.abs(w) <= tol * scale):
        raise ArcError("chart matrix is singular: endpoint touches the reference plane")
    return int(np.sum(w > 0) - np.sum(w < 0))


def _signature_change(s0: np.ndarray, s1: np.ndarray) -> int:
    """Index of a simple arc from its endpoint chart matrices."""
    return (_signature(s1) - _signature(s0)) // 2


def simple_arc_index(l0: np.ndarray, l1: np.ndarray, pi: np.ndarray, delta: np.ndarray) -> int:
    """Index of a simple arc from l0 to l1 in the chart ``(delta, pi)``.

    Both endpoints must be transversal to ``delta`` (so chart matrices
    exist) and to ``pi`` (so the signatures are defined); the arc is assumed
    to stay inside the chart.
    """
    s0 = to_chart(l0, delta, pi).s
    s1 = to_chart(l1, delta, pi).s
    return _signature_change(s0, s1)


class _CurveMemo:
    """What Maslov counting computes along one sampled curve, each piece once.

    Per node: the validated frame, ``dim(node ∩ pi)`` and an orthonormal
    basis; per catalogue chart: the prepared chart basis over ``pi`` and its
    margin to ``pi``; per (node, chart): the margin and the chart matrix;
    per interval: the angular sample gap.  Entries are computed on first
    use by the same arithmetic as the direct ``grassmann`` calls, and a
    library error raised while computing one is raised again on every later
    use, so answers and failures are those of the uncached computation.
    """

    def __init__(self, planes: Sequence[np.ndarray], pi: np.ndarray) -> None:
        self.planes = planes
        self._pi = pi
        self._cache: dict[tuple, object] = {}

    def _get(self, key: tuple, compute):
        try:
            hit = self._cache[key]
        except KeyError:
            try:
                hit = compute()
            except JacobiflowError as exc:
                hit = exc
            self._cache[key] = hit
        if isinstance(hit, JacobiflowError):
            raise hit
        return hit

    # -- cached pieces ---------------------------------------------------

    def pi(self) -> np.ndarray:
        return self._get(("pi",), lambda: validate_lagrangian(np.asarray(self._pi, dtype=float)))

    def catalogue(self) -> list[np.ndarray]:
        return reference_catalogue(self.pi().shape[0] // 2)

    def _pi_dimension(self, k: int) -> int:
        """``intersection_dimension(node k, pi)``."""
        return self._get(("pi_dim", k), lambda: intersection_dimension(self.planes[k], self.pi()))

    def _basis(self, k: int) -> np.ndarray:
        return self._get(("basis", k), lambda: _orthonormal(_as_frame(self.planes[k])))

    def _chart_orthonormal(self, c: int) -> np.ndarray:
        return self._get(("chart_orthonormal", c),
                         lambda: _orthonormal(_as_frame(self.catalogue()[c])))

    def _gap(self, k: int) -> float:
        """Angular upper bound of the distance between nodes k and k + 1."""
        return self._get(("gap", k), lambda: float(
            np.arcsin(min(1.0, _basis_distance(self._basis(k), self._basis(k + 1))))))

    def _chart_margin(self, c: int) -> float:
        """``transversality_margin(chart c, pi)``."""
        pi_basis = self._get(("pi_basis",), lambda: _orthonormal(_as_frame(self.pi())))
        return self._get(("chart_margin", c),
                         lambda: _basis_margin(self._chart_orthonormal(c), pi_basis))

    def _margin(self, k: int, c: int) -> float:
        """``transversality_margin(chart c, node k)``."""
        return self._get(("margin", k, c),
                         lambda: _basis_margin(self._chart_orthonormal(c), self._basis(k)))

    def chart_matrix(self, k: int, c: int) -> np.ndarray:
        """``to_chart(node k, chart c, pi).s``."""
        def compute():
            frame = self._get(("frame", k), lambda: validate_lagrangian(self.planes[k]))
            _, _, m = self._get(("chart_pair", c),
                                lambda: _chart_basis(self.catalogue()[c], self.pi()))
            return _chart_matrix(frame, m)
        return self._get(("s", k, c), compute)

    # -- counting --------------------------------------------------------

    def arc_chart(self, i: int, j: int) -> int | None:
        """First catalogue chart transversal (with margin) to pi and to nodes i..j.

        The chart must additionally clear each pair of consecutive nodes by
        more than their gap: otherwise the short path between the samples
        can wrap around the chart plane and the signature difference counts
        a spurious reference crossing.
        """
        gaps = [self._gap(k) for k in range(i, j)]
        for c in range(len(self.catalogue())):
            if self._chart_margin(c) <= CHART_MARGIN:
                continue
            margins = [self._margin(k, c) for k in range(i, j + 1)]
            if any(m <= CHART_MARGIN for m in margins):
                continue
            if any(max(margins[k], margins[k + 1]) <= g for k, g in enumerate(gaps)):
                continue
            return c
        return None

    def index(self, i: int, j: int) -> int:
        """Maslov index of the curve between nodes i and j (see :func:`maslov_index`)."""
        self.pi()  # a bad pi is refused even when there is no arc to count
        if j <= i:
            return 0
        for end in (i, j):
            if self._pi_dimension(end) > 0:
                raise PreconditionError(
                    "curve endpoint is not transversal to the reference plane")
        return self._arc(i, j, 0)

    def _arc(self, i: int, j: int, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise RefinementError(f"chart refinement exceeded depth {MAX_DEPTH}")
        c = self.arc_chart(i, j)
        if c is not None:
            try:
                return _signature_change(self.chart_matrix(i, c), self.chart_matrix(j, c))
            except ArcError:
                pass  # endpoint touches pi in this chart: fall through to split
        if j == i + 1:
            raise RefinementError(
                f"no catalogue chart covers the arc between samples {i} and {j}"
            )
        mid = self._split_point(i, j)
        return self._arc(i, mid, depth + 1) + self._arc(mid, j, depth + 1)

    def _split_point(self, i: int, j: int) -> int:
        """Node in (i, j) transversal to pi, nearest to the midpoint."""
        mid = (i + j) // 2
        for k in sorted(range(i + 1, j), key=lambda k: (abs(k - mid), k)):
            if self._pi_dimension(k) == 0:
                return k
        raise RefinementError("no split sample is transversal to the reference plane")

    def partial_sums(self) -> list[float]:
        """See :func:`maslov_partial_sums`."""
        sums: list[float] = [0.0]
        total = 0.0
        for k in range(1, len(self.planes)):
            try:
                total += self.index(k - 1, k)
                sums.append(total)
            except (ArcError, RefinementError, PreconditionError):
                sums.append(float("nan"))
        return sums


def maslov_index(curve: GrassmannCurve, pi: np.ndarray) -> int:
    """Maslov index of a sampled curve with respect to the plane ``pi``.

    The sample range is split adaptively: each piece needs one catalogue
    plane transversal to all its samples, and split points must be
    transversal to ``pi``.  Raises :class:`RefinementError` when the
    recursion exceeds ``MAX_DEPTH`` or runs out of usable split points, and
    :class:`PreconditionError` when a curve endpoint touches ``pi``.
    """
    return _CurveMemo(curve.planes, pi).index(0, len(curve) - 1)


def maslov_partial_sums(curve: GrassmannCurve, pi: np.ndarray) -> list[float]:
    """Cumulative Maslov index along the sampled curve, one value per node.

    Each increment is :func:`maslov_index` of the two-node arc between
    consecutive nodes.  Nodes where the increment cannot be computed
    (endpoint on pi, no usable chart) carry ``nan``; subsequent sums resume
    from the last good value.
    """
    return _CurveMemo(curve.planes, pi).partial_sums()


def _restricted_form_sign(h, delta_q: np.ndarray, ts: np.ndarray, tol: float = 1e-10) -> int:
    """Uniform sign of the Hamiltonian form restricted to a plane, else raise."""
    sys = _system(h)
    sign = 0
    for t in ts:
        jm = apply_j(sys(t))
        ham = 0.5 * (jm + jm.T)
        w = np.linalg.eigvalsh(delta_q.T @ ham @ delta_q)
        scale = max(1.0, float(np.max(np.abs(w))))
        pos = bool(np.any(w > tol * scale))
        neg = bool(np.any(w < -tol * scale))
        if pos and neg:
            raise PreconditionError(
                "Hamiltonian form restricted to the counting plane is indefinite"
            )
        here = 1 if pos else (-1 if neg else 0)
        if here != 0:
            if sign != 0 and here != sign:
                raise PreconditionError(
                    "restricted Hamiltonian form changes sign along the interval"
                )
            sign = here
    return sign


def vertical_intersection_count(h, l0: np.ndarray, delta: np.ndarray,
                                grid: Sequence[float]) -> int:
    """Total intersection count of the flow of ``l0`` with the plane ``delta``.

    Requires the Hamiltonian form restricted to ``delta`` to be
    sign-semidefinite on the whole interval (so crossings are one-way and
    counting multiplicities is meaningful).  Crossing times are bracketed by
    sign changes of the chart determinant on a refined sample set and their
    multiplicity evaluated with :func:`intersection_dimension`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise PreconditionError("grid needs at least two nodes")
    delta = validate_lagrangian(np.asarray(delta, dtype=float))
    qd, _ = np.linalg.qr(delta)

    refine = 6
    ts = np.unique(np.concatenate([np.linspace(a, b, refine + 1)
                                   for a, b in zip(grid[:-1], grid[1:])]))
    _restricted_form_sign(h, qd, ts)

    interp, _ = fundamental_solution(h, grid[0], grid[-1])
    l0 = validate_lagrangian(np.asarray(l0, dtype=float))

    def plane(t: float) -> np.ndarray:
        q, _ = np.linalg.qr(interp(t) @ l0)
        return q

    def n_neg(p: np.ndarray, aux: np.ndarray) -> int:
        s = to_chart(p, aux, delta).s
        w = np.linalg.eigvalsh(s)
        return int(np.sum(w < 0))

    total = 0
    span = float(ts[-1] - ts[0])

    def count_segment(ta: float, tb: float, pa: np.ndarray, pb: np.ndarray,
                      na: int, nb: int, aux: np.ndarray, depth: int = 0) -> int:
        d = abs(nb - na)
        if d == 0:
            return 0
        if tb - ta < 1e-12 * span or depth > 60:
            tstar = 0.5 * (ta + tb)
            mult = intersection_dimension(plane(tstar), delta)
            return mult if mult > 0 else d
        tm = 0.5 * (ta + tb)
        pm = plane(tm)
        try:
            nm = n_neg(pm, aux)
        except ChartError:
            tm = ta + 0.37 * (tb - ta)
            pm = plane(tm)
            nm = n_neg(pm, aux)
        return (count_segment(ta, tm, pa, pm, na, nm, aux, depth + 1)
                + count_segment(tm, tb, pm, pb, nm, nb, aux, depth + 1))

    planes = [plane(t) for t in ts]
    charts = _CurveMemo(planes, delta)
    for k in range(ts.size - 1):
        c = charts.arc_chart(k, k + 1)
        if c is None:
            raise RefinementError("no catalogue chart covers the counting segment")
        aux = charts.catalogue()[c]
        pa, pb = planes[k], planes[k + 1]
        na, nb = n_neg(pa, aux), n_neg(pb, aux)
        total += count_segment(ts[k], ts[k + 1], pa, pb, na, nb, aux)
    return total
