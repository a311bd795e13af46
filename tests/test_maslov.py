import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import hamiltonian, random_lagrangian
from jacobiflow.errors import NondegeneracyError, PreconditionError, RefinementError
from jacobiflow.flows import flow_plane
from jacobiflow.grassmann import (
    GrassmannCurve,
    _chart_basis,
    _pi_chart,
    canonicalize,
    horizontal_plane,
    intersection_dimension,
    plane_distance,
    to_chart,
    transversality_margin,
    validate_lagrangian,
    vertical_plane,
)
from jacobiflow import maslov
from jacobiflow.maslov import _spectral_flow, _SpectralFlow, maslov_index, maslov_partial_sums
from jacobiflow.symplectic import apply_j, isotropy_residual

# -- reference: the chart-catalogue route that the spectral-flow counter
# replaced, kept here as the oracle.  Charts come from a fixed catalogue
# (Sigma, Pi, then seeded random planes); arcs no single chart covers are
# split at nodes transversal to the reference plane.

N_RANDOM_CHARTS = 16
_CATALOGUE_SEED = 20240913
#: minimal principal angle for a chart plane to be considered usable
CHART_MARGIN = 1e-5
MAX_DEPTH = 40

_catalogue_cache: dict[int, list[np.ndarray]] = {}


class ArcError(Exception):
    """An endpoint of an arc touches the reference plane: no signature."""


def _has_signature(s: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether no eigenvalue of a symmetric matrix is (numerically) zero:
    within ``tol`` of the largest magnitude, or of 1 if that is smaller."""
    w = np.linalg.eigvalsh(0.5 * (s + s.T))
    return not np.any(np.abs(w) <= tol * max(1.0, float(np.max(np.abs(w)))))


def _signature(s: np.ndarray) -> int:
    """Signature of a symmetric matrix; ArcError on (numerically) zero eigenvalues."""
    if not _has_signature(s):
        raise ArcError("chart matrix is singular: endpoint touches the reference plane")
    w = np.linalg.eigvalsh(0.5 * (s + s.T))
    return int(np.sum(w > 0) - np.sum(w < 0))


def simple_arc_index(l0: np.ndarray, l1: np.ndarray, pi: np.ndarray, delta: np.ndarray) -> int:
    """Index of a simple arc from l0 to l1 in the chart ``(delta, pi)``.

    Half the signature change of the chart matrices, the sign convention of
    :mod:`jacobiflow.maslov`.  Both endpoints must be transversal to
    ``delta`` (so chart matrices exist) and to ``pi`` (so the signatures are
    defined); the arc is assumed to stay inside the chart.
    """
    s0 = to_chart(l0, delta, pi)
    s1 = to_chart(l1, delta, pi)
    return (_signature(s1) - _signature(s0)) // 2


def reference_catalogue(n: int) -> list[np.ndarray]:
    """Fixed catalogue of candidate chart planes: Sigma, Pi, then 16
    pseudo-random Lagrangian planes drawn with a fixed seed."""
    if n not in _catalogue_cache:
        rng = np.random.default_rng(_CATALOGUE_SEED + n)
        cats = [horizontal_plane(n), vertical_plane(n)]
        cats.extend(random_lagrangian(rng, n) for _ in range(N_RANDOM_CHARTS))
        _catalogue_cache[n] = cats
    return _catalogue_cache[n]


def _n(curve) -> int:
    """Degrees of freedom of a sampled curve: half the rows of its frames."""
    return curve.planes[0].shape[0] // 2


def _rotation_loop(omegas, l0, samples_per_unit=24):
    """Closed loop t -> exp(t J diag(w, w)) l0 over one full period."""
    omegas = np.asarray(omegas, dtype=float)
    n = omegas.size
    w1 = np.diag(omegas)
    gen = np.block([[np.zeros((n, n)), w1], [-w1, np.zeros((n, n))]])
    nsamp = int(samples_per_unit * (np.sum(np.abs(omegas)) + 1))
    ts = np.linspace(0.0, 2.0 * np.pi, nsamp)
    planes = [canonicalize(expm(t * gen) @ l0) for t in ts]
    planes[-1] = planes[0]
    return GrassmannCurve(times=ts, planes=planes)


def test_simple_arc_sign_convention():
    # chart matrix moving -1 -> +1 has index +1, the reverse -1
    l0 = np.array([[1.0], [-1.0]])
    l1 = np.array([[1.0], [1.0]])
    pi = vertical_plane(1)
    delta = horizontal_plane(1)
    assert simple_arc_index(l0, l1, pi, delta) == 1
    assert simple_arc_index(l1, l0, pi, delta) == -1
    assert simple_arc_index(l0, l0, pi, delta) == 0


def test_simple_arc_rejects_endpoint_on_reference():
    pi = vertical_plane(1)
    with pytest.raises(ArcError):
        simple_arc_index(pi, np.array([[1.0], [1.0]]), pi, horizontal_plane(1))


def test_maslov_index_rejects_endpoint_on_reference():
    v = vertical_plane(1)
    h = horizontal_plane(1)
    curve = GrassmannCurve(times=np.array([0.0, 1.0]), planes=[v, h])
    with pytest.raises(PreconditionError):
        maslov_index(curve, v)
    # frames of another dimension than the reference plane are refused in
    # the error taxonomy, not by numpy's broadcasting
    wide = GrassmannCurve(times=np.array([0.0, 1.0]), planes=[vertical_plane(2)] * 2)
    for count in (maslov_index, maslov_partial_sums):
        with pytest.raises(PreconditionError, match="rows"):
            count(wide, v)


@pytest.mark.parametrize("omegas, expected", [
    ([1.0], -2),
    ([-1.0], 2),
    ([2.0], -4),
    ([1.0, -1.0], 0),
])
def test_rotation_loop_index(omegas, expected):
    n = len(omegas)
    l0 = random_lagrangian(np.random.default_rng(3), n)
    curve = _rotation_loop(omegas, l0)
    pis = [p for p in reference_catalogue(n)[:4]
           if intersection_dimension(l0, p) == 0]
    indices = [maslov_index(curve, pi) for pi in pis[:2]]
    assert all(ix == expected for ix in indices)


def test_partial_sums_accumulate_to_index():
    l0 = random_lagrangian(np.random.default_rng(7), 1)
    curve = _rotation_loop([1.0], l0)
    pi = horizontal_plane(1)
    sums = maslov_partial_sums(curve, pi)
    assert len(sums) == len(curve.times)
    assert sums[0] == 0.0
    assert not np.isnan(sums[-1])
    assert sums[-1] == maslov_index(curve, pi)


# -- reference (continued): the chart search, index and per-interval
# partial-sum loop; every call recomputes everything from the public
# functions

def _reference_arc_chart(planes, pi, catalogue, gaps):
    for delta in catalogue:
        if transversality_margin(delta, pi) <= CHART_MARGIN:
            continue
        margins = [transversality_margin(delta, p) for p in planes]
        if any(m <= CHART_MARGIN for m in margins):
            continue
        if any(max(margins[i], margins[i + 1]) <= g for i, g in enumerate(gaps)):
            continue
        return delta
    return None


def _reference_gaps(planes):
    return [float(np.arcsin(min(1.0, plane_distance(planes[i], planes[i + 1]))))
            for i in range(len(planes) - 1)]


def _reference_index(curve, pi):
    pi = validate_lagrangian(np.asarray(pi, dtype=float))
    if len(curve.times) < 2:
        return 0
    for end in (curve.planes[0], curve.planes[-1]):
        if intersection_dimension(end, pi) > 0:
            raise PreconditionError("curve endpoint is not transversal to the reference plane")
    catalogue = reference_catalogue(_n(curve))

    def arc(i, j, depth):
        if depth > MAX_DEPTH:
            raise RefinementError(f"chart refinement exceeded depth {MAX_DEPTH}")
        samples = curve.planes[i : j + 1]
        delta = _reference_arc_chart(samples, pi, catalogue, _reference_gaps(samples))
        if delta is not None:
            try:
                return simple_arc_index(curve.planes[i], curve.planes[j], pi, delta)
            except ArcError:
                pass
        if j == i + 1:
            raise RefinementError(f"no catalogue chart covers the arc between samples {i} and {j}")
        mid = (i + j) // 2
        for k in sorted(range(i + 1, j), key=lambda k: (abs(k - mid), k)):
            if intersection_dimension(curve.planes[k], pi) == 0:
                return arc(i, k, depth + 1) + arc(k, j, depth + 1)
        raise RefinementError("no split sample is transversal to the reference plane")

    return arc(0, len(curve.times) - 1, 0)


def _reference_partial_sums(curve, pi):
    sums = [0.0]
    total = 0.0
    for k in range(1, len(curve.times)):
        sub = GrassmannCurve(times=curve.times[k - 1 : k + 1], planes=curve.planes[k - 1 : k + 1])
        try:
            total += _reference_index(sub, pi)
            sums.append(total)
        except (ArcError, RefinementError, PreconditionError):
            sums.append(float("nan"))
    return sums


def _assert_same_sums(curve, pi):
    sums = maslov_partial_sums(curve, pi)
    expected = _reference_partial_sums(curve, pi)
    assert len(sums) == len(expected) == len(curve.times)
    np.testing.assert_array_equal(sums, expected)  # nan equals nan
    return sums


def _line_curve(angles):
    """n = 1 lines at the given angles from Pi = span(e_1)."""
    planes = [np.array([[np.cos(a)], [np.sin(a)]]) for a in angles]
    return GrassmannCurve(times=np.arange(len(angles), dtype=float), planes=planes)


@pytest.mark.parametrize("omegas", [[1.0], [-1.0], [2.0], [1.0, -1.0]])
def test_partial_sums_match_reference_on_rotation_loops(omegas):
    n = len(omegas)
    l0 = random_lagrangian(np.random.default_rng(3), n)
    curve = _rotation_loop(omegas, l0)
    pi = next(p for p in reference_catalogue(n) if intersection_dimension(l0, p) == 0)
    sums = _assert_same_sums(curve, pi)
    assert not np.any(np.isnan(sums))
    assert maslov_index(curve, pi) == _reference_index(curve, pi) == sums[-1]


def test_partial_sums_match_reference_with_nodes_on_reference():
    # the line meets Pi at angles 0, pi and 2 pi: every interval touching
    # those nodes has no increment
    curve = _line_curve(np.linspace(0.0, 2.0 * np.pi, 25))
    sums = _assert_same_sums(curve, vertical_plane(1))
    assert [k for k, v in enumerate(sums) if np.isnan(v)] == [1, 12, 13, 24]
    # n = 2: one of the two rotating directions passes through Pi
    ts = np.linspace(0.0, np.pi, 13)
    planes = [np.array([[np.cos(t), 0.0], [0.0, 0.6], [np.sin(t), 0.0], [0.0, 0.8]]) for t in ts]
    curve = GrassmannCurve(times=ts, planes=planes)
    sums = _assert_same_sums(curve, vertical_plane(2))
    assert np.isnan(sums[1]) and np.isnan(sums[-1]) and not np.isnan(sums[6])


def test_partial_sums_match_reference_when_no_chart_clears_an_interval():
    # consecutive lines a right angle apart: the gap pi/2 bounds every margin
    curve = _line_curve([0.3, 0.3 + 0.5 * np.pi, 0.35 + 0.5 * np.pi, 0.4 + 0.5 * np.pi])
    sums = _assert_same_sums(curve, vertical_plane(1))
    assert np.isnan(sums[1]) and not np.isnan(sums[2])
    for index in (maslov_index, _reference_index):
        with pytest.raises(RefinementError):
            index(curve, vertical_plane(1))


def test_partial_sums_reject_non_lagrangian_node():
    n = 2
    curve = _rotation_loop([1.0, -1.0], random_lagrangian(np.random.default_rng(3), n))
    curve.planes[5] = curve.planes[5] + np.array([[1e-3, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert isotropy_residual(curve.planes[5]) > 1e-6
    pi = reference_catalogue(n)[1]
    with pytest.raises(NondegeneracyError):
        _reference_partial_sums(curve, pi)
    with pytest.raises(NondegeneracyError):
        maslov_partial_sums(curve, pi)


def _random_rotation_curve(rng, refine=1):
    """A rotation curve; ``refine`` - 1 exact samples are added inside each interval."""
    n = int(rng.integers(1, 3))
    omegas = rng.uniform(-2.0, 2.0, n)
    gen = np.block([[np.zeros((n, n)), np.diag(omegas)], [-np.diag(omegas), np.zeros((n, n))]])
    span = rng.uniform(1.0, 2.0 * np.pi)
    nodes = int(4 * (np.sum(np.abs(omegas)) + 1) * span) + 3
    ts = np.linspace(0.0, span, refine * (nodes - 1) + 1)
    l0 = random_lagrangian(rng, n)
    return GrassmannCurve(times=ts, planes=[canonicalize(expm(t * gen) @ l0) for t in ts])


def _random_flow_curve(rng, refine=1):
    # unit-scale blocks keep the turn between samples well below the chart margins
    n = 2
    a, b, c = (m / np.linalg.norm(m, 2) for m in rng.standard_normal((3, n, n)))
    h = hamiltonian(a=a, b=b @ b.T + 0.5 * np.eye(n), c=-(c @ c.T))
    return flow_plane(h, random_lagrangian(rng, n), np.linspace(0.0, 3.0, 30 * refine + 1))


def _sub_curve(curve, i, j):
    return GrassmannCurve(times=curve.times[i : j + 1], planes=curve.planes[i : j + 1])


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([_random_rotation_curve, _random_flow_curve]),
       st.integers(0, 2**31 - 1))
def test_maslov_index_is_additive(make_curve, seed):
    rng = np.random.default_rng(seed)
    curve = make_curve(rng)
    pi = random_lagrangian(rng, _n(curve))
    sums = maslov_partial_sums(curve, pi)
    index = maslov_index(curve, pi)
    if not np.any(np.isnan(sums)):
        assert index == sums[-1]
    cut = int(rng.integers(1, len(curve.times) - 1))
    pieces = maslov_index(_sub_curve(curve, 0, cut), pi) + maslov_index(
        _sub_curve(curve, cut, len(curve.times) - 1), pi)
    assert index == pieces


def _index_or_none(curve, pi):
    """The index, or None when some step between samples is refused."""
    try:
        return maslov_index(curve, pi)
    except RefinementError:
        return None


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([_random_rotation_curve, _random_flow_curve]),
       st.integers(0, 2**31 - 1))
def test_index_is_unchanged_by_inserting_exact_midpoints(make_curve, seed):
    rng = np.random.default_rng(seed)
    fine = make_curve(rng, refine=2)
    pi = random_lagrangian(rng, _n(fine))
    coarse = GrassmannCurve(times=fine.times[::2], planes=fine.planes[::2])
    index = _index_or_none(coarse, pi)
    assume(index is not None)
    assert maslov_index(fine, pi) == index


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([_random_rotation_curve, _random_flow_curve]),
       st.integers(0, 2**31 - 1))
def test_reversing_the_curve_negates_the_index(make_curve, seed):
    rng = np.random.default_rng(seed)
    curve = make_curve(rng)
    pi = random_lagrangian(rng, _n(curve))
    back = GrassmannCurve(times=-curve.times[::-1], planes=curve.planes[::-1])
    index, back_index = _index_or_none(curve, pi), _index_or_none(back, pi)
    assume(index is not None and back_index is not None)
    assert back_index == -index


def _random_symplectic(rng, n):
    """exp(J S) for a random symmetric S of norm about one."""
    s = rng.standard_normal((2 * n, 2 * n))
    s = 0.5 * (s + s.T) / np.linalg.norm(s, 2)
    return expm(apply_j(s))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([_random_rotation_curve, _random_flow_curve]),
       st.integers(0, 2**31 - 1))
def test_index_is_symplectically_invariant(make_curve, seed):
    rng = np.random.default_rng(seed)
    curve = make_curve(rng)
    pi = random_lagrangian(rng, _n(curve))
    phi = _random_symplectic(rng, _n(curve))
    moved = GrassmannCurve(times=curve.times, planes=[phi @ p for p in curve.planes])
    index, moved_index = _index_or_none(curve, pi), _index_or_none(moved, phi @ pi)
    assume(index is not None and moved_index is not None)
    assert moved_index == index


def _geodesic_chart(l0, l1):
    """J times the midpoint of the shortest path from l0 to l1.

    Every plane on that path is within a principal angle below pi/4 of the
    midpoint, so it is transversal to this orthogonal complement.
    """
    q0, q1 = np.linalg.qr(l0)[0], np.linalg.qr(l1)[0]
    v0, _, v1t = np.linalg.svd(q0.T @ q1)
    return apply_j(q0 @ v0 + q1 @ v1t.T)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
@example(n=3, seed=214612)  # margin 0.0099 to pi, yet chart eigenvalues 0.011 and 2.7e7
def test_step_index_is_the_index_of_the_shortest_path(n, seed):
    # independent random samples are far apart: most principal angles are
    # large, where a fixed catalogue often has no chart covering the step
    rng = np.random.default_rng(seed)
    l0, l1, pi = (random_lagrangian(rng, n) for _ in range(3))
    delta = _geodesic_chart(l0, l1)
    assume(min(transversality_margin(p, q) for p, q in ((delta, pi), (l0, pi), (l1, pi))) > 1e-6)
    # the oracle's own precondition: both endpoint signatures are defined
    # at its tolerance, which is relative to the largest chart eigenvalue
    assume(all(_has_signature(to_chart(p, delta, pi)) for p in (l0, l1)))
    curve = GrassmannCurve(times=np.array([0.0, 1.0]), planes=[l0, l1])
    assert maslov_index(curve, pi) == simple_arc_index(l0, l1, pi, delta)


def test_index_across_interior_nodes_on_reference():
    # one full turn of a line from 0.1 to 2 pi + 0.1, sampled on Pi at pi and 2 pi
    curve = _line_curve(np.union1d(np.linspace(0.1, 2.0 * np.pi + 0.1, 25), [np.pi, 2.0 * np.pi]))
    pi = vertical_plane(1)
    on_pi = [k for k, p in enumerate(curve.planes) if intersection_dimension(p, pi) > 0]
    assert len(on_pi) == 2 and 0 < min(on_pi) and max(on_pi) < len(curve.times) - 1
    assert maslov_index(curve, pi) == _reference_index(curve, pi) == 2
    _assert_same_sums(curve, pi)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_stacked_node_on_pi_test_is_the_frame_by_frame_rank_test(n, seed, meets):
    # node k spans min(meets[k], n) p-axes and the lines q_i + s_i p_i, so it
    # meets {q = 0} in that many dimensions; one symplectic map moves every
    # node and the reference plane, and a right factor changes each frame
    rng = np.random.default_rng(seed)
    s1, s2 = rng.normal(size=(2, n, n))
    shear = np.block([[np.eye(n), s1 + s1.T], [np.zeros((n, n)), np.eye(n)]])
    tilt = np.block([[np.eye(n), np.zeros((n, n))], [s2 + s2.T, np.eye(n)]])
    move = shear @ tilt
    planes = []
    for shared in meets:
        shared = min(shared, n)
        f = np.zeros((2 * n, n))
        f[:n] = np.diag(np.where(np.arange(n) < shared, 1.0, rng.normal(size=n)))
        f[n:][np.arange(shared, n), np.arange(shared, n)] = 1.0
        planes.append(move @ f @ (rng.normal(size=(n, n)) + 3.0 * np.eye(n)))
    pi = move @ vertical_plane(n)
    loop = np.array([intersection_dimension(f, pi) for f in planes])
    assert list(loop) == [min(m, n) for m in meets]
    planes = np.stack(planes)
    assert intersection_dimension(planes, pi).tobytes() == loop.tobytes()
    assert np.array_equal(_spectral_flow(planes, pi).on_pi, loop > 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.lists(st.integers(0, 3), min_size=2, max_size=10))
def test_nodes_on_pi_are_the_nodes_of_positive_intersection(n, seed, meets):
    # a curve of random planes, node k meeting Pi in min(meets[k], n)
    # dimensions: random planes where that is 0, elsewhere a symplectic map
    # that keeps Pi moves the planes of the stacked test above
    rng = np.random.default_rng(seed)
    pi = vertical_plane(n)
    planes = []
    for shared in meets:
        shared = min(shared, n)
        if not shared:
            planes.append(random_lagrangian(rng, n))
            continue
        f = np.zeros((2 * n, n))
        f[:n] = np.diag(np.where(np.arange(n) < shared, 1.0, rng.normal(size=n)))
        f[n:][np.arange(shared, n), np.arange(shared, n)] = 1.0
        a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        s = rng.normal(size=(n, n))
        d = np.linalg.inv(a).T
        keep = np.block([[a, (s + s.T) @ d], [np.zeros((n, n)), d]])
        planes.append(keep @ f)
    planes = np.stack(planes)
    on_pi = _spectral_flow(planes, pi).on_pi
    assert np.array_equal(on_pi, intersection_dimension(planes, pi) > 0)
    assert np.array_equal(on_pi, np.minimum(meets, n) > 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.one_of(st.floats(0.0, 1.8e-9), st.floats(2.2e-9, 1.5)))
def test_a_node_is_on_pi_below_a_principal_angle_of_2e_9(n, seed, theta):
    # a plane at principal angles theta and larger ones to Pi, moved by an
    # orthogonal symplectic map that keeps Pi, and framed by a random right
    # factor: it meets Pi where theta < 2e-9, as the rank test of [L | Pi]
    # at TOL_RANK, which the eigenvalue angles of W replace, decided it on
    # orthonormal frames
    rng = np.random.default_rng(seed)
    angles = np.concatenate([[theta], rng.uniform(0.1, np.pi / 2, n - 1)])
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    plane = np.kron(np.eye(2), q) @ np.vstack([np.diag(np.cos(angles)), np.diag(np.sin(angles))])
    pi = vertical_plane(n)
    on = theta < 2e-9
    assert (intersection_dimension(plane, pi) > 0) == on
    framed = plane @ (rng.normal(size=(n, n)) + 3.0 * np.eye(n))
    assert _spectral_flow(framed[None], pi).on_pi.tolist() == [on]


def _souriau_only(planes: np.ndarray, pi: np.ndarray) -> _SpectralFlow:
    """The Souriau pass over every node and interval: the reference count of
    :func:`_spectral_flow`, which takes the intervals it certifies on the chart."""
    w = maslov._souriau(planes, pi)
    angles = np.angle(np.linalg.eigvals(w))
    g = np.sum(np.mod(angles, 2.0 * np.pi), axis=1)
    turn = maslov._turns(w, np.arange(len(w) - 1))
    return _SpectralFlow(np.min(np.abs(angles), axis=1) < 2.0 * maslov._ON_PI,
                         np.rint((np.sum(turn, axis=1) - np.diff(g)) / (2.0 * np.pi)).astype(int),
                         np.max(np.abs(turn), axis=1) >= np.pi, None)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.lists(st.sampled_from(["path"] * 6 + ["on", "near", "off", "far", "antipodal"]),
                min_size=2, max_size=16),
       st.floats(0.0, 2.0), st.one_of(st.floats(1.0e-9, 1.9e-9), st.floats(2.1e-9, 8e-9)))
def test_the_chart_count_is_the_souriau_count(n, seed, kinds, span, theta):
    # a path of planes over a rotated Pi, in the chart adapted to it: node k
    # has principal angles phi_j(t_k) to Pi in a turning frame, so its chart
    # matrix is Q diag(tan phi) Q^T; some nodes are set on Pi, at theta either
    # side of the 2e-9 threshold, off the chart (phi = pi/2), far out on it
    # (||S|| = 1e5), or a principal angle pi/2 from the node before
    rng = np.random.default_rng(seed)
    ab = random_lagrangian(rng, n)
    a, b = ab[:n], ab[n:]
    chart = np.block([[a, -b], [b, a]])
    pi = chart @ vertical_plane(n)
    skew = 0.5 * rng.normal(size=(n, n))
    t = np.linspace(0.0, span, len(kinds))
    phi = rng.uniform(-1.4, 1.4, n) + np.outer(t, rng.uniform(-2.0, 2.0, n))
    planes = []
    for k, kind in enumerate(kinds):
        if kind == "on":
            phi[k, 0] = 0.0
        elif kind == "near":
            phi[k, 0] = theta * rng.choice([-1.0, 1.0])
        elif kind == "off":
            phi[k, 0] = 0.5 * np.pi
        elif kind == "far":
            phi[k, 0] = np.arctan(1e5)
        elif kind == "antipodal" and k:
            phi[k] = phi[k - 1]
            phi[k, 0] += 0.5 * np.pi
        q = expm(t[k] * (skew - skew.T))
        frame = chart @ np.vstack([q * np.cos(phi[k]), q * np.sin(phi[k])])
        planes.append(frame @ (rng.normal(size=(n, n)) + 3.0 * np.eye(n)))
    planes = np.stack(planes)
    flow, ref = _spectral_flow(planes, pi), _souriau_only(planes, pi)
    assert np.array_equal(flow.on_pi, ref.on_pi)
    assert np.array_equal(flow.steps, ref.steps)
    assert np.array_equal(flow.refused, ref.refused)
    np.testing.assert_array_equal(flow.partial_sums(), ref.partial_sums())
    try:
        index = ref.index()
    except (PreconditionError, RefinementError) as exc:
        with pytest.raises(type(exc)):
            flow.index()
    else:
        assert flow.index() == index


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_chart_adapted_to_the_vertical_plane_is_the_sigma_pi_chart(n):
    # so the Maslov pass's chart matrices are the CLI's chart columns, and
    # the first-jet case selection reads the chart (Sigma, Pi)
    sigma_pi = _chart_basis(horizontal_plane(n), vertical_plane(n))
    assert _pi_chart(vertical_plane(n)).tobytes() == sigma_pi.tobytes()


if __name__ == "__main__":
    pytest.main([__file__])
