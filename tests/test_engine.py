from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp
from scipy.integrate import solve_ivp

from helpers import random_lagrangian, svd_extension
from jacobiflow import cli, engine, grassmann

from jacobiflow.engine import (
    D_MAX,
    PiecewiseAnalytic,
    bang_bang_sequence,
    goh_subspace,
    infinite_order_curve,
    legendre_sequence,
    singular_jacobi_curve,
)
from jacobiflow.errors import NondegeneracyError, PreconditionError, RankDriftError, UndecidedError
from jacobiflow.grassmann import (
    GrassmannCurve,
    canonicalize,
    extend_by_isotropic,
    horizontal_plane,
    plane_distance,
    to_chart,
    validate_lagrangian,
    vertical_plane,
)
from jacobiflow.series import meval
from jacobiflow.symplectic import gram, isotropy_residual


def _polyder_x(data, t, deriv):
    """Reference: the per-call ``polyder`` evaluation the cached stacks replaced."""
    c = data.x_pieces[data.piece_index(t)]
    if deriv:
        if deriv >= c.shape[1]:
            return np.zeros(data.dim)
        c = np.apply_along_axis(lambda row: npp.polyder(row, deriv), 1, c)
    return npp.polyval(t, c.T)


def _sigma_poly(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reference: polynomial sigma(u(t), v(t)) from component coefficient rows,
    one ``polymul`` per pair of components."""
    n = u.shape[0] // 2
    out = np.zeros(u.shape[1] + v.shape[1] - 1)
    for i in range(n):
        # polymul trims trailing zeros, so accumulate at the actual length
        prod = npp.polymul(u[i], v[n + i])
        out[: prod.size] += prod
        prod = npp.polymul(u[n + i], v[i])
        out[: prod.size] -= prod
    return out


def _polyder_rows(c: np.ndarray, deriv: int) -> np.ndarray:
    """Reference: row-wise ``polyder``, one zero column past the degree."""
    if deriv >= c.shape[1]:
        return np.zeros((c.shape[0], 1))
    return np.vstack([npp.polyder(row, deriv) for row in c]) if deriv else c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.floats(-1.0, 1.0), st.integers(0, 2**31 - 1))
def test_piecewise_evaluation_matches_polyder_path(deriv, t, seed):
    rng = np.random.default_rng(seed)
    x_pieces, b_pieces = [], []
    for _ in range(2):
        x = rng.normal(size=(4, int(rng.integers(1, 7))))
        x[:, int(rng.integers(1, x.shape[1] + 1)):] = 0.0  # trailing zero columns
        x_pieces.append(x)
        b_pieces.append(rng.normal(size=int(rng.integers(1, 7))))
    data = PiecewiseAnalytic(
        breakpoints=np.array([-1.0, 0.0, 1.0]), b_pieces=b_pieces, x_pieces=x_pieces
    )
    ref = _polyder_x(data, t, deriv)
    for _ in range(2):  # the second call reads the cached stacks
        assert np.array_equal(data.x(t, deriv=deriv), ref)


def _data_m0(n=1):
    # constant X = e_p1, b = -1: nondegenerate weight
    x = np.zeros((2 * n, 1))
    x[0, 0] = 1.0
    return PiecewiseAnalytic(
        breakpoints=np.array([0.0, 2.0]), b_pieces=[np.array([-1.0])], x_pieces=[x]
    )


def _data_m1():
    # X = (1, 0, t, 0) in (p1, p2, q1, q2), b = 0: order one
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0]), b_pieces=[np.array([0.0])], x_pieces=[x]
    )


def _data_m2():
    # X = (1, t, -t^3/6, t^2/2): b^1 vanishes identically, b^2 = -1
    x = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0 / 6.0],
        [0.0, 0.0, 0.5, 0.0],
    ])
    return PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0]), b_pieces=[np.array([0.0])], x_pieces=[x]
    )


def test_piecewise_validation():
    with pytest.raises(PreconditionError):
        PiecewiseAnalytic(breakpoints=np.array([0.0]), b_pieces=[], x_pieces=[])
    with pytest.raises(PreconditionError):
        PiecewiseAnalytic(
            breakpoints=np.array([0.0, 0.0]),
            b_pieces=[np.array([1.0])],
            x_pieces=[np.zeros((2, 1))],
        )
    with pytest.raises(PreconditionError):
        PiecewiseAnalytic(
            breakpoints=np.array([0.0, 1.0]),
            b_pieces=[np.array([1.0]), np.array([1.0])],
            x_pieces=[np.zeros((2, 1))],
        )
    with pytest.raises(PreconditionError):
        PiecewiseAnalytic(
            breakpoints=np.array([0.0, 1.0]),
            b_pieces=[np.zeros(66)],
            x_pieces=[np.zeros((2, 1))],
        )
    with pytest.raises(PreconditionError):
        PiecewiseAnalytic(
            breakpoints=np.array([0.0, 1.0]),
            b_pieces=[np.array([1.0])],
            x_pieces=[np.zeros((2, 66))],
        )


def test_piecewise_evaluation():
    data = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0, 2.0]),
        b_pieces=[np.array([1.0, 1.0]), np.array([3.0])],
        x_pieces=[np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([[1.0], [2.0]])],
    )
    assert data.n == 1
    assert data.npieces == 2
    assert data.piece_index(1.0) == 1  # a breakpoint resolves to the right piece
    assert data.piece_index(2.0) == 1  # the last one to the last piece
    assert np.allclose(data.x(0.5), [0.5, 2.0])
    assert np.allclose(data.x(0.5, deriv=1), [1.0, 0.0])
    assert np.allclose(data.x(0.5, deriv=5), [0.0, 0.0])
    # exact integral across the interior breakpoint
    assert np.allclose(_integral_x(data, 0.5, 1.5), [0.375 + 0.5, 1.0 + 1.0])
    with pytest.raises(PreconditionError):
        data.piece_index(3.0)


def test_legendre_sequence_orders():
    assert legendre_sequence(_data_m0(), (0.0, 2.0)).first_nonzero == 0
    assert legendre_sequence(_data_m1(), (0.0, 1.0)).first_nonzero == 1
    seq2 = legendre_sequence(_data_m2(), (0.0, 1.0))
    assert seq2.first_nonzero == 2
    assert seq2.imax == 6  # 2n + 2
    assert meval(seq2.data._entry(0, 2), 0.3) == pytest.approx(-1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans(), st.sampled_from(["full", "q", "m2"]))
def test_legendre_entries_match_polymul_products(seed, weighted, shape):
    # every entry up to imax matches the polyder/polymul reference, and the
    # order search agrees with the reference's first nonvanishing entry
    rng = np.random.default_rng(seed)
    x_pieces, b_pieces = [], []
    for _ in range(2):
        if shape == "m2":  # b^1 vanishes, b^2 does not
            x = _vanishing_m2([rng.uniform(-2.0, 2.0)]).x_pieces[0]
        else:
            x = rng.normal(size=(4, int(rng.integers(2, 7))))
            if shape == "q":  # isotropic: every sigma product vanishes
                x[2:] = 0.0
        x_pieces.append(x)
        b_pieces.append(rng.normal(size=int(rng.integers(1, 5))) * weighted)
    data = PiecewiseAnalytic(breakpoints=np.array([-1.0, 0.0, 1.0]),
                             b_pieces=b_pieces, x_pieces=x_pieces)
    seq = legendre_sequence(data, (-1.0, 1.0))
    assert seq.imax == min(2 * data.n + 2, D_MAX - 1)
    scale = max(1.0, *(np.max(np.abs(c)) for c in x_pieces + b_pieces))
    first = None
    for i in range(seq.imax + 1):
        for p, x in enumerate(x_pieces):
            if i == 0:
                ref = b_pieces[p]
                assert np.array_equal(data._entry(p, 0), ref)
            else:
                u, v = _polyder_rows(x, i), _polyder_rows(x, i - 1)
                ref = _sigma_poly(u, v)
                # with the sign of v's first half flipped, sigma sums |products|
                size = np.max(_sigma_poly(np.abs(u), np.abs(v) * [[-1.0], [-1.0], [1.0], [1.0]]))
                entry = data._entry(p, i)
                width = max(entry.size, ref.size)
                assert np.allclose(np.pad(entry, (0, width - entry.size)),
                                   np.pad(ref, (0, width - ref.size)),
                                   rtol=0.0, atol=1e-13 * size)
            if first is None and np.max(np.abs(ref)) > 1e-12 * scale ** (1 if i == 0 else 2):
                first = i
    assert seq.first_nonzero == first
    assert first == (0 if weighted else {"full": 1, "q": None, "m2": 2}[shape])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
       st.integers(0, 2**31 - 1))
def test_legendre_sequence_values_over_times_are_the_scalar_values(i, times, seed):
    # one call over an array of times, breakpoints included, gives each
    # scalar call's value of the entry b^i bit for bit
    rng = np.random.default_rng(seed)
    data = PiecewiseAnalytic(
        breakpoints=np.array([-1.0, 0.0, 1.0]),
        b_pieces=[rng.normal(size=int(rng.integers(1, 6))) for _ in range(2)],
        x_pieces=[rng.normal(size=(2, int(rng.integers(1, 6)))) for _ in range(2)],
    )
    ts = np.array(times + [-1.0, 0.0, 1.0])

    def value(t):
        return data._piecewise(lambda p: data._entry(p, i), t)

    assert np.array_equal(value(ts), [value(t) for t in ts])


def test_legendre_sequence_unequal_degree_products():
    # sigma(X', X) with mixed-degree components: -2 - t^2
    x = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 2.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    data = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0]), b_pieces=[np.array([0.0])], x_pieces=[x]
    )
    assert legendre_sequence(data, (0.0, 1.0)).first_nonzero == 1
    entry = data._entry(0, 1)
    assert np.allclose(entry[:3], [-2.0, 0.0, -1.0])
    assert np.max(np.abs(entry[3:])) == 0.0


def test_goh_subspace():
    data = _data_m2()
    g = goh_subspace(data, 0.5, 1)
    direct = canonicalize(np.column_stack([data.x(0.5), data.x(0.5, deriv=1)]))
    assert np.allclose(g, direct)
    assert goh_subspace(data, 0.5, -1).shape == (4, 0)


def test_regular_curve_matches_closed_form():
    # mu' = X sigma(X, mu)/b with X = e_p1, b = -1 gives S(t) = s/(1 - s t)
    data = _data_m0()
    s = 0.2
    l0 = np.array([[1.0], [s]])
    grid = np.linspace(0.0, 2.0, 9)
    trace = singular_jacobi_curve(data, l0, grid)
    assert trace.diagnostics["order"] == 0
    assert trace.diagnostics["lagrangian_residual"] < 1e-10
    assert isinstance(trace.curve.planes, np.ndarray)
    for t, p in zip(grid, trace.curve.planes):
        sval = to_chart(p, horizontal_plane(1), vertical_plane(1))[0, 0]
        assert sval == pytest.approx(s / (1.0 - s * t), abs=1e-9)


def test_singular_curve_order_one_conservation():
    data = _data_m1()
    l0 = canonicalize(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.3]]))
    grid = np.linspace(0.0, 1.0, 11)
    trace = singular_jacobi_curve(data, l0, grid)
    assert trace.diagnostics["order"] == 1
    assert trace.diagnostics["conservation_drift"] < 1e-8
    assert trace.diagnostics["lagrangian_residual"] < 1e-8
    # every plane contains the current X(t)
    for t, p in zip(grid, trace.curve.planes):
        x = data.x(float(t))
        resid = x - p @ np.linalg.lstsq(p, x, rcond=None)[0]
        assert np.linalg.norm(resid) < 1e-8


def test_a_plane_containing_x_is_refused_whatever_its_frame():
    # X(t0) lies in the plane, so its meet with X(t0)^∠ is the whole plane:
    # the boundary space has dimension 2, not n - m = 1, for every frame.
    # A rank rule relative to the largest pairing reads the round-off of
    # some frames as a pairing and accepts them
    data = _data_m1()
    plane = np.column_stack([data.x(0.1), [0.3, 0.7, 0.03, 0.11]])
    for r in np.random.default_rng(0).normal(size=(60, 2, 2)):
        with pytest.raises(NondegeneracyError, match="boundary space has dimension 2"):
            singular_jacobi_curve(data, plane @ r, np.linspace(0.1, 0.9, 5))


def _order_m_data(n: int, m: int, move: np.ndarray) -> PiecewiseAnalytic:
    """b = 0 and X = move X0 of order m: X0 = (1, 0, .. | t, 0, ..) for m = 1,
    X0 = (1, t, 0, .. | -t^3/6, t^2/2, 0, ..) for m = 2; a symplectic
    ``move`` keeps every sigma product, so b^m = -1."""
    x = np.zeros((2 * n, 4))
    x[0, 0] = 1.0
    if m == 1:
        x[n, 1] = 1.0
    else:
        x[1, 1], x[n, 3], x[n + 1, 2] = 1.0, -1.0 / 6.0, 0.5
    return PiecewiseAnalytic(breakpoints=[0.0, 1.0], b_pieces=[[0.0]], x_pieces=[move @ x])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (3, 2)]), st.integers(0, 2**32 - 1))
@example(nm=(3, 2), seed=24923307)  # pairing singular values 3283 and 0.79
def test_the_boundary_space_is_the_svd_meet(nm, seed):
    # the march starts from l_init ∩ Gamma^(m-1)(t0)^∠; the reference is the
    # SVD route's l_init @ vt[rank:], taken in 30 digits: in doubles it rounds
    # at eps times the pairing's condition number, as the march does, so the
    # two could part by more than either is off
    n, m = nm
    rng = np.random.default_rng(seed)
    s1, s2 = rng.normal(size=(2, n, n))
    shear = np.block([[np.eye(n), s1 + s1.T], [np.zeros((n, n)), np.eye(n)]])
    tilt = np.block([[np.eye(n), np.zeros((n, n))], [s2 + s2.T, np.eye(n)]])
    data = _order_m_data(n, m, shear @ tilt)
    l_init = random_lagrangian(rng, n) @ (rng.normal(size=(n, n)) + 3.0 * np.eye(n))
    starts = []
    march = engine._integrate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_integrate", lambda system, cur, *a: starts.append(cur)
                      or march(system, cur, *a))
        trace = singular_jacobi_curve(data, l_init, np.linspace(0.0, 1.0, 5))
    assert trace.diagnostics["order"] == m
    with mpmath.workdps(30):
        vt = mpmath.svd_r(mpmath.matrix(gram(goh_subspace(data, 0.0, m - 1), l_init)),
                          full_matrices=True, compute_uv=True)[2]
        ref = np.array((mpmath.matrix(l_init) * vt[m:, :].T).tolist(), dtype=float)
    assert starts[0].shape == ref.shape == (2 * n, n - m)
    assert plane_distance(starts[0], ref) < 1e-12


def test_singular_curve_order_equals_n():
    data = _data_m2()
    l0 = horizontal_plane(2)
    grid = np.linspace(0.0, 1.0, 6)
    trace = singular_jacobi_curve(data, l0, grid)
    assert trace.diagnostics["order"] == 2
    for t, p in zip(grid, trace.curve.planes):
        goh = goh_subspace(data, float(t), 1)
        assert plane_distance(p, goh) < 1e-9
        assert isotropy_residual(p) < 1e-9


def _vanishing_m2(roots):
    """Order-2 data X = phi Y with phi = prod (t - c) and Y the curve of
    :func:`_data_m2`: b^1 still vanishes, b^2 = -phi^2 is negative off the
    roots, and Gamma^1 = span(X, X') drops to rank 1 at each root."""
    y = _data_m2().x_pieces[0]
    phi = npp.polyfromroots(roots)
    x = np.zeros((4, y.shape[1] + len(roots)))
    for row, coeffs in zip(x, y):
        prod = npp.polymul(phi, coeffs)
        row[: prod.size] = prod
    return PiecewiseAnalytic(breakpoints=np.array([0.0, 1.0]), b_pieces=[np.zeros(1)],
                             x_pieces=[x])


@pytest.mark.parametrize("roots", [[0.375], [0.625], [0.375, 0.625]])
def test_goh_rank_drift_names_the_first_node_where_the_rank_drops(roots, monkeypatch):
    # b^2 = -phi^2 vanishes at the roots, which are grid nodes (k/8): the
    # exact sign test refuses the data at the first of them, before any march
    data = _vanishing_m2(roots)
    grid = np.linspace(0.0, 1.0, 9)
    with pytest.raises(PreconditionError, match=f"at t = {min(roots):.6g}: "):
        singular_jacobi_curve(data, horizontal_plane(2), grid)
    # past the sign test, the Goh span check names the first node where the
    # rank drops
    first = next(t for t in grid if goh_subspace(data, float(t), 1).shape[1] != 2)
    assert first == min(roots)
    monkeypatch.setattr(engine, "_order_and_check_sign", lambda seq: seq.first_nonzero)
    with pytest.raises(RankDriftError, match=f"at t = {first:.6g}$"):
        singular_jacobi_curve(data, horizontal_plane(2), grid)


def test_an_order_n_curve_is_its_canonical_goh_stack():
    data = _data_m2()
    grid = np.linspace(0.0, 1.0, 6)
    planes = singular_jacobi_curve(data, horizontal_plane(2), grid).curve.planes
    goh = goh_subspace(data, grid, 1)
    assert np.array_equal(planes, goh) and np.array_equal(canonicalize(goh), goh)


def test_a_stack_made_here_is_refused_at_its_earliest_bad_node():
    rng = np.random.default_rng(7)
    planes = canonicalize(np.stack([random_lagrangian(rng, 2) for _ in range(5)]))
    times = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(engine._checked(planes, times), isotropy_residual(planes))
    # node 3 loses a column; node 2 keeps its echelon form, but a coordinate
    # off the pivots moves, and sigma of its two columns with it
    deficient = planes.copy()
    deficient[3, :, 1] = 0.0
    leaky = deficient.copy()
    leaky[2, 3, 0] += 1e-3
    assert isotropy_residual(leaky[2]) > 1e-6
    with pytest.raises(NondegeneracyError, match="^plane rank deficient at t = 0.75$"):
        engine._checked(deficient, times)
    with pytest.raises(NondegeneracyError, match="^plane not isotropic at t = 0.5$"):
        engine._checked(leaky, times)
    # a drifting Goh span is named first at its node, and the earliest node
    # fails first whatever its check
    drifts = np.arange(5) == 3
    with pytest.raises(RankDriftError, match="^Goh span rank drifts at t = 0.75$"):
        engine._checked(deficient, times, drifts)
    with pytest.raises(NondegeneracyError, match="not isotropic at t = 0.5$"):
        engine._checked(leaky, times, drifts)


def test_evaluation_at_an_array_of_times_is_the_scalar_calls():
    rng = np.random.default_rng(4)
    data = PiecewiseAnalytic(breakpoints=np.array([-1.0, 0.0, 1.0]),
                             b_pieces=[np.zeros(1), np.zeros(1)],
                             x_pieces=[rng.normal(size=(4, 5)), rng.normal(size=(4, 3))])
    times = np.array([-1.0, -0.3, 0.0, 0.4, 1.0])
    assert np.array_equal(data.piece_index(times), [data.piece_index(float(t)) for t in times])
    for deriv in (0, 2):
        stacked = data.x(times, deriv=deriv)
        for t, row in zip(times, stacked):
            assert row.tobytes() == data.x(float(t), deriv=deriv).tobytes()
    stacked = goh_subspace(data, times, 1)
    for t, frame in zip(times, stacked):
        assert frame.tobytes() == goh_subspace(data, float(t), 1).tobytes()
    with pytest.raises(PreconditionError, match="t = 1.5 outside"):
        data.x(np.array([0.5, 1.5, -2.0]))


def test_singular_curve_rejects_bad_grid_and_sign():
    data = _data_m0()
    l0 = np.array([[1.0], [0.0]])
    with pytest.raises(PreconditionError, match="grid must increase strictly"):
        singular_jacobi_curve(data, l0, np.array([1.0, 0.0]))
    bad = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0]),
        b_pieces=[np.array([1.0])],
        x_pieces=[np.array([[1.0], [0.0]])],
    )
    with pytest.raises(PreconditionError):
        singular_jacobi_curve(bad, l0, np.array([0.0, 1.0]))


def test_infinite_order_curve():
    x = np.array([[1.0], [0.0]])
    data = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0]), b_pieces=[np.array([0.0])], x_pieces=[x]
    )
    l0 = np.array([[0.0], [1.0]])
    with pytest.raises(UndecidedError):
        singular_jacobi_curve(data, l0, np.array([0.0, 1.0]))
    trace = infinite_order_curve(data, l0, (0.0, 1.0))
    assert trace.diagnostics["order"] is None
    assert isinstance(trace.curve.planes, np.ndarray) and len(trace.curve.planes) == 2
    # extension of the horizontal line by span{e_p1} is the full... n=1: e_p1 itself
    assert plane_distance(trace.curve.planes[0], vertical_plane(1)) < 1e-12
    with pytest.raises(PreconditionError):
        infinite_order_curve(_data_m1(), vertical_plane(2), (0.0, 1.0))


def test_bang_bang_sequence():
    l0 = vertical_plane(2)
    x_list = [np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.5])]
    planes = bang_bang_sequence(l0, x_list)
    assert isinstance(planes, np.ndarray) and planes.shape == (3, 4, 2)
    assert plane_distance(planes[0], l0) < 1e-12
    step = extend_by_isotropic(planes[0], x_list[0])
    assert plane_distance(planes[1], step) < 1e-12
    for p in planes:
        assert isotropy_residual(p) < 1e-10
    # a direction already inside the plane leaves it unchanged
    same = bang_bang_sequence(l0, [np.array([1.0, 0.0, 0.0, 0.0])])
    assert plane_distance(same[0], same[1]) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(st.sampled_from(["zero", "inside", "generic"]),
                                   min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_bang_bang_sequence_matches_the_per_switch_extension(n, kinds, seed):
    # the reference is the per-switch recursion the rank-one update replaced,
    # one SVD extension per switch; x = 0 and x in L leave the plane, and a
    # generic x moves it
    rng = np.random.default_rng(seed)
    l0 = random_lagrangian(rng, n)
    ref = [canonicalize(l0)]
    x_list = []
    for kind in kinds:
        if kind == "zero":
            x = np.zeros(2 * n)
        elif kind == "inside":
            x = ref[-1] @ rng.normal(size=n)
        else:
            x = rng.normal(size=2 * n) * 10.0 ** rng.uniform(-3, 3)
        x_list.append(x)
        ref.append(svd_extension(ref[-1], x))
    planes = bang_bang_sequence(l0, x_list)
    assert len(planes) == len(ref)
    # a canonical frame is accurate to rounding times its size: with a small
    # echelon pivot its entries reach 1e3 to 1e4, and the canonical frames of
    # l0 and of its QR alone are then up to 1e-13 apart
    size = max(1.0, np.abs(np.stack(ref)).max())
    assert np.max(plane_distance(planes, np.stack(ref))) < 1e-13 * size
    assert np.max(isotropy_residual(planes)) < 1e-13
    moved = plane_distance(planes[:-1], planes[1:]) > 1e-10
    ref_moved = plane_distance(np.stack(ref[:-1]), np.stack(ref[1:])) > 1e-10
    assert np.array_equal(moved, ref_moved)
    # the frames differ exactly where the plane moved: the bang-bang events
    assert np.array_equal((planes[:-1] != planes[1:]).any(axis=(1, 2)), moved)
    assert np.array_equal(moved, [kind == "generic" for kind in kinds])


def test_bang_bang_verb_makes_no_general_extension(tmp_path, monkeypatch):
    # every switch is a rank-one update; the extension serves the jump
    # operator and the infinite-order curve only
    calls = []
    extend = grassmann._extend
    for module in (grassmann, engine):
        monkeypatch.setattr(module, "_extend", lambda *a: calls.append(a) or extend(*a))
    scenario = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "bangbang.json"
    assert cli.main(["bangbang", str(scenario), "--out", str(tmp_path / "b.csv")]) == 0
    assert calls == []
    data = PiecewiseAnalytic(breakpoints=[0.0, 1.0], b_pieces=[[0.0]], x_pieces=[[[1.0], [0.0]]])
    infinite_order_curve(data, np.array([[0.0], [1.0]]), (0.0, 1.0))
    assert len(calls) == 1


# -- reference: the iterative L-derivative fold over a partition.  It rebuilds
# the planes of singular_jacobi_curve from one-step extensions and converges
# to them as the partition refines.


def _polyint_rows(c: np.ndarray) -> np.ndarray:
    """Row-wise antiderivative at a fixed width.

    ``polyint`` trims identically-zero rows to length one, so stacking its
    raw outputs fails whenever one component vanishes; pad every row to the
    common degree instead.
    """
    out = np.zeros((c.shape[0], c.shape[1] + 1))
    for i, row in enumerate(c):
        p = npp.polyint(row)
        out[i, : p.size] = p
    return out


def _integral_x(data, a, b):
    """Exact integral of X over [a, b], split at interior breakpoints."""
    if b < a:
        return -_integral_x(data, b, a)
    out = np.zeros(data.dim)
    cuts = [a] + [float(t) for t in data.breakpoints if a < t < b] + [b]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        c = data.x_pieces[data.piece_index(0.5 * (lo + hi))]
        prim = _polyint_rows(c)
        out += meval(prim.T, hi) - meval(prim.T, lo)
    return out


def iterative_l_derivative(data, l_start, partition):
    """Fold of one-step L-derivative extensions over a partition.

    On each cell ``[t, t+eps]`` the plane is extended by

        eta = K eta_0 + (1/eps) int X,
        K = -[ (1/eps) int (sigma(int X, X) + b) ] / sigma(eta_0, int X),

    where ``eta_0`` is the canonical column of the current plane with the
    largest pairing against ``int X``; when every pairing is below
    ``1e-8 |int X|`` the integral already lies in the plane and the cell
    leaves it unchanged.  All integrals are exact coefficient integrals.
    """
    partition = np.asarray(partition, dtype=float)
    if partition.size < 2 or not np.all(np.diff(partition) > 0):
        raise PreconditionError("partition must be strictly increasing")
    plane = canonicalize(validate_lagrangian(np.asarray(l_start, dtype=float)))
    planes = [plane]
    for ta, tb in zip(partition[:-1], partition[1:]):
        eps = tb - ta
        ix = _integral_x(data, ta, tb)
        nix = float(np.linalg.norm(ix))
        if nix == 0.0:
            planes.append(plane)
            continue
        pairings = gram(plane, ix[:, None])[:, 0]
        col_norms = np.linalg.norm(plane, axis=0)
        rel = np.abs(pairings) / np.where(col_norms == 0, 1.0, col_norms)
        if np.max(rel) <= 1e-8 * nix:
            # int X already lies in the plane: the cell adds nothing new
            planes.append(plane)
            continue
        j = int(np.argmax(rel))
        eta0 = plane[:, j]
        denom = float(pairings[j])
        # numerator: int over the cell of sigma(int_ta^tau X, X(tau)) + b(tau)
        num = _cell_numerator(data, ta, tb)
        k = -num / eps / denom
        eta = k * eta0 + ix / eps
        plane = extend_by_isotropic(plane, eta)
        planes.append(plane)
    return GrassmannCurve(times=partition, planes=planes)


def _cell_numerator(data, ta, tb):
    """Exact integral of sigma(int_ta^tau X, X(tau)) + b(tau) over [ta, tb]."""
    total = 0.0
    cuts = [ta] + [float(t) for t in data.breakpoints if ta < t < tb] + [tb]
    carry = np.zeros(data.dim)  # int_ta^lo X
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        p = data.piece_index(0.5 * (lo + hi))
        c = data.x_pieces[p]
        prim = _polyint_rows(c)
        base = meval(prim.T, lo)
        # int_ta^tau X = carry + prim(tau) - prim(lo), componentwise polynomials
        shifted = prim.copy()
        shifted[:, 0] += carry - base
        integrand = _sigma_poly(shifted, c)
        bpoly = np.zeros(max(integrand.size, data.b_pieces[p].size))
        bpoly[: integrand.size] += integrand
        bpoly[: data.b_pieces[p].size] += data.b_pieces[p]
        pint = npp.polyint(bpoly)
        total += float(meval(pint, hi) - meval(pint, lo))
        carry = carry + meval(prim.T, hi) - base
    return total


def test_iterative_l_derivative_constant_field():
    # b = 0, X constant: the first cell inserts X exactly, later cells skip
    x = np.array([[0.0], [1.0], [0.5], [0.0]])
    data = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0]), b_pieces=[np.array([0.0])],
        x_pieces=[x],
    )
    l0 = vertical_plane(2)
    curve = iterative_l_derivative(data, l0, np.linspace(0.0, 1.0, 5))
    assert len(curve.planes) == 5
    target = extend_by_isotropic(l0, x[:, 0])
    for p in curve.planes[1:]:
        assert plane_distance(p, target) < 1e-10
    with pytest.raises(PreconditionError):
        iterative_l_derivative(data, l0, np.array([0.0]))
    with pytest.raises(PreconditionError):
        iterative_l_derivative(data, l0, np.array([0.0, 0.0, 1.0]))


def test_iterative_l_derivative_regular_trend():
    # order-zero data with drifting X: refining the partition converges to
    # the flow plane (constant X is reproduced exactly, so no trend there)
    data = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 2.0]),
        b_pieces=[np.array([-1.0])],
        x_pieces=[np.array([[1.0, 0.0], [0.0, 1.0]])],
    )
    l0 = np.array([[1.0], [0.2]])
    trace = singular_jacobi_curve(data, l0, np.linspace(0.0, 2.0, 5))
    target = trace.curve.planes[-1]
    errs = []
    for cells in (2**4, 2**6, 2**8):
        curve = iterative_l_derivative(data, l0, np.linspace(0.0, 2.0, cells + 1))
        errs.append(plane_distance(curve.planes[-1], target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-6


def test_conservation_pairings_vanish_along_solutions():
    data = _data_m1()
    l0 = canonicalize(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.3]]))
    grid = np.linspace(0.0, 1.0, 11)
    trace = singular_jacobi_curve(data, l0, grid)
    # sigma(mu, X) = 0 transfers to the full plane pairing with X
    for t, p in zip(grid, trace.curve.planes):
        x = data.x(float(t))
        assert np.max(np.abs(gram(x[:, None], p))) < 1e-7


def _two_piece_data():
    # order-zero data whose X jumps at t = 1.234, which is no grid node
    rng = np.random.default_rng(3)
    return PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.234, 3.0]),
        b_pieces=[np.array([-1.0, 0.2]), np.array([-1.5, 0.1])],
        x_pieces=[rng.normal(size=(4, 3)), rng.normal(size=(4, 3))],
    )


def _piecewise_reference(data, l0, grid):
    """mu' = X sigma(X, mu) / b integrated piece by piece with polyval at rtol 3e-14."""
    out, cur = [l0], l0.ravel()
    for p, (a, b) in enumerate(zip(data.breakpoints[:-1], data.breakpoints[1:])):
        def rhs(t, y, p=p):
            x = npp.polyval(t, data.x_pieces[p].T)
            row = np.concatenate([-x[2:], x[:2]])  # sigma(X, mu) = row . mu
            dmu = np.outer(x, row) @ y.reshape(l0.shape) / npp.polyval(t, data.b_pieces[p])
            return dmu.ravel()
        nodes = grid[(grid > a) & (grid < b)]
        sol = solve_ivp(rhs, (a, b), cur, method="DOP853", rtol=3e-14, atol=1e-15,
                        t_eval=np.append(nodes, b))
        out += [y.reshape(l0.shape) for y in sol.y.T[:-1]]
        cur = sol.y[:, -1]
    out.append(cur.reshape(l0.shape))
    return out


def test_piecewise_curve_marches_once_per_piece(monkeypatch):
    data = _two_piece_data()
    l0 = canonicalize(np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.2], [0.2, -0.5]]))
    grid = np.linspace(0.0, 3.0, 31)
    calls = []
    integrate = engine._integrate
    monkeypatch.setattr(engine, "_integrate",
                        lambda *a, **k: calls.append((a[2][0], a[2][-1])) or integrate(*a, **k))
    trace = singular_jacobi_curve(data, l0, grid)
    assert trace.diagnostics["order"] == 0
    assert calls == [(0.0, 1.234), (1.234, 3.0)]
    ref = _piecewise_reference(data, l0, grid)
    assert max(plane_distance(p, r) for p, r in zip(trace.curve.planes, ref)) < 1e-10


def test_singular_jacobi_curve_honours_rtol():
    # every node is a step end, so the nodes lie far enough apart for rtol to
    # bind: the march is 1.6e-14 off at rtol 1e-12, 6.0e-9 at 1e-5 and 2.4e-8
    # at 1e-4
    data = _two_piece_data()
    l0 = canonicalize(np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.2], [0.2, -0.5]]))
    grid = np.linspace(0.0, 3.0, 4)
    ref = _piecewise_reference(data, l0, grid)

    def gap(rtol):
        planes = singular_jacobi_curve(data, l0, grid, rtol=rtol).curve.planes
        return max(plane_distance(p, r) for p, r in zip(planes, ref))

    assert gap(1e-12) < 1e-10 < 1e-8 < gap(1e-4)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.2, 1.4), st.booleans())
def test_an_affine_reparametrisation_moves_the_planes_to_the_mapped_nodes(seed, log_alpha,
                                                                           shrink):
    # t = alpha s: the order-0 curve of X~(s) = X(alpha s), b~(s) = b(alpha s) / alpha
    # is the curve of (X, b) at the mapped nodes, as mu' = X sigma(X, mu) / b
    # is invariant; leaving b unscaled changes the equation (on 30 seeds the
    # gaps were 4.5e-14 at most, and 0.067 at least with b unscaled)
    rng = np.random.default_rng(seed)
    alpha = float(np.exp(-log_alpha if shrink else log_alpha))
    x = rng.uniform(-1.0, 1.0, size=(4, 4)) * 0.5 ** np.arange(4)
    b = np.array([-1.0, rng.uniform(-0.4, 0.4)])
    l0 = random_lagrangian(rng, 2)
    t = np.linspace(0.0, 2.0, 21)

    def planes(data, nodes):
        return singular_jacobi_curve(data, l0, nodes).curve.planes

    def scaled(weight):
        return PiecewiseAnalytic(np.array([0.0, 2.0 / alpha]), [weight * alpha ** np.arange(2)],
                                 [x * alpha ** np.arange(4)])

    ref = planes(PiecewiseAnalytic(np.array([0.0, 2.0]), [b], [x]), t)
    assert np.max(plane_distance(planes(scaled(b / alpha), t / alpha), ref)) < 1e-12
    assert np.max(plane_distance(planes(scaled(b), t / alpha), ref)) > 1e-3


def test_nodes_inside_a_step_keep_step_end_accuracy():
    # a cubic order-zero curve on 200 nodes: nodes read off an interpolant
    # inside long steps once lay 2.6e-11 from the tight march; every node is
    # now a step end
    data = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 2.0]),
        b_pieces=[np.array([-1.0])],
        x_pieces=[np.array([[-0.447388, -0.605318, -0.884011, -0.33333],
                            [-0.948155, 0.686134, 0.452364, -1.023323],
                            [-0.543483, 0.859148, 0.962983, 0.795861],
                            [-0.332732, -0.647933, 0.523855, 0.09139]])],
    )
    l0 = np.array([[1.0, 0.0], [0.0, 1.0], [-0.17639, 0.761395], [0.761395, -0.962003]])
    grid = np.linspace(0.0, 2.0, 200)

    def planes(rtol):
        return singular_jacobi_curve(data, l0, grid, rtol=rtol).curve.planes

    assert max(plane_distance(p, r) for p, r in zip(planes(1e-12), planes(3e-14))) < 1e-11


if __name__ == "__main__":
    pytest.main([__file__])
