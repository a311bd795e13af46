import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from jacobiflow.engine import (
    PiecewiseAnalytic,
    bang_bang_sequence,
    goh_subspace,
    infinite_order_curve,
    iterative_l_derivative,
    legendre_sequence,
    singular_jacobi_curve,
)
from jacobiflow.errors import PreconditionError, UndecidedError
from jacobiflow.grassmann import (
    canonicalize,
    extend_by_isotropic,
    horizontal_plane,
    plane_distance,
    to_chart,
    vertical_plane,
)
from jacobiflow.symplectic import gram, isotropy_residual


def _polyder_x(data, t, deriv, side):
    """Reference: the per-call ``polyder`` evaluation the cached stacks replaced."""
    c = data.x_pieces[data.piece_index(t, side)]
    if deriv:
        if deriv >= c.shape[1]:
            return np.zeros(data.dim)
        c = np.apply_along_axis(lambda row: npp.polyder(row, deriv), 1, c)
    return npp.polyval(t, c.T)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.floats(-1.0, 1.0), st.sampled_from("+-"),
       st.integers(0, 2**31 - 1))
def test_piecewise_evaluation_matches_polyder_path(deriv, t, side, seed):
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
    ref = _polyder_x(data, t, deriv, side)
    bref = npp.polyval(t, npp.polyder(b_pieces[data.piece_index(t, side)], deriv))
    for _ in range(2):  # the second call reads the cached stacks
        assert np.array_equal(data.x(t, deriv=deriv, side=side), ref)
        assert data.b(t, deriv=deriv, side=side) == bref


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
    assert data.b(0.5) == pytest.approx(1.5)
    assert data.b(1.0) == 3.0  # breakpoint resolves to the right piece
    assert data.b(1.0, side="-") == 2.0
    assert np.allclose(data.x(0.5), [0.5, 2.0])
    assert np.allclose(data.x(0.5, deriv=1), [1.0, 0.0])
    assert np.allclose(data.x(0.5, deriv=5), [0.0, 0.0])
    # exact integral across the interior breakpoint
    assert np.allclose(data.integral_x(0.5, 1.5), [0.375 + 0.5, 1.0 + 1.0])
    with pytest.raises(PreconditionError):
        data.piece_index(3.0)


def test_legendre_sequence_orders():
    assert legendre_sequence(_data_m0(), (0.0, 2.0), imax=4).first_nonzero == 0
    assert legendre_sequence(_data_m1(), (0.0, 1.0), imax=4).first_nonzero == 1
    seq2 = legendre_sequence(_data_m2(), (0.0, 1.0), imax=6)
    assert seq2.first_nonzero == 2
    assert seq2.value(2, 0.3, _data_m2()) == pytest.approx(-1.0)


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
    seq = legendre_sequence(data, (0.0, 1.0), imax=2)
    entry = seq.entries[1][0]
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
    trace = singular_jacobi_curve(data, l0, (0.0, 2.0), grid)
    assert trace.diagnostics["order"] == 0
    assert trace.diagnostics["lagrangian_residual"] < 1e-10
    for t, p in zip(grid, trace.curve.planes):
        sval = to_chart(p, horizontal_plane(1), vertical_plane(1)).s[0, 0]
        assert sval == pytest.approx(s / (1.0 - s * t), abs=1e-9)


def test_singular_curve_order_one_conservation():
    data = _data_m1()
    l0 = canonicalize(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.3]]))
    grid = np.linspace(0.0, 1.0, 11)
    trace = singular_jacobi_curve(data, l0, (0.0, 1.0), grid)
    assert trace.diagnostics["order"] == 1
    assert trace.diagnostics["conservation_drift"] < 1e-8
    assert trace.diagnostics["lagrangian_residual"] < 1e-8
    # every plane contains the current X(t)
    for t, p in zip(grid, trace.curve.planes):
        x = data.x(float(t))
        resid = x - p @ np.linalg.lstsq(p, x, rcond=None)[0]
        assert np.linalg.norm(resid) < 1e-8


def test_singular_curve_order_equals_n():
    data = _data_m2()
    l0 = horizontal_plane(2)
    grid = np.linspace(0.0, 1.0, 6)
    trace = singular_jacobi_curve(data, l0, (0.0, 1.0), grid)
    assert trace.diagnostics["order"] == 2
    for t, p in zip(grid, trace.curve.planes):
        goh = goh_subspace(data, float(t), 1)
        assert plane_distance(p, goh) < 1e-9
        assert isotropy_residual(p) < 1e-9


def test_singular_curve_rejects_bad_grid_and_sign():
    data = _data_m0()
    l0 = np.array([[1.0], [0.0]])
    with pytest.raises(PreconditionError):
        singular_jacobi_curve(data, l0, (0.0, 2.0), np.array([0.0, 1.0]))
    bad = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0]),
        b_pieces=[np.array([1.0])],
        x_pieces=[np.array([[1.0], [0.0]])],
    )
    with pytest.raises(PreconditionError):
        singular_jacobi_curve(bad, l0, (0.0, 1.0), np.array([0.0, 1.0]))


def test_infinite_order_curve():
    x = np.array([[1.0], [0.0]])
    data = PiecewiseAnalytic(
        breakpoints=np.array([0.0, 1.0]), b_pieces=[np.array([0.0])], x_pieces=[x]
    )
    l0 = np.array([[0.0], [1.0]])
    with pytest.raises(UndecidedError):
        singular_jacobi_curve(data, l0, (0.0, 1.0), np.array([0.0, 1.0]))
    trace = infinite_order_curve(data, l0, (0.0, 1.0))
    assert trace.diagnostics["order"] is None
    assert len(trace.curve.planes) == 2
    # extension of the horizontal line by span{e_p1} is the full... n=1: e_p1 itself
    assert plane_distance(trace.curve.planes[0], vertical_plane(1)) < 1e-12
    with pytest.raises(PreconditionError):
        infinite_order_curve(_data_m1(), vertical_plane(2), (0.0, 1.0))


def test_bang_bang_sequence():
    l0 = vertical_plane(2)
    x_list = [np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.5])]
    planes = bang_bang_sequence(l0, x_list)
    assert len(planes) == 3
    assert plane_distance(planes[0], l0) < 1e-12
    step = extend_by_isotropic(planes[0], x_list[0])
    assert plane_distance(planes[1], step) < 1e-12
    for p in planes:
        assert isotropy_residual(p) < 1e-10
    # a direction already inside the plane leaves it unchanged
    same = bang_bang_sequence(l0, [np.array([1.0, 0.0, 0.0, 0.0])])
    assert plane_distance(same[0], same[1]) < 1e-12


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
    trace = singular_jacobi_curve(data, l0, (0.0, 2.0), np.linspace(0.0, 2.0, 5))
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
    trace = singular_jacobi_curve(data, l0, (0.0, 1.0), grid)
    # sigma(mu, X) = 0 transfers to the full plane pairing with X
    for t, p in zip(grid, trace.curve.planes):
        x = data.x(float(t))
        assert np.max(np.abs(gram(x[:, None], p))) < 1e-7


if __name__ == "__main__":
    pytest.main([__file__])
