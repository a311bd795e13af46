import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp
from scipy.integrate import solve_ivp

from jacobiflow import flows

from jacobiflow.engine import (
    PiecewiseAnalytic,
    _sigma_poly,
    bang_bang_sequence,
    goh_subspace,
    infinite_order_curve,
    legendre_sequence,
    singular_jacobi_curve,
)
from jacobiflow.errors import PreconditionError, UndecidedError
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
    assert np.allclose(_integral_x(data, 0.5, 1.5), [0.375 + 0.5, 1.0 + 1.0])
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
    integrate = flows._integrate
    monkeypatch.setattr(flows, "_integrate",
                        lambda *a, **k: calls.append(a[2:4]) or integrate(*a, **k))
    trace = singular_jacobi_curve(data, l0, (0.0, 3.0), grid)
    assert trace.diagnostics["order"] == 0
    assert calls == [(0.0, 1.234), (1.234, 3.0)]
    ref = _piecewise_reference(data, l0, grid)
    assert max(plane_distance(p, r) for p, r in zip(trace.curve.planes, ref)) < 1e-10


def test_singular_jacobi_curve_honours_rtol():
    data = _two_piece_data()
    l0 = canonicalize(np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.2], [0.2, -0.5]]))
    grid = np.linspace(0.0, 3.0, 31)
    ref = _piecewise_reference(data, l0, grid)

    def gap(rtol):
        planes = singular_jacobi_curve(data, l0, (0.0, 3.0), grid, rtol=rtol).curve.planes
        return max(plane_distance(p, r) for p, r in zip(planes, ref))

    assert gap(1e-12) < 1e-10 < 1e-8 < gap(1e-5)


def test_nodes_inside_a_step_keep_step_end_accuracy():
    # a cubic order-zero curve on 200 nodes: with steps of any length, nodes
    # read off DOP853's interpolant lay 2.6e-11 from the tight march
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
        return singular_jacobi_curve(data, l0, (0.0, 2.0), grid, rtol=rtol).curve.planes

    assert max(plane_distance(p, r) for p, r in zip(planes(1e-12), planes(3e-14))) < 1e-11


if __name__ == "__main__":
    pytest.main([__file__])
