import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiflow.errors import PoleError, PreconditionError
from jacobiflow.flows import (
    HamiltonianCoefficients,
    flow_plane,
    fundamental_matrix,
    fundamental_solution,
    riccati_flow,
    symplectic_inverse,
)
from jacobiflow.grassmann import plane_distance, random_lagrangian, vertical_plane
from jacobiflow.symplectic import check_structure, isotropy_residual


def _harmonic():
    # p' = q, q' = -p: rotation generator J
    return HamiltonianCoefficients(
        a=np.zeros((1, 1)), b=np.array([[1.0]]), c=np.array([[-1.0]])
    )


def test_coefficients_evaluate_to_block_matrix():
    h = HamiltonianCoefficients(
        a=np.array([[0.5]]), b=np.array([[2.0]]), c=np.array([[3.0]])
    )
    m = h(0.7)
    assert np.allclose(m, [[0.5, 2.0], [3.0, -0.5]])
    # polynomial stacks, lowest order first
    hp = HamiltonianCoefficients(
        a=np.zeros((2, 1, 1)),
        b=np.array([[[1.0]], [[2.0]]]),
        c=np.zeros((1, 1, 1)),
    )
    assert hp(0.5)[0, 1] == pytest.approx(2.0)


def test_coefficients_pole():
    h = HamiltonianCoefficients(
        a=np.zeros((1, 1)), b=np.array([[1.0]]), c=np.array([[0.0]]), pole_order=2
    )
    assert h(0.5)[0, 1] == pytest.approx(4.0)
    with pytest.raises(PoleError):
        h(0.0)


def _power_sum(coeffs, t):
    """Reference: the power sum ``sum_k coeffs[k] t^k`` the Horner pass replaced."""
    out = np.zeros(coeffs.shape[1:])
    tk = 1.0
    for ck in coeffs:
        out += ck * tk
        tk *= t
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(0, 2), st.floats(-1.0, 1.0),
       st.integers(0, 2**31 - 1))
def test_coefficients_match_power_sum(n, pole, t, seed):
    if pole and abs(t) < 1e-3:
        t = 0.5
    rng = np.random.default_rng(seed)

    def stack(sym):
        c = rng.normal(size=(int(rng.integers(1, 7)), n, n))
        c[int(rng.integers(1, c.shape[0] + 1)):] = 0.0  # trailing zero orders
        return 0.5 * (c + np.transpose(c, (0, 2, 1))) if sym else c

    a, b, c = stack(False), stack(True), stack(True)
    h = HamiltonianCoefficients(a=a, b=b, c=c, pole_order=pole)

    at, bt, ct = (_power_sum(x, t) for x in (a, b, c))
    ref = np.block([[at, bt / t**pole], [ct, -at.T]])
    aa, ab, ac = (_power_sum(np.abs(x), abs(t)) for x in (a, b, c))
    scale = np.block([[aa, ab / abs(t) ** pole], [ac, aa.T]])
    assert np.all(np.abs(h(t) - ref) <= 1e-14 * scale)
    assert np.array_equal(np.hstack(h.blocks(t)[:2]), h(t)[:n])


def test_coefficients_reject_nonsymmetric_blocks():
    b = np.array([[1.0, 2.0], [0.0, 1.0]])
    sym = np.eye(2)
    with pytest.raises(PreconditionError):
        HamiltonianCoefficients(a=np.zeros((2, 2)), b=b, c=sym)
    with pytest.raises(PreconditionError):
        HamiltonianCoefficients(a=np.zeros((2, 2)), b=sym, c=b)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_fundamental_matrix_rotation(t):
    phi = fundamental_matrix(_harmonic(), 0.0, t)
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.max(np.abs(phi - expected)) < 1e-10
    assert abs(np.linalg.det(phi) - 1.0) < 1e-10


def test_fundamental_matrix_reverse_rotation():
    h = HamiltonianCoefficients(
        a=np.zeros((1, 1)), b=np.array([[-1.0]]), c=np.array([[1.0]])
    )
    phi = fundamental_matrix(h, 0.0, 1.0)
    expected = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    assert np.max(np.abs(phi - expected)) < 1e-10


def test_fundamental_matrix_is_symplectic():
    rng = np.random.default_rng(4)
    b = rng.normal(size=(2, 2))
    b = b + b.T
    c = rng.normal(size=(2, 2))
    c = c + c.T
    h = HamiltonianCoefficients(a=rng.normal(size=(2, 2)), b=b, c=c)
    phi = fundamental_matrix(h, 0.0, 1.5)
    assert check_structure(phi, "symplectic", tol=1e-8)
    assert np.allclose(fundamental_matrix(h, 0.0, 0.0), np.eye(4))


def test_fundamental_matrix_refuses_to_cross_pole():
    h = HamiltonianCoefficients(
        a=np.zeros((1, 1)), b=np.array([[1.0]]), c=np.array([[0.5]]), pole_order=2
    )
    with pytest.raises(PoleError):
        fundamental_matrix(h, 1.0, -1.0)


def test_fundamental_solution_interpolant():
    interp, dim = fundamental_solution(_harmonic(), 0.0, 2.0)
    assert dim == 2
    for t in (0.4, 1.1, 2.0):
        direct = fundamental_matrix(_harmonic(), 0.0, t)
        assert np.max(np.abs(interp(t) - direct)) < 1e-9


def test_symplectic_inverse():
    phi = fundamental_matrix(_harmonic(), 0.0, 0.8)
    assert np.allclose(symplectic_inverse(phi), np.linalg.inv(phi), atol=1e-12)
    rng = np.random.default_rng(6)
    b = rng.normal(size=(2, 2))
    h = HamiltonianCoefficients(a=rng.normal(size=(2, 2)), b=b + b.T, c=np.zeros((2, 2)))
    phi = fundamental_matrix(h, 0.0, 1.0)
    assert np.allclose(symplectic_inverse(phi) @ phi, np.eye(4), atol=1e-8)


def test_flow_plane_matches_matrix_action():
    grid = np.linspace(0.0, 2.0, 9)
    curve = flow_plane(_harmonic(), vertical_plane(1), grid)
    assert len(curve) == grid.size
    for t, p in zip(curve.times, curve.planes):
        phi = fundamental_matrix(_harmonic(), 0.0, float(t))
        assert plane_distance(p, phi @ vertical_plane(1)) < 1e-10
        assert isotropy_residual(p) < 1e-10


def test_riccati_flow_harmonic_chart_switch():
    # S' = 1 + S^2 from S(0) = 0 is tan(t): blows up at pi/2, forcing a swap
    grid = np.linspace(0.0, 3.0, 7)
    res = riccati_flow(np.zeros((1, 1)), _harmonic(), grid)
    assert len(res.events) == 1
    t_event, chart_index = res.events[0]
    assert chart_index == 0
    assert abs(t_event - 1.5698) < 1e-3
    assert res.max_asymmetry == 0.0
    curve = res.curve()
    flow = flow_plane(_harmonic(), vertical_plane(1), grid)
    dists = [plane_distance(a, b) for a, b in zip(curve.planes, flow.planes)]
    assert max(dists) < 1e-12


def test_riccati_flow_records_one_point_per_node():
    grid = np.linspace(0.0, 1.0, 5)
    res = riccati_flow(np.array([[0.2]]), _harmonic(), grid)
    assert len(res.points) == grid.size
    assert res.events == []
    # chart values stay symmetric for symmetric input
    for pt in res.points:
        assert np.allclose(pt.s, pt.s.T)


def test_riccati_flow_n2():
    rng = np.random.default_rng(12)
    b = rng.normal(size=(2, 2))
    b = 0.5 * (b + b.T)
    c = rng.normal(size=(2, 2))
    c = 0.5 * (c + c.T)
    h = HamiltonianCoefficients(a=rng.normal(size=(2, 2)), b=b, c=c)
    s0 = rng.normal(size=(2, 2))
    s0 = 0.5 * (s0 + s0.T)
    grid = np.linspace(0.0, 1.5, 7)
    res = riccati_flow(s0, h, grid)
    start = np.vstack([np.eye(2), s0])
    flow = flow_plane(h, start, grid)
    curve = res.curve()
    dists = [plane_distance(a, b_) for a, b_ in zip(curve.planes, flow.planes)]
    assert max(dists) < 1e-9
    assert res.max_asymmetry < 1e-9


if __name__ == "__main__":
    pytest.main([__file__])
