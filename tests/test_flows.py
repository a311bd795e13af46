import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from jacobiflow import flows
from jacobiflow.errors import PoleError, PreconditionError
from jacobiflow.flows import (
    HamiltonianCoefficients,
    _transport,
    flow_plane,
)
from jacobiflow.grassmann import (
    horizontal_plane,
    plane_distance,
    to_chart,
    vertical_plane,
)
from jacobiflow.symplectic import check_structure, isotropy_residual, symplectic_inverse


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


def _fundamental(h, t):
    """Fundamental matrix at ``t`` of ``h``: one march of the identity from 0."""
    return _transport(h, np.eye(2 * h.n), [0.0, t], 1e-12)[-1]


def _expm_flow(h, t):
    """Reference for constant coefficients: exp(t M), independent of the kernel."""
    return expm(t * h(0.0))


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_fundamental_matrix_rotation(t):
    phi = _fundamental(_harmonic(), t)
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.max(np.abs(phi - expected)) < 1e-10
    assert abs(np.linalg.det(phi) - 1.0) < 1e-10


def test_fundamental_matrix_reverse_rotation():
    h = HamiltonianCoefficients(
        a=np.zeros((1, 1)), b=np.array([[-1.0]]), c=np.array([[1.0]])
    )
    phi = _fundamental(h, 1.0)
    expected = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    assert np.max(np.abs(phi - expected)) < 1e-10


def test_fundamental_matrix_is_symplectic():
    rng = np.random.default_rng(4)
    b = rng.normal(size=(2, 2))
    b = b + b.T
    c = rng.normal(size=(2, 2))
    c = c + c.T
    h = HamiltonianCoefficients(a=rng.normal(size=(2, 2)), b=b, c=c)
    phi = _fundamental(h, 1.5)
    ref = _expm_flow(h, 1.5)
    assert np.max(np.abs(phi - ref)) < 1e-9 * np.max(np.abs(ref))
    assert check_structure(phi, "symplectic", tol=1e-8)


@pytest.mark.filterwarnings("error")
def test_flow_plane_refuses_to_cross_pole():
    # the march stalls at the order-2 pole at t = 0: one PoleError, and no
    # floating-point warning on the way there
    h = HamiltonianCoefficients(
        a=np.zeros((1, 1)), b=np.array([[1.0]]), c=np.array([[0.5]]), pole_order=2
    )
    with pytest.raises(PoleError, match="stalled"):
        flow_plane(h, vertical_plane(1), [1.0, -1.0])


def test_fundamental_solution_interpolant():
    # nodes inside the march are read off the solver's interpolant
    ts = [0.0, 0.4, 1.1, 2.0]
    frames = _transport(_harmonic(), np.eye(2), ts, 1e-12)
    for t, phi in zip(ts, frames):
        assert np.max(np.abs(phi - _expm_flow(_harmonic(), t))) < 1e-9


def test_symplectic_inverse():
    phi = _expm_flow(_harmonic(), 0.8)
    assert np.allclose(symplectic_inverse(phi), np.linalg.inv(phi), atol=1e-12)
    rng = np.random.default_rng(6)
    b = rng.normal(size=(2, 2))
    h = HamiltonianCoefficients(a=rng.normal(size=(2, 2)), b=b + b.T, c=np.zeros((2, 2)))
    phi = _expm_flow(h, 1.0)
    assert np.allclose(symplectic_inverse(phi) @ phi, np.eye(4), atol=1e-8)


def test_flow_plane_matches_matrix_action():
    grid = np.linspace(0.0, 2.0, 9)
    curve = flow_plane(_harmonic(), vertical_plane(1), grid)
    assert len(curve) == grid.size
    for t, p in zip(curve.times, curve.planes):
        phi = _expm_flow(_harmonic(), float(t))
        assert plane_distance(p, phi @ vertical_plane(1)) < 1e-10
        assert isotropy_residual(p) < 1e-10


# A chart matrix S solves the Riccati equation exactly when graph(S) is moved
# by the flow; the package moves planes as frames only, so these check
# flow_plane against exp(t M) and against closed-form Riccati solutions.


def _harmonic_chart(p):
    return to_chart(p, horizontal_plane(1), vertical_plane(1)).s[0, 0]


def test_flow_plane_passes_a_chart_pole():
    # graph(S) with S' = -1 - S^2, S(0) = 0: S = -tan(t) has a chart pole at
    # pi/2, which ends no frame transport
    grid = np.linspace(0.0, 3.0, 7)
    flow = flow_plane(_harmonic(), vertical_plane(1), grid)
    for t, p in zip(grid, flow.planes):
        phi = _expm_flow(_harmonic(), float(t))
        assert plane_distance(p, phi @ vertical_plane(1)) < 1e-10
        assert _harmonic_chart(p) == pytest.approx(-np.tan(t), rel=1e-10, abs=1e-12)


def test_flow_plane_records_one_plane_per_node():
    grid = np.linspace(0.0, 1.0, 5)
    flow = flow_plane(_harmonic(), np.array([[1.0], [0.2]]), grid)
    assert len(flow.planes) == grid.size
    assert np.array_equal(flow.times, grid)
    for t, p in zip(grid, flow.planes):
        assert _harmonic_chart(p) == pytest.approx(np.tan(np.arctan(0.2) - t), rel=1e-10)


def test_flow_plane_n2():
    rng = np.random.default_rng(12)
    b = rng.normal(size=(2, 2))
    b = 0.5 * (b + b.T)
    c = rng.normal(size=(2, 2))
    c = 0.5 * (c + c.T)
    h = HamiltonianCoefficients(a=rng.normal(size=(2, 2)), b=b, c=c)
    s0 = rng.normal(size=(2, 2))
    s0 = 0.5 * (s0 + s0.T)
    grid = np.linspace(0.0, 1.5, 7)
    start = np.vstack([np.eye(2), s0])
    flow = flow_plane(h, start, grid)
    for t, p in zip(grid, flow.planes):
        phi = _expm_flow(h, float(t))
        assert plane_distance(p, phi @ start) < 1e-9
        assert isotropy_residual(p) < 1e-10


def _counted_integrate(monkeypatch) -> list:
    """Record the (t0, t1) span of every call into the transport kernel."""
    spans = []
    integrate = flows._integrate
    monkeypatch.setattr(flows, "_integrate",
                        lambda *a, **k: spans.append(a[2:4]) or integrate(*a, **k))
    return spans


def test_flow_plane_on_a_refined_grid_makes_the_same_march(monkeypatch):
    # refining the grid adds no solver call and moves no plane beyond the tolerance
    rng = np.random.default_rng(4)
    sym = [0.5 * (m + np.swapaxes(m, 1, 2)) for m in rng.normal(size=(2, 3, 2, 2))]
    h = HamiltonianCoefficients(a=rng.normal(size=(3, 2, 2)), b=sym[0], c=sym[1])
    start = np.vstack([np.eye(2), sym[0][0]])
    spans = _counted_integrate(monkeypatch)
    coarse = flow_plane(h, start, np.linspace(0.0, 3.0, 7))
    coarse_spans = spans[:]
    fine = flow_plane(h, start, np.linspace(0.0, 3.0, 25))
    # the same solver calls, each to the end of the grid: no node restarts the solver
    assert spans == 2 * coarse_spans
    assert all(t1 == 3.0 for _, t1 in spans)
    assert np.array_equal(fine.times[::4], coarse.times)
    gaps = [plane_distance(a, b) for a, b in zip(coarse.planes, fine.planes[::4])]
    assert max(gaps) < 1e-10


def test_restarts_keep_a_fast_growing_frame_on_its_closed_form(monkeypatch):
    # lambda' = [[A, 0], [0, -A]] lambda with A = R diag(1, 0.5) R^T: the
    # frame grows by e^30, far past _AMP_LIMIT, and the plane is [I; S(t)]
    # with S(t) = e^{-At} S0 e^{-At}
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    a = rot @ np.diag([1.0, 0.5]) @ rot.T
    s0 = np.array([[0.4, -0.3], [-0.3, 1.2]])
    h = HamiltonianCoefficients(a=a, b=np.zeros((2, 2)), c=np.zeros((2, 2)))
    grid = np.linspace(0.0, 30.0, 16)
    spans = _counted_integrate(monkeypatch)
    flow = flow_plane(h, np.vstack([np.eye(2), s0]), grid)
    assert len(spans) >= 2  # the march restarted on the way
    assert spans[0][0] == 0.0 and all(s[1] == 30.0 for s in spans)
    for t, p in zip(grid, flow.planes):
        decay = expm(-a * t)
        exact = np.vstack([np.eye(2), decay @ s0 @ decay])
        assert plane_distance(p, exact) < 1e-10


def test_flow_plane_needs_a_monotone_grid():
    with pytest.raises(PreconditionError):
        flow_plane(_harmonic(), vertical_plane(1), [0.0, 1.0, 0.5])


if __name__ == "__main__":
    pytest.main([__file__])
