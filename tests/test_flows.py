import functools
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import hamiltonian
from jacobiflow import cli, engine, flows
from jacobiflow.errors import PoleError, PreconditionError
from jacobiflow.flows import _batch, _integrate, flow_plane
from jacobiflow.grassmann import (
    horizontal_plane,
    plane_distance,
    to_chart,
    vertical_plane,
)
from jacobiflow.singular import jump
from jacobiflow.singular.frame import NormalFormCoefficients
from jacobiflow.symplectic import isotropy_residual, symplectic_inverse

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
_J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def _harmonic():
    # p' = q, q' = -p: rotation generator J
    return hamiltonian(
        a=np.zeros((1, 1)), b=np.array([[1.0]]), c=np.array([[-1.0]])
    )


def test_coefficients_evaluate_to_block_matrix():
    h = hamiltonian(
        a=np.array([[0.5]]), b=np.array([[2.0]]), c=np.array([[3.0]])
    )
    m = h(0.7)
    assert np.allclose(m, [[0.5, 2.0], [3.0, -0.5]])
    # polynomial stacks, lowest order first
    hp = hamiltonian(
        a=np.zeros((2, 1, 1)),
        b=np.array([[[1.0]], [[2.0]]]),
        c=np.zeros((1, 1, 1)),
    )
    assert hp(0.5)[0, 1] == pytest.approx(2.0)


def test_coefficients_pole():
    h = hamiltonian(
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
    h = hamiltonian(a=a, b=b, c=c, pole_order=pole)

    at, bt, ct = (_power_sum(x, t) for x in (a, b, c))
    ref = np.block([[at, bt / t**pole], [ct, -at.T]])
    aa, ab, ac = (_power_sum(np.abs(x), abs(t)) for x in (a, b, c))
    scale = np.block([[aa, ab / abs(t) ** pole], [ac, aa.T]])
    assert np.all(np.abs(h(t) - ref) <= 1e-14 * scale)


def _fundamental(h, t):
    """Fundamental matrix at ``t`` of ``h``: one march of the identity from 0."""
    return _integrate(h, np.eye(h(0.0).shape[-1]), [0.0, t], 1e-12)[-1]


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
    h = hamiltonian(
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
    h = hamiltonian(a=rng.normal(size=(2, 2)), b=b, c=c)
    phi = _fundamental(h, 1.5)
    ref = _expm_flow(h, 1.5)
    assert np.max(np.abs(phi - ref)) < 1e-9 * np.max(np.abs(ref))
    assert np.max(np.abs(phi.T @ _J4 @ phi - _J4)) <= 1e-8 * max(1.0, np.max(np.abs(phi)) ** 2)


@pytest.mark.filterwarnings("error")
def test_flow_plane_refuses_to_cross_pole():
    # the march stalls at the order-2 pole at t = 0: one PoleError, and no
    # floating-point warning on the way there
    h = hamiltonian(
        a=np.zeros((1, 1)), b=np.array([[1.0]]), c=np.array([[0.5]]), pole_order=2
    )
    with pytest.raises(PoleError, match="stalled"):
        flow_plane(h, vertical_plane(1), [-1.0, 1.0])


def test_flow_plane_refuses_a_decreasing_grid_before_the_march(monkeypatch):
    # a curve's times increase, so a decreasing grid cannot give one: it is
    # refused before any step is taken, not after the whole march
    def no_march(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(flows, "_integrate", no_march)
    with pytest.raises(PreconditionError, match="strictly increasing"):
        flow_plane(_harmonic(), vertical_plane(1), [1.0, 0.0])


def test_every_node_is_a_step_end():
    # the march steps onto each node; nothing is interpolated
    ts = [0.0, 0.4, 1.1, 2.0]
    frames = _integrate(_harmonic(), np.eye(2), ts, 1e-12)
    for t, phi in zip(ts, frames):
        assert np.max(np.abs(phi - _expm_flow(_harmonic(), t))) < 1e-9


def test_symplectic_inverse():
    phi = _expm_flow(_harmonic(), 0.8)
    assert np.allclose(symplectic_inverse(phi), np.linalg.inv(phi), atol=1e-12)
    rng = np.random.default_rng(6)
    b = rng.normal(size=(2, 2))
    h = hamiltonian(a=rng.normal(size=(2, 2)), b=b + b.T, c=np.zeros((2, 2)))
    phi = _expm_flow(h, 1.0)
    assert np.allclose(symplectic_inverse(phi) @ phi, np.eye(4), atol=1e-8)


def test_flow_plane_matches_matrix_action():
    grid = np.linspace(0.0, 2.0, 9)
    curve = flow_plane(_harmonic(), vertical_plane(1), grid)
    assert len(curve.times) == grid.size
    for t, p in zip(curve.times, curve.planes):
        phi = _expm_flow(_harmonic(), float(t))
        assert plane_distance(p, phi @ vertical_plane(1)) < 1e-10
        assert isotropy_residual(p) < 1e-10


# A chart matrix S solves the Riccati equation exactly when graph(S) is moved
# by the flow; the package moves planes as frames only, so these check
# flow_plane against exp(t M) and against closed-form Riccati solutions.


def _harmonic_chart(p):
    return to_chart(p, horizontal_plane(1), vertical_plane(1))[0, 0]


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
    assert isinstance(flow.planes, np.ndarray) and flow.planes.shape == (grid.size, 2, 1)
    assert np.array_equal(flow.times, grid)
    for t, p in zip(grid, flow.planes):
        assert _harmonic_chart(p) == pytest.approx(np.tan(np.arctan(0.2) - t), rel=1e-10)


def test_flow_plane_n2():
    rng = np.random.default_rng(12)
    b = rng.normal(size=(2, 2))
    b = 0.5 * (b + b.T)
    c = rng.normal(size=(2, 2))
    c = 0.5 * (c + c.T)
    h = hamiltonian(a=rng.normal(size=(2, 2)), b=b, c=c)
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
    """Record the (first, last) node of every call into the transport kernel."""
    spans = []
    integrate = flows._integrate
    monkeypatch.setattr(flows, "_integrate",
                        lambda *a, **k: spans.append((a[2][0], a[2][-1])) or integrate(*a, **k))
    return spans


def test_flow_plane_on_a_refined_grid_makes_the_same_march(monkeypatch):
    # refining the grid adds no solver call and moves no plane beyond the tolerance
    rng = np.random.default_rng(4)
    sym = [0.5 * (m + np.swapaxes(m, 1, 2)) for m in rng.normal(size=(2, 3, 2, 2))]
    h = hamiltonian(a=rng.normal(size=(3, 2, 2)), b=sym[0], c=sym[1])
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


def _decoupled(rates):
    """``lambda' = [[A, 0], [0, -A]] lambda``, A = R diag(rates) R^T, R a rotation by 0.7."""
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    a = rot @ np.diag(rates) @ rot.T
    return a, hamiltonian(a=a, b=np.zeros((2, 2)), c=np.zeros((2, 2)))


def _gap_to_closed_form(a, flow, s0):
    """Max gap of the planes to [I; S(t)], S(t) = e^{-At} S0 e^{-At}."""
    gaps = []
    for t, p in zip(flow.times, flow.planes):
        decay = expm(-a * t)
        gaps.append(plane_distance(p, np.vstack([np.eye(2), decay @ s0 @ decay])))
    return max(gaps)


def test_restarts_keep_a_fast_growing_frame_on_its_closed_form(monkeypatch):
    # the frame grows by e^30, far past the QR bound, in one march
    a, h = _decoupled([1.0, 0.5])
    s0 = np.array([[0.4, -0.3], [-0.3, 1.2]])
    spans = _counted_integrate(monkeypatch)
    flow = flow_plane(h, np.vstack([np.eye(2), s0]), np.linspace(0.0, 30.0, 16))
    assert spans == [(0.0, 30.0)]
    assert _gap_to_closed_form(a, flow, s0) < 1e-10


def test_subdominant_directions_keep_their_closed_form():
    # rates 1 and 0.01: between QRs the weak direction falls at most the
    # QR bound below the strong one (DOP853 restarting at 1e8 drifted by 3e-9)
    a, h = _decoupled([1.0, 0.01])
    s0 = np.array([[0.4, -0.3], [-0.3, 1.2]])
    flow = flow_plane(h, np.vstack([np.eye(2), s0]), np.linspace(0.0, 30.0, 16))
    assert _gap_to_closed_form(a, flow, s0) < 1e-11


def test_the_tableau_is_gauss_legendre_and_sets_the_share_bound():
    # in 30 digits the float tableau meets the simplifying assumptions B(2s),
    # C(s) and D(s) of s-stage Gauss-Legendre collocation, of order 2s
    # (Hairer, Lubich & Wanner, II.1.3), and _SHARE_MAX is the share of the
    # doubling gap of its stability function R at z = 2.6, to the four digits
    # it is written with
    s = flows._STAGES
    assert flows._ORDER == 2 * s and flows._DOUBLING == 2.0**flows._ORDER - 1.0
    with mpmath.workdps(30):
        a = mpmath.matrix(flows._GAUSS_A.tolist())
        b, c = ([mpmath.mpf(v) for v in row] for row in (flows._GAUSS_B, flows._GAUSS_C))
        gaps = [sum(b[i] * c[i] ** (q - 1) for i in range(s)) - mpmath.mpf(1) / q
                for q in range(1, 2 * s + 1)]
        gaps += [sum(a[i, j] * c[j] ** (q - 1) for j in range(s)) - c[i] ** q / q
                 for q in range(1, s + 1) for i in range(s)]
        gaps += [sum(b[i] * c[i] ** (q - 1) * a[i, j] for i in range(s))
                 - b[j] * (1 - c[j] ** q) / q for q in range(1, s + 1) for j in range(s)]
        assert max(abs(g) for g in gaps) <= 1e-15

        def r(z):
            y = mpmath.lu_solve(mpmath.eye(s) - z * a, mpmath.matrix([1] * s))
            return 1 + z * sum(b[i] * y[i] for i in range(s))

        z = mpmath.mpf("2.6")
        share = abs(r(z) - r(z / 2) ** 2) / r(z / 2) ** 2
        assert abs(share - flows._SHARE_MAX) <= 0.5e-7


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.integers(1, 3))
def test_absmax_is_the_numpy_maximum_of_the_trailing_axes(seed, shape, axes):
    # the kernel's sizes and gaps take the maxima over the trailing axes as a
    # leading axis; they are numpy's maxima bit for bit, inf and nan included
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    a.flat[rng.integers(a.size, size=2)] = [np.inf, -np.inf]
    if rng.random() < 0.3:
        a.flat[rng.integers(a.size)] = np.nan
    axes = min(axes, a.ndim)
    ref = np.max(np.abs(a), axis=tuple(range(a.ndim - axes, a.ndim)))
    assert np.array_equal(flows._absmax(a, axes), ref, equal_nan=True)


def _reference_plane_errors(inc, gap, before, bound):
    """_plane_errors as it reduced over trailing axes."""
    q = np.linalg.qr(before)[0]
    u, sv, _ = np.linalg.svd(q + inc[:, None] @ q, full_matrices=False)
    eq = gap[:, None] @ q
    out = eq - u @ (np.swapaxes(u, -1, -2) @ eq)
    err = np.sqrt(np.sum(out * out, axis=(-2, -1))) / (flows._DOUBLING * sv[..., -1] * bound)
    return np.max(err, axis=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(1, 5), st.integers(1, 10),
       st.integers(1, 4))
def test_leading_axis_reductions_are_the_trailing_ones_bit_for_bit(seed, steps, n, k, count):
    # the chain's growth bound, the batch's smoothness test and the plane
    # errors reduce their short trailing axes laid out as a leading axis; the
    # maxima are numpy's bit for bit, and so are the sums, whose order is kept
    rng = np.random.default_rng(seed)
    inc = rng.normal(size=(steps, 2 * n, 2 * n)) * 10.0 ** rng.integers(-8, 8, size=(steps, 1, 1))
    inc[rng.random(inc.shape) < 0.1] = -0.0
    assert (flows._absmax(flows._sum(np.abs(inc), 1), 1).tobytes()
            == np.max(np.sum(np.abs(inc), axis=2), axis=1).tobytes())
    cube = rng.normal(size=(steps, count, 2 * n, k)) ** 2  # fewer and more than 8 entries
    assert flows._sum(cube, 1).tobytes() == np.sum(cube, axis=-1).tobytes()
    assert flows._sum(cube, 2).tobytes() == np.sum(cube, axis=(-2, -1)).tobytes()
    size = np.abs(rng.normal(size=(3 * steps, flows._STAGES)))
    lead = size.reshape(3, steps, flows._STAGES).transpose(0, 2, 1).reshape(-1, steps)
    trail = size.reshape(3, steps, flows._STAGES)
    assert np.array_equal(lead.max(axis=0), np.max(trail, axis=(0, 2)))
    assert np.array_equal(lead.min(axis=0), np.min(trail, axis=(0, 2)))
    gap = 1e-10 * rng.normal(size=inc.shape)
    before = rng.normal(size=(steps, count, 2 * n, int(rng.integers(1, 2 * n))))
    inc = 0.1 * inc / (1.0 + np.abs(inc).max())
    assert (flows._plane_errors(inc, gap, before, 1e-13).tobytes()
            == _reference_plane_errors(inc, gap, before, 1e-13).tobytes())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.01, 2.0), st.floats(-3.0, 3.0))
def test_propagators_are_symplectic_to_rounding(seed, h, t):
    # Gauss collocation keeps quadratic invariants: P^T J P = J up to rounding
    rng = np.random.default_rng(seed)
    sym = [0.5 * (m + np.swapaxes(m, 1, 2)) for m in rng.normal(size=(2, 3, 2, 2))]
    sys = hamiltonian(a=rng.normal(size=(3, 2, 2)), b=sym[0], c=sym[1])
    # P is the product of the two halves' propagators, as _batch forms it
    starts = t + h * np.arange(4.0)
    d, _ = flows._increments(sys, np.concatenate([starts, starts + 0.5 * h]), np.full(8, 0.5 * h))
    d1, d2 = d[:4], d[4:]
    for p in np.eye(4) + d1 + d2 + d2 @ d1:
        res = np.linalg.norm(p.T @ _J4 @ p - _J4, 2)
        assert res <= 100 * np.finfo(float).eps * np.linalg.norm(p, 2) ** 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.floats(0.01, 1.0), st.integers(0, 2**31 - 1))
def test_rank_one_increments_are_the_dense_increments(n, k, scale, seed):
    # A = u w^T: the s x s stage solve on the pairings gives the propagator
    # of the s*2n-square one, and the same sizes, for the kernel's s stages
    rng = np.random.default_rng(seed)
    rows = flows._STAGES * k
    u, w = rng.normal(size=(2, rows, 2 * n)) * 10.0 ** rng.uniform(-2, 2, size=(2, rows, 1))
    h = scale * rng.uniform(0.1, 1.0, size=k) / (np.abs(u).max() * np.abs(w).max() * 2 * n)
    t = rng.normal(size=k)
    inc, size = flows._increments(lambda _: (u, w), t, h)
    dense, dense_size = flows._increments(lambda _: u[:, :, None] * w[:, None, :], t, h)
    assert inc.shape == dense.shape == (k, 2 * n, 2 * n)
    assert np.array_equal(size, dense_size)
    assert np.max(np.abs(inc - dense)) <= 1e-13 * (1.0 + np.max(np.abs(dense)))


def test_a_regular_trace_solves_only_the_stage_systems_of_its_pairings(tmp_path, monkeypatch):
    # the Jacobi equation's rank-one system takes the pairings' s x s solve
    # for the kernel's s stages; a dense system (portrait, n = 1) keeps the
    # s*2n-square one
    shapes = []
    solve = np.linalg.solve

    def recorded(a, b):
        if sys._getframe(1).f_code is flows._increments.__code__:
            shapes.append(a.shape[-2:])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    assert cli.main(["trace", str(CORPUS / "regular.json"), "--out", str(tmp_path / "r.csv")]) == 0
    s = flows._STAGES
    assert shapes and set(shapes) == {(s, s)}
    shapes.clear()
    assert cli.main(["portrait", str(CORPUS / "portrait.json"), "--out", str(tmp_path / "p.csv")]) == 0
    assert shapes and set(shapes) == {(2 * s, 2 * s)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 4), st.integers(8, 32), st.floats(1.0, 3.0),
       st.integers(0, 2**31 - 1))
def test_plane_chain_is_the_plain_advance_chain(n, count, steps, scale, seed):
    # the chain checks the frames' size only where its growth bound passes
    # _GROWTH; at these sizes about five chains in six pass it inside a batch.
    # One frame is a stack of one; a stack's frames have any rank up to 2n.
    # The frames after a part of a step, off the chain, are those a chain
    # step of that part would give
    rng = np.random.default_rng(seed)
    inc = rng.normal(size=(steps, 2 * n, 2 * n)) * scale
    frames = np.linalg.qr(rng.normal(size=(count, 2 * n, int(rng.integers(1, 2 * n + 1)))))[0]
    at = np.flatnonzero(rng.random(steps) < 0.3)
    part = 0.5 * inc[at] + 0.1 * scale * rng.normal(size=(at.size, 2 * n, 2 * n))
    moved, parts = flows._chain(frames, inc, (at, part))
    assert moved.shape == (steps,) + frames.shape and parts.shape == (at.size,) + frames.shape
    f = frames
    for i in range(steps):
        if i in at:
            j = int(np.searchsorted(at, i))
            assert np.array_equal(parts[j], flows._renormalise(f + part[j] @ f))
        f = flows._renormalise(f + inc[i] @ f)
        assert np.array_equal(moved[i], f)


def test_normal_form_march_across_the_pole_is_a_pole_error():
    # b = -t^2 vanishes at 0: the march from -0.5 to 0.5 stalls there
    coeffs = NormalFormCoefficients(k=1, m=2, b=np.array([0.0, 0.0, -1.0]),
                                    b11=np.zeros(1), c11=np.array([0.3]))
    with pytest.raises(PoleError):
        flow_plane(coeffs.system, vertical_plane(1), [-0.5, 0.5])


@pytest.mark.parametrize("m", [1, 3])
def test_normal_form_march_across_poles_of_order_1_and_3_is_a_pole_error(m):
    # b = -t^m vanishes at 0: the march stalls there, on the plane test too
    b = np.zeros(m + 1)
    b[m] = -1.0
    coeffs = NormalFormCoefficients(k=1, m=m, b=b, b11=np.zeros(1), c11=np.array([0.3]))
    with pytest.raises(PoleError, match="stalled"):
        flow_plane(coeffs.system, vertical_plane(1), [-0.5, 0.5])


def _doubling_share(z: float) -> float:
    """|R(z) - R(z/2)^2| / R(z/2)^2 for the stability function R of the kernel's tableau."""
    def r(x):
        ones = np.ones(flows._STAGES)
        return 1.0 + x * flows._GAUSS_B @ np.linalg.solve(np.diag(ones) - x * flows._GAUSS_A, ones)
    return abs(r(z) - r(0.5 * z) ** 2) / r(0.5 * z) ** 2


def test_plane_steps_stay_where_the_propagators_agree():
    # e_1 is invariant under p' = p, q' = -q, so its plane error is 0 at any
    # step; the gap of the propagators, the share 2.3e-5 of their size at
    # h = 2 (0.087 of _SHARE_MAX) and 4.4e-3 at h = 3.5, still bounds the step
    h = hamiltonian(a=np.array([[1.0]]), b=np.zeros((1, 1)), c=np.zeros((1, 1)))
    line = np.array([[[1.0], [0.0]]])
    _, short = _batch(h, np.zeros(1), np.array([2.0]), 1e-12, line, True, np.full(1, np.nan))
    _, long = _batch(h, np.zeros(1), np.array([3.5]), 1e-12, line, True, np.full(1, np.nan))
    assert short[0] == pytest.approx(_doubling_share(2.0) / flows._SHARE_MAX, rel=0.01)
    assert long[0] > 10.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_plane_errors_of_a_stack_are_the_largest_of_its_frames(n, count, steps, seed):
    # each frame of a stack is tested on its own plane: the stack's error at
    # each step of a chain is the largest of its frames' errors
    rng = np.random.default_rng(seed)
    inc = 0.3 * rng.normal(size=(steps, 2 * n, 2 * n))
    gap = 1e-10 * rng.normal(size=(steps, 2 * n, 2 * n))
    k = int(rng.integers(1, 2 * n))
    before = rng.normal(size=(steps, count, 2 * n, k))
    stacked = flows._plane_errors(inc, gap, before, 1e-13)
    alone = [flows._plane_errors(inc, gap, before[:, i : i + 1], 1e-13) for i in range(count)]
    assert stacked.shape == (steps,)
    assert np.array_equal(stacked, np.max(alone, axis=0))


def test_a_joint_step_fails_when_only_one_plane_fails():
    # under p' = p, q' = -q the line e_1 is invariant, so its plane passes a
    # step of length 2; the line through (1, 1) turns towards e_1 and fails
    # it.  A stack of the two fails the step, and marches as the turning
    # line alone does
    h = hamiltonian(a=np.array([[1.0]]), b=np.zeros((1, 1)), c=np.zeros((1, 1)))
    still, turning = np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    t, length, even = np.zeros(1), np.array([2.0]), np.full(1, np.nan)
    _, alone = _batch(h, t, length, 1e-12, still[None], True, even)
    _, other = _batch(h, t, length, 1e-12, turning[None], True, even)
    _, joint = _batch(h, t, length, 1e-12, np.stack([still, turning]), True, even)
    assert alone[0] <= 1.0 < other[0]
    assert joint[0] == max(alone[0], other[0])
    stack = _integrate(h, np.stack([still, turning]), [0.0, 2.0], 1e-12, planes=True)
    assert np.array_equal(stack[:, 1], _integrate(h, turning, [0.0, 2.0], 1e-12))


# (c11, start, line) of marches to an order-2 pole that the share of the
# propagator gap alone lets across: the line collapses onto e_1 from both
# sides, and the gap of a step across the pole can be any size
@pytest.mark.parametrize("c11, start, line", [
    (0.3, -0.8, [1.0, 0.0]), (0.3, -0.6, [1.0, 0.0]), (0.3, -0.6, [1.0, 0.4]),
    (0.3, -0.3, [1.0, 0.0]), (-0.3, -0.6, [1.0, 0.0]),
])
def test_lines_that_collapse_at_an_order_2_pole_do_not_cross_it(c11, start, line):
    coeffs = NormalFormCoefficients(k=1, m=2, b=np.array([0.0, 0.0, -1.0]),
                                    b11=np.zeros(1), c11=np.array([c11]))
    with pytest.raises(PoleError, match="stalled"):
        flow_plane(coeffs.system, np.array(line)[:, None], [start, 0.5])


def _recorded_batches(monkeypatch) -> list:
    """Record ``(starts, lengths, err)`` of every batch of the transport kernel."""
    calls = []
    batch = flows._batch

    def recorded(sys, t, h, *rest):
        steps, err = batch(sys, t, h, *rest)
        calls.append((t.copy(), h.copy(), err.copy()))
        return steps, err

    monkeypatch.setattr(flows, "_batch", recorded)
    return calls


@pytest.mark.parametrize("nodes", [[0.0, 20.0], np.concatenate([[0.0], np.linspace(20.0, 40.0, 41)])],
                         ids=["two_nodes", "many_nodes"])
def test_a_failed_opening_step_is_followed_by_a_doubling_chain(monkeypatch, nodes):
    # the march opens with one step, the whole first node interval, whatever
    # the nodes after it; that step turns the line by 20 rad and fails; the
    # next batch is a chain of steps 20 2^(i - 32) from the same start, which
    # stays short of 20.  The march takes its steps up to the first that
    # fails, and goes on from the longest it took, with steps of one length
    calls = _recorded_batches(monkeypatch)
    _integrate(_harmonic(), vertical_plane(1), nodes, 1e-12)
    (_, h0, err0), (t, h, err), (t2, h2, _) = calls[:3]
    assert h0.tolist() == [20.0] and err0[0] > 1.0
    assert np.array_equal(h, 20.0 * 2.0 ** np.arange(-32.0, 0.0))
    assert np.array_equal(t, np.concatenate([[0.0], np.cumsum(h)[:-1]]))
    j = int(np.argmax(err > 1.0))
    assert j > 0 and np.all(err[:j] <= 1.0) and err[j] > 1.0
    starts, stops, *_ = flows._proposed(np.asarray(nodes), t[j], 1, h[j - 1], 1.0)
    assert np.array_equal(t2, starts) and np.array_equal(h2, stops - starts)


def test_a_full_batch_grows_h_from_its_last_step(monkeypatch):
    # away from an order-2 pole the error falls about 6,000 times along a batch;
    # the next h is taken from the batch's last step, not from its worst
    h = hamiltonian(a=np.zeros((1, 1)), b=np.array([[1.0]]),
                                c=np.array([[0.5]]), pole_order=2)
    calls = _recorded_batches(monkeypatch)
    _integrate(h, np.eye(2), [0.01, 1.0], 1e-12)
    (_, lengths, err), (_, after, _) = calls[2], calls[3]
    assert np.all(err <= 1.0) and err[-1] < 0.1 * err[0]
    grow = 0.9 * err ** (-1.0 / (2 * flows._STAGES + 1))
    # the next batch splits what is left of [0.01, 1] evenly, a step of at most h
    assert after[0] == pytest.approx(lengths[-1] * grow[-1], rel=1e-3)
    assert after[0] > 1.5 * lengths[0] * grow[0]


def test_the_corpus_regular_march_takes_its_grid_in_two_batches(tmp_path, monkeypatch):
    # the opening step, then every node interval within reach of h in one
    # run, in pairs of equal intervals: 1 + 99 steps, where one step per
    # interval took 1 + 198 and batches of 32 took 7
    calls = _recorded_batches(monkeypatch)
    assert cli.main(["trace", str(CORPUS / "regular.json"), "--out", str(tmp_path / "r.csv")]) == 0
    assert [t.size for t, _, _ in calls] == [1, 99]
    assert all(np.all(err <= 1.0) for _, _, err in calls)
    grid = cli.parse_scenario(CORPUS / "regular.json").grid
    (t, h, _) = calls[1]
    assert np.array_equal(t, grid[1:-1:2])
    assert np.allclose(t + h, grid[3::2], rtol=0.0, atol=1e-14)


def test_a_run_holds_at_most_256_node_intervals(monkeypatch):
    # 20,000 node intervals within reach of h, each step one interval or a
    # pair: the runs are capped at _RUN intervals, so a batch's memory does
    # not grow with the grid
    calls = _recorded_batches(monkeypatch)
    frames = _integrate(_harmonic(), vertical_plane(1), np.linspace(0.0, 20.0, 20001), 1e-12)
    spans = [np.rint(np.abs(h) / 1e-3).astype(int) for _, h, _ in calls]
    assert all(np.all((span == 1) | (span == 2)) for span in spans)
    sizes = [int(span.sum()) for span in spans]
    assert sum(sizes) == 20000 and max(sizes) == flows._RUN == 8 * flows._BATCH
    assert plane_distance(frames[-1], _expm_flow(_harmonic(), 20.0) @ vertical_plane(1)) < 1e-10


def test_a_paired_step_reaches_its_middle_node_by_the_single_step_from_its_start():
    # a step over two node intervals is halved at the node between them; the
    # frames there are its first half's propagator applied to the frames
    # before the step, bit for bit what a march that ends on that node gets
    rng = np.random.default_rng(27)
    sym = [0.5 * (m + np.swapaxes(m, 1, 2)) for m in rng.normal(size=(2, 3, 2, 2))]
    sys = hamiltonian(a=rng.normal(size=(3, 2, 2)), b=sym[0], c=sym[1])
    frames = np.linalg.qr(rng.normal(size=(3, 4, 2)))[0]
    t, h = np.array([0.0, 0.03, 0.07]), np.array([0.03, 0.04, 0.02])
    first = np.array([0.015, np.nan, 0.0100001])
    steps, err = _batch(sys, t, h, 1e-12, frames, True, first)
    assert np.all(err <= 1.0)
    single, _ = flows._increments(sys, t, first)
    before, alone = [frames, steps[0, 1], steps[1, 1]], (np.zeros(0, dtype=int), single[:0])
    for i in (0, 2):
        assert np.array_equal(steps[i, 0], flows._chain(before[i], single[i : i + 1], alone)[0][0])


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 400), st.floats(0.5, 3.0), st.integers(0, 2**31 - 1))
def test_a_paired_march_on_a_uniform_grid_keeps_to_the_matrix_exponential(count, span, seed):
    # each plane stays within 1e-10 of the plane moved by exp(t M); on a
    # uniform grid fine enough that its spacing sets the steps, the march
    # takes its node intervals in pairs
    rng = np.random.default_rng(seed)
    sym = [0.5 * (m + m.T) for m in 0.7 * rng.normal(size=(2, 2, 2))]
    sys = hamiltonian(a=0.7 * rng.normal(size=(2, 2)), b=sym[0], c=sym[1])
    nodes = np.linspace(0.0, span, count)
    start = np.linalg.qr(np.vstack([np.eye(2), sym[1]]))[0]
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_batches(mp)
        planes = _integrate(sys, start, nodes, 1e-12)
    gaps = plane_distance(planes, expm(nodes[:, None, None] * sys(np.zeros(1))) @ start)
    assert np.max(gaps) < 1e-10
    paired = np.concatenate([h for _, h, _ in calls]) > 1.5 * span / (count - 1)
    assert count < 100 or paired.any()


@functools.lru_cache(maxsize=None)
def _corpus_march() -> tuple:
    """The rank-one system, start frame, window and rtol of the corpus regular march."""
    handed = []

    def recorded(system, frames, nodes, rtol):
        handed.append((system, frames, float(nodes[0]), float(nodes[-1]), rtol))
        return _integrate(system, frames, nodes, rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_integrate", recorded)
        cli.run(cli.parse_scenario(CORPUS / "regular.json"), "trace")
    return handed[0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.2, 3.0), min_size=1, max_size=60), st.booleans())
def test_a_march_over_a_prefix_of_the_nodes_makes_the_same_steps(weights, uniform):
    # a batch is cut only by the end of the nodes, so the march over any
    # prefix of them carries the full march's frames bit for bit, on
    # node-bound runs and on error-bound batches alike
    system, frame, a, b, rtol = _corpus_march()
    gaps = np.ones(len(weights)) if uniform else np.array(weights)
    nodes = a + (b - a) * np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    full = _integrate(system, frame, nodes, rtol)
    for p in range(2, nodes.size):
        assert np.array_equal(_integrate(system, frame, nodes[:p], rtol), full[:p])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=12), st.floats(0.0, 0.99),
       st.floats(0.02, 2.0), st.one_of(st.just(1.0), st.floats(0.9, 1.1)))
def test_graded_batches_end_on_every_node(gaps, where, h, g):
    # steps h g^i from t: each node the batch reaches is a step end, or the
    # node inside a pair of node intervals, and no step passes the last node
    nodes = np.concatenate([[0.0], np.cumsum(gaps)])
    t = nodes[0] + where * (nodes[1] - nodes[0])
    starts, stops, ends, whole, mids = flows._proposed(nodes, t, 1, h, g)
    assert 0 < stops.size <= flows._BATCH and starts[0] == t
    assert np.array_equal(starts[1:], stops[:-1])
    assert np.all(stops - starts > 0.0) and stops[-1] <= nodes[-1]
    passed = nodes[1:][nodes[1:] <= stops[-1]]
    inner = mids - starts < stops - starts
    first, second = (mids - starts)[inner], (stops - mids)[inner]
    assert np.all(np.abs(first - second) <= 1e-9 * np.maximum(first, second) + 1e-13)
    assert np.array_equal(np.sort(np.concatenate([stops[ends], mids[inner]])), np.sort(passed))
    assert np.all((stops - starts)[whole] <= h * max(g, 1.0) ** (flows._BATCH - 1) * (1 + 1e-9))


def _random_batch(rng) -> tuple:
    """Nodes, a start t in their first interval, and h, of one random batch."""
    gaps = rng.uniform(0.05, 3.0, rng.integers(1, 40))
    if rng.random() < 0.3:
        gaps[:] = gaps[0]
    nodes = np.concatenate([[0.0], np.cumsum(gaps)]) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-5, 5)
    t = nodes[0] + rng.uniform(0.0, 0.99) * (nodes[1] - nodes[0])
    return nodes, t, rng.uniform(0.02, 2.0) * (nodes[1] - nodes[0])


@pytest.mark.parametrize("g", [1.0, 0.9, 0.97, 1.03, 1.1])
def test_a_batch_scales_its_proposed_lengths_to_end_on_the_nodes_it_reaches(g):
    # after the run of node intervals within reach of h, the batch proposes
    # h g^i; each node interval it reaches takes the fewest of the next
    # lengths that cover it, all scaled by one ratio so that the last ends
    # on the node, and the steps short of a node keep their lengths
    rng = np.random.default_rng(25)
    for _ in range(300):
        nodes, t, h = _random_batch(rng)
        starts, stops, ends, whole, _ = flows._proposed(nodes, t, 1, h, g)
        reach = np.abs(np.diff(nodes[1:], prepend=t)) / h * (1.0 - 1e-12) <= 1.0
        run = reach.size if reach.all() else int(np.argmin(reach))
        proposed = np.append(np.full(run, h), h * g ** np.arange(stops.size - run))
        lengths = np.abs(stops - starts)
        slack = 1e-12 * proposed + 4.0 * np.spacing(np.max(np.abs(nodes)))  # and stop - start rounds
        assert np.all(lengths <= proposed + slack)
        assert np.array_equal(whole, lengths >= 0.5 * proposed)
        interval = np.concatenate([[0], np.cumsum(ends)[:-1]])
        for i in np.unique(interval):
            mine = interval == i
            ratio = lengths[mine] / proposed[mine]
            assert np.ptp(ratio) <= 1e-9 * ratio.max()
            if ends[mine][-1]:  # reached: the fewest lengths that cover it
                gap = abs(stops[mine][-1] - starts[mine][0])
                assert proposed[mine].sum() >= gap * (1.0 - 1e-12) > proposed[mine][:-1].sum()
            else:  # short of its node: the proposed lengths
                assert np.all(np.abs(lengths[mine] - proposed[mine]) <= slack[mine])


def _even_split_reference(nodes, t, k, h):
    """The reference at g = 1: each node interval split evenly into steps of
    at most h, one step at a time."""
    run = 0
    if abs(float(nodes[k]) - t) / h * (1.0 - 1e-12) <= 1.0:
        ahead = nodes[k : k + flows._RUN]
        reach = np.abs(np.diff(ahead, prepend=t)) / h * (1.0 - 1e-12) <= 1.0
        run = ahead.size if reach.all() else int(np.argmin(reach))
    s, j = (float(nodes[k + run - 1]), k + run) if run else (t, k)
    head = nodes[k : k + run]
    starts, stops, ends = [], [], []
    while run + len(starts) < flows._BATCH and j < nodes.size:
        node = float(nodes[j])
        parts = max(1, math.ceil(abs(node - s) / h * (1.0 - 1e-12)))
        starts.append(s)
        ends.append(parts == 1)
        s, j = (node, j + 1) if parts == 1 else (s + (node - s) / parts, j)
        stops.append(s)
    starts = np.concatenate([[t], head[:-1], starts]) if run else np.array(starts)
    stops = np.concatenate([head, stops])
    return (starts, stops, np.concatenate([np.ones(run, dtype=bool), np.array(ends, dtype=bool)]),
            np.abs(stops - starts) >= 0.5 * h)


def test_a_batch_of_one_length_splits_each_node_interval_it_reaches_evenly():
    # at g = 1 the batch makes the steps of the reference up to the last node
    # it reaches, within 4 ulp of the nodes (4.0 measured over 3,000
    # batches); past it, the batch keeps the proposed length h
    rng = np.random.default_rng(2025)
    for _ in range(3000):
        nodes, t, h = _random_batch(rng)
        starts, stops, ends, whole, _ = flows._proposed(nodes, t, 1, h, 1.0)
        ref = _even_split_reference(nodes, t, 1, h)
        last = int(np.flatnonzero(ends)[-1]) + 1 if ends.any() else 0
        assert np.array_equal(ends[:last], ref[2][:last]) and ref[2][last - 1 : last].all()
        assert np.array_equal(whole[:last], ref[3][:last])
        ulp = np.spacing(np.max(np.abs(nodes)))
        assert np.all(np.abs(stops[:last] - ref[1][:last]) <= 4.0 * ulp)
        assert np.array_equal(starts[1:], stops[:-1]) and starts[0] == t
        assert np.all(np.abs(np.abs(stops - starts)[last:] - h) <= 1e-12 * h + 4.0 * ulp)


def test_a_plane_march_grades_its_batches_and_keeps_its_nodes(monkeypatch):
    # leaving an order-2 pole the error of a step of one length falls along
    # a batch; the plane march grows its steps along later batches and still
    # ends a step on each node, where it agrees with the stack march
    h = hamiltonian(a=np.zeros((1, 1)), b=np.array([[1.0]]), c=np.array([[0.5]]), pole_order=2)
    nodes = np.geomspace(0.01, 1.0, 9)
    batches = []
    proposed = flows._proposed

    def recorded(nodes, t, k, h, g):
        out = proposed(nodes, t, k, h, g)
        batches.append((g, out))
        return out

    monkeypatch.setattr(flows, "_proposed", recorded)
    line = np.array([[1.0], [0.3]])
    planes = _integrate(h, line, nodes, 1e-12)
    graded = [out for g, out in batches if g != 1.0]
    assert graded and any(np.ptp(np.abs(stops - starts)[whole]) > 0.0
                          for starts, stops, _, whole, _ in graded)
    assert all(np.array_equal(stops[ends], np.intersect1d(nodes, stops))
               for _, (_, stops, ends, _, _) in batches)
    stack = _integrate(h, np.stack([line, np.array([[0.0], [1.0]])]), nodes, 1e-12)[:, 0]
    assert max(plane_distance(a, b) for a, b in zip(planes, stack)) < 1e-10


def test_a_stack_march_steps_over_one_node_interval_or_an_equal_pair(tmp_path, monkeypatch):
    # a stack of frames is marched on the propagator and never graded: after
    # its failed opening step and the chain of doubling steps that follows,
    # each of its steps either splits one node interval evenly with the
    # other steps in it, or is a pair of node intervals equal to 1e-9
    calls = _recorded_batches(monkeypatch)
    assert cli.main(["portrait", str(CORPUS / "portrait.json"), "--out", str(tmp_path / "p.csv")]) == 0
    assert [t.size for t, _, _ in calls][:2] == [1, 32]
    grid = cli.parse_scenario(CORPUS / "portrait.json").grid
    gaps = np.diff(grid)
    pairs = 0
    for t, lengths, _ in calls[2:]:
        interval = np.searchsorted(grid, t, side="right") - 1
        node = grid[interval] == t
        paired = node & np.isclose(t + lengths, grid[np.minimum(interval + 2, grid.size - 1)],
                                   rtol=0.0, atol=1e-15) & (interval + 2 < grid.size)
        i = interval[paired]
        assert np.all(np.abs(gaps[i + 1] - gaps[i]) <= 1e-9 * gaps[i])
        pairs += int(paired.sum())
        for j in np.unique(interval[~paired]):
            mine = ~paired & (interval == j)
            same = np.abs(lengths[mine])
            assert np.ptp(same) <= 1e-12 * same.max()
            assert np.all(t[mine] + lengths[mine] <= grid[j + 1] + 1e-15)
    assert pairs > 0


# a failed opening costs one chain of doubling steps, of which the march
# keeps every step up to the first failure: the corpus degen_m3 trace, whose
# four epsilon segments each open so, takes 47 batches and proposes 1,460
# steps, all on the data's rank-one system (44 and 1,328 when its family
# marched the dense block system), and the portrait, on the block system,
# 5 batches and 185 steps (272 before its node intervals went in pairs)
@pytest.mark.parametrize("verb, scenario, batches, proposed, rank_one", [
    ("trace", "degen_m3", 48, 1490, True), ("portrait", "portrait", 5, 190, False),
], ids=["degen_m3", "portrait"])
def test_corpus_marches_take_few_batches(tmp_path, monkeypatch, verb, scenario, batches, proposed,
                                         rank_one):
    calls = _recorded_batches(monkeypatch)
    forms = []
    increments = flows._increments

    def recorded(sys, t, h):
        def seen(ts):
            a = sys(ts)
            forms.append(isinstance(a, tuple))
            return a

        return increments(seen, t, h)

    monkeypatch.setattr(flows, "_increments", recorded)
    assert cli.main([verb, str(CORPUS / f"{scenario}.json"), "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) <= batches
    assert sum(t.size for t, _, _ in calls) <= proposed
    # the form of the system sets each batch's stage solve: a dense one for
    # the block system, the 4 x 4 solve of the pairings for a rank-one one
    assert len(forms) == len(calls) and set(forms) == {rank_one}


def _steps_taken(err) -> int:
    """The steps a march takes from one batch: those up to the first that fails."""
    return int(np.argmax(err > 1.0)) if np.any(err > 1.0) else err.size


def _accepted_steps(monkeypatch) -> dict:
    """Record the steps each march of the transport kernel takes, by its first node."""
    counts: dict = {}
    calls = _recorded_batches(monkeypatch)
    integrate = flows._integrate

    def marched(sys, frames, nodes, rtol, **flags):
        first = len(calls)
        out = integrate(sys, frames, nodes, rtol, **flags)
        counts[float(nodes[0])] = sum(_steps_taken(err) for _, _, err in calls[first:])
        return out

    # the transport, the epsilon family and the regular march past the
    # singular neighbourhood
    monkeypatch.setattr(flows, "_integrate", marched)
    monkeypatch.setattr(jump, "_integrate", marched)
    monkeypatch.setattr(engine, "_integrate", marched)
    return counts


def test_epsilon_family_member_is_marched_on_its_plane(tmp_path, monkeypatch):
    # the corpus degen_m3 family, eps = 1e-3 ... 1e-6, is one stack of planes
    # marched from 1e-6 up to grid.t0 = 0.01, a member joining it at each
    # eps; each member is tested on its own plane.  Marched one member at a
    # time on batches of steps of one length it took 2,635 steps, jointly on
    # graded batches about 1,310, and on graded batches of 4-stage steps 1,021
    # on the block system and 1,163 on the data's own rank-one system
    counts = _accepted_steps(monkeypatch)
    assert cli.main(["trace", str(CORPUS / "degen_m3.json"), "--out", str(tmp_path / "o.csv")]) == 0
    family = [1e-6, 1e-5, 1e-4, 1e-3]
    assert sorted(counts) == family + [0.01]
    assert 0 < sum(counts[eps] for eps in family) <= 1600


def test_flow_plane_needs_a_monotone_grid():
    with pytest.raises(PreconditionError):
        flow_plane(_harmonic(), vertical_plane(1), [0.0, 1.0, 0.5])


if __name__ == "__main__":
    pytest.main([__file__])
