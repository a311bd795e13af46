import functools
import json
import sys
from pathlib import Path

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
        flow_plane(h, vertical_plane(1), [1.0, -1.0])


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
    # A = u w^T: the 3x3 stage solve on the pairings gives the propagator of
    # the 3*2n-square one, and the same sizes
    rng = np.random.default_rng(seed)
    u, w = rng.normal(size=(2, 3 * k, 2 * n)) * 10.0 ** rng.uniform(-2, 2, size=(2, 3 * k, 1))
    h = scale * rng.uniform(0.1, 1.0, size=k) / (np.abs(u).max() * np.abs(w).max() * 2 * n)
    t = rng.normal(size=k)
    inc, size = flows._increments(lambda _: (u, w), t, h)
    dense, dense_size = flows._increments(lambda _: u[:, :, None] * w[:, None, :], t, h)
    assert inc.shape == dense.shape == (k, 2 * n, 2 * n)
    assert np.array_equal(size, dense_size)
    assert np.max(np.abs(inc - dense)) <= 1e-13 * (1.0 + np.max(np.abs(dense)))


def test_a_regular_trace_solves_only_3x3_stage_systems(tmp_path, monkeypatch):
    # the Jacobi equation's rank-one system takes the pairings' 3x3 solve;
    # a dense system (portrait, n = 1) keeps the 3*2n-square one
    shapes = []
    solve = np.linalg.solve

    def recorded(a, b):
        if sys._getframe(1).f_code is flows._increments.__code__:
            shapes.append(a.shape[-2:])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    assert cli.main(["trace", str(CORPUS / "regular.json"), "--out", str(tmp_path / "r.csv")]) == 0
    assert shapes and set(shapes) == {(3, 3)}
    shapes.clear()
    assert cli.main(["portrait", str(CORPUS / "portrait.json"), "--out", str(tmp_path / "p.csv")]) == 0
    assert shapes and set(shapes) == {(6, 6)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 4), st.integers(8, 32), st.floats(1.0, 3.0),
       st.integers(0, 2**31 - 1))
def test_plane_chain_is_the_plain_advance_chain(n, count, steps, scale, seed):
    # the chain checks the frames' size only where its growth bound passes
    # _GROWTH; at these sizes about five chains in six pass it inside a batch.
    # One frame is a stack of one; a stack's frames have any rank up to 2n
    rng = np.random.default_rng(seed)
    inc = rng.normal(size=(steps, 2 * n, 2 * n)) * scale
    frames = np.linalg.qr(rng.normal(size=(count, 2 * n, int(rng.integers(1, 2 * n + 1)))))[0]
    moved = flows._chain(frames, inc)
    assert moved.shape == (steps,) + frames.shape
    f = frames
    for i in range(steps):
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


def test_plane_steps_stay_where_the_propagators_agree():
    # e_1 is invariant under p' = p, q' = -q, so its plane error is 0 at any
    # step; the gap of the propagators, 1.5e-3 of their size at h = 2 and
    # 0.11 at h = 3.5, still bounds the step
    h = hamiltonian(a=np.array([[1.0]]), b=np.zeros((1, 1)), c=np.zeros((1, 1)))
    line = np.array([[[1.0], [0.0]]])
    _, err = _batch(h, np.zeros(2), np.array([2.0, 3.5]), 1e-12, line, True, True)
    assert err[0] == pytest.approx(0.146, rel=0.01)
    assert err[1] > 10.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_plane_errors_of_a_stack_are_the_largest_of_its_frames(n, count, steps, shared, seed):
    # each frame of a stack is tested on its own plane: the stack's error is
    # the largest of its frames' errors, whether each step has its own
    # frames (a chain) or all share one stack (a ladder)
    rng = np.random.default_rng(seed)
    inc = 0.3 * rng.normal(size=(steps, 2 * n, 2 * n))
    gap = 1e-10 * rng.normal(size=(steps, 2 * n, 2 * n))
    k = int(rng.integers(1, 2 * n))
    before = rng.normal(size=(1 if shared else steps, count, 2 * n, k))
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
    t, length = np.zeros(1), np.array([2.0])
    _, alone = _batch(h, t, length, 1e-12, still[None], True, False)
    _, other = _batch(h, t, length, 1e-12, turning[None], True, False)
    _, joint = _batch(h, t, length, 1e-12, np.stack([still, turning]), True, False)
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
def test_a_failed_opening_step_is_followed_by_a_ladder(monkeypatch, nodes):
    # the march opens with one step, the whole first node interval, whatever
    # the nodes after it; that step turns the line by 20 rad and fails; the
    # next batch tries h/2, h/4, ... from the same start, and the march takes
    # the longest that passes as its one step
    calls = _recorded_batches(monkeypatch)
    line = vertical_plane(1)
    _integrate(_harmonic(), line, nodes, 1e-12)
    (_, h0, err0), (t, h, err), (t2, _, _) = calls[:3]
    assert h0.tolist() == [20.0] and err0[0] > 1.0
    assert np.array_equal(t, np.zeros(32))
    assert np.array_equal(h, 20.0 * 0.5 ** np.arange(1.0, 33.0))
    j = int(np.argmax(err <= 1.0))
    assert j > 0 and err[j] <= 1.0 < err[j - 1]  # its double fails
    assert t2[0] == h[j]
    # each candidate starts from the march's frame, not from the candidate before
    _, alone = _batch(_harmonic(), t[j : j + 1], h[j : j + 1], 1e-12, line[None], True, False)
    assert alone[0] == pytest.approx(err[j], rel=1e-9)


def test_a_full_batch_grows_h_from_its_last_step(monkeypatch):
    # away from an order-2 pole the error falls about 70 times along a batch;
    # the next h is taken from the batch's last step, not from its worst
    h = hamiltonian(a=np.zeros((1, 1)), b=np.array([[1.0]]),
                                c=np.array([[0.5]]), pole_order=2)
    calls = _recorded_batches(monkeypatch)
    _integrate(h, np.eye(2), [0.01, 1.0], 1e-12)
    (_, lengths, err), (_, after, _) = calls[2], calls[3]
    assert np.all(err <= 1.0) and err[-1] < 0.1 * err[0]
    grow = 0.9 * err ** (-1.0 / 7.0)
    # the next batch splits what is left of [0.01, 1] evenly, a step of at most h
    assert after[0] == pytest.approx(lengths[-1] * grow[-1], rel=1e-3)
    assert after[0] > 1.5 * lengths[0] * grow[0]


def test_the_corpus_regular_march_takes_its_grid_in_two_batches(tmp_path, monkeypatch):
    # the opening step, then every node interval within reach of h in one
    # run: 1 + 198 steps, where batches of 32 took 7
    calls = _recorded_batches(monkeypatch)
    assert cli.main(["trace", str(CORPUS / "regular.json"), "--out", str(tmp_path / "r.csv")]) == 0
    assert [t.size for t, _, _ in calls] == [1, 198]
    assert all(np.all(err <= 1.0) for _, _, err in calls)


def test_a_run_of_node_intervals_holds_at_most_256_steps(monkeypatch):
    # 20,000 node intervals within reach of h: the runs are capped, so a
    # batch's memory does not grow with the grid
    calls = _recorded_batches(monkeypatch)
    frames = _integrate(_harmonic(), vertical_plane(1), np.linspace(0.0, 20.0, 20001), 1e-12)
    sizes = [t.size for t, _, _ in calls]
    assert sum(sizes) == 20000 and max(sizes) == 8 * flows._BATCH
    assert plane_distance(frames[-1], _expm_flow(_harmonic(), 20.0) @ vertical_plane(1)) < 1e-10


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
@given(st.lists(st.floats(0.2, 3.0), min_size=1, max_size=60), st.booleans(), st.booleans())
def test_a_march_over_a_prefix_of_the_nodes_makes_the_same_steps(weights, uniform, backward):
    # a batch is cut only by the end of the nodes, so the march over any
    # prefix of them carries the full march's frames bit for bit, on
    # node-bound runs and on error-bound batches alike
    system, frame, a, b, rtol = _corpus_march()
    gaps = np.ones(len(weights)) if uniform else np.array(weights)
    nodes = a + (b - a) * np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    if backward:
        nodes = nodes[::-1].copy()
    full = _integrate(system, frame, nodes, rtol)
    for p in range(2, nodes.size):
        assert np.array_equal(_integrate(system, frame, nodes[:p], rtol), full[:p])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=12), st.floats(0.0, 0.99),
       st.floats(0.02, 2.0), st.floats(0.9, 1.1), st.booleans())
def test_graded_batches_end_on_every_node(gaps, where, h, g, backward):
    # steps h g^i from t: each step that would pass a node ends on it, the
    # rest of it is a step of its own, and no step passes the last node
    nodes = np.concatenate([[0.0], np.cumsum(gaps)])
    if backward:
        nodes = -nodes
    t = nodes[0] + where * (nodes[1] - nodes[0])
    starts, stops, ends, whole = flows._proposed(nodes, t, 1, h, g)
    assert 0 < stops.size <= flows._BATCH and starts[0] == t
    assert np.array_equal(starts[1:], stops[:-1])
    sign = -1.0 if backward else 1.0
    assert np.all(sign * (stops - starts) > 0.0) and sign * (stops[-1] - nodes[-1]) <= 0.0
    passed = nodes[1:][sign * (nodes[1:] - stops[-1]) <= 0.0]
    assert np.array_equal(stops[ends], passed)
    assert np.all(np.abs(stops - starts)[whole] <= h * max(g, 1.0) ** (flows._BATCH - 1) * (1 + 1e-9))


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
                          for starts, stops, _, whole in graded)
    assert all(np.array_equal(stops[ends], np.intersect1d(nodes, stops))
               for _, (_, stops, ends, _) in batches)
    stack = _integrate(h, np.stack([line, np.array([[0.0], [1.0]])]), nodes, 1e-12)[:, 0]
    assert max(plane_distance(a, b) for a, b in zip(planes, stack)) < 1e-10


def test_a_stack_march_splits_each_node_interval_evenly(tmp_path, monkeypatch):
    # a stack of frames is marched on the propagator and never graded: its
    # batches split each node interval into steps of one length, and the
    # corpus portrait takes 8 batches and 360 proposed steps
    calls = _recorded_batches(monkeypatch)
    assert cli.main(["portrait", str(CORPUS / "portrait.json"), "--out", str(tmp_path / "p.csv")]) == 0
    assert [t.size for t, _, _ in calls][:2] == [1, 32]
    assert (len(calls), sum(t.size for t, _, _ in calls)) == (8, 360)
    grid = cli.parse_scenario(CORPUS / "portrait.json").grid
    for t, lengths, _ in calls[2:]:
        interval = np.searchsorted(grid, t, side="right")
        for i in np.unique(interval):
            same = np.abs(lengths[interval == i])
            assert np.ptp(same) <= 1e-12 * same.max()


def _steps_taken(t, err) -> int:
    """The steps a march takes from one batch: one from a ladder, whose steps
    share their start, if any passes; else the steps up to the first that fails."""
    if t.size > 1 and t[0] == t[1]:
        return int(np.any(err <= 1.0))
    return int(np.argmax(err > 1.0)) if np.any(err > 1.0) else err.size


def _accepted_steps(monkeypatch) -> dict:
    """Record the steps each march of the transport kernel takes, by its first node."""
    counts: dict = {}
    calls = _recorded_batches(monkeypatch)
    integrate = flows._integrate

    def marched(sys, frames, nodes, rtol, **flags):
        first = len(calls)
        out = integrate(sys, frames, nodes, rtol, **flags)
        counts[float(nodes[0])] = sum(_steps_taken(t, err) for t, _, err in calls[first:])
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
    # graded batches about 1,310
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
