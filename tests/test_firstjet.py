from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from jacobiflow.errors import (
    ChartError,
    OscillatingError,
    PreconditionError,
    RadiusError,
    ResonanceError,
    SeriesResonanceError,
)
from jacobiflow.cli import parse_scenario
from jacobiflow.flows import flow_plane
from jacobiflow.grassmann import canonicalize, isotropy_residual, plane_distance
from jacobiflow.series import meval
from jacobiflow.singular.firstjet import (
    CaseSystem,
    blowup_equilibrium,
    blowup_series,
    case_system,
    first_jet_case,
    first_jet_continuation,
    series_start,
)
from jacobiflow.singular.frame import NormalFormCoefficients, build_normal_frame
from jacobiflow.singular.jump import epsilon_family_oracle
from jacobiflow.symplectic import symplectic_inverse

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def _graph(s):
    return np.vstack([np.eye(2), np.asarray(s, dtype=float)])


def _coeffs_c2():
    # scalar order-two data with discriminant root 3
    return NormalFormCoefficients(
        k=1, m=2, b=[0.0, 0.0, -1.0], b11=np.zeros(1), c11=[-2.0]
    )


def _coeffs_k2():
    return NormalFormCoefficients(
        k=2, m=2, b=[0.0, 0.0, -1.5], b11=[0.3], c11=[-0.9],
        b12=[0.1], b22=[-0.4], c22=[0.6],
    )


# ---------------------------------------------------------------------------
# chart transform selection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "plane, expected_case, expected_shear",
    [
        (_graph([[1.0, 0.3], [0.3, 2.0]]), 1, 2.0 - 0.3**2 / 1.0),
        (_graph(np.zeros((2, 2))), 1, 0.0),
        (_graph([[0.0, 0.0], [0.0, 1.5]]), 1, 1.5),
        (_graph([[0.0, 1.0], [1.0, 0.5]]), 2, 0.0),
        (_graph([[0.0, 1.0], [1.0, 0.0]]), 3, 0.0),
        (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), 2, 0.0),
        (np.vstack([np.zeros((2, 2)), np.eye(2)]), 3, 0.0),
    ],
)
def test_case_selection(plane, expected_case, expected_shear):
    case = first_jet_case(plane)
    assert case.case == expected_case
    assert case.s22plus == pytest.approx(expected_shear, abs=1e-12)
    # the transform sends the jump extension to the chart origin, so the
    # blown-up chart starts at zero
    assert plane_distance(case.plane, canonicalize(plane)) < 1e-12


def test_case_selection_uncovered_position():
    plane = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ChartError, match="outside the chart classes"):
        first_jet_case(plane)


def test_case_selection_single_degree():
    case = first_jet_case(np.array([[1.0], [0.4]]))
    assert case.case == 1
    assert np.array_equal(case.matrix, np.eye(2))
    assert np.allclose(case.post_plane.ravel(), [1.0, 0.0])
    with pytest.raises(PreconditionError):
        first_jet_case(np.eye(3))


# ---------------------------------------------------------------------------
# transformed system
# ---------------------------------------------------------------------------


def test_case_system_guards():
    with pytest.raises(PreconditionError):
        case_system(
            NormalFormCoefficients(k=1, m=3, b=[0, 0, 0, -1.0], b11=np.zeros(1), c11=[-1.0]),
            1,
        )
    with pytest.raises(PreconditionError):
        case_system(_coeffs_c2(), 2)  # only the identity chart in one degree
    with pytest.raises(PreconditionError):
        case_system(_coeffs_k2(), 5)


def test_case_system_order_two_discriminant_gates():
    with pytest.raises(OscillatingError):
        case_system(
            NormalFormCoefficients(k=1, m=2, b=[0, 0, -1.0], b11=np.zeros(1), c11=[0.5]), 1
        )
    with pytest.raises(ResonanceError):
        case_system(
            NormalFormCoefficients(k=1, m=2, b=[0, 0, -1.0], b11=np.zeros(1), c11=[0.25]), 1
        )
    with pytest.raises(ResonanceError):
        # discriminant root hits one when the product vanishes
        case_system(
            NormalFormCoefficients(k=1, m=2, b=[0, 0, -1.0], b11=np.zeros(1), c11=[1e-12]), 1
        )


def test_case_system_blocks_and_root():
    sys2 = case_system(_coeffs_c2(), 1)
    assert sys2.d == pytest.approx(3.0)
    assert sys2.b2 == -1.0
    assert np.allclose(meval(sys2.aprime, 0.5), 0.0)
    assert meval(sys2.cprime, 0.5)[0, 0] == pytest.approx(-2.0)
    assert meval(sys2.g, 0.5)[0, 0] == pytest.approx(-1.0)  # t^2 / (b2 t^2)


def test_case_system_stacks_sum_to_the_conjugated_system():
    # A'(t), C'(t) and G(t) = t^2 B'(t) of the transformed system
    case = first_jet_case(_graph([[0.0, 1.0], [1.0, 0.5]]))
    system = case_system(_coeffs_k2(), case)
    for t in (0.05, 0.3, 0.9):
        conj = case.matrix @ _coeffs_k2().system(t) @ case.minv
        assert np.allclose(meval(system.aprime, t), conj[:2, :2], atol=1e-12)
        assert np.allclose(meval(system.cprime, t), conj[2:, :2], atol=1e-12)
        assert np.allclose(meval(system.g, t), t * t * conj[:2, 2:], atol=1e-12)


# ---------------------------------------------------------------------------
# fixed point, linearization, series window
# ---------------------------------------------------------------------------


def _sym_basis(k):
    if k == 1:
        return (np.array([[1.0]]),)
    return (
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
    )


def _sym_pack(f):
    if f.shape[0] == 1:
        return [f[0, 0]]
    return [f[0, 0], f[1, 1], f[0, 1]]


def _sym_unpack(y, k):
    if k == 1:
        return np.array([[y[0]]])
    return np.array([[y[0], y[2]], [y[2], y[1]]])


def _sym_operator(shift, gs, sg):
    """Matrix of ``Y -> shift*Y + Y@gs + sg@Y`` on packed symmetric entries."""
    return np.array([_sym_pack(shift * b + b @ gs + sg @ b) for b in _sym_basis(gs.shape[0])]).T


def _reference_blowup_series(system):
    """The order loop, one triple product at a time, on packed symmetric entries."""
    ln, kk = system.cprime.shape[0], system.k
    s_star = blowup_equilibrium(system)
    out = np.zeros((ln, kk, kk))
    out[0] = s_star
    gs, sg = system.g0 @ s_star, s_star @ system.g0
    a, c, g = system.aprime, system.cprime, system.g
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
        out[k] = _sym_unpack(np.linalg.solve(tmat, np.array(_sym_pack(rhs))), kk)
    return out


def blowup_residual(system, s1):
    """Defect of a candidate fixed point in the truncated equation."""
    return float(np.linalg.norm(s1 + s1 @ system.g0 @ s1 - system.cprime[0]))


def blowup_linearization(system, s_star):
    """Eigenvalues (ascending) of the blow-up flow linearized at the fixed point.

    All but one come from the action on symmetric chart perturbations; the
    last (always ``+1``) from the scaling direction itself.
    """
    op = _sym_operator(1.0, system.g0 @ s_star, s_star @ system.g0)
    w = np.linalg.eigvals(-op)
    assert np.max(np.abs(w.imag)) <= 1e-9 * max(1.0, float(np.max(np.abs(w))))
    return np.sort(np.append(w.real, 1.0))


def test_equilibrium_scalar_order_two():
    sys2 = case_system(_coeffs_c2(), 1)
    eq = blowup_equilibrium(sys2)
    assert np.allclose(eq, [[-1.0]])
    assert blowup_residual(sys2, eq) < 1e-14
    assert np.allclose(blowup_linearization(sys2, eq), [-3.0, 1.0])


def test_equilibrium_order_one_is_symmetrized_c():
    c1 = NormalFormCoefficients(k=1, m=1, b=[0.0, -1.0], b11=np.zeros(1), c11=[0.7])
    s1 = case_system(c1, 1)
    eq = blowup_equilibrium(s1)
    assert np.allclose(eq, [[0.7]])
    assert blowup_residual(s1, eq) < 1e-14
    assert np.allclose(blowup_linearization(s1, eq), [-1.0, 1.0])


def test_equilibrium_two_block_closed_spectrum():
    case = first_jet_case(_graph([[1.0, 0.3], [0.3, 2.0]]))
    sys2 = case_system(_coeffs_k2(), case)
    eq = blowup_equilibrium(sys2)
    assert blowup_residual(sys2, eq) < 1e-12
    d = sys2.d
    lin = blowup_linearization(sys2, eq)
    assert np.allclose(lin, np.sort([-d, -(1.0 + d) / 2.0, -1.0, 1.0]), atol=1e-10)


def test_linearization_order_one_two_blocks():
    c2 = NormalFormCoefficients(
        k=2, m=1, b=[0.0, -1.0], b11=[0.2], c11=[0.7], b22=[-0.3], c22=[-0.1]
    )
    s = case_system(c2, 1)
    eq = blowup_equilibrium(s)
    assert np.allclose(blowup_linearization(s, eq), [-1.0, -1.0, -1.0, 1.0])


def _assert_matches_reference(system):
    got, ref = blowup_series(system), _reference_blowup_series(system)
    assert got.shape == ref.shape
    for k, (a, b) in enumerate(zip(got, ref)):
        assert np.max(np.abs(a - b)) <= 1e-13 * max(np.max(np.abs(b)), 1e-300), k


@pytest.mark.parametrize("plane", [_graph([[1.0, 0.3], [0.3, 2.0]]),
                                   _graph([[0.0, 1.0], [1.0, 0.5]]),
                                   _graph([[0.0, 1.0], [1.0, 0.0]])])
@pytest.mark.parametrize("coeffs", [
    _coeffs_k2(),
    NormalFormCoefficients(k=2, m=1, b=[0.0, -1.0, 0.3], b11=[0.2, 0.1], c11=[0.7, -0.2],
                           b12=[0.0, 0.4], b22=[-0.3, 0.5], c22=[-0.1, 0.3]),
    NormalFormCoefficients(k=2, m=2, b=[0.0, 0.0, -1.5, 0.4, 0.2], b11=[0.3, -0.2],
                           c11=[-0.9, 0.1, 0.3], b12=[0.1, 0.2], b22=[-0.4, 0.3], c22=[0.6, -0.5]),
], ids=["k2", "m1", "m2"])
def test_blowup_series_matches_the_order_loop_two_blocks(coeffs, plane):
    _assert_matches_reference(case_system(coeffs, first_jet_case(plane)))


@pytest.mark.parametrize("name", ["degen_m1", "degen_m2"])
def test_blowup_series_matches_the_order_loop_on_the_corpus(name):
    coeffs, l0, _ = _corpus_problem(name)
    _assert_matches_reference(case_system(coeffs, first_jet_case(l0)))


def test_blowup_series_refuses_a_resonant_order():
    # order one, S* = C'(0) = 1/2 and G0 = -3: (k + 1) + 2 G0 S* vanishes at k = 2
    ln = 6
    cprime = np.zeros((ln, 1, 1))
    cprime[0] = 0.5
    g = np.zeros((ln, 1, 1))
    g[0] = -3.0
    system = CaseSystem(case=1, m=1, b2=-1.0, d=None, aprime=np.zeros((ln, 1, 1)),
                        cprime=cprime, g=g, matrix=np.eye(2), minv=np.eye(2))
    for series in (blowup_series, _reference_blowup_series):
        with pytest.raises(SeriesResonanceError, match="at order 2"):
            series(system)


def test_series_start_windows():
    geometric = np.array([[[5.0**k]] for k in range(30)])
    assert series_start(geometric) == pytest.approx(0.08)
    constant = np.zeros((30, 1, 1))
    constant[0, 0, 0] = 1.0
    assert series_start(constant) == pytest.approx(0.1)
    tail_only = np.zeros((30, 1, 1))
    tail_only[-1, 0, 0] = 1.0
    with pytest.raises(RadiusError):
        series_start(tail_only)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def test_continuation_scalar_closed_form():
    # S1(t) = -1 identically, so the continued plane is span{(1, -t)}
    grid = np.linspace(0.05, 1.0, 20)
    trace = first_jet_continuation(_coeffs_c2(), np.array([[1.0], [0.4]]), grid)
    assert trace.diagnostics["series_start"] == pytest.approx(0.1)
    assert trace.diagnostics["case"] == 1
    assert np.allclose(trace.diagnostics["equilibrium"], [[-1.0]])
    assert trace.jumps[0].time == 0.0
    for t, p in zip(grid, trace.curve.planes):
        expected = canonicalize(np.array([[1.0], [-t]]))
        assert plane_distance(p, expected) < 1e-12


def test_continuation_two_block_stays_lagrangian():
    case = first_jet_case(_graph([[1.0, 0.3], [0.3, 2.0]]))
    grid = np.linspace(0.05, 0.8, 8)
    trace = first_jet_continuation(_coeffs_k2(), case, grid)
    assert len(trace.curve.planes) == 8
    assert max(isotropy_residual(p) for p in trace.curve.planes) < 1e-10
    # the chart values are symmetric by construction
    for s1 in trace.diagnostics["blowup_values"]:
        assert np.allclose(s1, s1.T)


def _corpus_problem(name):
    """Normal-form data, incoming plane and grid of a benchmark corpus scenario."""
    config = parse_scenario(CORPUS / f"{name}.json")
    frame = build_normal_frame(config.data["piecewise"], 0.0,
                               nterms=config.tolerances["nterms"])
    l0 = canonicalize(symplectic_inverse(frame.frame_at(0.0)) @ config.initial_plane)
    return frame.coeffs, l0, config.grid


@pytest.mark.parametrize("name", ["degen_m1", "degen_m2"])
def test_continuation_matches_independent_frame_transport(name):
    # the corpus curves leave the blow-up chart before t = 1
    coeffs, l0, grid = _corpus_problem(name)
    case = first_jet_case(l0)
    trace = first_jet_continuation(coeffs, case, grid)
    t0 = trace.diagnostics["series_start"]
    s1 = meval(blowup_series(case_system(coeffs, case)), t0)
    start = case.minv @ np.vstack([np.eye(2), t0 * s1])
    above = grid > t0
    flow = flow_plane(coeffs.as_callable(), start, np.concatenate([[t0], grid[above]]))
    got = [p for p, keep in zip(trace.curve.planes, above) if keep]
    assert max(plane_distance(a, b) for a, b in zip(got, flow.planes[1:])) < 1e-10


@pytest.mark.parametrize("name, last_below", [("degen_m1", 0.05), ("degen_m2", 1e-4)])
def test_epsilon_family_approaches_the_continuation(name, last_below):
    coeffs, l0, _ = _corpus_problem(name)
    trace = first_jet_continuation(coeffs, l0, np.array([0.5, 1.0]))
    family = epsilon_family_oracle(coeffs, l0, 1.0, [1e-2, 1e-3, 1e-4, 1e-5])
    dists = [plane_distance(p, trace.curve.planes[-1]) for p in family]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < last_below


def test_blowup_values_are_nan_where_the_chart_ends():
    # the corpus degen_m2 curve leaves the blow-up chart between 0.7 and 0.85:
    # one eigenvalue of S1 runs off to +inf and comes back from -inf.  With
    # the last node fixed the transport is the same for every first node, so
    # the root of 1/tr S1 is the time at which the plane leaves the chart.
    coeffs, l0, _ = _corpus_problem("degen_m2")

    def values(t):
        trace = first_jet_continuation(coeffs, l0, np.array([t, 1.0]))
        return trace.diagnostics["blowup_values"][0]

    def inverse_trace(t):
        s1 = values(t)
        return 0.0 if np.isnan(s1).any() else 1.0 / np.trace(s1)

    pole = brentq(inverse_trace, 0.7, 0.85, xtol=1e-15)
    assert np.isnan(values(pole)).all()
    for t in (pole - 1e-3, pole + 1e-3):
        s1 = values(t)
        assert np.all(np.isfinite(s1)) and np.max(np.abs(s1)) > 100.0


def test_continuation_grid_validation():
    coeffs = _coeffs_c2()
    plane = np.array([[1.0], [0.4]])
    with pytest.raises(PreconditionError):
        first_jet_continuation(coeffs, plane, np.array([0.0, 0.5]))
    with pytest.raises(PreconditionError):
        first_jet_continuation(coeffs, plane, np.array([0.5, 0.2]))
    with pytest.raises(PreconditionError):
        first_jet_continuation(coeffs, "not a case", np.array([0.5]))


if __name__ == "__main__":
    pytest.main([__file__])
