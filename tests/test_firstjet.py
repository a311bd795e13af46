from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from helpers import continued, jet_case
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
from jacobiflow.grassmann import (
    _chart_basis,
    _chart_matrix,
    _pi_chart,
    canonicalize,
    extend_by_isotropic,
    horizontal_plane,
    intersection_dimension,
    isotropy_residual,
    plane_distance,
    validate_lagrangian,
    vertical_plane,
)
from jacobiflow.series import meval
from jacobiflow.singular.classify import (
    NON_OSCILLATING,
    OSCILLATING,
    THRESHOLD,
    classify_coefficients,
)
from jacobiflow.singular.firstjet import (
    CASE_TOL,
    ENDPOINT_TOL,
    CaseSystem,
    blowup_equilibrium,
    blowup_series,
    case_system,
    first_jet_case,
    _case_matrix,
    first_jet_continuation,
    series_start,
)
from jacobiflow.singular.frame import NormalFormCoefficients, build_normal_frame
from jacobiflow.singular.jump import epsilon_family_oracle
from jacobiflow.symplectic import symplectic_inverse

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def _graph(s):
    return np.vstack([np.eye(2), np.asarray(s, dtype=float)])


def _identity_case(k):
    """The chart transform data of an incoming plane whose transform is the identity."""
    case = jet_case(np.array([[1.0], [0.4]]) if k == 1 else _graph(np.zeros((2, 2))))
    assert np.array_equal(case.matrix, np.eye(2 * k))
    return case


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
    case = jet_case(plane)
    assert case.case == expected_case
    if expected_case == 1:  # the shear by the Schur complement of s0[0, 0]
        assert -case.matrix[3, 1] == pytest.approx(expected_shear, abs=1e-12)
    # the transform sends the jump extension to the chart origin, so the
    # blown-up chart starts at zero
    post = extend_by_isotropic(plane, np.eye(4)[0])
    chart = _chart_basis(horizontal_plane(2), vertical_plane(2))
    assert np.max(np.abs(_chart_matrix(case.matrix @ post, chart))) < 1e-12


def test_case_selection_uncovered_position():
    plane = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ChartError, match="outside the chart classes"):
        jet_case(plane)


def test_case_selection_single_degree():
    case = jet_case(np.array([[1.0], [0.4]]))
    assert case.case == 1
    assert np.array_equal(case.matrix, np.eye(2))
    with pytest.raises(PreconditionError):
        first_jet_case(np.eye(3), np.eye(3))


def _derived_case(plane):
    """The chart transform as :func:`first_jet_case` selected it when it derived
    the jump extension itself, by extending the canonical plane by e_1, and
    checked each transformed plane by a chart solve of its own."""
    plane = canonicalize(np.asarray(plane, dtype=float))
    sigma = horizontal_plane(2)
    chart = _pi_chart(vertical_plane(2))

    def chart_s(f):
        s = _chart_matrix(validate_lagrangian(f), chart)
        if np.isnan(s).all():
            raise ChartError("plane is not transversal to the chart plane delta")
        return s

    post = extend_by_isotropic(plane, np.eye(4)[0])
    shear = 0.0
    try:
        s0 = chart_s(plane)
    except ChartError:
        s0 = None
    if s0 is not None:
        scale = max(1.0, float(np.linalg.norm(s0)))
        z11 = abs(s0[0, 0]) <= CASE_TOL * scale
        z12 = abs(s0[0, 1]) <= CASE_TOL * scale
        z22 = abs(s0[1, 1]) <= CASE_TOL * scale
        if (not z11) or z12:
            case = 1
            shear = float(s0[1, 1]) if z11 else float(s0[1, 1] - s0[0, 1] ** 2 / s0[0, 0])
        elif not z22:
            case = 2
        else:
            case = 3
    else:
        case = 2 if intersection_dimension(plane, sigma) == 1 else 3
    mat = _case_matrix(case, shear)
    try:
        chart_s(mat @ plane)
        res = chart_s(mat @ post)
    except ChartError as exc:
        raise ChartError(
            "plane position is outside the chart classes of the continuation transforms"
        ) from exc
    if np.linalg.norm(res) > ENDPOINT_TOL * max(1.0, abs(shear)) ** 2:
        raise ChartError(
            "selected transform does not send the jump extension to the chart origin"
        )
    return case, mat, np.linalg.inv(mat)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=3, max_size=3),
       st.lists(st.booleans(), min_size=2, max_size=2))
# S = 0 with the first degree of freedom swapped: the uncovered position
@example(0, [True, True, True], [True, False])
def test_the_given_post_plane_selects_as_the_derived_one(seed, zeros, swaps):
    # a graph [I; S] over the momentum directions, with the entries s11, s12,
    # s22 of S zeroed where ``zeros`` says, which reaches the three cases, and
    # (q_i, p_i) -> (p_i, -q_i) where ``swaps`` says, which reaches the planes
    # that are not graphs; each frame is handed in times a random invertible
    # matrix.  Any frame of the jump extension gives the transform that
    # extending the plane derived, bit for bit, or the same refusal
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(2, 2))
    s = s + s.T
    for (i, j), zero in zip([(0, 0), (0, 1), (1, 1)], zeros):
        if zero:
            s[i, j] = s[j, i] = 0.0
    plane = _graph(s)
    for i, swap in enumerate(swaps):
        if swap:
            plane[[i, 2 + i]] = plane[[2 + i, i]] * [[1.0], [-1.0]]

    def mixed(f):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        return f @ q @ np.diag(rng.uniform(0.5, 2.0, size=2))

    plane = mixed(plane)
    try:
        derived = _derived_case(plane)
    except ChartError as exc:
        with pytest.raises(ChartError) as refused:
            first_jet_case(plane, mixed(extend_by_isotropic(plane, np.eye(4)[0])))
        assert str(refused.value) == str(exc)
        return
    case = first_jet_case(plane, mixed(extend_by_isotropic(plane, np.eye(4)[0])))
    assert case.case == derived[0]
    assert np.array_equal(case.matrix, derived[1]) and np.array_equal(case.minv, derived[2])


# ---------------------------------------------------------------------------
# transformed system
# ---------------------------------------------------------------------------


def test_case_system_guards():
    with pytest.raises(PreconditionError):
        case_system(
            NormalFormCoefficients(k=1, m=3, b=[0, 0, 0, -1.0], b11=np.zeros(1), c11=[-1.0]),
            _identity_case(1),
        )
    # a transform for the other number of degrees of freedom
    with pytest.raises(PreconditionError, match="does not match"):
        case_system(_coeffs_c2(), jet_case(_graph([[0.0, 1.0], [1.0, 0.5]])))
    with pytest.raises(PreconditionError, match="does not match"):
        case_system(_coeffs_k2(), _identity_case(1))


def test_case_system_order_two_discriminant_gates():
    with pytest.raises(OscillatingError):
        case_system(
            NormalFormCoefficients(k=1, m=2, b=[0, 0, -1.0], b11=np.zeros(1), c11=[0.5]),
            _identity_case(1),
        )
    with pytest.raises(ResonanceError):
        case_system(
            NormalFormCoefficients(k=1, m=2, b=[0, 0, -1.0], b11=np.zeros(1), c11=[0.25]),
            _identity_case(1),
        )
    with pytest.raises(ResonanceError):
        # discriminant root hits one when the product vanishes
        case_system(
            NormalFormCoefficients(k=1, m=2, b=[0, 0, -1.0], b11=np.zeros(1), c11=[1e-12]),
            _identity_case(1),
        )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([-0.25, 0.0]), st.floats(-2.0, 2.0),
       st.floats(-9.0, -3.0), st.floats(-3.0, 3.0))
# p = 4e-7 at tol_thresh 1e-6: outside the classifier's band at p = 0, it
# was refused by the continuation's own band |delta - 1| <= 1e-6
@example(1, 0.0, 0.4, -6.0, 0.0)
def test_case_system_refuses_by_the_classifier_verdict(k, center, r, log_tol, log_b):
    # order-two data with p = c11(0)/b_m within a few tol_thresh of the
    # critical values -1/4 and 0: the system refuses exactly what the
    # classifier does not call NonOscillating, and its root is the delta the
    # classifier reports, bit for bit
    tol, b2 = 10.0**log_tol, -(10.0**log_b)
    coeffs = NormalFormCoefficients(k=k, m=2, b=[0.0, 0.0, b2], b11=[0.3],
                                    c11=[(center + r * tol) * b2], b12=[0.1], b22=[-0.4],
                                    c22=[0.6])
    report = classify_coefficients(coeffs, tol_thresh=tol)
    refusal = {OSCILLATING: OscillatingError, THRESHOLD: ResonanceError}.get(report.verdict)
    if refusal is not None:
        with pytest.raises(refusal):
            case_system(coeffs, _identity_case(k), tol_thresh=tol)
        return
    assert report.verdict == NON_OSCILLATING
    d = case_system(coeffs, _identity_case(k), tol_thresh=tol).d
    assert np.float64(d).tobytes() == np.float64(report.delta).tobytes()


def test_case_system_blocks_and_root():
    sys2 = case_system(_coeffs_c2(), _identity_case(1))
    assert sys2.d == pytest.approx(3.0)
    assert sys2.b2 == -1.0
    assert np.allclose(meval(sys2.aprime, 0.5), 0.0)
    assert meval(sys2.cprime, 0.5)[0, 0] == pytest.approx(-2.0)
    assert meval(sys2.g, 0.5)[0, 0] == pytest.approx(-1.0)  # t^2 / (b2 t^2)


def test_case_system_stacks_sum_to_the_conjugated_system():
    # A'(t), C'(t) and G(t) = t^2 B'(t) of the transformed system
    case = jet_case(_graph([[0.0, 1.0], [1.0, 0.5]]))
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
    gs, sg = system.g[0] @ s_star, s_star @ system.g[0]
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
    return float(np.linalg.norm(s1 + s1 @ system.g[0] @ s1 - system.cprime[0]))


def blowup_linearization(system, s_star):
    """Eigenvalues (ascending) of the blow-up flow linearized at the fixed point.

    All but one come from the action on symmetric chart perturbations; the
    last (always ``+1``) from the scaling direction itself.
    """
    op = _sym_operator(1.0, system.g[0] @ s_star, s_star @ system.g[0])
    w = np.linalg.eigvals(-op)
    assert np.max(np.abs(w.imag)) <= 1e-9 * max(1.0, float(np.max(np.abs(w))))
    return np.sort(np.append(w.real, 1.0))


def test_equilibrium_scalar_order_two():
    sys2 = case_system(_coeffs_c2(), _identity_case(1))
    eq = blowup_equilibrium(sys2)
    assert np.allclose(eq, [[-1.0]])
    assert blowup_residual(sys2, eq) < 1e-14
    assert np.allclose(blowup_linearization(sys2, eq), [-3.0, 1.0])


def test_equilibrium_order_one_is_symmetrized_c():
    c1 = NormalFormCoefficients(k=1, m=1, b=[0.0, -1.0], b11=np.zeros(1), c11=[0.7])
    s1 = case_system(c1, _identity_case(1))
    eq = blowup_equilibrium(s1)
    assert np.allclose(eq, [[0.7]])
    assert blowup_residual(s1, eq) < 1e-14
    assert np.allclose(blowup_linearization(s1, eq), [-1.0, 1.0])


def test_equilibrium_two_block_closed_spectrum():
    case = jet_case(_graph([[1.0, 0.3], [0.3, 2.0]]))
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
    s = case_system(c2, _identity_case(2))
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
    _assert_matches_reference(case_system(coeffs, jet_case(plane)))


@pytest.mark.parametrize("name", ["degen_m1", "degen_m2"])
def test_blowup_series_matches_the_order_loop_on_the_corpus(name):
    coeffs, l0, _ = _corpus_problem(name)
    _assert_matches_reference(case_system(coeffs, jet_case(l0)))


def test_blowup_series_refuses_a_resonant_order():
    # order one, S* = C'(0) = 1/2 and G0 = -3: (k + 1) + 2 G0 S* vanishes at k = 2
    ln = 6
    cprime = np.zeros((ln, 1, 1))
    cprime[0] = 0.5
    g = np.zeros((ln, 1, 1))
    g[0] = -3.0
    system = CaseSystem(m=1, b2=-1.0, d=None, aprime=np.zeros((ln, 1, 1)), cprime=cprime, g=g)
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
    trace, planes = continued(_coeffs_c2(), _identity_case(1), grid)
    assert trace.diagnostics["series_start"] == pytest.approx(0.1)
    assert np.allclose(trace.diagnostics["equilibrium"], [[-1.0]])
    # the window: the grid nodes below series_start, then series_start itself
    window = trace.curve.times
    assert window[-1] == trace.diagnostics["series_start"]
    assert np.array_equal(window[:-1], grid[grid < window[-1]])
    assert len(planes) == grid.size
    for t, p in zip(grid, planes):
        expected = canonicalize(np.array([[1.0], [-t]]))
        assert plane_distance(p, expected) < 1e-12


@pytest.mark.parametrize("t1", [0.06, 0.1])
def test_continuation_window_ends_with_the_grid(t1):
    # a grid that ends inside the series window hands over at its last node
    grid = np.linspace(0.05, t1, 3)
    trace = first_jet_continuation(_coeffs_c2(), _identity_case(1), grid)
    assert np.array_equal(trace.curve.times, grid)
    assert isinstance(trace.curve.planes, np.ndarray) and trace.curve.planes.shape == (3, 2, 1)


def test_continuation_two_block_stays_lagrangian():
    case = jet_case(_graph([[1.0, 0.3], [0.3, 2.0]]))
    grid = np.linspace(0.05, 0.8, 8)
    trace, planes = continued(_coeffs_k2(), case, grid)
    assert len(planes) == 8
    assert max(isotropy_residual(p) for p in np.concatenate([trace.curve.planes, planes])) < 1e-10


def _corpus_problem(name):
    """Normal-form data, incoming plane and grid of a benchmark corpus scenario."""
    config = parse_scenario(CORPUS / f"{name}.json")
    frame = build_normal_frame(config.data["piecewise"], nterms=config.tolerances["nterms"])
    l0 = canonicalize(symplectic_inverse(meval(frame.frame, 0.0)) @ config.initial_plane)
    return frame.coeffs, l0, config.grid


@pytest.mark.parametrize("name", ["degen_m1", "degen_m2"])
def test_continuation_matches_independent_frame_transport(name):
    # the corpus curves leave the blow-up chart before t = 1
    coeffs, l0, grid = _corpus_problem(name)
    case = jet_case(l0)
    trace, planes = continued(coeffs, case, grid)
    t0 = trace.diagnostics["series_start"]
    s1 = meval(blowup_series(case_system(coeffs, case)), t0)
    start = case.minv @ np.vstack([np.eye(2), t0 * s1])
    # the window ends on the plane [I; t0 S1(t0)], mapped back
    assert plane_distance(trace.curve.planes[-1], start) < 1e-12
    above = grid > t0
    flow = flow_plane(coeffs.system, start, np.concatenate([[t0], grid[above]]))
    got = [p for p, keep in zip(planes, above) if keep]
    assert max(plane_distance(a, b) for a, b in zip(got, flow.planes[1:])) < 1e-10


@pytest.mark.parametrize("name, last_below", [("degen_m1", 0.05), ("degen_m2", 1e-4)])
def test_epsilon_family_approaches_the_continuation(name, last_below):
    coeffs, l0, _ = _corpus_problem(name)
    _, planes = continued(coeffs, jet_case(l0), np.array([0.5, 1.0]))
    family = epsilon_family_oracle(coeffs.system, l0, 1.0, [1e-2, 1e-3, 1e-4, 1e-5])
    dists = [plane_distance(p, planes[-1]) for p in family]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < last_below


def test_blowup_values_are_nan_where_the_chart_ends():
    # the corpus degen_m2 curve leaves the blow-up chart between 0.7 and 0.85:
    # one eigenvalue of S1 = S / t, S the chart matrix of the transformed
    # plane, runs off to +inf and comes back from -inf.  With the last node
    # fixed the transport is the same for every first node, so the root of
    # 1/tr S1 is the time at which the plane leaves the chart.
    coeffs, l0, _ = _corpus_problem("degen_m2")
    case = jet_case(l0)
    chart = _chart_basis(horizontal_plane(2), vertical_plane(2))

    def values(t):
        plane = continued(coeffs, case, np.array([t, 1.0]))[1][0]
        return _chart_matrix(case.matrix @ plane, chart) / t

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
    case = _identity_case(1)
    with pytest.raises(PreconditionError):
        first_jet_continuation(coeffs, case, np.array([0.0, 0.5]))
    with pytest.raises(PreconditionError):
        first_jet_continuation(coeffs, case, np.array([0.5, 0.2]))


if __name__ == "__main__":
    pytest.main([__file__])
