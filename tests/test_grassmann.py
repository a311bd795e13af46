import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_lagrangian, svd_extension
from jacobiflow.errors import ChartError, NondegeneracyError, PreconditionError
from jacobiflow.grassmann import (
    GrassmannCurve,
    _chart_basis,
    _chart_matrix,
    canonicalize,
    extend_by_isotropic,
    horizontal_plane,
    intersection_dimension,
    plane_distance,
    to_chart,
    transversality_margin,
    validate_lagrangian,
    vertical_plane,
)
from jacobiflow.maslov import maslov_index
from jacobiflow.symplectic import apply_j, isotropy_residual, symplectic_form


def test_reference_planes():
    v = vertical_plane(2)
    h = horizontal_plane(2)
    assert np.allclose(v, np.vstack([np.eye(2), np.zeros((2, 2))]))
    assert np.allclose(h, np.vstack([np.zeros((2, 2)), np.eye(2)]))
    assert intersection_dimension(v, h) == 0
    assert intersection_dimension(v, v) == 2
    assert plane_distance(v, h) == pytest.approx(1.0)
    assert transversality_margin(v, h) == pytest.approx(np.pi / 2)
    assert transversality_margin(v, v) == 0.0


def test_the_margin_keeps_its_digits_near_zero():
    # an arccos of the largest cosine read up to 1.5e-8 rad between a plane
    # and itself in another frame, and 1.00004e-6 for an angle of 1e-6
    rng = np.random.default_rng(0)
    for _ in range(20):
        plane = random_lagrangian(rng, 2)
        assert transversality_margin(plane, plane @ rng.normal(size=(2, 2))) < 1e-15
    line = np.array([[1.0], [0.0]])
    assert transversality_margin(line, [[np.cos(1e-6)], [np.sin(1e-6)]]) == pytest.approx(
        1e-6, rel=1e-12)
    # the larger subspace is the one projected on, whichever comes first
    assert transversality_margin(np.eye(4)[:, :1], vertical_plane(2)) == 0.0
    assert transversality_margin(vertical_plane(2), np.eye(4)[:, 2:3]) == np.pi / 2


def test_intersection_dimension_of_a_frame_with_itself_is_its_rank():
    f = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    assert intersection_dimension(f, f) == 1
    assert intersection_dimension(np.zeros((4, 2)), np.zeros((4, 2))) == 0
    assert intersection_dimension(np.eye(4), np.eye(4)) == 4


def test_validate_lagrangian():
    v = validate_lagrangian(vertical_plane(2))
    assert v.shape == (4, 2)
    with pytest.raises(PreconditionError):
        validate_lagrangian(np.eye(4)[:, :1])  # wrong column count
    rank_def = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NondegeneracyError):
        validate_lagrangian(rank_def)
    non_iso = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NondegeneracyError):
        validate_lagrangian(non_iso)


def test_canonicalize_column_echelon():
    f = np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0], [0.0, 4.0]])
    c = canonicalize(f)
    # pivot entries are assigned exactly, dependent directions separated
    assert c[0, 0] == 1.0
    assert c[0, 1] == 0.0
    assert c[3, 1] == 1.0
    assert c[3, 0] == 0.0
    assert c[1, 0] == 0.0 and c[1, 1] == 0.0
    assert plane_distance(c, f) < 1e-12


def test_canonicalize_drops_dependent_columns():
    f = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 6.0], [0.0, 0.0]])
    c = canonicalize(f)
    assert c.shape == (4, 1)


def test_canonicalize_idempotent():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        f = random_lagrangian(rng, n)
        c = canonicalize(f)
        assert np.allclose(canonicalize(c), c)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_canonicalize_is_span_invariant(n, seed):
    rng = np.random.default_rng(seed)
    f = random_lagrangian(rng, n)
    g = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    assert np.allclose(canonicalize(f @ g), canonicalize(f), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_random_lagrangian_is_lagrangian(n, seed):
    rng = np.random.default_rng(seed)
    f = random_lagrangian(rng, n)
    assert f.shape == (2 * n, n)
    assert isotropy_residual(f) < 1e-12
    assert np.linalg.matrix_rank(f) == n


def test_random_lagrangian_deterministic():
    a = random_lagrangian(np.random.default_rng(11), 3)
    b = random_lagrangian(np.random.default_rng(11), 3)
    assert np.array_equal(a, b)


def _from_chart(s, delta, pi_ref):
    """Frame of the graph of S over ``pi_ref`` in the chart ``(delta, pi_ref)``."""
    m = _chart_basis(delta, pi_ref)
    n = s.shape[0]
    return m[:, :n] + m[:, n:] @ s


def test_to_chart_sign_convention():
    # the chart value of span [I; S] over the horizontal plane is S itself
    s = np.array([[0.5, 0.2], [0.2, -1.0]])
    plane = np.vstack([np.eye(2), s])
    got = to_chart(plane, horizontal_plane(2), vertical_plane(2))
    assert np.allclose(got, s, atol=1e-12)
    assert np.allclose(got, got.T, atol=1e-12)
    back = _from_chart(got, horizontal_plane(2), vertical_plane(2))
    assert plane_distance(back, plane) < 1e-12


def test_to_chart_rejects_tangent_plane():
    with pytest.raises(ChartError):
        to_chart(horizontal_plane(2), horizontal_plane(2), vertical_plane(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_chart_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    plane = random_lagrangian(rng, n)
    delta = horizontal_plane(n)
    if transversality_margin(plane, delta) < 1e-3:
        return
    s = to_chart(plane, delta, vertical_plane(n))
    assert np.max(np.abs(s - s.T)) < 1e-9 * max(1.0, np.max(np.abs(s)))
    assert plane_distance(_from_chart(s, delta, vertical_plane(n)), plane) < 1e-9


def test_extend_by_isotropic_member_is_identity():
    rng = np.random.default_rng(5)
    plane = random_lagrangian(rng, 2)
    x = plane @ np.array([0.3, -1.2])
    out = extend_by_isotropic(plane, x)
    assert plane_distance(out, plane) < 1e-12


def test_extend_by_isotropic_nonmember():
    # vertical plane extended by a q-direction: spans {p_1, q_1 wedge...}
    v = vertical_plane(2)
    eq1 = np.array([0.0, 0.0, 1.0, 0.0])
    out = extend_by_isotropic(v, eq1)
    assert out.shape == (4, 2)
    assert isotropy_residual(out) < 1e-12
    # contains e_q1 and keeps the sigma-orthogonal part span{e_p2}
    assert intersection_dimension(out, eq1[:, None] @ np.ones((1, 1))) >= 0
    expected = canonicalize(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert plane_distance(out, expected) < 1e-12


def test_extend_by_isotropic_rejects_bad_inputs():
    v = vertical_plane(2)
    g = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PreconditionError):
        extend_by_isotropic(v, g)  # sigma(g_1, g_2) = 1, not isotropic
    with pytest.raises(PreconditionError):
        extend_by_isotropic(v, np.ones(6))  # ambient mismatch


def test_extend_by_isotropic_of_a_frame_with_a_repeated_column():
    # the line span{e_p1}, framed twice: e_q1 pairs with it, so the extension
    # is span{e_q1}; e_q2 does not, so it is span{e_p1, e_q2}
    plane = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert plane_distance(extend_by_isotropic(plane, np.eye(4)[2]), np.eye(4)[:, [2]]) < 1e-15
    assert plane_distance(extend_by_isotropic(plane, np.eye(4)[3]), np.eye(4)[:, [0, 3]]) < 1e-15


def _well_conditioned(rng, n: int, k: int) -> np.ndarray:
    """An (n, k) matrix of orthonormal columns times scales in [0.5, 2]."""
    return np.linalg.qr(rng.normal(size=(n, n)))[0][:, :k] * rng.uniform(0.5, 2.0, k)


def _isotropic(rng, plane_q: np.ndarray, k: int, kind: str) -> np.ndarray:
    """k isotropic columns against the orthonormal Lagrangian frame ``plane_q``
    of L: inside L, in a random Lagrangian plane, or ``mixed``, some columns
    inside L and the others in a Lagrangian plane through them; scaled by
    10^(-3..3)."""
    n = plane_q.shape[1]
    if kind == "inside":
        g = plane_q @ _well_conditioned(rng, n, k)
    elif kind == "generic":
        g = random_lagrangian(rng, n) @ _well_conditioned(rng, n, k)
    else:
        # in the coordinates of the unitary map sending the p-axes to L:
        # j p-axes, then a random Lagrangian plane of the other n - j degrees
        j = int(rng.integers(1, k))
        a, b = plane_q[:n], plane_q[n:]
        move = np.block([[a, -b], [b, a]])
        rest = random_lagrangian(rng, n - j) @ _well_conditioned(rng, n - j, k - j)
        g0 = np.zeros((2 * n, k))
        g0[np.arange(j), np.arange(j)] = 1.0
        g0[j:n, j:], g0[n + j :, j:] = rest[: n - j], rest[n - j :]
        g = move @ g0
    return g * 10.0 ** rng.uniform(-3, 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(["generic", "inside", "mixed", "dependent"]), st.integers(0, 2**32 - 1))
def test_extend_by_isotropic_is_the_svd_extension(n, k, kind, seed):
    # one rank-one update per basis vector of span(G) against the SVD route
    # it replaced; the frames of the plane and of G are well conditioned, as
    # both routes are accurate to rounding times their condition.  A G with
    # a zero column and a combination of its columns extends the plane as
    # its independent columns do
    k = min(k, n)
    if kind == "mixed" and k < 2:
        kind = "generic"
    rng = np.random.default_rng(seed)
    q = random_lagrangian(rng, n)
    plane = q @ _well_conditioned(rng, n, n)
    g = _isotropic(rng, q, k, "generic" if kind == "dependent" else kind)
    ref = svd_extension(plane, g)
    if kind == "dependent":
        g = np.column_stack([g, np.zeros(2 * n), g @ rng.normal(size=k)])[:, rng.permutation(k + 2)]
    out = extend_by_isotropic(plane, g)
    assert out.shape == ref.shape == (2 * n, n)
    # canonical frames are accurate to rounding times their size
    size = max(1.0, np.abs(ref).max())
    assert plane_distance(out, ref) < 1e-13 * size
    assert isotropy_residual(out) < 1e-13 * size
    if kind == "inside":
        assert plane_distance(out, plane) < 1e-13 * size


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**31 - 1))
def test_extend_by_isotropic_contains_direction(n, seed):
    rng = np.random.default_rng(seed)
    plane = random_lagrangian(rng, n)
    x = rng.normal(size=2 * n)
    out = extend_by_isotropic(plane, x)
    assert out.shape == (2 * n, n)
    assert isotropy_residual(out) < 1e-10
    # x itself lies in the result
    resid = x - out @ np.linalg.lstsq(out, x, rcond=None)[0]
    assert np.linalg.norm(resid) < 1e-8 * max(1.0, np.linalg.norm(x))
    # the sigma-orthogonal part of the plane survives
    assert symplectic_form(x, out @ np.ones(n)) == pytest.approx(0.0, abs=1e-8)


def test_grassmann_curve_validation():
    v = vertical_plane(1)
    with pytest.raises(PreconditionError):
        GrassmannCurve(times=np.array([0.0, 0.0]), planes=[v, v])
    with pytest.raises(PreconditionError):
        GrassmannCurve(times=np.array([0.0, 1.0]), planes=[v])
    c = GrassmannCurve(times=np.array([0.0, 1.0]), planes=[v, horizontal_plane(1)])
    assert len(c.planes) == 2
    # a list of frames is stacked on entry, into the stack a producer hands over
    assert isinstance(c.planes, np.ndarray)
    assert np.array_equal(c.planes, np.stack([v, horizontal_plane(1)]))
    # frames of different shapes are refused by the curve, not by numpy
    with pytest.raises(PreconditionError, match="one shape"):
        GrassmannCurve(times=np.array([0.0, 1.0]), planes=[v, v.ravel()])
    # a list of vectors, or a stack of stacks, is not one frame per node
    for planes in ([v.ravel(), v.ravel()], np.stack([[v], [v]])):
        with pytest.raises(PreconditionError, match="one per node"):
            GrassmannCurve(times=np.array([0.0, 1.0]), planes=planes)
    # the empty curve stays empty, and its Maslov index is 0
    empty = GrassmannCurve(times=np.array([]), planes=[])
    assert empty.planes.size == 0 and maslov_index(empty, v) == 0


def test_plane_distance_properties():
    rng = np.random.default_rng(9)
    a = random_lagrangian(rng, 2)
    b = random_lagrangian(rng, 2)
    assert plane_distance(a, b) == pytest.approx(plane_distance(b, a))
    assert plane_distance(a, a) < 1e-14
    assert 0.0 <= plane_distance(a, b) <= 1.0 + 1e-12


@pytest.mark.parametrize("a, b", [
    (np.eye(4)[:, [1, 0]] * [0.0, 1.0], np.eye(4)[:, :1]),  # a zero column ahead of e_1
    (np.eye(4)[:, [0, 0, 1]], np.eye(4)[:, :2]),             # a repeated column
    (1e-10 * np.eye(4)[:, :1], np.eye(4)[:, :1]),            # a frame far below 1
], ids=["zero-column", "repeated-column", "small-frame"])
def test_distance_and_margin_see_every_direction_of_a_frame(a, b):
    # the span, not the frame, decides: a rank rule with the order of the
    # columns or an absolute floor in it loses these directions
    assert plane_distance(a, b) == 0.0
    assert transversality_margin(a, b) == 0.0



def test_grassmann_curve_planes_share_one_shape():
    with pytest.raises(PreconditionError, match="one shape"):
        GrassmannCurve(times=np.array([0.0, 1.0]), planes=[vertical_plane(1), vertical_plane(2)])


# -- stacks of frames: every helper a sampled curve calls per node takes a
# (K, 2n, k) stack and must give each frame, bit for bit, what the frame gets
# alone.  Entries include signed zeros and repeated values, so that pivot ties
# and the zero test of the elimination are exercised.

_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 3.0]) | st.floats(-4.0, 4.0)


@st.composite
def _stacks(draw, lagrangian_width=False):
    """A (K, 2n, k) stack mixing plain, zero, signed-zero and rank-deficient frames."""
    n = draw(st.integers(1, 3))
    k = n if lagrangian_width else draw(st.integers(1, 2 * n))
    count = draw(st.integers(1, 6))
    size = count * 2 * n * k
    f = np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size))).reshape(count, 2 * n, k)
    for frame in f:
        kind = draw(st.sampled_from(["plain", "plain", "zero", "negative zero", "repeat"]))
        if kind == "zero":
            frame[:] = 0.0
        elif kind == "negative zero":
            frame[:] = -0.0
        elif kind == "repeat":
            frame[:, -1] = 2.0 * frame[:, 0]
    return f


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_canonicalize(f, tol=1e-9):
    """The frame-by-frame Gauss-Jordan that the stacked one replaced."""
    a = np.asarray(f, dtype=float).T.copy()
    k, dim = a.shape
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return np.zeros((dim, 0))
    r = 0
    for c in range(dim):
        if r >= k:
            break
        i = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[i, c]) <= tol * scale:
            a[r:, c][a[r:, c] != 0.0] = 0.0  # negligible in every unreduced row
            continue
        a[[r, i]] = a[[i, r]]
        a[r] = a[r] / a[r, c]
        a[r, c] = 1.0
        for j in range(k):
            if j != r and a[j, c] != 0.0:
                a[j] = a[j] - a[j, c] * a[r]
                a[j, c] = 0.0
        r += 1
    return a[:r].T.copy()


@settings(max_examples=80, deadline=None)
@given(_stacks())
def test_stacked_canonicalize_is_the_frame_by_frame_result(f):
    out = canonicalize(f)
    assert out.shape[:2] == f.shape[:2]
    for frame, got in zip(f, out):
        one = _reference_canonicalize(frame)
        assert _same_bits(canonicalize(frame), one)
        assert _same_bits(got[:, : one.shape[1]], one)
        assert not got[:, one.shape[1]:].any()  # lower ranks are padded with zero columns


@settings(max_examples=80, deadline=None)
@given(_stacks())
@example(f=np.zeros((1, 2, 1)))  # of rank 0: the canonical stack has no columns
# elimination leaves a leading 1 beside an entry of -2**30, below the rank
# tolerance of the canonical frame, which a second pass dropped
@example(f=np.array([[[0.0, 0.0, 0.0, 0.0], [2.0**-24, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, 2.0**-5, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]]]))
# an entry below the rank tolerance ahead of the pivot, left in place and
# scaled by 2**24, became a pivot of its own on a second pass
@example(f=np.array([[[1e-12, 0.0], [2.0**-24, 0.0], [0.0, 0.0], [0.0, 1.0]]]))
def test_canonicalize_is_bytewise_idempotent(f):
    # a canonical frame, or stack, comes back bit for bit, signed zeros
    # included, so a canonical result needs no second canonicalisation
    once = canonicalize(f)
    assert _same_bits(canonicalize(once), once)
    for frame in f:
        one = canonicalize(frame)
        assert _same_bits(canonicalize(one), one)


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_stacked_ranks_residuals_and_distances_are_the_frame_by_frame_results(f):
    other = f[::-1] + 0.25  # pairs frames of different kinds
    assert _same_bits(isotropy_residual(f), np.array([isotropy_residual(x) for x in f]))
    assert _same_bits(intersection_dimension(f, other[0]),
                      np.array([intersection_dimension(x, other[0]) for x in f]))
    assert _same_bits(plane_distance(f, other),
                      np.array([plane_distance(a, b) for a, b in zip(f, other)]))


@settings(max_examples=60, deadline=None)
@given(_stacks(lagrangian_width=True))
@example(f=np.array([[[2.2250738585e-311], [0.0]]]))  # a subnormal frame overflowed the inverse
def test_stacked_chart_matrices_are_the_frame_by_frame_results(f):
    n = f.shape[1] // 2
    m = _chart_basis(horizontal_plane(n), vertical_plane(n))
    s = _chart_matrix(f, m)
    for frame, got in zip(f, s):
        assert _same_bits(got, _chart_matrix(frame, m))
    # a plane that meets the chart plane delta has no chart matrix
    assert np.isnan(_chart_matrix(horizontal_plane(n), m)).all()


def _first_failure(check, frames):
    """(class, message) of the first error of ``check`` over ``frames``, or None."""
    try:
        for f in frames:
            check(f)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.lists(st.sampled_from(["good", "leaky", "deficient"]), min_size=1, max_size=6))
def test_stacked_validation_fails_where_the_frame_by_frame_check_fails(n, seed, kinds):
    rng = np.random.default_rng(seed)
    frames = []
    for kind in kinds:
        f = random_lagrangian(rng, n)
        if kind == "leaky" and n > 1:  # sigma(f_0, f_1) = -|f_0|^2 / 2: full rank, not isotropic
            f[:, 1] += 0.5 * apply_j(f[:, 0])
        elif kind == "deficient":
            f[:, -1] = 0.0
        frames.append(f)
    stack = np.stack(frames)
    expected = _first_failure(validate_lagrangian, frames)
    assert _first_failure(validate_lagrangian, [stack]) == expected
    if expected is None:
        assert validate_lagrangian(stack) is not None
    else:
        assert expected[0] is NondegeneracyError


if __name__ == "__main__":
    pytest.main([__file__])
