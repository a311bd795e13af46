from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiflow.engine import PiecewiseAnalytic
from jacobiflow.errors import (
    NondegeneracyError,
    PoleError,
    PreconditionError,
    SingularityError,
)
from jacobiflow.singular.frame import (
    NormalFormCoefficients,
    build_normal_frame,
    f2_negativity_adjust,
)


def _data(b, xrows, breakpoints=(0.0, 1.0)):
    return PiecewiseAnalytic(
        breakpoints=np.array(breakpoints),
        b_pieces=[np.array(b, dtype=float)],
        x_pieces=[np.array(xrows, dtype=float)],
    )


def _data_m1():
    # X = (1, 0, t, 0), b = -t
    return _data([0.0, -1.0], [[1, 0], [0, 0], [0, 1], [0, 0]])


def _data_m2():
    # X = (1, 0, t, t^2/2), b = -t^2: second derivative enters the span
    return _data([0.0, 0.0, -1.0], [[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 0.5]])


def _j(n):
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -np.eye(n)
    return out


# ---------------------------------------------------------------------------
# coefficient container
# ---------------------------------------------------------------------------


def test_coefficients_basic_properties():
    c = NormalFormCoefficients(k=1, m=2, b=[0.0, 0.0, -2.0], b11=[0.3], c11=[-0.7])
    assert c.b_m == -2.0
    assert c.b_value(0.5) == pytest.approx(-0.5)
    assert c.bhat(1.0)[0, 0] == pytest.approx(1.0 / -2.0 + 0.3)
    assert c.chat(0.0)[0, 0] == -0.7
    sysm = c.system(0.5)
    assert sysm.shape == (2, 2)
    assert sysm[0, 0] == 0.0 and sysm[1, 1] == 0.0
    assert sysm[0, 1] == pytest.approx(1.0 / -0.5 + 0.3)
    assert sysm[1, 0] == -0.7
    assert c.as_callable()(0.5) == pytest.approx(sysm)


def test_coefficients_two_block_symmetry():
    c = NormalFormCoefficients(
        k=2, m=2, b=[0.0, 0.0, -1.0], b11=[0.0], c11=[-1.0],
        b12=[0.4], b22=[-1.0, 0.2], c22=[0.1],
    )
    bh = c.bhat(0.5)
    assert bh[0, 1] == bh[1, 0] == 0.4
    assert bh[1, 1] == pytest.approx(-0.9)
    ch = c.chat(0.5)
    assert ch[0, 1] == ch[1, 0] == 0.0
    assert ch[1, 1] == pytest.approx(0.1)


def test_coefficients_pole_and_validation():
    c = NormalFormCoefficients(k=1, m=1, b=[0.0, -1.0], b11=[0.0], c11=[2.0])
    with pytest.raises(PoleError):
        c.bhat(0.0)
    with pytest.raises(PreconditionError):
        NormalFormCoefficients(k=3, m=1, b=[0.0, -1.0], b11=[0.0], c11=[0.0])
    with pytest.raises(PreconditionError):
        NormalFormCoefficients(k=1, m=-1, b=[-1.0], b11=[0.0], c11=[0.0])
    with pytest.raises(PreconditionError):
        NormalFormCoefficients(k=1, m=1, b=[0.0], b11=[0.0], c11=[0.0])
    with pytest.raises(PreconditionError):
        # stated order 0 but the series starts at order 1
        NormalFormCoefficients(k=1, m=0, b=[0.0, 1.0], b11=[0.0], c11=[0.0])


def _polyval_system(c, tau):
    """Reference: the entrywise ``polyval`` assembly of ``[[0, B], [C, 0]]``."""
    pv = np.polynomial.polynomial.polyval
    bval = pv(tau, c.b)
    if bval == 0.0:
        raise PoleError(f"weight vanishes at t={tau!r}")
    k = c.k
    out = np.zeros((2 * k, 2 * k))
    if k == 1:
        out[:k, k:] = [[1.0 / bval + pv(tau, c.b11)]]
        out[k:, :k] = [[pv(tau, c.c11)]]
    else:
        out[:k, k:] = [
            [1.0 / bval + pv(tau, c.b11), pv(tau, c.b12)],
            [pv(tau, c.b12), pv(tau, c.b22)],
        ]
        out[k:, :k] = np.diag([pv(tau, c.c11), pv(tau, c.c22)])
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(0, 3), st.floats(1e-6, 1.0),
       st.integers(0, 2**31 - 1))
def test_compiled_system_matches_polyval_assembly(k, m, tau, seed):
    rng = np.random.default_rng(seed)

    def stack(head=()):
        # random coefficients, then a random run of trailing zeros (possibly all)
        c = np.concatenate([head, rng.normal(size=int(rng.integers(1, 8)))])
        c[int(rng.integers(len(head), c.size + 1)):] = 0.0
        return np.concatenate([c, np.zeros(int(rng.integers(0, 30)))])

    b = stack(np.concatenate([np.zeros(m), [-0.5 - rng.random()]]))
    names = ("b11", "c11") if k == 1 else ("b11", "c11", "b12", "b22", "c22")
    c = NormalFormCoefficients(k=k, m=m, b=b, **{name: stack() for name in names})
    ref = _polyval_system(c, tau)
    assert np.array_equal(c.system(tau), ref)
    assert np.array_equal(c.as_callable()(tau), ref)
    assert np.array_equal(c.bhat(tau), ref[:k, k:])
    assert np.array_equal(c.chat(tau), ref[k:, :k])
    assert c.b_value(tau) == np.polynomial.polynomial.polyval(tau, b)


def test_compiled_system_raises_where_the_weight_vanishes():
    # b = -t + t^2 vanishes exactly at 0 and at 1
    c = NormalFormCoefficients(
        k=2, m=1, b=[0.0, -1.0, 1.0, 0.0], b11=[0.0], c11=[1.0], b22=[-1.0, 0.0]
    )
    for tau in (0.0, 1.0):
        with pytest.raises(PoleError):
            c.system(tau)
        with pytest.raises(PoleError):
            c.bhat(tau)
    assert np.isfinite(c.system(0.5)).all()


def test_coefficients_are_read_only():
    b11 = np.array([0.3])
    c = NormalFormCoefficients(k=1, m=2, b=[0.0, 0.0, -2.0], b11=b11, c11=[-0.7])
    with pytest.raises(FrozenInstanceError):
        c.b11 = np.array([1.0])
    with pytest.raises(ValueError):
        c.b11[0] = 1.0
    b11[0] = 5.0  # the caller's array is copied, not shared
    assert c.system(0.5)[0, 1] == 1.0 / -0.5 + 0.3


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------


def test_build_frame_order_one():
    f = build_normal_frame(_data_m1())
    assert f.case == "span2"
    assert (f.k, f.n, f.m, f.beta) == (1, 2, 1, -1)
    assert f.b_m == -1.0
    assert f.sigma_xxdot == pytest.approx(1.0)
    assert f.symplectic_residual < 1e-12
    assert f.cross_residual < 1e-12
    assert f.adjust is None
    assert f.block_columns() == [0, 2]
    assert np.allclose(f.coeffs.c11[0], -1.0)
    j = _j(f.n)
    for tau in (0.0, 0.1, 0.3):
        mat = f.frame_at(tau)
        assert np.max(np.abs(mat.T @ j @ mat - j)) < 1e-10
    # the first frame column carries X itself
    assert np.allclose(f.frame_at(0.2)[:, 0], [1.0, 0.0, 0.2, 0.0])


def test_build_frame_order_two_span_three():
    f = build_normal_frame(_data_m2())
    assert f.case == "span3"
    assert (f.k, f.n, f.m, f.beta) == (2, 2, 2, 0)
    assert f.b_m == -1.0
    assert f.sigma_xxdot == pytest.approx(1.0)
    assert f.symplectic_residual < 1e-12
    # shear was needed: the raw B(2,2) entry starts at zero
    raw = build_normal_frame(_data_m2(), adjust=False)
    assert abs(raw.coeffs.b22[0]) < 1e-12
    assert raw.adjust is None
    assert f.adjust is not None
    assert f.coeffs.b22[0] < 0.0
    j = _j(f.n)
    mat = f.frame_at(0.2)
    assert np.max(np.abs(mat.T @ j @ mat - j)) < 1e-12
    assert f.block_columns() == [0, 1, 2, 3]


def test_adjust_is_idempotent_when_already_negative():
    f = build_normal_frame(_data_m2())
    again = f2_negativity_adjust(f)
    assert again is f
    f1 = build_normal_frame(_data_m1())
    assert f2_negativity_adjust(f1) is f1


def test_build_frame_away_from_zero():
    # b = 0.5 - t vanishes at 0.5; the frame is recentred there
    d = _data([0.5, -1.0], [[1, 0], [0, 0], [0, 1], [0, 0]])
    f = build_normal_frame(d, tau_star=0.5)
    assert f.m == 1
    assert f.b_m == -1.0
    assert f.sigma_xxdot == pytest.approx(1.0)


def test_build_frame_rejections():
    with pytest.raises(SingularityError):
        build_normal_frame(_data([0.0, 1.0], [[1, 0], [0, 0], [0, 1], [0, 0]]))
    with pytest.raises(SingularityError):
        # regular instants need a negative weight too
        build_normal_frame(_data([1.0], [[1], [0], [0], [0]]))
    with pytest.raises(NondegeneracyError):
        # sigma(X, Xdot) = 0: X = (1, 0, 0, t)
        build_normal_frame(_data([0.0, -1.0], [[1, 0], [0, 0], [0, 0], [0, 1]]))
    with pytest.raises(PreconditionError):
        # weight identically zero
        build_normal_frame(_data([0.0], [[1], [0], [0], [0]]))


if __name__ == "__main__":
    pytest.main([__file__])
