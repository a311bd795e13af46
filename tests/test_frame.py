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
from jacobiflow.series import meval
from jacobiflow.singular import frame as frame_module
from jacobiflow.singular.frame import NormalFormCoefficients, build_normal_frame


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


def _data_m2_negative():
    # X = (2, 0, t, t^2/2 - 1), b = -t^2: the raw B(2,2)(0) is already -1/2
    return _data([0.0, 0.0, -1.0], [[2, 0, 0], [0, 0, 0], [0, 1, 0], [-1, 0, 0.5]])


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
    assert c.system(1.0)[0, 1] == pytest.approx(1.0 / -2.0 + 0.3)
    assert c.c11[0] == -0.7
    sysm = c.system(0.5)
    assert sysm.shape == (2, 2)
    assert sysm[0, 0] == 0.0 and sysm[1, 1] == 0.0
    assert sysm[0, 1] == pytest.approx(1.0 / -0.5 + 0.3)
    assert sysm[1, 0] == -0.7


def test_coefficients_two_block_symmetry():
    c = NormalFormCoefficients(
        k=2, m=2, b=[0.0, 0.0, -1.0], b11=[0.0], c11=[-1.0],
        b12=[0.4], b22=[-1.0, 0.2], c22=[0.1],
    )
    bh = c.system(0.5)[:2, 2:]
    assert bh[0, 1] == bh[1, 0] == 0.4
    assert bh[1, 1] == pytest.approx(-0.9)
    ch = c.system(0.5)[2:, :2]
    assert ch[0, 1] == ch[1, 0] == 0.0
    assert ch[1, 1] == pytest.approx(0.1)


def test_coefficients_pole_and_validation():
    c = NormalFormCoefficients(k=1, m=1, b=[0.0, -1.0], b11=[0.0], c11=[2.0])
    with pytest.raises(PoleError):
        c.system(0.0)
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
        raise PoleError(f"weight vanishes at t={tau!r}", tau)
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


def test_compiled_system_raises_where_the_weight_vanishes():
    # b = -t + t^2 vanishes exactly at 0 and at 1
    c = NormalFormCoefficients(
        k=2, m=1, b=[0.0, -1.0, 1.0, 0.0], b11=[0.0], c11=[1.0], b22=[-1.0, 0.0]
    )
    for tau in (0.0, 1.0):
        with pytest.raises(PoleError):
            c.system(tau)
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
    assert (f.coeffs.k, f.coeffs.m, f.frame.shape[1]) == (1, 1, 4)
    assert f.coeffs.b_m == -1.0
    assert f.sigma_xxdot == pytest.approx(1.0)
    assert f.residuals[-1] < 1e-12
    assert np.allclose(f.coeffs.c11[0], -1.0)
    j = _j(2)
    for tau in (0.0, 0.1, 0.3):
        mat = meval(f.frame, tau)
        assert np.max(np.abs(mat.T @ j @ mat - j)) < 1e-10
    # the first frame column carries X itself
    assert np.allclose(meval(f.frame, 0.2)[:, 0], [1.0, 0.0, 0.2, 0.0])


def test_build_frame_order_two_span_three():
    f = build_normal_frame(_data_m2())
    assert (f.coeffs.k, f.coeffs.m, f.frame.shape[1]) == (2, 2, 4)
    assert f.coeffs.b_m == -1.0
    assert f.sigma_xxdot == pytest.approx(1.0)
    assert f.residuals[-1] < 1e-12
    # shear was needed: the raw B(2,2)(0) = -sigma(f2'(0), f2(0)) is zero,
    # and sigma(e2, f2)(0) = 1, so kappa = 1 takes the entry to -1 exactly
    assert f.coeffs.b22[0] == -1.0
    j = _j(2)
    mat = meval(f.frame, 0.2)
    assert np.max(np.abs(mat.T @ j @ mat - j)) < 1e-12


def test_no_shear_when_raw_entry_is_already_negative():
    f = build_normal_frame(_data_m2_negative())
    assert f.coeffs.k == 2
    # the raw entry -1/2 is kept: a shear would have landed it on -1
    assert f.coeffs.b22[0] < -1e-10
    assert f.coeffs.b22[0] == pytest.approx(-0.5, abs=1e-14)
    assert f.residuals[-1] < 1e-12


@pytest.mark.parametrize("data", [_data_m1, _data_m2, _data_m2_negative])
def test_each_build_assembles_the_frame_once(data, monkeypatch):
    calls = []
    assemble = frame_module._assemble

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(frame_module, "_assemble", counted)
    build_normal_frame(data())
    assert len(calls) == 1


def test_random_span_three_frames_end_with_negative_b22():
    # seeded random cubic X with b = -t^2: either the raw entry is already
    # negative and nothing is sheared, or the closed-form shear lands it on
    # -1, to rounding (12 of these 46 land on it exactly)
    sheared = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = build_normal_frame(_data([0.0, 0.0, -1.0], rng.normal(size=(4, 4))))
        assert f.coeffs.k == 2
        if abs(f.coeffs.b22[0] + 1.0) <= 1e-12:
            sheared += 1
        else:
            assert f.coeffs.b22[0] < -1e-10
        assert f.residuals[-1] < 1e-8
    assert 0 < sheared < 100


def test_the_frame_reads_the_data_coefficients_unrounded():
    # the pieces are polynomials in t, so the series at the marked instant 0
    # are the coefficients of the piece right of 0 as they are; the piece
    # left of 0 is never read
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 3
        b = np.concatenate([np.zeros(m), [-rng.uniform(0.5, 2.0)], rng.normal(size=3)])
        x = rng.normal(size=(4, 4))
        data = PiecewiseAnalytic(breakpoints=np.array([-1.0, 0.0, 1.0]),
                                 b_pieces=[rng.normal(size=3), b],
                                 x_pieces=[rng.normal(size=(4, 2)), x])
        f = build_normal_frame(data)
        assert f.coeffs.m == m
        assert np.array_equal(f.coeffs.b[: b.size], b) and not f.coeffs.b[b.size:].any()
        assert np.array_equal(f.frame[: x.shape[1], :, 0], x.T)
        assert not f.frame[x.shape[1]:, :, 0].any()


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
