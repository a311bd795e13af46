import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiflow.errors import DegenerateError, PreconditionError
from jacobiflow.series import (
    TruncatedSeries,
    mconv,
    meval,
    sconv,
    sder,
    sint,
    srecip,
    strim,
    taylor_recenter,
)

polyval = np.polynomial.polynomial.polyval


def test_constructors():
    s = TruncatedSeries.constant(3.0, 5)
    assert s.nterms == 5
    assert s(0.7) == 3.0
    t = TruncatedSeries.variable(4)
    assert t(0.25) == 0.25
    with pytest.raises(PreconditionError):
        TruncatedSeries([])


def test_ring_operations_align_to_shorter_window():
    a = TruncatedSeries([1.0, 2.0, 3.0, 4.0])
    b = TruncatedSeries([1.0, -1.0])
    assert (a + b).nterms == 2
    assert np.allclose((a + b).coeffs, [2.0, 1.0])
    assert np.allclose((a - b).coeffs, [0.0, 3.0])
    prod = a * b
    assert prod.nterms == 2
    assert np.allclose(prod.coeffs, [1.0, 1.0])
    assert np.allclose((2.0 * a).coeffs, 2.0 * a.coeffs)


def test_reciprocal_and_division():
    a = TruncatedSeries([2.0, 1.0, -0.5, 0.25])
    r = a.reciprocal()
    assert np.allclose((a * r).coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    with pytest.raises(DegenerateError):
        TruncatedSeries([0.0, 1.0]).reciprocal()
    q = a / a
    assert np.allclose(q.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_calculus():
    a = TruncatedSeries([1.0, 2.0, 3.0])
    assert np.allclose(a.derivative().coeffs, [2.0, 6.0])
    assert np.allclose(a.antiderivative(5.0).coeffs, [5.0, 1.0, 1.0, 1.0])
    e = TruncatedSeries([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).exp()
    assert np.allclose(e.coeffs, [1.0, 1.0, 0.5, 1 / 6, 1 / 24, 1 / 120])


def test_shifts():
    a = TruncatedSeries([0.0, 0.0, 1.0, 2.0])
    down = a.shift_down(2)
    assert np.allclose(down.coeffs, [1.0, 2.0])
    up = down.shift_up(2)
    assert np.allclose(up.coeffs, a.coeffs)
    with pytest.raises(DegenerateError):
        TruncatedSeries([1.0, 0.0, 1.0]).shift_down(1)
    with pytest.raises(PreconditionError):
        TruncatedSeries([0.0, 0.0]).shift_down(2)


def test_tail_estimate():
    # geometric series 1/(1 - t): tail at 0.5 is finite, beyond radius inf
    geo = TruncatedSeries(np.ones(20))
    tail = geo.tail_estimate(0.5)
    exact = sum(0.5**k for k in range(20, 2000))
    assert tail >= exact
    assert tail < 1e-4
    assert geo.tail_estimate(1.5) == np.inf
    assert TruncatedSeries([0.0, 0.0]).tail_estimate(2.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_srecip_is_inverse(nterms, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=nterms)
    a[0] = a[0] + np.sign(a[0] or 1.0) * 1.0  # keep the constant term away from 0
    r = srecip(a)
    back = sconv(a, r)
    assert back[0] == pytest.approx(1.0)
    assert np.max(np.abs(back[1:])) < 1e-9 * max(1.0, np.max(np.abs(r)))


def test_sconv_matches_polynomial_product():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 0.0, 1.0])
    # truncation window defaults to the shorter operand
    assert np.allclose(sconv(a, b), [3.0, 6.0])
    assert np.allclose(sconv(a, b, nterms=4), [3.0, 6.0, 1.0, 2.0])


def test_sder_sint_roundtrip():
    a = np.array([0.5, -1.0, 2.0, 4.0])
    assert np.allclose(sder(sint(a)), a)
    stack = np.arange(12.0).reshape(3, 2, 2)
    assert np.allclose(sder(sint(stack)), stack)


def test_mconv_matches_pointwise_product():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 2, 2))
    b = rng.normal(size=(4, 2, 3))
    c = mconv(a, b, nterms=3)
    for tau in (0.0, 0.3, -0.7):
        direct = meval(a, tau) @ meval(b, tau)
        # truncated product agrees up to the dropped O(tau^3) terms
        err = np.max(np.abs(meval(c, tau) - direct))
        assert err < 10.0 * abs(tau) ** 3 * np.max(np.abs(a)) * np.max(np.abs(b)) + 1e-14


def test_meval_derivative():
    a = np.zeros((4, 1, 1))
    a[:, 0, 0] = [1.0, 0.0, 3.0, -2.0]  # 1 + 3 t^2 - 2 t^3
    assert meval(a, 0.5)[0, 0] == pytest.approx(1.0 + 0.75 - 0.25)
    assert meval(a, 0.5, deriv=1)[0, 0] == pytest.approx(3.0 - 1.5)
    assert sder(a).shape == (3, 1, 1)


def test_strim_drops_trailing_zero_slices_only():
    a = np.zeros((6, 2))
    a[1, 0] = 2.0
    a[3, 1] = -1.0
    assert strim(a).shape == (4, 2)
    assert strim(np.zeros((5, 2, 2))).shape == (1, 2, 2)
    assert strim(np.array([1.0, 0.0, 3.0])).shape == (3,)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10), st.floats(-2.0, 2.0),
       st.integers(0, 2**31 - 1))
def test_meval_of_trimmed_stack_equals_polyval(nonzero, zeros, tau, seed):
    c = np.concatenate([np.random.default_rng(seed).normal(size=(nonzero, 3)),
                        np.zeros((zeros, 3))])
    assert np.array_equal(meval(strim(c), tau), polyval(tau, c))
    assert meval(strim(c[:, 0]), tau) == polyval(tau, c[:, 0])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0),
       st.integers(0, 2**31 - 1))
def test_taylor_recenter_evaluation(deg, t0, s, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=deg + 1)
    shifted = taylor_recenter(c, t0)
    assert polyval(s, shifted) == pytest.approx(polyval(t0 + s, c), rel=1e-9, abs=1e-9)


if __name__ == "__main__":
    pytest.main([__file__])
