import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacobiflow.errors import DegenerateError
from jacobiflow.series import (
    mconv,
    meval,
    minv,
    sconv,
    sder,
    sexp,
    sint,
    srecip,
    strim,
)

polyval = np.polynomial.polynomial.polyval


def test_ring_operations_align_to_shorter_window():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([1.0, -1.0])
    prod = sconv(a, b)
    assert prod.shape == (2,)
    assert np.allclose(prod, [1.0, 1.0])
    assert np.allclose(sconv(b, a), prod)
    assert np.allclose(sconv(a, [2.0]), [2.0])


def test_reciprocal_and_division():
    a = np.array([2.0, 1.0, -0.5, 0.25])
    r = srecip(a)
    assert np.allclose(sconv(a, r), [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    with pytest.raises(DegenerateError):
        srecip([0.0, 1.0])
    assert np.allclose(srecip(a, 6)[:4], r)
    assert srecip(a, 6).shape == (6,)


def test_calculus():
    a = np.array([1.0, 2.0, 3.0])
    assert np.allclose(sder(a), [2.0, 6.0])
    assert np.allclose(sint(a), [0.0, 1.0, 1.0, 1.0])
    e = sexp([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(e, [1.0, 1.0, 0.5, 1 / 6, 1 / 24, 1 / 120])
    # exp(a) exp(-a) = 1 and (exp a)' = a' exp(a), order by order
    rng = np.random.default_rng(5)
    x = rng.normal(size=8)
    assert np.allclose(sconv(sexp(x), sexp(-x)), np.eye(1, 8)[0], atol=1e-12)
    assert np.allclose(sder(sexp(x)), sconv(sder(x), sexp(x)), atol=1e-12)


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


def _reference_srecip(a, nterms=None):
    """The recursion on numpy scalars that srecip replaced."""
    a = np.asarray(a, dtype=float)
    n = a.size if nterms is None else nterms
    out = np.zeros(n)
    out[0] = 1.0 / a[0]
    for k in range(1, n):
        acc = 0.0
        for j in range(1, min(k, a.size - 1) + 1):
            acc += a[j] * out[k - j]
        out[k] = -acc / a[0]
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300]) | st.floats(-1e3, 1e3),
                min_size=1, max_size=45),
       st.none() | st.integers(1, 45))
def test_srecip_is_bit_for_bit_the_numpy_scalar_recursion(a, nterms):
    assume(a[0] != 0.0)
    with np.errstate(all="ignore"):
        ref = _reference_srecip(a, nterms)
    assume(np.all(np.isfinite(ref)))
    assert srecip(a, nterms).tobytes() == ref.tobytes()


def _reference_minv(a, nterms=None):
    """The recursion minv runs, over every order of ``a``, zeros included."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0] if nterms is None else nterms
    out = np.zeros((n,) + a.shape[1:])
    inv0 = np.linalg.inv(a[0])
    out[0] = inv0
    for k in range(1, n):
        hi = min(k, a.shape[0] - 1)
        out[k] = -inv0 @ np.einsum("jrs,jsc->rc", a[1 : hi + 1], out[k - hi : k][::-1])
    return out


@st.composite
def _sparse_orders(draw, shape):
    """A series of ``shape`` slices with some orders zero, inside and at the end."""
    count = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=(count,) + (1,) * len(shape))
    a = rng.normal(size=(count,) + shape) * scale
    a[1:][rng.random(count - 1) < draw(st.floats(0.2, 0.8))] = 0.0
    a[count - draw(st.integers(0, count - 1)) :] = 0.0
    a[0] = (a[0] if shape else abs(a[0])) + 3.0 * (np.eye(*shape[:1]) if shape else 1.0)
    return a, draw(st.none() | st.integers(1, 30))


@settings(max_examples=80, deadline=None)
@given(_sparse_orders(()))
def test_srecip_of_a_sparse_series_skips_its_zeros_bit_for_bit(sparse):
    # srecip loops over the nonzero coefficients only, and its values stay
    # those of the loop over every coefficient
    a, nterms = sparse
    with np.errstate(all="ignore"):
        ref = _reference_srecip(a, nterms)
    assume(np.all(np.isfinite(ref)))
    assert srecip(a, nterms).tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: _sparse_orders((r, r))))
def test_minv_of_a_sparse_series_drops_its_trailing_zeros_bit_for_bit(sparse):
    # minv runs its recursion on the series without its trailing zero
    # orders, and its values stay those of the recursion over every order
    a, nterms = sparse
    with np.errstate(all="ignore"):
        ref = _reference_minv(a, nterms)
    assume(np.all(np.isfinite(ref)))
    assert minv(a, nterms).tobytes() == ref.tobytes()


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
    a[1] = 0.0  # an all-zero order is skipped
    b = rng.normal(size=(4, 2, 3))
    c = mconv(a, b, nterms=3)
    for tau in (0.0, 0.3, -0.7):
        direct = meval(a, tau) @ meval(b, tau)
        # truncated product agrees up to the dropped O(tau^3) terms
        err = np.max(np.abs(meval(c, tau) - direct))
        assert err < 10.0 * abs(tau) ** 3 * np.max(np.abs(a)) * np.max(np.abs(b)) + 1e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_minv_is_the_inverse_stack(r, nterms, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(nterms, r, r))
    a[0] += 3.0 * np.eye(r)  # keep the constant term well conditioned
    inv = minv(a)
    assert inv.shape == a.shape
    ident = np.zeros_like(a)
    ident[0] = np.eye(r)
    scale = max(1.0, float(np.max(np.abs(inv))))
    assert np.max(np.abs(mconv(a, inv) - ident)) < 1e-12 * scale
    assert np.max(np.abs(mconv(inv, a) - ident)) < 1e-12 * scale
    assert np.array_equal(minv(a, nterms + 3)[:nterms], inv)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_minv_refuses_a_singular_constant_term(r, nterms, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(nterms, r, r))
    u = rng.normal(size=r)
    a[0] = np.outer(u, rng.normal(size=r)) if r > 1 else 0.0  # rank <= 1 < r, or zero
    if r > 1:
        a[0] -= np.outer(a[0] @ u, u) / (u @ u)  # u is now in the kernel of a[0]
    with pytest.raises(DegenerateError):
        minv(a)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([(), (3,), (2, 3)]),
       st.sampled_from([None, 1, 5, 10]), st.integers(0, 2**31 - 1))
def test_sconv_broadcasts_over_the_trailing_shape(la, lb, shape, nterms, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=la)
    a[rng.random(la) < 0.3] = 0.0  # zero orders are skipped
    b = rng.normal(size=(lb,) + shape)
    got = sconv(a, b, nterms)
    flat = b.reshape(lb, -1)
    ref = np.stack([sconv(a, flat[:, i], nterms) for i in range(flat.shape[1])], axis=1)
    assert np.array_equal(got, ref.reshape((ref.shape[0],) + shape))


def test_meval_derivative():
    a = np.zeros((4, 1, 1))
    a[:, 0, 0] = [1.0, 0.0, 3.0, -2.0]  # 1 + 3 t^2 - 2 t^3
    assert meval(a, 0.5)[0, 0] == pytest.approx(1.0 + 0.75 - 0.25)
    assert meval(sder(a), 0.5)[0, 0] == pytest.approx(3.0 - 1.5)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.sampled_from([(), (3,), (2, 2)]), st.integers(0, 3),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9), st.integers(0, 2**31 - 1))
def test_meval_at_an_array_equals_the_scalar_calls(orders, shape, deriv, taus, seed):
    c = np.random.default_rng(seed).normal(size=(orders,) + shape)
    for _ in range(deriv):
        c = sder(c)
    got = meval(c, np.array(taus))
    assert got.shape == (len(taus),) + shape
    for tau, value in zip(taus, got):
        assert np.array_equal(value, meval(c, tau))


if __name__ == "__main__":
    pytest.main([__file__])
