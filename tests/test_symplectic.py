import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from jacobiflow.errors import PreconditionError
from jacobiflow.symplectic import (
    apply_j,
    dim_to_n,
    gram,
    isotropy_residual,
    symplectic_form,
    symplectic_inverse,
)


def _j_matrix(n):
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def test_dim_to_n():
    assert dim_to_n(2) == 1
    assert dim_to_n(8) == 4
    with pytest.raises(PreconditionError):
        dim_to_n(3)
    with pytest.raises(PreconditionError):
        dim_to_n(0)


def test_apply_j_matches_matrix():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        v = rng.normal(size=2 * n)
        assert np.allclose(apply_j(v), _j_matrix(n) @ v)
        m = rng.normal(size=(2 * n, 3))
        assert np.allclose(apply_j(m), _j_matrix(n) @ m)


def test_apply_j_squares_to_minus_identity():
    v = np.arange(1.0, 7.0)
    assert np.allclose(apply_j(apply_j(v)), -v)


def test_symplectic_form_values():
    # sigma(e_p1, e_q1) = 1 in (p_1, p_2, q_1, q_2) ordering
    ep1 = np.array([1.0, 0.0, 0.0, 0.0])
    eq1 = np.array([0.0, 0.0, 1.0, 0.0])
    eq2 = np.array([0.0, 0.0, 0.0, 1.0])
    assert symplectic_form(ep1, eq1) == 1.0
    assert symplectic_form(eq1, ep1) == -1.0
    assert symplectic_form(ep1, eq2) == 0.0


def test_symplectic_form_rejects_mismatched_shapes():
    with pytest.raises(PreconditionError):
        symplectic_form(np.ones(4), np.ones(6))
    with pytest.raises(PreconditionError):
        symplectic_form(np.ones(3), np.ones(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_symplectic_form_antisymmetric_bilinear(n, seed):
    rng = np.random.default_rng(seed)
    u, v, w = rng.normal(size=(3, 2 * n))
    a, b = rng.normal(size=2)
    assert symplectic_form(u, v) == pytest.approx(-symplectic_form(v, u))
    assert symplectic_form(u, u) == pytest.approx(0.0)
    lhs = symplectic_form(u, a * v + b * w)
    rhs = a * symplectic_form(u, v) + b * symplectic_form(u, w)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_gram_entries():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(6, 2))
    g = rng.normal(size=(6, 3))
    a = gram(f, g)
    assert a.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert a[i, j] == pytest.approx(symplectic_form(f[:, i], g[:, j]))


def test_isotropy_residual():
    vert = np.vstack([np.eye(2), np.zeros((2, 2))])
    assert isotropy_residual(vert) == 0.0
    bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert isotropy_residual(bad) == pytest.approx(1.0)
    # scale invariance: residual is relative to column norms
    assert isotropy_residual(1e6 * bad) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.sampled_from([(), (4,), (2, 3)]), st.integers(0, 2**31 - 1))
def test_symplectic_inverse_of_a_stack_inverts_each_matrix(n, lead, seed):
    rng = np.random.default_rng(seed)
    j = _j_matrix(n)
    mats = []
    for _ in range(int(np.prod(lead))):
        h = rng.normal(size=(2 * n, 2 * n))
        mats.append(expm(j @ (h + h.T) * 0.5))  # exp of a Hamiltonian matrix
    stack = np.array(mats).reshape(lead + (2 * n, 2 * n))
    got = symplectic_inverse(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(*lead):
        m = stack[idx]
        assert np.array_equal(got[idx], symplectic_inverse(m))
        assert np.allclose(got[idx], np.linalg.inv(m), rtol=0.0,
                           atol=1e-10 * np.linalg.cond(m))
    with pytest.raises(PreconditionError):
        symplectic_inverse(np.eye(3))


if __name__ == "__main__":
    pytest.main([__file__])
