"""Closed-form fundamental solutions of the constant-parameter block models.

These are reference oracles for the flows and the epsilon family; no CLI
path uses them.  The model freezes the block data at the singular instant:
the weight is the pure monomial ``b_m t**m`` and the remaining entries are
constants.  The singular pair then decouples and admits explicit solutions:

* order 1: a regular singular point; the fundamental matrix is
  ``P(t) * t**H`` with nilpotent residue ``H`` and a recursively built
  analytic factor ``P``,
* order 2: an Euler-type system solved by powers ``t**((1 +- Delta)/2)`` with
  ``Delta = sqrt(1 + 4 b11 c11)``; the formula is normalized to the identity
  at ``t = 1`` and degenerates when ``Delta`` is near 0 or 1,
* order ``2 + beta``: modified Bessel functions of orders ``1/beta`` and
  ``1/beta + 1`` in the stretched variable ``s = 2 sqrt(b11 c11)/beta *
  t**(-beta/2)``, with Wronskian ``-beta/(2 c11)``.

The regular pair uses the exponential normalized to the identity at zero, so
the backward limits of whole planes take the simple two-column form used by
``model_backward_limit``.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import iv, kv

from helpers import random_lagrangian
from jacobiflow.errors import (
    NoRightLimitError,
    OscillatingError,
    PreconditionError,
    RadiusError,
    ResonanceError,
)
from jacobiflow.grassmann import (
    canonicalize,
    extend_by_isotropic,
    plane_distance,
)
from jacobiflow.singular.frame import NormalFormCoefficients
from jacobiflow.singular.jump import epsilon_family_oracle

RESONANCE_TOL = 1e-6
FROBENIUS_TERMS = 30


@dataclass
class ModelParams:
    """Constant block data of the model; ``b11`` is the analytic part used
    by the order-1 model, the pole entry is always ``1/(b_m t**m)``."""

    m: int
    b_m: float
    c11: float
    b11: float = 0.0
    b22: float = 0.0
    c22: float = 0.0
    k: int = 2

    def __post_init__(self) -> None:
        if self.m < 1:
            raise PreconditionError("model order must be at least 1")
        if self.b_m >= 0.0:
            raise PreconditionError("leading weight coefficient must be negative")
        if self.k not in (1, 2):
            raise PreconditionError("block size must be 1 or 2")

    @property
    def g(self) -> float:
        """Pole coefficient ``1/b_m`` of the singular pair."""
        return 1.0 / self.b_m

    def coefficients(self) -> NormalFormCoefficients:
        b = np.zeros(self.m + 1)
        b[self.m] = self.b_m
        return NormalFormCoefficients(
            k=self.k,
            m=self.m,
            b=b,
            b11=np.array([self.b11]),
            c11=np.array([self.c11]),
            b12=np.zeros(1),
            b22=np.array([self.b22]),
            c22=np.array([self.c22]),
        )


def frobenius_fundamental(
    hminus1: np.ndarray,
    h_stack: np.ndarray,
    tau: float,
    nterms: int = FROBENIUS_TERMS,
    tail_tol: float = 1e-8,
) -> np.ndarray:
    """Fundamental matrix ``P(tau) tau**H`` of ``y' = (H/t + A(t)) y``.

    ``hminus1`` is the nilpotent residue ``H`` and ``h_stack`` the
    coefficient stack of the analytic part ``A``.  The recursion
    ``(k - ad_H) P_k = sum_j A_{k-1-j} P_j`` is always solvable because the
    adjoint of a nilpotent residue has nilpotent spectrum.
    """
    hm = np.asarray(hminus1, dtype=float)
    d = hm.shape[0]
    if np.max(np.abs(hm @ hm)) > 1e-12 * max(1.0, np.max(np.abs(hm)) ** 2):
        raise PreconditionError("residue matrix must be nilpotent of order two")
    stack = np.asarray(h_stack, dtype=float)
    if stack.ndim == 2:
        stack = stack[None, :, :]
    eye = np.eye(d)
    ad = np.kron(hm, eye) - np.kron(eye, hm.T)
    coeffs = [eye]
    for k in range(1, nterms):
        rhs = np.zeros((d, d))
        for j in range(k):
            l = k - 1 - j
            if l < stack.shape[0]:
                rhs += stack[l] @ coeffs[j]
        mat = k * np.eye(d * d) - ad
        coeffs.append(np.linalg.solve(mat, rhs.reshape(-1)).reshape(d, d))

    x = abs(tau)
    norms = [np.max(np.abs(c)) for c in coeffs]
    last = norms[-1] * x ** (nterms - 1)
    prev = norms[-2] * x ** (nterms - 2)
    if prev > 0.0:
        ratio = last / prev
        tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else float("inf")
    else:
        tail = last
    if not tail <= tail_tol:
        raise RadiusError(
            f"analytic factor tail {tail:.2e} at t={tau!r} exceeds {tail_tol:.0e}"
        )
    p_val = np.zeros((d, d))
    for c in reversed(coeffs):
        p_val = p_val * tau + c
    return p_val @ (np.eye(d) + np.log(tau) * hm)


def _phi_order_two(g: float, c11: float, tau: float) -> np.ndarray:
    disc = 1.0 + 4.0 * g * c11
    delta = np.sqrt(complex(disc))
    if abs(delta) < RESONANCE_TOL or abs(delta - 1.0) < RESONANCE_TOL:
        raise ResonanceError(f"model exponents degenerate (Delta={delta})")
    t = complex(tau)
    ta = t ** ((-1.0 - delta) / 2.0)
    tb = t ** ((1.0 - delta) / 2.0)
    td = t**delta
    phi = np.array(
        [
            [ta * (-1.0 + delta + (1.0 + delta) * td) / (2.0 * delta),
             g * ta * (-1.0 + td) / delta],
            [c11 * tb * (-1.0 + td) / delta,
             tb * (1.0 + delta + (-1.0 + delta) * td) / (2.0 * delta)],
        ]
    )
    if np.max(np.abs(phi.imag)) > 1e-9 * max(1.0, np.max(np.abs(phi))):
        raise PreconditionError("order-two model produced a non-real matrix")
    return phi.real


def _phi_bessel(g: float, c11: float, m: int, tau: float) -> np.ndarray:
    beta = m - 2
    prod = g * c11
    if prod <= 0.0:
        raise OscillatingError(
            "Bessel model needs sign-matched block data (non-oscillating side)"
        )
    a = 1.0 / beta
    s = 2.0 * np.sqrt(prod) / beta * tau ** (-beta / 2.0)
    ia, ka = iv(a, s), kv(a, s)
    inu, knu = iv(a + 1.0, s), kv(a + 1.0, s)
    # sign-carrying prefactor; makes the columns solve p' = q/(b_m t**m),
    # q' = c11 p and fixes the Wronskian to -beta/(2 c11)
    root = g / np.sqrt(prod)
    tp = tau ** (-(1.0 + beta) / 2.0)
    tq = np.sqrt(tau)
    return np.array(
        [[-root * tp * inu, root * tp * knu], [tq * ia, tq * ka]]
    )


def model_fundamental(m: int, params: ModelParams, tau: float) -> np.ndarray:
    """Fundamental matrix of the model at ``tau > 0`` (size ``2k``)."""
    if tau <= 0.0:
        raise PreconditionError("model fundamental matrix needs tau > 0")
    if m != params.m:
        raise PreconditionError("order does not match the model parameters")
    k = params.k
    if m == 1:
        hm = np.zeros((2 * k, 2 * k))
        hm[0, k] = params.g
        h0 = np.zeros((2 * k, 2 * k))
        h0[:k, k:] = np.diag([params.b11, params.b22])[:k, :k]
        h0[k:, :k] = np.diag([params.c11, params.c22])[:k, :k]
        return frobenius_fundamental(hm, h0[None, :, :], tau)
    phi1 = _phi_order_two(params.g, params.c11, tau) if m == 2 else _phi_bessel(
        params.g, params.c11, m, tau
    )
    if k == 1:
        return phi1
    omega = np.array([[0.0, params.b22], [params.c22, 0.0]])
    phi2 = expm(tau * omega)
    out = np.zeros((4, 4))
    sing = np.ix_([0, 2], [0, 2])
    reg = np.ix_([1, 3], [1, 3])
    out[sing] = phi1
    out[reg] = phi2
    return out


def _backward_direction(m: int, params: ModelParams) -> np.ndarray:
    """Dominant direction of the singular pair as time drops to zero."""
    if m == 2:
        disc = 1.0 + 4.0 * params.g * params.c11
        if disc < 0.0:
            raise NoRightLimitError("oscillating model has no backward limit")
        delta = float(np.sqrt(disc))
        return np.array([params.g, (delta - 1.0) / 2.0])
    return np.array([0.0, 1.0])


def model_backward_limit(m: int, params: ModelParams, l0: np.ndarray) -> np.ndarray:
    """Limit of ``Phi(eps)^-1 L0`` as ``eps`` drops to zero, canonicalized."""
    k = params.k
    l0 = np.asarray(l0, dtype=float)
    e1 = np.zeros(2 * k)
    e1[0] = 1.0
    extended = canonicalize(extend_by_isotropic(l0, e1))
    if m == 1:
        return extended
    if k == 1:
        w = _backward_direction(m, params)
        return canonicalize(w.reshape(2, 1))
    w2 = _backward_direction(m, params)
    w = np.zeros(4)
    w[0], w[2] = w2[0], w2[1]
    reg_col = None
    for j in range(extended.shape[1]):
        col = extended[:, j]
        if abs(col[0]) < 1e-9 and abs(col[2]) < 1e-9:
            reg_col = col
            break
    if reg_col is None:
        raise PreconditionError("could not split off the regular column of the plane")
    return canonicalize(np.column_stack([w, reg_col]))


def model_continuation(
    m: int, params: ModelParams, l0: np.ndarray, tau: float
) -> np.ndarray:
    """Model flow at ``tau`` of the backward limit of ``L0``; canonical frame."""
    lhat = model_backward_limit(m, params, l0)
    phi = model_fundamental(m, params, tau)
    return canonicalize(phi @ lhat)


# ---------------------------------------------------------------------------
# the oracle itself
# ---------------------------------------------------------------------------


def test_params_validation():
    p = ModelParams(m=2, b_m=-2.0, c11=0.5, k=1)
    assert p.g == -0.5
    c = p.coefficients()
    assert (c.m, c.k, c.b_m) == (2, 1, -2.0)
    assert c.c11[0] == 0.5
    with pytest.raises(PreconditionError):
        ModelParams(m=0, b_m=-1.0, c11=0.0)
    with pytest.raises(PreconditionError):
        ModelParams(m=2, b_m=0.0, c11=0.0)
    with pytest.raises(PreconditionError):
        ModelParams(m=2, b_m=-1.0, c11=0.0, k=3)


# ---------------------------------------------------------------------------
# regular singular point (order one)
# ---------------------------------------------------------------------------


def test_frobenius_pure_logarithm():
    hm = np.array([[0.0, 1.0], [0.0, 0.0]])
    phi = frobenius_fundamental(hm, np.zeros((1, 2, 2)), 0.5)
    assert np.array_equal(phi, np.eye(2) + np.log(0.5) * hm)


def test_frobenius_guards():
    with pytest.raises(PreconditionError):
        frobenius_fundamental(np.eye(2), np.zeros((1, 2, 2)), 0.5)
    hm = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(RadiusError):
        frobenius_fundamental(hm, np.eye(2)[None, :, :], 0.9, nterms=5)


# ---------------------------------------------------------------------------
# fundamental matrices against the adaptive integrator
# ---------------------------------------------------------------------------


def _fundamental(sys, t0, t1):
    """Fundamental matrix Phi(t1), Phi(t0) = I, by one tight DOP853 solve."""
    d = sys(t0).shape[0]
    sol = solve_ivp(lambda t, y: (sys(t) @ y.reshape(d, d)).ravel(), (t0, t1), np.eye(d).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-13)
    return sol.y[:, -1].reshape(d, d)


@pytest.mark.parametrize(
    "m, b_m, c11, det_expected",
    [
        (1, -1.0, 0.7, 1.0),
        (2, -1.0, -2.0, 1.0),
        (3, -2.0, -1.3, 1.0 / 2.6),  # -beta/(2 c11)
    ],
)
def test_model_transport_and_determinant(m, b_m, c11, det_expected):
    p = ModelParams(m=m, b_m=b_m, c11=c11, k=1)
    h = p.coefficients().system
    phi1 = model_fundamental(m, p, 1.0)
    for tau in np.linspace(0.1, 1.0, 7):
        direct = model_fundamental(m, p, float(tau))
        via_flow = _fundamental(h, 1.0, float(tau)) @ phi1
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(direct - via_flow)) / scale < 1e-9
        assert np.linalg.det(direct) == pytest.approx(det_expected, abs=1e-10)


def test_order_two_normalized_at_one():
    p = ModelParams(m=2, b_m=-1.0, c11=-2.0, k=1)
    assert np.allclose(model_fundamental(2, p, 1.0), np.eye(2), atol=1e-14)


def test_model_guards():
    p = ModelParams(m=2, b_m=-1.0, c11=-2.0, k=1)
    with pytest.raises(PreconditionError):
        model_fundamental(2, p, 0.0)
    with pytest.raises(PreconditionError):
        model_fundamental(3, p, 0.5)
    # Delta = 0 and Delta = 1 are resonant for order two
    with pytest.raises(ResonanceError):
        model_fundamental(2, ModelParams(m=2, b_m=-1.0, c11=0.25, k=1), 0.5)
    with pytest.raises(ResonanceError):
        model_fundamental(2, ModelParams(m=2, b_m=-1.0, c11=1e-9, k=1), 0.5)
    # the Bessel branch needs the non-oscillating sign pairing
    with pytest.raises(OscillatingError):
        model_fundamental(3, ModelParams(m=3, b_m=-2.0, c11=1.3, k=1), 0.5)


def test_two_block_embedding():
    p = ModelParams(m=2, b_m=-1.0, c11=-2.0, b22=0.5, c22=-0.3, k=2)
    phi = model_fundamental(2, p, 0.4)
    assert phi.shape == (4, 4)
    assert np.linalg.det(phi) == pytest.approx(1.0, abs=1e-12)
    sing = phi[np.ix_([0, 2], [0, 2])]
    scalar = model_fundamental(2, ModelParams(m=2, b_m=-1.0, c11=-2.0, k=1), 0.4)
    assert np.array_equal(sing, scalar)
    # regular pair decouples into its own exponential
    reg = phi[np.ix_([1, 3], [1, 3])]
    assert np.allclose(reg, expm(0.4 * np.array([[0.0, 0.5], [-0.3, 0.0]])), atol=1e-12)


# ---------------------------------------------------------------------------
# backward limits
# ---------------------------------------------------------------------------


def test_backward_limit_scalar_order_two():
    # Delta = 3: dominant direction (g, (Delta-1)/2) = (-1, 1)
    p = ModelParams(m=2, b_m=-1.0, c11=-2.0, k=1)
    lim = model_backward_limit(2, p, np.array([[1.0], [0.5]]))
    assert np.allclose(lim.ravel(), [1.0, -1.0])


def test_backward_limit_order_one_is_extension():
    p = ModelParams(m=1, b_m=-1.0, c11=0.7, k=1)
    l0 = np.array([[0.3], [1.0]])
    lim = model_backward_limit(1, p, l0)
    expected = canonicalize(extend_by_isotropic(l0, np.array([1.0, 0.0])))
    assert plane_distance(lim, expected) < 1e-14


def test_backward_limit_two_block_splits_columns():
    p = ModelParams(m=2, b_m=-1.0, c11=-2.0, b22=0.5, c22=-0.3, k=2)
    rng = np.random.default_rng(5)
    lim = model_backward_limit(2, p, random_lagrangian(rng, 2))
    assert lim.shape == (4, 2)
    # first column is the singular dominant direction, second is regular
    assert np.allclose(lim[:, 0], [1.0, 0.0, -1.0, 0.0], atol=1e-12)
    assert abs(lim[0, 1]) < 1e-12 and abs(lim[2, 1]) < 1e-12


def test_continuation_composes_limit_and_flow():
    p = ModelParams(m=2, b_m=-1.0, c11=-2.0, k=1)
    l0 = np.array([[1.0], [0.4]])
    cont = model_continuation(2, p, l0, 0.5)
    direct = canonicalize(model_fundamental(2, p, 0.5) @ model_backward_limit(2, p, l0))
    assert plane_distance(cont, direct) < 1e-14


# ---------------------------------------------------------------------------
# the epsilon family approaches the model continuation
# ---------------------------------------------------------------------------


def test_epsilon_family_validates_times():
    p = ModelParams(m=2, b_m=-1.0, c11=-2.0, k=1)
    l0 = np.array([[1.0], [0.4]])
    with pytest.raises(PreconditionError):
        epsilon_family_oracle(p.coefficients().system, l0, 0.0, [1e-3])
    with pytest.raises(PreconditionError):
        epsilon_family_oracle(p.coefficients().system, l0, 0.5, [0.6])
    with pytest.raises(PreconditionError):
        epsilon_family_oracle(p.coefficients().system, l0, 0.5, [0.0])


def test_epsilon_family_converges_to_continuation():
    p = ModelParams(m=2, b_m=-1.0, c11=-2.0, k=1)
    l0 = canonicalize(np.array([[1.0], [0.4]]))
    target = model_continuation(2, p, l0, 0.5)
    planes = epsilon_family_oracle(
        p.coefficients().system, l0, 0.5, [1e-2, 1e-3, 1e-4], rtol=1e-12
    )
    assert isinstance(planes, np.ndarray) and planes.shape == (3, 2, 1)
    dists = [plane_distance(pl, target) for pl in planes]
    assert dists[0] > dists[1] > dists[2]
    assert dists[0] < 1e-4
    assert dists[2] < 1e-10


if __name__ == "__main__":
    pytest.main([__file__])
