"""Truncated power series arithmetic on coefficient stacks.

A series is a plain float array of shape ``(L, ...)`` whose leading axis
indexes the power of the variable, lowest order first.  Products truncate to
the shorter operand unless told otherwise, so the stored window is always a
window of exact coefficients: truncation never invents spurious terms.

This is the one module of the package that multiplies or inverts truncated
series.  It provides what the singular normal form and the blow-up series
need:

- products: :func:`sconv` (a scalar series times a stack of any trailing
  shape), :func:`mconv` (matrix stacks) and :func:`vsigma` (the symplectic
  pairing of two vector stacks);
- inverses: :func:`srecip` (scalar) and :func:`minv` (square matrix stack);
- :func:`sexp`, :func:`sder` and :func:`sint`;
- :func:`meval` (evaluation), :func:`strim` and ``_pad`` (window length).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateError
from .symplectic import apply_j

__all__ = [
    "sconv",
    "srecip",
    "sexp",
    "sder",
    "sint",
    "mconv",
    "vsigma",
    "minv",
    "meval",
    "strim",
]


def _pad(a: np.ndarray, nterms: int) -> np.ndarray:
    """Copy of a stack cut or zero-padded to ``nterms`` orders."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] >= nterms:
        return a[:nterms].copy()
    out = np.zeros((nterms,) + a.shape[1:])
    out[: a.shape[0]] = a
    return out


def sconv(a: np.ndarray, b: np.ndarray, nterms: int | None = None) -> np.ndarray:
    """Scalar series ``a`` times the stack ``b`` (any trailing shape), to ``nterms``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_len = min(a.size, b.shape[0]) if nterms is None else nterms
    out = np.zeros((out_len,) + b.shape[1:])
    for k in range(min(a.size, out_len)):
        if a[k] == 0.0:
            continue
        hi = min(out_len - k, b.shape[0])
        out[k : k + hi] += a[k] * b[:hi]
    return out


def srecip(a: np.ndarray, nterms: int | None = None) -> np.ndarray:
    """Reciprocal series of ``a``; requires a nonzero constant term.

    The recursion runs on Python floats: the same IEEE operations in the
    same order as on numpy scalars, at a fraction of the cost.  It skips the
    zero coefficients of ``a``: on finite values a zero term adds an exact
    zero to a sum that starts at +0.0, which leaves it unchanged.
    """
    a = np.asarray(a, dtype=float)
    if a[0] == 0.0:
        raise DegenerateError("cannot invert a series with zero constant term")
    n = a.size if nterms is None else nterms
    c = a.tolist()
    terms = [(j, cj) for j, cj in enumerate(c) if j and cj != 0.0]
    out = [0.0] * n
    out[0] = 1.0 / c[0]
    for k in range(1, n):
        acc = 0.0
        for j, cj in terms:
            if j > k:
                break
            acc += cj * out[k - j]
        out[k] = -acc / c[0]
    return np.array(out, dtype=float)


def sexp(a: np.ndarray) -> np.ndarray:
    """Exponential of a scalar series, via the first-order recursion y' = a' y."""
    a = np.asarray(a, dtype=float)
    y = np.zeros_like(a)
    y[0] = np.exp(a[0])
    for k in range(1, a.size):
        j = np.arange(1, k + 1)
        y[k] = np.dot(j * a[j], y[k - j]) / k
    return y


def sder(a: np.ndarray) -> np.ndarray:
    """Derivative of a coefficient stack (any trailing shape)."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] <= 1:
        return np.zeros_like(a[:1])
    k = np.arange(1, a.shape[0]).reshape((-1,) + (1,) * (a.ndim - 1))
    return a[1:] * k


def sint(a: np.ndarray) -> np.ndarray:
    """Antiderivative (zero constant) of a coefficient stack."""
    a = np.asarray(a, dtype=float)
    k = np.arange(1, a.shape[0] + 1).reshape((-1,) + (1,) * (a.ndim - 1))
    out = np.zeros((a.shape[0] + 1,) + a.shape[1:])
    out[1:] = a / k
    return out


def mconv(a: np.ndarray, b: np.ndarray, nterms: int | None = None) -> np.ndarray:
    """Matrix product of coefficient stacks shaped ``(L, r, s)``/``(L, s, c)``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_len = min(a.shape[0], b.shape[0]) if nterms is None else nterms
    out = np.zeros((out_len, a.shape[1], b.shape[2]))
    head = a[:out_len]
    for k in np.flatnonzero(head.reshape(head.shape[0], -1).any(axis=1)):
        hi = min(out_len - k, b.shape[0])
        if hi > 0:
            out[k : k + hi] += a[k] @ b[:hi]
    return out


def vsigma(u: np.ndarray, v: np.ndarray, nterms: int | None = None) -> np.ndarray:
    """Series of ``sigma(u(t), v(t)) = u^T J v`` for vector stacks shaped ``(L, 2n)``."""
    return mconv(u[:, None, :], apply_j(v.T).T[:, :, None], nterms)[:, 0, 0]


def minv(a: np.ndarray, nterms: int | None = None) -> np.ndarray:
    """Inverse of a square matrix stack; requires an invertible constant term.

    The recursion runs on ``a`` without its trailing zero orders
    (:func:`strim`), which would only add exact zeros to its sums.
    """
    a = np.asarray(a, dtype=float)
    s = np.linalg.svd(a[0], compute_uv=False)
    if s[-1] <= 1e-13 * s[0]:
        raise DegenerateError("cannot invert a matrix series with singular constant term")
    n = a.shape[0] if nterms is None else nterms
    a = strim(a)
    out = np.zeros((n,) + a.shape[1:])
    inv0 = np.linalg.inv(a[0])
    out[0] = inv0
    for k in range(1, n):
        hi = min(k, a.shape[0] - 1)
        acc = np.einsum("jrs,jsc->rc", a[1 : hi + 1], out[k - hi : k][::-1])
        out[k] = -inv0 @ acc
    return out


def strim(a: np.ndarray) -> np.ndarray:
    """Drop the trailing all-zero coefficient slices of a stack (keeps one).

    Trailing zeros do not change a value of :func:`meval`: Horner's rule
    carries an exact zero until the first nonzero slice.
    """
    a = np.asarray(a, dtype=float)
    nonzero = np.flatnonzero(a.reshape(a.shape[0], -1).any(axis=1))
    return a[: nonzero[-1] + 1 if nonzero.size else 1]


def meval(a: np.ndarray, tau) -> np.ndarray:
    """Evaluate a coefficient stack at ``tau``.

    This is the one polynomial evaluator of the package.  It is Horner's rule
    in the order of ``numpy.polynomial.polynomial.polyval``, so each entry is
    bit-for-bit the value ``polyval`` gives for that entry's coefficients.
    A scalar ``tau`` gives one value (a scalar for a 1-D stack); a 1-D array
    of K times gives the K values stacked on a new leading axis, each equal
    bit for bit to the scalar call.  The stack must not be empty.
    """
    a = np.asarray(a, dtype=float)
    if np.ndim(tau) == 1:
        tau = np.asarray(tau, dtype=float).reshape((-1,) + (1,) * (a.ndim - 1))
    out = a[-1] + tau * 0.0
    for k in range(a.shape[0] - 2, -1, -1):
        out = out * tau + a[k]
    return out

