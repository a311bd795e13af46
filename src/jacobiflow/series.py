"""Truncated power series arithmetic on coefficient stacks.

A series is a plain float array of shape ``(L, ...)`` whose leading axis
indexes the power of the variable, lowest order first.  Products truncate to
the shorter operand unless told otherwise, so the stored window is always a
window of exact coefficients: truncation never invents spurious terms.

This is the one module of the package that multiplies or inverts truncated
series.  It provides what the singular normal form and the blow-up series
need:

- products: :func:`sconv` (a scalar series times a stack of any trailing
  shape) and :func:`mconv` (matrix stacks);
- inverses: :func:`srecip` (scalar) and :func:`minv` (square matrix stack);
- :func:`sexp`, :func:`sder` and :func:`sint`;
- :func:`meval` (evaluation), :func:`taylor_recenter` (re-centring),
  :func:`strim` and ``_pad`` (window length).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateError

__all__ = [
    "sconv",
    "srecip",
    "sexp",
    "sder",
    "sint",
    "mconv",
    "minv",
    "meval",
    "strim",
    "taylor_recenter",
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
    """Reciprocal series of ``a``; requires a nonzero constant term."""
    a = np.asarray(a, dtype=float)
    if a[0] == 0.0:
        raise DegenerateError("cannot invert a series with zero constant term")
    n = a.size if nterms is None else nterms
    out = np.zeros(n)
    out[0] = 1.0 / a[0]
    for k in range(1, n):
        acc = 0.0
        for j in range(1, min(k, a.size - 1) + 1):
            acc += a[j] * out[k - j]
        out[k] = -acc / a[0]
    return out


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
            out[k : k + hi] += np.einsum("rs,lsc->lrc", a[k], b[:hi])
    return out


def minv(a: np.ndarray, nterms: int | None = None) -> np.ndarray:
    """Inverse of a square matrix stack; requires an invertible constant term."""
    a = np.asarray(a, dtype=float)
    s = np.linalg.svd(a[0], compute_uv=False)
    if s[-1] <= 1e-13 * s[0]:
        raise DegenerateError("cannot invert a matrix series with singular constant term")
    n = a.shape[0] if nterms is None else nterms
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


def meval(a: np.ndarray, tau: float, deriv: int = 0) -> np.ndarray:
    """Evaluate a coefficient stack (or a derivative of it) at a scalar ``tau``.

    This is the one polynomial evaluator of the package.  It is Horner's rule
    in the order of ``numpy.polynomial.polynomial.polyval``, so each entry is
    bit-for-bit the value ``polyval`` gives for that entry's coefficients.
    A 1-D stack evaluates to a scalar.  The stack must not be empty.
    """
    a = np.asarray(a, dtype=float)
    for _ in range(deriv):
        a = sder(a)
    out = a[-1] + tau * 0.0
    for k in range(a.shape[0] - 2, -1, -1):
        out = out * tau + a[k]
    return out


def taylor_recenter(coeffs: np.ndarray, t0: float) -> np.ndarray:
    """Coefficients of ``P(t0 + s)`` in ``s`` for a polynomial ``P``."""
    c = np.asarray(coeffs, dtype=float)
    out = np.zeros_like(c)
    fact = 1.0
    work = c.copy()
    for k in range(c.shape[0]):
        out[k] = meval(work, t0) / fact
        work = sder(work)
        fact *= k + 1
    return out
