"""Truncated power series arithmetic.

A :class:`TruncatedSeries` stores coefficients ``a_0 .. a_{L-1}`` of a formal
series in one variable.  Binary operations align to the shorter operand, so
the stored window is always a window of exact coefficients: truncation never
invents spurious terms.

Only the handful of operations needed by the singular normal-form machinery
is provided (ring operations, reciprocal of a unit, derivative,
antiderivative, exponential, shifts by powers of the variable, evaluation
with a crude geometric tail estimate).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateError, PreconditionError

__all__ = [
    "TruncatedSeries",
    "sconv",
    "srecip",
    "sder",
    "sint",
    "mconv",
    "meval",
    "strim",
    "taylor_recenter",
]


class TruncatedSeries:
    """Formal power series truncated to a fixed number of terms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise PreconditionError("series needs a nonempty 1-D coefficient array")
        self.coeffs = c

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, value: float, nterms: int) -> "TruncatedSeries":
        c = np.zeros(nterms)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, nterms: int) -> "TruncatedSeries":
        c = np.zeros(nterms)
        if nterms >= 2:
            c[1] = 1.0
        return cls(c)

    # -- basics -------------------------------------------------------
    @property
    def nterms(self) -> int:
        return int(self.coeffs.size)

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs.copy())

    def truncate(self, nterms: int) -> "TruncatedSeries":
        if nterms <= self.nterms:
            return TruncatedSeries(self.coeffs[:nterms].copy())
        c = np.zeros(nterms)
        c[: self.nterms] = self.coeffs
        return TruncatedSeries(c)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r})"

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries.constant(float(other), self.nterms)

    # -- ring operations ----------------------------------------------
    def __add__(self, other) -> "TruncatedSeries":
        o = self._coerce(other)
        m = min(self.nterms, o.nterms)
        return TruncatedSeries(self.coeffs[:m] + o.coeffs[:m])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.coeffs)

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coeffs * float(other))
        m = min(self.nterms, other.nterms)
        out = np.convolve(self.coeffs[:m], other.coeffs[:m])[:m]
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.reciprocal()
        return TruncatedSeries(self.coeffs / float(other))

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self.coeffs
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        if scale == 0.0 or abs(a[0]) < 1e-14 * scale:
            raise DegenerateError("series has (numerically) zero constant term")
        b = np.zeros_like(a)
        b[0] = 1.0 / a[0]
        for k in range(1, a.size):
            b[k] = -np.dot(a[1 : k + 1], b[k - 1 :: -1]) / a[0]
        return TruncatedSeries(b)

    # -- calculus -----------------------------------------------------
    def derivative(self) -> "TruncatedSeries":
        if self.nterms == 1:
            return TruncatedSeries([0.0])
        c = self.coeffs[1:] * np.arange(1, self.nterms)
        return TruncatedSeries(c)

    def antiderivative(self, const: float = 0.0) -> "TruncatedSeries":
        c = np.empty(self.nterms + 1)
        c[0] = const
        c[1:] = self.coeffs / np.arange(1, self.nterms + 1)
        return TruncatedSeries(c)

    def exp(self) -> "TruncatedSeries":
        """exp of the series, via the first-order recursion y' = a' y."""
        a = self.coeffs
        y = np.zeros_like(a)
        y[0] = np.exp(a[0])
        for k in range(1, a.size):
            j = np.arange(1, k + 1)
            y[k] = np.dot(j * a[j], y[k - j]) / k
        return TruncatedSeries(y)

    # -- shifts --------------------------------------------------------
    def shift_down(self, m: int, tol: float = 1e-12) -> "TruncatedSeries":
        """Divide by the m-th power of the variable (leading terms must vanish)."""
        if m == 0:
            return self.copy()
        if m >= self.nterms:
            raise PreconditionError("shift exceeds truncation window")
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        if np.max(np.abs(self.coeffs[:m])) > tol * scale:
            raise DegenerateError("series is not divisible by the requested power")
        return TruncatedSeries(self.coeffs[m:].copy())

    def shift_up(self, m: int) -> "TruncatedSeries":
        if m == 0:
            return self.copy()
        c = np.zeros(self.nterms + m)
        c[m:] = self.coeffs
        return TruncatedSeries(c)

    # -- evaluation ----------------------------------------------------
    def __call__(self, tau: float) -> float:
        return float(meval(self.coeffs, tau))

    def tail_estimate(self, tau: float) -> float:
        """Crude geometric bound on the truncation error at ``tau``.

        Uses the growth ratio of the top coefficients; returns ``inf`` when
        the ratio test suggests ``tau`` is outside the convergence radius.
        """
        a = np.abs(self.coeffs)
        nz = np.nonzero(a > 0)[0]
        if nz.size == 0:
            return 0.0
        top = nz[nz >= max(1, self.nterms // 2)]
        rho = max((a[k] ** (1.0 / k) for k in top), default=0.0)
        x = abs(tau)
        if rho * x >= 1.0:
            return float("inf")
        last = self.nterms - 1
        # extrapolate the first missing term geometrically from the trailing
        # nonzero coefficients, then sum the geometric tail
        first_missing = max(a[k] * x**k * (rho * x) ** (last + 1 - k) for k in nz[-3:])
        return float(first_missing / (1.0 - rho * x))


# ---------------------------------------------------------------------------
# Coefficient-stack helpers.
#
# Matrix- and vector-valued truncated series are represented as plain float
# arrays of shape (L, ...) whose leading axis indexes the power of the
# variable (lowest order first).  This keeps the heavy normal-form algebra in
# vectorized numpy instead of object arrays of TruncatedSeries.
# ---------------------------------------------------------------------------


def sconv(a: np.ndarray, b: np.ndarray, nterms: int | None = None) -> np.ndarray:
    """Product of two scalar coefficient stacks, truncated to ``nterms``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_len = min(a.size, b.size) if nterms is None else nterms
    out = np.zeros(out_len)
    for k in range(min(a.size, out_len)):
        if a[k] == 0.0:
            continue
        hi = min(out_len - k, b.size)
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
    for k in range(min(a.shape[0], out_len)):
        hi = min(out_len - k, b.shape[0])
        if hi > 0:
            out[k : k + hi] += np.einsum("rs,lsc->lrc", a[k], b[:hi])
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
