"""Moving-frame normal form of the flow near a vanishing weight.

Near the marked instant 0, where the weight ``b`` vanishes to finite order
``m`` while ``sigma(X, Xdot)`` stays nonzero, the rank-one flow

    eta' = sigma(X(t), eta) / b(t) * X(t)

is conjugated by a symplectic series frame ``M(t)`` into a block system

    mu' = [[0, B(t)], [C(t), 0]] mu,      B(t) = Bnum(t) / t**m,

where the singular block has size ``k`` (1 when ``span{X, X', X''}`` is
two-dimensional, 2 when it is three-dimensional), ``Bnum`` is analytic with
``Bnum(0) = diag(1/b_m, 0)`` and ``C`` is diagonal.  The frame columns are

    e1 = X,   f1 = X' / sigma(X, X'),   e2, f2 (three-dimensional case),

completed by constant-coefficient pairs spanning the skew complement.  The
block matrices are extracted by exact truncated-series conjugation of the
frame rather than from tabulated bracket formulas, so every consumer of the
normal form (classification, blow-up jets, jump operators) sees one
consistent sign convention.  ``B`` is negative definite for small positive
times.  Its (2,2) entry at zero has the closed form
``-sigma(f2'(0), f2(0))`` in the raw ``f2``, and the shear
``f2 += kappa t e2`` lowers it by ``kappa sigma(e2, f2)(0) = kappa``; when
the raw entry is not negative, the frame is assembled once with the
``kappa`` that makes it ``-1``, so no probe frame is built.  All series
arithmetic goes through :mod:`jacobiflow.series`, and the frame is inverted
by :func:`~jacobiflow.symplectic.symplectic_inverse`.

The frame is built at 0 from the coefficients of the piece right of 0 as
they are.  :class:`NormalFormFrame` is the one record of that instant: it
keeps the frame series and the block system, and the order, the block size,
``b_m`` and the span case are read from the block system.

The block system is evaluated on every integrator stage of the portrait,
so :class:`NormalFormCoefficients` compiles its stacks once at construction
and evaluates them in a single Horner pass (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ..errors import (
    AdjustError,
    NondegeneracyError,
    PoleError,
    PreconditionError,
    SingularityError,
)
from ..series import (
    _pad,
    mconv,
    meval,
    minv,
    sconv,
    sder,
    sexp,
    sint,
    srecip,
    strim,
    vsigma,
)
from ..symplectic import apply_j, symplectic_form, symplectic_inverse

__all__ = [
    "NormalFormCoefficients",
    "NormalFormFrame",
    "build_normal_frame",
]

SYMPLECTIC_TOL = 1e-8
BLOCK_TOL = 1e-8
DEFAULT_NTERMS = 40


# ---------------------------------------------------------------------------
# coefficient container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormCoefficients:
    """Block-system data ``B = 1/b + [[b11, b12], [b12, b22]]``, ``C`` diagonal.

    All entries are coefficient stacks in the local time (lowest order
    first; an empty stack is stored as the zero series ``[0.0]``); ``b``
    vanishes to order ``m`` at zero.  For ``k == 1`` only
    ``b11`` and ``c11`` are meaningful.

    The stacks are compiled once, at construction: the analytic part of
    ``[[0, B], [C, 0]]`` becomes one ``(L, 2k, 2k)`` stack and ``b`` one
    stack, both without trailing zero orders.  :meth:`system` is then one
    :func:`~jacobiflow.series.meval` pass plus the pole term ``1/b(t)``
    added to entry ``(0, k)``; every value equals the entrywise ``polyval``
    assembly bit for bit.  The analytic stack is the one layout of the block
    system: the first-jet continuation conjugates it as it is.  The instance
    and its arrays are read-only, so the compiled stacks cannot go stale.
    """

    k: int
    m: int
    b: np.ndarray
    b11: np.ndarray
    c11: np.ndarray
    b12: np.ndarray = field(default_factory=lambda: np.zeros(1))
    b22: np.ndarray = field(default_factory=lambda: np.zeros(1))
    c22: np.ndarray = field(default_factory=lambda: np.zeros(1))
    _system_stack: np.ndarray = field(init=False, repr=False, compare=False)
    _b_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k not in (1, 2):
            raise PreconditionError("block size must be 1 or 2")
        if self.m < 0:
            raise PreconditionError("vanishing order must be nonnegative")
        for name in ("b", "b11", "c11", "b12", "b22", "c22"):
            arr = np.array(getattr(self, name), dtype=float, ndmin=1)
            if not arr.size:
                arr = np.zeros(1)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        scale = float(np.max(np.abs(self.b)))
        if scale == 0.0:
            raise PreconditionError("weight series is identically zero")
        lead = self.b[self.m] if self.m < self.b.size else 0.0
        if abs(lead) <= 1e-12 * scale:
            raise PreconditionError("weight series does not have the stated vanishing order")

        k = self.k
        entries = [((0, k), self.b11), ((k, 0), self.c11)]
        if k == 2:
            entries += [((0, 3), self.b12), ((1, 2), self.b12), ((1, 3), self.b22),
                        ((3, 1), self.c22)]
        stack = np.zeros((max(c.size for _, c in entries), 2 * k, 2 * k))
        for (i, j), c in entries:
            stack[: c.size, i, j] = c
        for name, arr in (("_system_stack", strim(stack)), ("_b_stack", strim(self.b))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def b_m(self) -> float:
        return float(self.b[self.m])

    def system(self, tau) -> np.ndarray:
        """Block system matrix ``[[0, B], [C, 0]]`` at ``tau``.

        A 1-D array of K times gives the ``(K, 2k, 2k)`` stack of the values.
        """
        bval = meval(self._b_stack, tau)
        if np.any(bval == 0.0):
            t = float(np.asarray(tau)[bval == 0.0][0])
            raise PoleError(f"weight vanishes at t={t!r}", t)
        out = meval(self._system_stack, tau)
        out[..., 0, self.k] += 1.0 / bval
        return out


# ---------------------------------------------------------------------------
# frame container
# ---------------------------------------------------------------------------


@dataclass
class NormalFormFrame:
    """The one record of the marked instant 0: the series frame and its block system.

    ``frame`` is the ``(P, 2n, 2n)`` coefficient stack of ``M(t)``, evaluated
    by :func:`~jacobiflow.series.meval`: the P orders of the longest prefix
    of the build whose residual checks pass.  ``coeffs`` is the block system
    it gives, and holds the order ``m``, the block size ``k`` and ``b_m``.
    ``orders`` are the orders the series may be summed at: the passing
    prefix lengths from the lowest admissible one, N0, up to P.
    ``residuals[L - 1]`` is the scaled residual of ``M^T J M = J`` over the
    first ``L`` orders, and ``sigma_xxdot`` is ``sigma(X, X')(0)``.
    """

    frame: np.ndarray
    coeffs: NormalFormCoefficients
    sigma_xxdot: float
    residuals: np.ndarray
    orders: tuple[int, ...]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _local_data(data, nterms: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The series of ``b`` and ``X`` of the piece of ``data`` right of 0,
    padded to ``nterms`` orders, and the highest order of a nonzero
    coefficient of either; the pieces are polynomials in ``t`` itself."""
    piece = data.piece_index(0.0)
    b, x = data.b_pieces[piece], data.x_pieces[piece]
    degree = max(np.flatnonzero(b).max(initial=0), np.flatnonzero(x.any(axis=0)).max(initial=0))
    return _pad(b, nterms), _pad(x.T, nterms), int(degree)


def _upto(a: np.ndarray) -> np.ndarray:
    """The largest ``|entry|`` of the stack ``a`` over each prefix of its orders."""
    return np.maximum.accumulate(np.abs(a).reshape(len(a), -1).max(axis=1, initial=0.0))


def _vanishing_order(b_loc: np.ndarray) -> int:
    scale = float(np.max(np.abs(b_loc)))
    if scale == 0.0:
        raise PreconditionError("weight is identically zero near the marked instant")
    idx = np.nonzero(np.abs(b_loc) > 1e-12 * scale)[0]
    return int(idx[0])


def _span_size(x: np.ndarray, dx: np.ndarray, ddx: np.ndarray) -> int:
    cols = np.stack([x[0], dx[0], ddx[0]], axis=1)
    norms = np.linalg.norm(cols, axis=0)
    norms[norms == 0.0] = 1.0
    sv = np.linalg.svd(cols / norms, compute_uv=False)
    return int(np.sum(sv > 1e-7 * sv[0]))


def _assemble(x: np.ndarray, dx: np.ndarray, ddx: np.ndarray, s1: np.ndarray, k: int) -> np.ndarray:
    """Series frame with columns ``(e1, e2.., f1, f2..)``, the ``f2`` shear applied."""
    nterms, dim = x.shape
    n = dim // 2
    e1 = x.copy()
    f1 = sconv(srecip(s1), dx, nterms)

    columns = [e1]
    f_columns = [f1]
    pairs = [(e1, f1)]

    if k == 2:
        inv_rev = srecip(vsigma(dx, x))
        coef1 = sconv(vsigma(ddx, x), inv_rev, nterms)
        coef2 = sconv(vsigma(ddx, dx), inv_rev, nterms)
        e2 = ddx - sconv(coef1, dx, nterms) + sconv(coef2, x, nterms)
        # f2 solves sigma(u, f2) = (0, 0, 1) for u = (X, X', X'') on the three
        # coordinates whose pairings sigma(u, e_c) = -(J u)_c are best posed
        pairing = -apply_j(np.stack([x, dx, ddx], axis=1).T).T
        triple = list(max(combinations(range(dim), 3),
                          key=lambda c: abs(np.linalg.det(pairing[0][:, c]))))
        if abs(np.linalg.det(pairing[0][:, triple])) < 1e-10:
            raise NondegeneracyError("derivative pairings too degenerate to build f2")
        f2 = np.zeros_like(x)
        f2[:, triple] = minv(pairing[:, :, triple])[:, :, 2]
        # B(2,2)(0) = -sigma(f2'(0), f2(0)), and the shear f2 += kappa t e2
        # lowers it by kappa sigma(e2, f2)(0) (= 1 by construction); the q22
        # rescale below leaves the value at 0 alone, since q22(0) = 1
        v0 = -symplectic_form(f2[1], f2[0])
        if v0 >= -1e-10:
            kappa = (1.0 + v0) / symplectic_form(e2[0], f2[0])
            f2 = f2 + sconv(_pad([0.0, kappa], nterms), e2, nterms)
        # the raw pair carries a diagonal drift sigma(e2', f2); rescaling the
        # pair by exp(-integral) removes it and is the Q factor of the block
        rate = vsigma(_pad(sder(e2), nterms), f2)
        q22 = sexp(sint(rate)[:nterms])
        e2 = sconv(srecip(q22), e2, nterms)
        f2 = sconv(q22, f2, nterms)
        columns.append(e2)
        f_columns.append(f2)
        pairs.append((e2, f2))

    def project(v: np.ndarray) -> np.ndarray:
        for e, f in pairs:
            v = v - sconv(vsigma(v, f), e, nterms) + sconv(vsigma(v, e), f, nterms)
        return v

    # the coordinate axes, projected off the pairs, complete the frame; with
    # k = n pairs it is complete already
    pool = []
    if len(pairs) < n:
        for c in range(dim):
            cand = np.zeros_like(x)
            cand[0, c] = 1.0
            cand = project(cand)
            if np.linalg.norm(cand[0]) > 1e-6:
                pool.append(cand)

    while len(pairs) < n:
        pool.sort(key=lambda v: -np.linalg.norm(v[0]))
        g = pool.pop(0)
        scores = [abs(vsigma(g, w)[0]) for w in pool]
        if not scores or max(scores) < 1e-8:
            raise NondegeneracyError("cannot complete the frame to a symplectic basis")
        w = pool.pop(int(np.argmax(scores)))
        h = sconv(srecip(vsigma(g, w)), w, nterms)
        pairs.append((g, h))
        columns.append(g)
        f_columns.append(h)
        pool = [
            v - sconv(vsigma(v, h), g, nterms) + sconv(vsigma(v, g), h, nterms) for v in pool
        ]

    frame = np.zeros((nterms, dim, dim))
    for j, col in enumerate(columns):
        frame[:, :, j] = col
    for j, col in enumerate(f_columns):
        frame[:, :, n + j] = col
    return frame


def build_normal_frame(data, *, nterms: int = DEFAULT_NTERMS) -> NormalFormFrame:
    """Build the symplectic series frame at the marked instant 0.

    ``data`` is a :class:`~jacobiflow.engine.PiecewiseAnalytic`; the series
    of the piece to the right of 0 are its coefficients as they are, padded
    to ``nterms`` orders.  The frame is assembled once.  When the raw
    ``B(2,2)(0)``, which is ``-sigma(f2'(0), f2(0))``, is not below
    ``-1e-10``, ``f2`` is sheared by ``kappa t e2`` with the ``kappa`` that
    makes it ``-1``, so ``coeffs.b22[0]`` reads ``-1`` to rounding then.

    The top orders carry rounding that grows with the order, so each
    residual check is read over every prefix: the first ``L`` orders of the
    frame and the first ``L - 1`` of its block system, which an ``L``-order
    build would check.  N0 is half of ``nterms``, or one past the data's
    degree where that is more (at most ``nterms``), so no prefix cuts the
    data.  Where no prefix from N0 on passes, the build is refused with the
    first check that fails over all ``nterms`` orders.
    """
    b_loc, x, degree = _local_data(data, nterms)
    m = _vanishing_order(b_loc)
    if m >= 1 and b_loc[m] > 0.0:
        raise SingularityError("leading weight coefficient must be negative")
    if m == 0 and b_loc[0] > 0.0:
        raise SingularityError("weight must be negative on the regular side")

    dx = _pad(sder(x), nterms)
    ddx = _pad(sder(dx), nterms)
    s1 = vsigma(x, dx)
    x_scale = max(1.0, float(np.max(np.abs(x[0]))) ** 2)
    if abs(s1[0]) <= 1e-10 * x_scale:
        raise NondegeneracyError("sigma(X, Xdot) vanishes at the marked instant")
    k = min(2, _span_size(x, dx, ddx) - 1)
    if k < 1:
        raise NondegeneracyError("X and Xdot are parallel at the marked instant")

    frame = _assemble(x, dx, ddx, s1, k)
    dim = frame.shape[1]
    n = dim // 2

    # one product M^-1 [M | M'] gives the symplectic residual of the series
    # frame, M^-1 M - I = -J (M^T J M - J), which has the magnitudes of the
    # Gram residual, and the reduced system -M^-1 M'; the padded derivative
    # has an unknown top coefficient, so the system drops that order
    inv = symplectic_inverse(frame)
    both = mconv(inv, np.concatenate([frame, _pad(sder(frame), nterms)], axis=2))
    res = both[:, :, :dim]
    res[0] -= np.eye(dim)
    sym = _upto(res) / np.maximum(1.0, _upto(frame)) ** 2

    g_mat = -both[: nterms - 1, :, dim:]
    ps = list(range(k))
    qs = list(range(n, n + k))
    comp = [i for i in range(dim) if i not in ps + qs]
    b_an = g_mat[:, ps, :][:, :, qs]
    c_blk = g_mat[:, qs, :][:, :, ps]
    scale = np.maximum(1.0, np.maximum(_upto(b_an), _upto(c_blk)))
    # (value over the prefixes of 2 .. nterms orders, tolerance, refusal)
    checks = [(sym[1:], SYMPLECTIC_TOL,
               f"frame symplectic residual {{:.2e}} exceeds {SYMPLECTIC_TOL:.0e}"),
              (_upto(g_mat[:, ps, :][:, :, ps]) / scale, BLOCK_TOL,
               "diagonal block of the reduced system is not zero ({:.2e})")]
    if k == 2:
        checks += [(np.maximum(_upto(c_blk[:, 0, 1]), _upto(c_blk[:, 1, 0])) / scale, BLOCK_TOL,
                    "reduced C block is not diagonal ({:.2e})"),
                   (_upto(b_an[:, 0, 1] - b_an[:, 1, 0]) / scale, BLOCK_TOL,
                    "reduced B block is not symmetric ({:.2e})")]
    checks.append((np.maximum(_upto(g_mat[:, ps + qs, :][:, :, comp]),
                              _upto(g_mat[:, comp, :][:, :, ps + qs])) / scale, BLOCK_TOL,
                   "singular block couples to the skew complement; the derivative span "
                   "of X does not close at this instant"))
    passed = np.logical_and.reduce([value <= tol for value, tol, _ in checks])
    least = min(max(nterms // 2, degree + 1), nterms)
    orders = tuple(int(p) for p in np.flatnonzero(passed[least - 2:]) + least)
    if not orders:
        value, _, refusal = next(check for check in checks if not check[0][-1] <= check[1])
        raise NondegeneracyError(refusal.format(value[-1]))
    length = orders[-1]
    frame, b_an, c_blk = frame[:length], b_an[: length - 1], c_blk[: length - 1]

    if k == 2:
        coeffs = NormalFormCoefficients(
            k=2,
            m=m,
            b=b_loc,
            b11=b_an[:, 0, 0],
            b12=0.5 * (b_an[:, 0, 1] + b_an[:, 1, 0]),
            b22=b_an[:, 1, 1],
            c11=c_blk[:, 0, 0],
            c22=c_blk[:, 1, 1],
        )
        if coeffs.b22[0] >= 0.0:
            raise AdjustError("the f2 shear failed to make B(2,2) negative at the instant")
    else:
        coeffs = NormalFormCoefficients(
            k=1, m=m, b=b_loc, b11=b_an[:, 0, 0], c11=c_blk[:, 0, 0]
        )

    return NormalFormFrame(frame=frame, coeffs=coeffs, sigma_xxdot=float(s1[0]),
                           residuals=sym[:length], orders=orders)
